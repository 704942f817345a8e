//! In-memory spans for the traced run: `(name, start_ns, end_ns, parent)`
//! per workload, written out once at exit.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer; spans inside the library are a later change (ROADMAP item 1).

use serde_json::{json, Value};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran (`run_round`, `checkpoint.save`, …).
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for the root).
    pub parent: Option<usize>,
}

/// Records spans on one thread. A tracer built with [`Tracer::off`] records
/// nothing, so the untraced run shares the driver code at the cost of one
/// branch per call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The closed spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// The trace file: every span with its self time.
    pub fn to_json(&self, workload: &str) -> Value {
        let selfs = self_times(&self.spans);
        let spans: Vec<Value> = self
            .spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                json!({
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent,
                    "self_ns": self_ns,
                    "workload": workload,
                })
            })
            .collect();
        json!({ "workload": workload, "spans": spans })
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover (children clipped to the parent; overlapping
/// children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let spans = [
            span(0, 100, None),    // root
            span(10, 40, Some(0)), // child a
            span(40, 70, Some(0)), // child b, adjacent to a
            span(15, 30, Some(1)), // grandchild under a: not root's business
            span(80, 90, Some(0)), // child c after a gap
        ];
        assert_eq!(self_times(&spans), vec![30, 15, 30, 15, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(100, 200, None),
            span(110, 150, Some(0)),
            span(140, 160, Some(0)), // overlaps the previous by 10
            span(190, 250, Some(0)), // overhangs the parent's end by 50
        ];
        assert_eq!(self_times(&spans)[0], 100 - (40 + 10 + 10));
    }

    #[test]
    fn tracer_nests_and_off_records_nothing() {
        let mut t = Tracer::on();
        t.enter("root");
        t.span("a", || ());
        t.enter("b");
        t.span("c", || ());
        t.exit();
        t.exit();
        let parents: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("root", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("c", Some(2))
            ]
        );
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.durations_ms("a").len(), 1);

        let mut off = Tracer::off();
        off.span("x", || ());
        assert!(off.spans().is_empty());
    }
}
