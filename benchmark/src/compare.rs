//! `run.sh --compare A.json B.json`: is B no worse than A?
//!
//! Per workload and end-to-end metric it prints both values, how far B is
//! worse than A (negative: better) and the bound from the manifest, and it
//! fails when a pair is outside its bound, when a metric is on one side
//! only, or when two runs of the same inputs disagree on their digests.

use crate::manifest::{Better, EndToEnd, END_TO_END};
use serde_json::Value;

/// What became of one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is within the bound of A (or better).
    Within,
    /// B is worse than A by more than the bound.
    Outside,
    /// The metric (or digest) is on one side only.
    Missing,
    /// Same inputs, different outputs.
    DigestDiffers,
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric (or digest) name.
    pub metric: String,
    /// A's value.
    pub a: Option<f64>,
    /// B's value.
    pub b: Option<f64>,
    /// How far B is worse than A: a share of A, or the plain difference for
    /// a metric with an absolute bound.
    pub worse_by: Option<f64>,
    /// The metric's bound.
    pub bound: f64,
    /// The outcome.
    pub verdict: Verdict,
}

/// How far `b` is worse than `a` under `m`'s direction and bound kind.
fn worse_by(m: &EndToEnd, a: f64, b: f64) -> f64 {
    let diff = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if m.absolute || a == 0.0 {
        diff
    } else {
        diff / a.abs()
    }
}

fn workloads(file: &Value) -> &[(String, Value)] {
    file.get("workloads")
        .and_then(Value::as_object)
        .unwrap_or(&[])
}

fn metric(workload: &Value, name: &str) -> Option<f64> {
    workload.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Compare two result files. Workloads and metrics are taken from both
/// sides, so nothing can go missing unseen.
pub fn compare(a: &Value, b: &Value) -> Vec<Row> {
    let mut names: Vec<&String> = workloads(a).iter().map(|(n, _)| n).collect();
    for (n, _) in workloads(b) {
        if !names.contains(&n) {
            names.push(n);
        }
    }
    fn side<'a>(file: &'a Value, name: &str) -> Option<&'a Value> {
        workloads(file)
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| w)
    }
    let mut rows = Vec::new();
    for name in names {
        let (wa, wb) = (side(a, name), side(b, name));
        for m in &END_TO_END {
            let va = wa.and_then(|w| metric(w, m.name));
            let vb = wb.and_then(|w| metric(w, m.name));
            let (worse, verdict) = match (va, vb) {
                (None, None) => continue,
                (Some(x), Some(y)) => {
                    let w = worse_by(m, x, y);
                    // a NaN difference must not pass for "within"
                    let ok = w <= m.bound;
                    (
                        Some(w),
                        if ok {
                            Verdict::Within
                        } else {
                            Verdict::Outside
                        },
                    )
                }
                _ => (None, Verdict::Missing),
            };
            rows.push(Row {
                workload: name.clone(),
                metric: m.name.to_string(),
                a: va,
                b: vb,
                worse_by: worse,
                bound: m.bound,
                verdict,
            });
        }
        // two runs of the same generated inputs must produce the same bits
        if let (Some(wa), Some(wb)) = (wa, wb) {
            let same_inputs = ["seed", "seconds", "counts"]
                .iter()
                .all(|k| wa.get(k).is_some() && wa.get(k) == wb.get(k));
            if same_inputs && wa.get("digests") != wb.get("digests") {
                rows.push(Row {
                    workload: name.clone(),
                    metric: "digests".to_string(),
                    a: None,
                    b: None,
                    worse_by: None,
                    bound: 0.0,
                    verdict: Verdict::DigestDiffers,
                });
            }
        }
    }
    rows
}

/// `true` when every row is within its bound.
pub fn passed(rows: &[Row]) -> bool {
    !rows.is_empty() && rows.iter().all(|r| r.verdict == Verdict::Within)
}

/// The comparison as the table `--compare` prints.
pub fn render(rows: &[Row]) -> String {
    let num = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.4}"));
    let mut out = format!(
        "{:<14} {:<20} {:>12} {:>12} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for r in rows {
        let verdict = match r.verdict {
            Verdict::Within => "ok",
            Verdict::Outside => "OUTSIDE BOUND",
            Verdict::Missing => "MISSING ON ONE SIDE",
            Verdict::DigestDiffers => "SAME INPUTS, DIFFERENT DIGESTS",
        };
        out += &format!(
            "{:<14} {:<20} {:>12} {:>12} {:>9} {:>7}  {}\n",
            r.workload,
            r.metric,
            num(r.a),
            num(r.b),
            num(r.worse_by),
            r.bound,
            verdict
        );
    }
    if rows.is_empty() {
        out += "nothing to compare: neither file holds a workload\n";
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    /// A hand-made result file with one workload.
    fn file(metrics: &[(&str, f64)], digest: &str) -> Value {
        let metrics = metrics
            .iter()
            .map(|(n, v)| {
                (
                    n.to_string(),
                    json!({ "value": *v, "unit": "x", "samples": 1 }),
                )
            })
            .collect();
        let w = json!({
            "seed": 1,
            "seconds": 12,
            "counts": json!({ "timed_rounds": 100 }),
            "digests": json!({ "records": digest }),
            "metrics": Value::Object(metrics),
        });
        json!({ "workloads": Value::Object(vec![("w".to_string(), w)]) })
    }

    fn verdicts(rows: &[Row]) -> Vec<(&str, Verdict)> {
        rows.iter()
            .map(|r| (r.metric.as_str(), r.verdict))
            .collect()
    }

    #[test]
    fn inside_the_bound_passes_in_both_directions_of_better() {
        // 9 % slower rounds, 9 % fewer rounds per second, 0.019 less accurate
        let a = file(
            &[
                ("round_ms_p50", 100.0),
                ("rounds_per_s", 10.0),
                ("final_accuracy", 0.90),
            ],
            "d",
        );
        let b = file(
            &[
                ("round_ms_p50", 109.0),
                ("rounds_per_s", 9.1),
                ("final_accuracy", 0.881),
            ],
            "d",
        );
        let rows = compare(&a, &b);
        assert!(passed(&rows), "{}", render(&rows));
        assert_eq!(rows.len(), 3);
        assert!(
            (rows
                .iter()
                .find(|r| r.metric == "round_ms_p50")
                .unwrap()
                .worse_by
                .unwrap()
                - 0.09)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn outside_the_bound_fails_and_better_never_does() {
        let a = file(
            &[
                ("round_ms_p50", 100.0),
                ("rounds_per_s", 10.0),
                ("final_accuracy", 0.90),
            ],
            "d",
        );
        let b = file(
            &[
                ("round_ms_p50", 111.0),
                ("rounds_per_s", 20.0),
                ("final_accuracy", 0.87),
            ],
            "d",
        );
        let rows = compare(&a, &b);
        assert!(!passed(&rows));
        assert_eq!(
            verdicts(&rows),
            [
                ("rounds_per_s", Verdict::Within), // twice as fast is not a regression
                ("round_ms_p50", Verdict::Outside),
                ("final_accuracy", Verdict::Outside), // absolute bound: 0.03 > 0.02
            ]
        );
    }

    #[test]
    fn a_metric_on_one_side_only_fails() {
        let a = file(&[("round_ms_p50", 100.0), ("checkpoint_mb", 13.0)], "d");
        let b = file(&[("round_ms_p50", 100.0)], "d");
        assert_eq!(
            verdicts(&compare(&a, &b)),
            [
                ("round_ms_p50", Verdict::Within),
                ("checkpoint_mb", Verdict::Missing)
            ]
        );
        // and so does a workload on one side only
        let none = json!({ "workloads": Value::Object(vec![]) });
        assert_eq!(
            verdicts(&compare(&none, &b)),
            [("round_ms_p50", Verdict::Missing)]
        );
        assert!(
            !passed(&compare(&none, &none)),
            "an empty comparison proves nothing"
        );
    }

    #[test]
    fn same_inputs_must_give_the_same_digests() {
        let a = file(&[("round_ms_p50", 100.0)], "aaaa");
        let b = file(&[("round_ms_p50", 100.0)], "bbbb");
        assert_eq!(
            verdicts(&compare(&a, &b)),
            [
                ("round_ms_p50", Verdict::Within),
                ("digests", Verdict::DigestDiffers)
            ]
        );
        assert!(render(&compare(&a, &b)).contains("DIFFERENT DIGESTS"));
    }

    #[test]
    fn failed_share_has_a_zero_bound() {
        let a = file(&[("failed_share", 0.0)], "d");
        assert!(passed(&compare(&a, &a)));
        let b = file(&[("failed_share", 0.01)], "d");
        assert!(!passed(&compare(&a, &b)));
    }
}
