//! Result files and the lines the binaries print.
//!
//! Every result file has one shape, whether it holds one workload or (after
//! `run.sh` merges them) all four:
//! `{"conditions": {...}, "workloads": {"<name>": {"seed", "seconds",
//! "counts", "digests", "attempted", "failed", "failures", "metrics":
//! {"<metric>": {"value", "unit", "samples"}}}}}`.

use serde_json::{json, Value};
use std::path::Path;
use std::process::Command;

/// One measured value with its unit and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarises (1 for a count or a single reading).
    pub samples: usize,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Seed of the run.
    pub seed: u64,
    /// `--seconds` of the run.
    pub seconds: u64,
    /// Round, cycle and warm-up counts of the run.
    pub counts: Vec<(&'static str, u64)>,
    /// Hex digests of the run's outputs (records, global parameters).
    pub digests: Vec<(&'static str, String)>,
    /// Operations attempted: server steps, checkpoint cycles, checks.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Record a metric.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Count one attempted check; record a failure line unless it held.
    pub fn check(&mut self, held: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !held {
            self.failures.push(what());
        }
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Print every metric by name with its unit and sample count, then the
    /// failures.
    pub fn print(&self) {
        println!(
            "workload {} seed {} seconds {}",
            self.workload, self.seed, self.seconds
        );
        for m in &self.metrics {
            println!(
                "  {:<40} {:>14.4} {:<8} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }

    /// This run as the `"workloads"` entry of a result file.
    fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = json!({ "value": m.value, "unit": m.unit, "samples": m.samples });
                (m.name.clone(), v)
            })
            .collect();
        json!({
            "seed": self.seed,
            "seconds": self.seconds,
            "counts": Value::Object(self.counts.iter().map(|(k, v)| (k.to_string(), json!(*v))).collect()),
            "digests": Value::Object(self.digests.iter().map(|(k, v)| (k.to_string(), json!(v))).collect()),
            "attempted": self.attempted,
            "failed": self.failures.len(),
            "failures": self.failures,
            "metrics": Value::Object(metrics),
        })
    }

    /// Write `<out>/<file>` holding the conditions of the run and this
    /// workload.
    pub fn write(&self, out: &Path, file: &str) -> std::io::Result<()> {
        let doc = json!({
            "conditions": conditions(),
            "workloads": Value::Object(vec![(self.workload.clone(), self.to_value())]),
        });
        write_json(&out.join(file), &doc)
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and the `metrics` named in `names`. `Err` names a metric the run did
    /// not produce — the contract wants every one, every time.
    pub fn result_line<'a>(&self, names: impl Iterator<Item = &'a str>) -> Result<String, String> {
        let mut metrics = Vec::new();
        for name in names {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name && m.value.is_finite())
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            metrics.push((
                name.to_string(),
                json!({ "value": m.value, "unit": m.unit }),
            ));
        }
        let line = json!({
            "correct": self.failures.is_empty(),
            "attempted": self.attempted.max(1),
            "failed": self.failures.len(),
            "metrics": Value::Object(metrics),
        });
        Ok(serde_json::to_string(&line).expect("a Value always prints"))
    }
}

/// Pretty-print `doc` to `path`, creating the directory.
pub fn write_json(path: &Path, doc: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string_pretty(doc).expect("a Value always prints");
    std::fs::write(path, text + "\n")
}

/// Merge result files into one (the `"workloads"` maps are united; the
/// first file's conditions are kept).
pub fn merge(files: &[Value]) -> Value {
    let mut workloads: Vec<(String, Value)> = Vec::new();
    for f in files {
        for (name, w) in f.get("workloads").and_then(Value::as_object).unwrap_or(&[]) {
            workloads.retain(|(n, _)| n != name);
            workloads.push((name.clone(), w.clone()));
        }
    }
    json!({
        "conditions": files.first().and_then(|f| f.get("conditions")).cloned().unwrap_or(Value::Null),
        "workloads": Value::Object(workloads),
    })
}

/// The conditions of a run: what a reader needs to judge whether two result
/// files are comparable.
pub fn conditions() -> Value {
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    json!({
        // "unknown" in an exported checkout: it is not a git repository, and
        // git must not go looking for one above it
        "commit": if Path::new(".git").exists() { run("git", &["rev-parse", "HEAD"]) } else { "unknown".to_string() },
        "rustc": run("rustc", &["--version"]),
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "cpu": cpu,
        "rayon_threads": rayon::current_num_threads(),
    })
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        let mut r = Report {
            workload: "w".into(),
            ..Report::default()
        };
        r.attempted = 10;
        r.push("a_ms", 1.5, "ms", 100);
        r.push("b_s", 2.25, "s", 3);
        r
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = report().result_line(["b_s", "a_ms"].into_iter()).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"b_s":{"value":2.25,"unit":"s"},"a_ms":{"value":1.5,"unit":"ms"}}}"#
        );
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error_not_a_zero() {
        assert!(report().result_line(["nope"].into_iter()).is_err());
        let mut r = report();
        r.push("nan", f64::NAN, "ms", 1);
        assert!(r.result_line(["nan"].into_iter()).is_err());
    }

    #[test]
    fn a_failed_check_makes_the_line_incorrect() {
        let mut r = report();
        r.check(true, || unreachable!());
        r.check(false, || "digest differs".into());
        assert_eq!((r.attempted, r.failures.len()), (12, 1));
        assert!(r
            .result_line([].into_iter())
            .unwrap()
            .contains(r#""correct":false"#));
    }

    #[test]
    fn merge_unites_workloads_and_later_files_win() {
        let mut a = report();
        a.workload = "x".into();
        let mut b = report();
        b.workload = "y".into();
        let mut b2 = report();
        b2.workload = "y".into();
        b2.seed = 9;
        let file = |r: &Report| json!({ "conditions": "c", "workloads": Value::Object(vec![(r.workload.clone(), r.to_value())]) });
        let m = merge(&[file(&a), file(&b), file(&b2)]);
        let w = m.get("workloads").unwrap().as_object().unwrap();
        assert_eq!(
            w.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            ["x", "y"]
        );
        assert_eq!(w[1].1.get("seed").unwrap().as_u64(), Some(9));
    }
}
