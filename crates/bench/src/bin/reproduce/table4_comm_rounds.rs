//! Table IV — communication rounds until the global model reaches the
//! target accuracy (6 methods x 6 model/dataset cases, Dir-0.5, 4-of-10).
//!
//! At reduced scales the absolute paper targets may sit above the reduced
//! plateau, so two targets are reported per case: the paper's absolute
//! target and an *adaptive* target (90% of the best final accuracy across
//! methods), which keeps the cross-method ordering comparable at any scale.

use fedtrip_bench::cases::{run_methods, CASES, METHODS};
use fedtrip_bench::Cli;
use fedtrip_core::experiment::Scale;
use fedtrip_metrics::report::Table;
use serde_json::{json, Value};

pub fn run(cli: &Cli) -> Value {
    let mut artifacts = Vec::new();
    for case in &CASES {
        println!("--- {} ---", case.name);
        let (cells, finals, adaptive) = run_methods(&cli.results, &case.spec(cli));
        let abs_target = if cli.scale == Scale::Paper {
            case.paper_target
        } else {
            case.paper_target.min(adaptive)
        };

        let mut t = Table::new(
            format!(
                "{} — paper target {:.0}%, adaptive target {:.1}%",
                case.name,
                case.paper_target * 100.0,
                adaptive * 100.0
            ),
            &[
                "Method",
                "paper rounds",
                "rounds@abs",
                "rounds@adaptive",
                "vs FedTrip",
                "final acc %",
            ],
        );
        let trip_adaptive = cells[0].rounds_to(adaptive);
        for (i, (&alg, cell)) in METHODS.iter().zip(&cells).enumerate() {
            let abs = cell.rounds_to(abs_target);
            let ada = cell.rounds_to(adaptive);
            let speed = match (trip_adaptive, ada) {
                (Some(t0), Some(r)) => format!("{:.2}x", r as f64 / t0 as f64),
                _ => "-".into(),
            };
            let fmt = |r: Option<usize>| {
                r.map(|v| v.to_string())
                    .unwrap_or_else(|| format!(">{}", cell.records.len()))
            };
            t.row(&[
                alg.name().to_string(),
                case.paper_rounds[i]
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".into()),
                fmt(abs),
                fmt(ada),
                speed,
                format!("{:.2}", finals[i] * 100.0),
            ]);
            artifacts.push(json!({
                "case": case.name,
                "method": alg.name(),
                "paper_rounds": case.paper_rounds[i],
                "rounds_abs_target": abs,
                "rounds_adaptive_target": ada,
                "abs_target": abs_target,
                "adaptive_target": adaptive,
                "final_accuracy": finals[i],
            }));
        }
        println!("{}", t.render());
    }
    Value::Array(artifacts)
}
