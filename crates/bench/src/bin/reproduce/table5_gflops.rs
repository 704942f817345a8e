//! Table V — total local-computation GFLOPs (forward + backward + attaching
//! operations) spent until the global model reaches the target accuracy.
//!
//! Reuses the cached cells of Table IV (same runs, different unit): the
//! engine accumulates each client's model FLOPs plus the Appendix-A attach
//! FLOPs per round, and this claim reads the cumulative counter at the
//! round where the target is first reached.

use fedtrip_bench::cases::{run_methods, CASES, METHODS};
use fedtrip_bench::Cli;
use fedtrip_metrics::report::Table;
use serde_json::{json, Value};

pub fn run(cli: &Cli) -> Value {
    let mut artifacts = Vec::new();
    for case in &CASES {
        println!("--- {} ---", case.name);
        let (cells, _, adaptive) = run_methods(&cli.results, &case.spec(cli));

        let mut t = Table::new(
            format!(
                "{} — GFLOPs to adaptive target {:.1}%",
                case.name,
                adaptive * 100.0
            ),
            &[
                "Method",
                "paper GFLOPs",
                "GFLOPs@adaptive",
                "vs FedTrip",
                "GFLOPs/round",
            ],
        );
        let trip_gf = cells[0].gflops_to(adaptive);
        for (i, (&alg, cell)) in METHODS.iter().zip(&cells).enumerate() {
            let gf = cell.gflops_to(adaptive);
            let per_round = cell
                .records
                .last()
                .map(|r| r.cum_flops / 1e9 / r.round as f64)
                .unwrap_or(0.0);
            let ratio = match (trip_gf, gf) {
                (Some(a), Some(b)) if a > 0.0 => format!("{:.2}x", b / a),
                _ => "-".into(),
            };
            t.row(&[
                alg.name().to_string(),
                format!("{:.2}", case.paper_gflops[i]),
                gf.map(|v| format!("{v:.2}")).unwrap_or_else(|| "-".into()),
                ratio,
                format!("{per_round:.2}"),
            ]);
            artifacts.push(json!({
                "case": case.name,
                "method": alg.name(),
                "paper_gflops": case.paper_gflops[i],
                "gflops_adaptive_target": gf,
                "gflops_per_round": per_round,
            }));
        }
        println!("{}", t.render());
    }
    Value::Array(artifacts)
}
