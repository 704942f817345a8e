//! Table VI — scalability: communication rounds of the CNN to reach the
//! target accuracy when the server selects 4 of **50** clients.
//!
//! With 50 clients and 4 per round, a client's expected participation gap —
//! and hence FedTrip's `xi` — grows by ~5x versus 4-of-10 (§V-D), which is
//! the regime where the paper reports FedTrip's largest savings and MOON's
//! degradation.

use fedtrip_bench::cases::{paper_cell, run_methods, METHODS};
use fedtrip_bench::Cli;
use fedtrip_core::experiment::ExperimentSpec;
use fedtrip_data::partition::HeterogeneityKind;
use fedtrip_data::synth::DatasetKind;
use fedtrip_metrics::report::Table;
use fedtrip_models::ModelKind;
use serde_json::{json, Value};

struct Cell6 {
    dataset: DatasetKind,
    het: HeterogeneityKind,
    paper_target: f64,
    /// Paper-reported speedup factors vs FedTrip, [FedAvg, FedProx, SlowMo, MOON, FedDyn].
    paper_fedtrip_rounds: usize,
}

pub fn run(cli: &Cli) -> Value {
    let cases = [
        Cell6 {
            dataset: DatasetKind::MnistLike,
            het: HeterogeneityKind::Dirichlet(0.1),
            paper_target: 0.87,
            paper_fedtrip_rounds: 30,
        },
        Cell6 {
            dataset: DatasetKind::MnistLike,
            het: HeterogeneityKind::Dirichlet(0.5),
            paper_target: 0.90,
            paper_fedtrip_rounds: 19,
        },
        Cell6 {
            dataset: DatasetKind::MnistLike,
            het: HeterogeneityKind::Orthogonal(5),
            paper_target: 0.85,
            paper_fedtrip_rounds: 43,
        },
        Cell6 {
            dataset: DatasetKind::FmnistLike,
            het: HeterogeneityKind::Dirichlet(0.1),
            paper_target: 0.65,
            paper_fedtrip_rounds: 19,
        },
        Cell6 {
            dataset: DatasetKind::FmnistLike,
            het: HeterogeneityKind::Dirichlet(0.5),
            paper_target: 0.75,
            paper_fedtrip_rounds: 15,
        },
        Cell6 {
            dataset: DatasetKind::FmnistLike,
            het: HeterogeneityKind::Orthogonal(5),
            paper_target: 0.60,
            paper_fedtrip_rounds: 35,
        },
    ];

    let mut artifacts = Vec::new();
    for case in &cases {
        println!(
            "--- CNN on {} under {} (paper target {:.0}%, paper FedTrip rounds {}) ---",
            case.dataset.name(),
            case.het.name(),
            case.paper_target * 100.0,
            case.paper_fedtrip_rounds
        );
        let spec = ExperimentSpec {
            n_clients: 50,
            ..paper_cell(cli, case.dataset, ModelKind::Cnn, case.het)
        };
        let (cells, finals, adaptive) = run_methods(&cli.results, &spec);
        let trip = cells[0].rounds_to(adaptive);
        let mut t = Table::new(
            format!("adaptive target {:.1}%", adaptive * 100.0),
            &["Method", "rounds@adaptive", "vs FedTrip", "final acc %"],
        );
        for (i, (&alg, cell)) in METHODS.iter().zip(&cells).enumerate() {
            let r = cell.rounds_to(adaptive);
            let speed = match (trip, r) {
                (Some(t0), Some(r)) => format!("{:.2}x", r as f64 / t0 as f64),
                (Some(_), None) => {
                    format!(">{:.2}x", cell.records.len() as f64 / trip.unwrap() as f64)
                }
                _ => "-".into(),
            };
            t.row(&[
                alg.name().to_string(),
                r.map(|v| v.to_string())
                    .unwrap_or_else(|| format!(">{}", cell.records.len())),
                speed,
                format!("{:.2}", finals[i] * 100.0),
            ]);
            artifacts.push(json!({
                "dataset": case.dataset.name(),
                "heterogeneity": case.het.name(),
                "method": alg.name(),
                "rounds_adaptive": r,
                "final_accuracy": finals[i],
                "adaptive_target": adaptive,
            }));
        }
        println!("{}", t.render());
    }
    Value::Array(artifacts)
}
