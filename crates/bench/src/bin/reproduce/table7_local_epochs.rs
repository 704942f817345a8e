//! Table VII — influence of the aggregation interval: test accuracy at
//! rounds 10 and 20 when clients train 5 or 10 local epochs per round
//! (CNN on MNIST, Dir-0.5, 4-of-10, FedTrip mu = 0.4).

use fedtrip_bench::cases::{paper_cell, METHODS};
use fedtrip_bench::cells::run_or_load;
use fedtrip_bench::Cli;
use fedtrip_core::algorithms::HyperParams;
use fedtrip_core::experiment::ExperimentSpec;
use fedtrip_data::partition::HeterogeneityKind;
use fedtrip_data::synth::DatasetKind;
use fedtrip_metrics::report::Table;
use fedtrip_models::ModelKind;
use serde_json::{json, Value};

pub fn run(cli: &Cli) -> Value {
    let base = paper_cell(
        cli,
        DatasetKind::MnistLike,
        ModelKind::Cnn,
        HeterogeneityKind::Dirichlet(0.5),
    );
    // paper values: rows (epochs, round) x methods in METHODS order
    let paper: [((usize, usize), [f64; 6]); 4] = [
        ((5, 10), [96.36, 95.49, 93.08, 84.55, 95.26, 87.93]),
        ((5, 20), [97.18, 96.71, 95.95, 92.88, 96.88, 93.49]),
        ((10, 10), [97.49, 97.38, 95.84, 87.79, 96.99, 93.11]),
        ((10, 20), [97.95, 97.84, 97.25, 95.15, 97.84, 95.93]),
    ];

    let mut artifacts = Vec::new();
    for epochs in [5usize, 10] {
        println!("--- {epochs} local epochs ---");
        let mut t = Table::new(
            format!("{epochs} local epochs (accuracy %)"),
            &["Method", "paper@10", "ours@10", "paper@20", "ours@20"],
        );
        for (i, &alg) in METHODS.iter().enumerate() {
            let spec = ExperimentSpec {
                rounds: 20,
                local_epochs: epochs,
                algorithm: alg,
                hyper: HyperParams {
                    fedtrip_mu: 0.4, // §V-E fixes mu = 0.4 for this study
                    ..base.hyper
                },
                ..base
            };
            let cell = run_or_load(&cli.results, spec.to_config(), spec.algorithm, spec.hyper);
            let at10 = cell.accuracy_at(10).unwrap_or(0.0) * 100.0;
            let at20 = cell.accuracy_at(20).unwrap_or(0.0) * 100.0;
            let p10 = paper.iter().find(|(k, _)| *k == (epochs, 10)).unwrap().1[i];
            let p20 = paper.iter().find(|(k, _)| *k == (epochs, 20)).unwrap().1[i];
            t.row(&[
                alg.name().to_string(),
                format!("{p10:.2}"),
                format!("{at10:.2}"),
                format!("{p20:.2}"),
                format!("{at20:.2}"),
            ]);
            artifacts.push(json!({
                "epochs": epochs,
                "method": alg.name(),
                "paper_at10": p10,
                "ours_at10": at10,
                "paper_at20": p20,
                "ours_at20": at20,
            }));
        }
        println!("{}", t.render());
    }
    Value::Array(artifacts)
}
