//! Fig. 5 — convergence curves of the CNN under two heterogeneity types
//! (Dir-0.5 and Orthogonal-5) on MNIST / FMNIST / EMNIST, six methods.
//!
//! Prints EMA-smoothed accuracy curves as compact series (the paper smooths
//! with an exponential moving average too) and an ASCII sparkline per
//! method; full per-round data goes to the JSON artifact.

use fedtrip_bench::cases::{paper_cell, METHODS};
use fedtrip_bench::cells::run_or_load;
use fedtrip_bench::Cli;
use fedtrip_data::partition::HeterogeneityKind;
use fedtrip_data::synth::DatasetKind;
use fedtrip_metrics::stats::ema;
use fedtrip_models::ModelKind;
use serde_json::{json, Value};

fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-9);
    values
        .iter()
        .map(|v| GLYPHS[(((v - lo) / span) * 7.0).round() as usize])
        .collect()
}

pub fn run(cli: &Cli) -> Value {
    let panels = [
        (DatasetKind::MnistLike, HeterogeneityKind::Dirichlet(0.5)),
        (DatasetKind::FmnistLike, HeterogeneityKind::Dirichlet(0.5)),
        (DatasetKind::EmnistLike, HeterogeneityKind::Dirichlet(0.5)),
        (DatasetKind::MnistLike, HeterogeneityKind::Orthogonal(5)),
        (DatasetKind::FmnistLike, HeterogeneityKind::Orthogonal(5)),
        (DatasetKind::EmnistLike, HeterogeneityKind::Orthogonal(5)),
    ];

    let mut artifacts = Vec::new();
    for (dataset, het) in panels {
        println!(
            "--- panel: CNN on {} under {} ---",
            dataset.name(),
            het.name()
        );
        let base = paper_cell(cli, dataset, ModelKind::Cnn, het);
        for &alg in &METHODS {
            let cell = run_or_load(&cli.results, base.to_config(), alg, base.hyper);
            let accs = cell.accuracies();
            let smooth = ema(&accs, 0.3);
            println!(
                "  {:<8} {}  final {:.1}%",
                alg.name(),
                sparkline(&smooth),
                smooth.last().unwrap_or(&0.0) * 100.0
            );
            artifacts.push(json!({
                "dataset": dataset.name(),
                "heterogeneity": het.name(),
                "method": alg.name(),
                "accuracy_raw": accs,
                "accuracy_ema": smooth,
            }));
        }
        println!();
    }
    Value::Array(artifacts)
}
