//! Fig. 6 — boxplots of final accuracy (mean of the last 10 evaluation
//! rounds across trials) of CNN and MLP on FMNIST under four heterogeneity
//! types.
//!
//! The paper draws one box per (method, heterogeneity) over repeated trials;
//! run with `--trials 5` (or 10, as the paper) to populate the boxes. With a
//! single trial the box degenerates to a point, which is still enough to
//! compare medians.

use fedtrip_bench::cases::{paper_cell, METHODS};
use fedtrip_bench::cells::run_trials;
use fedtrip_bench::Cli;
use fedtrip_core::experiment::ExperimentSpec;
use fedtrip_data::partition::HeterogeneityKind;
use fedtrip_data::synth::DatasetKind;
use fedtrip_metrics::report::Table;
use fedtrip_metrics::stats::BoxplotSummary;
use fedtrip_models::ModelKind;
use serde_json::{json, Value};

pub fn run(cli: &Cli) -> Value {
    let heterogeneities = [
        HeterogeneityKind::Dirichlet(0.5),
        HeterogeneityKind::Dirichlet(0.1),
        HeterogeneityKind::Orthogonal(5),
        HeterogeneityKind::Orthogonal(10),
    ];

    let mut artifacts = Vec::new();
    for model in [ModelKind::Cnn, ModelKind::Mlp] {
        for het in heterogeneities {
            println!("--- {} on FMNIST under {} ---", model.name(), het.name());
            let mut t = Table::new(
                format!("{} / {}, {} trial(s)", model.name(), het.name(), cli.trials),
                &["Method", "final acc % (min [q1|med|q3] max over trials)"],
            );
            let base = paper_cell(cli, DatasetKind::FmnistLike, model, het);
            for &alg in &METHODS {
                let spec = ExperimentSpec {
                    algorithm: alg,
                    ..base
                };
                let cells = run_trials(&cli.results, &spec, cli.trials);
                let finals: Vec<f64> = cells.iter().map(|c| c.final_accuracy(10) * 100.0).collect();
                let b = BoxplotSummary::of(&finals);
                t.row(&[alg.name().to_string(), b.compact()]);
                artifacts.push(json!({
                    "model": model.name(),
                    "heterogeneity": het.name(),
                    "method": alg.name(),
                    "finals_pct": finals,
                    "boxplot": b,
                }));
            }
            println!("{}", t.render());
        }
    }
    Value::Array(artifacts)
}
