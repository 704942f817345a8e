//! Fig. 7 — sensitivity of FedTrip to `mu`: final accuracy and rounds to
//! the 90%-of-plateau target as `mu` sweeps 0.1 → 2.5, for CNN/MNIST under
//! Dir-0.1, Dir-0.5 and Orthogonal-5, and MLP/FMNIST under Dir-0.5.
//!
//! Also runs the `xi` ablation DESIGN.md calls out: the paper's
//! participation-gap `xi` versus a fixed `xi = 1`.

use fedtrip_bench::cases::paper_cell;
use fedtrip_bench::cells::run_or_load;
use fedtrip_bench::Cli;
use fedtrip_core::algorithms::{HyperParams, XiMode};
use fedtrip_data::partition::HeterogeneityKind;
use fedtrip_data::synth::DatasetKind;
use fedtrip_metrics::report::Table;
use fedtrip_models::ModelKind;
use serde_json::{json, Value};

const MUS: [f32; 7] = [0.1, 0.4, 0.8, 1.2, 1.5, 2.0, 2.5];

pub fn run(cli: &Cli) -> Value {
    let panels: [(DatasetKind, ModelKind, HeterogeneityKind); 4] = [
        (
            DatasetKind::MnistLike,
            ModelKind::Cnn,
            HeterogeneityKind::Dirichlet(0.1),
        ),
        (
            DatasetKind::MnistLike,
            ModelKind::Cnn,
            HeterogeneityKind::Dirichlet(0.5),
        ),
        (
            DatasetKind::MnistLike,
            ModelKind::Cnn,
            HeterogeneityKind::Orthogonal(5),
        ),
        (
            DatasetKind::FmnistLike,
            ModelKind::Mlp,
            HeterogeneityKind::Dirichlet(0.5),
        ),
    ];

    let mut artifacts = Vec::new();
    for (dataset, model, het) in panels {
        println!(
            "--- {} / {} under {} ---",
            model.name(),
            dataset.name(),
            het.name()
        );
        // reference plateau at the paper's mu to define the rounds target
        let base = paper_cell(cli, dataset, model, het);
        let mut results = Vec::new();
        for &mu in &MUS {
            let hyper = HyperParams {
                fedtrip_mu: mu,
                ..base.hyper
            };
            let cell = run_or_load(&cli.results, base.to_config(), base.algorithm, hyper);
            // "final accuracy" in Fig. 7 = best test accuracy over training
            let best = cell
                .accuracies()
                .into_iter()
                .fold(f64::NEG_INFINITY, f64::max);
            results.push((mu, best, cell));
        }
        let best_overall = results
            .iter()
            .map(|(_, b, _)| *b)
            .fold(f64::NEG_INFINITY, f64::max);
        let target = best_overall * 0.9;

        let mut t = Table::new(
            format!("target = {:.1}% (90% of best-over-mu)", target * 100.0),
            &["mu", "best acc %", "rounds to target"],
        );
        for (mu, best, cell) in &results {
            t.row(&[
                format!("{mu}"),
                format!("{:.2}", best * 100.0),
                cell.rounds_to(target)
                    .map(|r| r.to_string())
                    .unwrap_or_else(|| format!(">{}", cell.records.len())),
            ]);
            artifacts.push(json!({
                "dataset": dataset.name(),
                "model": model.name(),
                "heterogeneity": het.name(),
                "mu": mu,
                "best_accuracy": best,
                "rounds_to_target": cell.rounds_to(target),
            }));
        }
        println!("{}", t.render());
    }

    // xi ablation: inverse-gap (the faithful reading of the paper's theory)
    // vs raw gap (the literal prose reading — diverges) vs fixed xi = 1
    println!("--- xi ablation (CNN/MNIST, Dir-0.5, mu = 0.4) ---");
    let base = paper_cell(
        cli,
        DatasetKind::MnistLike,
        ModelKind::Cnn,
        HeterogeneityKind::Dirichlet(0.5),
    );
    let mut t = Table::new("xi mode", &["mode", "best acc %", "final acc %"]);
    for (label, mode) in [
        ("1/gap (paper theory)", XiMode::Gap),
        ("raw gap (prose; unstable)", XiMode::RawGap),
        ("fixed 1.0", XiMode::Fixed(1.0)),
    ] {
        let hyper = HyperParams {
            fedtrip_mu: 0.4,
            xi_mode: mode,
            ..base.hyper
        };
        let cell = run_or_load(&cli.results, base.to_config(), base.algorithm, hyper);
        let best = cell
            .accuracies()
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max);
        t.row(&[
            label.to_string(),
            format!("{:.2}", best * 100.0),
            format!("{:.2}", cell.final_accuracy(10) * 100.0),
        ]);
        artifacts.push(json!({"ablation": "xi", "mode": label, "best_accuracy": best}));
    }
    println!("{}", t.render());
    Value::Array(artifacts)
}
