//! The paper's Table IV / Table V experiment cases and reported values,
//! plus the paper-cell spec and the six-method sweep the drivers share, and
//! the scoring helpers of the extension sweeps.

use crate::cells::{run_or_load, CellResult};
use crate::Cli;
use fedtrip_core::algorithms::AlgorithmKind;
use fedtrip_core::engine::RoundRecord;
use fedtrip_core::experiment::ExperimentSpec;
use fedtrip_data::partition::HeterogeneityKind;
use fedtrip_data::synth::DatasetKind;
use fedtrip_models::ModelKind;
use std::path::Path;

/// One column of Table IV: a (model, dataset) pair with its target accuracy.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Display name, e.g. `"CNN MNIST-90%"`.
    pub name: &'static str,
    /// Dataset preset.
    pub dataset: DatasetKind,
    /// Model architecture.
    pub model: ModelKind,
    /// The paper's target accuracy (fraction).
    pub paper_target: f64,
    /// Rounds-to-target the paper reports, in [`METHODS`] order.
    pub paper_rounds: [Option<usize>; 6],
    /// GFLOPs-to-target the paper reports (Table V), in [`METHODS`] order.
    pub paper_gflops: [f64; 6],
}

impl Case {
    /// The case's [`paper_cell`] under Dir-0.5.
    pub fn spec(&self, cli: &Cli) -> ExperimentSpec {
        paper_cell(
            cli,
            self.dataset,
            self.model,
            HeterogeneityKind::Dirichlet(0.5),
        )
    }
}

/// Method order used by the paper's tables.
pub const METHODS: [AlgorithmKind; 6] = [
    AlgorithmKind::FedTrip,
    AlgorithmKind::FedAvg,
    AlgorithmKind::FedProx,
    AlgorithmKind::SlowMo,
    AlgorithmKind::Moon,
    AlgorithmKind::FedDyn,
];

/// The six Table IV / Table V cases (Dir-0.5, 4-of-10 clients).
pub const CASES: [Case; 6] = [
    Case {
        name: "MLP MNIST-87%",
        dataset: DatasetKind::MnistLike,
        model: ModelKind::Mlp,
        paper_target: 0.87,
        paper_rounds: [Some(28), Some(49), Some(53), Some(46), Some(25), Some(28)],
        paper_gflops: [1.441, 2.334, 2.626, 2.191, 3.573, 1.441],
    },
    Case {
        name: "MLP FMNIST-75%",
        dataset: DatasetKind::FmnistLike,
        model: ModelKind::Mlp,
        paper_target: 0.75,
        paper_rounds: [Some(9), Some(19), Some(16), Some(26), Some(14), Some(17)],
        paper_gflops: [0.772, 1.509, 1.321, 2.064, 3.335, 1.458],
    },
    Case {
        name: "CNN MNIST-90%",
        dataset: DatasetKind::MnistLike,
        model: ModelKind::Cnn,
        paper_target: 0.90,
        paper_rounds: [Some(24), Some(39), Some(41), Some(40), Some(46), Some(40)],
        paper_gflops: [6.161, 9.897, 10.465, 10.151, 35.02, 10.269],
    },
    Case {
        name: "CNN FMNIST-75%",
        dataset: DatasetKind::FmnistLike,
        model: ModelKind::Cnn,
        paper_target: 0.75,
        paper_rounds: [Some(19), Some(52), Some(45), Some(65), Some(35), Some(51)],
        paper_gflops: [8.13, 21.993, 19.144, 27.491, 44.409, 21_822.0 / 1000.0],
    },
    Case {
        name: "CNN EMNIST-62%",
        dataset: DatasetKind::EmnistLike,
        model: ModelKind::Cnn,
        paper_target: 0.62,
        paper_rounds: [Some(32), Some(45), Some(45), Some(92), Some(44), Some(97)],
        paper_gflops: [41.077, 57.097, 57.431, 116.733, 167.486, 124.513],
    },
    Case {
        name: "AlexNet CIFAR-50%",
        dataset: DatasetKind::Cifar10Like,
        model: ModelKind::AlexNet,
        paper_target: 0.50,
        paper_rounds: [Some(46), Some(74), Some(75), Some(87), Some(84), Some(79)],
        paper_gflops: [13_446.0, 21_596.0, 21_906.0, 25_392.0, 73_549.0, 23_091.0],
    },
];

/// An adaptive target for reduced-scale runs: a fixed fraction of the best
/// final accuracy achieved by any method on the case, so that
/// rounds-to-target stays finite and comparable when the reduced-scale
/// plateau sits below the paper's absolute target.
pub fn adaptive_target(final_accuracies: &[f64], fraction: f64) -> f64 {
    let best = final_accuracies
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    (best * fraction).max(0.0)
}

/// [`ExperimentSpec::quickstart`]'s cell (FedTrip, 4-of-10, 100 rounds, 1
/// local epoch) on the given data with the paper's hyper-parameters, at the
/// CLI's scale and seed. Callers vary the rest by struct update.
pub fn paper_cell(
    cli: &Cli,
    dataset: DatasetKind,
    model: ModelKind,
    heterogeneity: HeterogeneityKind,
) -> ExperimentSpec {
    ExperimentSpec {
        dataset,
        model,
        heterogeneity,
        hyper: ExperimentSpec::paper_hyper(dataset, model),
        scale: cli.scale,
        seed: cli.seed,
        ..ExperimentSpec::quickstart()
    }
}

/// Run (or load) `spec` once per [`METHODS`] entry, in that order. Returns
/// the cells, each cell's mean accuracy over its last 10 evaluated rounds,
/// and the [`adaptive_target`] at 90% of the best of those.
pub fn run_methods(results: &Path, spec: &ExperimentSpec) -> (Vec<CellResult>, Vec<f64>, f64) {
    let cells: Vec<CellResult> = METHODS
        .iter()
        .map(|&algorithm| run_or_load(results, spec.to_config(), algorithm, spec.hyper))
        .collect();
    let finals: Vec<f64> = cells.iter().map(|c| c.final_accuracy(10)).collect();
    let adaptive = adaptive_target(&finals, 0.90);
    (cells, finals, adaptive)
}

/// `(x, accuracy)` of the evaluated rounds, where `x` is read from each
/// record — virtual seconds or cumulative bytes.
pub fn series(records: &[RoundRecord], x: impl Fn(&RoundRecord) -> f64) -> (Vec<f64>, Vec<f64>) {
    records
        .iter()
        .filter_map(|r| r.accuracy.map(|a| (x(r), a)))
        .unzip()
}

/// Virtual seconds as `12.3s`, or `—` when the target was never reached.
pub fn fmt_time(t: Option<f64>) -> String {
    t.map(|s| format!("{s:.1}s")).unwrap_or_else(|| "—".into())
}

/// `baseline / t` as `1.23x`, or `—` unless both reached the target.
pub fn fmt_speedup(baseline: Option<f64>, t: Option<f64>) -> String {
    match (baseline, t) {
        (Some(a), Some(b)) if b > 0.0 => format!("{:.2}x", a / b),
        _ => "—".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_cases_six_methods() {
        assert_eq!(CASES.len(), 6);
        assert_eq!(METHODS.len(), 6);
        assert_eq!(METHODS[0], AlgorithmKind::FedTrip);
    }

    #[test]
    fn paper_rounds_fedtrip_always_fastest_or_close() {
        // In the paper's Table IV FedTrip has the fewest rounds except on
        // MLP/MNIST where MOON is slightly faster.
        for case in &CASES {
            let trip = case.paper_rounds[0].unwrap();
            let min = case.paper_rounds.iter().flatten().min().unwrap();
            assert!(trip as f64 <= *min as f64 * 1.2, "{}", case.name);
        }
    }

    #[test]
    fn adaptive_target_is_fraction_of_best() {
        let t = adaptive_target(&[0.5, 0.9, 0.7], 0.9);
        assert!((t - 0.81).abs() < 1e-12);
    }
}
