//! Dataset calibration explorer.
//!
//! Reports, for each dataset preset: the label-flip rate actually observed,
//! a centralized-training plateau accuracy (upper bound for federated runs),
//! and a short federated trajectory under Dir-0.5. Used to sanity-check that
//! the synthetic tasks are neither trivial nor impossible before running the
//! full table/figure experiments.
//!
//! ```bash
//! cargo run --release --example calibration [-- <dataset>]
//! ```

use fedtrip::prelude::*;
use fedtrip_core::algorithms::AlgorithmKind;
use fedtrip_core::engine::{Simulation, SimulationConfig};
use fedtrip_core::experiment::ExperimentSpec;
use fedtrip_data::synth::SampleRef;
use fedtrip_tensor::optim::{Optimizer, SgdMomentum};

fn flip_rate(ds: &SyntheticVision, n_per_class: u32) -> f64 {
    let spec = ds.spec();
    let pool = (spec.total_samples / spec.classes) as u32;
    let mut flips = 0usize;
    let mut total = 0usize;
    for c in 0..spec.classes as u16 {
        for i in 0..n_per_class {
            if ds.label_of(SampleRef {
                class: c,
                id: pool + i,
            }) != c as usize
            {
                flips += 1;
            }
            total += 1;
        }
    }
    flips as f64 / total as f64
}

/// Centralized training: all samples in one pot, CNN/AlexNet, few epochs.
fn centralized_plateau(kind: DatasetKind, samples: usize, epochs: usize) -> f64 {
    let ds = SyntheticVision::new(kind, 2023);
    let spec = *ds.spec();
    // probe with the default-scale model (AlexNet is not single-core viable)
    let model = match kind {
        DatasetKind::Cifar10Like => fedtrip_models::ModelKind::CifarCnn,
        _ => fedtrip_models::ModelKind::default_for(kind),
    };
    let mut net = model.build(&spec.sample_shape(), spec.classes, 2023);
    let per_class = samples / spec.classes;
    let refs: Vec<SampleRef> = (0..spec.classes as u16)
        .flat_map(|c| (0..per_class as u32).map(move |i| SampleRef { class: c, id: i }))
        .collect();
    let mut opt = SgdMomentum::new(0.01, 0.9);
    let mut rng = fedtrip_tensor::rng::Prng::seed_from_u64(7);
    for _ in 0..epochs {
        for (x, y) in fedtrip_data::loader::BatchIter::new(&ds, &refs, 50, &mut rng) {
            net.zero_grads();
            net.train_step(&x, &y);
            opt.step(&mut net);
        }
    }
    let (tx, ty) = ds.test_set(30);
    fedtrip_core::engine::evaluate_in_chunks(&mut net, &tx, &ty)
}

fn main() {
    let only: Option<String> = std::env::args().nth(1);
    let cent_samples: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000);
    let cent_epochs: usize = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    for kind in DatasetKind::ALL {
        if let Some(o) = &only {
            if !kind.name().to_lowercase().contains(&o.to_lowercase()) {
                continue;
            }
        }
        let ds = SyntheticVision::new(kind, 2023);
        let spec = ds.spec();
        println!("=== {} ({} classes) ===", kind.name(), spec.classes);
        println!(
            "  flip rate (spec {:.2}): {:.3}",
            spec.label_flip,
            flip_rate(&ds, 50)
        );

        #[expect(
            clippy::disallowed_methods,
            reason = "wall time is printed, never fed back into the run"
        )]
        let t0 = std::time::Instant::now();
        let plateau = centralized_plateau(kind, cent_samples, cent_epochs);
        println!(
            "  centralized plateau ({cent_samples} samples, {cent_epochs} epochs): {:.2}%  [{:.1?}]",
            plateau * 100.0,
            t0.elapsed()
        );

        if std::env::var("FEDPROBE").map(|v| v == "0").unwrap_or(false) {
            continue;
        }
        // short federated run, Dir-0.5
        let mut cfg = SimulationConfig {
            dataset: kind,
            model: fedtrip_models::ModelKind::default_for(kind),
            heterogeneity: HeterogeneityKind::Dirichlet(0.5),
            rounds: 30,
            client_samples_override: Some(200),
            test_per_class: 20,
            ..SimulationConfig::default()
        };
        if kind == DatasetKind::Cifar10Like {
            cfg.rounds = 10; // AlexNet is expensive; a short probe suffices
        }
        let hyper = ExperimentSpec::paper_hyper(kind, cfg.model);
        #[expect(
            clippy::disallowed_methods,
            reason = "wall time is printed, never fed back into the run"
        )]
        let t0 = std::time::Instant::now();
        let mut sim = Simulation::new(cfg, AlgorithmKind::FedAvg.build(&hyper));
        sim.run();
        let accs: Vec<f64> = sim.records().iter().filter_map(|r| r.accuracy).collect();
        let shown: Vec<String> = accs
            .iter()
            .step_by((accs.len() / 10).max(1))
            .map(|a| format!("{:.0}", a * 100.0))
            .collect();
        println!(
            "  FedAvg Dir-0.5 trajectory (%): {}  [{:.1?}]",
            shown.join(" "),
            t0.elapsed()
        );
    }
}
