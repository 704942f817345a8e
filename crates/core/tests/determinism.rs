//! Determinism smoke test: the engine promises that results depend only on
//! the seed — never on rayon's scheduling of the parallel client loop (each
//! client derives its own RNG stream from `(seed, round, client)`).
//!
//! `RoundRecord` intentionally has no `PartialEq`, so the comparison goes
//! through the serialized JSON form: floats are printed as their shortest
//! round-trippable representation, so equal strings imply bit-identical
//! records.
//!
//! The same harness checks that the regularized methods reduce exactly to
//! the plain ones when their extra term is switched off.

use fedtrip_core::algorithms::{AlgorithmKind, HyperParams, XiMode};
use fedtrip_core::engine::{Simulation, SimulationConfig};
use fedtrip_core::runtime::RunMode;
use fedtrip_data::partition::HeterogeneityKind;
use fedtrip_data::synth::DatasetKind;
use fedtrip_models::ModelKind;

fn cfg(seed: u64) -> SimulationConfig {
    SimulationConfig {
        dataset: DatasetKind::MnistLike,
        model: ModelKind::TinyMlp,
        heterogeneity: HeterogeneityKind::Dirichlet(0.5),
        n_clients: 8,
        clients_per_round: 4,
        rounds: 3,
        local_epochs: 1,
        batch_size: 25,
        lr: 0.05,
        momentum: 0.9,
        seed,
        test_per_class: 5,
        client_samples_override: Some(50),
        eval_every: 1,
        ..SimulationConfig::default()
    }
}

fn run_records(kind: AlgorithmKind, seed: u64) -> String {
    let mut sim = Simulation::new(cfg(seed), kind.build(&HyperParams::default()));
    let records = sim.run();
    serde_json::to_string(&records.to_vec()).expect("serialize records")
}

/// Per-record accuracy bits, mean-loss bits and folded clients.
type RecordView = Vec<(Option<u64>, u64, Vec<usize>)>;

/// A 6-round run of `kind` under `mode`, reduced to what a reduction must
/// keep: the final global parameters' bits and each record's accuracy,
/// mean loss and folded clients. `cum_flops` is left out on purpose: a
/// switched-off term still charges its attach cost.
fn reduction_view(
    kind: AlgorithmKind,
    hyper: &HyperParams,
    mode: RunMode,
) -> (Vec<u32>, RecordView) {
    let c = SimulationConfig {
        rounds: 6,
        mode,
        device_het: 4.0,
        ..cfg(91)
    };
    let mut sim = Simulation::new(c, kind.build(hyper));
    sim.run();
    let params = sim.global_params().iter().map(|v| v.to_bits()).collect();
    let records = sim
        .records()
        .iter()
        .map(|r| {
            (
                r.accuracy.map(f64::to_bits),
                r.mean_loss.to_bits(),
                r.selected.clone(),
            )
        })
        .collect();
    (params, records)
}

#[test]
fn fedtrip_with_zero_xi_is_fedprox_at_the_same_mu() {
    let hyper = HyperParams {
        xi_mode: XiMode::Fixed(0.0),
        fedtrip_mu: 0.4,
        fedprox_mu: 0.4,
        ..HyperParams::default()
    };
    for mode in [RunMode::Sync, RunMode::SemiAsync] {
        assert_eq!(
            reduction_view(AlgorithmKind::FedTrip, &hyper, mode),
            reduction_view(AlgorithmKind::FedProx, &hyper, mode),
            "{mode:?}"
        );
    }
}

#[test]
fn fedprox_with_zero_mu_is_fedavg() {
    let hyper = HyperParams {
        fedprox_mu: 0.0,
        ..HyperParams::default()
    };
    for mode in [RunMode::Sync, RunMode::SemiAsync] {
        assert_eq!(
            reduction_view(AlgorithmKind::FedProx, &hyper, mode),
            reduction_view(AlgorithmKind::FedAvg, &hyper, mode),
            "{mode:?}"
        );
    }
}

#[test]
fn same_seed_bit_identical_records_despite_parallelism() {
    for kind in [AlgorithmKind::FedTrip, AlgorithmKind::FedAvg] {
        let a = run_records(kind, 77);
        let b = run_records(kind, 77);
        assert_eq!(
            a, b,
            "two {kind:?} runs with the same seed must produce bit-identical RoundRecords"
        );
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_records(AlgorithmKind::FedTrip, 77);
    let b = run_records(AlgorithmKind::FedTrip, 78);
    assert_ne!(a, b, "distinct seeds should not collide");
}
