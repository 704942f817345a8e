//! Engine-level integration tests for the hierarchical aggregation tier:
//! sharded edge folds with per-edge clocks, parallel root merge, and the
//! edge→root uplink charge, driven through `Simulation` exactly as `flrun
//! --edges E` drives it.

use fedtrip_core::algorithms::{AlgorithmKind, HyperParams};
use fedtrip_core::engine::{Simulation, SimulationConfig};
use fedtrip_data::partition::HeterogeneityKind;
use fedtrip_data::synth::DatasetKind;
use fedtrip_models::ModelKind;

fn cfg(seed: u64, edges: usize) -> SimulationConfig {
    SimulationConfig {
        dataset: DatasetKind::MnistLike,
        model: ModelKind::TinyMlp,
        heterogeneity: HeterogeneityKind::Dirichlet(0.5),
        n_clients: 9,
        clients_per_round: 6,
        rounds: 4,
        batch_size: 25,
        lr: 0.05,
        seed,
        test_per_class: 5,
        client_samples_override: Some(50),
        edges,
        ..SimulationConfig::default()
    }
}

fn run(config: SimulationConfig, kind: AlgorithmKind) -> Simulation {
    let hyper = HyperParams::default();
    let mut sim = Simulation::new(config, kind.build(&hyper));
    sim.run();
    sim
}

#[test]
fn edge_runs_are_deterministic() {
    let a = run(cfg(51, 3), AlgorithmKind::FedTrip);
    let b = run(cfg(51, 3), AlgorithmKind::FedTrip);
    assert_eq!(a.global_params(), b.global_params());
    assert_eq!(a.virtual_time(), b.virtual_time());
    assert_eq!(a.state().edges.clocks(), b.state().edges.clocks());
}

#[test]
fn every_algorithm_completes_under_the_edge_tier() {
    for kind in AlgorithmKind::ALL {
        let mut c = cfg(52, 3);
        c.rounds = 2;
        let sim = run(c, kind);
        assert_eq!(sim.records().len(), 2, "{}", kind.name());
        assert!(
            sim.global_params().iter().all(|p| p.is_finite()),
            "{}: non-finite global parameters",
            kind.name()
        );
    }
}

#[test]
fn sharded_fold_stays_close_to_flat_fold() {
    // the tree reorders f64/f32 summation but must not change the math:
    // after 4 rounds the E=2 and E=1 trajectories agree to float rounding
    let flat = run(cfg(53, 1), AlgorithmKind::FedTrip);
    let tiered = run(cfg(53, 2), AlgorithmKind::FedTrip);
    for (i, (a, b)) in flat
        .global_params()
        .iter()
        .zip(tiered.global_params())
        .enumerate()
    {
        assert!((a - b).abs() < 1e-4, "param {i}: {a} vs {b}");
    }
}

#[test]
fn edge_uplink_charges_clock_and_comm_accounting() {
    // same federation, same work — but E=3 ships three edge summaries to
    // the root each round, so both virtual time and cumulative bytes must
    // strictly exceed the colocated E=1 run
    let flat = run(cfg(54, 1), AlgorithmKind::FedAvg);
    let tiered = run(cfg(54, 3), AlgorithmKind::FedAvg);
    assert!(
        tiered.virtual_time() > flat.virtual_time(),
        "edge uplink not charged: {} vs {}",
        tiered.virtual_time(),
        flat.virtual_time()
    );
    let flat_bytes = flat.records().last().unwrap().cum_comm_bytes;
    let tiered_bytes = tiered.records().last().unwrap().cum_comm_bytes;
    assert!(
        tiered_bytes > flat_bytes,
        "edge summaries not accounted: {tiered_bytes} vs {flat_bytes}"
    );
}

#[test]
fn edge_clocks_trail_the_root_clock() {
    let sim = run(cfg(55, 3), AlgorithmKind::FedTrip);
    let root = sim.virtual_time();
    let edges = sim.state().edges.clocks();
    assert_eq!(edges.len(), 3);
    for (e, t) in edges.iter().map(|c| c.now()).enumerate() {
        assert!(t > 0.0, "edge {e} clock never advanced");
        assert!(t <= root, "edge {e} clock {t} ahead of root {root}");
    }
}

#[test]
fn semiasync_completes_under_the_edge_tier() {
    let mut c = cfg(56, 2);
    c.mode = fedtrip_core::engine::RunMode::SemiAsync;
    c.device_het = 4.0;
    c.rounds = 8;
    let sim = run(c, AlgorithmKind::FedAvg);
    assert_eq!(sim.records().len(), 8);
    assert!(sim.records().last().unwrap().mean_staleness >= 0.0);
}

#[test]
fn residency_stays_bounded_by_participation() {
    // the tier must not force whole-federation materialization: resident
    // client state stays bounded by rounds x K even when sharded
    let mut c = cfg(57, 4);
    c.n_clients = 1000;
    c.clients_per_round = 10;
    c.rounds = 3;
    c.eval_every = 4; // skip mid-run evals; this test is about residency
    let sim = run(c, AlgorithmKind::FedAvg);
    let bound = 3 * 10;
    assert!(
        sim.client_states().resident() <= bound,
        "{} resident clients exceeds rounds x K = {bound}",
        sim.client_states().resident()
    );
}
