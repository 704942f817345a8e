//! Population-scale guarantees of the sparse runtime.
//!
//! Two families of checks:
//!
//! * **Sparse ≡ dense.** The sparse [`ClientStateStore`] must be a pure
//!   storage optimization: a run against a store where *every* client was
//!   made resident up front (the dense shape the engine historically used)
//!   is bit-identical to the normal sparse run, across random participation
//!   traces — selection strategies × failure injection × semi-async
//!   scheduling. (Bit-identity against the *historical* dense engine is
//!   separately pinned by `tests/golden_sync.rs`.)
//! * **O(participants) residency.** From `N = 1 000` to `N = 100 000` at
//!   `K = 4`, a federation must construct instantly, touch at most
//!   `rounds × K` state entries and partition shards, and charge the same
//!   bytes per round — resident footprint scales with participation,
//!   never federation size.

use fedtrip_core::algorithms::{AlgorithmKind, HyperParams};
use fedtrip_core::engine::{RunMode, SelectionStrategy, Simulation, SimulationConfig};
use fedtrip_data::partition::{HeterogeneityKind, ShardRegime};
use fedtrip_data::synth::DatasetKind;
use fedtrip_models::ModelKind;
use proptest::prelude::*;

fn trace_cfg(
    seed: u64,
    selection: SelectionStrategy,
    failure_prob: f32,
    semi_async: bool,
) -> SimulationConfig {
    SimulationConfig {
        dataset: DatasetKind::MnistLike,
        model: ModelKind::TinyMlp,
        heterogeneity: HeterogeneityKind::Dirichlet(0.5),
        n_clients: 7,
        clients_per_round: 3,
        rounds: 5,
        local_epochs: 1,
        batch_size: 25,
        lr: 0.05,
        momentum: 0.9,
        seed,
        test_per_class: 4,
        client_samples_override: Some(50),
        eval_every: 1,
        selection,
        failure_prob,
        mode: if semi_async {
            RunMode::SemiAsync
        } else {
            RunMode::Sync
        },
        device_het: if semi_async { 4.0 } else { 1.0 },
        ..SimulationConfig::default()
    }
}

fn run_to_end(cfg: SimulationConfig, kind: AlgorithmKind, dense: bool) -> Simulation {
    let mut sim = Simulation::new(cfg, kind.build(&HyperParams::default()));
    if dense {
        sim.prefill_dense_states();
    }
    sim.run();
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A dense-prefilled store run is bit-identical to the sparse run
    /// across random participation traces.
    #[test]
    fn sparse_store_runs_match_dense_store_runs(
        seed in 0u64..10_000,
        strategy_idx in 0usize..3,
        failures in 0usize..2,
        semi_async in 0usize..2,
        alg_idx in 0usize..3,
    ) {
        let strategy = [
            SelectionStrategy::Uniform,
            SelectionStrategy::RoundRobin,
            SelectionStrategy::WeightedBySamples,
        ][strategy_idx];
        // FedTrip exercises gap/historical state, SCAFFOLD corrections +
        // aux uploads, FedAvg the plain path
        let kind = [AlgorithmKind::FedTrip, AlgorithmKind::Scaffold, AlgorithmKind::FedAvg][alg_idx];
        let failure_prob = if failures == 1 { 0.5 } else { 0.0 };
        let cfg = trace_cfg(seed, strategy, failure_prob, semi_async == 1);

        let sparse = run_to_end(cfg, kind, false);
        let dense = run_to_end(cfg, kind, true);

        prop_assert_eq!(sparse.global_params(), dense.global_params());
        let sel_a: Vec<_> = sparse.records().iter().map(|r| r.selected.clone()).collect();
        let sel_b: Vec<_> = dense.records().iter().map(|r| r.selected.clone()).collect();
        prop_assert_eq!(sel_a, sel_b);
        let acc_a: Vec<_> = sparse.records().iter().map(|r| r.accuracy).collect();
        let acc_b: Vec<_> = dense.records().iter().map(|r| r.accuracy).collect();
        prop_assert_eq!(acc_a, acc_b);
        // participation state agrees client by client where the sparse
        // store is resident; dense-only extras must be untouched defaults
        for c in 0..cfg.n_clients {
            match sparse.client_states().get(c) {
                Some(st) => prop_assert_eq!(
                    st.last_round,
                    dense.client_states().get(c).and_then(|s| s.last_round)
                ),
                None => prop_assert!(
                    dense.client_states().get(c).is_none_or(|s| s.is_vacant()),
                    "client {} resident only in the dense run but not vacant", c
                ),
            }
        }
    }
}

/// From `N = 1k` to `N = 100k` at a fixed `K`, residency stays within
/// `rounds × K` and every round is charged the same bytes.
#[test]
fn n_100k_smoke_touches_at_most_rounds_times_k_entries() {
    let rounds = 3;
    let k = 4;
    let bound = rounds * k;
    let mut comm_at_1k: Option<Vec<f64>> = None;
    for n_clients in [1_000, 10_000, 100_000] {
        let cfg = SimulationConfig {
            dataset: DatasetKind::MnistLike,
            model: ModelKind::TinyMlp,
            heterogeneity: HeterogeneityKind::Dirichlet(0.5),
            n_clients,
            clients_per_round: k,
            rounds,
            local_epochs: 1,
            batch_size: 20,
            lr: 0.05,
            momentum: 0.9,
            seed: 2026,
            test_per_class: 4,
            client_samples_override: Some(40),
            eval_every: rounds, // evaluate once, at the end
            ..SimulationConfig::default()
        };
        let mut sim = Simulation::new(cfg, AlgorithmKind::FedTrip.build(&HyperParams::default()));
        if n_clients == 100_000 {
            assert_eq!(sim.partition().regime(), ShardRegime::Independent);
        }
        sim.run();

        assert!(
            sim.client_states().resident() <= bound,
            "N = {n_clients}: resident state entries {} exceed rounds×K = {bound}",
            sim.client_states().resident()
        );
        assert!(
            sim.partition().resident_shards() <= bound,
            "N = {n_clients}: resident shards {} exceed rounds×K = {bound}",
            sim.partition().resident_shards()
        );
        assert!(sim.client_states().resident() > 0);
        assert!(sim.records().last().unwrap().accuracy.is_some());

        let comm: Vec<f64> = sim.records().iter().map(|r| r.cum_comm_bytes).collect();
        match &comm_at_1k {
            None => comm_at_1k = Some(comm),
            Some(base) => assert_eq!(&comm, base, "N = {n_clients}: bytes per round moved"),
        }
    }
}

#[test]
fn n_100k_semiasync_smoke_stays_sparse() {
    let rounds = 4;
    let k = 4;
    let cfg = SimulationConfig {
        dataset: DatasetKind::MnistLike,
        model: ModelKind::TinyMlp,
        heterogeneity: HeterogeneityKind::Dirichlet(0.5),
        n_clients: 100_000,
        clients_per_round: k,
        rounds,
        local_epochs: 1,
        batch_size: 20,
        lr: 0.05,
        momentum: 0.9,
        seed: 2027,
        test_per_class: 4,
        client_samples_override: Some(40),
        eval_every: rounds,
        mode: RunMode::SemiAsync,
        device_het: 4.0,
        ..SimulationConfig::default()
    };
    let mut sim = Simulation::new(cfg, AlgorithmKind::FedAvg.build(&HyperParams::default()));
    sim.run();
    // each fold dispatches at most K fresh clients
    let bound = rounds * k;
    assert!(
        sim.client_states().resident() <= bound,
        "resident state entries {} exceed rounds×K = {bound}",
        sim.client_states().resident()
    );
    assert!(sim.partition().resident_shards() <= bound);
}

#[test]
fn n_50_sync_is_unchanged_by_population_machinery() {
    // the paper's scalability-study scale still runs pooled + sparse and
    // stays deterministic
    let cfg = SimulationConfig {
        dataset: DatasetKind::MnistLike,
        model: ModelKind::TinyMlp,
        heterogeneity: HeterogeneityKind::Dirichlet(0.5),
        n_clients: 50,
        clients_per_round: 4,
        rounds: 3,
        batch_size: 20,
        test_per_class: 4,
        client_samples_override: Some(40),
        ..SimulationConfig::default()
    };
    let mut a = Simulation::new(cfg, AlgorithmKind::FedTrip.build(&HyperParams::default()));
    let mut b = Simulation::new(cfg, AlgorithmKind::FedTrip.build(&HyperParams::default()));
    assert_eq!(a.partition().regime(), ShardRegime::Pooled);
    a.run();
    b.run();
    assert_eq!(a.global_params(), b.global_params());
    assert!(a.client_states().resident() <= 3 * 4);
}
