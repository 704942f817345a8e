//! Thread-count identity: every method's records and final global
//! parameters are bit-identical at 1, 2, 3 and 8 rayon threads, under each
//! runtime path a round can take (sync, semi-async with device
//! heterogeneity, the edge tier, q8 both ways with error feedback).
//!
//! Two places split work by `rayon::current_num_threads()`: the executor's
//! client groups and `Env::evaluate`'s row spans. Five participants per
//! round make the four thread counts four different client groupings
//! (5, 3+2, 2+2+1, five singletons). Records are compared through their
//! JSON form, whose floats print as the shortest round-trippable
//! representation, so equal strings mean bit-identical records.

use fedtrip_core::algorithms::AlgorithmKind;
use fedtrip_core::compression::CompressionKind;
use fedtrip_core::engine::{Simulation, SimulationConfig};
use fedtrip_core::experiment::{ExperimentSpec, Scale};
use fedtrip_core::runtime::RunMode;

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// The paper's default cell at smoke scale, two rounds, five participants.
fn base() -> SimulationConfig {
    let mut spec = ExperimentSpec::quickstart().with_scale(Scale::Smoke);
    spec.rounds = 2;
    spec.clients_per_round = 5;
    spec.to_config()
}

/// `(records as JSON, global parameter bits)` of one run on `threads`
/// threads.
fn run(cfg: SimulationConfig, kind: AlgorithmKind, threads: usize) -> (String, Vec<u32>) {
    let hyper = ExperimentSpec::paper_hyper(cfg.dataset, cfg.model);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build pool");
    pool.install(|| {
        let mut sim = Simulation::new(cfg, kind.build(&hyper));
        let records = serde_json::to_string(&sim.run().to_vec()).expect("serialize records");
        let params = sim.global_params().iter().map(|v| v.to_bits()).collect();
        (records, params)
    })
}

/// Runs every method on `cfg` at each thread count and asserts the runs
/// match the single-threaded one bit for bit.
fn assert_thread_count_invariant(cfg: SimulationConfig) {
    for kind in AlgorithmKind::ALL {
        let (records, params) = run(cfg, kind, THREADS[0]);
        for &threads in &THREADS[1..] {
            let (r, p) = run(cfg, kind, threads);
            assert!(
                r == records,
                "{}: records at {threads} threads differ from 1 thread",
                kind.name()
            );
            assert!(
                p == params,
                "{}: global params at {threads} threads differ from 1 thread",
                kind.name()
            );
        }
    }
}

#[test]
fn sync_is_thread_count_invariant() {
    assert_thread_count_invariant(base());
}

#[test]
fn semiasync_is_thread_count_invariant() {
    assert_thread_count_invariant(SimulationConfig {
        mode: RunMode::SemiAsync,
        device_het: 4.0,
        ..base()
    });
}

#[test]
fn edge_tier_is_thread_count_invariant() {
    assert_thread_count_invariant(SimulationConfig { edges: 3, ..base() });
}

#[test]
fn q8_both_ways_with_error_feedback_is_thread_count_invariant() {
    assert_thread_count_invariant(SimulationConfig {
        compression: CompressionKind::Q8,
        downlink_compression: CompressionKind::Q8,
        error_feedback: true,
        ..base()
    });
}
