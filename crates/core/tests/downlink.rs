//! Property and golden tests for compressed downlink delta broadcasts.
//!
//! The server broadcasts `Δ = w_global − w_broadcast` through the
//! downlink codec with a server-side error-feedback residual; clients
//! reconstruct their view incrementally, re-anchored by a dense resync
//! every `resync_interval` rounds and on demand for participants that
//! lack the current broadcast base (churn joiners, restored clients).
//! Three invariants pin the design:
//!
//! 1. **Resync exactness** — at every resync boundary the clients' view
//!    is the dense broadcast, bit for bit (`view = global.clone()`);
//! 2. **Mass conservation** — between resyncs the server residual holds
//!    exactly the mass the codec dropped: `view + residual == last
//!    broadcast global` coordinate-wise (up to f32 accumulation);
//! 3. **Epoch accounting** — the per-round downlink bytes replay exactly
//!    from the per-client sync epochs: participants off the current
//!    broadcast epoch (joiners, first-timers) are charged a dense base,
//!    everyone else the encoded delta.
//!
//! A golden fixture additionally pins one full q8-downlink run (records
//! serialized in full) so the delta path itself stays bit-identical
//! across refactors.

use fedtrip_core::algorithms::{AlgorithmKind, HyperParams};
use fedtrip_core::compression::CompressionKind;
use fedtrip_core::engine::{Simulation, SimulationConfig};
use fedtrip_data::partition::HeterogeneityKind;
use fedtrip_data::synth::DatasetKind;
use fedtrip_models::ModelKind;
use proptest::prelude::*;

fn base_cfg(seed: u64) -> SimulationConfig {
    SimulationConfig {
        dataset: DatasetKind::MnistLike,
        model: ModelKind::TinyMlp,
        heterogeneity: HeterogeneityKind::Dirichlet(0.5),
        n_clients: 8,
        clients_per_round: 4,
        rounds: 6,
        local_epochs: 1,
        batch_size: 25,
        lr: 0.05,
        momentum: 0.9,
        seed,
        test_per_class: 4,
        client_samples_override: Some(40),
        eval_every: 2,
        ..SimulationConfig::default()
    }
}

const CODECS: [CompressionKind; 3] = [
    CompressionKind::Q8,
    CompressionKind::Q4,
    CompressionKind::TopK(0.25),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// At every resync boundary the reconstructed client view *is* the
    /// dense broadcast: bit-identical to the global model, with the
    /// residual cleared — whatever codec ran between the boundaries.
    #[test]
    fn client_view_is_dense_broadcast_at_every_resync_boundary(
        seed in 0u64..500,
        codec_idx in 0usize..CODECS.len(),
        resync in 1usize..4,
    ) {
        let mut cfg = base_cfg(seed);
        cfg.downlink_compression = CODECS[codec_idx];
        cfg.resync_interval = resync;
        let mut sim = Simulation::new(cfg, AlgorithmKind::FedTrip.build(&HyperParams::default()));
        for t in 1..=6usize {
            // the broadcast inside round t ships the global as of the
            // round's start (the previous fold's output)
            let broadcast = sim.global_params().to_vec();
            sim.run_round();
            if t % resync == 0 {
                let st = sim.state();
                let (view, last, residual) = (&st.broadcast_view[..], &st.broadcast_last[..], st.broadcast_residual.as_deref());
                prop_assert_eq!(view, &broadcast[..], "round {t}: view != global at resync");
                prop_assert_eq!(last, &broadcast[..], "round {t}: base != global at resync");
                prop_assert!(residual.is_none(), "round {t}: residual survived resync");
            }
        }
    }

    /// Server-side error feedback conserves mass: after every round,
    /// `view + residual` equals the global model as of the last
    /// broadcast, coordinate-wise — nothing the codec drops is lost,
    /// it is carried to the next round's compensated delta.
    #[test]
    fn server_error_feedback_conserves_broadcast_mass(
        seed in 0u64..500,
        codec_idx in 0usize..CODECS.len(),
    ) {
        let mut cfg = base_cfg(seed);
        cfg.downlink_compression = CODECS[codec_idx];
        cfg.resync_interval = 0; // never resync: residual accumulates all run
        let mut sim = Simulation::new(cfg, AlgorithmKind::FedTrip.build(&HyperParams::default()));
        for _ in 0..6 {
            sim.run_round();
            let st = sim.state();
            let (view, last, residual) = (&st.broadcast_view[..], &st.broadcast_last[..], st.broadcast_residual.as_deref());
            match residual {
                Some(r) => {
                    for (i, ((v, e), l)) in view.iter().zip(r).zip(last).enumerate() {
                        prop_assert!(
                            (v + e - l).abs() <= 1e-3,
                            "coord {i}: view {v} + residual {e} != base {l}"
                        );
                    }
                }
                None => prop_assert_eq!(view, last, "no residual but view != base"),
            }
        }
    }

    /// Downlink byte accounting replays exactly from the sync epochs:
    /// before each round, predict every selected client's charge (dense
    /// base iff it is off the current broadcast epoch or the round is a
    /// resync; encoded delta otherwise), plus with `E > 1` one broadcast
    /// relay per participating edge (dense on resyncs, the delta
    /// otherwise), and match `comm_bytes_down` to the f64 sum — and every
    /// churn joiner's first round is a dense base, never a delta against
    /// state it does not have.
    #[test]
    fn joiners_get_dense_bases_and_epoch_accounting_replays(
        seed in 0u64..500,
        codec_idx in 0usize..CODECS.len(),
        resync in 0usize..4,
        edges in 1usize..=3,
    ) {
        let kind = CODECS[codec_idx];
        let codec = kind.build();
        let mut cfg = base_cfg(seed);
        // FedAvg: AttachCost::ZERO keeps the byte model exactly n_params
        cfg.downlink_compression = kind;
        cfg.resync_interval = resync;
        cfg.churn_join_window = 3;
        cfg.churn_residency = 4;
        cfg.edges = edges;
        let mut sim = Simulation::new(cfg, AlgorithmKind::FedAvg.build(&HyperParams::default()));
        let n = sim.global_params().len();
        let dense = (4 * n) as f64;
        let delta = codec.encoded_len(n) as f64;
        for t in 1..=6usize {
            let epochs_before: Vec<Option<u64>> = (0..8)
                .map(|c| sim.client_states().get(c).and_then(|s| s.sync_epoch))
                .collect();
            let rec = sim.run_round().clone();
            let resync_round = resync > 0 && t % resync == 0;
            let epoch = sim.state().broadcast_epoch;
            let mut predicted = 0.0f64;
            for &c in &rec.selected {
                let on_epoch = epochs_before[c] == Some(epoch);
                if epochs_before[c].is_none() {
                    // joiner / first-timer: must be charged the dense base
                    prop_assert!(resync_round || !on_epoch);
                }
                predicted += if resync_round || !on_epoch { dense } else { delta };
                // after the round, every participant is on the current epoch
                let after = sim.client_states().get(c).and_then(|s| s.sync_epoch);
                prop_assert_eq!(after, Some(epoch), "round {t}: client {c} not synced");
            }
            if edges > 1 {
                let active: std::collections::BTreeSet<usize> =
                    rec.selected.iter().map(|c| c % edges).collect();
                predicted += active.len() as f64 * if resync_round { dense } else { delta };
            }
            prop_assert_eq!(
                rec.comm_bytes_down, predicted,
                "round {t}: recorded downlink bytes diverge from epoch replay"
            );
        }
    }
}

/// One q8-downlink run (bidirectional compression, churn, resync 3) must
/// stay bit-identical across refactors: the fixture pins the full
/// `RoundRecord` serialization — selection, losses, both directions'
/// byte accounting, compression ratios, virtual time, accuracies.
#[test]
fn q8_downlink_run_matches_golden_fixture() {
    let mut cfg = base_cfg(123);
    cfg.compression = CompressionKind::Q8;
    cfg.error_feedback = true;
    cfg.downlink_compression = CompressionKind::Q8;
    cfg.resync_interval = 3;
    cfg.churn_join_window = 3;
    cfg.churn_residency = 4;
    let mut sim = Simulation::new(cfg, AlgorithmKind::FedTrip.build(&HyperParams::default()));
    sim.run();
    let mut got = serde_json::to_string_pretty(sim.records()).expect("serialize records");
    got.push('\n');
    if std::env::var("DOWNLINK_GOLDEN_REGEN").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden_downlink_records.json"
        );
        std::fs::write(path, &got).expect("write regenerated fixture");
        eprintln!("downlink golden fixture regenerated at {path}");
        return;
    }
    assert_eq!(
        got,
        include_str!("golden_downlink_records.json"),
        "q8-downlink run diverged from the committed fixture (regenerate \
         with DOWNLINK_GOLDEN_REGEN=1 only for an intentional semantics \
         change)"
    );
}
