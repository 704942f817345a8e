//! Golden regression for the algorithm arms and codecs the other goldens
//! do not reach.
//!
//! `golden_sync`, `scenario_golden` and the q8-downlink fixture run only
//! FedTrip, FedAvg and FedProx over dense or q8 codecs. This fixture pins
//! four whole runs — FedDyn (plain SGD + dynamic regularizer), SCAFFOLD
//! (control variates + aux upload), MimeLite (interpolation + aux upload)
//! and FedTrip (momentum + triplet) — each with q4 uplink plus error
//! feedback and a `topk:0.1` delta downlink with a dense resync every
//! third round. Every cell records the full `RoundRecord` serialization
//! and an FNV-1a digest of the final global parameters' bit patterns, so
//! string equality means the optimizer sweeps, both codecs, both
//! error-feedback residuals and the aux uploads are bit-identical.
//!
//! Regenerate with `CODEC_GOLDEN_REGEN=1 cargo test -p fedtrip-core --test
//! golden_codecs` only for an intentional semantics change.

use fedtrip_core::algorithms::{AlgorithmKind, HyperParams};
use fedtrip_core::compression::CompressionKind;
use fedtrip_core::engine::{RoundRecord, Simulation, SimulationConfig};
use fedtrip_data::partition::HeterogeneityKind;
use fedtrip_data::synth::DatasetKind;
use fedtrip_models::ModelKind;
use serde::Serialize;

#[derive(Serialize)]
struct GoldenRun {
    name: String,
    n_params: usize,
    global_bits_fnv1a: String,
    records: Vec<RoundRecord>,
}

fn cfg() -> SimulationConfig {
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
        seed: 321,
        test_per_class: 4,
        client_samples_override: Some(40),
        eval_every: 2,
        compression: CompressionKind::Q4,
        error_feedback: true,
        downlink_compression: CompressionKind::TopK(0.1),
        resync_interval: 3,
        ..SimulationConfig::default()
    }
}

/// 64-bit FNV-1a over the little-endian bytes of every parameter.
fn fnv1a(params: &[f32]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in params.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[test]
fn uncovered_arms_and_codecs_match_golden_fixture() {
    let runs: Vec<GoldenRun> = [
        AlgorithmKind::FedDyn,
        AlgorithmKind::Scaffold,
        AlgorithmKind::MimeLite,
        AlgorithmKind::FedTrip,
    ]
    .into_iter()
    .map(|kind| {
        let mut sim = Simulation::new(cfg(), kind.build(&HyperParams::default()));
        sim.run();
        GoldenRun {
            name: kind.name().to_string(),
            n_params: sim.global_params().len(),
            global_bits_fnv1a: fnv1a(sim.global_params()),
            records: sim.records().to_vec(),
        }
    })
    .collect();
    let mut got = serde_json::to_string_pretty(&runs).expect("serialize runs");
    got.push('\n');
    if std::env::var("CODEC_GOLDEN_REGEN").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_codec_runs.json");
        std::fs::write(path, &got).expect("write regenerated fixture");
        eprintln!("codec golden fixture regenerated at {path}");
        return;
    }
    assert_eq!(
        got,
        include_str!("golden_codec_runs.json"),
        "q4/top-k run diverged from the committed fixture (regenerate with \
         CODEC_GOLDEN_REGEN=1 only for an intentional semantics change)"
    );
}
