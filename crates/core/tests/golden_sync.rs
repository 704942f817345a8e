//! Golden regression: the [`Synchronous`] scheduler must reproduce the
//! pre-refactor monolithic engine's `RoundRecord`s **bit-for-bit**.
//!
//! `tests/golden_sync_records.json` was generated by the pre-runtime engine
//! (the single-struct `Simulation` before the scheduler/sampler/executor
//! split) for three pinned-seed configurations covering every selection
//! strategy, failure injection, and a decaying LR schedule. The new engine's
//! records are projected onto the legacy field set and serialized with the
//! same shortest-round-trip float printer, so string equality implies
//! bit-identical selection, losses, accounting, and accuracies.

use fedtrip_core::algorithms::{AlgorithmKind, HyperParams};
use fedtrip_core::engine::{RoundRecord, SelectionStrategy, Simulation, SimulationConfig};
use fedtrip_data::partition::HeterogeneityKind;
use fedtrip_data::synth::DatasetKind;
use fedtrip_models::ModelKind;
use fedtrip_tensor::optim::LrSchedule;
use serde::{Deserialize, Serialize};

/// The `RoundRecord` fields as they existed before the runtime split, in
/// declaration order, so serialization matches the fixture byte-for-byte.
#[derive(Serialize, Deserialize)]
struct LegacyRecord {
    round: usize,
    accuracy: Option<f64>,
    mean_loss: f64,
    cum_comm_bytes: f64,
    cum_flops: f64,
    selected: Vec<usize>,
}

#[derive(Serialize, Deserialize)]
struct GoldenCell {
    name: String,
    records: Vec<LegacyRecord>,
}

fn base_cfg(seed: u64) -> SimulationConfig {
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

fn legacy_projection(records: &[RoundRecord]) -> Vec<LegacyRecord> {
    records
        .iter()
        .map(|r| LegacyRecord {
            round: r.round,
            accuracy: r.accuracy,
            mean_loss: r.mean_loss,
            cum_comm_bytes: r.cum_comm_bytes,
            cum_flops: r.cum_flops,
            selected: r.selected.clone(),
        })
        .collect()
}

fn run_cell(name: &str) -> Vec<LegacyRecord> {
    run_cell_with(name, |_| {})
}

fn run_cell_with(name: &str, tweak: impl FnOnce(&mut SimulationConfig)) -> Vec<LegacyRecord> {
    let (mut cfg, kind) = match name {
        "fedtrip-uniform" => (base_cfg(77), AlgorithmKind::FedTrip),
        "fedavg-weighted-failures" => {
            let mut cfg = base_cfg(78);
            cfg.selection = SelectionStrategy::WeightedBySamples;
            cfg.failure_prob = 0.5;
            (cfg, AlgorithmKind::FedAvg)
        }
        "fedprox-roundrobin-stepdecay" => {
            let mut cfg = base_cfg(79);
            cfg.selection = SelectionStrategy::RoundRobin;
            cfg.lr_schedule = LrSchedule::StepDecay {
                every: 2,
                factor: 0.5,
            };
            (cfg, AlgorithmKind::FedProx)
        }
        other => panic!("fixture names unknown cell `{other}`"),
    };
    tweak(&mut cfg);
    let mut sim = Simulation::new(cfg, kind.build(&HyperParams::default()));
    legacy_projection(sim.run())
}

#[test]
fn synchronous_scheduler_reproduces_pre_refactor_records_bit_for_bit() {
    let fixture = include_str!("golden_sync_records.json");
    let cells: Vec<GoldenCell> = serde_json::from_str(fixture).expect("parse golden fixture");
    assert_eq!(cells.len(), 3, "fixture should hold three cells");
    for cell in &cells {
        let got = run_cell(&cell.name);
        let got_json = serde_json::to_string(&got).expect("serialize records");
        let want_json = serde_json::to_string(&cell.records).expect("serialize fixture");
        assert_eq!(
            got_json, want_json,
            "cell `{}` diverged from the pre-refactor engine",
            cell.name
        );
    }
}

/// The availability layer's trivial setting must be *exactly* the legacy
/// sampler: explicitly configuring the always-on regime (zero diurnal
/// period, zero churn window, zero deadline) reproduces the
/// pre-availability fixture bit-for-bit across every selection strategy
/// and the failure-injection cell — selection, losses, byte accounting
/// and accuracies.
#[test]
fn always_on_availability_reproduces_pre_availability_records_bit_for_bit() {
    let fixture = include_str!("golden_sync_records.json");
    let cells: Vec<GoldenCell> = serde_json::from_str(fixture).expect("parse golden fixture");
    for cell in &cells {
        let got = run_cell_with(&cell.name, |cfg| {
            cfg.availability_period = 0;
            cfg.availability_on_fraction = 0.5;
            cfg.churn_join_window = 0;
            cfg.churn_residency = 0;
            cfg.deadline_secs = 0.0;
        });
        let got_json = serde_json::to_string(&got).expect("serialize records");
        let want_json = serde_json::to_string(&cell.records).expect("serialize fixture");
        assert_eq!(
            got_json, want_json,
            "cell `{}` diverged under explicit always-on availability",
            cell.name
        );
    }
}

/// The downlink's dense setting must be *exactly* the pre-downlink
/// broadcast: explicitly configuring a dense downlink (no codec, zero
/// resync interval — the default) reproduces the same pre-refactor
/// fixture bit-for-bit — selection, losses, byte accounting and
/// accuracies. This is the pin
/// behind the claim that delta broadcasts are purely additive: with the
/// feature off, the engine never touches the broadcast state and charges
/// the same `down + up` f64 sum as the legacy per-client charge.
#[test]
fn dense_downlink_reproduces_pre_downlink_records_bit_for_bit() {
    use fedtrip_core::compression::CompressionKind;
    let fixture = include_str!("golden_sync_records.json");
    let cells: Vec<GoldenCell> = serde_json::from_str(fixture).expect("parse golden fixture");
    for cell in &cells {
        let got = run_cell_with(&cell.name, |cfg| {
            cfg.downlink_compression = CompressionKind::None;
            cfg.resync_interval = 0;
        });
        let got_json = serde_json::to_string(&got).expect("serialize records");
        let want_json = serde_json::to_string(&cell.records).expect("serialize fixture");
        assert_eq!(
            got_json, want_json,
            "cell `{}` diverged under explicit dense downlink",
            cell.name
        );
    }
}

/// The compression subsystem's no-op setting must be *exactly* a no-op:
/// explicitly configuring the `Identity` codec (with or without error
/// feedback, which has nothing to carry for a lossless codec) reproduces
/// the same pre-refactor fixture bit-for-bit — selection, losses, byte
/// accounting and accuracies.
#[test]
fn identity_compression_reproduces_pre_compression_records_bit_for_bit() {
    use fedtrip_core::compression::CompressionKind;
    let fixture = include_str!("golden_sync_records.json");
    let cells: Vec<GoldenCell> = serde_json::from_str(fixture).expect("parse golden fixture");
    for cell in &cells {
        let got = run_cell_with(&cell.name, |cfg| {
            cfg.compression = CompressionKind::None;
            cfg.error_feedback = true;
        });
        let got_json = serde_json::to_string(&got).expect("serialize records");
        let want_json = serde_json::to_string(&cell.records).expect("serialize fixture");
        assert_eq!(
            got_json, want_json,
            "cell `{}` diverged under identity compression",
            cell.name
        );
    }
}
