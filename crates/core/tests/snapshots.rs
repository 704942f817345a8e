//! Committed snapshots pin the checkpoint layout.
//!
//! `snapshot_v{N}_{alg}.ckpt` beside this file are real snapshots at
//! `N = CHECKPOINT_VERSION` that fill every slot a checkpoint has. `load` +
//! `save` must give back their bytes, so a field added, renamed or dropped
//! anywhere under `SimState` fails here. A missing current-version file is
//! written (never overwritten) and the test fails until it is committed, so
//! a layout change needs a version bump. Other versions' files must fail
//! to load by their version.

use std::fs;
use std::path::{Path, PathBuf};

use fedtrip_core::algorithms::{AlgorithmKind, ClientState, HyperParams};
use fedtrip_core::checkpoint::{Checkpoint, CHECKPOINT_VERSION};
use fedtrip_core::compression::CompressionKind;
use fedtrip_core::engine::{Simulation, SimulationConfig};
use fedtrip_core::runtime::{RunMode, SelectionStrategy};
use fedtrip_models::ModelKind;

/// Rounds run before the capture.
const CAPTURED_AT: usize = 4;

/// Each method's FNV-1a of its records and global parameters two resumed
/// rounds past the capture: numerical changes move only these.
const SNAPSHOTS: [(AlgorithmKind, &str); 2] = [
    (AlgorithmKind::FedTrip, "dddcb71ec25be369"),
    (AlgorithmKind::Scaffold, "1f9c356a5d3a262e"),
];

/// The run the snapshots were captured from: semi-async in-flight jobs,
/// two edge clocks, Oort utilities, churn, q8 uplink residuals and a q8
/// delta downlink with its view, reference and residual.
fn cfg() -> SimulationConfig {
    SimulationConfig {
        model: ModelKind::TinyCnn,
        n_clients: 4,
        clients_per_round: 2,
        rounds: CAPTURED_AT + 2,
        batch_size: 10,
        lr: 0.05,
        seed: 909,
        test_per_class: 2,
        client_samples_override: Some(20),
        selection: SelectionStrategy::Oort,
        mode: RunMode::SemiAsync,
        device_het: 4.0,
        compression: CompressionKind::Q8,
        error_feedback: true,
        edges: 2,
        churn_join_window: 4,
        churn_residency: 8,
        downlink_compression: CompressionKind::Q8,
        resync_interval: 3,
        ..SimulationConfig::default()
    }
}

const TESTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests");

fn snapshot_path(kind: AlgorithmKind) -> PathBuf {
    let name = kind.name().to_lowercase();
    Path::new(TESTS_DIR).join(format!("snapshot_v{CHECKPOINT_VERSION}_{name}.ckpt"))
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// A slot left empty would go unpinned.
fn assert_populated(ckpt: &Checkpoint, kind: AlgorithmKind) {
    let s = &ckpt.state;
    let any = |f: fn(&ClientState) -> bool| s.states.iter().any(|(_, c)| f(c));
    let fedtrip = kind == AlgorithmKind::FedTrip;
    for (held, what) in [
        (!fedtrip || any(|c| c.historical.is_some()), "w_hist"),
        (fedtrip || any(|c| c.correction.is_some()), "correction"),
        (fedtrip || !ckpt.server_state.is_empty(), "server vector"),
        (any(|c| c.residual.is_some()), "uplink residual"),
        (s.broadcast_residual.is_some(), "downlink residual"),
        (!s.scheduler.in_flight.is_empty(), "in-flight job"),
        (!s.utility.is_empty(), "utility entry"),
    ] {
        assert!(held, "{}: no {what}", kind.name());
    }
}

#[test]
fn current_snapshots_keep_their_bytes_and_resume() {
    let mut written = Vec::new();
    for (kind, _) in SNAPSHOTS {
        let path = snapshot_path(kind);
        if !path.exists() {
            let hyper = HyperParams::default();
            let mut sim = Simulation::new(cfg(), kind.build(&hyper));
            for _ in 0..CAPTURED_AT {
                sim.run_round();
            }
            let ckpt = Checkpoint::capture(&sim, kind, hyper);
            assert_populated(&ckpt, kind);
            ckpt.save(&path).expect("write snapshot");
            written.push(path.display().to_string());
        }
    }
    if !written.is_empty() {
        panic!("wrote {}; commit it", written.join(", "));
    }

    let tmp = std::env::temp_dir().join(std::process::id().to_string());
    for (kind, digest) in SNAPSHOTS {
        let path = snapshot_path(kind);
        let ckpt = Checkpoint::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        ckpt.save(&tmp).expect("save snapshot");
        let resaved = fs::read(&tmp).expect("read resaved snapshot");
        let _ = fs::remove_file(&tmp);
        let committed = fs::read(&path).expect("read committed snapshot");
        assert!(
            resaved == committed,
            "{}: layout changed, bump CHECKPOINT_VERSION",
            path.display()
        );

        let mut sim = ckpt.restore().expect("committed snapshot restores");
        for _ in 0..2 {
            sim.run_round();
        }
        let records = serde_json::to_string(&sim.records().to_vec()).expect("serialize");
        let mut bytes = records.into_bytes();
        for v in sim.global_params() {
            bytes.extend(v.to_bits().to_le_bytes());
        }
        let got = fnv1a(&bytes);
        assert_eq!(got, digest, "{}: resumed run diverged", kind.name());
    }
}

#[test]
fn snapshots_of_other_versions_are_rejected_by_version() {
    let current = CHECKPOINT_VERSION.to_string();
    for entry in fs::read_dir(TESTS_DIR).expect("read tests dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let version = name
            .strip_prefix("snapshot_v")
            .and_then(|r| r.split_once('_'));
        if let Some((version, _)) = version.filter(|(v, _)| *v != current) {
            let err = Checkpoint::load(&path).map(|_| ()).unwrap_err().to_string();
            let want = format!("version {version} unsupported (expected {CHECKPOINT_VERSION})");
            assert!(err.contains(&want), "{name}: {err}");
        }
    }
}
