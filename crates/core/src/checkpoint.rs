//! Simulation checkpointing: pause a federated run, serialize everything
//! that defines its future (global model, per-client states, server-side
//! algorithm state, round records), and resume bit-identically later.
//!
//! Because every random stream in the engine is derived from
//! `(seed, domain tags, round, client)` rather than from mutable generator
//! state, a resumed run needs no RNG snapshot: replaying round `t+1` after a
//! restore produces exactly the bytes the uninterrupted run would have.

use crate::algorithms::{AlgorithmKind, ClientState, HyperParams};
use crate::engine::{RestoreError, RoundRecord, Simulation, SimulationConfig};
use crate::runtime::SchedulerState;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::mem;
use std::path::{Path, PathBuf};

/// The snapshot format version. A file is one line of compact JSON — the
/// [`Checkpoint`] with every f32 tensor emptied — then one raw section per
/// tensor slot in canonical order: a `u64` element count and that many
/// `f32`s, all little-endian. [`Checkpoint::load`] rejects every other
/// version, or none, by name before deserializing the rest.
pub const CHECKPOINT_VERSION: u32 = 8;

/// One sparse client-state entry of a snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClientEntry {
    /// Client id within the federation.
    pub client: usize,
    /// The client's persistent state.
    pub state: ClientState,
}

/// One utility-table entry of a snapshot: the most recent mean
/// training loss reported by a client, the statistical-utility half of
/// the Oort selection score. Stored sparse and in ascending client order
/// (the table is a `BTreeMap` server-side), so serialization is
/// deterministic.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct UtilityEntry {
    /// Client id within the federation.
    pub client: usize,
    /// Last observed mean training loss for that client.
    pub loss: f64,
}

/// A serialized simulation snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Snapshot format version (see [`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Engine configuration.
    pub config: SimulationConfig,
    /// Which method was running.
    pub algorithm: AlgorithmKind,
    /// Its hyper-parameters.
    pub hyper: HyperParams,
    /// Rounds completed.
    pub round: usize,
    /// Global model parameters.
    pub global: Vec<f32>,
    /// Per-client persistent state — sparse: only clients that have
    /// participated carry an entry, in ascending client order.
    pub states: Vec<ClientEntry>,
    /// Server-side algorithm state (momentum buffers etc.).
    pub server_state: Vec<Vec<f32>>,
    /// Round records so far.
    pub records: Vec<RoundRecord>,
    /// Root virtual-clock instant at capture (can sit past the last
    /// record's fold time while semi-async arrivals were being collected).
    pub clock: f64,
    /// Per-edge virtual-clock instants at capture, one per configured edge
    /// aggregator in edge order (`config.edges` entries; a single entry
    /// equal to `clock` for the flat `edges = 1` federation).
    pub edge_clocks: Vec<f64>,
    /// Scheduler position: fold counter plus in-flight / buffered jobs
    /// (empty for the stateless synchronous scheduler).
    pub scheduler: SchedulerState,
    /// Server-side utility table — last observed mean loss per client,
    /// sparse, ascending client order. Selection under the Oort strategy
    /// depends on it, so it must survive the round trip for a resumed run
    /// to stay bit-identical. The availability traces themselves need no
    /// snapshot state: they are pure functions of `(seed, client, round)`,
    /// so `round` above is the whole availability cursor.
    pub utility: Vec<UtilityEntry>,
    /// Clients' reconstructed view of the global model under delta
    /// broadcasts — empty when the downlink is dense (nothing to carry;
    /// restore re-anchors it to the global model if a delta-downlink
    /// configuration later resumes this snapshot).
    pub broadcast_view: Vec<f32>,
    /// Global parameters at the last broadcast (the delta reference
    /// `w_broadcast_base`); empty when the downlink is dense.
    pub broadcast_last: Vec<f32>,
    /// Server-side downlink error-feedback residual; empty when absent
    /// (dense downlink, or a delta run that has not dropped mass yet).
    pub broadcast_residual: Vec<f32>,
    /// Broadcast sync epoch — which full-model resync generation the
    /// clients' views belong to.
    pub broadcast_epoch: u64,
}

/// Wrap an I/O or parse failure as the uniform [`RestoreError::Snapshot`]
/// so every way a `--resume` can fail reports through one `Display` path.
fn snapshot_err(context: &str, detail: impl std::fmt::Display) -> RestoreError {
    RestoreError::Snapshot(format!("{context}: {detail}"))
}

impl Checkpoint {
    /// Capture a snapshot of a running simulation.
    ///
    /// `algorithm`/`hyper` must be the values the simulation was built with
    /// (the engine holds only the type-erased method).
    pub fn capture(sim: &Simulation, algorithm: AlgorithmKind, hyper: HyperParams) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            config: *sim.config(),
            algorithm,
            hyper,
            round: sim.rounds_done(),
            global: sim.global_params().to_vec(),
            states: sim
                .client_states()
                .iter()
                .map(|(client, state)| ClientEntry {
                    client,
                    state: state.clone(),
                })
                .collect(),
            server_state: sim.algorithm_server_state(),
            records: sim.records().to_vec(),
            clock: sim.virtual_time(),
            edge_clocks: sim.edge_clock_times(),
            scheduler: sim.scheduler_state(),
            utility: sim
                .utility_table()
                .export()
                .into_iter()
                .map(|(client, loss)| UtilityEntry { client, loss })
                .collect(),
            broadcast_view: sim.broadcast_state().0.to_vec(),
            broadcast_last: sim.broadcast_state().1.to_vec(),
            broadcast_residual: sim
                .broadcast_state()
                .2
                .map(<[f32]>::to_vec)
                .unwrap_or_default(),
            broadcast_epoch: sim.broadcast_state().3,
        }
    }

    /// Rebuild a simulation that continues exactly where the snapshot
    /// stopped.
    ///
    /// A snapshot that does not fit its own recorded configuration (wrong
    /// parameter count, per-client or server-side vectors of the wrong
    /// length, client entries beyond the federation, edge-clock count
    /// diverging from `config.edges`, inconsistent record count) returns a
    /// clean [`RestoreError`] instead of panicking.
    pub fn restore(&self) -> Result<Simulation, RestoreError> {
        // a corrupted/hand-edited snapshot must not reach Simulation::new's
        // asserts: re-check its invariants as a clean error first
        self.config
            .validate()
            .map_err(RestoreError::InvalidConfig)?;
        // the scheduler's in-flight/buffered jobs also carry client ids;
        // validate them here so a shrunken-config or corrupt snapshot
        // errors cleanly instead of panicking rounds later
        for job in self
            .scheduler
            .in_flight
            .iter()
            .chain(&self.scheduler.buffer)
        {
            if job.client >= self.config.n_clients {
                return Err(RestoreError::InvalidClientStates(format!(
                    "scheduler job for client {} out of range for a federation of {}",
                    job.client, self.config.n_clients
                )));
            }
            for v in std::iter::once(&job.outcome.params).chain(&job.outcome.aux) {
                if v.len() != self.global.len() {
                    return Err(RestoreError::GlobalSizeMismatch {
                        snapshot: v.len(),
                        expected: self.global.len(),
                    });
                }
            }
        }
        // utility entries carry client ids too: reject out-of-range ones
        // here so a shrunken-config snapshot errors cleanly
        for e in &self.utility {
            if e.client >= self.config.n_clients {
                return Err(RestoreError::InvalidClientStates(format!(
                    "utility entry for client {} out of range for a federation of {}",
                    e.client, self.config.n_clients
                )));
            }
        }
        let alg = self.algorithm.build(&self.hyper);
        let mut sim = Simulation::new(self.config, alg);
        // order matters: Simulation::new ran on_init, which sized-and-zeroed
        // the server state; overwrite it now
        sim.restore_algorithm_state(self.server_state.clone())?;
        sim.restore_snapshot(
            self.round,
            self.global.clone(),
            self.states.iter().map(|e| (e.client, e.state.clone())),
            self.records.clone(),
        )?;
        sim.restore_runtime(self.clock, &self.edge_clocks, self.scheduler.clone())?;
        sim.restore_utility(self.utility.iter().map(|e| (e.client, e.loss)));
        // after restore_snapshot: empty broadcast vectors (dense captures)
        // re-anchor to the restored global model
        sim.restore_broadcast(
            self.broadcast_view.clone(),
            self.broadcast_last.clone(),
            (!self.broadcast_residual.is_empty()).then(|| self.broadcast_residual.clone()),
            self.broadcast_epoch,
        )?;
        Ok(sim)
    }

    /// Every f32 tensor slot in canonical order: `global`, each
    /// `server_state` vector, each client's `historical` / `correction` /
    /// `residual` when present, each scheduler job's `params` and `aux`
    /// when present, then the three broadcast vectors. [`Checkpoint::save`]
    /// writes and [`Checkpoint::load`] reads the sections in this order.
    fn tensor_slots(&mut self) -> Vec<&mut Vec<f32>> {
        let mut slots = vec![&mut self.global];
        slots.extend(&mut self.server_state);
        for entry in &mut self.states {
            let s = &mut entry.state;
            slots.extend(
                [&mut s.historical, &mut s.correction, &mut s.residual]
                    .into_iter()
                    .flatten(),
            );
        }
        let scheduler = &mut self.scheduler;
        for job in scheduler.in_flight.iter_mut().chain(&mut scheduler.buffer) {
            slots.push(&mut job.outcome.params);
            slots.extend(&mut job.outcome.aux);
        }
        slots.extend([
            &mut self.broadcast_view,
            &mut self.broadcast_last,
            &mut self.broadcast_residual,
        ]);
        slots
    }

    /// Write the snapshot (layout at [`CHECKPOINT_VERSION`]) to a sibling
    /// `<path>.tmp`, then rename it over `path`, so a failed write leaves
    /// the previous snapshot in place. Nothing is fsynced.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut header = self.clone();
        let tensors: Vec<Vec<f32>> = header.tensor_slots().into_iter().map(mem::take).collect();
        let json = serde_json::to_string(&header)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let payload: usize = tensors.iter().map(|t| 8 + 4 * t.len()).sum();
        let mut bytes = Vec::with_capacity(json.len() + 1 + payload);
        bytes.extend_from_slice(json.as_bytes());
        bytes.push(b'\n');
        for t in &tensors {
            bytes.extend_from_slice(&(t.len() as u64).to_le_bytes());
            let start = bytes.len();
            bytes.resize(start + 4 * t.len(), 0);
            for (out, x) in bytes[start..].chunks_exact_mut(4).zip(t) {
                out.copy_from_slice(&x.to_le_bytes());
            }
        }
        let tmp = temp_path(path);
        let written = fs::write(&tmp, &bytes).and_then(|()| fs::rename(&tmp, path));
        if written.is_err() {
            // best effort: the temp path may not even be a file
            let _ = fs::remove_file(&tmp);
        }
        written
    }

    /// Read a snapshot back.
    ///
    /// Every failure — unreadable file, a malformed or non-UTF-8 header, a
    /// `version` other than [`CHECKPOINT_VERSION`] (or none at all), fields
    /// that do not deserialize, missing, overlong or surplus tensor
    /// sections — surfaces as [`RestoreError::Snapshot`], so callers report
    /// `--resume` problems through one uniform [`std::fmt::Display`] path.
    pub fn load(path: &Path) -> Result<Checkpoint, RestoreError> {
        let bytes = fs::read(path)
            .map_err(|e| snapshot_err(&format!("cannot read {}", path.display()), e))?;
        // compact JSON never holds a raw newline, so the first one ends the
        // header; a file without one (an older JSON-only snapshot) is all
        // header and gets rejected by its version below
        let (header, mut sections) = match bytes.iter().position(|&b| b == b'\n') {
            Some(nl) => (&bytes[..nl], &bytes[nl + 1..]),
            None => (&bytes[..], &[][..]),
        };
        let header = std::str::from_utf8(header).map_err(|e| snapshot_err("snapshot header", e))?;
        // check the version off the raw JSON first: a snapshot from another
        // format version should report that version, not whatever
        // missing-field error full deserialization happens to hit first
        let value: serde_json::Value = serde_json::from_str(header)
            .map_err(|e| snapshot_err("malformed snapshot header", e))?;
        let version = value.get("version").and_then(|v| v.as_u64());
        if version != Some(u64::from(CHECKPOINT_VERSION)) {
            return Err(RestoreError::Snapshot(format!(
                "checkpoint format version {} unsupported (expected {CHECKPOINT_VERSION})",
                version.map_or_else(|| "<missing>".into(), |v| v.to_string()),
            )));
        }
        let mut ckpt: Checkpoint = serde::Deserialize::from_value(&value).map_err(|e| {
            snapshot_err(
                &format!("snapshot does not fit the v{CHECKPOINT_VERSION} layout"),
                e,
            )
        })?;
        for (i, slot) in ckpt.tensor_slots().into_iter().enumerate() {
            if !slot.is_empty() {
                return Err(snapshot_err(
                    &format!("tensor slot {i}"),
                    "data inline in the header",
                ));
            }
            *slot = read_section(&mut sections)
                .map_err(|e| snapshot_err(&format!("tensor section {i}"), e))?;
        }
        if !sections.is_empty() {
            return Err(snapshot_err(
                "snapshot",
                format!("{} bytes past the last tensor section", sections.len()),
            ));
        }
        Ok(ckpt)
    }
}

/// The sibling file [`Checkpoint::save`] writes before renaming it over
/// `path`.
fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Split one tensor section — a little-endian `u64` count, then that many
/// little-endian `f32`s — off the front of `rest`. The count is checked
/// against the bytes left before anything is allocated.
fn read_section(rest: &mut &[u8]) -> Result<Vec<f32>, String> {
    let (count, tail) = rest
        .split_first_chunk::<8>()
        .ok_or_else(|| format!("missing (only {} bytes left)", rest.len()))?;
    let count = u64::from_le_bytes(*count);
    let len = usize::try_from(count)
        .ok()
        .and_then(|n| n.checked_mul(4))
        .filter(|&len| len <= tail.len())
        .ok_or_else(|| format!("{count} elements overrun the {} bytes left", tail.len()))?;
    let (data, tail) = tail.split_at(len);
    *rest = tail;
    Ok(data
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedtrip_data::partition::HeterogeneityKind;
    use fedtrip_data::synth::DatasetKind;
    use fedtrip_models::ModelKind;

    fn cfg(seed: u64) -> SimulationConfig {
        SimulationConfig {
            dataset: DatasetKind::MnistLike,
            model: ModelKind::TinyMlp,
            heterogeneity: HeterogeneityKind::Dirichlet(0.5),
            n_clients: 6,
            clients_per_round: 3,
            rounds: 8,
            batch_size: 25,
            lr: 0.05,
            seed,
            test_per_class: 5,
            client_samples_override: Some(50),
            ..SimulationConfig::default()
        }
    }

    fn resume_equals_straight_cfg(config: SimulationConfig, kind: AlgorithmKind) {
        let hyper = HyperParams::default();
        // straight run: 8 rounds
        let mut straight = Simulation::new(config, kind.build(&hyper));
        straight.run();

        // split run: 4 rounds, checkpoint, restore, 4 more
        let mut first = Simulation::new(config, kind.build(&hyper));
        for _ in 0..4 {
            first.run_round();
        }
        let ckpt = Checkpoint::capture(&first, kind, hyper);
        let mut resumed = ckpt.restore().expect("self-consistent checkpoint");
        resumed.run();

        assert_eq!(
            straight.global_params(),
            resumed.global_params(),
            "{}: resumed run diverged from straight run",
            kind.name()
        );
        assert_eq!(straight.records().len(), resumed.records().len());
    }

    fn resume_equals_straight(kind: AlgorithmKind) {
        resume_equals_straight_cfg(cfg(31), kind);
    }

    #[test]
    fn resume_is_bit_identical_stateless_method() {
        resume_equals_straight(AlgorithmKind::FedTrip);
    }

    #[test]
    fn resume_is_bit_identical_server_stateful_methods() {
        // these keep server-side vectors that must survive the round trip
        resume_equals_straight(AlgorithmKind::SlowMo);
        resume_equals_straight(AlgorithmKind::FedDyn);
        resume_equals_straight(AlgorithmKind::Scaffold);
        resume_equals_straight(AlgorithmKind::MimeLite);
    }

    #[test]
    fn resume_is_bit_identical_under_compression_with_error_feedback() {
        use crate::compression::CompressionKind;
        // top-k exercises the residual state hardest: most of each update
        // is dropped and must survive the JSON round trip exactly
        let mut c = cfg(35);
        c.compression = CompressionKind::TopK(0.25);
        c.error_feedback = true;
        resume_equals_straight_cfg(c, AlgorithmKind::FedTrip);
        let mut c = cfg(36);
        c.compression = CompressionKind::Q8;
        c.error_feedback = true;
        c.mode = crate::runtime::RunMode::SemiAsync;
        c.device_het = 4.0;
        resume_equals_straight_cfg(c, AlgorithmKind::FedAvg);
    }

    #[test]
    fn resume_is_bit_identical_with_edge_tier() {
        // the per-edge clocks and the tree fold must survive the snapshot:
        // split an E=3 run and compare to the straight E=3 run, both modes
        let mut c = cfg(45);
        c.edges = 3;
        resume_equals_straight_cfg(c, AlgorithmKind::FedTrip);
        let mut c = cfg(46);
        c.edges = 2;
        c.mode = crate::runtime::RunMode::SemiAsync;
        c.device_het = 4.0;
        resume_equals_straight_cfg(c, AlgorithmKind::Scaffold);
    }

    #[test]
    fn resume_is_bit_identical_under_availability_churn_and_oort() {
        // the utility table feeds Oort selection, so it must survive the
        // round trip for the resumed half to pick the same clients; the
        // availability traces themselves are pure functions of
        // (seed, client, round) and need no snapshot state
        let mut c = cfg(50);
        c.selection = crate::runtime::SelectionStrategy::Oort;
        c.availability_period = 6;
        c.availability_on_fraction = 0.5;
        c.churn_join_window = 4;
        c.churn_residency = 8;
        c.device_het = 4.0;
        resume_equals_straight_cfg(c, AlgorithmKind::FedTrip);
        // deadline dropout charges the barrier differently: resume must
        // reproduce the kept/dropped split exactly
        let mut c = cfg(51);
        c.deadline_secs = 30.0;
        c.device_het = 4.0;
        resume_equals_straight_cfg(c, AlgorithmKind::FedAvg);
    }

    #[test]
    fn resume_is_bit_identical_under_delta_downlink_across_resync() {
        use crate::compression::CompressionKind;
        // capture at round 4 with resyncs at rounds 3 and 6: the resumed
        // half must carry the broadcast view / delta reference / downlink
        // residual and the per-client sync epochs across the boundary,
        // then replay round 6's resync identically
        let mut c = cfg(54);
        c.downlink_compression = CompressionKind::Q8;
        c.resync_interval = 3;
        resume_equals_straight_cfg(c, AlgorithmKind::FedTrip);
        // bidirectional compression with uplink error feedback, plus churn
        // joiners receiving on-demand dense bases after the resume point
        let mut c = cfg(55);
        c.compression = CompressionKind::Q8;
        c.error_feedback = true;
        c.downlink_compression = CompressionKind::Q4;
        c.resync_interval = 5;
        c.churn_join_window = 4;
        c.churn_residency = 8;
        resume_equals_straight_cfg(c, AlgorithmKind::FedAvg);
    }

    #[test]
    fn checkpoint_carries_broadcast_state() {
        use crate::compression::CompressionKind;
        let hyper = HyperParams::default();
        let mut c = cfg(56);
        c.downlink_compression = CompressionKind::TopK(0.1);
        c.resync_interval = 0; // never resync: the residual accumulates
        let mut sim = Simulation::new(c, AlgorithmKind::FedAvg.build(&hyper));
        for _ in 0..3 {
            sim.run_round();
        }
        let ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        let n = ckpt.global.len();
        assert_eq!(ckpt.broadcast_view.len(), n);
        assert_eq!(ckpt.broadcast_last.len(), n);
        assert_eq!(ckpt.broadcast_residual.len(), n, "top-k must drop mass");
        assert!(
            ckpt.states.iter().all(|e| e.state.sync_epoch == Some(0)),
            "participants must be stamped with the broadcast epoch"
        );
        let restored = ckpt.restore().expect("self-consistent checkpoint");
        let (view, last, residual, epoch) = restored.broadcast_state();
        assert_eq!(view, &ckpt.broadcast_view[..]);
        assert_eq!(last, &ckpt.broadcast_last[..]);
        assert_eq!(residual, Some(&ckpt.broadcast_residual[..]));
        assert_eq!(epoch, ckpt.broadcast_epoch);

        // dense downlink: nothing to carry
        let mut sim = Simulation::new(cfg(57), AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        assert!(ckpt.broadcast_view.is_empty());
        assert!(ckpt.broadcast_last.is_empty());
        assert!(ckpt.broadcast_residual.is_empty());
        assert!(ckpt.states.iter().all(|e| e.state.sync_epoch.is_none()));
    }

    #[test]
    fn checkpoint_carries_utility_table() {
        let hyper = HyperParams::default();
        let mut c = cfg(52);
        c.selection = crate::runtime::SelectionStrategy::Oort;
        let mut sim = Simulation::new(c, AlgorithmKind::FedAvg.build(&hyper));
        for _ in 0..3 {
            sim.run_round();
        }
        let ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        assert!(!ckpt.utility.is_empty(), "no utility captured");
        // ascending client order (deterministic serialization)
        assert!(ckpt.utility.windows(2).all(|w| w[0].client < w[1].client));
        let restored = ckpt.restore().expect("self-consistent checkpoint");
        let got = restored.utility_table().export();
        let want: Vec<(usize, f64)> = ckpt.utility.iter().map(|e| (e.client, e.loss)).collect();
        assert_eq!(got, want, "utility table diverged across the round trip");
    }

    #[test]
    fn restore_rejects_out_of_range_utility_entries() {
        let hyper = HyperParams::default();
        let mut c = cfg(53);
        c.selection = crate::runtime::SelectionStrategy::Oort;
        let mut sim = Simulation::new(c, AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let mut ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        ckpt.utility.push(UtilityEntry {
            client: ckpt.config.n_clients,
            loss: 1.0,
        });
        let err = ckpt.restore().map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("utility entry"), "{err}");
    }

    #[test]
    fn checkpoint_carries_error_feedback_residuals() {
        use crate::compression::CompressionKind;
        let hyper = HyperParams::default();
        let mut c = cfg(37);
        c.compression = CompressionKind::TopK(0.1);
        c.error_feedback = true;
        let mut sim = Simulation::new(c, AlgorithmKind::FedAvg.build(&hyper));
        for _ in 0..3 {
            sim.run_round();
        }
        let ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        assert!(
            ckpt.states.iter().any(|e| e.state.residual.is_some()),
            "no residual captured"
        );
        let restored = ckpt.restore().expect("self-consistent checkpoint");
        for e in &ckpt.states {
            assert_eq!(
                Some(&e.state.residual),
                restored.client_states().get(e.client).map(|s| &s.residual),
                "client {}",
                e.client
            );
        }
    }

    #[test]
    fn load_rejects_foreign_format_versions() {
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(33), AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let mut ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        ckpt.version = CHECKPOINT_VERSION + 1;
        let path = std::env::temp_dir().join("fedtrip_ckpt_version_test.json");
        ckpt.save(&path).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(
            matches!(err, RestoreError::Snapshot(_)),
            "unexpected error: {err}"
        );
        assert!(
            err.to_string().contains("version"),
            "unexpected error: {err}"
        );

        // every other layout is rejected by its version alone, before any
        // field is looked at: minimal files suffice
        let cases = [
            ("3", r#"{"version": 3}"#),
            ("4", r#"{"version": 4}"#),
            ("5", r#"{"version": 5}"#),
            ("6", r#"{"version": 6}"#),
            ("7", r#"{"version": 7, "round": 4, "global": [0.5, -0]}"#),
            ("9", r#"{"version": 9}"#),
            ("<missing>", r#"{"round": 4}"#),
        ];
        let path = std::env::temp_dir().join("fedtrip_ckpt_foreign_version_test.json");
        for (version, body) in cases {
            fs::write(&path, body).unwrap();
            let err = Checkpoint::load(&path).unwrap_err();
            assert!(matches!(err, RestoreError::Snapshot(_)), "{version}: {err}");
            let want = format!("version {version} unsupported (expected {CHECKPOINT_VERSION})");
            assert!(err.to_string().contains(&want), "{version}: {err}");
        }
    }

    #[test]
    fn restore_rejects_client_vectors_of_the_wrong_length() {
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(60), AlgorithmKind::FedTrip.build(&hyper));
        sim.run_round();
        let mut ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedTrip, hyper);
        let hist = ckpt.states[0]
            .state
            .historical
            .as_mut()
            .expect("FedTrip keeps w̃_k");
        hist.pop();
        let err = ckpt.restore().map(|_| ()).unwrap_err();
        assert!(
            matches!(err, RestoreError::InvalidClientStates(_)),
            "unexpected error: {err}"
        );
        assert!(err.to_string().contains("historical"), "{err}");
    }

    #[test]
    fn restore_rejects_server_state_of_the_wrong_shape() {
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(61), AlgorithmKind::FedDyn.build(&hyper));
        sim.run_round();
        let good = Checkpoint::capture(&sim, AlgorithmKind::FedDyn, hyper);
        type Corrupt = fn(&mut Checkpoint);
        let corruptions: [(&str, Corrupt); 3] = [
            ("short h", |c| {
                c.server_state[0].pop();
            }),
            ("missing h", |c| c.server_state.clear()),
            ("extra vector", |c| c.server_state.push(Vec::new())),
        ];
        for (name, corrupt) in corruptions {
            let mut ckpt = good.clone();
            corrupt(&mut ckpt);
            let err = ckpt.restore().map(|_| ()).unwrap_err();
            assert!(
                matches!(err, RestoreError::ServerStateMismatch { .. }),
                "{name}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn fuzzed_snapshots_error_or_resume_without_panicking() {
        use crate::compression::CompressionKind;
        use fedtrip_tensor::rng::Prng;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let hyper = HyperParams::default();
        // the smallest model and cohort that still carry every vector kind
        let mut c = cfg(62);
        c.model = ModelKind::TinyCnn;
        c.clients_per_round = 1;
        c.compression = CompressionKind::Q8;
        c.error_feedback = true;
        c.downlink_compression = CompressionKind::Q8;
        c.resync_interval = 3;
        let mut sim = Simulation::new(c, AlgorithmKind::FedTrip.build(&hyper));
        for _ in 0..2 {
            sim.run_round();
        }
        let mut ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedTrip, hyper);
        let path = std::env::temp_dir().join("fedtrip_ckpt_fuzz_test.ckpt");
        ckpt.save(&path).unwrap();
        let body = fs::read(&path).unwrap();

        // where each section starts, and the byte ranges of its count and
        // its payload
        let header_len = body.iter().position(|&b| b == b'\n').unwrap();
        let mut boundaries = vec![header_len + 1];
        let (mut counts, mut payloads) = (Vec::new(), Vec::new());
        for slot in ckpt.tensor_slots() {
            let at = *boundaries.last().unwrap();
            counts.extend(at..at + 8);
            payloads.extend(at + 8..at + 8 + 4 * slot.len());
            boundaries.push(at + 8 + 4 * slot.len());
        }
        assert_eq!(boundaries.last(), Some(&body.len()));

        // truncations at every section boundary and one byte either side,
        // plus 64 evenly spaced ones
        let mut cuts: Vec<usize> = boundaries
            .iter()
            .flat_map(|&b| [b - 1, b, b + 1])
            .filter(|&cut| cut < body.len())
            .collect();
        cuts.extend((0..64).map(|i| body.len() * i / 64));
        let mut inputs: Vec<Vec<u8>> = cuts.iter().map(|&cut| body[..cut].to_vec()).collect();

        // seeded single-byte mutations: half in the header's scalar fields
        // (numbers right after a `:` — the config, hyper-parameters,
        // counters and clocks most likely to break an invariant the resumed
        // round relies on), a quarter in the length prefixes, a quarter in
        // the tensor payloads
        let header = &body[..header_len];
        let is_num = |b: u8| b.is_ascii_digit() || b"-.eE+".contains(&b);
        let scalars: Vec<usize> = (1..header.len())
            .filter(|&i| {
                let start = (0..=i).rev().find(|&j| !is_num(header[j])).unwrap_or(0);
                is_num(header[i]) && header[start] == b':'
            })
            .collect();
        const ALPHABET: &[u8] = b"0123456789-.e\",:[]{}n ";
        let mut rng = Prng::seed_from_u64(2023);
        for k in 0..200 {
            let mut mutated = body.clone();
            if k % 2 == 0 {
                let at = scalars[rng.below(scalars.len())];
                mutated[at] = ALPHABET[rng.below(ALPHABET.len())];
            } else {
                let region = if k % 4 == 1 { &counts } else { &payloads };
                let at = region[rng.below(region.len())];
                mutated[at] ^= 1 + rng.below(255) as u8;
            }
            inputs.push(mutated);
        }

        let mut resumed = 0;
        for (i, input) in inputs.iter().enumerate() {
            fs::write(&path, input).unwrap();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut sim = Checkpoint::load(&path)?.restore()?;
                sim.run_round();
                resumed += 1;
                Ok::<(), RestoreError>(())
            }));
            assert!(outcome.is_ok(), "input {i} panicked");
        }
        // the corpus must reach the resumed round often enough to matter
        assert!(resumed >= 64, "only {resumed} inputs resumed");
    }

    #[test]
    fn snapshot_tensors_round_trip_bit_exact() {
        use crate::compression::CompressionKind;
        // what a decimal JSON number cannot carry: the sign of zero, a NaN
        // payload, the infinities, the smallest subnormal, the largest f32
        let specials = [
            -0.0,
            f32::from_bits(0x7fc0_1234),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            f32::MAX,
        ];
        let plant = |v: &mut Vec<f32>| v[..specials.len()].copy_from_slice(&specials);
        let hyper = HyperParams::default();
        let mut c = cfg(63);
        c.downlink_compression = CompressionKind::TopK(0.1);
        c.resync_interval = 0; // never resync: the residual accumulates
        let path = std::env::temp_dir().join("fedtrip_ckpt_bit_exact_test.ckpt");
        for kind in [AlgorithmKind::FedTrip, AlgorithmKind::FedDyn] {
            let mut sim = Simulation::new(c, kind.build(&hyper));
            sim.run_round();
            let mut ckpt = Checkpoint::capture(&sim, kind, hyper);
            if kind == AlgorithmKind::FedTrip {
                plant(&mut ckpt.global);
                plant(ckpt.states[0].state.historical.as_mut().unwrap());
                plant(&mut ckpt.broadcast_residual);
            } else {
                plant(&mut ckpt.server_state[0]);
            }
            ckpt.save(&path).unwrap();
            let mut loaded = Checkpoint::load(&path).unwrap();
            let bits = |c: &mut Checkpoint| -> Vec<Vec<u32>> {
                c.tensor_slots()
                    .iter()
                    .map(|v| v.iter().map(|x| x.to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(&mut loaded), bits(&mut ckpt), "{}", kind.name());
        }
    }

    #[test]
    fn save_replaces_the_snapshot_atomically() {
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(64), AlgorithmKind::FedTrip.build(&hyper));
        sim.run_round();
        let path = std::env::temp_dir().join("fedtrip_ckpt_atomic_test.ckpt");
        let tmp = temp_path(&path);
        let _ = fs::remove_dir(&tmp);
        Checkpoint::capture(&sim, AlgorithmKind::FedTrip, hyper)
            .save(&path)
            .unwrap();
        assert!(!tmp.exists(), "a successful save left {}", tmp.display());

        // a directory where the temp file goes makes the next write fail;
        // the snapshot already at `path` must survive it intact
        sim.run_round();
        fs::create_dir(&tmp).unwrap();
        let failed = Checkpoint::capture(&sim, AlgorithmKind::FedTrip, hyper).save(&path);
        fs::remove_dir(&tmp).unwrap();
        assert!(failed.is_err(), "save into a blocked temp path succeeded");
        let previous = Checkpoint::load(&path).expect("previous snapshot still loads");
        assert_eq!(previous.round, 1);
        previous
            .restore()
            .expect("previous snapshot still restores");
    }

    #[test]
    fn load_rejects_misframed_snapshots() {
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(65), AlgorithmKind::FedTrip.build(&hyper));
        sim.run_round();
        let path = std::env::temp_dir().join("fedtrip_ckpt_framing_test.ckpt");
        Checkpoint::capture(&sim, AlgorithmKind::FedTrip, hyper)
            .save(&path)
            .unwrap();
        let body = fs::read(&path).unwrap();
        let first = body.iter().position(|&b| b == b'\n').unwrap() + 1;
        type Corrupt = fn(&mut Vec<u8>, usize);
        let corruptions: [(&str, Corrupt); 6] = [
            // a count near 2^64 must not reach the allocator
            ("flipped high count byte", |b, at| b[at + 7] = 0xff),
            // the last section is the dense run's empty broadcast residual
            ("missing section", |b, _| b.truncate(b.len() - 8)),
            ("surplus section", |b, _| b.extend(0u64.to_le_bytes())),
            ("trailing byte", |b, _| b.push(0)),
            ("non-UTF-8 header", |b, _| b[1] = 0xff),
            ("inline tensor", |b, at| {
                let header = String::from_utf8(b[..at].to_vec()).unwrap();
                let inline = header.replacen("\"global\":[]", "\"global\":[1]", 1);
                b.splice(..at, inline.into_bytes());
            }),
        ];
        for (name, corrupt) in corruptions {
            let mut input = body.clone();
            corrupt(&mut input, first);
            fs::write(&path, &input).unwrap();
            let err = Checkpoint::load(&path).map(|_| ()).unwrap_err();
            assert!(matches!(err, RestoreError::Snapshot(_)), "{name}: {err}");
        }
    }

    #[test]
    fn load_reports_missing_file_and_bad_json_uniformly() {
        let err = Checkpoint::load(Path::new("/nonexistent/fedtrip_ckpt.json")).unwrap_err();
        assert!(matches!(err, RestoreError::Snapshot(_)), "{err}");
        assert!(err.to_string().contains("cannot load checkpoint"), "{err}");

        let path = std::env::temp_dir().join("fedtrip_ckpt_bad_json_test.json");
        fs::write(&path, "{ not json").unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(matches!(err, RestoreError::Snapshot(_)), "{err}");
    }

    #[test]
    fn capture_records_clock_and_scheduler_state() {
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(34), AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        assert_eq!(ckpt.version, CHECKPOINT_VERSION);
        assert!(ckpt.clock > 0.0, "virtual clock should have advanced");
        // flat federation: one edge clock, colocated with the root
        assert_eq!(ckpt.edge_clocks.len(), 1);
        // sync scheduler is stateless
        assert!(ckpt.scheduler.in_flight.is_empty());
    }

    #[test]
    fn capture_carries_one_clock_per_edge() {
        let hyper = HyperParams::default();
        let mut c = cfg(47);
        c.edges = 3;
        let mut sim = Simulation::new(c, AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        assert_eq!(ckpt.edge_clocks.len(), 3);
        // every edge clock sits at or behind the root
        assert!(ckpt.edge_clocks.iter().all(|&t| t <= ckpt.clock));
    }

    #[test]
    fn save_load_round_trip() {
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(32), AlgorithmKind::FedTrip.build(&hyper));
        for _ in 0..2 {
            sim.run_round();
        }
        let ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedTrip, hyper);
        let path = std::env::temp_dir().join("fedtrip_ckpt_test.json");
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.round, 2);
        assert_eq!(loaded.global, ckpt.global);
        assert_eq!(loaded.edge_clocks, ckpt.edge_clocks);
        let mut resumed = loaded.restore().expect("self-consistent checkpoint");
        resumed.run_round();
        assert_eq!(resumed.rounds_done(), 3);
    }

    #[test]
    fn snapshots_are_sparse_in_participants() {
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(40), AlgorithmKind::FedTrip.build(&hyper));
        sim.run_round();
        let ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedTrip, hyper);
        // one round of K=3: at most 3 entries, never one per client
        assert!(!ckpt.states.is_empty());
        assert!(ckpt.states.len() <= 3, "{} entries", ckpt.states.len());
        // ascending client order (deterministic serialization)
        assert!(ckpt.states.windows(2).all(|w| w[0].client < w[1].client));
    }

    #[test]
    fn restore_reports_clean_error_on_config_mismatch() {
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(42), AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let mut ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        // shrink the federation below a recorded participant id: the old
        // engine hard-asserted here; now it must surface a RestoreError
        let max_client = ckpt.states.iter().map(|e| e.client).max().unwrap();
        ckpt.config.n_clients = max_client; // ids are 0-based: now out of range
        ckpt.config.clients_per_round = ckpt.config.clients_per_round.min(max_client);
        let err = ckpt.restore().map(|_| ()).unwrap_err();
        assert!(
            matches!(err, crate::engine::RestoreError::InvalidClientStates(_)),
            "unexpected error: {err}"
        );
        assert!(err.to_string().contains("out of range"), "{err}");

        // records/round mismatch is also a clean error
        let mut ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        ckpt.round = 5;
        let err = ckpt.restore().map(|_| ()).unwrap_err();
        assert!(
            matches!(err, crate::engine::RestoreError::RecordsMismatch { .. }),
            "unexpected error: {err}"
        );

        // edge-clock count diverging from config.edges is a clean error too
        let mut ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        ckpt.edge_clocks.push(0.0);
        let err = ckpt.restore().map(|_| ()).unwrap_err();
        assert!(
            matches!(err, crate::engine::RestoreError::EdgeClocksMismatch { .. }),
            "unexpected error: {err}"
        );
        assert!(err.to_string().contains("edge clocks"), "{err}");
    }

    #[test]
    fn restore_rejects_inconsistent_config_without_panicking() {
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(44), AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let good = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        // each corruption used to hit an assert in Simulation::new or in
        // the first resumed round's optimizer; all must now surface as a
        // clean RestoreError
        type Corrupt = fn(&mut Checkpoint);
        let corruptions: [(&str, Corrupt); 9] = [
            ("K > N", |c| {
                c.config.clients_per_round = c.config.n_clients + 1
            }),
            ("zero rounds", |c| c.config.rounds = 0),
            ("zero eval_every", |c| c.config.eval_every = 0),
            ("sub-unit device_het", |c| c.config.device_het = 0.5),
            ("zero edges", |c| c.config.edges = 0),
            ("zero test_per_class", |c| c.config.test_per_class = 0),
            ("zero batch_size", |c| c.config.batch_size = 0),
            ("zero lr", |c| c.config.lr = 0.0),
            ("unit momentum", |c| c.config.momentum = 1.0),
        ];
        for (name, corrupt) in corruptions {
            let mut ckpt = good.clone();
            corrupt(&mut ckpt);
            let err = ckpt.restore().map(|_| ()).unwrap_err();
            assert!(
                matches!(err, crate::engine::RestoreError::InvalidConfig(_)),
                "{name}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn restore_rejects_out_of_range_scheduler_jobs() {
        let hyper = HyperParams::default();
        let mut c = cfg(43);
        c.mode = crate::runtime::RunMode::SemiAsync;
        c.device_het = 4.0;
        let mut sim = Simulation::new(c, AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let mut ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        assert!(
            !ckpt.scheduler.in_flight.is_empty(),
            "semi-async capture should carry in-flight jobs"
        );
        // shrink the federation below a dispatched client id: must be a
        // clean RestoreError, not a panic rounds after resume
        let max_client = ckpt
            .scheduler
            .in_flight
            .iter()
            .chain(&ckpt.scheduler.buffer)
            .map(|j| j.client)
            .max()
            .unwrap();
        ckpt.config.n_clients = max_client;
        ckpt.config.clients_per_round = ckpt.config.clients_per_round.min(max_client.max(1));
        let err = ckpt.restore().map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("scheduler job"), "{err}");
    }
}
