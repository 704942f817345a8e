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
use std::path::Path;

/// The snapshot format version. A v7 snapshot carries the configuration
/// (including the edge tier, availability/churn/deadline and downlink
/// codec/resync knobs), the global model, sparse per-client states (with
/// each client's error-feedback residual and broadcast sync epoch), the
/// server-side algorithm state, the round records, the root and per-edge
/// virtual clocks, the scheduler's in-flight/buffered jobs, the Oort
/// utility table and the server's downlink broadcast state. No RNG or
/// availability cursor is stored: every random stream and every trace is a
/// pure function of `(seed, tags, round, client)`.
///
/// Every other version, and a file without a `version` field, is rejected
/// by [`Checkpoint::load`]; the version is checked *before* full
/// deserialization, so a foreign snapshot reports its version instead of a
/// confusing missing-field error.
pub const CHECKPOINT_VERSION: u32 = 7;

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

    /// Write the snapshot as JSON.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let json = serde_json::to_string(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        fs::write(path, json)
    }

    /// Read a snapshot back.
    ///
    /// Every failure — unreadable file, malformed JSON, a `version` other
    /// than [`CHECKPOINT_VERSION`] (or none at all), fields that do not
    /// deserialize — surfaces as [`RestoreError::Snapshot`], so callers
    /// report `--resume` problems through one uniform
    /// [`std::fmt::Display`] path.
    pub fn load(path: &Path) -> Result<Checkpoint, RestoreError> {
        let body = fs::read_to_string(path)
            .map_err(|e| snapshot_err(&format!("cannot read {}", path.display()), e))?;
        // check the version off the raw JSON first: a snapshot from another
        // format version should report that version, not whatever
        // missing-field error full deserialization happens to hit first
        let value: serde_json::Value =
            serde_json::from_str(&body).map_err(|e| snapshot_err("malformed snapshot JSON", e))?;
        let version = value.get("version").and_then(|v| v.as_u64());
        if version != Some(u64::from(CHECKPOINT_VERSION)) {
            return Err(RestoreError::Snapshot(format!(
                "checkpoint format version {} unsupported (expected {CHECKPOINT_VERSION})",
                version.map_or_else(|| "<missing>".into(), |v| v.to_string()),
            )));
        }
        serde::Deserialize::from_value(&value).map_err(|e| {
            snapshot_err(
                &format!("snapshot does not fit the v{CHECKPOINT_VERSION} layout"),
                e,
            )
        })
    }
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
            ("8", r#"{"version": 8}"#),
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
        // the smallest model and cohort that still carry every vector kind:
        // each input is parsed in full, so snapshot size is the test's cost
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
        let ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedTrip, hyper);
        let body = serde_json::to_string(&ckpt).unwrap().into_bytes();

        // 64 evenly spaced truncations, then seeded single-byte mutations:
        // half anywhere (mostly inside the model-sized vectors), half in
        // the scalar fields — numbers right after a `:`, i.e. the config,
        // hyper-parameters, counters and clocks most likely to break an
        // invariant the resumed round relies on
        let mut inputs: Vec<Vec<u8>> = (0..64)
            .map(|i| body[..body.len() * i / 64].to_vec())
            .collect();
        let is_num = |b: u8| b.is_ascii_digit() || b"-.eE+".contains(&b);
        let scalars: Vec<usize> = (1..body.len())
            .filter(|&i| {
                let start = (0..=i).rev().find(|&j| !is_num(body[j])).unwrap_or(0);
                is_num(body[i]) && body[start] == b':'
            })
            .collect();
        const ALPHABET: &[u8] = b"0123456789-.e\",:[]{}n ";
        let mut rng = Prng::seed_from_u64(2023);
        for k in 0..200 {
            let at = if k % 2 == 0 {
                rng.below(body.len())
            } else {
                scalars[rng.below(scalars.len())]
            };
            let mut mutated = body.clone();
            mutated[at] = ALPHABET[rng.below(ALPHABET.len())];
            inputs.push(mutated);
        }

        let path = std::env::temp_dir().join("fedtrip_ckpt_fuzz_test.json");
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
