//! Simulation checkpointing: pause a federated run, serialize everything
//! that defines its future — the [`SimState`] a round mutates plus the
//! method's server-side state — and resume bit-identically later.
//!
//! Because every random stream in the engine is derived from
//! `(seed, domain tags, round, client)` rather than from mutable generator
//! state, a resumed run needs no RNG snapshot: replaying round `t+1` after a
//! restore produces exactly the bytes the uninterrupted run would have.

use crate::algorithms::{Algorithm, AlgorithmKind, ClientState, ClientStateStore, HyperParams};
use crate::engine::{Env, RestoreError, RoundRecord, Simulation, SimulationConfig};
use crate::runtime::{EdgeTier, SchedulerState, UtilityTable};
use serde::{Deserialize, Serialize, Value};
use std::fs;
use std::io;
use std::mem;
use std::path::{Path, PathBuf};

/// The snapshot format version. A file is one line of compact JSON — the
/// [`Checkpoint`] with every f32 tensor emptied — then one raw section per
/// tensor slot in canonical order: a `u64` element count and that many
/// `f32`s, all little-endian. [`Checkpoint::load`] rejects every other
/// version, or none, by name before deserializing the rest.
pub const CHECKPOINT_VERSION: u32 = 9;

/// One sparse client-state entry: the serialized form of a
/// [`ClientStateStore`] is these, in ascending client order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClientEntry {
    /// Client id within the federation.
    pub client: usize,
    /// The client's persistent state.
    pub state: ClientState,
}

/// One utility-table entry: the most recent mean training loss reported by
/// a client, the statistical-utility half of the Oort selection score. The
/// serialized form of a [`UtilityTable`] is these, in ascending client
/// order.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct UtilityEntry {
    /// Client id within the federation.
    pub client: usize,
    /// Last observed mean training loss for that client.
    pub loss: f64,
}

/// Everything a round mutates — the run state of a [`Simulation`], saved
/// whole by a checkpoint. What a run derives from its configuration lives
/// in the [`Env`] instead, and the round counter, cumulative bytes and
/// FLOPs and the root clock are read from the last record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimState {
    /// Global model parameters.
    pub global: Vec<f32>,
    /// Per-client persistent state — sparse: only clients that have
    /// participated carry an entry.
    pub states: ClientStateStore,
    /// Round records so far.
    pub records: Vec<RoundRecord>,
    /// The edge tier's per-edge clocks.
    pub edges: EdgeTier,
    /// Scheduler position: fold counter plus in-flight / buffered jobs
    /// (empty under the synchronous barrier).
    pub scheduler: SchedulerState,
    /// Oort utility table — last observed mean loss per client. The
    /// availability traces need no state: they are pure functions of
    /// `(seed, client, round)`.
    pub utility: UtilityTable,
    /// The clients' reconstructed view of the global model under delta
    /// broadcasts; empty when the downlink is dense. Invariant (pinned by
    /// `tests/downlink.rs`): `broadcast_view + broadcast_residual ==
    /// broadcast_last` after every broadcast.
    pub broadcast_view: Vec<f32>,
    /// Global parameters at the last broadcast — the delta reference;
    /// empty when the downlink is dense.
    pub broadcast_last: Vec<f32>,
    /// Server-side error-feedback residual of the downlink codec:
    /// `e' = (delta + e) - decode(encode(delta + e))`.
    pub broadcast_residual: Option<Vec<f32>>,
    /// Broadcast sync epoch — bumped on every periodic resync; clients
    /// whose [`ClientState::sync_epoch`] lags receive an on-demand dense
    /// base before any delta.
    pub broadcast_epoch: u64,
}

impl SimState {
    /// The state before round 1: the template's parameters as the global
    /// model, no client resident, every clock at zero. Delta broadcasts
    /// start from a shared base — view and reference both equal the initial
    /// global model; dense downlinks never touch either.
    pub fn new(env: &Env) -> SimState {
        let global = env.template.params_flat();
        let base = if env.down_codec.is_identity() {
            Vec::new()
        } else {
            global.clone()
        };
        SimState {
            broadcast_view: base.clone(),
            broadcast_last: base,
            global,
            states: ClientStateStore::new(env.cfg.n_clients),
            records: Vec::new(),
            edges: EdgeTier::new(env.cfg.edges),
            scheduler: SchedulerState::default(),
            utility: UtilityTable::new(),
            broadcast_residual: None,
            broadcast_epoch: 0,
        }
    }

    /// Check that this state fits `env`, and that `server_state` has the
    /// shape `algorithm` (fresh from `on_init`) keeps: every client id in
    /// range, every vector the length the model and the downlink need, one
    /// clock per edge. A snapshot that does not fit — shrunken federation,
    /// another model, hand-edited header — returns a clean
    /// [`RestoreError`] here instead of panicking rounds later.
    pub fn validate(
        &self,
        env: &Env,
        algorithm: &dyn Algorithm,
        server_state: &[Vec<f32>],
    ) -> Result<(), RestoreError> {
        let (n_clients, n_params) = (env.cfg.n_clients, env.n_params());
        let in_range = |what: &str, client: usize| {
            if client < n_clients {
                Ok(())
            } else {
                Err(RestoreError::InvalidClientStates(format!(
                    "{what} {client} out of range for a federation of {n_clients}"
                )))
            }
        };
        let model_sized = |v: &Vec<f32>| {
            if v.len() == n_params {
                Ok(())
            } else {
                Err(RestoreError::GlobalSizeMismatch {
                    snapshot: v.len(),
                    expected: n_params,
                })
            }
        };
        let jobs = &self.scheduler;
        for job in jobs.in_flight.iter().chain(&jobs.buffer) {
            in_range("scheduler job for client", job.client)?;
            for v in std::iter::once(&job.outcome.params).chain(&job.outcome.aux) {
                model_sized(v)?;
            }
        }
        for (client, _) in self.utility.iter() {
            in_range("utility entry for client", client)?;
        }
        let shape = |s: &[Vec<f32>]| s.iter().map(Vec::len).collect::<Vec<_>>();
        let (snapshot, expected) = (shape(server_state), shape(&algorithm.server_state()));
        if snapshot != expected {
            return Err(RestoreError::ServerStateMismatch { snapshot, expected });
        }
        model_sized(&self.global)?;
        for (client, state) in self.states.iter() {
            in_range("client state entry", client)?;
            for (name, v) in [
                ("historical", &state.historical),
                ("correction", &state.correction),
                ("residual", &state.residual),
            ] {
                if let Some(v) = v.as_ref().filter(|v| v.len() != n_params) {
                    return Err(RestoreError::InvalidClientStates(format!(
                        "client {client} {name} holds {} values but the model has {n_params}",
                        v.len()
                    )));
                }
            }
        }
        if self.edges.n_edges() != env.cfg.edges {
            return Err(RestoreError::EdgeClocksMismatch {
                snapshot: self.edges.n_edges(),
                expected: env.cfg.edges,
            });
        }
        let expected = if env.down_codec.is_identity() {
            0
        } else {
            n_params
        };
        for v in [Some(&self.broadcast_view), Some(&self.broadcast_last)]
            .into_iter()
            .chain([self.broadcast_residual.as_ref()])
            .flatten()
        {
            if v.len() != expected {
                return Err(RestoreError::BroadcastMismatch {
                    snapshot: v.len(),
                    expected,
                });
            }
        }
        Ok(())
    }
}

/// Reject an entry list whose client ids are not strictly ascending: the
/// tables serialize that way, so anything else was edited, and a duplicate
/// would silently shadow its twin.
fn ascending<T>(entries: &[T], client: impl Fn(&T) -> usize) -> Result<(), serde::Error> {
    match entries.windows(2).find(|w| client(&w[0]) >= client(&w[1])) {
        Some(w) => Err(serde::Error::new(format!(
            "entry for client {} out of ascending order",
            client(&w[1])
        ))),
        None => Ok(()),
    }
}

impl Serialize for ClientStateStore {
    fn to_value(&self) -> Value {
        let entries: Vec<ClientEntry> = self
            .iter()
            .map(|(client, state)| ClientEntry {
                client,
                state: state.clone(),
            })
            .collect();
        entries.to_value()
    }
}

impl Deserialize for ClientStateStore {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let entries = Vec::<ClientEntry>::from_value(v)?;
        ascending(&entries, |e| e.client)?;
        // unbound until `Checkpoint::restore` binds it to the configured
        // federation
        Ok(entries.into_iter().map(|e| (e.client, e.state)).collect())
    }
}

impl Serialize for UtilityTable {
    fn to_value(&self) -> Value {
        let entries: Vec<UtilityEntry> = self
            .iter()
            .map(|(client, loss)| UtilityEntry { client, loss })
            .collect();
        entries.to_value()
    }
}

impl Deserialize for UtilityTable {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let entries = Vec::<UtilityEntry>::from_value(v)?;
        ascending(&entries, |e| e.client)?;
        Ok(UtilityTable::from_pairs(
            entries.into_iter().map(|e| (e.client, e.loss)),
        ))
    }
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
    /// Server-side algorithm state (momentum buffers etc.), kept by the
    /// method itself.
    pub server_state: Vec<Vec<f32>>,
    /// The run state.
    pub state: SimState,
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
            server_state: sim.algorithm.server_state(),
            state: sim.state.clone(),
        }
    }

    /// Rebuild a simulation that continues exactly where the snapshot
    /// stopped: a fresh [`Simulation`] of the recorded configuration, then
    /// the state moved in once [`SimState::validate`] accepts it. A
    /// snapshot that does not fit its own configuration returns a clean
    /// [`RestoreError`] instead of panicking.
    pub fn restore(&self) -> Result<Simulation, RestoreError> {
        // a corrupted/hand-edited snapshot must not reach Env::new's
        // asserts: re-check its invariants as a clean error first
        self.config
            .validate()
            .and_then(|()| self.algorithm.validate(&self.hyper))
            .map_err(RestoreError::InvalidConfig)?;
        let mut sim = Simulation::new(self.config, self.algorithm.build(&self.hyper));
        self.state
            .validate(&sim.env, sim.algorithm.as_ref(), &self.server_state)?;
        sim.algorithm
            .restore_server_state(self.server_state.clone());
        sim.state = self.state.clone();
        sim.state.states.set_n_clients(self.config.n_clients);
        Ok(sim)
    }

    /// Every f32 tensor slot in canonical order: `global`, each
    /// `server_state` vector, each client's `historical` / `correction` /
    /// `residual` when present, each scheduler job's `params` and `aux`
    /// when present, then the broadcast view, reference and (when present)
    /// residual. [`Checkpoint::save`] writes and [`Checkpoint::load`] reads
    /// the sections in this order.
    fn tensor_slots(&mut self) -> Vec<&mut Vec<f32>> {
        let state = &mut self.state;
        let mut slots = vec![&mut state.global];
        slots.extend(&mut self.server_state);
        for (_, s) in state.states.iter_mut() {
            slots.extend(
                [&mut s.historical, &mut s.correction, &mut s.residual]
                    .into_iter()
                    .flatten(),
            );
        }
        let scheduler = &mut state.scheduler;
        for job in scheduler.in_flight.iter_mut().chain(&mut scheduler.buffer) {
            slots.push(&mut job.outcome.params);
            slots.extend(&mut job.outcome.aux);
        }
        slots.extend([&mut state.broadcast_view, &mut state.broadcast_last]);
        slots.extend(&mut state.broadcast_residual);
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
    fn resume_keeps_participation_counts() {
        // the counts derive from the records, so a resumed run reports the
        // straight run's, folds before the capture included
        let hyper = HyperParams::default();
        let mut c = cfg(58);
        c.selection = crate::runtime::SelectionStrategy::Oort;
        c.churn_join_window = 4;
        c.churn_residency = 8;
        let mut straight = Simulation::new(c, AlgorithmKind::FedTrip.build(&hyper));
        straight.run();
        let mut first = Simulation::new(c, AlgorithmKind::FedTrip.build(&hyper));
        for _ in 0..3 {
            first.run_round();
        }
        let ckpt = Checkpoint::capture(&first, AlgorithmKind::FedTrip, hyper);
        let mut resumed = ckpt.restore().expect("self-consistent checkpoint");
        resumed.run();
        assert_eq!(
            straight.participation_counts(),
            resumed.participation_counts()
        );
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
        let s = &ckpt.state;
        let n = s.global.len();
        assert_eq!(s.broadcast_view.len(), n);
        assert_eq!(s.broadcast_last.len(), n);
        let residual = s.broadcast_residual.as_ref().map(Vec::len);
        assert_eq!(residual, Some(n), "top-k must drop mass");
        assert!(
            s.states.iter().all(|(_, st)| st.sync_epoch == Some(0)),
            "participants must be stamped with the broadcast epoch"
        );
        let restored = ckpt.restore().expect("self-consistent checkpoint");
        let r = restored.state();
        assert_eq!(r.broadcast_view, s.broadcast_view);
        assert_eq!(r.broadcast_last, s.broadcast_last);
        assert_eq!(r.broadcast_residual, s.broadcast_residual);
        assert_eq!(r.broadcast_epoch, s.broadcast_epoch);

        // dense downlink: nothing to carry
        let mut sim = Simulation::new(cfg(57), AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        let s = &ckpt.state;
        assert!(s.broadcast_view.is_empty());
        assert!(s.broadcast_last.is_empty());
        assert!(s.broadcast_residual.is_none());
        assert!(s.states.iter().all(|(_, st)| st.sync_epoch.is_none()));
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
        let utility = &ckpt.state.utility;
        assert!(!utility.is_empty(), "no utility captured");
        // ascending client order (deterministic serialization)
        let entries = Vec::<UtilityEntry>::from_value(&utility.to_value()).unwrap();
        assert!(entries.windows(2).all(|w| w[0].client < w[1].client));
        let restored = ckpt.restore().expect("self-consistent checkpoint");
        let got = restored.utility_table().export();
        assert_eq!(
            got,
            utility.export(),
            "utility table diverged across the round trip"
        );
    }

    #[test]
    fn restore_rejects_out_of_range_utility_entries() {
        let hyper = HyperParams::default();
        let mut c = cfg(53);
        c.selection = crate::runtime::SelectionStrategy::Oort;
        let mut sim = Simulation::new(c, AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let mut ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        ckpt.state.utility.record(ckpt.config.n_clients, 1.0);
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
            ckpt.state.states.iter().any(|(_, s)| s.residual.is_some()),
            "no residual captured"
        );
        let restored = ckpt.restore().expect("self-consistent checkpoint");
        for (client, state) in ckpt.state.states.iter() {
            assert_eq!(
                Some(&state.residual),
                restored.client_states().get(client).map(|s| &s.residual),
                "client {client}"
            );
        }
    }

    #[test]
    fn load_rejects_foreign_format_versions() {
        // the committed current-version snapshot (see tests/snapshots.rs)
        // with its header patched: every other version, or none, is
        // rejected by name before any field is looked at
        let committed = fs::read(format!(
            "{}/tests/snapshot_v{CHECKPOINT_VERSION}_fedtrip.ckpt",
            env!("CARGO_MANIFEST_DIR")
        ))
        .expect("committed snapshot");
        let nl = committed.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&committed[..nl]).unwrap();
        let current = format!("{{\"version\":{CHECKPOINT_VERSION},");
        let path = std::env::temp_dir().join("fedtrip_ckpt_foreign_version_test.ckpt");
        let load_patched = |from: &str, to: &str| {
            let patched = header.replacen(from, to, 1);
            assert_ne!(patched, header, "{from} not in the header");
            fs::write(&path, [patched.as_bytes(), &committed[nl..]].concat()).unwrap();
            let err = Checkpoint::load(&path).map(|_| ()).unwrap_err();
            assert!(matches!(err, RestoreError::Snapshot(_)), "{to}: {err}");
            err.to_string()
        };
        for version in ["3", "4", "5", "6", "7", "8", "10", "<missing>"] {
            let to = match version {
                "<missing>" => "{".to_string(),
                v => format!("{{\"version\":{v},"),
            };
            let err = load_patched(&current, &to);
            let want = format!("version {version} unsupported (expected {CHECKPOINT_VERSION})");
            assert!(err.contains(&want), "{version}: {err}");
        }

        // the right version with a required field deleted
        let err = load_patched("\"algorithm\":\"FedTrip\",", "");
        let want = format!("snapshot does not fit the v{CHECKPOINT_VERSION} layout");
        assert!(err.contains(&want), "{err}");
    }

    #[test]
    fn restore_rejects_bad_hyper_and_partition_without_panicking() {
        // the committed snapshot with a header value patched that
        // AlgorithmKind::build or Partition::build would assert on
        let committed = fs::read(format!(
            "{}/tests/snapshot_v{CHECKPOINT_VERSION}_fedtrip.ckpt",
            env!("CARGO_MANIFEST_DIR")
        ))
        .expect("committed snapshot");
        let nl = committed.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&committed[..nl]).unwrap();
        let path = std::env::temp_dir().join("fedtrip_ckpt_invalid_config_test.ckpt");
        for (from, to, want) in [
            (
                "\"fedtrip_mu\":0.4000000059604645",
                "\"fedtrip_mu\":-1.0",
                "FedTrip mu must be non-negative",
            ),
            (
                "{\"Dirichlet\":0.5}",
                "{\"Dirichlet\":0}",
                "Dirichlet alpha must be positive",
            ),
        ] {
            let patched = header.replacen(from, to, 1);
            assert_ne!(patched, header, "{from} not in the header");
            fs::write(&path, [patched.as_bytes(), &committed[nl..]].concat()).unwrap();
            let ckpt = Checkpoint::load(&path).expect("patched snapshot loads");
            let err = ckpt.restore().map(|_| ()).unwrap_err();
            assert!(matches!(err, RestoreError::InvalidConfig(_)), "{to}: {err}");
            assert!(err.to_string().contains(want), "{to}: {err}");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn restore_rejects_client_vectors_of_the_wrong_length() {
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(60), AlgorithmKind::FedTrip.build(&hyper));
        sim.run_round();
        let mut ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedTrip, hyper);
        let (_, first) = ckpt.state.states.iter_mut().next().unwrap();
        let hist = first.historical.as_mut().expect("FedTrip keeps w̃_k");
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
                plant(&mut ckpt.state.global);
                let (_, first) = ckpt.state.states.iter_mut().next().unwrap();
                plant(first.historical.as_mut().unwrap());
                plant(ckpt.state.broadcast_residual.as_mut().unwrap());
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
        assert_eq!(previous.state.records.len(), 1);
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
            // the last section is the dense run's empty broadcast reference
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
        let clock = ckpt.state.records[0].virtual_time;
        assert!(clock > 0.0, "virtual clock should have advanced");
        // flat federation: one edge clock, colocated with the root
        assert_eq!(ckpt.state.edges.n_edges(), 1);
        // sync scheduler is stateless
        assert!(ckpt.state.scheduler.in_flight.is_empty());
    }

    #[test]
    fn capture_carries_one_clock_per_edge() {
        let hyper = HyperParams::default();
        let mut c = cfg(47);
        c.edges = 3;
        let mut sim = Simulation::new(c, AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        let clocks = ckpt.state.edges.clocks();
        assert_eq!(clocks.len(), 3);
        // every edge clock sits at or behind the root
        assert!(clocks.iter().all(|c| c.now() <= sim.virtual_time()));
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
        assert_eq!(loaded.state.records.len(), 2);
        assert_eq!(loaded.state.global, ckpt.state.global);
        assert_eq!(loaded.state.edges.clocks(), ckpt.state.edges.clocks());
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
        let entries = Vec::<ClientEntry>::from_value(&ckpt.state.states.to_value()).unwrap();
        assert!(!entries.is_empty());
        assert!(entries.len() <= 3, "{} entries", entries.len());
        // ascending client order (deterministic serialization)
        assert!(entries.windows(2).all(|w| w[0].client < w[1].client));
    }

    #[test]
    fn restore_reports_clean_error_on_config_mismatch() {
        use crate::compression::CompressionKind;
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(42), AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let good = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        type Corrupt = fn(&mut Checkpoint);
        type Expect = fn(&RestoreError) -> bool;
        let cases: [(&str, Corrupt, Expect); 4] = [
            // shrink the federation below a recorded participant id: the
            // old engine hard-asserted here; now it must surface a
            // RestoreError
            (
                "shrunken federation",
                |c| {
                    let max_client = c.state.states.iter().map(|(id, _)| id).max().unwrap();
                    c.config.n_clients = max_client; // ids are 0-based: now out of range
                    c.config.clients_per_round = c.config.clients_per_round.min(max_client);
                },
                |e| matches!(e, RestoreError::InvalidClientStates(m) if m.contains("out of range")),
            ),
            // an edge-clock count diverging from config.edges
            (
                "extra edge clock",
                |c| c.state.edges = EdgeTier::new(2),
                |e| {
                    matches!(e, RestoreError::EdgeClocksMismatch { .. })
                        && e.to_string().contains("edge clocks")
                },
            ),
            // a dense downlink carries no broadcast vectors...
            (
                "view under a dense downlink",
                |c| c.state.broadcast_view = c.state.global.clone(),
                |e| matches!(e, RestoreError::BroadcastMismatch { .. }),
            ),
            // ...and a delta downlink is not silently re-anchored
            (
                "delta downlink without a view",
                |c| c.config.downlink_compression = CompressionKind::Q8,
                |e| matches!(e, RestoreError::BroadcastMismatch { .. }),
            ),
        ];
        for (name, corrupt, expect) in cases {
            let mut ckpt = good.clone();
            corrupt(&mut ckpt);
            let err = ckpt.restore().map(|_| ()).unwrap_err();
            assert!(expect(&err), "{name}: unexpected error {err}");
        }
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
        let jobs = &ckpt.state.scheduler;
        assert!(
            !jobs.in_flight.is_empty(),
            "semi-async capture should carry in-flight jobs"
        );
        // shrink the federation below a dispatched client id: must be a
        // clean RestoreError, not a panic rounds after resume
        let max_client = jobs
            .in_flight
            .iter()
            .chain(&jobs.buffer)
            .map(|j| j.client)
            .max()
            .unwrap();
        ckpt.config.n_clients = max_client;
        ckpt.config.clients_per_round = ckpt.config.clients_per_round.min(max_client.max(1));
        let err = ckpt.restore().map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("scheduler job"), "{err}");
    }
}
