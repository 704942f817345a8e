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

/// Current snapshot format version. Bumped to 2 when the runtime split
/// added the virtual clock and scheduler (in-flight/buffer) state, to 3
/// when the compression subsystem added the codec/error-feedback config
/// fields and per-client error-feedback residuals, to 4 when client
/// states went **sparse** (a v4 snapshot stores `(client, state)` entries
/// only for clients that have participated), to 5 when the hierarchical
/// aggregation tier added the `edges` configuration knob and the per-edge
/// clock vector, to 6 when the availability layer added the
/// availability/churn/deadline configuration knobs and the server-side
/// utility table that utility-aware (Oort) selection scores from, and to
/// 7 when the downlink went compressible: the configuration gained the
/// `downlink_compression`/`resync_interval` knobs, round records gained
/// the downlink byte/ratio columns, client states gained the broadcast
/// sync epoch, scheduler jobs gained the dense-downlink bit, and the
/// snapshot gained the server's broadcast state (clients' reconstructed
/// view, the delta reference, the downlink error-feedback residual, and
/// the sync epoch). v6 snapshots migrate as the dense-downlink federation
/// they were (downlink codec off, sync epochs absent, empty broadcast
/// vectors, downlink byte columns derived from the cumulative totals they
/// already recorded) — dense downlink takes the exact legacy engine path,
/// so a migrated resume stays bit-identical (pinned by a test). v5
/// snapshots migrate as the always-on federation they were (availability
/// knobs zeroed, empty utility table); because the always-on model with a
/// non-Oort strategy takes the exact legacy selection path — and v5
/// predates the Oort variant — a migrated resume stays bit-identical
/// (pinned by a test). No availability *cursor* is stored beyond the
/// round counter: traces are pure functions of `(seed, client, round)`.
/// v4 snapshots migrate as the single-edge federation they were
/// (`edges = 1`, one edge clock colocated with the root), which is
/// behavior-preserving — the flat fold *is* the one-edge tree — so a
/// migrated resume stays bit-identical (pinned by a test).
/// v3 snapshots (dense state vectors) chain through the v4 migration:
/// dense entries indistinguishable from "never participated" are dropped,
/// which keeps a migrated *synchronous* resume bit-identical. A semi-async
/// v3 resume is faithful to *this* engine but not to the pre-v4 binary
/// that wrote it: the semi-async redispatch selection changed from
/// pool-materializing `select_among` to the O(K) `select_idle` in the
/// population-scale rework, so dispatches from the resume point follow the
/// new stream. Older versions predate fields that cannot be
/// reconstructed, so [`Checkpoint::load`] rejects them with a clear error
/// (the version is checked *before* full deserialization, so a foreign
/// snapshot reports its version instead of a confusing missing-field
/// error).
pub const CHECKPOINT_VERSION: u32 = 7;

/// One sparse client-state entry of a v4+ snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClientEntry {
    /// Client id within the federation.
    pub client: usize,
    /// The client's persistent state.
    pub state: ClientState,
}

/// One utility-table entry of a v6+ snapshot: the most recent mean
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

/// The pre-hierarchical-tier configuration layout (no `edges` field),
/// kept for v3/v4 snapshot migration. `Serialize` stays derived so tests
/// can author legacy fixtures.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
#[doc(hidden)]
#[allow(missing_docs)]
pub struct SimulationConfigV4 {
    pub dataset: fedtrip_data::synth::DatasetKind,
    pub model: fedtrip_models::ModelKind,
    pub heterogeneity: fedtrip_data::partition::HeterogeneityKind,
    pub n_clients: usize,
    pub clients_per_round: usize,
    pub rounds: usize,
    pub local_epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    pub momentum: f32,
    pub seed: u64,
    pub test_per_class: usize,
    pub client_samples_override: Option<usize>,
    pub eval_every: usize,
    pub selection: crate::runtime::SelectionStrategy,
    pub failure_prob: f32,
    pub lr_schedule: fedtrip_tensor::optim::LrSchedule,
    pub mode: crate::runtime::RunMode,
    pub device_het: f32,
    pub async_buffer: usize,
    pub staleness_exponent: f32,
    pub compression: crate::compression::CompressionKind,
    pub error_feedback: bool,
}

impl From<SimulationConfigV4> for SimulationConfigV5 {
    /// A pre-hierarchical configuration is the flat single-edge federation.
    fn from(v4: SimulationConfigV4) -> SimulationConfigV5 {
        SimulationConfigV5 {
            dataset: v4.dataset,
            model: v4.model,
            heterogeneity: v4.heterogeneity,
            n_clients: v4.n_clients,
            clients_per_round: v4.clients_per_round,
            rounds: v4.rounds,
            local_epochs: v4.local_epochs,
            batch_size: v4.batch_size,
            lr: v4.lr,
            momentum: v4.momentum,
            seed: v4.seed,
            test_per_class: v4.test_per_class,
            client_samples_override: v4.client_samples_override,
            eval_every: v4.eval_every,
            selection: v4.selection,
            failure_prob: v4.failure_prob,
            lr_schedule: v4.lr_schedule,
            mode: v4.mode,
            device_het: v4.device_het,
            async_buffer: v4.async_buffer,
            staleness_exponent: v4.staleness_exponent,
            compression: v4.compression,
            error_feedback: v4.error_feedback,
            edges: 1,
        }
    }
}

impl From<SimulationConfig> for SimulationConfigV4 {
    /// Project a current configuration onto the v3/v4 layout (drops the
    /// `edges` field and the availability/churn/deadline knobs) — used by
    /// tests that author legacy fixtures.
    fn from(cfg: SimulationConfig) -> SimulationConfigV4 {
        SimulationConfigV4 {
            dataset: cfg.dataset,
            model: cfg.model,
            heterogeneity: cfg.heterogeneity,
            n_clients: cfg.n_clients,
            clients_per_round: cfg.clients_per_round,
            rounds: cfg.rounds,
            local_epochs: cfg.local_epochs,
            batch_size: cfg.batch_size,
            lr: cfg.lr,
            momentum: cfg.momentum,
            seed: cfg.seed,
            test_per_class: cfg.test_per_class,
            client_samples_override: cfg.client_samples_override,
            eval_every: cfg.eval_every,
            selection: cfg.selection,
            failure_prob: cfg.failure_prob,
            lr_schedule: cfg.lr_schedule,
            mode: cfg.mode,
            device_het: cfg.device_het,
            async_buffer: cfg.async_buffer,
            staleness_exponent: cfg.staleness_exponent,
            compression: cfg.compression,
            error_feedback: cfg.error_feedback,
        }
    }
}

/// The pre-availability-layer configuration layout (has `edges`, lacks
/// the availability/churn/deadline knobs), kept for v5 snapshot
/// migration. `Serialize` stays derived so tests can author legacy
/// fixtures.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
#[doc(hidden)]
#[allow(missing_docs)]
pub struct SimulationConfigV5 {
    pub dataset: fedtrip_data::synth::DatasetKind,
    pub model: fedtrip_models::ModelKind,
    pub heterogeneity: fedtrip_data::partition::HeterogeneityKind,
    pub n_clients: usize,
    pub clients_per_round: usize,
    pub rounds: usize,
    pub local_epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    pub momentum: f32,
    pub seed: u64,
    pub test_per_class: usize,
    pub client_samples_override: Option<usize>,
    pub eval_every: usize,
    pub selection: crate::runtime::SelectionStrategy,
    pub failure_prob: f32,
    pub lr_schedule: fedtrip_tensor::optim::LrSchedule,
    pub mode: crate::runtime::RunMode,
    pub device_het: f32,
    pub async_buffer: usize,
    pub staleness_exponent: f32,
    pub compression: crate::compression::CompressionKind,
    pub error_feedback: bool,
    pub edges: usize,
}

impl From<SimulationConfigV5> for SimulationConfigV6 {
    /// A legacy configuration describes an always-on federation: no
    /// diurnal cycle (`availability_period = 0`), no churn, no deadline.
    fn from(v5: SimulationConfigV5) -> SimulationConfigV6 {
        SimulationConfigV6 {
            dataset: v5.dataset,
            model: v5.model,
            heterogeneity: v5.heterogeneity,
            n_clients: v5.n_clients,
            clients_per_round: v5.clients_per_round,
            rounds: v5.rounds,
            local_epochs: v5.local_epochs,
            batch_size: v5.batch_size,
            lr: v5.lr,
            momentum: v5.momentum,
            seed: v5.seed,
            test_per_class: v5.test_per_class,
            client_samples_override: v5.client_samples_override,
            eval_every: v5.eval_every,
            selection: v5.selection,
            failure_prob: v5.failure_prob,
            lr_schedule: v5.lr_schedule,
            mode: v5.mode,
            device_het: v5.device_het,
            async_buffer: v5.async_buffer,
            staleness_exponent: v5.staleness_exponent,
            compression: v5.compression,
            error_feedback: v5.error_feedback,
            edges: v5.edges,
            availability_period: 0,
            availability_on_fraction: 0.5,
            churn_join_window: 0,
            churn_residency: 0,
            deadline_secs: 0.0,
        }
    }
}

impl From<SimulationConfig> for SimulationConfigV5 {
    /// Project a current configuration onto the v5 layout (drops the
    /// availability/churn/deadline knobs) — used by tests that author
    /// legacy fixtures.
    fn from(cfg: SimulationConfig) -> SimulationConfigV5 {
        SimulationConfigV5 {
            dataset: cfg.dataset,
            model: cfg.model,
            heterogeneity: cfg.heterogeneity,
            n_clients: cfg.n_clients,
            clients_per_round: cfg.clients_per_round,
            rounds: cfg.rounds,
            local_epochs: cfg.local_epochs,
            batch_size: cfg.batch_size,
            lr: cfg.lr,
            momentum: cfg.momentum,
            seed: cfg.seed,
            test_per_class: cfg.test_per_class,
            client_samples_override: cfg.client_samples_override,
            eval_every: cfg.eval_every,
            selection: cfg.selection,
            failure_prob: cfg.failure_prob,
            lr_schedule: cfg.lr_schedule,
            mode: cfg.mode,
            device_het: cfg.device_het,
            async_buffer: cfg.async_buffer,
            staleness_exponent: cfg.staleness_exponent,
            compression: cfg.compression,
            error_feedback: cfg.error_feedback,
            edges: cfg.edges,
        }
    }
}

/// The pre-downlink-compression configuration layout (has the
/// availability knobs, lacks `downlink_compression`/`resync_interval`),
/// kept for v6 snapshot migration. `Serialize` stays derived so tests can
/// author legacy fixtures.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
#[doc(hidden)]
#[allow(missing_docs)]
pub struct SimulationConfigV6 {
    pub dataset: fedtrip_data::synth::DatasetKind,
    pub model: fedtrip_models::ModelKind,
    pub heterogeneity: fedtrip_data::partition::HeterogeneityKind,
    pub n_clients: usize,
    pub clients_per_round: usize,
    pub rounds: usize,
    pub local_epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    pub momentum: f32,
    pub seed: u64,
    pub test_per_class: usize,
    pub client_samples_override: Option<usize>,
    pub eval_every: usize,
    pub selection: crate::runtime::SelectionStrategy,
    pub failure_prob: f32,
    pub lr_schedule: fedtrip_tensor::optim::LrSchedule,
    pub mode: crate::runtime::RunMode,
    pub device_het: f32,
    pub async_buffer: usize,
    pub staleness_exponent: f32,
    pub compression: crate::compression::CompressionKind,
    pub error_feedback: bool,
    pub edges: usize,
    pub availability_period: usize,
    pub availability_on_fraction: f32,
    pub churn_join_window: usize,
    pub churn_residency: usize,
    pub deadline_secs: f32,
}

impl From<SimulationConfigV6> for SimulationConfig {
    /// A legacy configuration broadcast the dense full model every round:
    /// downlink codec off, no resync cadence.
    fn from(v6: SimulationConfigV6) -> SimulationConfig {
        SimulationConfig {
            dataset: v6.dataset,
            model: v6.model,
            heterogeneity: v6.heterogeneity,
            n_clients: v6.n_clients,
            clients_per_round: v6.clients_per_round,
            rounds: v6.rounds,
            local_epochs: v6.local_epochs,
            batch_size: v6.batch_size,
            lr: v6.lr,
            momentum: v6.momentum,
            seed: v6.seed,
            test_per_class: v6.test_per_class,
            client_samples_override: v6.client_samples_override,
            eval_every: v6.eval_every,
            selection: v6.selection,
            failure_prob: v6.failure_prob,
            lr_schedule: v6.lr_schedule,
            mode: v6.mode,
            device_het: v6.device_het,
            async_buffer: v6.async_buffer,
            staleness_exponent: v6.staleness_exponent,
            compression: v6.compression,
            error_feedback: v6.error_feedback,
            edges: v6.edges,
            availability_period: v6.availability_period,
            availability_on_fraction: v6.availability_on_fraction,
            churn_join_window: v6.churn_join_window,
            churn_residency: v6.churn_residency,
            deadline_secs: v6.deadline_secs,
            downlink_compression: crate::compression::CompressionKind::None,
            resync_interval: 0,
        }
    }
}

impl From<SimulationConfig> for SimulationConfigV6 {
    /// Project a current configuration onto the v6 layout (drops the
    /// downlink codec and resync knobs) — used by tests that author legacy
    /// fixtures.
    fn from(cfg: SimulationConfig) -> SimulationConfigV6 {
        SimulationConfigV6 {
            dataset: cfg.dataset,
            model: cfg.model,
            heterogeneity: cfg.heterogeneity,
            n_clients: cfg.n_clients,
            clients_per_round: cfg.clients_per_round,
            rounds: cfg.rounds,
            local_epochs: cfg.local_epochs,
            batch_size: cfg.batch_size,
            lr: cfg.lr,
            momentum: cfg.momentum,
            seed: cfg.seed,
            test_per_class: cfg.test_per_class,
            client_samples_override: cfg.client_samples_override,
            eval_every: cfg.eval_every,
            selection: cfg.selection,
            failure_prob: cfg.failure_prob,
            lr_schedule: cfg.lr_schedule,
            mode: cfg.mode,
            device_het: cfg.device_het,
            async_buffer: cfg.async_buffer,
            staleness_exponent: cfg.staleness_exponent,
            compression: cfg.compression,
            error_feedback: cfg.error_feedback,
            edges: cfg.edges,
            availability_period: cfg.availability_period,
            availability_on_fraction: cfg.availability_on_fraction,
            churn_join_window: cfg.churn_join_window,
            churn_residency: cfg.churn_residency,
            deadline_secs: cfg.deadline_secs,
        }
    }
}

/// The pre-v7 per-client state layout (no broadcast sync epoch), kept for
/// v3–v6 snapshot migration. `Serialize` stays derived so tests can author
/// legacy fixtures.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[doc(hidden)]
#[allow(missing_docs)]
pub struct ClientStateV6 {
    pub last_round: Option<usize>,
    pub historical: Option<Vec<f32>>,
    pub correction: Option<Vec<f32>>,
    pub residual: Option<Vec<f32>>,
}

impl ClientStateV6 {
    /// The v3-era vacancy rule (no sync epoch to check).
    fn is_vacant(&self) -> bool {
        self.last_round.is_none()
            && self.historical.is_none()
            && self.correction.is_none()
            && self.residual.is_none()
    }
}

impl From<ClientStateV6> for ClientState {
    /// Legacy clients never saw a delta downlink: no sync epoch.
    fn from(s: ClientStateV6) -> ClientState {
        ClientState {
            last_round: s.last_round,
            historical: s.historical,
            correction: s.correction,
            residual: s.residual,
            sync_epoch: None,
        }
    }
}

impl From<ClientState> for ClientStateV6 {
    /// Project a current state onto the v6 layout (drops the sync epoch)
    /// — used by tests that author legacy fixtures.
    fn from(s: ClientState) -> ClientStateV6 {
        ClientStateV6 {
            last_round: s.last_round,
            historical: s.historical,
            correction: s.correction,
            residual: s.residual,
        }
    }
}

/// One sparse client-state entry of a v4–v6 snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[doc(hidden)]
#[allow(missing_docs)]
pub struct ClientEntryV6 {
    pub client: usize,
    pub state: ClientStateV6,
}

impl From<ClientEntryV6> for ClientEntry {
    fn from(e: ClientEntryV6) -> ClientEntry {
        ClientEntry {
            client: e.client,
            state: e.state.into(),
        }
    }
}

impl From<ClientEntry> for ClientEntryV6 {
    fn from(e: ClientEntry) -> ClientEntryV6 {
        ClientEntryV6 {
            client: e.client,
            state: e.state.into(),
        }
    }
}

/// The pre-v7 round-record layout (no downlink byte/ratio columns), kept
/// for v3–v6 snapshot migration. `Serialize` stays derived so tests can
/// author legacy fixtures.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[doc(hidden)]
#[allow(missing_docs)]
pub struct RoundRecordV6 {
    pub round: usize,
    pub accuracy: Option<f64>,
    pub mean_loss: f64,
    pub cum_comm_bytes: f64,
    pub cum_flops: f64,
    pub selected: Vec<usize>,
    pub virtual_time: f64,
    pub mean_staleness: f64,
    pub comm_bytes_up: f64,
    pub compression_ratio: f64,
}

impl From<RoundRecord> for RoundRecordV6 {
    /// Project a current record onto the v6 layout (drops the downlink
    /// columns) — used by tests that author legacy fixtures.
    fn from(r: RoundRecord) -> RoundRecordV6 {
        RoundRecordV6 {
            round: r.round,
            accuracy: r.accuracy,
            mean_loss: r.mean_loss,
            cum_comm_bytes: r.cum_comm_bytes,
            cum_flops: r.cum_flops,
            selected: r.selected,
            virtual_time: r.virtual_time,
            mean_staleness: r.mean_staleness,
            comm_bytes_up: r.comm_bytes_up,
            compression_ratio: r.compression_ratio,
        }
    }
}

/// Migrate legacy records: a pre-v7 round's downlink bytes are exactly
/// what its cumulative totals already accounted for —
/// `cum_comm_bytes(t) − cum_comm_bytes(t−1) − comm_bytes_up(t)` (legacy
/// downlinks were always dense, so the per-round split is recoverable) —
/// and the downlink ratio is 1.0 by definition.
fn migrate_records(records: Vec<RoundRecordV6>) -> Vec<RoundRecord> {
    let mut prev_cum = 0.0f64;
    records
        .into_iter()
        .map(|r| {
            let comm_bytes_down = (r.cum_comm_bytes - prev_cum - r.comm_bytes_up).max(0.0);
            prev_cum = r.cum_comm_bytes;
            RoundRecord {
                round: r.round,
                accuracy: r.accuracy,
                mean_loss: r.mean_loss,
                cum_comm_bytes: r.cum_comm_bytes,
                cum_flops: r.cum_flops,
                selected: r.selected,
                virtual_time: r.virtual_time,
                mean_staleness: r.mean_staleness,
                comm_bytes_up: r.comm_bytes_up,
                compression_ratio: r.compression_ratio,
                comm_bytes_down,
                compression_ratio_down: 1.0,
            }
        })
        .collect()
}

/// The pre-v7 scheduler job layout: its embedded outcome lacks the
/// dense-downlink bit. Kept for v3–v6 snapshot migration.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[doc(hidden)]
#[allow(missing_docs)]
pub struct LocalOutcomeV6 {
    pub params: Vec<f32>,
    pub n_samples: usize,
    pub mean_loss: f64,
    pub iterations: usize,
    pub train_flops: f64,
    pub aux: Option<Vec<f32>>,
    pub staleness: usize,
    pub agg_weight: f64,
}

impl From<LocalOutcomeV6> for crate::algorithms::LocalOutcome {
    /// Legacy outcomes were dispatched under a dense downlink.
    fn from(o: LocalOutcomeV6) -> crate::algorithms::LocalOutcome {
        crate::algorithms::LocalOutcome {
            params: o.params,
            n_samples: o.n_samples,
            mean_loss: o.mean_loss,
            iterations: o.iterations,
            train_flops: o.train_flops,
            aux: o.aux,
            staleness: o.staleness,
            agg_weight: o.agg_weight,
            dense_down: true,
        }
    }
}

impl From<crate::algorithms::LocalOutcome> for LocalOutcomeV6 {
    /// Project a current outcome onto the v6 layout — used by tests that
    /// author legacy fixtures.
    fn from(o: crate::algorithms::LocalOutcome) -> LocalOutcomeV6 {
        LocalOutcomeV6 {
            params: o.params,
            n_samples: o.n_samples,
            mean_loss: o.mean_loss,
            iterations: o.iterations,
            train_flops: o.train_flops,
            aux: o.aux,
            staleness: o.staleness,
            agg_weight: o.agg_weight,
        }
    }
}

/// One dispatched client of a pre-v7 snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[doc(hidden)]
#[allow(missing_docs)]
pub struct JobV6 {
    pub client: usize,
    pub dispatch_version: usize,
    pub finish: f64,
    pub outcome: LocalOutcomeV6,
}

impl From<JobV6> for crate::runtime::scheduler::Job {
    fn from(j: JobV6) -> crate::runtime::scheduler::Job {
        crate::runtime::scheduler::Job {
            client: j.client,
            dispatch_version: j.dispatch_version,
            finish: j.finish,
            outcome: j.outcome.into(),
        }
    }
}

impl From<crate::runtime::scheduler::Job> for JobV6 {
    fn from(j: crate::runtime::scheduler::Job) -> JobV6 {
        JobV6 {
            client: j.client,
            dispatch_version: j.dispatch_version,
            finish: j.finish,
            outcome: j.outcome.into(),
        }
    }
}

/// The pre-v7 scheduler-state layout. Kept for v3–v6 snapshot migration.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[doc(hidden)]
#[allow(missing_docs)]
pub struct SchedulerStateV6 {
    pub version: usize,
    pub in_flight: Vec<JobV6>,
    pub buffer: Vec<JobV6>,
}

impl From<SchedulerStateV6> for SchedulerState {
    fn from(s: SchedulerStateV6) -> SchedulerState {
        SchedulerState {
            version: s.version,
            in_flight: s.in_flight.into_iter().map(Into::into).collect(),
            buffer: s.buffer.into_iter().map(Into::into).collect(),
        }
    }
}

impl From<SchedulerState> for SchedulerStateV6 {
    fn from(s: SchedulerState) -> SchedulerStateV6 {
        SchedulerStateV6 {
            version: s.version,
            in_flight: s.in_flight.into_iter().map(Into::into).collect(),
            buffer: s.buffer.into_iter().map(Into::into).collect(),
        }
    }
}

/// The v4 snapshot layout (sparse client states, but no edge tier), kept
/// for migration. `Serialize` stays derived so tests can author v4
/// fixtures.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[doc(hidden)]
pub struct CheckpointV4 {
    /// Snapshot format version (always 4).
    pub version: u32,
    /// Engine configuration (legacy layout, no `edges`).
    pub config: SimulationConfigV4,
    /// Which method was running.
    pub algorithm: AlgorithmKind,
    /// Its hyper-parameters.
    pub hyper: HyperParams,
    /// Rounds completed.
    pub round: usize,
    /// Global model parameters.
    pub global: Vec<f32>,
    /// Sparse per-client state (legacy layout, no sync epoch).
    pub states: Vec<ClientEntryV6>,
    /// Server-side algorithm state.
    pub server_state: Vec<Vec<f32>>,
    /// Round records so far (legacy layout, no downlink columns).
    pub records: Vec<RoundRecordV6>,
    /// Virtual-clock instant at capture.
    pub clock: f64,
    /// Scheduler position (legacy layout).
    pub scheduler: SchedulerStateV6,
}

impl CheckpointV4 {
    /// Migrate a v4 snapshot to the v5 layout: the federation it describes
    /// had no edge tier, which in v5 terms is `edges = 1` with the single
    /// edge clock colocated with the root. The one-edge tree performs the
    /// exact fold the flat engine did, so a migrated resume is
    /// bit-identical (pinned by a test). Chain a further `.migrate()` to
    /// reach the current layout.
    pub fn migrate(self) -> CheckpointV5 {
        CheckpointV5 {
            version: 5,
            config: self.config.into(),
            algorithm: self.algorithm,
            hyper: self.hyper,
            round: self.round,
            global: self.global,
            states: self.states,
            server_state: self.server_state,
            records: self.records,
            clock: self.clock,
            edge_clocks: vec![self.clock],
            scheduler: self.scheduler,
        }
    }
}

/// The v5 snapshot layout (edge tier, but no availability layer), kept
/// for migration. `Serialize` stays derived so tests can author v5
/// fixtures.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[doc(hidden)]
pub struct CheckpointV5 {
    /// Snapshot format version (always 5).
    pub version: u32,
    /// Engine configuration (legacy layout, no availability knobs).
    pub config: SimulationConfigV5,
    /// Which method was running.
    pub algorithm: AlgorithmKind,
    /// Its hyper-parameters.
    pub hyper: HyperParams,
    /// Rounds completed.
    pub round: usize,
    /// Global model parameters.
    pub global: Vec<f32>,
    /// Sparse per-client state (legacy layout, no sync epoch).
    pub states: Vec<ClientEntryV6>,
    /// Server-side algorithm state.
    pub server_state: Vec<Vec<f32>>,
    /// Round records so far (legacy layout, no downlink columns).
    pub records: Vec<RoundRecordV6>,
    /// Root virtual-clock instant at capture.
    pub clock: f64,
    /// Per-edge virtual-clock instants at capture.
    pub edge_clocks: Vec<f64>,
    /// Scheduler position (legacy layout).
    pub scheduler: SchedulerStateV6,
}

impl CheckpointV5 {
    /// Migrate a v5 snapshot to the v6 layout: the federation it describes
    /// was always-on with no utility history, so the availability knobs
    /// zero out and the utility table starts empty. Always-on with a
    /// legacy (non-Oort) strategy takes the exact pre-availability
    /// selection path, so a migrated resume is bit-identical (pinned by a
    /// test). Chain a further `.migrate()` to reach the current layout.
    pub fn migrate(self) -> CheckpointV6 {
        CheckpointV6 {
            version: 6,
            config: self.config.into(),
            algorithm: self.algorithm,
            hyper: self.hyper,
            round: self.round,
            global: self.global,
            states: self.states,
            server_state: self.server_state,
            records: self.records,
            clock: self.clock,
            edge_clocks: self.edge_clocks,
            scheduler: self.scheduler,
            utility: Vec::new(),
        }
    }
}

/// The v6 snapshot layout (availability layer, but a dense-only
/// downlink), kept for migration. `Serialize` stays derived so tests can
/// author v6 fixtures.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[doc(hidden)]
pub struct CheckpointV6 {
    /// Snapshot format version (always 6).
    pub version: u32,
    /// Engine configuration (legacy layout, no downlink knobs).
    pub config: SimulationConfigV6,
    /// Which method was running.
    pub algorithm: AlgorithmKind,
    /// Its hyper-parameters.
    pub hyper: HyperParams,
    /// Rounds completed.
    pub round: usize,
    /// Global model parameters.
    pub global: Vec<f32>,
    /// Sparse per-client state (legacy layout, no sync epoch).
    pub states: Vec<ClientEntryV6>,
    /// Server-side algorithm state.
    pub server_state: Vec<Vec<f32>>,
    /// Round records so far (legacy layout, no downlink columns).
    pub records: Vec<RoundRecordV6>,
    /// Root virtual-clock instant at capture.
    pub clock: f64,
    /// Per-edge virtual-clock instants at capture.
    pub edge_clocks: Vec<f64>,
    /// Scheduler position (legacy layout).
    pub scheduler: SchedulerStateV6,
    /// Server-side utility table.
    pub utility: Vec<UtilityEntry>,
}

impl CheckpointV6 {
    /// Migrate a v6 snapshot to the v7 layout: the federation it describes
    /// broadcast the dense full model every round, so the downlink codec
    /// zeroes out (off), sync epochs stay absent, the broadcast vectors
    /// stay empty (restore re-anchors them to the global model on demand),
    /// and each record's downlink bytes are recovered from the cumulative
    /// totals it already carried. Dense downlink takes the exact legacy
    /// engine path, so a migrated resume is bit-identical (pinned by a
    /// test).
    pub fn migrate(self) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            config: self.config.into(),
            algorithm: self.algorithm,
            hyper: self.hyper,
            round: self.round,
            global: self.global,
            states: self.states.into_iter().map(Into::into).collect(),
            server_state: self.server_state,
            records: migrate_records(self.records),
            clock: self.clock,
            edge_clocks: self.edge_clocks,
            scheduler: self.scheduler.into(),
            utility: self.utility,
            broadcast_view: Vec::new(),
            broadcast_last: Vec::new(),
            broadcast_residual: Vec::new(),
            broadcast_epoch: 0,
        }
    }
}

/// The v3 snapshot layout (dense client states), kept for migration.
/// `Serialize` stays derived so tests can author v3 fixtures.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[doc(hidden)]
pub struct CheckpointV3 {
    /// Snapshot format version (always 3).
    pub version: u32,
    /// Engine configuration (legacy layout, no `edges`).
    pub config: SimulationConfigV4,
    /// Which method was running.
    pub algorithm: AlgorithmKind,
    /// Its hyper-parameters.
    pub hyper: HyperParams,
    /// Rounds completed.
    pub round: usize,
    /// Global model parameters.
    pub global: Vec<f32>,
    /// Dense per-client state (one entry per client, participant or not;
    /// legacy layout, no sync epoch).
    pub states: Vec<ClientStateV6>,
    /// Server-side algorithm state.
    pub server_state: Vec<Vec<f32>>,
    /// Round records so far (legacy layout, no downlink columns).
    pub records: Vec<RoundRecordV6>,
    /// Virtual-clock instant at capture.
    pub clock: f64,
    /// Scheduler position (legacy layout).
    pub scheduler: SchedulerStateV6,
}

impl CheckpointV3 {
    /// Migrate a dense v3 snapshot to the sparse v4 layout: vacant states
    /// (indistinguishable from never-participated) are dropped; everything
    /// else carries over unchanged, so a resumed synchronous run is
    /// bit-identical (see [`CHECKPOINT_VERSION`] for the semi-async
    /// redispatch caveat). Chain `.migrate().migrate().migrate().migrate()`
    /// to reach the current layout.
    pub fn migrate(self) -> CheckpointV4 {
        CheckpointV4 {
            version: 4,
            config: self.config,
            algorithm: self.algorithm,
            hyper: self.hyper,
            round: self.round,
            global: self.global,
            states: self
                .states
                .into_iter()
                .enumerate()
                .filter(|(_, s)| !s.is_vacant())
                .map(|(client, state)| ClientEntryV6 { client, state })
                .collect(),
            server_state: self.server_state,
            records: self.records,
            clock: self.clock,
            scheduler: self.scheduler,
        }
    }
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
    /// parameter count, client entries beyond the federation, edge-clock
    /// count diverging from `config.edges`, inconsistent record count)
    /// returns a clean [`RestoreError`] instead of panicking — this is
    /// also the path migrated legacy snapshots are validated through.
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
            if job.outcome.params.len() != self.global.len() {
                return Err(RestoreError::GlobalSizeMismatch {
                    snapshot: job.outcome.params.len(),
                    expected: self.global.len(),
                });
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
        sim.restore_algorithm_state(self.server_state.clone());
        sim.restore_snapshot(
            self.round,
            self.global.clone(),
            self.states.iter().map(|e| (e.client, e.state.clone())),
            self.records.clone(),
        )?;
        sim.restore_runtime(self.clock, &self.edge_clocks, self.scheduler.clone())?;
        sim.restore_utility(self.utility.iter().map(|e| (e.client, e.loss)));
        // after restore_snapshot: empty broadcast vectors (dense captures,
        // pre-v7 migrations) re-anchor to the restored global model
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

    /// Read a snapshot back, migrating the previous formats transparently:
    /// v6 (no downlink compression) resumes as the dense-downlink
    /// federation it was, v5 (no availability layer) additionally resumes
    /// as the always-on federation it was with an empty utility table, v4
    /// (no edge tier) additionally resumes as the single-edge federation
    /// it was, v3 (dense states) additionally drops vacant entries.
    ///
    /// Every failure — unreadable file, malformed JSON, foreign `version`
    /// (including pre-versioning files, which lack the field entirely),
    /// fields that no longer deserialize — surfaces as
    /// [`RestoreError::Snapshot`], so callers report `--resume` problems
    /// through one uniform [`std::fmt::Display`] path.
    pub fn load(path: &Path) -> Result<Checkpoint, RestoreError> {
        let body = fs::read_to_string(path)
            .map_err(|e| snapshot_err(&format!("cannot read {}", path.display()), e))?;
        // check the version off the raw JSON first: a snapshot from another
        // format version should report that version, not whatever
        // missing-field error full deserialization happens to hit first
        let value: serde_json::Value =
            serde_json::from_str(&body).map_err(|e| snapshot_err("malformed snapshot JSON", e))?;
        let version = value.get("version").and_then(|v| v.as_u64());
        match version {
            Some(v) if v == CHECKPOINT_VERSION as u64 => {
                let ckpt: Checkpoint = serde::Deserialize::from_value(&value).map_err(|e| {
                    snapshot_err(
                        &format!("snapshot does not fit the v{CHECKPOINT_VERSION} layout"),
                        e,
                    )
                })?;
                Ok(ckpt)
            }
            Some(6) => {
                let legacy: CheckpointV6 = serde::Deserialize::from_value(&value)
                    .map_err(|e| snapshot_err("snapshot does not fit the v6 layout", e))?;
                Ok(legacy.migrate())
            }
            Some(5) => {
                let legacy: CheckpointV5 = serde::Deserialize::from_value(&value)
                    .map_err(|e| snapshot_err("snapshot does not fit the v5 layout", e))?;
                Ok(legacy.migrate().migrate())
            }
            Some(4) => {
                let legacy: CheckpointV4 = serde::Deserialize::from_value(&value)
                    .map_err(|e| snapshot_err("snapshot does not fit the v4 layout", e))?;
                Ok(legacy.migrate().migrate().migrate())
            }
            Some(3) => {
                let legacy: CheckpointV3 = serde::Deserialize::from_value(&value)
                    .map_err(|e| snapshot_err("snapshot does not fit the v3 layout", e))?;
                Ok(legacy.migrate().migrate().migrate().migrate())
            }
            other => Err(RestoreError::Snapshot(format!(
                "checkpoint format version {} unsupported (expected {}, 6, 5, 4, or 3)",
                other
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "<missing>".into()),
                CHECKPOINT_VERSION
            ))),
        }
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
    fn v6_snapshot_migrates_as_dense_downlink_and_resumes_bit_identically() {
        let hyper = HyperParams::default();
        let config = cfg(58);
        // straight 8-round run as ground truth
        let mut straight = Simulation::new(config, AlgorithmKind::FedTrip.build(&hyper));
        straight.run();

        // 4 rounds, then author a v6 (pre-downlink) snapshot by hand
        let mut first = Simulation::new(config, AlgorithmKind::FedTrip.build(&hyper));
        for _ in 0..4 {
            first.run_round();
        }
        let cur = Checkpoint::capture(&first, AlgorithmKind::FedTrip, hyper);
        let legacy = CheckpointV6 {
            version: 6,
            config: cur.config.into(),
            algorithm: cur.algorithm,
            hyper: cur.hyper,
            round: cur.round,
            global: cur.global.clone(),
            states: cur.states.iter().cloned().map(Into::into).collect(),
            server_state: cur.server_state.clone(),
            records: cur.records.iter().cloned().map(Into::into).collect(),
            clock: cur.clock,
            edge_clocks: cur.edge_clocks.clone(),
            scheduler: cur.scheduler.clone().into(),
            utility: cur.utility.clone(),
        };
        let path = std::env::temp_dir().join("fedtrip_ckpt_v6_migration_test.json");
        fs::write(&path, serde_json::to_string(&legacy).unwrap()).unwrap();

        let migrated = Checkpoint::load(&path).unwrap();
        assert_eq!(migrated.version, CHECKPOINT_VERSION);
        assert_eq!(
            migrated.config.downlink_compression,
            crate::compression::CompressionKind::None,
            "v6 federations broadcast dense"
        );
        assert_eq!(migrated.config.resync_interval, 0);
        assert!(migrated.broadcast_view.is_empty());
        assert_eq!(migrated.broadcast_epoch, 0);
        assert!(migrated.states.iter().all(|e| e.state.sync_epoch.is_none()));
        // downlink bytes recovered from the cumulative totals
        let mut prev = 0.0;
        for (got, want) in migrated.records.iter().zip(&cur.records) {
            assert!(
                (got.comm_bytes_down - (want.cum_comm_bytes - prev - want.comm_bytes_up)).abs()
                    < 1e-6,
                "round {}: derived {} bytes",
                got.round,
                got.comm_bytes_down
            );
            assert_eq!(got.compression_ratio_down, 1.0);
            prev = want.cum_comm_bytes;
        }
        let mut resumed = migrated.restore().expect("migrated checkpoint restores");
        resumed.run();
        assert_eq!(
            straight.global_params(),
            resumed.global_params(),
            "v6-migrated resume diverged from the straight run"
        );
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
    fn v4_snapshot_migrates_as_single_edge_and_resumes_bit_identically() {
        let hyper = HyperParams::default();
        let config = cfg(48);
        // straight 8-round run as ground truth
        let mut straight = Simulation::new(config, AlgorithmKind::FedTrip.build(&hyper));
        straight.run();

        // 4 rounds, then author a v4 (edge-less) snapshot by hand
        let mut first = Simulation::new(config, AlgorithmKind::FedTrip.build(&hyper));
        for _ in 0..4 {
            first.run_round();
        }
        let cur = Checkpoint::capture(&first, AlgorithmKind::FedTrip, hyper);
        let legacy = CheckpointV4 {
            version: 4,
            config: cur.config.into(),
            algorithm: cur.algorithm,
            hyper: cur.hyper,
            round: cur.round,
            global: cur.global.clone(),
            states: cur.states.iter().cloned().map(Into::into).collect(),
            server_state: cur.server_state.clone(),
            records: cur.records.iter().cloned().map(Into::into).collect(),
            clock: cur.clock,
            scheduler: cur.scheduler.clone().into(),
        };
        let path = std::env::temp_dir().join("fedtrip_ckpt_v4_migration_test.json");
        fs::write(&path, serde_json::to_string(&legacy).unwrap()).unwrap();

        let migrated = Checkpoint::load(&path).unwrap();
        assert_eq!(migrated.version, CHECKPOINT_VERSION);
        assert_eq!(migrated.config.edges, 1);
        assert_eq!(migrated.config.availability_period, 0, "always-on");
        assert_eq!(migrated.edge_clocks, vec![cur.clock]);
        assert!(migrated.utility.is_empty());
        let mut resumed = migrated.restore().expect("migrated checkpoint restores");
        resumed.run();
        assert_eq!(
            straight.global_params(),
            resumed.global_params(),
            "v4-migrated resume diverged from the straight run"
        );
    }

    #[test]
    fn v5_snapshot_migrates_as_always_on_and_resumes_bit_identically() {
        let hyper = HyperParams::default();
        let config = cfg(49);
        // straight 8-round run as ground truth
        let mut straight = Simulation::new(config, AlgorithmKind::FedTrip.build(&hyper));
        straight.run();

        // 4 rounds, then author a v5 (pre-availability) snapshot by hand
        let mut first = Simulation::new(config, AlgorithmKind::FedTrip.build(&hyper));
        for _ in 0..4 {
            first.run_round();
        }
        let cur = Checkpoint::capture(&first, AlgorithmKind::FedTrip, hyper);
        let legacy = CheckpointV5 {
            version: 5,
            config: cur.config.into(),
            algorithm: cur.algorithm,
            hyper: cur.hyper,
            round: cur.round,
            global: cur.global.clone(),
            states: cur.states.iter().cloned().map(Into::into).collect(),
            server_state: cur.server_state.clone(),
            records: cur.records.iter().cloned().map(Into::into).collect(),
            clock: cur.clock,
            edge_clocks: cur.edge_clocks.clone(),
            scheduler: cur.scheduler.clone().into(),
        };
        let path = std::env::temp_dir().join("fedtrip_ckpt_v5_migration_test.json");
        fs::write(&path, serde_json::to_string(&legacy).unwrap()).unwrap();

        let migrated = Checkpoint::load(&path).unwrap();
        assert_eq!(migrated.version, CHECKPOINT_VERSION);
        assert_eq!(migrated.config.availability_period, 0, "always-on");
        assert_eq!(migrated.config.churn_join_window, 0);
        assert_eq!(migrated.config.deadline_secs, 0.0);
        assert!(migrated.utility.is_empty());
        let mut resumed = migrated.restore().expect("migrated checkpoint restores");
        resumed.run();
        assert_eq!(
            straight.global_params(),
            resumed.global_params(),
            "v5-migrated resume diverged from the straight run"
        );
    }

    #[test]
    fn v3_dense_snapshot_migrates_and_resumes_bit_identically() {
        let hyper = HyperParams::default();
        let config = cfg(41);
        // straight 8-round run as ground truth
        let mut straight = Simulation::new(config, AlgorithmKind::FedTrip.build(&hyper));
        straight.run();

        // 4 rounds, then author a v3 (dense-states) snapshot by hand
        let mut first = Simulation::new(config, AlgorithmKind::FedTrip.build(&hyper));
        for _ in 0..4 {
            first.run_round();
        }
        let cur = Checkpoint::capture(&first, AlgorithmKind::FedTrip, hyper);
        let dense: Vec<ClientStateV6> = (0..config.n_clients)
            .map(|c| {
                first
                    .client_states()
                    .get(c)
                    .cloned()
                    .unwrap_or_default()
                    .into()
            })
            .collect();
        let legacy = CheckpointV3 {
            version: 3,
            config: cur.config.into(),
            algorithm: cur.algorithm,
            hyper: cur.hyper,
            round: cur.round,
            global: cur.global.clone(),
            states: dense,
            server_state: cur.server_state.clone(),
            records: cur.records.iter().cloned().map(Into::into).collect(),
            clock: cur.clock,
            scheduler: cur.scheduler.clone().into(),
        };
        let path = std::env::temp_dir().join("fedtrip_ckpt_v3_migration_test.json");
        fs::write(&path, serde_json::to_string(&legacy).unwrap()).unwrap();

        let migrated = Checkpoint::load(&path).unwrap();
        assert_eq!(migrated.version, CHECKPOINT_VERSION);
        let mut resumed = migrated.restore().expect("migrated checkpoint restores");
        resumed.run();
        assert_eq!(
            straight.global_params(),
            resumed.global_params(),
            "v3-migrated resume diverged from the straight run"
        );
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
        // each corruption used to hit a Simulation::new assert (panic);
        // all must now surface as a clean RestoreError
        type Corrupt = fn(&mut Checkpoint);
        let corruptions: [(&str, Corrupt); 7] = [
            ("K > N", |c| {
                c.config.clients_per_round = c.config.n_clients + 1
            }),
            ("zero rounds", |c| c.config.rounds = 0),
            ("zero eval_every", |c| c.config.eval_every = 0),
            ("sub-unit device_het", |c| c.config.device_het = 0.5),
            ("zero edges", |c| c.config.edges = 0),
            ("zero test_per_class", |c| c.config.test_per_class = 0),
            ("zero batch_size", |c| c.config.batch_size = 0),
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
