//! The federated simulation engine: a thin loop over the layered
//! [`crate::runtime`]. A [`Sampler`] owns *who* participates, a
//! [`ClientExecutor`] owns the rayon-parallel local-training fan-out, a
//! [`Scheduler`] owns *when* results fold into the global model, and a
//! [`VirtualClock`] plus per-client [`DeviceProfiles`] turn the Appendix-A
//! cost accounting (FLOPs, bytes) into virtual seconds.
//!
//! Two schedulers ship: [`RunMode::Sync`] reproduces the paper's §III-A
//! synchronous round loop **bit-for-bit** (pinned by the golden regression
//! test in `tests/golden_sync.rs`), and [`RunMode::SemiAsync`] is a
//! FedBuff-style buffered aggregator for straggler-dominated federations.
//! The engine keeps doing the bookkeeping the paper's evaluation is built
//! on: participation gaps (FedTrip's `xi`), cumulative communication bytes,
//! cumulative local-compute FLOPs, per-round test accuracy, and the
//! virtual wall-clock behind a time-to-accuracy metric.
//!
//! A [`Simulation`] is an [`Env`] (everything derived from the
//! configuration, rebuilt and never saved), the method, and a [`SimState`]
//! (everything a round mutates — the checkpoint).

use crate::algorithms::{Algorithm, ClientStateStore};
use crate::checkpoint::SimState;
use crate::compression::{error_feedback_into, CompressionKind, Compressor};
use crate::costs::{AttachCost, CostModel, RoundCosts};
use crate::runtime::clock::BASE_BANDWIDTH_BPS;
use crate::runtime::{
    AvailabilityModel, ClientExecutor, ClientSizes, DeviceProfiles, FoldStats, RuntimeCtx, Sampler,
    Scheduler, SemiAsync, StepOutput, Synchronous, UtilityTable, VirtualClock,
};
pub use crate::runtime::{RunMode, SelectionStrategy};
use fedtrip_data::partition::{HeterogeneityKind, Partition};
use fedtrip_data::synth::{DatasetKind, SyntheticVision};
use fedtrip_models::ModelKind;
use fedtrip_tensor::optim::LrSchedule;
use fedtrip_tensor::{Sequential, Tensor};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Full configuration of one federated simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Dataset preset.
    pub dataset: DatasetKind,
    /// Model architecture.
    pub model: ModelKind,
    /// Label-skew regime.
    pub heterogeneity: HeterogeneityKind,
    /// Federation size `N` (paper: 10, or 50 for the scalability study).
    pub n_clients: usize,
    /// Clients selected per round `K` (paper: 4). In semi-async mode this
    /// is the training concurrency the scheduler maintains.
    pub clients_per_round: usize,
    /// Communication rounds `T` (paper: 100). In semi-async mode one round
    /// == one buffer fold.
    pub rounds: usize,
    /// Local epochs per round (paper default 1; Table VII uses 5 and 10).
    pub local_epochs: usize,
    /// Mini-batch size (paper: 50).
    pub batch_size: usize,
    /// Client learning rate (paper: 0.01).
    pub lr: f32,
    /// Momentum for methods that train with SGDm (paper: 0.9).
    pub momentum: f32,
    /// Master seed; everything (init, partition, selection, shuffling,
    /// data synthesis, device profiles) derives from it.
    pub seed: u64,
    /// Held-out test samples per class for evaluation.
    pub test_per_class: usize,
    /// Override the per-client sample count (scale-down knob for CI /
    /// laptop runs; `None` = the paper's Table II value).
    pub client_samples_override: Option<usize>,
    /// Evaluate the global model every this many rounds.
    pub eval_every: usize,
    /// Client selection strategy (paper: uniform).
    pub selection: SelectionStrategy,
    /// Straggler injection: probability that a selected client fails to
    /// report back this round (the server aggregates the survivors; at
    /// least one client always survives). Paper: 0.
    pub failure_prob: f32,
    /// Learning-rate schedule across rounds (paper: constant).
    pub lr_schedule: LrSchedule,
    /// Aggregation scheduler (paper: synchronous).
    pub mode: RunMode,
    /// Device heterogeneity: maximum compute-speed spread across clients
    /// (`>= 1`; `1.0` = every client is the reference device). Only
    /// affects the virtual clock, never training results.
    pub device_het: f32,
    /// Semi-async buffer size `B` — arrivals folded per server step
    /// (`0` = auto: `max(1, K / 2)`). Ignored in sync mode.
    pub async_buffer: usize,
    /// Semi-async staleness-discount exponent `a` in `1 / (1 + s)^a`.
    /// Ignored in sync mode.
    pub staleness_exponent: f32,
    /// Upload codec applied to each client's parameter update (and any
    /// method-specific uplink extras). [`CompressionKind::None`] keeps the
    /// engine bit-identical to the uncompressed paper setting.
    pub compression: CompressionKind,
    /// Client-side error feedback: carry each round's encoding residual
    /// (`update - decode(encode(update))`) into the next participation so
    /// dropped mass is retransmitted instead of lost. No-op for
    /// [`CompressionKind::None`].
    pub error_feedback: bool,
    /// Edge aggregators `E` in the hierarchical aggregation tier: clients
    /// shard by `client mod E`, each edge folds its own cohort on its own
    /// clock and ships one summary uplink to the root per fold. `1` (the
    /// default) colocates the single edge with the root — the flat fold,
    /// bit for bit.
    pub edges: usize,
    /// Diurnal availability cycle length in rounds (`0` = always-on). Each
    /// client draws a seed-derived phase and is reachable on
    /// `round(availability_on_fraction × period)` rounds of every cycle —
    /// see [`crate::runtime::AvailabilityModel`]. Synchronous selection
    /// only: the semi-async scheduler redispatches to unreachable clients.
    pub availability_period: usize,
    /// Fraction of each availability cycle a client is reachable; must be
    /// in `(0, 1]` when the diurnal trace is on (ignored otherwise).
    pub availability_on_fraction: f32,
    /// Churn join window in rounds (`0` = no churn): each client joins at
    /// a seed-derived round in `[0, join_window]` and later leaves for
    /// good, its state evicted from the sparse store. Synchronous selection
    /// only: the semi-async scheduler also redispatches to clients that
    /// have not joined or have left.
    pub churn_join_window: usize,
    /// Minimum churn residency in rounds — a joined client stays for a
    /// seed-derived lifetime in `[residency, 2·residency)`. Must be
    /// positive when churn is on.
    pub churn_residency: usize,
    /// Synchronous reporting deadline in virtual seconds (`0` = off):
    /// clients whose round duration would exceed it are dropped from the
    /// fold and the round barrier is capped at the deadline. Ignored in
    /// semi-async mode (buffered aggregation already tolerates
    /// stragglers).
    pub deadline_secs: f32,
    /// Downlink codec applied to the server's global-model broadcast.
    /// [`CompressionKind::None`] keeps the dense full-model send of the
    /// paper setting. Any other codec switches the broadcast to compressed
    /// **deltas** against the last broadcast, with server-side error
    /// feedback: clients reconstruct their view incrementally, periodic
    /// resyncs and on-demand dense sends (joiners) keep the view anchored.
    pub downlink_compression: CompressionKind,
    /// Periodic full-model resync interval `R` for delta broadcasts: every
    /// `R`-th round the server sends the dense global model and clears the
    /// downlink residual (`0` = never resync; joiners still receive dense
    /// bases on demand). Ignored when the downlink is dense.
    pub resync_interval: usize,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            dataset: DatasetKind::MnistLike,
            model: ModelKind::Cnn,
            heterogeneity: HeterogeneityKind::Dirichlet(0.5),
            n_clients: 10,
            clients_per_round: 4,
            rounds: 100,
            local_epochs: 1,
            batch_size: 50,
            lr: 0.01,
            momentum: 0.9,
            seed: 2023,
            test_per_class: 50,
            client_samples_override: None,
            eval_every: 1,
            selection: SelectionStrategy::Uniform,
            failure_prob: 0.0,
            lr_schedule: LrSchedule::Constant,
            mode: RunMode::Sync,
            device_het: 1.0,
            async_buffer: 0,
            staleness_exponent: 0.5,
            compression: CompressionKind::None,
            error_feedback: false,
            edges: 1,
            availability_period: 0,
            availability_on_fraction: 0.5,
            churn_join_window: 0,
            churn_residency: 0,
            deadline_secs: 0.0,
            downlink_compression: CompressionKind::None,
            resync_interval: 0,
        }
    }
}

impl SimulationConfig {
    /// The effective semi-async buffer size `B` (resolves the `0 = auto`
    /// convention to `max(1, K / 2)`).
    pub fn effective_buffer(&self) -> usize {
        if self.async_buffer == 0 {
            (self.clients_per_round / 2).max(1)
        } else {
            self.async_buffer
        }
    }

    /// Check the invariants [`Env::new`] asserts. Checkpoint restore and
    /// `flrun` call it first, so a corrupted snapshot or a bad flag
    /// surfaces a clean error instead of a panic.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_clients == 0 {
            return Err("need at least one client".into());
        }
        if self.clients_per_round == 0 || self.clients_per_round > self.n_clients {
            return Err("clients_per_round must be in 1..=n_clients".into());
        }
        if self.rounds == 0 {
            return Err("need at least one round".into());
        }
        if self.eval_every == 0 {
            return Err("eval_every must be positive".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if self.test_per_class == 0 {
            return Err("test_per_class must be positive".into());
        }
        // Partition::build asserts these, or draws from NaN class weights
        match self.heterogeneity {
            HeterogeneityKind::Dirichlet(alpha) if !(alpha.is_finite() && alpha > 0.0) => {
                return Err("Dirichlet alpha must be positive and finite".into());
            }
            HeterogeneityKind::Orthogonal(k) if k == 0 || k > self.dataset.spec().classes => {
                return Err(format!(
                    "orthogonal clusters must be in 1..={} (the dataset's classes)",
                    self.dataset.spec().classes
                ));
            }
            _ => {}
        }
        // the local optimizers assert these; reject them here instead
        if !(self.lr.is_finite() && self.lr > 0.0) {
            return Err("lr must be positive and finite".into());
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err("momentum must be in [0, 1)".into());
        }
        match self.lr_schedule {
            LrSchedule::Constant => {}
            LrSchedule::StepDecay { every, factor } => {
                if every == 0 || !(factor > 0.0 && factor <= 1.0) {
                    return Err("step decay needs a positive period and a factor in (0, 1]".into());
                }
            }
            LrSchedule::Cosine { total, min_lr } => {
                if total == 0 || !(min_lr.is_finite() && min_lr > 0.0) {
                    return Err("cosine decay needs a positive total and min_lr".into());
                }
            }
        }
        if self.device_het.is_nan() || self.device_het < 1.0 {
            return Err("device_het must be >= 1".into());
        }
        if self.client_samples_override == Some(0) {
            return Err("client_samples_override must be positive".into());
        }
        if self.staleness_exponent.is_nan() || self.staleness_exponent < 0.0 {
            return Err("staleness exponent must be non-negative".into());
        }
        if self.edges == 0 {
            return Err("need at least one edge aggregator".into());
        }
        if self.availability_period > 0
            && !(self.availability_on_fraction > 0.0 && self.availability_on_fraction <= 1.0)
        {
            return Err("availability_on_fraction must be in (0, 1]".into());
        }
        if self.churn_join_window > 0 && self.churn_residency == 0 {
            return Err("churn requires a positive residency".into());
        }
        if self.deadline_secs.is_nan() || self.deadline_secs < 0.0 {
            return Err("deadline_secs must be non-negative".into());
        }
        Ok(())
    }

    /// The availability model this configuration describes (always-on when
    /// both the diurnal trace and churn are disabled).
    pub fn availability_model(&self) -> AvailabilityModel {
        AvailabilityModel::new(
            self.seed,
            self.n_clients,
            self.availability_period,
            self.availability_on_fraction,
            self.churn_join_window,
            self.churn_residency,
        )
    }
}

/// Measurements of one communication round (sync) / server fold (semi-async).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round number (1-based).
    pub round: usize,
    /// Test accuracy of the aggregated global model (`None` when this round
    /// was not an evaluation round).
    pub accuracy: Option<f64>,
    /// Mean local training loss over the folded clients.
    pub mean_loss: f64,
    /// Cumulative communication in bytes (up + down, all clients, including
    /// method-specific extras, plus edge→root summary uplinks when the
    /// hierarchical tier runs more than one edge).
    pub cum_comm_bytes: f64,
    /// Cumulative local computation in FLOPs (model fwd/bwd + attach ops).
    pub cum_flops: f64,
    /// The clients whose results folded this round (selection order in
    /// sync mode, virtual-arrival order in semi-async mode).
    pub selected: Vec<usize>,
    /// Virtual wall-clock at the end of this round, in seconds (device
    /// compute + link time under the per-client [`DeviceProfiles`]).
    pub virtual_time: f64,
    /// Mean staleness of the folded updates (always `0` in sync mode).
    pub mean_staleness: f64,
    /// Uplink bytes this round (all folded clients, encoded update plus
    /// encoded method extras, plus the participating edges' summary uplinks
    /// when `E > 1` — what the virtual clock actually charged).
    pub comm_bytes_up: f64,
    /// Uplink compression ratio: dense f32 upload bytes over encoded
    /// upload bytes (`1.0` when compression is off).
    pub compression_ratio: f64,
    /// Downlink bytes this round: per folded client a dense full-model
    /// send (resync rounds, joiners — and every round
    /// when the downlink codec is off) or an encoded delta broadcast, plus
    /// the root→edge broadcast relays when `E > 1` rides a lossy downlink
    /// codec.
    pub comm_bytes_down: f64,
    /// Downlink compression ratio: dense f32 broadcast bytes over the
    /// per-client bytes actually charged (`1.0` when the downlink is
    /// dense; edge relays excluded).
    pub compression_ratio_down: f64,
}

/// A clean (non-panicking) error for a checkpoint/config mismatch at
/// restore time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The snapshot's global parameter vector does not match this
    /// simulation's model.
    GlobalSizeMismatch {
        /// Parameters in the snapshot.
        snapshot: usize,
        /// Parameters this simulation's model has.
        expected: usize,
    },
    /// A client-state entry is invalid for this federation (out-of-range
    /// id or duplicate).
    InvalidClientStates(String),
    /// The snapshot's recorded configuration is internally inconsistent
    /// (would fail [`Simulation::new`]'s invariants), or its
    /// hyper-parameters fail [`AlgorithmKind::validate`](crate::algorithms::AlgorithmKind::validate).
    InvalidConfig(String),
    /// A broadcast vector does not fit the configured downlink: a dense
    /// downlink carries none, a delta downlink one per model parameter.
    BroadcastMismatch {
        /// Values in the snapshot's vector.
        snapshot: usize,
        /// Values the configured downlink needs.
        expected: usize,
    },
    /// The snapshot's per-edge clock list does not match the configured
    /// edge-tier width.
    EdgeClocksMismatch {
        /// Edge clocks in the snapshot.
        snapshot: usize,
        /// Edge aggregators the configuration asks for.
        expected: usize,
    },
    /// The snapshot's server-side algorithm state does not have the shape
    /// the configured method keeps (vector count or a vector's length).
    ServerStateMismatch {
        /// Vector lengths in the snapshot.
        snapshot: Vec<usize>,
        /// Vector lengths the method's `on_init` produced.
        expected: Vec<usize>,
    },
    /// The checkpoint file itself could not be read, parsed, or recognized
    /// (I/O failure, malformed JSON, unsupported format version).
    Snapshot(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::GlobalSizeMismatch { snapshot, expected } => write!(
                f,
                "snapshot holds {snapshot} global parameters but the configured model has {expected}"
            ),
            RestoreError::InvalidClientStates(msg) => {
                write!(f, "invalid client states: {msg}")
            }
            RestoreError::InvalidConfig(msg) => {
                write!(f, "invalid snapshot configuration: {msg}")
            }
            RestoreError::BroadcastMismatch { snapshot, expected } => write!(
                f,
                "snapshot carries a broadcast vector of {snapshot} values but the configured downlink needs {expected}"
            ),
            RestoreError::EdgeClocksMismatch { snapshot, expected } => write!(
                f,
                "snapshot carries {snapshot} edge clocks but the configuration has {expected} edge aggregators"
            ),
            RestoreError::ServerStateMismatch { snapshot, expected } => write!(
                f,
                "snapshot carries server-state vectors of lengths {snapshot:?} but the method keeps {expected:?}"
            ),
            RestoreError::Snapshot(msg) => write!(f, "cannot load checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Everything a run derives from its configuration: dataset, partition,
/// model template, test set, sampler, device profiles, scheduler and both
/// codecs. Pure — [`Env::new`] of the same configuration rebuilds it bit for
/// bit — so a checkpoint stores only the configuration it came from.
pub struct Env {
    pub(crate) cfg: SimulationConfig,
    pub(crate) dataset: SyntheticVision,
    pub(crate) partition: Partition,
    pub(crate) template: Sequential,
    pub(crate) test_x: Tensor,
    pub(crate) test_y: Vec<usize>,
    pub(crate) sampler: Sampler,
    pub(crate) profiles: DeviceProfiles,
    pub(crate) scheduler: Box<dyn Scheduler>,
    pub(crate) compressor: Box<dyn Compressor>,
    /// Downlink broadcast codec (`Identity` = dense full-model sends).
    pub(crate) down_codec: Box<dyn Compressor>,
}

impl Env {
    /// Build the environment: synthesizes the dataset, sets up the (lazy)
    /// partition, the model template and test set, derives device
    /// profiles, and constructs the configured scheduler and codecs.
    ///
    /// Construction is O(1) in `n_clients`: client shards and device
    /// profiles materialize on first participation, so a 10⁵-client
    /// federation costs no more to stand up than a 10-client one.
    ///
    /// # Panics
    /// Panics when [`SimulationConfig::validate`] rejects the configuration.
    pub fn new(cfg: &SimulationConfig) -> Env {
        let cfg = *cfg;
        assert_eq!(cfg.validate(), Ok(()), "invalid simulation config");

        let dataset = SyntheticVision::new(cfg.dataset, cfg.seed);
        let mut spec = *dataset.spec();
        if let Some(n) = cfg.client_samples_override {
            spec.client_samples = n;
        }
        let partition = Partition::build(
            &spec,
            cfg.heterogeneity,
            cfg.n_clients,
            cfg.seed ^ 0x009A_2717,
        );
        let template = cfg
            .model
            .build(&spec.sample_shape(), spec.classes, cfg.seed);
        let (test_x, test_y) = dataset.test_set(cfg.test_per_class);
        let profiles = DeviceProfiles::new(cfg.seed, cfg.n_clients, cfg.device_het as f64);
        let sampler = Sampler::new(
            cfg.seed,
            cfg.clients_per_round,
            cfg.selection,
            cfg.failure_prob,
            ClientSizes::Uniform {
                n_clients: cfg.n_clients,
                samples: partition.client_samples(),
            },
        )
        .with_availability(cfg.availability_model())
        .with_profiles(profiles);
        let scheduler: Box<dyn Scheduler> = match cfg.mode {
            RunMode::Sync => Box::new(Synchronous),
            RunMode::SemiAsync => Box::new(SemiAsync::new(
                cfg.effective_buffer(),
                cfg.staleness_exponent,
            )),
        };
        Env {
            cfg,
            dataset,
            partition,
            template,
            test_x,
            test_y,
            sampler,
            profiles,
            scheduler,
            compressor: cfg.compression.build(),
            down_codec: cfg.downlink_compression.build(),
        }
    }

    /// Parameters of the configured model.
    pub fn n_params(&self) -> usize {
        self.template.num_params()
    }

    /// The Appendix-A cost model for this configuration (uses the nominal
    /// iteration count `ceil(samples / batch) * epochs`).
    pub fn cost_model(&self) -> CostModel {
        let samples = self.partition.client_samples();
        CostModel {
            n_params: self.template.num_params(),
            fp_per_sample: self.template.flops_forward(),
            bp_per_sample: self.template.flops_backward(),
            batch_size: self.cfg.batch_size,
            local_iterations: samples.div_ceil(self.cfg.batch_size) * self.cfg.local_epochs,
            local_samples: samples,
        }
    }

    /// What one round charges on the wire for a method with `attach`
    /// extras: each direction rides its own codec (dense = the identity
    /// codec), so the clock charges exactly the bytes the codecs would
    /// emit. `delta_down` says the downlink sends encoded deltas, and
    /// `resync` that this round sends the dense model instead (what the
    /// root relays to each edge when `E > 1`).
    pub fn round_costs(&self, attach: &AttachCost, delta_down: bool, resync: bool) -> RoundCosts {
        let n = self.n_params();
        let f32_bytes = std::mem::size_of::<f32>() as f64;
        let encoded = |codec: &dyn Compressor, extra: usize| {
            let extra = if extra > 0 {
                codec.encoded_len(extra)
            } else {
                0
            };
            (codec.encoded_len(n) + extra) as f64
        };
        let up = encoded(self.compressor.as_ref(), attach.up_params);
        let down_dense = (n + attach.down_params) as f64 * f32_bytes;
        let down_delta = if delta_down {
            encoded(self.down_codec.as_ref(), attach.down_params)
        } else {
            down_dense
        };
        let edged = self.cfg.edges > 1;
        let edge_up = if edged { up } else { 0.0 };
        let edge_down = match (edged && delta_down, resync) {
            (false, _) => 0.0,
            (true, true) => down_dense,
            (true, false) => down_delta,
        };
        RoundCosts {
            up,
            dense_up: (n + attach.up_params) as f64 * f32_bytes,
            down_dense,
            down_delta,
            edge_up,
            edge_down,
            edge_secs: (edge_up + edge_down) / BASE_BANDWIDTH_BPS,
        }
    }

    /// Test accuracy of `global` (chunked forward pass, the test rows split
    /// across the rayon workers).
    pub fn evaluate(&self, global: &[f32]) -> f64 {
        self.evaluate_spans(global, rayon::current_num_threads())
    }

    /// [`Env::evaluate`] over `spans` contiguous row spans, each on its own
    /// copy of the model. A row's logits do not depend on which rows share
    /// its forward pass (`linalg.rs`'s bit-exactness contract), and the
    /// spans' correct-counts are integers, so the result is the same for
    /// every `spans`.
    fn evaluate_spans(&self, global: &[f32], spans: usize) -> f64 {
        // the workers borrow these fields, not `self` (which is not `Sync`)
        let template = &self.template;
        let (x, y) = (self.test_x.as_slice(), &self.test_y[..]);
        let sample_shape = &self.test_x.shape()[1..];
        let n = y.len();
        let per = n.div_ceil(spans.clamp(1, n));
        let elems = x.len() / n;
        let mut correct = vec![0usize; n.div_ceil(per)];
        correct.par_iter_mut().enumerate().for_each(|(i, slot)| {
            let (lo, hi) = (i * per, ((i + 1) * per).min(n));
            let mut net = template.clone();
            net.set_params_flat(global);
            *slot = correct_in_chunks(
                &mut net,
                &x[lo * elems..hi * elems],
                sample_shape,
                &y[lo..hi],
            );
        });
        correct.iter().sum::<usize>() as f64 / n as f64
    }
}

/// A running federated simulation: the [`Env`] its configuration derives,
/// the method, and the [`SimState`] every round mutates.
pub struct Simulation {
    pub(crate) env: Env,
    pub(crate) algorithm: Box<dyn Algorithm>,
    pub(crate) state: SimState,
    /// Reused delta and wire buffers for the downlink round trip (scratch,
    /// neither environment nor state).
    broadcast_scratch: (Vec<f32>, Vec<u8>),
}

impl Simulation {
    /// Build a simulation: [`Env::new`], the method's `on_init`, and the
    /// initial [`SimState`] (the template's parameters as the global model,
    /// no client resident).
    ///
    /// # Panics
    /// Panics on inconsistent configuration (see [`Env::new`]).
    pub fn new(cfg: SimulationConfig, mut algorithm: Box<dyn Algorithm>) -> Self {
        let env = Env::new(&cfg);
        let state = SimState::new(&env);
        algorithm.on_init(cfg.n_clients, state.global.len());
        Simulation {
            env,
            algorithm,
            state,
            broadcast_scratch: Default::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.env.cfg
    }

    /// The run state: everything a round mutates, and what a checkpoint
    /// saves.
    pub fn state(&self) -> &SimState {
        &self.state
    }

    /// The partition (e.g. for label-histogram reporting).
    pub fn partition(&self) -> &Partition {
        &self.env.partition
    }

    /// Current global parameters.
    pub fn global_params(&self) -> &[f32] {
        &self.state.global
    }

    /// Per-client state (participation history etc.) — sparse: only
    /// clients that have participated hold an entry.
    pub fn client_states(&self) -> &ClientStateStore {
        &self.state.states
    }

    /// Force every client's state resident (defaults where absent).
    ///
    /// Semantically a no-op — an explicit default entry behaves exactly
    /// like absence — kept as the handle the sparse≡dense equivalence
    /// tests use to run the engine against a dense store. O(N) memory;
    /// never called by the engine itself.
    pub fn prefill_dense_states(&mut self) {
        self.state.states.prefill_dense();
    }

    /// Round records so far.
    pub fn records(&self) -> &[RoundRecord] {
        &self.state.records
    }

    /// Rounds completed.
    pub fn rounds_done(&self) -> usize {
        self.state.records.len()
    }

    /// Current virtual wall-clock in seconds (the last fold's instant).
    pub fn virtual_time(&self) -> f64 {
        self.state.records.last().map_or(0.0, |r| r.virtual_time)
    }

    /// A copy of the global model as a ready-to-use network.
    pub fn global_model(&self) -> Sequential {
        let mut net = self.env.template.clone();
        net.set_params_flat(&self.state.global);
        net
    }

    /// The Oort utility table (most recent observed mean loss per client).
    pub fn utility_table(&self) -> &UtilityTable {
        &self.state.utility
    }

    /// Per-client fold counts so far (see [`participation_counts`]).
    pub fn participation_counts(&self) -> BTreeMap<usize, u64> {
        participation_counts(&self.state.records)
    }

    /// Execute one server step (sync: one communication round; semi-async:
    /// one buffer fold); returns the new record. Reads the [`Env`], writes
    /// the [`SimState`]: the round counter, the cumulative bytes and FLOPs
    /// and the root clock all continue from the last record.
    ///
    /// A round is four steps: price the wire ([`Env::round_costs`]),
    /// broadcast, let the scheduler train and fold, then keep the books
    /// (`evict_departed`, `account`) and finish the fold.
    pub fn run_round(&mut self) -> &RoundRecord {
        let Simulation {
            env,
            algorithm,
            state,
            broadcast_scratch,
        } = self;
        let cfg = &env.cfg;
        let t = state.records.len() + 1;
        let mut clock = VirtualClock::at(state.records.last().map_or(0.0, |r| r.virtual_time));
        // a lossy downlink codec broadcasts deltas; every
        // `resync_interval`-th of those rounds sends the dense model
        let delta_down = !env.down_codec.is_identity();
        let resync = delta_down && cfg.resync_interval > 0 && t.is_multiple_of(cfg.resync_interval);
        let attach = algorithm.attach_cost(&env.cost_model());
        let costs = env.round_costs(&attach, delta_down, resync);
        if delta_down {
            broadcast(env.down_codec.as_ref(), state, resync, broadcast_scratch);
        }

        let out = env.scheduler.step(
            t,
            &mut RuntimeCtx {
                exec: ClientExecutor {
                    cfg,
                    dataset: &env.dataset,
                    partition: &env.partition,
                    template: &env.template,
                    compressor: env.compressor.as_ref(),
                    down_delta: delta_down,
                    resync_round: resync,
                    broadcast_epoch: state.broadcast_epoch,
                },
                sampler: &env.sampler,
                profiles: &env.profiles,
                algorithm: algorithm.as_ref(),
                clock: &mut clock,
                // under delta broadcasts clients train from their
                // reconstructed view (what actually travelled the wire);
                // the server's true model still aggregates and evaluates
                global: if delta_down {
                    &state.broadcast_view
                } else {
                    &state.global
                },
                states: &mut state.states,
                costs,
                edges: &mut state.edges,
                utility: &state.utility,
                scheduler: &mut state.scheduler,
            },
        );

        let mut record = account(state.records.last(), t, &costs, &out, clock.now());
        for o in &out.folded {
            state.utility.record(o.client, o.mean_loss);
        }
        evict_departed(env, state, t);
        algorithm.server_finish(&mut state.global, out.fold, t);
        record.accuracy = t
            .is_multiple_of(cfg.eval_every)
            .then(|| env.evaluate(&state.global));
        state.records.push(record);
        #[expect(clippy::expect_used, reason = "record pushed on the line above")]
        state.records.last().expect("just pushed")
    }

    /// Run all configured rounds (continues from wherever the simulation
    /// currently is). Returns the full record history.
    pub fn run(&mut self) -> &[RoundRecord] {
        while self.state.records.len() < self.env.cfg.rounds {
            self.run_round();
        }
        &self.state.records
    }

    /// Raise the configured round budget (used when extending a resumed
    /// run); a target at or below the current budget is a no-op.
    pub fn extend_rounds(&mut self, rounds: usize) {
        if rounds > self.env.cfg.rounds {
            self.env.cfg.rounds = rounds;
        }
    }

    /// Test accuracy of the current global model (see [`Env::evaluate`]).
    pub fn evaluate(&self) -> f64 {
        self.env.evaluate(&self.state.global)
    }

    /// First round at which the evaluated accuracy reached `target`
    /// (the paper's Tables IV and VI metric).
    pub fn rounds_to_accuracy(&self, target: f64) -> Option<usize> {
        rounds_to_accuracy(&self.state.records, target)
    }

    /// Virtual wall-clock (seconds) at which the evaluated accuracy first
    /// reached `target` — the straggler-sensitive companion of
    /// [`Simulation::rounds_to_accuracy`].
    pub fn time_to_accuracy(&self, target: f64) -> Option<f64> {
        time_to_accuracy(&self.state.records, target)
    }

    /// Mean accuracy over the last `n` evaluated rounds (the paper's Fig. 6
    /// "final accuracy" metric).
    pub fn final_accuracy(&self, n: usize) -> f64 {
        final_accuracy(&self.state.records, n)
    }
}

/// The delta-broadcast step: encode the server's movement since the last
/// broadcast through the downlink `codec` with error feedback, and advance
/// the clients' reconstructed view by what survived the wire. A `resync`
/// round sends the dense model instead: it clears the residual and bumps
/// the sync epoch, so every client re-anchors. `delta` and `wire` are
/// scratch buffers, reused across rounds.
fn broadcast(
    codec: &dyn Compressor,
    state: &mut SimState,
    resync: bool,
    (delta, wire): &mut (Vec<f32>, Vec<u8>),
) {
    if resync {
        state.broadcast_view.clone_from(&state.global);
        state.broadcast_last.clone_from(&state.global);
        state.broadcast_residual = None;
        state.broadcast_epoch += 1;
        return;
    }
    // the decoded delta lands in `broadcast_last`, which is re-based on
    // the global model right after
    delta.clear();
    delta.extend(
        state
            .global
            .iter()
            .zip(&state.broadcast_last)
            .map(|(g, l)| g - l),
    );
    error_feedback_into(
        codec,
        delta,
        &mut state.broadcast_residual,
        true,
        wire,
        &mut state.broadcast_last,
    );
    for (v, d) in state.broadcast_view.iter_mut().zip(&state.broadcast_last) {
        *v += d;
    }
    state.broadcast_last.clone_from(&state.global);
}

/// Churn: evict the state (and utility) of the clients that leave the
/// federation at round `t`. Departure is a pure function of the round
/// counter, so a resumed run evicts identically.
fn evict_departed(env: &Env, state: &mut SimState, t: usize) {
    let avail = env.sampler.availability();
    if !avail.has_churn() {
        return;
    }
    let departed: Vec<usize> = state
        .states
        .iter()
        .map(|(c, _)| c)
        .filter(|&c| avail.has_left(c, t))
        .collect();
    for c in departed {
        drop(state.states.take(c));
        state.utility.evict(c);
    }
}

/// Round `t`'s record (accuracy not yet filled in): what `out` folded,
/// priced at `costs`, continuing the cumulative bytes and FLOPs of `last`.
/// Each folded client is charged its upload plus the broadcast it received;
/// each participating edge its summary uplink and broadcast relay (both
/// `0.0` at `E = 1`).
fn account(
    last: Option<&RoundRecord>,
    t: usize,
    costs: &RoundCosts,
    out: &StepOutput,
    now: f64,
) -> RoundRecord {
    let mut cum_comm_bytes = last.map_or(0.0, |r| r.cum_comm_bytes);
    let mut cum_flops = last.map_or(0.0, |r| r.cum_flops);
    let mut down = 0.0;
    for o in &out.folded {
        down += costs.down(o.dense_down);
        cum_comm_bytes += costs.client(o.dense_down);
        cum_flops += o.train_flops;
    }
    let edge_up = out.edges_active as f64 * costs.edge_up;
    let edge_down = out.edges_active as f64 * costs.edge_down;
    cum_comm_bytes += edge_up;
    cum_comm_bytes += edge_down;
    let n = out.folded.len() as f64;
    let mean = |f: fn(&FoldStats) -> f64| out.folded.iter().map(f).sum::<f64>() / n.max(1.0);
    RoundRecord {
        round: t,
        accuracy: None,
        mean_loss: mean(|o| o.mean_loss),
        cum_comm_bytes,
        cum_flops,
        selected: out.participants.clone(),
        virtual_time: now,
        mean_staleness: mean(|o| o.staleness as f64),
        comm_bytes_up: costs.up * n + edge_up,
        compression_ratio: costs.dense_up / costs.up,
        comm_bytes_down: down + edge_down,
        compression_ratio_down: if down > 0.0 {
            costs.down_dense * n / down
        } else {
            1.0
        },
    }
}

/// Bytes one evaluation chunk's largest per-sample working set may fill:
/// half of a 2 MiB per-core L2, so a convolution's im2col matrix and its
/// output stay cache-resident between im2col and the GEMM.
const EVAL_L2_BYTES: usize = 1 << 20;

/// Rows per evaluation chunk for `net`: as many samples as fit
/// [`Sequential::forward_footprint`] into [`EVAL_L2_BYTES`], at least one.
/// Depends on the model only (paper CNN 10, CifarCNN 2, MNIST TinyCNN 25,
/// MNIST MLP 334 rows).
fn eval_chunk_rows(net: &Sequential) -> usize {
    (EVAL_L2_BYTES / (std::mem::size_of::<f32>() * net.forward_footprint())).max(1)
}

/// Accuracy of `net` on `x`/`y`, forwarded in chunks sized so each layer's
/// per-chunk working set fits in half a per-core L2 (1 MiB).
pub fn evaluate_in_chunks(net: &mut Sequential, x: &Tensor, y: &[usize]) -> f64 {
    let n = y.len();
    assert!(n > 0, "empty test set");
    correct_in_chunks(net, x.as_slice(), &x.shape()[1..], y) as f64 / n as f64
}

/// Rows of `x` (row-major, `y.len()` samples of `sample_shape`) that `net`
/// classifies as `y` says, forwarded in L2-sized chunks of
/// [`eval_chunk_rows`] rows (at most `y.len()`).
///
/// One scratch tensor is reused across all full-size chunks (plus at most
/// one tail-sized tensor), so evaluation allocates O(chunk) instead of one
/// fresh tensor per chunk.
fn correct_in_chunks(
    net: &mut Sequential,
    x: &[f32],
    sample_shape: &[usize],
    y: &[usize],
) -> usize {
    let n = y.len();
    let elems = x.len() / n;
    let chunk = eval_chunk_rows(net).min(n);
    let mut shape = vec![chunk];
    shape.extend_from_slice(sample_shape);
    let mut scratch = Tensor::zeros(&shape);
    let mut correct = 0usize;
    let mut off = 0usize;
    while off < n {
        let end = (off + chunk).min(n);
        let rows = end - off;
        if rows != scratch.shape()[0] {
            shape[0] = rows;
            scratch = Tensor::zeros(&shape);
        }
        scratch
            .as_mut_slice()
            .copy_from_slice(&x[off * elems..end * elems]);
        let pred = net.predict(&scratch);
        correct += pred
            .iter()
            .zip(&y[off..end])
            .filter(|(p, t)| p == t)
            .count();
        off = end;
    }
    correct
}

/// First round whose evaluated accuracy reached `target`.
pub fn rounds_to_accuracy(records: &[RoundRecord], target: f64) -> Option<usize> {
    records
        .iter()
        .find(|r| r.accuracy.map(|a| a >= target).unwrap_or(false))
        .map(|r| r.round)
}

/// Virtual wall-clock (seconds) at which the evaluated accuracy first
/// reached `target`.
pub fn time_to_accuracy(records: &[RoundRecord], target: f64) -> Option<f64> {
    records
        .iter()
        .find(|r| r.accuracy.map(|a| a >= target).unwrap_or(false))
        .map(|r| r.virtual_time)
}

/// Per-client fold counts over `records` (clients that never folded are
/// absent), counted from each record's `selected` list.
pub fn participation_counts(records: &[RoundRecord]) -> BTreeMap<usize, u64> {
    let mut counts = BTreeMap::new();
    for &c in records.iter().flat_map(|r| &r.selected) {
        *counts.entry(c).or_insert(0) += 1;
    }
    counts
}

/// Mean accuracy over the last `n` evaluated rounds.
pub fn final_accuracy(records: &[RoundRecord], n: usize) -> f64 {
    let accs: Vec<f64> = records.iter().filter_map(|r| r.accuracy).collect();
    if accs.is_empty() {
        return 0.0;
    }
    let tail = &accs[accs.len().saturating_sub(n)..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{AlgorithmKind, HyperParams};

    fn tiny_cfg(alg_seed: u64) -> SimulationConfig {
        SimulationConfig {
            dataset: DatasetKind::MnistLike,
            model: ModelKind::TinyMlp,
            heterogeneity: HeterogeneityKind::Dirichlet(0.5),
            n_clients: 6,
            clients_per_round: 3,
            rounds: 4,
            local_epochs: 1,
            batch_size: 25,
            lr: 0.05,
            momentum: 0.9,
            seed: alg_seed,
            test_per_class: 5,
            client_samples_override: Some(50),
            eval_every: 1,
            ..SimulationConfig::default()
        }
    }

    fn sim(kind: AlgorithmKind, seed: u64) -> Simulation {
        Simulation::new(tiny_cfg(seed), kind.build(&HyperParams::default()))
    }

    #[test]
    fn runs_configured_rounds_and_records() {
        let mut s = sim(AlgorithmKind::FedAvg, 1);
        let records = s.run();
        assert_eq!(records.len(), 4);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.round, i + 1);
            assert_eq!(r.selected.len(), 3);
            assert!(r.accuracy.is_some());
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = sim(AlgorithmKind::FedTrip, 7);
        let mut b = sim(AlgorithmKind::FedTrip, 7);
        a.run();
        b.run();
        assert_eq!(a.global_params(), b.global_params());
        let acc_a: Vec<_> = a.records().iter().map(|r| r.accuracy).collect();
        let acc_b: Vec<_> = b.records().iter().map(|r| r.accuracy).collect();
        assert_eq!(acc_a, acc_b);
    }

    #[test]
    fn different_seeds_select_differently() {
        let mut a = sim(AlgorithmKind::FedAvg, 1);
        let mut b = sim(AlgorithmKind::FedAvg, 2);
        a.run();
        b.run();
        let sel_a: Vec<_> = a.records().iter().map(|r| r.selected.clone()).collect();
        let sel_b: Vec<_> = b.records().iter().map(|r| r.selected.clone()).collect();
        assert_ne!(sel_a, sel_b);
    }

    #[test]
    fn selection_is_k_distinct_sorted_clients() {
        let mut s = sim(AlgorithmKind::FedAvg, 3);
        s.run();
        for r in s.records() {
            let mut sorted = r.selected.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted, r.selected);
            assert!(r.selected.iter().all(|&c| c < 6));
        }
    }

    #[test]
    fn participation_gap_bookkeeping() {
        let mut s = sim(AlgorithmKind::FedTrip, 4);
        s.run();
        // every client that participated has last_round set
        let participated: std::collections::HashSet<usize> = s
            .records()
            .iter()
            .flat_map(|r| r.selected.iter().copied())
            .collect();
        for c in 0..6 {
            assert_eq!(
                s.client_states()
                    .get(c)
                    .is_some_and(|st| st.last_round.is_some()),
                participated.contains(&c),
                "client {c}"
            );
        }
        // the store stays sparse: exactly the participants are resident
        assert_eq!(s.client_states().resident(), participated.len());
    }

    #[test]
    fn communication_grows_linearly_per_client() {
        let mut s = sim(AlgorithmKind::FedAvg, 5);
        s.run();
        let w_bytes = s.global_params().len() * 4;
        let per_round = (3 * 2 * w_bytes) as f64;
        for (i, r) in s.records().iter().enumerate() {
            assert!((r.cum_comm_bytes - per_round * (i + 1) as f64).abs() < 1.0);
        }
    }

    #[test]
    fn scaffold_communication_is_double() {
        let mut plain = sim(AlgorithmKind::FedAvg, 6);
        let mut scaf = sim(AlgorithmKind::Scaffold, 6);
        plain.run();
        scaf.run();
        let a = plain.records().last().unwrap().cum_comm_bytes;
        let b = scaf.records().last().unwrap().cum_comm_bytes;
        assert!((b / a - 2.0).abs() < 1e-9, "ratio {}", b / a);
    }

    #[test]
    fn flops_accumulate_and_moon_costs_more() {
        let mut avg = sim(AlgorithmKind::FedAvg, 8);
        let mut moon = sim(AlgorithmKind::Moon, 8);
        avg.run();
        moon.run();
        let fa = avg.records().last().unwrap().cum_flops;
        let fm = moon.records().last().unwrap().cum_flops;
        assert!(fa > 0.0);
        assert!(fm > fa, "MOON {fm} should exceed FedAvg {fa}");
    }

    #[test]
    fn accuracy_improves_over_random_guessing() {
        let mut cfg = tiny_cfg(9);
        cfg.rounds = 12;
        let mut s = Simulation::new(cfg, AlgorithmKind::FedAvg.build(&HyperParams::default()));
        s.run();
        let final_acc = s.final_accuracy(3);
        assert!(
            final_acc > 0.25,
            "accuracy {final_acc} no better than chance (0.1)"
        );
    }

    #[test]
    fn rounds_to_accuracy_helper() {
        let rec = |round: usize, accuracy: Option<f64>, virtual_time: f64| RoundRecord {
            round,
            accuracy,
            mean_loss: 0.0,
            cum_comm_bytes: 0.0,
            cum_flops: 0.0,
            selected: vec![],
            virtual_time,
            mean_staleness: 0.0,
            comm_bytes_up: 0.0,
            compression_ratio: 1.0,
            comm_bytes_down: 0.0,
            compression_ratio_down: 1.0,
        };
        let recs = vec![rec(1, Some(0.3), 10.0), rec(2, Some(0.6), 25.0)];
        assert_eq!(rounds_to_accuracy(&recs, 0.5), Some(2));
        assert_eq!(rounds_to_accuracy(&recs, 0.9), None);
        assert_eq!(time_to_accuracy(&recs, 0.5), Some(25.0));
        assert_eq!(time_to_accuracy(&recs, 0.2), Some(10.0));
        assert_eq!(time_to_accuracy(&recs, 0.9), None);
        assert_eq!(final_accuracy(&recs, 1), 0.6);
        assert!((final_accuracy(&recs, 10) - 0.45).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "clients_per_round")]
    fn rejects_k_greater_than_n() {
        let mut cfg = tiny_cfg(1);
        cfg.clients_per_round = 7;
        let _ = Simulation::new(cfg, AlgorithmKind::FedAvg.build(&HyperParams::default()));
    }

    #[test]
    #[should_panic(expected = "device_het")]
    fn rejects_sub_unit_device_het() {
        let mut cfg = tiny_cfg(1);
        cfg.device_het = 0.5;
        let _ = Simulation::new(cfg, AlgorithmKind::FedAvg.build(&HyperParams::default()));
    }

    #[test]
    fn every_algorithm_completes_a_round() {
        for kind in AlgorithmKind::ALL {
            let mut s = sim(kind, 11);
            s.run_round();
            assert_eq!(s.records().len(), 1, "{}", kind.name());
            assert!(s.records()[0].accuracy.unwrap() > 0.0);
        }
    }

    #[test]
    fn evaluate_is_independent_of_the_row_split() {
        // n = 10, 50, 210: none a multiple of every span count below. The
        // chunk rule gives TinyMLP whole spans, TinyCNN 25, the paper CNN 10
        // and CifarCNN 2 rows, so most spans split into several chunks plus
        // a tail (n = 210 is skipped on the paper CNN, whose unoptimized
        // forward pass is the slow part of this test)
        for (dataset, model, sizes) in [
            (DatasetKind::MnistLike, ModelKind::TinyMlp, &[1, 5, 21][..]),
            (DatasetKind::MnistLike, ModelKind::TinyCnn, &[1, 5, 21]),
            (DatasetKind::MnistLike, ModelKind::Cnn, &[1, 5]),
            (DatasetKind::Cifar10Like, ModelKind::CifarCnn, &[1]),
        ] {
            for &test_per_class in sizes {
                let mut cfg = tiny_cfg(31);
                cfg.dataset = dataset;
                cfg.model = model;
                cfg.test_per_class = test_per_class;
                cfg.eval_every = usize::MAX;
                cfg.client_samples_override = Some(20);
                let mut s =
                    Simulation::new(cfg, AlgorithmKind::FedAvg.build(&HyperParams::default()));
                s.run_round();
                let env = &s.env;
                let whole = evaluate_in_chunks(&mut s.global_model(), &env.test_x, &env.test_y);
                let tag = format!("{} n={}", model.name(), env.test_y.len());
                assert_eq!(s.evaluate(), whole, "{tag}");
                // the last: more workers than rows
                for spans in [1, 2, 3, 7, env.test_y.len() + 1] {
                    let spanned = env.evaluate_spans(s.global_params(), spans);
                    assert_eq!(spanned, whole, "{tag} spans={spans}");
                }
            }
        }
    }

    #[test]
    fn eval_chunk_rows_follow_the_largest_forward_working_set() {
        // pinned so a later edit cannot slide back to whole-span chunks:
        // the paper CNN's conv1 im2col matrix (25 x 784) plus its output
        // (6 x 784) is 95 KiB a sample, so 10 rows fill the 1 MiB budget
        for (model, shape, rows) in [
            (ModelKind::Cnn, [1, 28, 28], 10),
            (ModelKind::CifarCnn, [3, 32, 32], 2),
            (ModelKind::AlexNet, [3, 32, 32], 1),
            (ModelKind::TinyCnn, [1, 28, 28], 25),
            (ModelKind::TinyCnn, [3, 32, 32], 8),
            (ModelKind::Mlp, [1, 28, 28], 334),
            (ModelKind::TinyMlp, [3, 32, 32], 85),
        ] {
            let net = model.build(&shape, 10, 0);
            assert_eq!(eval_chunk_rows(&net), rows, "{} {shape:?}", model.name());
        }
    }

    #[test]
    fn round_robin_visits_everyone_with_constant_gap() {
        let mut cfg = tiny_cfg(13);
        cfg.selection = SelectionStrategy::RoundRobin;
        cfg.rounds = 4; // 4 rounds x 3 clients = 12 slots over 6 clients
        let mut s = Simulation::new(cfg, AlgorithmKind::FedAvg.build(&HyperParams::default()));
        s.run();
        let mut counts = vec![0usize; 6];
        for r in s.records() {
            for &c in &r.selected {
                counts[c] += 1;
            }
        }
        // perfect rotation: every client participates exactly twice
        assert!(counts.iter().all(|&c| c == 2), "{counts:?}");
    }

    #[test]
    fn weighted_selection_is_valid_and_deterministic() {
        let mut cfg = tiny_cfg(14);
        cfg.selection = SelectionStrategy::WeightedBySamples;
        let mut a = Simulation::new(cfg, AlgorithmKind::FedAvg.build(&HyperParams::default()));
        let mut b = Simulation::new(cfg, AlgorithmKind::FedAvg.build(&HyperParams::default()));
        a.run();
        b.run();
        for (ra, rb) in a.records().iter().zip(b.records()) {
            assert_eq!(ra.selected, rb.selected);
            let mut s = ra.selected.clone();
            s.dedup();
            assert_eq!(s.len(), ra.selected.len(), "duplicate selection");
        }
    }

    #[test]
    fn failure_injection_shrinks_participation_but_never_to_zero() {
        let mut cfg = tiny_cfg(15);
        cfg.failure_prob = 0.7;
        cfg.rounds = 8;
        let mut s = Simulation::new(cfg, AlgorithmKind::FedAvg.build(&HyperParams::default()));
        s.run();
        let mut saw_shrunk = false;
        for r in s.records() {
            assert!(!r.selected.is_empty(), "round {} had no survivors", r.round);
            assert!(r.selected.len() <= 3);
            if r.selected.len() < 3 {
                saw_shrunk = true;
            }
        }
        assert!(
            saw_shrunk,
            "failure injection never dropped anyone at p=0.7"
        );
    }

    #[test]
    fn failure_prob_one_keeps_exactly_one_survivor() {
        let mut cfg = tiny_cfg(16);
        cfg.failure_prob = 1.0;
        cfg.rounds = 3;
        let mut s = Simulation::new(cfg, AlgorithmKind::FedAvg.build(&HyperParams::default()));
        s.run();
        for r in s.records() {
            assert_eq!(r.selected.len(), 1);
        }
    }

    #[test]
    fn lr_schedule_changes_trajectory() {
        use fedtrip_tensor::optim::LrSchedule;
        let mut cfg = tiny_cfg(17);
        cfg.rounds = 6;
        let mut constant =
            Simulation::new(cfg, AlgorithmKind::FedAvg.build(&HyperParams::default()));
        let mut decayed_cfg = cfg;
        decayed_cfg.lr_schedule = LrSchedule::StepDecay {
            every: 2,
            factor: 0.1,
        };
        let mut decayed = Simulation::new(
            decayed_cfg,
            AlgorithmKind::FedAvg.build(&HyperParams::default()),
        );
        constant.run();
        decayed.run();
        assert_ne!(constant.global_params(), decayed.global_params());
    }

    #[test]
    fn sync_virtual_time_is_positive_and_strictly_increasing() {
        let mut s = sim(AlgorithmKind::FedAvg, 18);
        s.run();
        let mut prev = 0.0;
        for r in s.records() {
            assert!(
                r.virtual_time > prev,
                "round {}: {}",
                r.round,
                r.virtual_time
            );
            assert_eq!(r.mean_staleness, 0.0);
            prev = r.virtual_time;
        }
        assert_eq!(s.virtual_time(), prev);
    }

    #[test]
    fn device_het_slows_the_virtual_clock_but_not_training() {
        let cfg = tiny_cfg(19);
        let mut het_cfg = cfg;
        het_cfg.device_het = 4.0;
        let mut homo = Simulation::new(cfg, AlgorithmKind::FedAvg.build(&HyperParams::default()));
        let mut het = Simulation::new(
            het_cfg,
            AlgorithmKind::FedAvg.build(&HyperParams::default()),
        );
        homo.run();
        het.run();
        // identical learning trajectory...
        assert_eq!(homo.global_params(), het.global_params());
        // ...but strictly more virtual time under slower devices
        assert!(het.virtual_time() > homo.virtual_time());
    }

    #[test]
    fn semiasync_mode_runs_and_reports_staleness() {
        let mut cfg = tiny_cfg(20);
        cfg.mode = RunMode::SemiAsync;
        cfg.device_het = 4.0;
        cfg.rounds = 8;
        let mut s = Simulation::new(cfg, AlgorithmKind::FedTrip.build(&HyperParams::default()));
        s.run();
        assert_eq!(s.records().len(), 8);
        let b = cfg.effective_buffer();
        for r in s.records() {
            assert!(!r.selected.is_empty());
            assert!(r.selected.len() <= b);
            assert!(r.accuracy.is_some());
            assert!(r.virtual_time > 0.0);
        }
        // with a 4x speed spread some fold must contain a stale update
        assert!(
            s.records().iter().any(|r| r.mean_staleness > 0.0),
            "no staleness ever observed in semi-async mode"
        );
    }

    #[test]
    fn q8_compression_shrinks_comm_and_reports_ratio() {
        let cfg = tiny_cfg(21);
        let mut q8_cfg = cfg;
        q8_cfg.compression = crate::compression::CompressionKind::Q8;
        q8_cfg.error_feedback = true;
        let mut dense = Simulation::new(cfg, AlgorithmKind::FedAvg.build(&HyperParams::default()));
        let mut q8 = Simulation::new(q8_cfg, AlgorithmKind::FedAvg.build(&HyperParams::default()));
        dense.run();
        q8.run();
        let d = dense.records().last().unwrap();
        let q = q8.records().last().unwrap();
        assert!(
            q.cum_comm_bytes < d.cum_comm_bytes,
            "{} vs {}",
            q.cum_comm_bytes,
            d.cum_comm_bytes
        );
        assert!(q.comm_bytes_up < d.comm_bytes_up);
        assert_eq!(d.compression_ratio, 1.0);
        // q8 is one byte per value plus an 8-byte header: just under 4x
        assert!(
            q.compression_ratio > 3.5 && q.compression_ratio < 4.0,
            "{}",
            q.compression_ratio
        );
        // ...and the compressed link shortens the round trip
        assert!(q8.virtual_time() < dense.virtual_time());
    }

    #[test]
    fn every_algorithm_completes_a_compressed_round() {
        for kind in AlgorithmKind::ALL {
            let mut cfg = tiny_cfg(22);
            cfg.compression = crate::compression::CompressionKind::Q8;
            cfg.error_feedback = true;
            let mut s = Simulation::new(cfg, kind.build(&HyperParams::default()));
            s.run_round();
            assert_eq!(s.records().len(), 1, "{}", kind.name());
            assert!(s.records()[0].accuracy.unwrap() > 0.0, "{}", kind.name());
        }
    }

    #[test]
    fn error_feedback_records_residuals_for_lossy_codecs_only() {
        let mut cfg = tiny_cfg(23);
        cfg.compression = crate::compression::CompressionKind::TopK(0.1);
        cfg.error_feedback = true;
        let mut s = Simulation::new(cfg, AlgorithmKind::FedTrip.build(&HyperParams::default()));
        s.run();
        assert!(
            s.client_states()
                .iter()
                .any(|(_, st)| st.residual.is_some()),
            "no residual recorded under top-k with error feedback"
        );
        // feedback off: residuals never materialize
        let mut cfg = tiny_cfg(23);
        cfg.compression = crate::compression::CompressionKind::TopK(0.1);
        let mut s = Simulation::new(cfg, AlgorithmKind::FedTrip.build(&HyperParams::default()));
        s.run();
        assert!(s
            .client_states()
            .iter()
            .all(|(_, st)| st.residual.is_none()));
    }

    #[test]
    fn delta_downlink_shrinks_comm_and_reports_ratio() {
        // full participation (K = N) makes the dense/delta schedule exact:
        // round 1 all joiners (dense), resyncs at 3 and 6 (dense), deltas
        // everywhere else
        let mut cfg = tiny_cfg(24);
        cfg.clients_per_round = 6;
        let mut delta_cfg = cfg;
        delta_cfg.downlink_compression = crate::compression::CompressionKind::Q8;
        delta_cfg.resync_interval = 3;
        delta_cfg.rounds = 6;
        let mut dense_cfg = cfg;
        dense_cfg.rounds = 6;
        let mut dense = Simulation::new(
            dense_cfg,
            AlgorithmKind::FedAvg.build(&HyperParams::default()),
        );
        let mut delta = Simulation::new(
            delta_cfg,
            AlgorithmKind::FedAvg.build(&HyperParams::default()),
        );
        dense.run();
        delta.run();
        let d = dense.records().last().unwrap();
        let q = delta.records().last().unwrap();
        assert!(
            q.cum_comm_bytes < d.cum_comm_bytes,
            "{} vs {}",
            q.cum_comm_bytes,
            d.cum_comm_bytes
        );
        // dense downlink reports exactly 1.0 every round
        for r in dense.records() {
            assert_eq!(r.compression_ratio_down, 1.0);
            assert!(r.comm_bytes_down > 0.0);
        }
        // delta rounds (2, 4, 5) charge the q8-encoded broadcast — just
        // under 4x smaller; dense rounds (1 joiners, 3 and 6 resyncs)
        // report exactly 1.0
        for r in delta.records() {
            match r.round {
                2 | 4 | 5 => assert!(
                    r.compression_ratio_down > 3.0,
                    "round {}: {}",
                    r.round,
                    r.compression_ratio_down
                ),
                _ => assert_eq!(
                    r.compression_ratio_down, 1.0,
                    "round {} should be dense",
                    r.round
                ),
            }
        }
        // resync round 3 re-anchors: epoch bumped twice over 6 rounds
        assert_eq!(delta.state().broadcast_epoch, 2);
    }

    #[test]
    fn every_round_resync_matches_dense_downlink_records() {
        // resync_interval = 1 forces a dense broadcast every round: the
        // delta machinery runs but every send is the full model, so the
        // learning trajectory and the accounting must equal the dense
        // downlink bit for bit (E = 1).
        let cfg = tiny_cfg(25);
        let mut delta_cfg = cfg;
        delta_cfg.downlink_compression = crate::compression::CompressionKind::Q8;
        delta_cfg.resync_interval = 1;
        let mut dense = Simulation::new(cfg, AlgorithmKind::FedTrip.build(&HyperParams::default()));
        let mut delta = Simulation::new(
            delta_cfg,
            AlgorithmKind::FedTrip.build(&HyperParams::default()),
        );
        dense.run();
        delta.run();
        assert_eq!(dense.global_params(), delta.global_params());
        for (a, b) in dense.records().iter().zip(delta.records()) {
            assert_eq!(a.accuracy, b.accuracy);
            assert_eq!(a.cum_comm_bytes, b.cum_comm_bytes);
            assert_eq!(a.comm_bytes_down, b.comm_bytes_down);
            assert_eq!(a.virtual_time, b.virtual_time);
        }
    }

    #[test]
    fn broadcast_view_plus_residual_equals_last_broadcast() {
        // server-side error-feedback mass conservation: after every round,
        // view + residual == the global model as of the last broadcast
        let mut cfg = tiny_cfg(26);
        cfg.downlink_compression = crate::compression::CompressionKind::Q4;
        cfg.resync_interval = 0;
        cfg.rounds = 5;
        let mut s = Simulation::new(cfg, AlgorithmKind::FedAvg.build(&HyperParams::default()));
        for _ in 0..5 {
            s.run_round();
            let st = s.state();
            let zero = vec![0.0f32; st.broadcast_view.len()];
            let residual = st.broadcast_residual.as_ref().unwrap_or(&zero);
            for ((&v, &r), &l) in st
                .broadcast_view
                .iter()
                .zip(residual)
                .zip(&st.broadcast_last)
            {
                assert!(
                    (v + r - l).abs() < 1e-3,
                    "view {v} + residual {r} != last broadcast {l}"
                );
            }
        }
    }

    #[test]
    fn effective_buffer_auto_rule() {
        let mut cfg = tiny_cfg(1);
        assert_eq!(cfg.effective_buffer(), 1); // K = 3 -> max(1, 1)
        cfg.clients_per_round = 3;
        cfg.async_buffer = 2;
        assert_eq!(cfg.effective_buffer(), 2);
    }
}
