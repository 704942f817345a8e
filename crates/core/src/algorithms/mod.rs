//! Federated optimization algorithms.
//!
//! The paper's contribution ([`FedTrip`]) plus every baseline of its
//! evaluation: [`FedAvg`], [`FedProx`], [`Moon`], [`FedDyn`], [`SlowMo`],
//! and the Appendix-A comparators [`Scaffold`] and [`MimeLite`].
//!
//! All methods implement the [`Algorithm`] trait: the engine hands each
//! selected client a model loaded with the global parameters and the method
//! runs local training however it likes (`local_train`, called from rayon
//! workers, hence `&self`), then the server **streams** the outcomes into
//! the next global model through a [`ServerFold`] — `server_begin` /
//! `server_fold` per arrival / `server_finish` (`&mut self` — server-side
//! state like SlowMo's momentum buffer lives in the algorithm struct). The
//! provided `server_update` drives the three hooks over a slice for tests
//! and simple embeddings. Per-client persistent state lives in the sparse
//! [`ClientStateStore`]: only clients that have ever participated occupy
//! memory, which is what lets federations scale to 10⁵ clients.

mod fedavg;
mod feddyn;
mod fedprox;
mod fedtrip;
mod mimelite;
mod moon;
mod scaffold;
mod slowmo;
#[cfg(test)]
pub(crate) mod testutil;

pub use fedavg::FedAvg;
pub use feddyn::FedDyn;
pub use fedprox::FedProx;
pub use fedtrip::{FedTrip, FedTripConfig, XiMode};
pub use mimelite::MimeLite;
pub use moon::Moon;
pub use scaffold::Scaffold;
pub use slowmo::SlowMo;

use crate::costs::{AttachCost, CostModel};
use fedtrip_data::loader::BatchIter;
use fedtrip_data::synth::{SampleRef, SyntheticVision};
use fedtrip_tensor::optim::{GradAdjust, Optimizer, SgdMomentum};
use fedtrip_tensor::rng::Prng;
use fedtrip_tensor::rng_tags;
use fedtrip_tensor::vecops;
use fedtrip_tensor::{Sequential, Tensor};
use serde::{Deserialize, Serialize};

/// A client's local shard: the dataset generator plus its sample references.
pub struct ClientData<'a> {
    /// The (shared, read-only) procedural dataset.
    pub dataset: &'a SyntheticVision,
    /// Samples owned by this client.
    pub refs: &'a [SampleRef],
}

/// Per-round, per-client context assembled by the engine.
#[derive(Debug, Clone)]
pub struct LocalContext<'a> {
    /// Communication round (1-based).
    pub round: usize,
    /// Client index within the federation.
    pub client_id: usize,
    /// Global model parameters at round start (`w^{t-1}`).
    pub global: &'a [f32],
    /// Rounds since this client last participated (the paper's `xi`);
    /// `None` on first participation.
    pub gap: Option<usize>,
    /// Local epochs per round.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Client learning rate.
    pub lr: f32,
    /// Momentum coefficient (methods that use SGDm).
    pub momentum: f32,
    /// Base seed for deriving data-shuffling streams.
    pub seed: u64,
}

impl LocalContext<'_> {
    /// Derive the shuffling RNG for a given epoch, deterministic in
    /// `(seed, round, client, epoch)` regardless of thread scheduling.
    pub fn epoch_rng(&self, epoch: usize) -> Prng {
        Prng::derive(
            self.seed,
            rng_tags::EPOCH_SHUFFLE,
            &[self.round as u64, self.client_id as u64, epoch as u64],
        )
    }
}

/// Persistent per-client state across rounds.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClientState {
    /// Round of last participation.
    pub last_round: Option<usize>,
    /// Historical local model `w̃_k` (FedTrip's negative anchor, MOON's
    /// previous representation model).
    pub historical: Option<Vec<f32>>,
    /// Per-client correction state (FedDyn `h_k`, SCAFFOLD `c_k`).
    pub correction: Option<Vec<f32>>,
    /// Error-feedback residual: the part of this client's last
    /// (compensated) upload the compression codec dropped, retransmitted
    /// on the next participation. `None` until the client first uploads
    /// under a lossy codec with error feedback enabled.
    pub residual: Option<Vec<f32>>,
    /// Broadcast sync epoch: which full-model resync generation this
    /// client's reconstructed downlink view belongs to. A client whose
    /// epoch differs from the server's current one (a churn joiner or
    /// anyone who missed a resync) receives an on-demand dense broadcast
    /// before any delta.
    /// `None` until the client first participates under a delta downlink;
    /// always `None` when the downlink is dense.
    pub sync_epoch: Option<u64>,
}

impl ClientState {
    /// `true` when this state is indistinguishable from a client that never
    /// participated — such entries need not be stored (or serialized) at
    /// all.
    pub fn is_vacant(&self) -> bool {
        self.last_round.is_none()
            && self.historical.is_none()
            && self.correction.is_none()
            && self.residual.is_none()
            && self.sync_epoch.is_none()
    }
}

/// Sparse per-client state storage.
///
/// The engine historically allocated a dense `Vec<ClientState>` — O(N)
/// entries, each able to hold up to three full model vectors — even though
/// only the `K` clients of each round ever touch their state. This store
/// keeps an entry **only for clients that have participated**: a client that
/// was never selected reads as [`ClientState::default`] without occupying
/// memory, so resident state is O(participants-ever), bounded by
/// `rounds × K`, regardless of federation size.
///
/// Iteration order is ascending client id (the map is a `BTreeMap`), which
/// keeps checkpoint serialization deterministic.
#[derive(Debug, Clone, Default)]
pub struct ClientStateStore {
    n_clients: usize,
    entries: std::collections::BTreeMap<usize, ClientState>,
}

impl ClientStateStore {
    /// An empty store for a federation of `n_clients` (no entries resident).
    pub fn new(n_clients: usize) -> Self {
        ClientStateStore {
            n_clients,
            entries: std::collections::BTreeMap::new(),
        }
    }

    /// Federation size (the *capacity*, not the resident entry count).
    pub fn n_clients(&self) -> usize {
        self.n_clients
    }

    /// Bind the store to a federation of `n_clients`. A deserialized store
    /// knows only its entries; checkpoint restore binds it to the
    /// configuration once every entry id has been validated against it.
    pub fn set_n_clients(&mut self, n_clients: usize) {
        self.n_clients = n_clients;
    }

    /// Number of resident entries (clients that have ever participated).
    pub fn resident(&self) -> usize {
        self.entries.len()
    }

    /// Read a client's state, if resident.
    pub fn get(&self, client: usize) -> Option<&ClientState> {
        self.entries.get(&client)
    }

    /// Remove and return a client's state (default for non-resident
    /// clients) so a training worker can own it — the sparse equivalent of
    /// `std::mem::take(&mut states[c])`.
    ///
    /// # Panics
    /// Panics when `client >= n_clients`.
    pub fn take(&mut self, client: usize) -> ClientState {
        assert!(
            client < self.n_clients,
            "client {client} out of range (n_clients {})",
            self.n_clients
        );
        self.entries.remove(&client).unwrap_or_default()
    }

    /// Return a client's state after training (the other half of
    /// [`ClientStateStore::take`]).
    ///
    /// # Panics
    /// Panics when `client >= n_clients`.
    pub fn put(&mut self, client: usize, state: ClientState) {
        assert!(
            client < self.n_clients,
            "client {client} out of range (n_clients {})",
            self.n_clients
        );
        self.entries.insert(client, state);
    }

    /// Resident entries in ascending client order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &ClientState)> {
        self.entries.iter().map(|(&c, s)| (c, s))
    }

    /// Resident entries in ascending client order, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut ClientState)> {
        self.entries.iter_mut().map(|(&c, s)| (c, s))
    }

    /// Force every client resident (with default states where absent).
    ///
    /// Semantically a no-op — a vacant resident entry behaves exactly like
    /// absence — which is precisely what the sparse≡dense equivalence tests
    /// exercise. O(N) memory; never used by the engine itself.
    pub fn prefill_dense(&mut self) {
        for c in 0..self.n_clients {
            self.entries.entry(c).or_default();
        }
    }
}

/// A store holding `entries` but bound to no federation yet (`n_clients`
/// 0) — the deserialized form, which checkpoint restore binds with
/// [`ClientStateStore::set_n_clients`].
impl FromIterator<(usize, ClientState)> for ClientStateStore {
    fn from_iter<I: IntoIterator<Item = (usize, ClientState)>>(entries: I) -> Self {
        ClientStateStore {
            n_clients: 0,
            entries: entries.into_iter().collect(),
        }
    }
}

/// What a client sends back to the server after local training.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalOutcome {
    /// Updated local parameters `w_k^t`.
    pub params: Vec<f32>,
    /// Number of local samples (the aggregation weight `|D_k|`).
    pub n_samples: usize,
    /// Mean training loss over the round's iterations.
    pub mean_loss: f64,
    /// Local SGD iterations executed.
    pub iterations: usize,
    /// Total local computation this round (model FLOPs + attach FLOPs).
    pub train_flops: f64,
    /// Optional auxiliary upload (SCAFFOLD's control-variate delta,
    /// MimeLite's full-batch gradient).
    pub aux: Option<Vec<f32>>,
    /// How many global-model versions elapsed between this client's
    /// dispatch and its aggregation. Always `0` under the synchronous
    /// scheduler; set by the semi-async scheduler at fold time. Algorithms
    /// never need to touch it.
    pub staleness: usize,
    /// Staleness-discount multiplier applied to this outcome's aggregation
    /// weight (`1.0` = undiscounted, the synchronous default; the
    /// semi-async scheduler sets `1 / (1 + staleness)^a`).
    pub agg_weight: f64,
    /// Whether this client's broadcast this round was a **dense** full-model
    /// send (`true`: dense downlink, a resync round, or an on-demand base
    /// for a joiner) rather than a compressed delta. Algorithms always set
    /// `true`; the executor downgrades it to `false` for in-sync clients
    /// under a delta downlink. Drives downlink byte/time accounting only.
    pub dense_down: bool,
}

/// Scalar cohort summary available *before* any outcome folds — what a
/// streaming server fold needs to know up front.
///
/// The scheduler computes it with a cheap pass over the cohort's scalars
/// (never the parameter vectors): in sync mode the cohort is the round's
/// survivors, in semi-async mode the buffered arrivals, both known before
/// the first vector is folded.
#[derive(Debug, Clone, Copy)]
pub struct FoldPlan {
    /// Number of outcomes that will fold.
    pub cohort: usize,
    /// How many of them carry an auxiliary upload (MimeLite's gradient
    /// mean divides by this).
    pub aux_count: usize,
    /// `Σ n_samples · agg_weight` over the cohort **in fold order** — the
    /// normalizer of the weighted parameter average.
    pub total_weight: f64,
}

impl FoldPlan {
    /// Summarize a cohort (iterate in fold order — the f64 sum order is
    /// part of the bit-reproducibility contract).
    pub fn for_outcomes<'a>(outcomes: impl Iterator<Item = &'a LocalOutcome>) -> FoldPlan {
        let mut plan = FoldPlan {
            cohort: 0,
            aux_count: 0,
            total_weight: 0.0,
        };
        for o in outcomes {
            plan.cohort += 1;
            plan.aux_count += usize::from(o.aux.is_some());
            plan.total_weight += o.n_samples as f64 * o.agg_weight;
        }
        plan
    }
}

/// Streaming server-fold accumulator: arrivals fold into a running
/// normalized-weight parameter sum **one at a time**, so the server never
/// has to hold a cohort of full parameter vectors to aggregate them.
///
/// The accumulation replicates [`weighted_param_average`] operation for
/// operation — each arrival's normalized weight
/// `n_samples · agg_weight / total_weight` (with `total_weight` from the
/// [`FoldPlan`]'s scalar pre-pass) scales its parameters into an f64
/// accumulator in fold order — so a streamed fold is bit-identical to the
/// historical collect-then-average, which the golden fixtures pin.
///
/// `extra` is a method-owned f32 scratch vector: server-stateful methods
/// (FedDyn's drift, SCAFFOLD's control-variate sum, MimeLite's gradient
/// mean) size it in [`Algorithm::server_begin`] and stream into it in
/// [`Algorithm::server_fold`], preserving their historical per-element f32
/// accumulation order exactly.
#[derive(Debug)]
pub struct ServerFold {
    plan: FoldPlan,
    acc: Vec<f64>,
    /// Method-owned streaming scratch (empty unless the method's
    /// [`Algorithm::server_begin`] sizes it).
    pub extra: Vec<f32>,
}

impl ServerFold {
    /// Start a fold of `plan.cohort` outcomes over `n_params` parameters.
    ///
    /// # Panics
    /// Panics on an empty cohort or non-positive total weight (the same
    /// invariants [`weighted_param_average`] asserts).
    pub fn begin(n_params: usize, plan: FoldPlan) -> ServerFold {
        assert!(plan.cohort > 0, "no outcomes to aggregate");
        assert!(
            plan.total_weight > 0.0,
            "aggregation weights must be positive"
        );
        ServerFold {
            plan,
            acc: vec![0.0f64; n_params],
            extra: Vec::new(),
        }
    }

    /// The cohort summary this fold was begun with.
    pub fn plan(&self) -> FoldPlan {
        self.plan
    }

    /// Parameter-vector length of this fold.
    pub fn n_params(&self) -> usize {
        self.acc.len()
    }

    /// Fold one arrival: its parameters into the running weighted average,
    /// then the method's own streaming hook ([`Algorithm::server_fold`]).
    /// `global` is the fold-start global model (what corrections measure
    /// drift against).
    ///
    /// # Panics
    /// Panics on a parameter-length mismatch.
    pub fn absorb<A: Algorithm + ?Sized>(
        &mut self,
        algorithm: &A,
        outcome: &LocalOutcome,
        global: &[f32],
    ) {
        assert_eq!(
            outcome.params.len(),
            self.acc.len(),
            "parameter vector length mismatch"
        );
        let w = outcome.n_samples as f64 * outcome.agg_weight / self.plan.total_weight;
        for (a, &v) in self.acc.iter_mut().zip(&outcome.params) {
            *a += w * v as f64;
        }
        algorithm.server_fold(self, outcome, global);
    }

    /// Merge another fold of the **same global model** into this one — the
    /// associative combine of the hierarchical (edge → root) aggregation
    /// tree.
    ///
    /// A partial fold is a *locally normalized* weighted sum: each of its
    /// arrivals was scaled by `w_i / W_partial` where `W_partial` is that
    /// fold's own plan weight. Two partial folds with weights `W_a`, `W_b`
    /// therefore recombine exactly as
    ///
    /// ```text
    /// acc = (W_a / (W_a + W_b)) · acc_a  +  (W_b / (W_a + W_b)) · acc_b
    /// ```
    ///
    /// after which the merged fold is again a locally normalized sum over
    /// the union cohort with weight `W_a + W_b` — the fold forms a
    /// commutative monoid up to float rounding. The method's own scratch
    /// combines first, via [`Algorithm::server_merge`], while both plans
    /// still describe their partial cohorts (MimeLite's recombination needs
    /// the per-side `aux_count`s).
    ///
    /// A degenerate tree of one fold performs **no** merge, which is what
    /// pins `E = 1` hierarchical runs bit-identical to the flat streaming
    /// fold. Merged multi-edge folds agree with the flat fold up to f64
    /// summation order (see `DESIGN.md` §Hierarchical aggregation).
    ///
    /// # Panics
    /// Panics on a parameter-length mismatch.
    pub fn merge<A: Algorithm + ?Sized>(&mut self, algorithm: &A, other: ServerFold) {
        assert_eq!(
            self.acc.len(),
            other.acc.len(),
            "cannot merge folds over different parameter counts"
        );
        algorithm.server_merge(self, &other);
        let (wa, wb) = (self.plan.total_weight, other.plan.total_weight);
        let total = wa + wb;
        let (fa, fb) = (wa / total, wb / total);
        for (a, &b) in self.acc.iter_mut().zip(&other.acc) {
            *a = fa * *a + fb * b;
        }
        self.plan.cohort += other.plan.cohort;
        self.plan.aux_count += other.plan.aux_count;
        self.plan.total_weight = total;
    }

    /// Finish the fold: the weighted parameter average (f64 accumulator
    /// cast back to f32).
    pub fn into_avg(self) -> Vec<f32> {
        self.acc.into_iter().map(|v| v as f32).collect()
    }

    /// Finish the fold keeping the method scratch: `(average, extra)`.
    pub fn into_parts(self) -> (Vec<f32>, Vec<f32>) {
        let extra = self.extra;
        (self.acc.into_iter().map(|v| v as f32).collect(), extra)
    }
}

/// A federated optimization method.
pub trait Algorithm: Send + Sync {
    /// Method name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Called once before the first round with the federation size and the
    /// model's parameter count, so server-side state (SCAFFOLD's control
    /// variate, FedDyn's `h`, SlowMo's momentum) can be sized.
    fn on_init(&mut self, _n_clients: usize, _n_params: usize) {}

    /// Export server-side state vectors for checkpointing (SlowMo's
    /// momentum buffer, FedDyn's `h`, SCAFFOLD's `c`, MimeLite's `s`).
    /// Stateless methods return an empty list.
    fn server_state(&self) -> Vec<Vec<f32>> {
        Vec::new()
    }

    /// Restore state previously exported by [`Algorithm::server_state`].
    /// Called after `on_init` when resuming from a checkpoint.
    fn restore_server_state(&mut self, _state: Vec<Vec<f32>>) {}

    /// Build the local optimizer. Default: SGD with momentum, the paper's
    /// standard choice; SlowMo/FedDyn/SCAFFOLD/MimeLite override to plain
    /// SGD per §V-A.
    fn make_optimizer(&self, lr: f32, momentum: f32) -> Box<dyn Optimizer> {
        Box::new(SgdMomentum::new(lr, momentum))
    }

    /// Run one round of local training. `net` arrives loaded with the
    /// global parameters. Called concurrently for different clients.
    fn local_train(
        &self,
        net: &mut Sequential,
        data: &ClientData<'_>,
        state: &mut ClientState,
        ctx: &LocalContext<'_>,
    ) -> LocalOutcome;

    /// Called when a server fold begins, before any outcome arrives — size
    /// the streaming scratch (`fold.extra`) here. Default: nothing.
    fn server_begin(&self, _fold: &mut ServerFold) {}

    /// Streaming hook: called once per folded arrival (in fold order) from
    /// [`ServerFold::absorb`], after the arrival's parameters entered the
    /// running average. Methods with server-side corrections accumulate
    /// their per-outcome terms into `fold.extra` here; the arrival's
    /// parameter vector is dropped right after this call. Default: nothing.
    fn server_fold(&self, _fold: &mut ServerFold, _outcome: &LocalOutcome, _global: &[f32]) {}

    /// Combine hook for hierarchical aggregation: fold `other`'s method
    /// scratch (`extra`) into `fold`'s, called from [`ServerFold::merge`]
    /// **before** the base accumulators and plans combine — both plans
    /// still describe their partial cohorts, which is what a count-weighted
    /// recombination (MimeLite) needs.
    ///
    /// Methods whose `server_begin` seeds `extra` with existing server
    /// state must take care not to double-count the seed (SCAFFOLD subtracts
    /// one copy of its control variate per merge). Methods without fold
    /// scratch keep the default no-op.
    fn server_merge(&self, _fold: &mut ServerFold, _other: &ServerFold) {}

    /// Finish a fold: turn the accumulated average (and scratch) into the
    /// next global model, updating any server-side state. The default is
    /// the sample-count-weighted average of Eq. 2.
    fn server_finish(&mut self, global: &mut Vec<f32>, fold: ServerFold, _round: usize) {
        *global = fold.into_avg();
    }

    /// The Appendix-A attaching-operation cost of this method.
    fn attach_cost(&self, m: &CostModel) -> AttachCost;
}

/// Fold a full cohort at once by driving an algorithm's streaming hooks —
/// [`Algorithm::server_begin`] / [`Algorithm::server_fold`] /
/// [`Algorithm::server_finish`] — over a slice (unit tests, simple
/// embeddings). The engine itself streams arrivals through a
/// [`ServerFold`] instead of collecting them.
///
/// Deliberately a **free function**, not a trait method: the engine only
/// ever calls the three streaming hooks, so an overridable `server_update`
/// would be a silent no-op under the engine — methods must implement their
/// server step through the hooks.
pub fn server_update<A: Algorithm + ?Sized>(
    algorithm: &mut A,
    global: &mut Vec<f32>,
    outcomes: &[LocalOutcome],
    round: usize,
) {
    let plan = FoldPlan::for_outcomes(outcomes.iter());
    let mut fold = ServerFold::begin(global.len(), plan);
    algorithm.server_begin(&mut fold);
    for o in outcomes {
        fold.absorb(&*algorithm, o, global);
    }
    algorithm.server_finish(global, fold, round);
}

/// Sample-count-weighted parameter average (Eq. 2 with `a_k = |D_k| / |D_S|`),
/// modulated by each outcome's staleness discount `agg_weight` and
/// renormalized, so the effective weights always sum to exactly 1
/// (sum-preserving aggregation). With every `agg_weight == 1.0` — the
/// synchronous default — this is bit-identical to the undiscounted Eq. 2
/// average.
pub fn weighted_param_average(outcomes: &[LocalOutcome]) -> Vec<f32> {
    assert!(!outcomes.is_empty(), "no outcomes to aggregate");
    let total: f64 = outcomes
        .iter()
        .map(|o| o.n_samples as f64 * o.agg_weight)
        .sum();
    assert!(total > 0.0, "aggregation weights must be positive");
    let inputs: Vec<&[f32]> = outcomes.iter().map(|o| o.params.as_slice()).collect();
    let weights: Vec<f64> = outcomes
        .iter()
        .map(|o| o.n_samples as f64 * o.agg_weight / total)
        .collect();
    vecops::weighted_average(&inputs, &weights)
}

/// The shared local-SGD loop: `epochs` passes over the client's shuffled
/// data, one optimizer step per mini-batch. The algorithm's gradient
/// adjustment (FedProx / FedTrip / FedDyn / SCAFFOLD / MimeLite attach
/// here) is fused into the optimizer update via
/// [`Optimizer::step_adjusted`] — no flatten/scatter round-trip, no
/// allocation, and the raw gradient buffers stay untouched.
///
/// The mini-batch tensor and label vector are reused across every batch
/// and epoch, so steady-state iterations only allocate in the per-epoch
/// shuffle ([`BatchIter::new`] clones the sample refs).
///
/// Returns `(iterations, samples_processed, mean_loss)`.
pub fn run_local_sgd(
    net: &mut Sequential,
    data: &ClientData<'_>,
    ctx: &LocalContext<'_>,
    opt: &mut dyn Optimizer,
    adjust: &GradAdjust<'_>,
) -> (usize, usize, f64) {
    let mut iterations = 0usize;
    let mut samples = 0usize;
    let mut loss_sum = 0.0f64;
    let mut x = Tensor::zeros(&[1]);
    let mut y: Vec<usize> = Vec::new();
    for epoch in 0..ctx.epochs {
        let mut rng = ctx.epoch_rng(epoch);
        let mut batches = BatchIter::new(data.dataset, data.refs, ctx.batch_size, &mut rng);
        while batches.next_into(&mut x, &mut y) {
            net.zero_grads();
            let loss = net.train_step(&x, &y);
            opt.step_adjusted(net, adjust);
            iterations += 1;
            samples += y.len();
            loss_sum += loss;
        }
    }
    let mean_loss = if iterations > 0 {
        loss_sum / iterations as f64
    } else {
        0.0
    };
    (iterations, samples, mean_loss)
}

/// Baseline model FLOPs for a local round that processed `samples` samples.
pub fn model_train_flops(net: &Sequential, samples: usize) -> f64 {
    samples as f64 * (net.flops_forward() + net.flops_backward()) as f64
}

/// The methods of the paper's evaluation, as a closed enum for experiment
/// configs and CLI parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlgorithmKind {
    /// FedAvg (McMahan et al., 2017) — the FL baseline.
    FedAvg,
    /// FedProx (Li et al., 2020) — proximal regularization.
    FedProx,
    /// FedTrip (this paper) — triplet regularization.
    FedTrip,
    /// MOON (Li et al., 2021) — model-contrastive representation learning.
    Moon,
    /// FedDyn (Acar et al., 2021) — dynamic regularization.
    FedDyn,
    /// SlowMo (Wang et al., 2019) — server-side slow momentum.
    SlowMo,
    /// SCAFFOLD (Karimireddy et al., 2020) — control variates (Appendix A).
    Scaffold,
    /// MimeLite (Karimireddy et al., 2020) — server statistics (Appendix A).
    MimeLite,
}

impl AlgorithmKind {
    /// The six methods of the paper's main evaluation (Tables IV-VII).
    pub const EVALUATED: [AlgorithmKind; 6] = [
        AlgorithmKind::FedTrip,
        AlgorithmKind::FedAvg,
        AlgorithmKind::FedProx,
        AlgorithmKind::SlowMo,
        AlgorithmKind::Moon,
        AlgorithmKind::FedDyn,
    ];

    /// All eight implemented methods (adds the Appendix-A comparators).
    pub const ALL: [AlgorithmKind; 8] = [
        AlgorithmKind::FedTrip,
        AlgorithmKind::FedAvg,
        AlgorithmKind::FedProx,
        AlgorithmKind::SlowMo,
        AlgorithmKind::Moon,
        AlgorithmKind::FedDyn,
        AlgorithmKind::Scaffold,
        AlgorithmKind::MimeLite,
    ];

    /// Display name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmKind::FedAvg => "FedAvg",
            AlgorithmKind::FedProx => "FedProx",
            AlgorithmKind::FedTrip => "FedTrip",
            AlgorithmKind::Moon => "MOON",
            AlgorithmKind::FedDyn => "FedDyn",
            AlgorithmKind::SlowMo => "SlowMo",
            AlgorithmKind::Scaffold => "SCAFFOLD",
            AlgorithmKind::MimeLite => "MimeLite",
        }
    }

    /// Parse a (case-insensitive) method name.
    pub fn parse(s: &str) -> Option<AlgorithmKind> {
        let l = s.to_ascii_lowercase();
        Some(match l.as_str() {
            "fedavg" => AlgorithmKind::FedAvg,
            "fedprox" => AlgorithmKind::FedProx,
            "fedtrip" => AlgorithmKind::FedTrip,
            "moon" => AlgorithmKind::Moon,
            "feddyn" => AlgorithmKind::FedDyn,
            "slowmo" => AlgorithmKind::SlowMo,
            "scaffold" => AlgorithmKind::Scaffold,
            "mimelite" => AlgorithmKind::MimeLite,
            _ => return None,
        })
    }

    /// Check the hyper-parameters this method's constructor asserts on, so
    /// that a bad flag or snapshot surfaces as an error before
    /// [`AlgorithmKind::build`] panics. Fields the method does not read are
    /// not checked.
    pub fn validate(&self, hp: &HyperParams) -> Result<(), String> {
        let check = |ok: bool, msg: &str| if ok { Ok(()) } else { Err(msg.to_string()) };
        let unit = |beta: f32| (0.0..1.0).contains(&beta);
        match self {
            AlgorithmKind::FedAvg | AlgorithmKind::Scaffold => Ok(()),
            AlgorithmKind::FedProx => {
                check(hp.fedprox_mu >= 0.0, "FedProx mu must be non-negative")
            }
            AlgorithmKind::FedTrip => {
                check(hp.fedtrip_mu >= 0.0, "FedTrip mu must be non-negative")?;
                match hp.xi_mode {
                    XiMode::Fixed(xi) => check(xi >= 0.0, "fixed xi must be non-negative"),
                    XiMode::Gap | XiMode::RawGap => Ok(()),
                }
            }
            AlgorithmKind::Moon => {
                check(hp.moon_mu >= 0.0, "MOON mu must be non-negative")?;
                check(hp.moon_tau > 0.0, "MOON tau must be positive")
            }
            AlgorithmKind::FedDyn => check(hp.feddyn_alpha > 0.0, "FedDyn alpha must be positive"),
            AlgorithmKind::SlowMo => {
                check(unit(hp.slowmo_beta), "SlowMo beta must be in [0,1)")?;
                check(hp.slowmo_lr > 0.0, "SlowMo server lr must be positive")
            }
            AlgorithmKind::MimeLite => check(unit(hp.mime_beta), "MimeLite beta must be in [0,1)"),
        }
    }

    /// Instantiate the method with the given hyper-parameters.
    pub fn build(&self, hp: &HyperParams) -> Box<dyn Algorithm> {
        match self {
            AlgorithmKind::FedAvg => Box::new(FedAvg::new()),
            AlgorithmKind::FedProx => Box::new(FedProx::new(hp.fedprox_mu)),
            AlgorithmKind::FedTrip => Box::new(FedTrip::new(FedTripConfig {
                mu: hp.fedtrip_mu,
                xi_mode: hp.xi_mode,
            })),
            AlgorithmKind::Moon => Box::new(Moon::new(hp.moon_mu, hp.moon_tau)),
            AlgorithmKind::FedDyn => Box::new(FedDyn::new(hp.feddyn_alpha)),
            AlgorithmKind::SlowMo => Box::new(SlowMo::new(hp.slowmo_beta, hp.slowmo_lr)),
            AlgorithmKind::Scaffold => Box::new(Scaffold::new()),
            AlgorithmKind::MimeLite => Box::new(MimeLite::new(hp.mime_beta)),
        }
    }
}

/// Hyper-parameters for all methods, with the defaults of §V-A.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HyperParams {
    /// FedTrip `mu` (paper: 1.0 for MLP experiments, 0.4 otherwise).
    pub fedtrip_mu: f32,
    /// FedTrip `xi` mode (paper: the participation gap).
    pub xi_mode: XiMode,
    /// FedProx `mu` (paper: 0.1).
    pub fedprox_mu: f32,
    /// MOON `mu` (paper: 1.0).
    pub moon_mu: f32,
    /// MOON temperature `tau` (paper: 0.5).
    pub moon_tau: f32,
    /// FedDyn `alpha` (paper: 1.0 on MNIST, 0.1 elsewhere).
    pub feddyn_alpha: f32,
    /// SlowMo momentum `beta`.
    pub slowmo_beta: f32,
    /// SlowMo server learning rate.
    pub slowmo_lr: f32,
    /// MimeLite server-statistics momentum.
    pub mime_beta: f32,
}

impl Default for HyperParams {
    fn default() -> Self {
        HyperParams {
            fedtrip_mu: 0.4,
            xi_mode: XiMode::Gap,
            fedprox_mu: 0.1,
            moon_mu: 1.0,
            moon_tau: 0.5,
            feddyn_alpha: 0.1,
            slowmo_beta: 0.5,
            slowmo_lr: 1.0,
            mime_beta: 0.9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_round_trips() {
        for k in AlgorithmKind::ALL {
            assert_eq!(AlgorithmKind::parse(k.name()), Some(k));
            assert_eq!(AlgorithmKind::parse(&k.name().to_uppercase()), Some(k));
        }
        assert_eq!(AlgorithmKind::parse("nope"), None);
    }

    fn outcome_with_weight(params: Vec<f32>, n: usize, agg_weight: f64) -> LocalOutcome {
        LocalOutcome {
            params,
            n_samples: n,
            mean_loss: 0.0,
            iterations: 1,
            train_flops: 0.0,
            aux: None,
            staleness: 0,
            agg_weight,
            dense_down: true,
        }
    }

    #[test]
    fn weighted_average_respects_sample_counts() {
        let avg = weighted_param_average(&[
            outcome_with_weight(vec![0.0, 0.0], 100, 1.0),
            outcome_with_weight(vec![4.0, 8.0], 300, 1.0),
        ]);
        assert_eq!(avg, vec![3.0, 6.0]);
    }

    #[test]
    fn weighted_average_applies_staleness_discount() {
        // discounting the second outcome to 1/3 makes the two contributions
        // equal: 100 * 1.0 == 300 * (1/3)
        let avg = weighted_param_average(&[
            outcome_with_weight(vec![0.0, 0.0], 100, 1.0),
            outcome_with_weight(vec![4.0, 8.0], 300, 1.0 / 3.0),
        ]);
        for (got, want) in avg.iter().zip([2.0f32, 4.0]) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn every_kind_builds() {
        let hp = HyperParams::default();
        for k in AlgorithmKind::ALL {
            let alg = k.build(&hp);
            assert_eq!(alg.name(), k.name());
        }
    }

    #[test]
    fn validate_rejects_only_what_the_method_reads() {
        let hp = HyperParams::default();
        for k in AlgorithmKind::ALL {
            assert_eq!(k.validate(&hp), Ok(()), "{}", k.name());
        }
        for mu in [-1.0, f32::NAN] {
            let bad = HyperParams {
                fedtrip_mu: mu,
                ..hp
            };
            let err = AlgorithmKind::FedTrip.validate(&bad).unwrap_err();
            assert_eq!(err, "FedTrip mu must be non-negative");
            assert_eq!(AlgorithmKind::Moon.validate(&bad), Ok(()));
        }
        type Corrupt = fn(&mut HyperParams);
        let cases: [(AlgorithmKind, Corrupt); 7] = [
            (AlgorithmKind::FedTrip, |h| h.xi_mode = XiMode::Fixed(-0.5)),
            (AlgorithmKind::FedProx, |h| h.fedprox_mu = -0.1),
            (AlgorithmKind::Moon, |h| h.moon_tau = 0.0),
            (AlgorithmKind::FedDyn, |h| h.feddyn_alpha = 0.0),
            (AlgorithmKind::SlowMo, |h| h.slowmo_beta = 1.0),
            (AlgorithmKind::SlowMo, |h| h.slowmo_lr = f32::NAN),
            (AlgorithmKind::MimeLite, |h| h.mime_beta = -0.1),
        ];
        for (kind, corrupt) in cases {
            let mut bad = hp;
            corrupt(&mut bad);
            assert!(kind.validate(&bad).is_err(), "{}: {bad:?}", kind.name());
        }
    }

    #[test]
    fn defaults_match_paper_section_5a() {
        let hp = HyperParams::default();
        assert_eq!(hp.fedprox_mu, 0.1);
        assert_eq!(hp.moon_mu, 1.0);
        assert_eq!(hp.moon_tau, 0.5);
        assert_eq!(hp.fedtrip_mu, 0.4);
    }
}
