//! Aggregation scheduling: *when* client results fold into the global model.
//!
//! [`Synchronous`] is the paper's barriered round loop (§III-A); a golden
//! regression test (`crates/core/tests/golden_sync.rs`) pins its records
//! bit for bit.
//!
//! [`SemiAsync`] is a FedBuff-style buffered aggregator (Nguyen et al.,
//! *Federated Learning with Buffered Asynchronous Aggregation*): clients
//! train continuously; the server folds the first `B` arrivals by virtual
//! completion time, discounting an update that trained against a global
//! model `s` versions old by `1 / (1 + s)^a`. Under heterogeneous device
//! profiles this trades some statistical efficiency per fold for not
//! waiting on stragglers, which lowers the virtual wall-clock to a target
//! accuracy — the practicality concern FedTrip's resource argument targets.
//!
//! ```
//! use fedtrip_core::runtime::{staleness_weight, Scheduler, SemiAsync, Synchronous};
//!
//! // fresh updates are never discounted; stale ones decay polynomially
//! assert_eq!(staleness_weight(0, 0.5), 1.0);
//! assert!(staleness_weight(3, 0.5) < staleness_weight(1, 0.5));
//!
//! // schedulers are trait objects the engine picks by `RunMode`
//! let sync: Box<dyn Scheduler> = Box::new(Synchronous);
//! assert_eq!(sync.name(), "sync");
//! let semi: Box<dyn Scheduler> = Box::new(SemiAsync::new(2, 0.5));
//! assert_eq!(semi.name(), "semiasync");
//! ```

use super::availability::UtilityTable;
use super::clock::{DeviceProfiles, VirtualClock};
use super::edge::EdgeTier;
use super::executor::ClientExecutor;
use super::sampler::Sampler;
use crate::algorithms::{Algorithm, ClientStateStore, LocalOutcome, ServerFold};
use crate::costs::RoundCosts;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Staleness-discounted aggregation weight `1 / (1 + s)^a`.
///
/// Positive for every `s`, monotone non-increasing in `s` (strictly
/// decreasing for `a > 0`), and exactly `1` for fresh updates (`s = 0`) or
/// a disabled discount (`a = 0`).
pub fn staleness_weight(staleness: usize, exponent: f32) -> f64 {
    (1.0 + staleness as f64).powf(-(exponent as f64))
}

/// Everything a scheduler may touch during one server step, borrowed from
/// the engine. Fields are split borrows of the
/// [`Simulation`](crate::engine::Simulation) so the scheduler itself stays
/// free of engine internals.
pub struct RuntimeCtx<'a> {
    /// Local-training fan-out.
    pub exec: ClientExecutor<'a>,
    /// Participation (selection + failure injection).
    pub sampler: &'a Sampler,
    /// Per-client device capabilities (derived lazily — O(1) per lookup).
    pub profiles: &'a DeviceProfiles,
    /// The federated method.
    pub algorithm: &'a dyn Algorithm,
    /// Virtual wall-clock (advanced by the scheduler).
    pub clock: &'a mut VirtualClock,
    /// Global parameters at step start.
    pub global: &'a [f32],
    /// Sparse per-client persistent states.
    pub states: &'a mut ClientStateStore,
    /// What this round charges on the wire (client bytes, edge links).
    pub costs: RoundCosts,
    /// The hierarchical aggregation tier (a single-edge tier is the flat
    /// fold, bit for bit).
    pub edges: &'a mut EdgeTier,
    /// Per-client statistical utility (most recent observed loss) for the
    /// Oort selection strategy; read-only during the step, updated by the
    /// engine from the fold stats afterwards.
    pub utility: &'a UtilityTable,
    /// The scheduler's position — fold counter, in-flight and buffered
    /// jobs. It lives in the run state, so a checkpoint carries it and the
    /// schedulers themselves keep only their parameters.
    pub scheduler: &'a mut SchedulerState,
}

impl RuntimeCtx<'_> {
    /// Train `clients` as server step `t`, and time each one on its own
    /// device: its compute plus the bytes it exchanged
    /// ([`RoundCosts::client`]). Outcomes and durations are in `clients`
    /// order.
    fn train_timed(&mut self, t: usize, clients: &[usize]) -> (Vec<LocalOutcome>, Vec<f64>) {
        let outcomes = self
            .exec
            .train_batch(self.algorithm, self.global, self.states, clients, t);
        let durations = outcomes
            .iter()
            .zip(clients)
            .map(|(o, &c)| {
                self.profiles
                    .get(c)
                    .duration(o.train_flops, self.costs.client(o.dense_down))
            })
            .collect();
        (outcomes, durations)
    }

    /// Stream a cohort of outcomes (already in arrival order, with
    /// `staleness` / `agg_weight` assigned) through the edge tier: outcomes
    /// shard across the edge aggregators by `client mod E`, each shard
    /// folds into its own streaming [`ServerFold`] — one parameter vector
    /// dropped per absorb, so no node ever holds its cohort's parameters
    /// beyond what training itself produced — and the root merges the edge
    /// summaries. Returns the merged fold, per-outcome scalars in
    /// shard-major order, and the ascending active-edge list.
    fn stream_fold(
        &mut self,
        clients: &[usize],
        outcomes: Vec<LocalOutcome>,
    ) -> (ServerFold, Vec<FoldStats>, Vec<usize>) {
        self.edges
            .fold_streamed(self.algorithm, self.global, clients, outcomes)
    }
}

/// Per-outcome scalars the engine needs for its round accounting — what is
/// left of a [`LocalOutcome`] once its vectors have been streamed into the
/// fold.
#[derive(Debug, Clone, Copy)]
pub struct FoldStats {
    /// The client that produced the outcome (utility-table attribution —
    /// multi-edge folds reorder shard-major, so position alone cannot
    /// identify the client).
    pub client: usize,
    /// Mean local training loss.
    pub mean_loss: f64,
    /// Local computation (model FLOPs + attach FLOPs).
    pub train_flops: f64,
    /// Global-model versions between dispatch and fold.
    pub staleness: usize,
    /// Whether this client received a dense full-model broadcast (rather
    /// than a compressed delta) this round — drives the engine's downlink
    /// byte accounting.
    pub dense_down: bool,
}

/// What one server step folded.
pub struct StepOutput {
    /// The streaming aggregation state, ready for
    /// [`Algorithm::server_finish`] — parameter vectors have already been
    /// folded in (in selection order for [`Synchronous`], virtual-arrival
    /// order for [`SemiAsync`], with `staleness` / `agg_weight` applied).
    pub fold: ServerFold,
    /// Per-outcome accounting scalars, in fold order.
    pub folded: Vec<FoldStats>,
    /// The clients that folded this step, in arrival order (which is fold
    /// order when `E = 1`; multi-edge folds reorder shard-major).
    pub participants: Vec<usize>,
    /// Edge aggregators that participated in this fold (each one shipped a
    /// summary uplink to the root). Always `1` for a single-edge tier.
    pub edges_active: usize,
}

/// Serializable scheduler position, part of the run state.
///
/// [`Synchronous`] never touches it (it stays empty); [`SemiAsync`] keeps
/// its fold counter plus the in-flight and buffered jobs here, so a
/// restored run replays bit-identically.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SchedulerState {
    /// Completed folds (the global model's version).
    pub version: usize,
    /// Jobs still training, with precomputed outcomes and finish times.
    pub in_flight: Vec<Job>,
    /// Arrivals awaiting the next fold.
    pub buffer: Vec<Job>,
}

/// One dispatched client: where it started and when it will report back.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Job {
    /// The client index.
    pub client: usize,
    /// Global-model version the client trained against.
    pub dispatch_version: usize,
    /// Virtual instant the result arrives at the server.
    pub finish: f64,
    /// The training result (computed eagerly at dispatch — training is a
    /// pure function of the dispatch-time global model and client state).
    pub outcome: LocalOutcome,
}

/// Owns *when* client results fold into the global model.
pub trait Scheduler: Send {
    /// Scheduler name (for logs and reports).
    fn name(&self) -> &'static str;

    /// Execute one server step: train / collect arrivals, advance the
    /// virtual clock, and return the outcomes the engine should fold.
    fn step(&self, t: usize, rt: &mut RuntimeCtx<'_>) -> StepOutput;
}

/// The paper's synchronous round loop: select, train everyone, wait for the
/// slowest participant (barrier), fold all outcomes at once.
#[derive(Debug, Clone, Copy, Default)]
pub struct Synchronous;

impl Scheduler for Synchronous {
    fn name(&self) -> &'static str {
        "sync"
    }

    fn step(&self, t: usize, rt: &mut RuntimeCtx<'_>) -> StepOutput {
        let selected = rt.sampler.participants_with(t, rt.utility);
        let (outcomes, durs) = rt.train_timed(t, &selected);
        // deadline cutoff: clients that would report after the deadline
        // are dropped from the fold (their work is never received, so it
        // is not charged); when *everyone* would miss it, the fastest
        // client is kept so the round still aggregates. `deadline == 0`
        // means no deadline: an infinite one keeps the whole cohort
        let deadline = if rt.exec.cfg.deadline_secs > 0.0 {
            rt.exec.cfg.deadline_secs as f64
        } else {
            f64::INFINITY
        };
        let mut keep: Vec<bool> = durs.iter().map(|&d| d <= deadline).collect();
        if keep.iter().all(|&k| !k) {
            let mut fastest = 0;
            for (i, &d) in durs.iter().enumerate() {
                if d < durs[fastest] {
                    fastest = i;
                }
            }
            keep[fastest] = true;
        }
        // per-edge barrier: each edge aggregator waits for its slowest
        // *reporting* cohort member (a single-edge tier reduces to the
        // global barrier — the same running f64::max over the same
        // sequence); an edge that dropped a straggler waited until the
        // deadline before giving up on it
        let mut edge_dt: BTreeMap<usize, f64> = BTreeMap::new();
        for ((&d, &c), &k) in durs.iter().zip(&selected).zip(&keep) {
            let slot = edge_dt.entry(rt.edges.edge_of(c)).or_insert(0.0f64);
            *slot = slot.max(if k { d } else { deadline });
        }
        let durations: Vec<(usize, f64)> = edge_dt.into_iter().collect();
        rt.edges
            .advance_round(rt.clock, &durations, rt.costs.edge_secs);
        let mut kept_clients = Vec::with_capacity(selected.len());
        let mut kept_outcomes = Vec::with_capacity(selected.len());
        for ((o, &c), &k) in outcomes.into_iter().zip(&selected).zip(&keep) {
            if k {
                kept_clients.push(c);
                kept_outcomes.push(o);
            }
        }
        let (fold, folded, active) = rt.stream_fold(&kept_clients, kept_outcomes);
        StepOutput {
            fold,
            folded,
            participants: kept_clients,
            edges_active: active.len(),
        }
    }
}

/// FedBuff-style buffered semi-asynchronous aggregation.
///
/// Keeps `clients_per_round` clients training at all times. Each server
/// step tops the in-flight pool back up from the idle clients (new
/// dispatches train against the *current* global model), then pops arrivals
/// in virtual-completion order until `buffer_size` results are buffered,
/// and folds them with staleness-discounted weights. One engine round ==
/// one fold, so `RoundRecord`s keep their meaning across modes.
///
/// **Caveat for server-stateful corrections:** the staleness discount is
/// exact for the streamed parameter average every method funnels through
/// (the [`ServerFold`] accumulation), but methods whose `server_fold` also
/// interprets outcomes *relative to the current global* — FedDyn's `h`
/// drift, SCAFFOLD's control-variate delta, MimeLite's momentum statistics
/// — see the fold-time global rather than the (older) model a stale client
/// actually trained from. Under staleness those corrections absorb the
/// server's own inter-fold movement: a modeling approximation inherent to
/// running sync-designed corrections asynchronously (an exact treatment
/// would need a per-job global snapshot at dispatch). All eight methods
/// run and converge; interpret their server-state dynamics under high
/// staleness with this in mind.
#[derive(Debug, Clone, Copy)]
pub struct SemiAsync {
    buffer_size: usize,
    staleness_exponent: f32,
}

impl SemiAsync {
    /// Create a semi-async scheduler folding `buffer_size` arrivals per
    /// step with discount exponent `staleness_exponent`.
    ///
    /// # Panics
    /// Panics when `buffer_size == 0` or the exponent is negative.
    pub fn new(buffer_size: usize, staleness_exponent: f32) -> Self {
        assert!(buffer_size > 0, "buffer_size must be positive");
        assert!(
            staleness_exponent >= 0.0,
            "staleness exponent must be non-negative"
        );
        SemiAsync {
            buffer_size,
            staleness_exponent,
        }
    }

    /// Dispatch `batch` at the current clock against the current global.
    fn dispatch(t: usize, rt: &mut RuntimeCtx<'_>, batch: &[usize]) {
        if batch.is_empty() {
            return;
        }
        let (outcomes, durations) = rt.train_timed(t, batch);
        for ((outcome, duration), &client) in outcomes.into_iter().zip(durations).zip(batch) {
            rt.scheduler.in_flight.push(Job {
                client,
                dispatch_version: rt.scheduler.version,
                finish: rt.clock.now() + duration,
                outcome,
            });
        }
    }

    /// Index of the next arrival: earliest finish time, ties broken by
    /// client index (both deterministic), so pop order never depends on
    /// container order.
    fn next_arrival(in_flight: &[Job]) -> Option<usize> {
        in_flight
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                #[expect(
                    clippy::expect_used,
                    reason = "finish times are finite by construction"
                )]
                a.finish
                    .partial_cmp(&b.finish)
                    .expect("finite finish times")
                    .then(a.client.cmp(&b.client))
            })
            .map(|(i, _)| i)
    }
}

impl Scheduler for SemiAsync {
    fn name(&self) -> &'static str {
        "semiasync"
    }

    fn step(&self, t: usize, rt: &mut RuntimeCtx<'_>) -> StepOutput {
        // 1. top the in-flight pool back up from idle clients; the initial
        //    cohort (t = 1) is just the degenerate case of an empty pool.
        //    The busy list is at most K entries, and `select_idle` never
        //    materializes the idle pool, so this step costs O(K) — not
        //    O(N) — per fold.
        let desired = rt.exec.cfg.clients_per_round;
        let deficit = desired.saturating_sub(rt.scheduler.in_flight.len());
        if deficit > 0 {
            let mut busy: Vec<usize> = rt.scheduler.in_flight.iter().map(|j| j.client).collect();
            busy.sort_unstable();
            let picked = rt.sampler.select_idle(t, &busy, deficit);
            if !picked.is_empty() {
                let batch = rt.sampler.apply_failures(t, &picked);
                Self::dispatch(t, rt, &batch);
            }
        }

        // 2. collect arrivals in virtual-completion order until the buffer
        //    holds B results (or nothing is left in flight).
        let jobs = &mut *rt.scheduler;
        while jobs.buffer.len() < self.buffer_size && !jobs.in_flight.is_empty() {
            #[expect(
                clippy::expect_used,
                reason = "loop condition keeps in_flight non-empty"
            )]
            let idx = Self::next_arrival(&jobs.in_flight).expect("in_flight non-empty");
            let job = jobs.in_flight.swap_remove(idx);
            rt.clock.advance_to(job.finish);
            jobs.buffer.push(job);
        }

        // 3. fold: a scalar pass assigns staleness/weights relative to the
        //    current version, then each arrival streams into the running
        //    weighted sum and its parameter vector is released.
        for job in &mut jobs.buffer {
            let staleness = jobs.version - job.dispatch_version;
            job.outcome.staleness = staleness;
            job.outcome.agg_weight = staleness_weight(staleness, self.staleness_exponent);
        }
        let participants: Vec<usize> = jobs.buffer.iter().map(|j| j.client).collect();
        let outcomes: Vec<LocalOutcome> = jobs.buffer.drain(..).map(|j| j.outcome).collect();
        let (fold, folded, active) = rt.stream_fold(&participants, outcomes);
        // 4. with a real edge tier (E > 1) the participating edges relay
        //    the buffered arrivals: each catches up to the root (arrivals
        //    already advanced it) and ships its summary uplink. A
        //    single-edge tier skips this entirely — the root is colocated.
        if rt.edges.n_edges() > 1 {
            let durations: Vec<(usize, f64)> = active.iter().map(|&e| (e, 0.0)).collect();
            rt.edges
                .advance_round(rt.clock, &durations, rt.costs.edge_secs);
        }
        rt.scheduler.version += 1;
        StepOutput {
            fold,
            folded,
            participants,
            edges_active: active.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staleness_weight_is_positive_and_decreasing() {
        let mut prev = f64::INFINITY;
        for s in 0..50 {
            let w = staleness_weight(s, 0.5);
            assert!(w > 0.0);
            assert!(w < prev);
            prev = w;
        }
    }

    #[test]
    fn fresh_updates_are_undiscounted() {
        for a in [0.0f32, 0.5, 1.0, 3.0] {
            assert_eq!(staleness_weight(0, a), 1.0);
        }
        for s in 0..20 {
            assert_eq!(staleness_weight(s, 0.0), 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "buffer_size")]
    fn semiasync_rejects_empty_buffer() {
        let _ = SemiAsync::new(0, 0.5);
    }
}
