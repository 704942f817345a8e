//! Hierarchical aggregation tier: edge aggregators between clients and the
//! root server.
//!
//! Planet-scale federations do not fold a million clients into one server;
//! they run a client → edge-aggregator → root tree (the standard production
//! topology of the communication-perspective surveys). This module models
//! that tier: clients are sharded across `E` edge nodes by `client mod E`,
//! each edge runs its **own** streaming [`ServerFold`] over its cohort and
//! its own [`VirtualClock`], and the root combines the edge summaries with
//! the associative [`ServerFold::merge`] — pairwise, level by level, across
//! rayon threads.
//!
//! Two invariants make the tier safe to leave always-on:
//!
//! * **`E = 1` is the flat fold, bit for bit.** A tree of one fold performs
//!   no merge and charges no uplink, so the degenerate tier runs the exact
//!   float sequence of the pre-tier scheduler (pinned by the golden
//!   fixtures).
//! * **Determinism at any `E`.** Sharding, per-edge fold order (arrival
//!   order within each shard), and the merge tree (ascending edge index,
//!   fixed pairing per level) are all functions of the cohort alone — never
//!   of thread scheduling.
//!
//! ```
//! use fedtrip_core::algorithms::{AlgorithmKind, HyperParams, LocalOutcome};
//! use fedtrip_core::runtime::{EdgeTier, VirtualClock};
//!
//! let alg = AlgorithmKind::FedAvg.build(&HyperParams::default());
//! let mk = |v: f32| LocalOutcome {
//!     params: vec![v, v],
//!     n_samples: 10,
//!     mean_loss: 0.0,
//!     iterations: 1,
//!     train_flops: 0.0,
//!     aux: None,
//!     staleness: 0,
//!     agg_weight: 1.0,
//!     dense_down: true,
//! };
//!
//! // four clients shard across two edges (client mod E); the root merge
//! // reproduces the flat weighted average
//! let tier = EdgeTier::new(2);
//! let outcomes = vec![mk(1.0), mk(2.0), mk(3.0), mk(4.0)];
//! let (fold, folded, active) =
//!     tier.fold_streamed(alg.as_ref(), &[0.0, 0.0], &[0, 1, 2, 3], outcomes);
//! assert_eq!(active, vec![0, 1]);
//! assert_eq!(folded.len(), 4);
//! assert!((fold.into_avg()[0] - 2.5).abs() < 1e-6);
//!
//! // each edge waits for its slowest cohort member, ships its summary
//! // uplink, and the root waits for the slowest edge
//! let mut tier = EdgeTier::new(2);
//! let mut root = VirtualClock::new();
//! tier.advance_round(&mut root, &[(0, 3.0), (1, 5.0)], 1.0);
//! assert_eq!(root.now(), 6.0);
//! ```

use super::clock::VirtualClock;
use super::scheduler::FoldStats;
use crate::algorithms::{Algorithm, FoldPlan, LocalOutcome, ServerFold};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One edge's partial result: its streaming fold plus the per-outcome
/// accounting scalars, in shard arrival order.
type PartialFold = (ServerFold, Vec<FoldStats>);

/// One edge's cohort slice: `(client, outcome)` pairs in shard order, so
/// per-outcome stats keep their attribution through the shard-major
/// reorder.
type EdgeBucket = Vec<(usize, LocalOutcome)>;

/// The edge-aggregator tier: `E` edge nodes, each with its own virtual
/// clock, folding disjoint client shards before the root merge. The clocks
/// are run state: the tier serializes as them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EdgeTier {
    clocks: Vec<VirtualClock>,
}

impl EdgeTier {
    /// A tier of `n_edges` edge aggregators, all clocks at `t = 0`.
    ///
    /// # Panics
    /// Panics when `n_edges == 0`.
    pub fn new(n_edges: usize) -> Self {
        assert!(n_edges > 0, "need at least one edge aggregator");
        EdgeTier {
            clocks: vec![VirtualClock::new(); n_edges],
        }
    }

    /// Number of edge aggregators `E`.
    pub fn n_edges(&self) -> usize {
        self.clocks.len()
    }

    /// The edge aggregator a client reports to (`client mod E`).
    pub fn edge_of(&self, client: usize) -> usize {
        client % self.clocks.len()
    }

    /// The per-edge clocks, in edge order.
    pub fn clocks(&self) -> &[VirtualClock] {
        &self.clocks
    }

    /// Advance the tier through one fold: each listed edge first catches up
    /// to the root (it cannot start relaying before the root published the
    /// model it is relaying results for), then advances by its own cohort
    /// barrier `dt` plus the edge→root summary uplink; finally the root
    /// waits for the slowest participating edge.
    ///
    /// With `E = 1` and `uplink_secs == 0.0` this is bit-identical to
    /// `root.advance_by(dt)`: the single edge is never behind the root, and
    /// `dt + 0.0 == dt` exactly.
    pub fn advance_round(
        &mut self,
        root: &mut VirtualClock,
        edge_durations: &[(usize, f64)],
        uplink_secs: f64,
    ) {
        for &(e, dt) in edge_durations {
            let clock = &mut self.clocks[e];
            clock.advance_to(root.now());
            clock.advance_by(dt + uplink_secs);
        }
        for &(e, _) in edge_durations {
            root.advance_to(self.clocks[e].now());
        }
    }

    /// Fold a cohort through the edge tree: shard `(client, outcome)` pairs
    /// by `client mod E` (arrival order preserved within each shard), run
    /// one streaming [`ServerFold`] per non-empty edge across rayon
    /// threads, then merge the edge summaries pairwise in ascending edge
    /// order — each merge level's pairs also run in parallel.
    ///
    /// Returns the merged root fold, the per-outcome accounting scalars in
    /// shard-major order (which is the input order when `E = 1`), and the
    /// ascending list of active edge indices. Only active edges (at most
    /// `min(E, cohort)`) ever allocate a fold, so tier cost scales with the
    /// cohort, not with `E`.
    ///
    /// # Panics
    /// Panics when `clients` and `outcomes` disagree in length, or on an
    /// empty cohort ([`ServerFold::begin`]'s invariant).
    pub fn fold_streamed(
        &self,
        algorithm: &dyn Algorithm,
        global: &[f32],
        clients: &[usize],
        outcomes: Vec<LocalOutcome>,
    ) -> (ServerFold, Vec<FoldStats>, Vec<usize>) {
        assert_eq!(
            clients.len(),
            outcomes.len(),
            "one client id per outcome required"
        );
        // shard — a single-edge tier yields one bucket in input order (the
        // flat-fold float sequence); buckets carry `(client, outcome)` pairs
        // so the per-outcome stats keep their attribution through the
        // shard-major reorder
        let mut by_edge: BTreeMap<usize, EdgeBucket> = BTreeMap::new();
        for (o, &c) in outcomes.into_iter().zip(clients) {
            by_edge.entry(self.edge_of(c)).or_default().push((c, o));
        }
        let buckets: Vec<(usize, EdgeBucket)> = by_edge.into_iter().collect();
        let active: Vec<usize> = buckets.iter().map(|(e, _)| *e).collect();

        // per-edge streaming folds, one rayon item per active edge
        let mut work: Vec<(EdgeBucket, Option<PartialFold>)> = buckets
            .into_iter()
            .map(|(_, bucket)| (bucket, None))
            .collect();
        work.par_iter_mut().for_each(|(bucket, slot)| {
            let plan = FoldPlan::for_outcomes(bucket.iter().map(|(_, o)| o));
            let mut fold = ServerFold::begin(global.len(), plan);
            algorithm.server_begin(&mut fold);
            let mut stats = Vec::with_capacity(bucket.len());
            for (c, o) in bucket.drain(..) {
                fold.absorb(algorithm, &o, global);
                stats.push(FoldStats {
                    client: c,
                    mean_loss: o.mean_loss,
                    train_flops: o.train_flops,
                    staleness: o.staleness,
                    dense_down: o.dense_down,
                });
                // `o` (and its full parameter vector) drops here
            }
            *slot = Some((fold, stats));
        });
        #[expect(
            clippy::expect_used,
            reason = "every bucket filled by the fold loop above"
        )]
        let mut folds: Vec<PartialFold> = work
            .into_iter()
            .map(|(_, slot)| slot.expect("every bucket folded"))
            .collect();

        // root merge: fixed pairwise tree, ascending edge order; the pairs
        // of each level merge concurrently (merge is associative)
        while folds.len() > 1 {
            let mut level = folds.into_iter();
            let mut pairs: Vec<(PartialFold, Option<PartialFold>)> = Vec::new();
            while let Some(left) = level.next() {
                pairs.push((left, level.next()));
            }
            pairs.par_iter_mut().for_each(|(left, right)| {
                if let Some((fold, stats)) = right.take() {
                    left.0.merge(algorithm, fold);
                    left.1.extend(stats);
                }
            });
            folds = pairs.into_iter().map(|(left, _)| left).collect();
        }
        #[expect(clippy::expect_used, reason = "caller guarantees a non-empty cohort")]
        let (fold, folded) = folds.pop().expect("non-empty cohort");
        (fold, folded, active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{AlgorithmKind, HyperParams};

    fn outcome(v: f32, n_samples: usize) -> LocalOutcome {
        LocalOutcome {
            params: vec![v; 3],
            n_samples,
            mean_loss: v as f64,
            iterations: 1,
            train_flops: 1.0,
            aux: None,
            staleness: 0,
            agg_weight: 1.0,
            dense_down: true,
        }
    }

    #[test]
    fn single_edge_tier_matches_flat_fold_bitwise() {
        let alg = AlgorithmKind::FedAvg.build(&HyperParams::default());
        let global = vec![0.0f32; 3];
        let outcomes: Vec<LocalOutcome> =
            (0..5).map(|i| outcome(i as f32 + 0.125, 10 + i)).collect();

        let plan = FoldPlan::for_outcomes(outcomes.iter());
        let mut flat = ServerFold::begin(global.len(), plan);
        alg.server_begin(&mut flat);
        for o in &outcomes {
            flat.absorb(alg.as_ref(), o, &global);
        }

        let tier = EdgeTier::new(1);
        let clients: Vec<usize> = (0..outcomes.len()).collect();
        let (fold, folded, active) = tier.fold_streamed(alg.as_ref(), &global, &clients, outcomes);
        assert_eq!(active, vec![0]);
        assert_eq!(folded.len(), 5);
        assert_eq!(fold.into_avg(), flat.into_avg());
    }

    #[test]
    fn sharding_is_by_client_mod_e_and_active_edges_are_sorted() {
        let alg = AlgorithmKind::FedAvg.build(&HyperParams::default());
        let global = vec![0.0f32; 3];
        let clients = [7, 2, 9, 4]; // mod 3: edges 1, 2, 0, 1
        let outcomes: Vec<LocalOutcome> = clients.iter().map(|&c| outcome(c as f32, 10)).collect();
        let tier = EdgeTier::new(3);
        let (fold, folded, active) = tier.fold_streamed(alg.as_ref(), &global, &clients, outcomes);
        assert_eq!(active, vec![0, 1, 2]);
        assert_eq!(fold.plan().cohort, 4);
        // shard-major stats order: edge 0 (client 9), edge 1 (7 then 4), edge 2 (2)
        let order: Vec<f64> = folded.iter().map(|s| s.mean_loss).collect();
        assert_eq!(order, vec![9.0, 7.0, 4.0, 2.0]);
        // attribution survives the reorder
        let by_client: Vec<usize> = folded.iter().map(|s| s.client).collect();
        assert_eq!(by_client, vec![9, 7, 4, 2]);
    }

    #[test]
    fn merged_fold_agrees_with_flat_average() {
        let alg = AlgorithmKind::FedAvg.build(&HyperParams::default());
        let global = vec![0.0f32; 3];
        let clients: Vec<usize> = (0..9).collect();
        let outcomes: Vec<LocalOutcome> = clients
            .iter()
            .map(|&c| outcome(c as f32 * 0.5 - 1.0, 5 + c))
            .collect();
        let flat = crate::algorithms::weighted_param_average(&outcomes);
        for e in [2, 4, 7] {
            let tier = EdgeTier::new(e);
            let (fold, _, _) =
                tier.fold_streamed(alg.as_ref(), &global, &clients, outcomes.clone());
            let merged = fold.into_avg();
            for (a, b) in merged.iter().zip(&flat) {
                assert!((a - b).abs() < 1e-5, "E={e}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn advance_round_is_max_of_edges_plus_uplink() {
        let mut tier = EdgeTier::new(4);
        let mut root = VirtualClock::new();
        tier.advance_round(&mut root, &[(0, 3.0), (2, 5.0)], 0.5);
        assert_eq!(root.now(), 5.5);
        // idle edges stayed at 0 and catch up on their next participation
        let times = |t: &EdgeTier| t.clocks().iter().map(VirtualClock::now).collect::<Vec<_>>();
        assert_eq!(times(&tier), vec![3.5, 0.0, 5.5, 0.0]);
        tier.advance_round(&mut root, &[(1, 1.0)], 0.5);
        assert_eq!(root.now(), 7.0);
    }

    #[test]
    fn clock_times_round_trip_through_restore() {
        let mut tier = EdgeTier::new(3);
        let mut root = VirtualClock::new();
        tier.advance_round(&mut root, &[(0, 1.0), (1, 2.0), (2, 3.0)], 0.25);
        let restored = EdgeTier::from_value(&tier.to_value()).unwrap();
        assert_eq!(restored.clocks(), tier.clocks());
    }

    #[test]
    #[should_panic(expected = "at least one edge")]
    fn rejects_zero_edges() {
        let _ = EdgeTier::new(0);
    }
}
