//! Non-IID data partitioners (paper §V-A "Data Partitioning"), built lazily
//! so federation size `N` stops being a memory axis.
//!
//! Two heterogeneity families from the paper plus an IID control:
//!
//! * **Dirichlet**: each client draws a class-probability vector from
//!   `Dir(alpha)` and fills its quota by sampling classes from that vector
//!   *without replacement* from finite per-class pools (the LEAF-style
//!   procedure the paper describes). `alpha = 0.1` is highly skewed,
//!   `alpha = 0.5` moderate.
//! * **Orthogonal-k**: clients are split into `k` clusters; each cluster owns
//!   a disjoint slice of the classes and its clients sample IID within it.
//!   `Orthogonal-10` with 10 classes gives one class per client.
//! * **IID**: every client samples uniformly over all classes.
//!
//! # Lazy shards
//!
//! [`Partition::build`] no longer materializes every client's sample list.
//! A shard is drawn on the client's *first* participation (from the same
//! seed-derived per-client RNG tag the eager builder used) and memoized for
//! repeat participants, so resident partition memory is O(participants),
//! not O(N). Two regimes decide how a shard is drawn:
//!
//! * [`ShardRegime::Pooled`] — the paper's setting: `N × client_samples`
//!   fits the dataset's finite per-class pools, and clients draw without
//!   replacement in client order. Because client `c`'s draw depends on the
//!   pool state left by clients `0..c`, the lazy builder advances a pool
//!   cursor on demand (discarding intermediate shards) and keeps a tiny
//!   per-client pool snapshot (`classes × u32`) so out-of-order repeat
//!   access stays O(client_samples). Shard bytes are **identical to the
//!   eager build** — pinned by the order-independence tests.
//! * [`ShardRegime::Independent`] — the cross-device setting: the requested
//!   population exceeds the finite pools (which the eager builder used to
//!   reject), so clients draw *with replacement across the federation*:
//!   each shard is a pure function of `(seed, client)` — the same per-kind
//!   RNG tag and class-probability draw as the pooled regime, with sample
//!   ids drawn uniformly from the per-class pool. This is what lets `flrun
//!   --clients 100000` exist at all: O(client_samples) per first touch,
//!   O(1) in `N`.

use crate::synth::{DatasetSpec, SampleRef};
use fedtrip_tensor::rng::Prng;
use fedtrip_tensor::rng_tags;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The heterogeneity regimes evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HeterogeneityKind {
    /// Independent and identically distributed labels.
    Iid,
    /// Dirichlet label skew with concentration `alpha` (paper: 0.1, 0.5).
    Dirichlet(f64),
    /// `k` clusters with mutually orthogonal class sets (paper: 5, 10).
    Orthogonal(usize),
}

impl HeterogeneityKind {
    /// Display name matching the paper's figure/table labels.
    pub fn name(&self) -> String {
        match self {
            HeterogeneityKind::Iid => "IID".to_string(),
            HeterogeneityKind::Dirichlet(a) => format!("Dir-{a}"),
            HeterogeneityKind::Orthogonal(k) => format!("Orthogonal-{k}"),
        }
    }
}

/// How client shards are drawn from the dataset (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardRegime {
    /// Finite per-class pools, drawn without replacement in client order
    /// (the paper's setting; byte-identical to the historical eager build).
    Pooled,
    /// Per-client independent draws with replacement across the federation
    /// (the cross-device setting for populations beyond the pool capacity).
    Independent,
}

/// A federated partition: which samples each client owns, drawn lazily.
pub struct Partition {
    classes: usize,
    client_samples: usize,
    pool_per_class: usize,
    n_clients: usize,
    kind: HeterogeneityKind,
    seed: u64,
    regime: ShardRegime,
    cache: Mutex<ShardCache>,
}

/// Interior-mutable shard memo + pooled-regime replay state.
struct ShardCache {
    /// Shards of clients that have participated, by client id.
    shards: HashMap<usize, Arc<[SampleRef]>>,
    /// Pooled regime: pool state reflecting the draws of clients
    /// `0..cursor`.
    pools: ClassPools,
    /// Pooled regime: clients whose draws are reflected in `pools`.
    cursor: usize,
    /// Pooled regime: `snapshots[c]` is the per-class next-id vector at the
    /// *start* of client `c`'s draw, so out-of-order repeat access can
    /// replay any single client in O(client_samples).
    snapshots: Vec<Vec<u32>>,
}

impl Partition {
    /// Build a (lazy) partition of `n_clients`, each holding
    /// `spec.client_samples` samples, under the given regime.
    ///
    /// When the requested population fits the dataset's finite pools
    /// (`n_clients * client_samples <= total_samples`) shards draw without
    /// replacement exactly like the historical eager builder
    /// ([`ShardRegime::Pooled`]); beyond that — which the eager builder
    /// rejected outright — clients draw independently with replacement
    /// across the federation ([`ShardRegime::Independent`]).
    ///
    /// Construction itself is O(1) in `n_clients`; shards materialize on
    /// first access via [`Partition::shard`].
    ///
    /// # Panics
    /// Panics when `n_clients == 0`, `client_samples == 0`, or an orthogonal
    /// cluster count does not divide sensibly (more clusters than classes).
    pub fn build(
        spec: &DatasetSpec,
        kind: HeterogeneityKind,
        n_clients: usize,
        seed: u64,
    ) -> Partition {
        assert!(n_clients > 0, "need at least one client");
        assert!(
            spec.client_samples > 0,
            "need at least one sample per client"
        );
        if let HeterogeneityKind::Orthogonal(k) = kind {
            assert!(k > 0 && k <= spec.classes, "need 1..=classes clusters");
        }
        if let HeterogeneityKind::Dirichlet(alpha) = kind {
            assert!(alpha > 0.0, "Dirichlet alpha must be positive");
        }
        let regime = if n_clients.saturating_mul(spec.client_samples) <= spec.total_samples {
            ShardRegime::Pooled
        } else {
            ShardRegime::Independent
        };
        Partition {
            classes: spec.classes,
            client_samples: spec.client_samples,
            pool_per_class: spec.pool_per_class(),
            n_clients,
            kind,
            seed,
            regime,
            cache: Mutex::new(ShardCache {
                shards: HashMap::new(),
                pools: ClassPools::new(spec.classes, spec.pool_per_class()),
                cursor: 0,
                snapshots: Vec::new(),
            }),
        }
    }

    /// Number of clients.
    pub fn n_clients(&self) -> usize {
        self.n_clients
    }

    /// Samples per client (uniform across the federation).
    pub fn client_samples(&self) -> usize {
        self.client_samples
    }

    /// Number of classes in the underlying dataset.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The heterogeneity regime that parameterizes this partition.
    pub fn kind(&self) -> HeterogeneityKind {
        self.kind
    }

    /// Which shard-drawing regime the population size selected.
    pub fn regime(&self) -> ShardRegime {
        self.regime
    }

    /// Number of shards currently materialized (== distinct clients ever
    /// passed to [`Partition::shard`]); the population-scale bench asserts
    /// this stays O(participants).
    pub fn resident_shards(&self) -> usize {
        #[expect(clippy::expect_used, reason = "poisoning implies a prior panic")]
        self.cache
            .lock()
            .expect("partition cache poisoned")
            .shards
            .len()
    }

    /// This client's samples, drawing (and memoizing) the shard on first
    /// access. Cheap `Arc` clone on repeat access; safe to call from
    /// multiple threads, though the engine materializes a round's shards
    /// before its parallel fan-out.
    ///
    /// # Panics
    /// Panics when `client >= n_clients`.
    pub fn shard(&self, client: usize) -> Arc<[SampleRef]> {
        assert!(
            client < self.n_clients,
            "client {client} out of range (n_clients {})",
            self.n_clients
        );
        #[expect(clippy::expect_used, reason = "poisoning implies a prior panic")]
        let mut cache = self.cache.lock().expect("partition cache poisoned");
        if let Some(s) = cache.shards.get(&client) {
            return Arc::clone(s);
        }
        let refs: Arc<[SampleRef]> = self.draw_shard(&mut cache, client).into();
        cache.shards.insert(client, Arc::clone(&refs));
        refs
    }

    /// Draw client `client`'s shard without memoizing it (shared by
    /// [`Partition::shard`] and the transient analysis walks).
    fn draw_shard(&self, cache: &mut ShardCache, client: usize) -> Vec<SampleRef> {
        match self.regime {
            ShardRegime::Independent => self.draw_independent(client),
            ShardRegime::Pooled => {
                if client < cache.cursor {
                    // replay just this client from its pool snapshot
                    let mut pools = ClassPools::from_snapshot(
                        cache.snapshots[client].clone(),
                        self.pool_per_class as u32,
                    );
                    self.draw_pooled(&mut pools, client)
                } else {
                    // advance the pool cursor, discarding intermediate
                    // shards (their pool consumption is all that matters)
                    let mut out = Vec::new();
                    while cache.cursor <= client {
                        let c = cache.cursor;
                        cache.snapshots.push(cache.pools.next_id.clone());
                        let refs = {
                            let pools = &mut cache.pools;
                            self.draw_pooled(pools, c)
                        };
                        if c == client {
                            out = refs;
                        }
                        cache.cursor += 1;
                    }
                    out
                }
            }
        }
    }

    /// The per-client RNG stream and class weights — identical derivations
    /// to the historical eager builder, per heterogeneity kind.
    fn client_rng_and_weights(&self, client: usize) -> (Prng, Vec<f64>) {
        match self.kind {
            HeterogeneityKind::Iid => {
                let rng = Prng::derive(self.seed, rng_tags::PARTITION_IID, &[client as u64]);
                (rng, vec![1.0; self.classes])
            }
            HeterogeneityKind::Dirichlet(alpha) => {
                let mut rng =
                    Prng::derive(self.seed, rng_tags::PARTITION_DIRICHLET, &[client as u64]);
                let probs = dirichlet(alpha, self.classes, &mut rng);
                (rng, probs)
            }
            HeterogeneityKind::Orthogonal(k) => {
                let cluster = client % k;
                // classes are split into k contiguous groups; group g
                // covers classes [g*classes/k, (g+1)*classes/k)
                let lo = cluster * self.classes / k;
                let hi = (cluster + 1) * self.classes / k;
                let probs: Vec<f64> = (0..self.classes)
                    .map(|cl| if cl >= lo && cl < hi { 1.0 } else { 0.0 })
                    .collect();
                let rng = Prng::derive(self.seed, rng_tags::PARTITION_ORTHOGONAL, &[client as u64]);
                (rng, probs)
            }
        }
    }

    /// Pooled-regime draw for one client against the given pool state.
    fn draw_pooled(&self, pools: &mut ClassPools, client: usize) -> Vec<SampleRef> {
        let (mut rng, probs) = self.client_rng_and_weights(client);
        pools.draw(&probs, self.client_samples, &mut rng)
    }

    /// Independent-regime draw: ids sampled uniformly from the per-class
    /// pool *with replacement across the federation*, so the shard is a
    /// pure function of `(seed, client)`.
    fn draw_independent(&self, client: usize) -> Vec<SampleRef> {
        let (mut rng, probs) = self.client_rng_and_weights(client);
        let total: f64 = probs.iter().sum();
        assert!(total > 0.0, "class weights must have positive mass");
        let mut out = Vec::with_capacity(self.client_samples);
        for _ in 0..self.client_samples {
            let mut u = rng.uniform() as f64 * total;
            let mut chosen = 0;
            for (c, &w) in probs.iter().enumerate() {
                if w <= 0.0 {
                    continue;
                }
                u -= w;
                chosen = c;
                if u <= 0.0 {
                    break;
                }
            }
            let id = rng.below(self.pool_per_class) as u32;
            out.push(SampleRef {
                class: chosen as u16,
                id,
            });
        }
        out
    }

    /// Per-client histogram over *generating* classes (paper Fig. 4).
    ///
    /// Walks every client — O(N × client_samples) — without memoizing the
    /// shards it draws, so analysis over a small federation stays cheap and
    /// a large one doesn't pin O(N) shard memory.
    pub fn label_histograms(&self) -> Vec<Vec<usize>> {
        #[expect(clippy::expect_used, reason = "poisoning implies a prior panic")]
        let mut cache = self.cache.lock().expect("partition cache poisoned");
        (0..self.n_clients)
            .map(|c| {
                let mut h = vec![0usize; self.classes];
                let refs = match cache.shards.get(&c) {
                    Some(s) => s.to_vec(),
                    None => self.draw_shard(&mut cache, c),
                };
                for r in &refs {
                    h[r.class as usize] += 1;
                }
                h
            })
            .collect()
    }

    /// Number of classes with at least one sample, per client.
    pub fn classes_per_client(&self) -> Vec<usize> {
        self.label_histograms()
            .iter()
            .map(|h| h.iter().filter(|&&c| c > 0).count())
            .collect()
    }

    /// Earth-mover-style skew statistic: mean total-variation distance
    /// between each client's label distribution and the global uniform one.
    /// 0 = perfectly IID, approaches `1 - 1/classes` for one-class clients.
    pub fn skew(&self) -> f64 {
        let hists = self.label_histograms();
        let mut total = 0.0;
        for h in &hists {
            let n: usize = h.iter().sum();
            if n == 0 {
                continue;
            }
            let tv: f64 = h
                .iter()
                .map(|&c| (c as f64 / n as f64 - 1.0 / self.classes as f64).abs())
                .sum::<f64>()
                / 2.0;
            total += tv;
        }
        total / hists.len() as f64
    }
}

/// Finite per-class sample pools; draws hand out fresh ids without
/// replacement and renormalize over non-empty classes.
struct ClassPools {
    /// Next unused id per class.
    next_id: Vec<u32>,
    /// Pool capacity per class.
    cap: u32,
}

impl ClassPools {
    fn new(classes: usize, per_class: usize) -> Self {
        ClassPools {
            next_id: vec![0; classes],
            cap: per_class as u32,
        }
    }

    /// Rehydrate pool state from a per-class next-id snapshot.
    fn from_snapshot(next_id: Vec<u32>, cap: u32) -> Self {
        ClassPools { next_id, cap }
    }

    fn remaining(&self, class: usize) -> u32 {
        self.cap - self.next_id[class]
    }

    /// Draw `count` samples according to unnormalized class weights,
    /// skipping exhausted classes.
    fn draw(&mut self, weights: &[f64], count: usize, rng: &mut Prng) -> Vec<SampleRef> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let total: f64 = weights
                .iter()
                .enumerate()
                .filter(|(c, _)| self.remaining(*c) > 0)
                .map(|(_, &w)| w)
                .sum();
            assert!(
                total > 0.0,
                "all requested classes exhausted (pools too small for partition)"
            );
            let mut u = rng.uniform() as f64 * total;
            let mut chosen = None;
            for (c, &w) in weights.iter().enumerate() {
                if self.remaining(c) == 0 {
                    continue;
                }
                u -= w;
                if u <= 0.0 {
                    chosen = Some(c);
                    break;
                }
            }
            // floating-point edge: fall back to the last viable class
            let c = chosen.unwrap_or_else(|| {
                #[expect(clippy::expect_used, reason = "guarded by total > 0 above")]
                (0..weights.len())
                    .rev()
                    .find(|&c| self.remaining(c) > 0 && weights[c] > 0.0)
                    .expect("viable class exists because total > 0")
            });
            out.push(SampleRef {
                class: c as u16,
                id: self.next_id[c],
            });
            self.next_id[c] += 1;
        }
        out
    }
}

/// Sample a probability vector from `Dir(alpha * 1)`.
fn dirichlet(alpha: f64, k: usize, rng: &mut Prng) -> Vec<f64> {
    let mut g: Vec<f64> = (0..k).map(|_| rng.gamma(alpha).max(1e-300)).collect();
    let s: f64 = g.iter().sum();
    for v in &mut g {
        *v /= s;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::DatasetKind;

    fn spec() -> DatasetSpec {
        DatasetKind::MnistLike.spec()
    }

    /// Materialize every shard in client order (the historical eager shape).
    fn materialize(p: &Partition) -> Vec<Vec<SampleRef>> {
        (0..p.n_clients()).map(|c| p.shard(c).to_vec()).collect()
    }

    /// The pre-lazy eager builder, kept verbatim as the ground truth the
    /// lazy pooled regime must reproduce byte-for-byte.
    fn eager_reference(
        spec: &DatasetSpec,
        kind: HeterogeneityKind,
        n_clients: usize,
        seed: u64,
    ) -> Vec<Vec<SampleRef>> {
        let mut pools = ClassPools::new(spec.classes, spec.pool_per_class());
        (0..n_clients)
            .map(|c| match kind {
                HeterogeneityKind::Iid => {
                    let probs = vec![1.0; spec.classes];
                    let mut rng = Prng::derive(seed, rng_tags::PARTITION_IID, &[c as u64]);
                    pools.draw(&probs, spec.client_samples, &mut rng)
                }
                HeterogeneityKind::Dirichlet(alpha) => {
                    let mut rng = Prng::derive(seed, rng_tags::PARTITION_DIRICHLET, &[c as u64]);
                    let probs = dirichlet(alpha, spec.classes, &mut rng);
                    pools.draw(&probs, spec.client_samples, &mut rng)
                }
                HeterogeneityKind::Orthogonal(k) => {
                    let cluster = c % k;
                    let lo = cluster * spec.classes / k;
                    let hi = (cluster + 1) * spec.classes / k;
                    let probs: Vec<f64> = (0..spec.classes)
                        .map(|cl| if cl >= lo && cl < hi { 1.0 } else { 0.0 })
                        .collect();
                    let mut rng = Prng::derive(seed, rng_tags::PARTITION_ORTHOGONAL, &[c as u64]);
                    pools.draw(&probs, spec.client_samples, &mut rng)
                }
            })
            .collect()
    }

    #[test]
    fn lazy_pooled_matches_eager_reference_bit_for_bit() {
        for kind in [
            HeterogeneityKind::Iid,
            HeterogeneityKind::Dirichlet(0.5),
            HeterogeneityKind::Orthogonal(5),
        ] {
            let p = Partition::build(&spec(), kind, 10, 42);
            assert_eq!(p.regime(), ShardRegime::Pooled);
            assert_eq!(
                materialize(&p),
                eager_reference(&spec(), kind, 10, 42),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn lazy_access_order_never_changes_shards() {
        // out-of-order, repeated, and interleaved access must produce the
        // same bytes as a clean sequential walk
        let kind = HeterogeneityKind::Dirichlet(0.5);
        let sequential = materialize(&Partition::build(&spec(), kind, 10, 7));
        let p = Partition::build(&spec(), kind, 10, 7);
        for &c in &[9usize, 3, 3, 0, 7, 1, 9, 5, 2, 8, 6, 4, 0] {
            assert_eq!(p.shard(c).to_vec(), sequential[c], "client {c}");
        }
        assert_eq!(p.resident_shards(), 10);
    }

    #[test]
    fn shards_memoize_and_stay_sparse() {
        let p = Partition::build(&spec(), HeterogeneityKind::Iid, 50, 3);
        assert_eq!(p.resident_shards(), 0);
        let a = p.shard(30);
        let b = p.shard(30);
        assert!(Arc::ptr_eq(&a, &b), "repeat access must hit the memo");
        p.shard(4);
        assert_eq!(p.resident_shards(), 2, "only touched clients materialize");
    }

    #[test]
    fn every_client_gets_its_quota() {
        let p = Partition::build(&spec(), HeterogeneityKind::Dirichlet(0.5), 10, 1);
        assert_eq!(p.n_clients(), 10);
        for c in materialize(&p) {
            assert_eq!(c.len(), 600);
        }
    }

    #[test]
    fn samples_are_disjoint_across_clients() {
        let p = Partition::build(&spec(), HeterogeneityKind::Dirichlet(0.1), 10, 2);
        let mut seen = std::collections::HashSet::new();
        for c in materialize(&p) {
            for r in c {
                assert!(seen.insert((r.class, r.id)), "duplicate sample {r:?}");
            }
        }
    }

    #[test]
    fn ids_stay_within_pool() {
        let s = spec();
        let p = Partition::build(&s, HeterogeneityKind::Iid, 10, 3);
        let cap = s.pool_per_class() as u32;
        for c in materialize(&p) {
            for r in c {
                assert!(r.id < cap);
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Partition::build(&spec(), HeterogeneityKind::Dirichlet(0.5), 6, 9);
        let b = Partition::build(&spec(), HeterogeneityKind::Dirichlet(0.5), 6, 9);
        assert_eq!(materialize(&a), materialize(&b));
        let c = Partition::build(&spec(), HeterogeneityKind::Dirichlet(0.5), 6, 10);
        assert_ne!(materialize(&a), materialize(&c));
    }

    #[test]
    fn dirichlet_skew_ordering_matches_paper() {
        // Fig. 4: Dir-0.1 is more skewed than Dir-0.5, which is more skewed
        // than IID.
        let iid = Partition::build(&spec(), HeterogeneityKind::Iid, 10, 4);
        let d5 = Partition::build(&spec(), HeterogeneityKind::Dirichlet(0.5), 10, 4);
        let d1 = Partition::build(&spec(), HeterogeneityKind::Dirichlet(0.1), 10, 4);
        assert!(iid.skew() < d5.skew(), "{} !< {}", iid.skew(), d5.skew());
        assert!(d5.skew() < d1.skew(), "{} !< {}", d5.skew(), d1.skew());
    }

    #[test]
    fn dir01_clients_hold_few_classes() {
        // Paper: under Dir-0.1 most clients hold 1-2 dominant classes. With
        // finite pools some spillover happens; check the dominant mass.
        let p = Partition::build(&spec(), HeterogeneityKind::Dirichlet(0.1), 10, 5);
        let hists = p.label_histograms();
        let mut dominant = 0.0;
        for h in &hists {
            let n: usize = h.iter().sum();
            let mut sorted = h.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            dominant += (sorted[0] + sorted[1]) as f64 / n as f64;
        }
        dominant /= hists.len() as f64;
        assert!(
            dominant > 0.6,
            "top-2 class mass {dominant} too low for Dir-0.1"
        );
    }

    #[test]
    fn orthogonal_5_two_classes_each() {
        // 10 classes, 5 clusters -> each cluster owns exactly 2 classes.
        let p = Partition::build(&spec(), HeterogeneityKind::Orthogonal(5), 10, 6);
        for (ci, h) in p.label_histograms().iter().enumerate() {
            let nz: Vec<usize> = (0..10).filter(|&c| h[c] > 0).collect();
            assert!(nz.len() <= 2, "client {ci} has classes {nz:?}");
            let cluster = ci % 5;
            for c in nz {
                assert_eq!(c / 2, cluster, "class {c} outside cluster {cluster}");
            }
        }
    }

    #[test]
    fn orthogonal_10_single_class_each() {
        let p = Partition::build(&spec(), HeterogeneityKind::Orthogonal(10), 10, 7);
        for h in p.classes_per_client() {
            assert_eq!(h, 1);
        }
    }

    #[test]
    fn orthogonal_clusters_are_mutually_disjoint_in_classes() {
        let p = Partition::build(&spec(), HeterogeneityKind::Orthogonal(5), 10, 8);
        let hists = p.label_histograms();
        // client i and client j in different clusters share no class
        for i in 0..10 {
            for j in 0..10 {
                if i % 5 == j % 5 {
                    continue;
                }
                for (c, (&a, &b)) in hists[i].iter().zip(&hists[j]).enumerate() {
                    assert!(!(a > 0 && b > 0), "clients {i},{j} share class {c}");
                }
            }
        }
    }

    #[test]
    fn iid_is_roughly_uniform() {
        let p = Partition::build(&spec(), HeterogeneityKind::Iid, 4, 9);
        for h in p.label_histograms() {
            for &c in &h {
                // 600 samples over 10 classes -> expect 60 per class
                assert!((20..=120).contains(&c), "count {c} too far from 60");
            }
        }
    }

    #[test]
    fn oversubscription_switches_to_independent_regime() {
        // requesting more samples than the dataset holds used to panic the
        // eager builder; it now selects per-client independent draws
        let mut s = spec();
        s.client_samples = s.total_samples; // one client wants everything
        let p = Partition::build(&s, HeterogeneityKind::Iid, 2, 0);
        assert_eq!(p.regime(), ShardRegime::Independent);
        let shard = p.shard(1);
        assert_eq!(shard.len(), s.total_samples);
        let cap = s.pool_per_class() as u32;
        assert!(shard.iter().all(|r| r.id < cap));
    }

    #[test]
    fn independent_regime_is_flat_in_population_size() {
        // a 100k-client federation constructs instantly and touches only
        // the shards actually requested
        let mut s = spec();
        s.client_samples = 60; // smoke-style override
        let p = Partition::build(&s, HeterogeneityKind::Dirichlet(0.5), 100_000, 11);
        assert_eq!(p.regime(), ShardRegime::Independent);
        for &c in &[0usize, 99_999, 31_337] {
            assert_eq!(p.shard(c).len(), 60);
        }
        assert_eq!(p.resident_shards(), 3);
        // pure function of (seed, client): a fresh instance agrees
        let q = Partition::build(&s, HeterogeneityKind::Dirichlet(0.5), 100_000, 11);
        assert_eq!(q.shard(31_337).to_vec(), p.shard(31_337).to_vec());
    }

    #[test]
    fn independent_regime_respects_orthogonal_class_slices() {
        let mut s = spec();
        s.client_samples = 50;
        let p = Partition::build(&s, HeterogeneityKind::Orthogonal(5), 10_000, 12);
        assert_eq!(p.regime(), ShardRegime::Independent);
        for &c in &[17usize, 9_998] {
            let cluster = c % 5;
            for r in p.shard(c).iter() {
                assert_eq!(r.class as usize / 2, cluster, "client {c}");
            }
        }
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(HeterogeneityKind::Dirichlet(0.1).name(), "Dir-0.1");
        assert_eq!(HeterogeneityKind::Orthogonal(5).name(), "Orthogonal-5");
        assert_eq!(HeterogeneityKind::Iid.name(), "IID");
    }

    #[test]
    fn dirichlet_probabilities_sum_to_one() {
        let mut rng = Prng::seed_from_u64(1);
        for &alpha in &[0.1, 0.5, 1.0, 10.0] {
            let p = dirichlet(alpha, 12, &mut rng);
            let s: f64 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| v >= 0.0));
        }
    }
}
