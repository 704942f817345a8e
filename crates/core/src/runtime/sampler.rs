//! Client participation: selection strategies and straggler injection.
//!
//! Every strategy is one draw over an *admit* predicate — the availability
//! model for a synchronous round, "not busy" for a semi-async redispatch —
//! on a seed-derived stream: `(SELECT, t)` for selection, `(OORT, t)` for
//! Oort's exploration, `(DISPATCH, t)` for redispatch and `(FAILURE, t)` for
//! straggler injection.
//!
//! ```
//! use fedtrip_core::runtime::{Sampler, SelectionStrategy};
//!
//! // 3-of-6 uniform selection, no failure injection; client_sizes feed the
//! // WeightedBySamples strategy and are ignored here
//! let sampler = Sampler::new(7, 3, SelectionStrategy::Uniform, 0.0, vec![50; 6]);
//! let round_1 = sampler.participants(1);
//! assert_eq!(round_1.len(), 3);
//! assert_eq!(round_1, sampler.participants(1)); // pure function of (seed, t)
//! assert!(round_1.windows(2).all(|w| w[0] < w[1])); // sorted, distinct
//! ```

use super::availability::{AvailabilityModel, UtilityTable};
use super::clock::DeviceProfiles;
use fedtrip_tensor::rng::Prng;
use fedtrip_tensor::rng_tags;
use serde::{Deserialize, Serialize};

/// Exploration floor of the Oort-style strategy: the fraction of each
/// cohort reserved for uniform exploration of clients the utility table has
/// not observed recently. Oort anneals its ε from 0.9 towards 0.2; a fixed
/// floor keeps every round's stream layout a pure function of `t`.
const OORT_EXPLORE_FRAC: f64 = 0.3;

/// How the server picks the `K` participants of each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectionStrategy {
    /// The paper's rule: uniform sampling without replacement.
    Uniform,
    /// Deterministic rotation through the client list — every client
    /// participates exactly once every `N / K` rounds (gap is constant,
    /// which also pins FedTrip's `xi`; useful for ablations).
    RoundRobin,
    /// Sample proportional to local data size (without replacement) —
    /// the "capability-aware" selection common in production FL.
    WeightedBySamples,
    /// Oort-style utility-aware selection (Lai et al., OSDI '21): rank
    /// available clients by statistical utility (most recent observed
    /// training loss) × device speed, with a uniform exploration floor so
    /// unexplored clients keep entering the pool. Scores come from the
    /// engine-maintained [`UtilityTable`]; on the semi-async redispatch
    /// path ([`Sampler::select_idle`]), where
    /// no utility snapshot is in scope, it degrades to uniform selection.
    Oort,
}

impl SelectionStrategy {
    /// Parse `uniform` / `roundrobin` / `weighted` / `oort`
    /// (case-insensitive).
    pub fn parse(s: &str) -> Option<SelectionStrategy> {
        match s.to_ascii_lowercase().as_str() {
            "uniform" => Some(SelectionStrategy::Uniform),
            "roundrobin" | "round-robin" => Some(SelectionStrategy::RoundRobin),
            "weighted" | "weightedbysamples" => Some(SelectionStrategy::WeightedBySamples),
            "oort" | "utility" => Some(SelectionStrategy::Oort),
            _ => None,
        }
    }

    /// Display name (round-trips through [`SelectionStrategy::parse`]).
    pub fn name(&self) -> &'static str {
        match self {
            SelectionStrategy::Uniform => "uniform",
            SelectionStrategy::RoundRobin => "roundrobin",
            SelectionStrategy::WeightedBySamples => "weighted",
            SelectionStrategy::Oort => "oort",
        }
    }
}

/// Per-client sample counts, without forcing an O(N) vector on the uniform
/// case.
///
/// The lazy partition guarantees every client the same quota, so the engine
/// describes a 10⁵-client federation in three words
/// ([`ClientSizes::Uniform`]); an explicit per-client vector stays available
/// for hand-built federations and the `WeightedBySamples` strategy's tests.
#[derive(Debug, Clone)]
pub enum ClientSizes {
    /// Every client holds `samples` samples.
    Uniform {
        /// Federation size.
        n_clients: usize,
        /// Samples per client.
        samples: usize,
    },
    /// Explicit per-client sample counts.
    PerClient(Vec<usize>),
}

impl ClientSizes {
    /// Federation size.
    pub fn n_clients(&self) -> usize {
        match self {
            ClientSizes::Uniform { n_clients, .. } => *n_clients,
            ClientSizes::PerClient(v) => v.len(),
        }
    }

    /// Client `c`'s sample count.
    pub fn get(&self, c: usize) -> usize {
        match self {
            ClientSizes::Uniform { samples, .. } => *samples,
            ClientSizes::PerClient(v) => v[c],
        }
    }
}

impl From<Vec<usize>> for ClientSizes {
    fn from(v: Vec<usize>) -> ClientSizes {
        ClientSizes::PerClient(v)
    }
}

/// Owns *who* participates: seeded selection plus straggler injection,
/// optionally filtered through an [`AvailabilityModel`].
#[derive(Debug, Clone)]
pub struct Sampler {
    seed: u64,
    n_clients: usize,
    clients_per_round: usize,
    strategy: SelectionStrategy,
    failure_prob: f32,
    /// Per-client sample counts (weights for `WeightedBySamples`).
    client_sizes: ClientSizes,
    /// Reachability traces and churn epochs (always-on by default).
    availability: AvailabilityModel,
    /// Device profiles for the Oort speed factor (unit spread by default).
    profiles: DeviceProfiles,
}

impl Sampler {
    /// Build a sampler for a federation (`client_sizes` may be a plain
    /// `Vec<usize>` or a [`ClientSizes`]). Availability defaults to
    /// always-on and device profiles to the homogeneous reference device;
    /// compose [`Sampler::with_availability`] /
    /// [`Sampler::with_profiles`] to override.
    pub fn new(
        seed: u64,
        clients_per_round: usize,
        strategy: SelectionStrategy,
        failure_prob: f32,
        client_sizes: impl Into<ClientSizes>,
    ) -> Self {
        let client_sizes = client_sizes.into();
        let n_clients = client_sizes.n_clients();
        assert!(n_clients > 0, "need at least one client");
        assert!(
            clients_per_round > 0 && clients_per_round <= n_clients,
            "clients_per_round must be in 1..=n_clients"
        );
        Sampler {
            seed,
            n_clients,
            clients_per_round,
            strategy,
            failure_prob,
            client_sizes,
            availability: AvailabilityModel::always_on(seed, n_clients),
            profiles: DeviceProfiles::new(seed, n_clients, 1.0),
        }
    }

    /// Replace the availability model (builder style).
    ///
    /// # Panics
    /// Panics when the model's federation size disagrees with the
    /// sampler's.
    pub fn with_availability(mut self, availability: AvailabilityModel) -> Self {
        assert_eq!(
            availability.n_clients(),
            self.n_clients,
            "availability model sized for a different federation"
        );
        self.availability = availability;
        self
    }

    /// Replace the device profiles used for the Oort speed factor
    /// (builder style).
    ///
    /// # Panics
    /// Panics when the profiles' federation size disagrees with the
    /// sampler's.
    pub fn with_profiles(mut self, profiles: DeviceProfiles) -> Self {
        assert_eq!(
            profiles.n_clients(),
            self.n_clients,
            "device profiles sized for a different federation"
        );
        self.profiles = profiles;
        self
    }

    /// The sampler's availability model (engine churn-eviction hook).
    pub fn availability(&self) -> &AvailabilityModel {
        &self.availability
    }

    /// Pick round `t`'s participants according to the selection strategy
    /// (sorted, distinct), with an empty utility table — identical to
    /// [`Sampler::select_with`] for every strategy except `Oort`, whose
    /// exploitation rank is empty without observed losses.
    pub fn select(&self, t: usize) -> Vec<usize> {
        self.select_with(t, &UtilityTable::default())
    }

    /// Pick round `t`'s participants (sorted, distinct), filtering through
    /// the availability model and scoring `Oort` selection against
    /// `utility`.
    ///
    /// When a trace leaves *no* client reachable in round `t`, the filter
    /// is ignored for that round (liveness fallback, documented in
    /// DESIGN.md) so the federation never stalls.
    pub fn select_with(&self, t: usize, utility: &UtilityTable) -> Vec<usize> {
        let rng = || Prng::derive(self.seed, rng_tags::SELECT, &[t as u64]);
        let (k, cap) = (self.clients_per_round, 16 * self.clients_per_round + 64);
        let mut selected = match self.strategy {
            SelectionStrategy::Oort => self.select_oort(t, utility, cap),
            s if self.availability.is_always_on() => self.draw_everyone(s, t, &mut rng()),
            s => {
                let available = |c| self.availability.is_available(c, t);
                match self.draw(s, t, &mut rng(), k, cap, available) {
                    // liveness fallback: a fresh stream, everyone admitted
                    picked if picked.is_empty() => self.draw_everyone(s, t, &mut rng()),
                    picked => picked,
                }
            }
        };
        selected.sort_unstable(); // deterministic aggregation order
        selected.dedup();
        selected
    }

    /// Round `t`'s draw with every client admitted: the always-on model's,
    /// and the liveness fallback's.
    fn draw_everyone(&self, strategy: SelectionStrategy, t: usize, rng: &mut Prng) -> Vec<usize> {
        let k = self.clients_per_round;
        match strategy {
            // ROADMAP 4(b) residual: uniform keeps the partial Fisher–Yates
            // of `Prng::sample_indices`, which draws differently from the
            // rejection draw, and the goldens pin both
            SelectionStrategy::Uniform => rng.sample_indices(self.n_clients, k),
            s => self.draw(s, t, rng, k, usize::MAX, |_| true),
        }
    }

    /// One strategy's draw of up to `k` distinct clients that `admit`
    /// accepts (unsorted). Uniform (and Oort, which has no utility in scope
    /// here) is [`fill_uniform`] with at most `cap` rejection tries;
    /// round-robin sweeps once from the round's cursor `(t − 1)·K`, taking
    /// the first `k` admitted clients; weighted-by-samples draws
    /// proportional to sample count, every rejected client at weight 0
    /// (O(N)). Empty only when no admitted client holds a sample.
    fn draw(
        &self,
        strategy: SelectionStrategy,
        t: usize,
        rng: &mut Prng,
        k: usize,
        cap: usize,
        admit: impl Fn(usize) -> bool,
    ) -> Vec<usize> {
        let n = self.n_clients;
        match strategy {
            SelectionStrategy::Uniform | SelectionStrategy::Oort => {
                let mut picked = Vec::with_capacity(k);
                fill_uniform(rng, n, k, cap, admit, &mut picked);
                picked
            }
            SelectionStrategy::RoundRobin => {
                let start = (t - 1) * self.clients_per_round;
                let sweep = (0..n).map(|off| (start + off) % n);
                sweep.filter(|&c| admit(c)).take(k).collect()
            }
            SelectionStrategy::WeightedBySamples => {
                let size = |c| self.client_sizes.get(c) as f64;
                let weights = (0..n).map(|c| if admit(c) { size(c) } else { 0.0 });
                weighted_draw(rng, weights.collect(), k)
            }
        }
    }

    /// Oort-style utility-aware selection on the `(OORT, t)` stream.
    ///
    /// Exploitation: available clients the utility table has observed are
    /// ranked by `mean_loss / compute_multiplier` — statistical utility ×
    /// speed, so "informative *and* fast" sorts first (`total_cmp` with a
    /// client-id tiebreak keeps the ranking deterministic) — and the top
    /// `K - ⌈εK⌉` fill the cohort. Exploration: the remaining `⌈εK⌉` slots
    /// (ε = 0.3) draw uniformly from the available set so unexplored
    /// clients keep entering the score table. Cost is
    /// O(|table| log |table| + K); the table never exceeds rounds × K
    /// entries.
    fn select_oort(&self, t: usize, utility: &UtilityTable, cap: usize) -> Vec<usize> {
        let (n, k) = (self.n_clients, self.clients_per_round);
        let mut rng = Prng::derive(self.seed, rng_tags::OORT, &[t as u64]);
        let available = |c| self.availability.is_available(c, t);
        let mut scored: Vec<(f64, usize)> = utility
            .iter()
            .filter(|&(c, _)| c < n && available(c))
            .map(|(c, loss)| (loss / self.profiles.get(c).compute_multiplier, c))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let explore_k = ((k as f64) * OORT_EXPLORE_FRAC).ceil() as usize;
        let exploit_k = k.saturating_sub(explore_k).min(scored.len());
        let mut picked: Vec<usize> = scored[..exploit_k].iter().map(|&(_, c)| c).collect();
        fill_uniform(&mut rng, n, k, cap, available, &mut picked);
        if picked.is_empty() {
            // liveness fallback: nobody reachable, nothing scored —
            // degrade to an unfiltered uniform draw on this stream
            return rng.sample_indices(n, k);
        }
        picked
    }

    /// Apply straggler injection: drop each selected client with the
    /// configured probability, always keeping at least one survivor.
    ///
    /// The all-failed survivor is elected on its own `(SURVIVOR, t)`
    /// stream rather than by continuing the `(FAILURE, t)` coin flips, so
    /// the choice is a pure function of the round — it cannot shift when
    /// the cohort size (and hence the number of failure draws) changes.
    pub fn apply_failures(&self, t: usize, selected: &[usize]) -> Vec<usize> {
        if self.failure_prob <= 0.0 {
            return selected.to_vec();
        }
        let mut rng = Prng::derive(self.seed, rng_tags::FAILURE, &[t as u64]);
        let mut survivors: Vec<usize> = selected
            .iter()
            .copied()
            .filter(|_| rng.uniform() >= self.failure_prob)
            .collect();
        if survivors.is_empty() {
            // seed-derived survivor election so the round still aggregates
            let mut surv_rng = Prng::derive(self.seed, rng_tags::SURVIVOR, &[t as u64]);
            survivors.push(selected[surv_rng.below(selected.len())]);
        }
        survivors
    }

    /// Selection followed by failure injection — one round's participants,
    /// with an empty utility table (see [`Sampler::participants_with`]).
    pub fn participants(&self, t: usize) -> Vec<usize> {
        self.participants_with(t, &UtilityTable::default())
    }

    /// Selection (availability-filtered, utility-scored) followed by
    /// failure injection — one round's participants.
    pub fn participants_with(&self, t: usize, utility: &UtilityTable) -> Vec<usize> {
        self.apply_failures(t, &self.select_with(t, utility))
    }

    /// Select up to `k` clients that are **not** in `busy` (sorted,
    /// distinct) — the semi-async redispatch path at population scale.
    ///
    /// The idle pool is never materialized: with at most `K` clients ever
    /// in flight, uniform selection rejection-samples over the whole
    /// federation (expected O(k) when `N ≫ K`) and round-robin walks from
    /// the round's cursor skipping busy clients, so the cost per server
    /// step is independent of federation size. `WeightedBySamples` under
    /// uniform sizes is exactly uniform selection; under explicit
    /// per-client sizes it weighs the whole federation, busy clients at
    /// zero (O(N), documented). Oort degrades to uniform selection. The
    /// availability model is not consulted here (ROADMAP 4(b)).
    ///
    /// Uses a dedicated RNG stream tagged `(DISPATCH, t)`, so it never
    /// collides with the synchronous selection stream.
    ///
    /// # Panics
    /// Panics when `busy` is not sorted/deduped or names out-of-range
    /// clients.
    pub fn select_idle(&self, t: usize, busy: &[usize], k: usize) -> Vec<usize> {
        assert!(
            busy.windows(2).all(|w| w[0] < w[1]) && busy.iter().all(|&c| c < self.n_clients),
            "busy list must be sorted, distinct, in-range"
        );
        let k = k.min(self.n_clients - busy.len());
        if k == 0 {
            return Vec::new();
        }
        let strategy = match (self.strategy, &self.client_sizes) {
            (SelectionStrategy::WeightedBySamples, ClientSizes::Uniform { .. }) => {
                SelectionStrategy::Uniform
            }
            (s, _) => s,
        };
        let mut rng = Prng::derive(self.seed, rng_tags::DISPATCH, &[t as u64]);
        // k ≤ idle, so the uncapped rejection draw always fills the cohort
        let idle = |c| busy.binary_search(&c).is_err();
        let mut picked = self.draw(strategy, t, &mut rng, k, usize::MAX, idle);
        picked.sort_unstable();
        picked.dedup();
        picked
    }
}

/// Fill `picked` up to `k` distinct clients that `admit` accepts: up to
/// `cap` uniform tries on `rng` (expected O(k) while a fair share of the
/// federation is admitted), then uniform draws from the materialized pool
/// of admitted clients not yet picked. Leaves `picked` short only when
/// fewer than `k` clients are admitted.
fn fill_uniform(
    rng: &mut Prng,
    n: usize,
    k: usize,
    cap: usize,
    admit: impl Fn(usize) -> bool,
    picked: &mut Vec<usize>,
) {
    let mut attempts = 0;
    while picked.len() < k && attempts < cap {
        attempts += 1;
        let c = rng.below(n);
        if admit(c) && !picked.contains(&c) {
            picked.push(c);
        }
    }
    if picked.len() < k {
        let mut pool: Vec<usize> = (0..n)
            .filter(|&c| admit(c) && !picked.contains(&c))
            .collect();
        while picked.len() < k && !pool.is_empty() {
            picked.push(pool.swap_remove(rng.below(pool.len())));
        }
    }
}

/// Sequential weighted draw without replacement: up to `k` distinct indices
/// into `weights`, each draw proportional to the remaining weight mass.
/// Stops early if the remaining mass is exhausted. Zero-weight entries are
/// skipped and add nothing to the mass, so zeroing a client picks exactly
/// what dropping it from `weights` would.
fn weighted_draw(rng: &mut Prng, mut weights: Vec<f64>, k: usize) -> Vec<usize> {
    let mut picked = Vec::with_capacity(k);
    for _ in 0..k {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            break;
        }
        let mut u = rng.uniform() as f64 * total;
        let mut chosen = 0;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            u -= w;
            chosen = i;
            if u <= 0.0 {
                break;
            }
        }
        picked.push(chosen);
        weights[chosen] = 0.0;
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler(strategy: SelectionStrategy, failure_prob: f32) -> Sampler {
        Sampler::new(42, 3, strategy, failure_prob, vec![10, 20, 30, 40, 50, 60])
    }

    #[test]
    fn select_is_distinct_sorted_and_deterministic() {
        for strategy in [
            SelectionStrategy::Uniform,
            SelectionStrategy::RoundRobin,
            SelectionStrategy::WeightedBySamples,
        ] {
            let s = sampler(strategy, 0.0);
            for t in 1..=8 {
                let a = s.select(t);
                let b = s.select(t);
                assert_eq!(a, b, "{strategy:?} t={t}");
                let mut sorted = a.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted, a);
                assert!(a.iter().all(|&c| c < 6));
            }
        }
    }

    #[test]
    fn failures_always_keep_a_survivor() {
        let s = sampler(SelectionStrategy::Uniform, 1.0);
        for t in 1..=8 {
            let sel = s.select(t);
            let surv = s.apply_failures(t, &sel);
            assert_eq!(surv.len(), 1);
            assert!(sel.contains(&surv[0]));
        }
    }

    #[test]
    fn select_idle_avoids_busy_and_is_deterministic() {
        for strategy in [
            SelectionStrategy::Uniform,
            SelectionStrategy::RoundRobin,
            SelectionStrategy::WeightedBySamples,
        ] {
            let s = sampler(strategy, 0.0);
            let busy = [0usize, 2, 4];
            for t in 1..=8 {
                let a = s.select_idle(t, &busy, 2);
                let b = s.select_idle(t, &busy, 2);
                assert_eq!(a, b, "{strategy:?} t={t}");
                assert!(!a.is_empty() && a.len() <= 2);
                assert!(a.iter().all(|c| !busy.contains(c)), "{strategy:?} {a:?}");
                assert!(a.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn select_idle_caps_at_idle_count_and_handles_saturation() {
        let s = sampler(SelectionStrategy::Uniform, 0.0);
        // 6 clients, 5 busy: only one candidate remains
        let busy = [0usize, 1, 2, 3, 4];
        assert_eq!(s.select_idle(3, &busy, 4), vec![5]);
        // everyone busy: nothing to select
        let all = [0usize, 1, 2, 3, 4, 5];
        assert!(s.select_idle(3, &all, 2).is_empty());
    }

    #[test]
    fn select_idle_is_population_scale_cheap_for_uniform() {
        // a 1M-client federation: selection must not materialize the idle
        // pool (this test finishing instantly is the point)
        let s = Sampler::new(
            7,
            8,
            SelectionStrategy::Uniform,
            0.0,
            ClientSizes::Uniform {
                n_clients: 1_000_000,
                samples: 60,
            },
        );
        let busy = [10usize, 500_000];
        let picked = s.select_idle(1, &busy, 8);
        assert_eq!(picked.len(), 8);
        assert!(picked.iter().all(|c| !busy.contains(c)));
    }

    #[test]
    fn uniform_sizes_make_weighted_idle_selection_uniform() {
        let uni = Sampler::new(
            42,
            3,
            SelectionStrategy::Uniform,
            0.0,
            ClientSizes::Uniform {
                n_clients: 6,
                samples: 50,
            },
        );
        let wtd = Sampler::new(
            42,
            3,
            SelectionStrategy::WeightedBySamples,
            0.0,
            ClientSizes::Uniform {
                n_clients: 6,
                samples: 50,
            },
        );
        for t in 1..=6 {
            assert_eq!(uni.select_idle(t, &[1], 2), wtd.select_idle(t, &[1], 2));
        }
    }

    #[test]
    fn survivor_election_is_seed_derived_and_draw_count_independent() {
        // all clients fail: the survivor must come from the dedicated
        // (SURVIVOR, t) stream, so it cannot depend on how many failure
        // coin flips preceded it (regression: it used to continue the
        // FAILURE stream, coupling the choice to the cohort size)
        let s = sampler(SelectionStrategy::Uniform, 1.0);
        for t in 1..=8 {
            let sel = s.select(t);
            let surv = s.apply_failures(t, &sel);
            let mut rng = Prng::derive(42, rng_tags::SURVIVOR, &[t as u64]);
            assert_eq!(surv, vec![sel[rng.below(sel.len())]]);
            // shrinking the cohort changes the failure-draw count but not
            // the election stream
            let prefix = &sel[..sel.len() - 1];
            let surv_prefix = s.apply_failures(t, prefix);
            let mut rng = Prng::derive(42, rng_tags::SURVIVOR, &[t as u64]);
            assert_eq!(surv_prefix, vec![prefix[rng.below(prefix.len())]]);
        }
    }

    #[test]
    fn always_on_select_with_matches_select() {
        // without availability filtering a utility table changes nothing
        // for the non-Oort strategies — this is what pins the golden fixtures
        for strategy in [
            SelectionStrategy::Uniform,
            SelectionStrategy::RoundRobin,
            SelectionStrategy::WeightedBySamples,
        ] {
            let s = sampler(strategy, 0.3);
            let mut table = UtilityTable::new();
            table.record(1, 2.0);
            for t in 1..=8 {
                assert_eq!(s.select_with(t, &table), s.select(t), "{strategy:?}");
                assert_eq!(s.participants_with(t, &table), s.participants(t));
            }
        }
    }

    #[test]
    fn filtered_selection_only_picks_available_clients() {
        let avail = AvailabilityModel::new(42, 6, 4, 0.5, 0, 0);
        for strategy in [
            SelectionStrategy::Uniform,
            SelectionStrategy::RoundRobin,
            SelectionStrategy::WeightedBySamples,
            SelectionStrategy::Oort,
        ] {
            let s = sampler(strategy, 0.0).with_availability(avail);
            for t in 1..=12 {
                let picked = s.select_with(t, &UtilityTable::default());
                assert!(!picked.is_empty(), "{strategy:?} t={t}");
                if (0..6).any(|c| avail.is_available(c, t)) {
                    assert!(
                        picked.iter().all(|&c| avail.is_available(c, t)),
                        "{strategy:?} t={t} picked unavailable: {picked:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn oort_exploits_high_loss_clients() {
        // client 3 has by far the highest loss; with K=3 and an
        // exploration floor of ⌈0.3·3⌉ = 1 slot, the 2 exploitation slots
        // must include it every round
        let s = sampler(SelectionStrategy::Oort, 0.0);
        let mut u = UtilityTable::new();
        u.record(0, 0.1);
        u.record(3, 9.0);
        u.record(5, 0.2);
        for t in 1..=8 {
            let picked = s.select_with(t, &u);
            assert!(picked.contains(&3), "t={t} {picked:?}");
            assert_eq!(picked.len(), 3);
            assert!(picked.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn parse_round_trips() {
        assert_eq!(
            SelectionStrategy::parse("uniform"),
            Some(SelectionStrategy::Uniform)
        );
        assert_eq!(
            SelectionStrategy::parse("RoundRobin"),
            Some(SelectionStrategy::RoundRobin)
        );
        assert_eq!(
            SelectionStrategy::parse("weighted"),
            Some(SelectionStrategy::WeightedBySamples)
        );
        assert_eq!(
            SelectionStrategy::parse("Oort"),
            Some(SelectionStrategy::Oort)
        );
        assert_eq!(
            SelectionStrategy::parse("utility"),
            Some(SelectionStrategy::Oort)
        );
        assert_eq!(SelectionStrategy::parse("x"), None);
    }
}
