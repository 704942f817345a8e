//! Trace-driven client availability, churn, and selection utility.
//!
//! The paper's evaluation assumes an idealized federation: every client is
//! reachable every round and failure is an i.i.d. coin flip. The
//! communication-perspective surveys identify *intermittent availability*
//! (devices charge at night, sit on metered links by day) and *device
//! churn* (clients join and leave the federation over its lifetime) as the
//! dominant practical constraints on cross-device FL. This module models
//! both as pure functions of `(seed, client, t)` so traces cost no memory,
//! replay bit-identically, and need no cursor beyond the round counter that
//! checkpoints already carry:
//!
//! * **Diurnal on/off traces** — client `c` draws a phase offset from the
//!   `(AVAIL, c)` RNG stream and is then available on the first
//!   `round(on_fraction * period)` rounds of every `period`-round cycle,
//!   shifted by its phase. Phases decorrelate clients, so the available
//!   fraction of the federation hovers near `on_fraction` each round.
//! * **Churn epochs** — client `c` draws a join round from `(CHURN, c)`
//!   (uniform over the first `join_window` rounds) and a residency lifetime
//!   (uniform in `[residency, 2·residency)` rounds), after which it leaves
//!   for good. Joiners admit lazily through the sparse
//!   [`ClientStateStore`](crate::algorithms::ClientStateStore) on first
//!   selection; the engine evicts a leaver's state the round it departs.
//!
//! The model composes into
//! [`Sampler::participants_with`](crate::runtime::Sampler::participants_with):
//! every selection strategy draws over the available set, falling back to
//! the whole federation in a round where nobody is reachable. The
//! semi-async redispatch path does not consult it yet. [`UtilityTable`]
//! carries the per-client statistical utility (most recent observed
//! training loss) that the Oort-style `SelectionStrategy::Oort` scores
//! against device speed.

use fedtrip_tensor::rng::Prng;
use fedtrip_tensor::rng_tags;
use std::collections::BTreeMap;

/// Seed-derived availability traces and churn epochs for a federation.
///
/// A pure value type: `is_available(c, t)` is a function of
/// `(seed, c, t)` alone, so queries are order-independent and nothing needs
/// checkpointing beyond the round counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityModel {
    seed: u64,
    n_clients: usize,
    /// Diurnal cycle length in rounds; `0` disables the on/off trace.
    period: usize,
    /// Fraction of each cycle a client is reachable (clamped to `(0, 1]`
    /// by construction: at least one on-round per cycle).
    on_fraction: f32,
    /// Width of the join window in rounds; `0` disables churn.
    join_window: usize,
    /// Minimum residency in rounds once joined (lifetime is uniform in
    /// `[residency, 2·residency)`).
    residency: usize,
}

impl AvailabilityModel {
    /// The trivial model: every client reachable every round, nobody joins
    /// late or leaves.
    pub fn always_on(seed: u64, n_clients: usize) -> Self {
        AvailabilityModel {
            seed,
            n_clients,
            period: 0,
            on_fraction: 1.0,
            join_window: 0,
            residency: 0,
        }
    }

    /// A model with a diurnal trace (`period > 0`) and/or churn
    /// (`join_window > 0`). `period == 0` disables the on/off trace,
    /// `join_window == 0` disables churn; both zero is exactly
    /// [`AvailabilityModel::always_on`].
    ///
    /// # Panics
    /// Panics when `period > 0` and `on_fraction` is not in `(0, 1]`, or
    /// when `join_window > 0` and `residency == 0`.
    pub fn new(
        seed: u64,
        n_clients: usize,
        period: usize,
        on_fraction: f32,
        join_window: usize,
        residency: usize,
    ) -> Self {
        if period > 0 {
            assert!(
                on_fraction > 0.0 && on_fraction <= 1.0,
                "on_fraction must be in (0, 1]"
            );
        }
        if join_window > 0 {
            assert!(residency > 0, "churn requires a positive residency");
        }
        AvailabilityModel {
            seed,
            n_clients,
            period,
            on_fraction,
            join_window,
            residency,
        }
    }

    /// Whether this is the trivial always-on model, where uniform selection
    /// keeps its own draw.
    pub fn is_always_on(&self) -> bool {
        self.period == 0 && self.join_window == 0
    }

    /// Whether churn is enabled (leavers exist and need eviction).
    pub fn has_churn(&self) -> bool {
        self.join_window > 0
    }

    /// Federation size.
    pub fn n_clients(&self) -> usize {
        self.n_clients
    }

    /// Client `c`'s diurnal on/off state at round `t` (always `true` when
    /// the trace is disabled).
    fn diurnal_on(&self, client: usize, t: usize) -> bool {
        if self.period == 0 {
            return true;
        }
        let mut rng = Prng::derive(self.seed, rng_tags::AVAIL, &[client as u64]);
        let phase = rng.below(self.period);
        let on_rounds =
            ((self.on_fraction as f64 * self.period as f64).round() as usize).clamp(1, self.period);
        (t + phase) % self.period < on_rounds
    }

    /// Client `c`'s churn epoch: the last round *before* it joins and the
    /// last round it is present. A client is a member at `t` iff
    /// `join < t <= leave`. Without churn every client is a founding member
    /// that never leaves.
    fn churn_epoch(&self, client: usize) -> (usize, usize) {
        if self.join_window == 0 {
            return (0, usize::MAX);
        }
        let mut rng = Prng::derive(self.seed, rng_tags::CHURN, &[client as u64]);
        let join = rng.below(self.join_window + 1);
        let lifetime = self.residency + rng.below(self.residency);
        (join, join + lifetime)
    }

    /// Whether client `c` has permanently left the federation by round `t`
    /// (its state is eligible for eviction).
    pub fn has_left(&self, client: usize, t: usize) -> bool {
        t > self.churn_epoch(client).1
    }

    /// Whether client `c` is reachable at round `t`: a member (joined, not
    /// yet left) whose diurnal trace is in an on-phase.
    pub fn is_available(&self, client: usize, t: usize) -> bool {
        let (join, leave) = self.churn_epoch(client);
        t > join && t <= leave && self.diurnal_on(client, t)
    }
}

/// Per-client statistical utility: the most recent observed mean training
/// loss, maintained by the engine after every fold.
///
/// The Oort insight is that clients whose local loss is still high carry
/// the most informative updates; scoring them against device speed
/// prioritizes "useful *and* fast". The table only ever holds clients that
/// have participated (at most rounds × K entries), so it adds nothing to
/// the population-scale memory axis. It is part of the run state, so a
/// resumed run scores identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UtilityTable {
    entries: BTreeMap<usize, f64>,
}

impl UtilityTable {
    /// An empty table (no client explored yet).
    pub fn new() -> Self {
        UtilityTable::default()
    }

    /// Number of explored clients.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no client has been explored yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The client's last observed mean loss, if it has participated.
    pub fn get(&self, client: usize) -> Option<f64> {
        self.entries.get(&client).copied()
    }

    /// Record the client's latest observed mean loss (overwrites).
    pub fn record(&mut self, client: usize, mean_loss: f64) {
        self.entries.insert(client, mean_loss);
    }

    /// Drop a departed client's utility (churn eviction).
    pub fn evict(&mut self, client: usize) {
        self.entries.remove(&client);
    }

    /// Iterate `(client, mean_loss)` in ascending client order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.entries.iter().map(|(&c, &l)| (c, l))
    }

    /// Export as sorted `(client, mean_loss)` pairs.
    pub fn export(&self) -> Vec<(usize, f64)> {
        self.iter().collect()
    }

    /// Rebuild from exported pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (usize, f64)>) -> Self {
        UtilityTable {
            entries: pairs.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_on_is_always_available() {
        let m = AvailabilityModel::always_on(7, 50);
        assert!(m.is_always_on());
        assert!(!m.has_churn());
        for c in 0..50 {
            for t in 1..=20 {
                assert!(m.is_available(c, t));
                assert!(!m.has_left(c, t));
            }
        }
    }

    #[test]
    fn diurnal_trace_is_periodic_with_correct_duty_cycle() {
        let m = AvailabilityModel::new(7, 40, 8, 0.5, 0, 0);
        for c in 0..40 {
            let on: Vec<bool> = (1..=8).map(|t| m.is_available(c, t)).collect();
            // exactly round(0.5 * 8) = 4 on-rounds per cycle
            assert_eq!(on.iter().filter(|&&b| b).count(), 4, "client {c}");
            // periodic: the next cycle repeats the first
            for t in 1..=8 {
                assert_eq!(m.is_available(c, t), m.is_available(c, t + 8));
            }
        }
        // phases decorrelate: not every client shares client 0's trace
        let c0: Vec<bool> = (1..=8).map(|t| m.is_available(0, t)).collect();
        assert!((1..40).any(|c| (1..=8).any(|t| m.is_available(c, t) != c0[t - 1])));
    }

    #[test]
    fn churn_epochs_are_ordered_and_bounded() {
        let m = AvailabilityModel::new(11, 100, 0, 1.0, 10, 6);
        assert!(m.has_churn());
        for c in 0..100 {
            let (join, leave) = m.churn_epoch(c);
            assert!(join <= 10, "join {join} outside window");
            assert!(leave - join >= 6 && leave - join < 12, "lifetime");
            // membership interval matches the epoch
            assert!(!m.is_available(c, join));
            assert!(m.is_available(c, join + 1));
            assert!(m.is_available(c, leave));
            assert!(!m.is_available(c, leave + 1));
            assert!(m.has_left(c, leave + 1));
            assert!(!m.has_left(c, leave));
        }
    }

    #[test]
    fn queries_are_pure_functions_of_seed_client_round() {
        let a = AvailabilityModel::new(3, 30, 6, 0.4, 5, 4);
        let b = AvailabilityModel::new(3, 30, 6, 0.4, 5, 4);
        for c in 0..30 {
            for t in 1..=30 {
                assert_eq!(a.is_available(c, t), b.is_available(c, t));
            }
        }
    }

    #[test]
    #[should_panic(expected = "on_fraction")]
    fn rejects_zero_duty_cycle() {
        let _ = AvailabilityModel::new(1, 10, 8, 0.0, 0, 0);
    }

    #[test]
    #[should_panic(expected = "residency")]
    fn rejects_churn_without_residency() {
        let _ = AvailabilityModel::new(1, 10, 0, 1.0, 4, 0);
    }

    #[test]
    fn utility_table_round_trips_and_evicts() {
        let mut u = UtilityTable::new();
        assert!(u.is_empty());
        u.record(5, 0.75);
        u.record(2, 1.5);
        u.record(5, 0.5); // overwrite keeps the latest
        assert_eq!(u.len(), 2);
        assert_eq!(u.get(5), Some(0.5));
        assert_eq!(u.export(), vec![(2, 1.5), (5, 0.5)]);
        let v = UtilityTable::from_pairs(u.export());
        assert_eq!(u, v);
        u.evict(2);
        assert_eq!(u.get(2), None);
        assert_eq!(u.len(), 1);
    }
}
