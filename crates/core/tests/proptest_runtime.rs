//! Property-based tests for the runtime layer: staleness-discount weights
//! (positive, monotone-decreasing, sum-preserving at aggregation),
//! seed-derived device profiles (deterministic, bounded), and the client
//! sampler's draws against its reference.

use fedtrip_core::algorithms::{weighted_param_average, LocalOutcome};
use fedtrip_core::runtime::{
    staleness_weight, AvailabilityModel, ClientSizes, DeviceProfile, DeviceProfiles, Sampler,
    SelectionStrategy, UtilityTable,
};
use proptest::prelude::*;
use reference::ReferenceSampler;

#[path = "common/sampler_reference.rs"]
mod reference;

fn outcome(params: Vec<f32>, n_samples: usize, staleness: usize, exponent: f32) -> LocalOutcome {
    LocalOutcome {
        params,
        n_samples,
        mean_loss: 0.0,
        iterations: 1,
        train_flops: 0.0,
        aux: None,
        staleness,
        agg_weight: staleness_weight(staleness, exponent),
        dense_down: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `1 / (1 + s)^a` is strictly positive for any staleness/exponent.
    #[test]
    fn staleness_weights_are_positive(s in 0usize..10_000, a in 0.0f32..8.0) {
        prop_assert!(staleness_weight(s, a) > 0.0);
    }

    /// Weights are monotone non-increasing in staleness (strictly
    /// decreasing for a positive exponent).
    #[test]
    fn staleness_weights_decrease_with_staleness(s in 0usize..1_000, a in 0.01f32..8.0) {
        let fresh = staleness_weight(s, a);
        let staler = staleness_weight(s + 1, a);
        prop_assert!(staler < fresh, "w({s})={fresh} w({})={staler}", s + 1);
        prop_assert!(fresh <= 1.0);
    }

    /// Aggregation is sum-preserving: the discounted weights are
    /// renormalized to sum to 1, so averaging copies of the same constant
    /// vector returns that constant regardless of staleness pattern.
    #[test]
    fn staleness_discounted_aggregation_preserves_weight_sum(
        c in -5.0f32..5.0,
        samples in prop::collection::vec(1usize..500, 1..6),
        staleness in prop::collection::vec(0usize..20, 6),
        a in 0.0f32..4.0,
    ) {
        let outcomes: Vec<LocalOutcome> = samples
            .iter()
            .zip(&staleness)
            .map(|(&n, &s)| outcome(vec![c, -c, 0.5 * c], n, s, a))
            .collect();
        let avg = weighted_param_average(&outcomes);
        for (got, want) in avg.iter().zip([c, -c, 0.5 * c]) {
            prop_assert!((got - want).abs() < 1e-4, "{got} vs {want}");
        }
    }

    /// Explicit weight-sum check: the normalized effective weights used by
    /// the average sum to exactly 1 (within float tolerance).
    #[test]
    fn normalized_weights_sum_to_one(
        samples in prop::collection::vec(1usize..500, 1..8),
        staleness in prop::collection::vec(0usize..20, 8),
        a in 0.0f32..4.0,
    ) {
        let raw: Vec<f64> = samples
            .iter()
            .zip(&staleness)
            .map(|(&n, &s)| n as f64 * staleness_weight(s, a))
            .collect();
        let total: f64 = raw.iter().sum();
        let sum: f64 = raw.iter().map(|w| w / total).sum();
        prop_assert!((sum - 1.0).abs() < 1e-12, "weight sum {sum}");
    }

    /// Device profiles are pure functions of (seed, client, spread) and
    /// bounded by the spread.
    #[test]
    fn device_profiles_deterministic_and_bounded(
        seed in 0u64..1_000,
        client in 0usize..64,
        spread in 1.0f64..16.0,
    ) {
        let a = DeviceProfile::derive(seed, client, spread);
        let b = DeviceProfile::derive(seed, client, spread);
        prop_assert_eq!(a, b);
        prop_assert!(a.compute_multiplier >= 1.0 && a.compute_multiplier < spread.max(1.0 + 1e-9));
        prop_assert!(a.bandwidth_bytes_per_sec > 0.0);
        // more work never takes less virtual time
        prop_assert!(a.duration(2e9, 1e6) > a.duration(1e9, 1e6));
    }
}

/// The availability regimes the sampler is checked under: always-on,
/// diurnal 4:0.5, churn 2:3, both together, and a sparse trace (diurnal
/// 24:0.05, run at N = 3) where most rounds reach nobody and selection takes
/// the liveness fallback.
fn availability(regime: usize, seed: u64, n: usize) -> AvailabilityModel {
    match regime {
        0 => AvailabilityModel::always_on(seed, n),
        1 => AvailabilityModel::new(seed, n, 4, 0.5, 0, 0),
        2 => AvailabilityModel::new(seed, n, 0, 1.0, 2, 3),
        3 => AvailabilityModel::new(seed, n, 4, 0.5, 2, 3),
        _ => AvailabilityModel::new(seed, n, 24, 0.05, 0, 0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every public draw of the sampler returns exactly the reference's
    /// `Vec`, for all four strategies, every availability regime, uniform
    /// and unequal per-client sizes, random utility tables and random busy
    /// sets, over rounds 1..64.
    #[test]
    fn sampler_draws_match_the_reference(
        seed in 0u64..1 << 40,
        strategy in prop::sample::select(vec![
            SelectionStrategy::Uniform,
            SelectionStrategy::RoundRobin,
            SelectionStrategy::WeightedBySamples,
            SelectionStrategy::Oort,
        ]),
        regime in 0usize..5,
        n_pick in 4usize..48,
        k_pick in 1usize..48,
        per_client in 0usize..2,
        sizes in prop::collection::vec(1usize..100, 48),
        failure_prob in 0.0f32..0.6,
        spread in 1.0f64..8.0,
        table_clients in prop::collection::vec(0usize..52, 0..24),
        table_losses in prop::collection::vec(0.0f64..5.0, 24),
        busy_mask in prop::collection::vec(0usize..3, 48),
        idle_k in 0usize..52,
    ) {
        let n = if regime == 4 { 3 } else { n_pick };
        let k = 1 + (k_pick - 1) % n;
        let client_sizes = if per_client == 1 {
            ClientSizes::PerClient(sizes[..n].to_vec())
        } else {
            ClientSizes::Uniform { n_clients: n, samples: sizes[0] }
        };
        let avail = availability(regime, seed, n);
        let profiles = DeviceProfiles::new(seed, n, spread);
        let sampler = Sampler::new(seed, k, strategy, failure_prob, client_sizes.clone())
            .with_availability(avail)
            .with_profiles(profiles);
        let reference = ReferenceSampler {
            seed,
            clients_per_round: k,
            strategy,
            failure_prob,
            client_sizes,
            availability: avail,
            profiles,
        };
        let utility = UtilityTable::from_pairs(
            table_clients.iter().copied().zip(table_losses.iter().copied()),
        );
        let busy: Vec<usize> = (0..n).filter(|&c| busy_mask[c] == 0).collect();
        for t in 1..64 {
            let case = format!("{strategy:?} regime {regime} n {n} k {k} t {t}");
            prop_assert_eq!(sampler.select(t), reference.select(t), "{}", case);
            prop_assert_eq!(
                sampler.select_with(t, &utility),
                reference.select_with(t, &utility),
                "{}",
                case
            );
            prop_assert_eq!(
                sampler.participants_with(t, &utility),
                reference.participants_with(t, &utility),
                "{}",
                case
            );
            prop_assert_eq!(
                sampler.select_idle(t, &busy, idle_k),
                reference.select_idle(t, &busy, idle_k),
                "{} busy {:?} idle_k {}",
                case,
                busy,
                idle_k
            );
        }
    }
}
