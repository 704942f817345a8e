//! Deterministic, splittable randomness.
//!
//! Federated simulations need reproducibility across *parallel* client
//! training: the engine derives one [`Prng`] per (seed, round, client) via
//! [`Prng::derive`], so rayon scheduling order can never change results.

use crate::rng_tags::RngTag;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Deterministic pseudo-random number generator used across the workspace.
///
/// Wraps [`StdRng`] (a cryptographically seeded, platform-independent PRNG)
/// and adds a Box–Muller normal sampler plus hierarchical stream derivation.
#[derive(Debug, Clone)]
pub struct Prng {
    inner: StdRng,
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f32>,
}

impl Prng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        Prng {
            inner: StdRng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Derive an independent child stream from `(base_seed, tag, rest)`.
    ///
    /// `tag` names the stream (a constant from [`rng_tags`](crate::rng_tags));
    /// `rest` indexes it (round, client, …). The derivation is a
    /// SplitMix64-style hash of `tag` then `rest` mixed into the seed — a
    /// pure function of its arguments, so the set of derived streams is
    /// independent of call order.
    pub fn derive(base_seed: u64, tag: RngTag, rest: &[u64]) -> Self {
        let mix = |state: u64, t: u64| splitmix64(state ^ t.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let mut state = mix(base_seed ^ 0x9E37_79B9_7F4A_7C15, tag.value());
        for &t in rest {
            state = mix(state, t);
        }
        Prng::seed_from_u64(splitmix64(state))
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f32 {
        self.inner.gen::<f32>()
    }

    /// Uniform integer in `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        self.inner.gen_range(0..n)
    }

    /// Standard normal sample via Box–Muller.
    pub fn normal(&mut self) -> f32 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Box–Muller: two uniforms -> two independent normals.
        let u1 = loop {
            let u = self.uniform();
            if u > 1e-12 {
                break u;
            }
        };
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Sample from a Gamma(alpha, 1) distribution (Marsaglia–Tsang for
    /// `alpha >= 1`, boosted for `alpha < 1`). Used by the Dirichlet
    /// partitioner in `fedtrip-data`.
    pub fn gamma(&mut self, alpha: f64) -> f64 {
        if alpha < 1.0 {
            // Boost: Gamma(a) = Gamma(a+1) * U^{1/a}
            let u: f64 = self.uniform() as f64;
            return self.gamma(alpha + 1.0) * u.max(1e-300).powf(1.0 / alpha);
        }
        let d = alpha - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.normal() as f64;
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = self.uniform() as f64;
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v;
            }
            if u.max(1e-300).ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `0..n` (uniform without replacement).
    ///
    /// Runs the partial Fisher–Yates shuffle *sparsely*: instead of
    /// materializing the identity permutation `0..n` (O(n) — prohibitive for
    /// the 10⁵-client federations the population-scale runtime targets),
    /// displaced entries live in a hash map and every untouched position `p`
    /// implicitly holds `p`. The RNG draw sequence (`below(n - i)` for
    /// `i in 0..k`) and the returned sample are identical to the dense
    /// shuffle's, so selection streams never change with population size —
    /// only the cost drops from O(n) to O(k) time and space.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut displaced: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::with_capacity(2 * k);
        let at =
            |m: &std::collections::HashMap<usize, usize>, p: usize| m.get(&p).copied().unwrap_or(p);
        let mut out = Vec::with_capacity(k);
        for i in 0..k {
            let j = i + self.below(n - i);
            let vi = at(&displaced, i);
            let vj = at(&displaced, j);
            // swap(i, j); position i is final after this iteration because
            // every later swap targets positions > i
            displaced.insert(j, vi);
            out.push(vj);
        }
        out
    }

    /// Raw 64-bit output (escape hatch for hashing-style uses).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_tags;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derive_is_order_independent() {
        let mut a = Prng::derive(5, rng_tags::SELECT, &[1, 2]);
        let mut b = Prng::derive(5, rng_tags::SELECT, &[1, 2]);
        let mut c = Prng::derive(5, rng_tags::SELECT, &[2, 1]);
        assert_eq!(a.next_u64(), b.next_u64());
        // different index order -> different stream
        assert_ne!(b.next_u64(), c.next_u64());
    }

    #[test]
    fn derive_distinct_tags_distinct_streams() {
        let mut a = Prng::derive(9, rng_tags::SELECT, &[7]);
        let mut b = Prng::derive(9, rng_tags::DISPATCH, &[7]);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn normal_moments() {
        let mut rng = Prng::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal() as f64).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gamma_mean_matches_alpha() {
        let mut rng = Prng::seed_from_u64(11);
        for &alpha in &[0.1f64, 0.5, 1.0, 3.0] {
            let n = 20_000;
            let mean = (0..n).map(|_| rng.gamma(alpha)).sum::<f64>() / n as f64;
            // Gamma(alpha, 1) has mean alpha.
            assert!(
                (mean - alpha).abs() < 0.08 * alpha.max(0.5),
                "alpha={alpha}, mean={mean}"
            );
        }
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Prng::seed_from_u64(4);
        let s = rng.sample_indices(10, 4);
        assert_eq!(s.len(), 4);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        assert!(s.iter().all(|&i| i < 10));
    }

    #[test]
    fn sample_indices_full_population_is_permutation() {
        let mut rng = Prng::seed_from_u64(4);
        let mut s = rng.sample_indices(6, 6);
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn sparse_sample_matches_dense_partial_fisher_yates() {
        // the sparse emulation must reproduce the dense shuffle exactly:
        // same RNG draws, same output order
        let dense = |rng: &mut Prng, n: usize, k: usize| -> Vec<usize> {
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = i + rng.below(n - i);
                idx.swap(i, j);
            }
            idx.truncate(k);
            idx
        };
        for seed in 0..20u64 {
            for &(n, k) in &[
                (1usize, 1usize),
                (6, 3),
                (6, 6),
                (50, 4),
                (1000, 7),
                (97, 96),
            ] {
                let mut a = Prng::seed_from_u64(seed);
                let mut b = Prng::seed_from_u64(seed);
                assert_eq!(
                    a.sample_indices(n, k),
                    dense(&mut b, n, k),
                    "seed={seed} n={n} k={k}"
                );
                // both consumed the same number of draws
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }

    #[test]
    fn sample_indices_large_population_is_cheap_and_valid() {
        let mut rng = Prng::seed_from_u64(99);
        let s = rng.sample_indices(1_000_000, 8);
        assert_eq!(s.len(), 8);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
        assert!(s.iter().all(|&i| i < 1_000_000));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_indices_rejects_oversample() {
        let mut rng = Prng::seed_from_u64(4);
        let _ = rng.sample_indices(3, 5);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Prng::seed_from_u64(8);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
