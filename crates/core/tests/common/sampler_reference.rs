//! The client sampler as it stood before its draws were folded onto one
//! admit-predicate draw: an always-on path per strategy, a filtered twin per
//! strategy, Oort's own rejection loop and three inline redispatch branches.
//! `Sampler` must return exactly these `Vec`s for every input; this file is
//! the oracle, written against the public API only. Compiled into
//! `proptest_runtime.rs` through `#[path]`.

use super::{AvailabilityModel, ClientSizes, DeviceProfiles, SelectionStrategy, UtilityTable};
use fedtrip_tensor::rng::Prng;
use fedtrip_tensor::rng_tags;

const OORT_EXPLORE_FRAC: f64 = 0.3;

/// The inputs `Sampler` is built from, with the old draw paths as methods.
pub struct ReferenceSampler {
    pub seed: u64,
    pub clients_per_round: usize,
    pub strategy: SelectionStrategy,
    pub failure_prob: f32,
    pub client_sizes: ClientSizes,
    pub availability: AvailabilityModel,
    pub profiles: DeviceProfiles,
}

impl ReferenceSampler {
    fn n_clients(&self) -> usize {
        self.client_sizes.n_clients()
    }

    fn weights(&self) -> Vec<f64> {
        (0..self.n_clients())
            .map(|c| self.client_sizes.get(c) as f64)
            .collect()
    }

    pub fn select(&self, t: usize) -> Vec<usize> {
        self.select_with(t, &UtilityTable::default())
    }

    pub fn select_with(&self, t: usize, utility: &UtilityTable) -> Vec<usize> {
        if self.availability.is_always_on() && self.strategy != SelectionStrategy::Oort {
            return self.select_unfiltered(t);
        }
        let mut selected = match self.strategy {
            SelectionStrategy::Oort => self.select_oort(t, utility),
            SelectionStrategy::Uniform => self.select_uniform_filtered(t),
            SelectionStrategy::RoundRobin => self.select_roundrobin_filtered(t),
            SelectionStrategy::WeightedBySamples => self.select_weighted_filtered(t),
        };
        selected.sort_unstable();
        selected.dedup();
        selected
    }

    fn select_unfiltered(&self, t: usize) -> Vec<usize> {
        let (n, k) = (self.n_clients(), self.clients_per_round);
        let mut sel_rng = Prng::derive(self.seed, rng_tags::SELECT, &[t as u64]);
        let mut selected = match self.strategy {
            SelectionStrategy::Uniform | SelectionStrategy::Oort => sel_rng.sample_indices(n, k),
            SelectionStrategy::RoundRobin => (0..k).map(|i| ((t - 1) * k + i) % n).collect(),
            SelectionStrategy::WeightedBySamples => weighted_draw(&mut sel_rng, self.weights(), k),
        };
        selected.sort_unstable();
        selected.dedup();
        selected
    }

    fn select_uniform_filtered(&self, t: usize) -> Vec<usize> {
        let (n, k) = (self.n_clients(), self.clients_per_round);
        let mut rng = Prng::derive(self.seed, rng_tags::SELECT, &[t as u64]);
        let mut picked: Vec<usize> = Vec::with_capacity(k);
        let cap = 16 * k + 64;
        let mut attempts = 0;
        while picked.len() < k && attempts < cap {
            attempts += 1;
            let c = rng.below(n);
            if self.availability.is_available(c, t) && !picked.contains(&c) {
                picked.push(c);
            }
        }
        if picked.len() < k {
            let mut pool: Vec<usize> = (0..n)
                .filter(|&c| self.availability.is_available(c, t) && !picked.contains(&c))
                .collect();
            if pool.is_empty() && picked.is_empty() {
                return self.select_unfiltered(t);
            }
            while picked.len() < k && !pool.is_empty() {
                picked.push(pool.swap_remove(rng.below(pool.len())));
            }
        }
        picked
    }

    fn select_roundrobin_filtered(&self, t: usize) -> Vec<usize> {
        let (n, k) = (self.n_clients(), self.clients_per_round);
        let start = (t - 1) * k;
        let mut picked = Vec::with_capacity(k);
        let mut off = 0;
        while picked.len() < k && off < n {
            let c = (start + off) % n;
            off += 1;
            if self.availability.is_available(c, t) && !picked.contains(&c) {
                picked.push(c);
            }
        }
        if picked.is_empty() {
            return self.select_unfiltered(t);
        }
        picked
    }

    fn select_weighted_filtered(&self, t: usize) -> Vec<usize> {
        let mut rng = Prng::derive(self.seed, rng_tags::SELECT, &[t as u64]);
        let weights: Vec<f64> = (0..self.n_clients())
            .map(|c| {
                if self.availability.is_available(c, t) {
                    self.client_sizes.get(c) as f64
                } else {
                    0.0
                }
            })
            .collect();
        if weights.iter().all(|&w| w <= 0.0) {
            return self.select_unfiltered(t);
        }
        weighted_draw(&mut rng, weights, self.clients_per_round)
    }

    fn select_oort(&self, t: usize, utility: &UtilityTable) -> Vec<usize> {
        let (n, k) = (self.n_clients(), self.clients_per_round);
        let mut rng = Prng::derive(self.seed, rng_tags::OORT, &[t as u64]);
        let mut scored: Vec<(f64, usize)> = utility
            .iter()
            .filter(|&(c, _)| c < n && self.availability.is_available(c, t))
            .map(|(c, loss)| (loss / self.profiles.get(c).compute_multiplier, c))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let explore_k = ((k as f64) * OORT_EXPLORE_FRAC).ceil() as usize;
        let exploit_k = k.saturating_sub(explore_k).min(scored.len());
        let mut picked: Vec<usize> = scored[..exploit_k].iter().map(|&(_, c)| c).collect();
        let cap = 16 * k + 64;
        let mut attempts = 0;
        while picked.len() < k && attempts < cap {
            attempts += 1;
            let c = rng.below(n);
            if self.availability.is_available(c, t) && !picked.contains(&c) {
                picked.push(c);
            }
        }
        if picked.len() < k {
            let mut pool: Vec<usize> = (0..n)
                .filter(|&c| self.availability.is_available(c, t) && !picked.contains(&c))
                .collect();
            if pool.is_empty() && picked.is_empty() {
                return rng.sample_indices(n, k);
            }
            while picked.len() < k && !pool.is_empty() {
                picked.push(pool.swap_remove(rng.below(pool.len())));
            }
        }
        picked
    }

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
            let mut surv_rng = Prng::derive(self.seed, rng_tags::SURVIVOR, &[t as u64]);
            survivors.push(selected[surv_rng.below(selected.len())]);
        }
        survivors
    }

    pub fn participants_with(&self, t: usize, utility: &UtilityTable) -> Vec<usize> {
        self.apply_failures(t, &self.select_with(t, utility))
    }

    pub fn select_idle(&self, t: usize, busy: &[usize], k: usize) -> Vec<usize> {
        let n = self.n_clients();
        let idle = n - busy.len();
        let k = k.min(idle);
        if k == 0 {
            return Vec::new();
        }
        let is_busy = |c: usize| busy.binary_search(&c).is_ok();
        let mut rng = Prng::derive(self.seed, rng_tags::DISPATCH, &[t as u64]);
        let uniform = matches!(
            self.strategy,
            SelectionStrategy::Uniform | SelectionStrategy::Oort
        ) || (self.strategy == SelectionStrategy::WeightedBySamples
            && matches!(self.client_sizes, ClientSizes::Uniform { .. }));
        let mut picked: Vec<usize> = if uniform {
            let mut sel: Vec<usize> = Vec::with_capacity(k);
            while sel.len() < k {
                let c = rng.below(n);
                if !is_busy(c) && !sel.contains(&c) {
                    sel.push(c);
                }
            }
            sel
        } else if self.strategy == SelectionStrategy::RoundRobin {
            let start = (t - 1) * self.clients_per_round;
            let mut sel = Vec::with_capacity(k);
            let mut off = 0;
            while sel.len() < k && off < n {
                let c = (start + off) % n;
                off += 1;
                if !is_busy(c) && !sel.contains(&c) {
                    sel.push(c);
                }
            }
            sel
        } else {
            let pool: Vec<usize> = (0..n).filter(|&c| !is_busy(c)).collect();
            weighted_draw(
                &mut rng,
                pool.iter()
                    .map(|&c| self.client_sizes.get(c) as f64)
                    .collect(),
                k,
            )
            .into_iter()
            .map(|i| pool[i])
            .collect()
        };
        picked.sort_unstable();
        picked.dedup();
        picked
    }
}

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
