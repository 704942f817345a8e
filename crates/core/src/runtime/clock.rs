//! Virtual time and per-client device profiles.
//!
//! The simulator has no real concurrency to measure, so elapsed time is
//! *virtual*: each client's round duration is derived from the work it
//! actually did (training FLOPs from the Appendix-A cost accounting, bytes
//! exchanged with the server) divided by its device capability. Profiles are
//! derived deterministically from the master seed, so heterogeneous-device
//! runs stay bit-reproducible.
//!
//! ```
//! use fedtrip_core::runtime::{DeviceProfile, VirtualClock};
//!
//! // a 4x speed spread: every profile lands in [1, 4)x of the reference
//! let profiles = DeviceProfile::federation(2023, 8, 4.0);
//! assert!(profiles.iter().all(|p| (1.0..4.0).contains(&p.compute_multiplier)));
//!
//! // a round that computes 1 GFLOP and ships 4 MB takes 2 virtual seconds
//! // on the reference device; the clock only ever moves forward
//! let mut clock = VirtualClock::new();
//! clock.advance_by(DeviceProfile::homogeneous().duration(1e9, 4e6));
//! assert!((clock.now() - 2.0).abs() < 1e-12);
//! clock.advance_to(1.0); // in the past: ignored
//! assert_eq!(clock.now(), 2.0);
//! ```

use fedtrip_tensor::rng::Prng;
use fedtrip_tensor::rng_tags;
use serde::{Deserialize, Serialize};

/// Reference device compute throughput: 1 GFLOP/s, the ballpark of the
/// embedded-class devices the paper's resource argument targets.
pub const BASE_FLOPS_PER_SEC: f64 = 1e9;

/// Reference link bandwidth: 4 MB/s up and down.
pub const BASE_BANDWIDTH_BPS: f64 = 4e6;

/// Monotonically advancing virtual wall-clock, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct VirtualClock {
    now: f64,
}

impl VirtualClock {
    /// A clock at `t = 0`.
    pub fn new() -> Self {
        VirtualClock { now: 0.0 }
    }

    /// A clock at instant `t` (a round resuming from the last record's
    /// virtual time).
    pub fn at(t: f64) -> Self {
        VirtualClock { now: t }
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advance by a non-negative duration.
    pub fn advance_by(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0, "negative duration {dt}");
        self.now += dt;
    }

    /// Advance to an absolute instant; instants in the past are ignored
    /// (the clock never runs backwards).
    pub fn advance_to(&mut self, t: f64) {
        if t > self.now {
            self.now = t;
        }
    }
}

/// A client device's capability: how much slower than the reference device
/// it computes, and how fast its link is.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Compute slowdown relative to [`BASE_FLOPS_PER_SEC`] (`1.0` = the
    /// reference device, `4.0` = a 4x slower device).
    pub compute_multiplier: f64,
    /// Link bandwidth in bytes per second (up == down).
    pub bandwidth_bytes_per_sec: f64,
}

impl DeviceProfile {
    /// The reference device.
    pub fn homogeneous() -> Self {
        DeviceProfile {
            compute_multiplier: 1.0,
            bandwidth_bytes_per_sec: BASE_BANDWIDTH_BPS,
        }
    }

    /// Derive a client's profile from the master seed.
    ///
    /// `speed_spread >= 1` is the maximum slowdown: the client's compute
    /// multiplier is `spread^u` with `u ~ U[0, 1)` drawn from a dedicated
    /// RNG stream tagged `(DEVICE, client)`, so profiles never perturb the
    /// training/selection streams. The link slows down with the same factor
    /// (slow devices sit on slow links, the common case in the federated
    /// measurement studies). `speed_spread == 1` yields the reference
    /// device exactly.
    ///
    /// # Panics
    /// Panics when `speed_spread < 1`.
    pub fn derive(seed: u64, client: usize, speed_spread: f64) -> DeviceProfile {
        assert!(speed_spread >= 1.0, "speed_spread must be >= 1");
        let mut rng = Prng::derive(seed, rng_tags::DEVICE, &[client as u64]);
        let u = rng.uniform() as f64;
        let mult = speed_spread.powf(u);
        DeviceProfile {
            compute_multiplier: mult,
            bandwidth_bytes_per_sec: BASE_BANDWIDTH_BPS / mult,
        }
    }

    /// Profiles for a whole federation, materialized eagerly.
    ///
    /// O(n_clients) memory — fine for analysis over paper-scale
    /// federations; the engine itself uses the lazy [`DeviceProfiles`] so
    /// population size stays off the memory axis.
    pub fn federation(seed: u64, n_clients: usize, speed_spread: f64) -> Vec<DeviceProfile> {
        (0..n_clients)
            .map(|c| DeviceProfile::derive(seed, c, speed_spread))
            .collect()
    }

    /// Virtual seconds this device needs for one round that computes
    /// `flops` and exchanges `comm_bytes` with the server.
    pub fn duration(&self, flops: f64, comm_bytes: f64) -> f64 {
        flops * self.compute_multiplier / BASE_FLOPS_PER_SEC
            + comm_bytes / self.bandwidth_bytes_per_sec
    }
}

/// Lazily derived device profiles for a whole federation.
///
/// Since a profile is a pure function of `(seed, client, spread)`, nothing
/// needs to be stored per client: `get` derives on demand, so a
/// 10⁵-client federation costs the same three words as a 10-client one.
/// Bit-identical to indexing an eager [`DeviceProfile::federation`] vector.
#[derive(Debug, Clone, Copy)]
pub struct DeviceProfiles {
    seed: u64,
    n_clients: usize,
    speed_spread: f64,
}

impl DeviceProfiles {
    /// Lazy profiles for `n_clients` devices under the given speed spread.
    ///
    /// # Panics
    /// Panics when `speed_spread < 1`.
    pub fn new(seed: u64, n_clients: usize, speed_spread: f64) -> Self {
        assert!(speed_spread >= 1.0, "speed_spread must be >= 1");
        DeviceProfiles {
            seed,
            n_clients,
            speed_spread,
        }
    }

    /// Federation size.
    pub fn n_clients(&self) -> usize {
        self.n_clients
    }

    /// Derive client `c`'s profile.
    ///
    /// # Panics
    /// Panics when `c >= n_clients`.
    pub fn get(&self, c: usize) -> DeviceProfile {
        assert!(c < self.n_clients, "client {c} out of range");
        DeviceProfile::derive(self.seed, c, self.speed_spread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance_by(2.5);
        c.advance_to(2.0); // in the past: ignored
        assert_eq!(c.now(), 2.5);
        c.advance_to(4.0);
        assert_eq!(c.now(), 4.0);
    }

    #[test]
    fn unit_spread_is_exactly_homogeneous() {
        for client in 0..16 {
            let p = DeviceProfile::derive(9, client, 1.0);
            assert_eq!(p.compute_multiplier, 1.0);
            assert_eq!(p.bandwidth_bytes_per_sec, BASE_BANDWIDTH_BPS);
        }
    }

    #[test]
    fn profiles_are_seed_deterministic_and_bounded() {
        let a = DeviceProfile::federation(7, 20, 4.0);
        let b = DeviceProfile::federation(7, 20, 4.0);
        assert_eq!(a, b);
        for p in &a {
            assert!(p.compute_multiplier >= 1.0 && p.compute_multiplier < 4.0);
        }
        // a 4x spread actually spreads: slowest/fastest > 1.5 over 20 devices
        let max = a.iter().map(|p| p.compute_multiplier).fold(1.0, f64::max);
        let min = a.iter().map(|p| p.compute_multiplier).fold(4.0, f64::min);
        assert!(max / min > 1.5, "spread {}", max / min);
    }

    #[test]
    fn lazy_profiles_match_eager_federation() {
        let eager = DeviceProfile::federation(7, 20, 4.0);
        let lazy = DeviceProfiles::new(7, 20, 4.0);
        assert_eq!(lazy.n_clients(), 20);
        for (c, p) in eager.iter().enumerate() {
            assert_eq!(*p, lazy.get(c));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lazy_profiles_bound_check() {
        let _ = DeviceProfiles::new(7, 4, 1.0).get(4);
    }

    #[test]
    fn duration_composes_compute_and_comm() {
        let p = DeviceProfile::homogeneous();
        let d = p.duration(BASE_FLOPS_PER_SEC, BASE_BANDWIDTH_BPS);
        assert!((d - 2.0).abs() < 1e-12);
        let slow = DeviceProfile {
            compute_multiplier: 4.0,
            bandwidth_bytes_per_sec: BASE_BANDWIDTH_BPS / 4.0,
        };
        assert!((slow.duration(BASE_FLOPS_PER_SEC, BASE_BANDWIDTH_BPS) - 8.0).abs() < 1e-12);
    }
}
