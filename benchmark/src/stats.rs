//! Order statistics and the digest the correctness checks compare.

/// A tail percentile is only reported with this many samples beyond it;
/// with fewer, it is a guess at the maximum rather than a percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 1)`: the smallest sample with at
/// least `p·n` samples at or below it. `None` unless at least
/// [`TAIL_SAMPLES`] samples lie beyond it — the field is then omitted by
/// the caller, not guessed.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let rank = (p * v.len() as f64).ceil() as usize;
    (rank >= 1 && v.len() >= rank + TAIL_SAMPLES).then(|| v[rank - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in timing samples"));
    v
}

/// FNV-1a over 64-bit words: stable across runs, platforms and toolchains
/// (unlike `DefaultHasher`), which is all a same-seed digest check needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in, byte by byte.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold an `f64` in by bit pattern (so `-0.0 != 0.0`, NaNs compare by
    /// payload: bit-identical means bit-identical).
    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Fold a parameter vector in by bit pattern.
    pub fn f32s(&mut self, xs: &[f32]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits() as u64);
        }
    }

    /// The digest as fixed-width hex (JSON numbers cannot hold a `u64`).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 220 samples: rank 209, 11 beyond
        assert_eq!(tail_percentile(&ramp(220), 0.95), Some(209.0));
        // 200 samples: rank 190, exactly 10 beyond
        assert_eq!(tail_percentile(&ramp(200), 0.95), Some(190.0));
        // 199 samples: rank 190, 9 beyond — omitted, not guessed
        assert_eq!(tail_percentile(&ramp(199), 0.95), None);
    }

    #[test]
    fn p90_of_a_hundred_is_the_ninetieth() {
        assert_eq!(tail_percentile(&ramp(100), 0.90), Some(90.0));
        assert_eq!(tail_percentile(&ramp(99), 0.90), None);
        assert_eq!(tail_percentile(&[], 0.90), None);
    }

    #[test]
    fn digest_is_stable_and_bit_sensitive() {
        let mut a = Digest::default();
        a.f32s(&[1.0, -2.5, 0.0]);
        a.f64(0.1);
        // pinned: a change of hash function or fold order would silently
        // invalidate every recorded digest
        assert_eq!(a.hex(), "c618c8c7a8867ba6");

        let mut b = Digest::default();
        b.f32s(&[1.0, -2.5, -0.0]);
        b.f64(0.1);
        assert_ne!(a, b, "-0.0 and 0.0 differ bitwise");

        // length is folded in: [x] ++ [] differs from [] ++ [x]
        let (mut c, mut d) = (Digest::default(), Digest::default());
        c.f32s(&[1.0]);
        c.f32s(&[]);
        d.f32s(&[]);
        d.f32s(&[1.0]);
        assert_ne!(c, d);
    }
}
