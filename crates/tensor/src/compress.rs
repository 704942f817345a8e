//! Low-level compression kernels: affine integer quantization and top-k
//! magnitude selection.
//!
//! These are the O(|w|) building blocks the federated communication codecs
//! (`fedtrip_core::compression`) are assembled from. Every per-element loop
//! here is written to auto-vectorise — [`minmax`] keeps eight running
//! lanes, and [`AffineGrid::code`] rounds with a float add and an exact
//! remainder test instead of a libm `round()` call — so fitting,
//! quantizing and reconstructing run at memory speed. Everything is deterministic — ties
//! in the top-k selection break by index — so codecs built on these
//! kernels keep simulations bit-reproducible.
//!
//! ```
//! use fedtrip_tensor::compress::{dequantize_affine, quantize_affine};
//!
//! let x = [-1.0f32, 0.0, 0.5, 1.0];
//! let (min, scale, codes) = quantize_affine(&x, 255);
//! let back = dequantize_affine(&codes, min, scale);
//! for (orig, rec) in x.iter().zip(&back) {
//!     assert!((orig - rec).abs() <= scale / 2.0 + 1e-6);
//! }
//! ```

/// Running lanes in [`minmax`]: wide enough for one AVX register.
const LANES: usize = 8;

/// Minimum and maximum of a slice in one sweep, ignoring NaN. Empty (or
/// all-NaN) input yields `(0.0, 0.0)`.
///
/// The result is bit-for-bit that of a sequential scan with strict
/// comparisons: when the extreme is zero, its sign is that of the first
/// `±0.0` in index order.
pub fn minmax(x: &[f32]) -> (f32, f32) {
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    let chunks = x.chunks_exact(LANES);
    let tail = chunks.remainder();
    for c in chunks {
        for l in 0..LANES {
            // `f32::min`/`max` skip NaN like the strict comparisons below
            // and, unlike them, vectorise; their ±0 choice is fixed up
            lo[l] = lo[l].min(c[l]);
            hi[l] = hi[l].max(c[l]);
        }
    }
    let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
    for &v in lo.iter().chain(tail) {
        if v < min {
            min = v;
        }
    }
    for &v in hi.iter().chain(tail) {
        if v > max {
            max = v;
        }
    }
    if min > max {
        return (0.0, 0.0);
    }
    // lanes see the elements out of order, which only matters for the one
    // value with two encodings: a strict-comparison scan keeps the first
    // zero it meets
    let first_zero = || x.iter().copied().find(|&v| v == 0.0);
    if min == 0.0 {
        min = first_zero().unwrap_or(min);
    }
    if max == 0.0 {
        max = first_zero().unwrap_or(max);
    }
    (min, max)
}

/// The per-tensor affine grid behind [`quantize_affine`]: `levels + 1`
/// codes spaced `scale` apart from `min`.
///
/// When `max - min` overflows f32 (finite input spanning more than
/// `f32::MAX`) the grid still gets a finite `scale = max/levels -
/// min/levels` and codes are computed on halved operands, so such input
/// quantizes and reconstructs to finite values; every other input gets
/// exactly `scale = (max - min) / levels`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineGrid {
    /// The grid origin (the input minimum): code 0 reconstructs to it.
    pub min: f32,
    /// The grid step; `0.0` for constant input, which codes to all zeros.
    pub scale: f32,
    levels: f32,
    /// `1.0`, or `0.5` when `max - min` overflows.
    shift: f32,
    /// `min * shift`.
    origin: f32,
    /// `1 / (scale * shift)`, or `0.0` for constant input.
    inv: f32,
    /// Whether some `code * scale` overflows (see [`dequantize_affine`]).
    wide: bool,
}

impl AffineGrid {
    /// Fit the grid to `x` (one [`minmax`] sweep).
    ///
    /// # Panics
    /// Panics when `levels` is zero or exceeds 255 (codes are one byte each).
    pub fn fit(x: &[f32], levels: u32) -> Self {
        assert!(
            (1..=255).contains(&levels),
            "levels must be in 1..=255, got {levels}"
        );
        let (min, max) = minmax(x);
        let l = levels as f32;
        let mut scale = (max - min) / l;
        let mut shift = 1.0;
        if scale.is_infinite() && min.is_finite() && max.is_finite() {
            scale = max / l - min / l;
            shift = 0.5;
        }
        let inv = if scale <= 0.0 {
            scale = 0.0;
            0.0
        } else {
            1.0 / scale / shift
        };
        AffineGrid {
            min,
            scale,
            levels: l,
            shift,
            origin: min * shift,
            inv,
            wide: is_wide(scale),
        }
    }

    /// The code of one value: `round((v - min) / scale)` clamped to
    /// `0..=levels`, with NaN coding to 0 and `+inf` to `levels`.
    ///
    /// Rounding is half away from zero, as `f32::round`, but branch-free:
    /// adding 2²³ to the clamped `q` rounds it to the nearest integer
    /// (ties to even) in the low mantissa bits, and the exact remainder
    /// `q - rne(q)` is `0.5` exactly on the ties that round up instead.
    #[inline]
    pub fn code(&self, v: f32) -> u8 {
        const MAGIC: f32 = 8_388_608.0; // 2^23: unit spacing
        let q = (v * self.shift - self.origin) * self.inv;
        let q = if q > 0.0 { q } else { 0.0 };
        let q = if q < self.levels { q } else { self.levels };
        let y = q + MAGIC;
        // the low byte of y's bits is rne(q) <= levels, and a tie that
        // rounds up starts below levels, so the sum cannot wrap
        (y.to_bits() as u8) + u8::from(q - (y - MAGIC) >= 0.5)
    }

    /// The value a code reconstructs to, `min + code * scale` (see
    /// [`dequantize_affine`] for grids wider than `f32::MAX`).
    #[inline]
    pub fn value(&self, code: u8) -> f32 {
        if self.wide {
            wide_value(code, self.min, self.scale)
        } else {
            self.min + code as f32 * self.scale
        }
    }
}

/// Whether some code on a `(min, scale)` grid overflows `code * scale`: a
/// finite `scale` above `f32::MAX / 255`, which only a grid whose span
/// exceeds `f32::MAX` has.
fn is_wide(scale: f32) -> bool {
    scale.is_finite() && (255.0 * scale).is_infinite()
}

/// `min + code * scale` on a wide grid: where the product overflows, the
/// sum is taken on halved operands and clamped, so it stays finite.
fn wide_value(code: u8, min: f32, scale: f32) -> f32 {
    let c = code as f32;
    let p = c * scale;
    if p.is_infinite() {
        ((0.5 * min + c * (0.5 * scale)) * 2.0).clamp(f32::MIN, f32::MAX)
    } else {
        min + p
    }
}

/// Per-tensor affine quantization of `x` onto `levels + 1` integer codes
/// (`levels` is the largest code: 255 for 8-bit, 15 for 4-bit).
///
/// Returns `(min, scale, codes)` with `code = round((v - min) / scale)`
/// clamped to `0..=levels`, so reconstruction is `min + code * scale` and
/// the per-element error is bounded by `scale / 2`. A constant input
/// (`max == min`) yields `scale == 0` and all-zero codes. See
/// [`AffineGrid`] for input whose range overflows f32.
///
/// # Panics
/// Panics when `levels` is zero or exceeds 255 (codes are one byte each).
pub fn quantize_affine(x: &[f32], levels: u32) -> (f32, f32, Vec<u8>) {
    let grid = AffineGrid::fit(x, levels);
    (
        grid.min,
        grid.scale,
        x.iter().map(|&v| grid.code(v)).collect(),
    )
}

/// Reconstruct the values behind [`quantize_affine`] codes:
/// `v = min + code * scale`, except that on a grid whose span exceeds
/// `f32::MAX` a product `code * scale` that overflows is replaced by a
/// finite sum on halved operands.
pub fn dequantize_affine(codes: &[u8], min: f32, scale: f32) -> Vec<f32> {
    if is_wide(scale) {
        codes.iter().map(|&c| wide_value(c, min, scale)).collect()
    } else {
        codes.iter().map(|&c| min + c as f32 * scale).collect()
    }
}

/// Pack 4-bit codes (each `<= 15`) two per byte, low nibble first. The last
/// byte of an odd-length input carries a single code in its low nibble.
///
/// # Panics
/// Debug-asserts every code fits in 4 bits.
pub fn pack_nibbles(codes: &[u8]) -> Vec<u8> {
    let mut packed = Vec::with_capacity(codes.len().div_ceil(2));
    for pair in codes.chunks(2) {
        debug_assert!(pair.iter().all(|&c| c <= 0xF), "code exceeds 4 bits");
        let lo = pair[0] & 0xF;
        let hi = pair.get(1).map(|&c| c & 0xF).unwrap_or(0);
        packed.push(lo | (hi << 4));
    }
    packed
}

/// Inverse of [`pack_nibbles`]: expand `n` 4-bit codes out of packed bytes.
///
/// # Panics
/// Panics when `packed` is shorter than `ceil(n / 2)` bytes.
pub fn unpack_nibbles(packed: &[u8], n: usize) -> Vec<u8> {
    assert!(
        packed.len() >= n.div_ceil(2),
        "packed nibble buffer too short: {} bytes for {} codes",
        packed.len(),
        n
    );
    let mut codes = Vec::with_capacity(n);
    for i in 0..n {
        let byte = packed[i / 2];
        codes.push(if i % 2 == 0 { byte & 0xF } else { byte >> 4 });
    }
    codes
}

/// Indices of the `k` largest-magnitude entries of `x`, in ascending index
/// order. Magnitudes rank by the bit pattern of `|v|`, which is the numeric
/// order with NaN (of either sign) above `+inf`, so a poisoned coordinate
/// is always among the first sent. Ties break toward the lower index, so
/// the selection is a deterministic function of the input. `k >= x.len()`
/// selects everything.
pub fn top_k_indices(x: &[f32], k: usize) -> Vec<u32> {
    let n = x.len();
    if k >= n {
        return (0..n as u32).collect();
    }
    if k == 0 {
        return Vec::new();
    }
    let mut idx: Vec<u32> = (0..n as u32).collect();
    // descending magnitude, ascending index on ties: a total order, so the
    // partial selection is unique regardless of the partition's internals
    idx.select_nth_unstable_by_key(k - 1, |&i| {
        (std::cmp::Reverse(x[i as usize].abs().to_bits()), i)
    });
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::rng::Prng;

    /// The sequential scan [`minmax`] replaced: the bit-identity oracle.
    fn reference_minmax(x: &[f32]) -> (f32, f32) {
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &v in x {
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        }
        if min > max {
            (0.0, 0.0)
        } else {
            (min, max)
        }
    }

    /// The libm-`round()` quantizer [`quantize_affine`] replaced.
    fn reference_quantize(x: &[f32], levels: u32) -> (f32, f32, Vec<u8>) {
        let (min, max) = reference_minmax(x);
        let scale = (max - min) / levels as f32;
        if scale <= 0.0 {
            return (min, 0.0, vec![0u8; x.len()]);
        }
        let inv = 1.0 / scale;
        let codes = x
            .iter()
            .map(|&v| {
                let q = ((v - min) * inv).round();
                q.clamp(0.0, levels as f32) as u8
            })
            .collect();
        (min, scale, codes)
    }

    /// Bit equality, except that any NaN equals any NaN (arithmetic NaN
    /// payloads are unspecified in Rust).
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Mostly normal draws, with the IEEE corner cases mixed in.
    fn edgy(rng: &mut Prng) -> f32 {
        const SPECIAL: [f32; 11] = [
            0.0,
            -0.0,
            1e-40,
            -1e-40,
            f32::MIN_POSITIVE,
            0.49999997,
            1e30,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        if rng.below(6) == 0 {
            SPECIAL[rng.below(SPECIAL.len())]
        } else {
            rng.normal()
        }
    }

    /// `quantize_affine` against the oracle: header bits and every code.
    fn assert_matches_reference(x: &[f32], levels: u32) {
        let (min, scale, codes) = quantize_affine(x, levels);
        let (rmin, rscale, rcodes) = reference_quantize(x, levels);
        assert!(same(min, rmin), "min {min:e} vs {rmin:e} on {x:?}");
        assert!(
            same(scale, rscale),
            "scale {scale:e} vs {rscale:e} on {x:?}"
        );
        assert_eq!(codes, rcodes, "codes on {x:?}");
        let (lo, hi) = minmax(x);
        let (rlo, rhi) = reference_minmax(x);
        assert!(same(lo, rlo) && same(hi, rhi), "minmax on {x:?}");
        let back = dequantize_affine(&codes, min, scale);
        for (&b, &c) in back.iter().zip(&codes) {
            assert!(same(b, min + c as f32 * scale), "dequantize on {x:?}");
        }
    }

    #[test]
    fn vector_quantizer_matches_the_round_oracle_bitwise() {
        let mut rng = Prng::seed_from_u64(2023);
        for case in 0..600 {
            // lengths straddle the lane width, with a few long tensors
            let n = if case % 50 == 0 {
                1000 + rng.below(100)
            } else {
                rng.below(40)
            };
            let mut x: Vec<f32> = (0..n).map(|_| edgy(&mut rng)).collect();
            if case % 7 == 0 {
                // finite-only cases, so most quantize on a real grid
                x.retain(|v| v.is_finite());
            }
            for levels in [255, 15, 1] {
                assert_matches_reference(&x, levels);
            }
        }
    }

    /// `+0` at index 1 (lane 1) before `-0` at index 8 (lane 0).
    const ZERO_MIN_IN_LANE_1: [f32; 16] = {
        let mut x = [5.0; 16];
        x[1] = 0.0;
        x[8] = -0.0;
        x
    };
    /// `-0` at index 2 (lane 2) before `+0` at index 9 (lane 1).
    const ZERO_MAX_IN_LANE_2: [f32; 16] = {
        let mut x = [-5.0; 16];
        x[2] = -0.0;
        x[9] = 0.0;
        x
    };

    #[test]
    fn vector_quantizer_matches_the_oracle_on_named_edges() {
        let cases: [&[f32]; 12] = [
            &[],
            &[0.7],
            &[-0.0],
            &[-0.0; 9],
            &[1.5; 8],
            // the x.5 edge: q = 0.49999997 must round down, q = 0.5 up
            &[0.0, 0.49999997, 0.5, 1.5, 2.5, 254.5, 255.0],
            // ±0 as the extremes, in different lanes and orders
            &[0.0, -0.0, 1.0],
            &[-0.0, 0.0, 1.0],
            &ZERO_MIN_IN_LANE_1,
            &ZERO_MAX_IN_LANE_2,
            // subnormals only
            &[1e-45, -1e-40, 3e-39, 0.0, -1e-45],
            &[f32::NAN, 2.0, f32::NEG_INFINITY, 1.0],
        ];
        for x in cases {
            for levels in [255, 15] {
                assert_matches_reference(x, levels);
            }
        }
        let (min, _, codes) = quantize_affine(&[0.0, 0.49999997, 0.5, 254.5, 255.0], 255);
        assert_eq!(min, 0.0);
        assert_eq!(codes, vec![0, 0, 1, 255, 255]);
        // the first zero wins even when a later one sits in a lower lane
        assert!(minmax(&ZERO_MIN_IN_LANE_1).0.is_sign_positive());
        assert!(minmax(&ZERO_MAX_IN_LANE_2).1.is_sign_negative());
    }

    #[test]
    fn non_finite_q_codes_to_the_ends_without_overflow() {
        let grid = AffineGrid::fit(&[0.0, 1.0], 255);
        assert_eq!(grid.code(f32::NAN), 0);
        assert_eq!(grid.code(-f32::NAN), 0);
        assert_eq!(grid.code(f32::INFINITY), 255);
        assert_eq!(grid.code(f32::NEG_INFINITY), 0);
        assert_eq!(grid.code(f32::MAX), 255);
        let grid = AffineGrid::fit(&[0.0, 1.0], 15);
        assert_eq!(grid.code(f32::INFINITY), 15);
    }

    #[test]
    fn overflowing_range_quantizes_to_finite_values() {
        let cases: [&[f32]; 3] = [
            &[-3e38, 1.0, 0.5, 3e38],
            &[f32::MAX, -f32::MAX, 0.0, 1e38, -1e38],
            &[3e38, -2e38, 2e38, -3e38, 7.0],
        ];
        for x in cases {
            for levels in [255, 15] {
                let (min, scale, codes) = quantize_affine(x, levels);
                assert!(scale.is_finite() && scale > 0.0, "scale {scale:e}");
                let back = dequantize_affine(&codes, min, scale);
                for (&v, &b) in x.iter().zip(&back) {
                    assert!(b.is_finite(), "{v:e} decoded to {b:e}");
                    // half a step, plus the rounding of the halved sums
                    let bound = scale / 2.0 + v.abs().max(b.abs()) * 4.0 * f32::EPSILON;
                    assert!((v - b).abs() <= bound, "{v:e} -> {b:e} (scale {scale:e})");
                }
            }
        }
    }

    #[test]
    fn minmax_basic_and_empty() {
        assert_eq!(minmax(&[3.0, -1.0, 2.0]), (-1.0, 3.0));
        assert_eq!(minmax(&[]), (0.0, 0.0));
        assert_eq!(minmax(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn quantize_roundtrip_error_is_half_step() {
        let x: Vec<f32> = (0..100).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        for levels in [255u32, 15] {
            let (min, scale, codes) = quantize_affine(&x, levels);
            let back = dequantize_affine(&codes, min, scale);
            for (orig, rec) in x.iter().zip(&back) {
                assert!(
                    (orig - rec).abs() <= scale / 2.0 + 1e-6,
                    "levels {levels}: {orig} vs {rec} (scale {scale})"
                );
            }
        }
    }

    #[test]
    fn quantize_endpoints_are_exact() {
        let x = [-2.0f32, 0.3, 2.0];
        let (min, scale, codes) = quantize_affine(&x, 255);
        assert_eq!(codes[0], 0);
        assert_eq!(codes[2], 255);
        let back = dequantize_affine(&codes, min, scale);
        assert!((back[0] + 2.0).abs() < 1e-6);
        assert!((back[2] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn quantize_constant_input() {
        let x = [1.5f32; 8];
        let (min, scale, codes) = quantize_affine(&x, 255);
        assert_eq!(min, 1.5);
        assert_eq!(scale, 0.0);
        assert!(codes.iter().all(|&c| c == 0));
        assert_eq!(dequantize_affine(&codes, min, scale), vec![1.5f32; 8]);
    }

    #[test]
    #[should_panic(expected = "levels")]
    fn quantize_rejects_zero_levels() {
        let _ = quantize_affine(&[1.0], 0);
    }

    #[test]
    fn nibble_pack_roundtrip() {
        for n in 0..9usize {
            let codes: Vec<u8> = (0..n as u8).map(|i| i & 0xF).collect();
            let packed = pack_nibbles(&codes);
            assert_eq!(packed.len(), n.div_ceil(2));
            assert_eq!(unpack_nibbles(&packed, n), codes);
        }
    }

    #[test]
    fn top_k_picks_largest_magnitudes() {
        let x = [0.1f32, -5.0, 2.0, -0.5, 4.0, 0.0];
        assert_eq!(top_k_indices(&x, 2), vec![1, 4]);
        assert_eq!(top_k_indices(&x, 3), vec![1, 2, 4]);
        assert_eq!(top_k_indices(&x, 10), vec![0, 1, 2, 3, 4, 5]);
        assert!(top_k_indices(&x, 0).is_empty());
    }

    #[test]
    fn top_k_ranks_nan_above_infinity_in_every_profile() {
        let x = [
            1.0f32,
            f32::NAN,
            f32::NEG_INFINITY,
            -f32::NAN,
            2.0,
            f32::INFINITY,
            0.5,
        ];
        assert_eq!(top_k_indices(&x, 2), vec![1, 3]);
        assert_eq!(top_k_indices(&x, 3), vec![1, 2, 3]);
        assert_eq!(top_k_indices(&x, 4), vec![1, 2, 3, 5]);
        assert_eq!(top_k_indices(&x, 5), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn top_k_ties_break_by_index() {
        let x = [1.0f32, -1.0, 1.0, -1.0];
        assert_eq!(top_k_indices(&x, 2), vec![0, 1]);
        assert_eq!(top_k_indices(&x, 3), vec![0, 1, 2]);
    }

    #[test]
    fn top_k_is_deterministic() {
        let x: Vec<f32> = (0..512).map(|i| ((i * 37) % 97) as f32 - 48.0).collect();
        let a = top_k_indices(&x, 50);
        let b = top_k_indices(&x, 50);
        assert_eq!(a, b);
        // selected magnitudes dominate unselected ones
        let min_sel = a
            .iter()
            .map(|&i| x[i as usize].abs())
            .fold(f32::INFINITY, f32::min);
        let max_unsel = (0..512u32)
            .filter(|i| !a.contains(i))
            .map(|i| x[i as usize].abs())
            .fold(0.0f32, f32::max);
        assert!(min_sel >= max_unsel, "{min_sel} < {max_unsel}");
    }
}
