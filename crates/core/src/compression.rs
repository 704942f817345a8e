//! Communication compression for both halves of the wire: client→server
//! updates and server→client delta broadcasts.
//!
//! FedTrip's resource argument is about *not* paying the overheads of
//! stateful methods; this module attacks the remaining cost every method
//! pays — shipping the model itself, in both directions. A [`Compressor`]
//! turns a dense f32 vector into a compact wire format with **exact** byte
//! accounting ([`Compressor::encoded_len`] is what the virtual clock and
//! the cost tables charge), and an optional error-feedback buffer
//! accumulates what each round's encoding dropped so the lost mass is
//! retransmitted later instead of vanishing. One fused round trip,
//! [`error_feedback_into`], drives the client-side uplink buffer, the aux
//! uploads and the server-side residual that backs compressed downlink
//! delta broadcasts (the engine encodes `Δ = w_global − w_broadcast` each
//! round; see `DESIGN.md`). It works in caller-owned buffers — the
//! residual in place, the wire bytes and the decoded update in reused
//! scratch — so a steady-state step allocates nothing, and the quantizers
//! encode and decode in the same sweep
//! ([`Compressor::encode_decode_into`]).
//!
//! Three lossy codecs ship alongside the lossless [`Identity`]:
//!
//! * [`QuantizeQ8`] / [`QuantizeQ4`] — per-tensor affine integer
//!   quantization (`code = round((v - min) / scale)` with
//!   `scale = (max - min) / levels`), 8 or 4 bits per value plus an
//!   8-byte `(min, scale)` header;
//! * [`TopK`] — magnitude sparsification: only the `k = max(1, ceil(ρ n))`
//!   largest-magnitude entries travel, as `(u32 index, f32 value)` pairs.
//!
//! Codecs are pure functions of their input — no RNG, ties broken by
//! index — so compressed simulations stay bit-reproducible and
//! checkpoint/resume stays exact.
//!
//! ```
//! use fedtrip_core::compression::{CompressionKind, Compressor};
//!
//! let codec = CompressionKind::Q8.build();
//! let update = vec![0.5f32, -1.25, 0.0, 2.0];
//! let wire = codec.encode(&update);
//! assert_eq!(wire.len(), codec.encoded_len(update.len())); // exact accounting
//! let back = codec.decode(&wire, update.len());
//! for (x, y) in update.iter().zip(&back) {
//!     assert!((x - y).abs() <= (2.0 - (-1.25)) / 255.0); // one quantization step
//! }
//! ```

use fedtrip_tensor::compress::{
    dequantize_affine, pack_nibbles, quantize_affine, top_k_indices, unpack_nibbles, AffineGrid,
};
use serde::{Deserialize, Serialize};

/// A communication codec for flat f32 parameter updates.
///
/// Implementations must be deterministic (no RNG, index-ordered
/// tie-breaks) and must honour the contract
/// `encode(x).len() == encoded_len(x.len())` — the engine charges
/// [`Compressor::encoded_len`] bytes to the virtual clock without
/// materializing every client's wire bytes.
pub trait Compressor: Send + Sync {
    /// Codec name for logs and reports (e.g. `q8`, `topk:0.01`).
    fn name(&self) -> String;

    /// Exact wire size in bytes of an encoded `n`-element vector.
    fn encoded_len(&self, n: usize) -> usize;

    /// Encode a dense update into the codec's wire format.
    fn encode(&self, x: &[f32]) -> Vec<u8>;

    /// Decode wire bytes produced by [`Compressor::encode`] back into a
    /// dense `n`-element vector.
    ///
    /// # Panics
    /// Panics when `bytes` is not a valid encoding for length `n`.
    fn decode(&self, bytes: &[u8], n: usize) -> Vec<f32>;

    /// `decode(encode(x))` into caller-owned buffers: the wire bytes
    /// replace `wire`'s contents and the reconstruction fills `decoded`.
    /// Codecs override it to do both in one sweep without allocating; the
    /// results must equal the default's bit for bit.
    ///
    /// # Panics
    /// Panics when `decoded.len() != x.len()`.
    fn encode_decode_into(&self, x: &[f32], wire: &mut Vec<u8>, decoded: &mut [f32]) {
        *wire = self.encode(x);
        decoded.copy_from_slice(&self.decode(wire, x.len()));
    }

    /// `true` when the codec is the lossless identity — the executor skips
    /// the encode/decode round trip entirely, which keeps uncompressed runs
    /// bit-identical to the pre-compression engine.
    fn is_identity(&self) -> bool {
        false
    }
}

/// The lossless pass-through codec: dense little-endian f32, `4n` bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl Compressor for Identity {
    fn name(&self) -> String {
        "none".to_string()
    }

    fn encoded_len(&self, n: usize) -> usize {
        4 * n
    }

    fn encode(&self, x: &[f32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 * x.len());
        for v in x {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    fn decode(&self, bytes: &[u8], n: usize) -> Vec<f32> {
        assert_eq!(bytes.len(), 4 * n, "identity payload length mismatch");
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    fn is_identity(&self) -> bool {
        true
    }
}

/// Replace `wire` with a `len`-byte quantized payload: the grid's
/// `(min, scale)` header (as [`QuantizeQ8::encode`] writes it), then a
/// zeroed body for the codes, returned.
fn start_payload<'w>(wire: &'w mut Vec<u8>, grid: &AffineGrid, len: usize) -> &'w mut [u8] {
    wire.clear();
    wire.extend_from_slice(&grid.min.to_le_bytes());
    wire.extend_from_slice(&grid.scale.to_le_bytes());
    wire.resize(len, 0);
    &mut wire[8..]
}

/// Read the `(min, scale)` header off a quantized payload.
fn read_header(bytes: &[u8]) -> (f32, f32) {
    let min = f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let scale = f32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    (min, scale)
}

/// Per-tensor 8-bit affine quantization: an 8-byte `(min, scale)` header
/// followed by one byte per value — a fixed ~4x shrink with error at most
/// `scale / 2 = (max - min) / 510` per element.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuantizeQ8;

impl Compressor for QuantizeQ8 {
    fn name(&self) -> String {
        "q8".to_string()
    }

    fn encoded_len(&self, n: usize) -> usize {
        8 + n
    }

    fn encode(&self, x: &[f32]) -> Vec<u8> {
        let (min, scale, codes) = quantize_affine(x, 255);
        let mut out = Vec::with_capacity(8 + codes.len());
        out.extend_from_slice(&min.to_le_bytes());
        out.extend_from_slice(&scale.to_le_bytes());
        out.extend_from_slice(&codes);
        out
    }

    fn decode(&self, bytes: &[u8], n: usize) -> Vec<f32> {
        assert_eq!(bytes.len(), 8 + n, "q8 payload length mismatch");
        let (min, scale) = read_header(bytes);
        dequantize_affine(&bytes[8..], min, scale)
    }

    fn encode_decode_into(&self, x: &[f32], wire: &mut Vec<u8>, decoded: &mut [f32]) {
        assert_eq!(decoded.len(), x.len(), "q8 decode buffer length mismatch");
        let grid = AffineGrid::fit(x, 255);
        let body = start_payload(wire, &grid, self.encoded_len(x.len()));
        for ((b, d), &v) in body.iter_mut().zip(decoded.iter_mut()).zip(x) {
            *b = grid.code(v);
            *d = grid.value(*b);
        }
    }
}

/// Per-tensor 4-bit affine quantization: an 8-byte `(min, scale)` header
/// followed by two values per byte (low nibble first) — a ~8x shrink with
/// error at most `scale / 2 = (max - min) / 30` per element.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuantizeQ4;

impl Compressor for QuantizeQ4 {
    fn name(&self) -> String {
        "q4".to_string()
    }

    fn encoded_len(&self, n: usize) -> usize {
        8 + n.div_ceil(2)
    }

    fn encode(&self, x: &[f32]) -> Vec<u8> {
        let (min, scale, codes) = quantize_affine(x, 15);
        let mut out = Vec::with_capacity(self.encoded_len(x.len()));
        out.extend_from_slice(&min.to_le_bytes());
        out.extend_from_slice(&scale.to_le_bytes());
        out.extend_from_slice(&pack_nibbles(&codes));
        out
    }

    fn decode(&self, bytes: &[u8], n: usize) -> Vec<f32> {
        assert_eq!(
            bytes.len(),
            self.encoded_len(n),
            "q4 payload length mismatch"
        );
        let (min, scale) = read_header(bytes);
        dequantize_affine(&unpack_nibbles(&bytes[8..], n), min, scale)
    }

    fn encode_decode_into(&self, x: &[f32], wire: &mut Vec<u8>, decoded: &mut [f32]) {
        assert_eq!(decoded.len(), x.len(), "q4 decode buffer length mismatch");
        let grid = AffineGrid::fit(x, 15);
        let body = start_payload(wire, &grid, self.encoded_len(x.len()));
        let pairs = x.chunks_exact(2);
        let last = pairs.remainder().first();
        let mut out = decoded.chunks_exact_mut(2);
        for ((b, d), v) in body.iter_mut().zip(out.by_ref()).zip(pairs) {
            let (lo, hi) = (grid.code(v[0]), grid.code(v[1]));
            *b = lo | (hi << 4);
            d[0] = grid.value(lo);
            d[1] = grid.value(hi);
        }
        if let (Some(&v), Some(d), Some(b)) =
            (last, out.into_remainder().first_mut(), body.last_mut())
        {
            *b = grid.code(v);
            *d = grid.value(*b);
        }
    }
}

/// Top-k magnitude sparsification: only the `k = max(1, ceil(fraction n))`
/// largest-magnitude entries travel, each as a `(u32 index, f32 value)`
/// pair — `8k` bytes total. Everything else decodes to zero, which is what
/// makes error feedback matter: dropped coordinates accumulate client-side
/// and ride a later round.
#[derive(Debug, Clone, Copy)]
pub struct TopK {
    fraction: f32,
}

impl TopK {
    /// A top-k codec keeping the given fraction of coordinates.
    ///
    /// Each kept coordinate costs 8 wire bytes (index + value) against 4
    /// for a dense f32, so fractions above `0.5` *expand* the uplink —
    /// useful only for testing; `flrun` warns about them.
    ///
    /// # Panics
    /// Panics unless `0 < fraction <= 1`.
    pub fn new(fraction: f32) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "top-k fraction must be in (0, 1], got {fraction}"
        );
        TopK { fraction }
    }

    /// Number of coordinates kept for an `n`-element update
    /// (`max(1, ceil(fraction * n))`, capped at `n`).
    pub fn k_for(&self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (((n as f64) * self.fraction as f64).ceil() as usize).clamp(1, n)
    }

    /// Replace `wire` with the `(index, value)` pairs of the kept
    /// coordinates; returns their indices.
    fn encode_pairs(&self, x: &[f32], wire: &mut Vec<u8>) -> Vec<u32> {
        let idx = top_k_indices(x, self.k_for(x.len()));
        wire.clear();
        for &i in &idx {
            wire.extend_from_slice(&i.to_le_bytes());
            wire.extend_from_slice(&x[i as usize].to_le_bytes());
        }
        idx
    }
}

impl Compressor for TopK {
    fn name(&self) -> String {
        format!("topk:{}", self.fraction)
    }

    fn encoded_len(&self, n: usize) -> usize {
        8 * self.k_for(n)
    }

    fn encode(&self, x: &[f32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len(x.len()));
        self.encode_pairs(x, &mut out);
        out
    }

    fn decode(&self, bytes: &[u8], n: usize) -> Vec<f32> {
        assert_eq!(
            bytes.len(),
            self.encoded_len(n),
            "top-k payload length mismatch"
        );
        let mut out = vec![0.0f32; n];
        for pair in bytes.chunks_exact(8) {
            let i = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]) as usize;
            let v = f32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]);
            assert!(i < n, "top-k index {i} out of range for length {n}");
            out[i] = v;
        }
        out
    }

    fn encode_decode_into(&self, x: &[f32], wire: &mut Vec<u8>, decoded: &mut [f32]) {
        assert_eq!(
            decoded.len(),
            x.len(),
            "top-k decode buffer length mismatch"
        );
        decoded.fill(0.0);
        for i in self.encode_pairs(x, wire) {
            decoded[i as usize] = x[i as usize];
        }
    }
}

/// Which codec compresses client uploads, as a config/CLI-facing enum.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CompressionKind {
    /// No compression: dense f32 uploads (the paper's setting).
    None,
    /// 8-bit affine quantization ([`QuantizeQ8`]).
    Q8,
    /// 4-bit affine quantization ([`QuantizeQ4`]).
    Q4,
    /// Top-k sparsification keeping this fraction of coordinates
    /// ([`TopK`]). Fractions above `0.5` expand rather than shrink the
    /// uplink (8 bytes per kept coordinate vs 4 dense).
    TopK(f32),
}

impl CompressionKind {
    /// Parse `none` / `q8` / `q4` / `topk:FRACTION` (case-insensitive).
    pub fn parse(s: &str) -> Option<CompressionKind> {
        let l = s.to_ascii_lowercase();
        match l.as_str() {
            "none" | "identity" => return Some(CompressionKind::None),
            "q8" => return Some(CompressionKind::Q8),
            "q4" => return Some(CompressionKind::Q4),
            _ => {}
        }
        let frac: f32 = l.strip_prefix("topk:")?.parse().ok()?;
        if frac > 0.0 && frac <= 1.0 {
            Some(CompressionKind::TopK(frac))
        } else {
            None
        }
    }

    /// Display name (round-trips through [`CompressionKind::parse`]).
    pub fn name(&self) -> String {
        self.build().name()
    }

    /// Instantiate the codec.
    pub fn build(&self) -> Box<dyn Compressor> {
        match *self {
            CompressionKind::None => Box::new(Identity),
            CompressionKind::Q8 => Box::new(QuantizeQ8),
            CompressionKind::Q4 => Box::new(QuantizeQ4),
            CompressionKind::TopK(f) => Box::new(TopK::new(f)),
        }
    }
}

/// One error-feedback round trip around a codec, in caller-owned buffers.
///
/// Adds the carried residual to `update` (with a `None` residual the carry
/// starts at zero), encodes the sum into `wire` and fills `decoded` with
/// what the receiver reconstructs, then stores the new residual
/// (`compensated - decoded`) back into `residual`. The compensated update
/// is built in the residual's own `Vec`, so only a participant's first
/// step allocates. `decoded` is exactly what the receiver will see; the
/// residual is exactly what it won't (yet). With `feedback` off the update
/// is coded as is and `residual` is untouched.
///
/// # Panics
/// Panics when `decoded.len() != update.len()`.
pub fn error_feedback_into(
    codec: &dyn Compressor,
    update: &[f32],
    residual: &mut Option<Vec<f32>>,
    feedback: bool,
    wire: &mut Vec<u8>,
    decoded: &mut [f32],
) {
    assert_eq!(decoded.len(), update.len(), "decode buffer length mismatch");
    let compensated = match residual {
        Some(r) if feedback => {
            debug_assert_eq!(r.len(), update.len(), "residual length mismatch");
            for (rv, &u) in r.iter_mut().zip(update) {
                *rv += u;
            }
            Some(r)
        }
        None if feedback => Some(residual.insert(update.to_vec())),
        _ => None,
    };
    let x = compensated.as_deref().map_or(update, Vec::as_slice);
    codec.encode_decode_into(x, wire, decoded);
    debug_assert_eq!(
        wire.len(),
        codec.encoded_len(update.len()),
        "codec byte accounting violated"
    );
    if let Some(r) = compensated {
        for (rv, &d) in r.iter_mut().zip(decoded.iter()) {
            *rv -= d;
        }
    }
}

/// [`error_feedback_into`] with freshly allocated buffers: returns
/// `(decoded, wire_bytes)`.
pub fn error_feedback_step(
    codec: &dyn Compressor,
    update: &[f32],
    residual: &mut Option<Vec<f32>>,
    feedback: bool,
) -> (Vec<f32>, Vec<u8>) {
    let mut wire = Vec::new();
    let mut decoded = vec![0.0; update.len()];
    error_feedback_into(codec, update, residual, feedback, &mut wire, &mut decoded);
    (decoded, wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedtrip_tensor::rng::Prng;

    fn sample(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.73).sin() * 2.5).collect()
    }

    /// The allocate-everything step [`error_feedback_into`] replaced, over
    /// `decode(encode(x))`: the bit-identity oracle for the fused core.
    fn reference_step(
        codec: &dyn Compressor,
        update: &[f32],
        residual: &mut Option<Vec<f32>>,
        feedback: bool,
    ) -> (Vec<f32>, Vec<u8>) {
        let mut compensated = update.to_vec();
        if feedback {
            if let Some(r) = residual.as_ref() {
                fedtrip_tensor::vecops::axpy(&mut compensated, 1.0, r);
            }
        }
        let wire = codec.encode(&compensated);
        let decoded = codec.decode(&wire, compensated.len());
        if feedback {
            let mut r = compensated;
            fedtrip_tensor::vecops::axpy(&mut r, -1.0, &decoded);
            *residual = Some(r);
        }
        (decoded, wire)
    }

    /// Bit equality, except that any NaN equals any NaN (arithmetic NaN
    /// payloads are unspecified in Rust).
    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// Mostly normal draws, with ±0, subnormals and the odd non-finite.
    fn edgy(rng: &mut Prng) -> f32 {
        const SPECIAL: [f32; 8] = [
            0.0,
            -0.0,
            1e-40,
            -1e-41,
            0.49999997,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        match rng.below(40) {
            0..=3 => SPECIAL[rng.below(5)],
            4 => SPECIAL[5 + rng.below(3)],
            _ => rng.normal(),
        }
    }

    fn all_codecs() -> Vec<Box<dyn Compressor>> {
        vec![
            Box::new(Identity),
            Box::new(QuantizeQ8),
            Box::new(QuantizeQ4),
            Box::new(TopK::new(0.1)),
            Box::new(TopK::new(1.0)),
        ]
    }

    #[test]
    fn fused_round_trip_matches_the_allocating_oracle_bitwise() {
        let mut rng = Prng::seed_from_u64(2023);
        for codec in all_codecs() {
            // n = 0 (top-k keeps k = 0), n = 1, odd n through q4 packing
            for n in [0usize, 1, 2, 3, 7, 8, 9, 33, 258, 1001] {
                for feedback in [true, false] {
                    let (mut fused, mut oracle) = (None, None);
                    // stale scratch of the wrong size must not leak through
                    let mut wire = vec![0xAB; 5];
                    let mut decoded = vec![f32::NAN; n];
                    // five steps, so the residual carries across rounds
                    for step in 0..5 {
                        let finite = step % 2 == 0;
                        let update: Vec<f32> = (0..n)
                            .map(|_| edgy(&mut rng))
                            .map(|v| if finite && !v.is_finite() { 1.0 } else { v })
                            .collect();
                        let (want, want_wire) =
                            reference_step(codec.as_ref(), &update, &mut oracle, feedback);
                        error_feedback_into(
                            codec.as_ref(),
                            &update,
                            &mut fused,
                            feedback,
                            &mut wire,
                            &mut decoded,
                        );
                        let what =
                            format!("{} n={n} feedback={feedback} step={step}", codec.name());
                        assert_eq!(wire, want_wire, "{what}: wire");
                        assert_eq!(wire.len(), codec.encoded_len(n), "{what}: length");
                        assert!(same_bits(&decoded, &want), "{what}: decoded");
                        match (&fused, &oracle) {
                            (Some(f), Some(o)) => assert!(same_bits(f, o), "{what}: residual"),
                            (None, None) => assert!(!feedback, "{what}: no residual"),
                            _ => panic!("{what}: residual presence differs"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_extreme_keeps_its_sign_in_the_wire_header() {
        for (x, negative) in [
            (vec![-0.0f32, 0.0, 1.0, 2.0], true),
            (vec![0.0f32, -0.0, 1.0, 2.0], false),
            // a later `+0` in a lower vector lane than the first `-0`
            (
                (0..16)
                    .map(|i| match i {
                        1 => -0.0,
                        8 => 0.0,
                        _ => 3.0,
                    })
                    .collect(),
                true,
            ),
        ] {
            for codec in [&QuantizeQ8 as &dyn Compressor, &QuantizeQ4] {
                let wire = codec.encode(&x);
                let min = f32::from_le_bytes([wire[0], wire[1], wire[2], wire[3]]);
                assert_eq!(min, 0.0);
                assert_eq!(
                    min.is_sign_negative(),
                    negative,
                    "{} on {x:?}",
                    codec.name()
                );
            }
        }
    }

    #[test]
    fn finite_update_spanning_more_than_f32_max_stays_finite() {
        // at the parent `max - min` overflowed: scale = inf and every
        // decoded value (and so the residual, for good) was NaN
        let update = [-3e38f32, 1.0, 0.5, 3e38];
        for codec in [&QuantizeQ8 as &dyn Compressor, &QuantizeQ4] {
            let mut residual = None;
            for step in 0..3 {
                let (decoded, wire) = error_feedback_step(codec, &update, &mut residual, true);
                let scale = f32::from_le_bytes([wire[4], wire[5], wire[6], wire[7]]);
                assert!(
                    scale.is_finite(),
                    "{} step {step}: scale {scale:e}",
                    codec.name()
                );
                let r = residual.as_deref().expect("feedback keeps a residual");
                for (i, (&d, &e)) in decoded.iter().zip(r).enumerate() {
                    assert!(
                        d.is_finite() && e.is_finite(),
                        "{} step {step} [{i}]",
                        codec.name()
                    );
                    assert!(
                        e.abs() <= scale / 2.0 * (1.0 + 1e-5),
                        "{} step {step} [{i}]: |residual| {e:e} > half step {:e}",
                        codec.name(),
                        scale / 2.0
                    );
                }
            }
        }
    }

    #[test]
    fn topk_sends_non_finite_coordinates_first() {
        let x = [
            1.0f32,
            -f32::NAN,
            0.25,
            f32::NEG_INFINITY,
            f32::NAN,
            4.0,
            f32::INFINITY,
            2.0,
        ];
        let c = TopK::new(0.5); // k = 4 of 8
        let back = c.decode(&c.encode(&x), x.len());
        for (i, (&b, &v)) in back.iter().zip(&x).enumerate() {
            if v.is_finite() {
                assert_eq!(b, 0.0, "[{i}] is finite and dropped");
            } else {
                assert_eq!(b.to_bits(), v.to_bits(), "[{i}] is sent verbatim");
            }
        }
    }

    #[test]
    fn identity_roundtrip_is_bit_exact() {
        let x = sample(33);
        let c = Identity;
        let wire = c.encode(&x);
        assert_eq!(wire.len(), c.encoded_len(x.len()));
        assert_eq!(c.decode(&wire, x.len()), x);
    }

    #[test]
    fn q8_and_q4_respect_error_bounds() {
        let x = sample(257);
        let (min, max) = fedtrip_tensor::compress::minmax(&x);
        for (codec, levels) in [
            (Box::new(QuantizeQ8) as Box<dyn Compressor>, 255.0f32),
            (Box::new(QuantizeQ4), 15.0),
        ] {
            let wire = codec.encode(&x);
            assert_eq!(wire.len(), codec.encoded_len(x.len()));
            let back = codec.decode(&wire, x.len());
            let step = (max - min) / levels;
            for (a, b) in x.iter().zip(&back) {
                assert!(
                    (a - b).abs() <= step / 2.0 + 1e-5,
                    "{} error {} > {}",
                    codec.name(),
                    (a - b).abs(),
                    step / 2.0
                );
            }
        }
    }

    #[test]
    fn topk_keeps_the_largest_and_zeroes_the_rest() {
        let x = vec![0.1f32, -9.0, 0.2, 8.0, -0.3, 0.05, 7.0, -0.2];
        let c = TopK::new(0.375); // k = 3 of 8
        assert_eq!(c.k_for(x.len()), 3);
        let back = c.decode(&c.encode(&x), x.len());
        assert_eq!(back, vec![0.0, -9.0, 0.0, 8.0, 0.0, 0.0, 7.0, 0.0]);
    }

    #[test]
    fn kind_parse_round_trips() {
        for kind in [
            CompressionKind::None,
            CompressionKind::Q8,
            CompressionKind::Q4,
            CompressionKind::TopK(0.01),
        ] {
            assert_eq!(CompressionKind::parse(&kind.name()), Some(kind));
        }
        assert_eq!(CompressionKind::parse("topk:0"), None);
        assert_eq!(CompressionKind::parse("topk:1.5"), None);
        assert_eq!(CompressionKind::parse("zip"), None);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn topk_rejects_zero_fraction() {
        let _ = TopK::new(0.0);
    }

    #[test]
    fn error_feedback_carries_the_dropped_mass() {
        // one coordinate of four survives each round; the feedback loop
        // conserves mass exactly (delivered + residual == everything sent)
        // and eventually transmits even the smallest coordinate
        let codec = TopK::new(0.25);
        let update = vec![4.0f32, 3.0, 2.0, 1.0];
        let rounds = 40;
        let mut residual = None;
        let mut delivered = vec![0.0f32; 4];
        for _ in 0..rounds {
            let (decoded, _) = error_feedback_step(&codec, &update, &mut residual, true);
            fedtrip_tensor::vecops::axpy(&mut delivered, 1.0, &decoded);
        }
        let carry = residual.expect("residual recorded");
        for i in 0..4 {
            let sent = update[i] * rounds as f32;
            assert!(
                (delivered[i] + carry[i] - sent).abs() < 1e-3,
                "coordinate {i}: {} + {} != {sent}",
                delivered[i],
                carry[i]
            );
            assert!(delivered[i] > 0.0, "coordinate {i} never transmitted");
        }
        // without feedback the small coordinates never travel
        let mut none = None;
        let (decoded, _) = error_feedback_step(&codec, &update, &mut none, false);
        assert_eq!(decoded, vec![4.0, 0.0, 0.0, 0.0]);
        assert!(none.is_none());
    }
}
