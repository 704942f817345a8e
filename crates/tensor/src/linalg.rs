//! Dense linear algebra kernels.
//!
//! The workhorse is a packed, register-tiled GEMM in the BLIS style: `B` is
//! packed into contiguous `KC x NR` panels (reused across every row panel of
//! `A`), `A` into `KC x MR` panels, and an `MR x NR` micro-kernel keeps the
//! accumulator tile in locals so LLVM maps it onto SIMD registers. All dense
//! and convolution layers (via im2col) reduce to these kernels, so their
//! throughput dominates simulated training time.
//!
//! **Bit-exactness contract.** For every output element the contributions
//! `a[i][kk] * b[kk][j]` are added in strictly increasing `kk` order: the
//! `KC` blocks advance in order and the micro-kernel reloads `C` into its
//! accumulators between blocks, so the f32 addition chain is exactly the
//! chain the pre-tiled saxpy kernel produced. Cache blocking (`MC`/`NC`),
//! panel packing, lane padding, and the AVX2 vs portable instantiation all
//! only change *which output elements* are computed together, never the
//! per-element order, so results are bit-identical across shapes and
//! hardware paths (the PR-2/PR-3 golden fixtures pin this).
//!
//! The first `KC` block initializes the accumulators to zero and stores over
//! `C`, which is what gives [`sgemm`] its beta-free overwrite contract — no
//! separate `c.fill(0.0)` pass (and no redundant zeroing in [`matmul`]).
//! The old kernel's `aik == 0.0` skip branch is gone: with accumulators
//! seeded from `+0.0`, `x + (+/-0.0 * b)` is bit-identical to skipping the
//! term for all finite data, and a branch in the inner loop defeats
//! vectorization on the dense matrices this workspace actually multiplies
//! (the benchmark's `tensor.sgemm_gflops.*` probes measure it).

use crate::tensor::Tensor;
use crate::{Result, TensorError};
use std::cell::RefCell;

/// Micro-tile for the portable (SSE2-autovectorized) instantiation: a 4x8
/// register tile, eight XMM accumulators. `MC` must be a multiple of every
/// instantiation's MR.
const MR_PORTABLE: usize = 4;
const NR_PORTABLE: usize = 8;
/// Micro-tile for the AVX2 instantiation: a 4x16 register tile (two YMM
/// vectors per accumulator row, 8 YMM accumulators + broadcast + B row).
#[cfg(target_arch = "x86_64")]
const MR_AVX2: usize = 4;
#[cfg(target_arch = "x86_64")]
const NR_AVX2: usize = 16;
/// Micro-tile for the AVX-512 instantiation. Empirically 4x16 beats taller
/// (6x16/8x16 spill: LLVM keeps 256-bit vectors by default under avx512f,
/// so each row costs two registers) and wider (4x32 wins ~5% on big square
/// GEMM but loses ~15% on the CNN layer shapes to column padding).
#[cfg(target_arch = "x86_64")]
const MR_AVX512: usize = 4;
#[cfg(target_arch = "x86_64")]
const NR_AVX512: usize = 16;
/// Cache-block height of an `A` block (rows of `C` per packed `A` panel set);
/// `MC x KC` floats stay resident in L2.
const MC: usize = 128;
/// Cache-block depth. Any value preserves bit-identity (the micro-kernel
/// reloads `C` between blocks); 256 keeps a `KC x NR` `B` panel plus the
/// `KC x MR` `A` panel comfortably in L1.
const KC: usize = 256;
/// Cache-block width of a packed `B` block.
const NC: usize = 1024;
/// Below this many columns (with enough rows to win) the kernel runs in the
/// swapped orientation, register-tiling over `m` instead of `n`, so
/// GEMV-shaped calls (e.g. the 1x1-output conv lowering with `n = 1`) still
/// vectorize.
const NARROW_N: usize = 4;

thread_local! {
    /// Per-thread packing scratch (`A` panels, `B` panels), grown on first
    /// use and reused by every subsequent GEMM on the thread — steady-state
    /// multiplies allocate nothing.
    static PACK_BUFS: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

#[inline(always)]
fn ensure_len(v: &mut Vec<f32>, len: usize) {
    if v.len() < len {
        v.resize(len, 0.0);
    }
}

/// Pack one cache block into `W`-lane panels.
///
/// The packed layout is panel-major: panel `p` holds lanes
/// `[x0 + p*W, x0 + p*W + W)` as `kb` consecutive `W`-wide rows, i.e.
/// `dst[p*kb*W + kk*W + lane] = M[k0 + kk][x0 + p*W + lane]`, zero-padding
/// lanes past `x0 + xb`. The logical matrix element `M[k][x]` lives at
/// `src[k*ld + x]` when `k_major`, else at `src[x*ld + k]` — one packer
/// covers plain, transposed-`A`, and transposed-`B` operands.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pack_block<const W: usize>(
    dst: &mut [f32],
    src: &[f32],
    ld: usize,
    k_major: bool,
    k0: usize,
    kb: usize,
    x0: usize,
    xb: usize,
) {
    let panels = xb.div_ceil(W);
    for p in 0..panels {
        let x_start = x0 + p * W;
        let lanes = W.min(x0 + xb - x_start);
        let panel = &mut dst[p * kb * W..(p + 1) * kb * W];
        if k_major {
            for kk in 0..kb {
                let row = &src[(k0 + kk) * ld + x_start..(k0 + kk) * ld + x_start + lanes];
                let d = &mut panel[kk * W..(kk + 1) * W];
                d[..lanes].copy_from_slice(row);
                d[lanes..].fill(0.0);
            }
        } else {
            for lane in 0..W {
                if lane < lanes {
                    let col = &src[(x_start + lane) * ld + k0..(x_start + lane) * ld + k0 + kb];
                    for (kk, &v) in col.iter().enumerate() {
                        panel[kk * W + lane] = v;
                    }
                } else {
                    for kk in 0..kb {
                        panel[kk * W + lane] = 0.0;
                    }
                }
            }
        }
    }
}

/// `MR x NR` register-tiled micro-kernel over one `kb`-deep panel pair.
///
/// The accumulator tile lives in locals; `load_c` pulls the current `C`
/// values in first (used for accumulate semantics and for every `KC` block
/// after the first, preserving the sequential per-element addition chain).
/// Only the `mb x nb` valid corner is stored back, so lane padding in the
/// packed panels never leaks.
///
/// The `B` operand is addressed as `bp[b_off + kk * b_rs ..][..NR_]`: packed
/// panels pass `(0, NR_)`; the pack-free direct path passes the source
/// matrix with its own row stride (identical values read in the identical
/// order, so both paths produce bit-identical results).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn microkernel<const MR_: usize, const NR_: usize>(
    kb: usize,
    ap: &[f32],
    bp: &[f32],
    b_off: usize,
    b_rs: usize,
    c: &mut [f32],
    off: usize,
    c_rs: usize,
    c_cs: usize,
    mb: usize,
    nb: usize,
    load_c: bool,
) {
    let mut acc = [[0.0f32; NR_]; MR_];
    if load_c {
        if mb == MR_ && nb == NR_ && c_cs == 1 {
            for (i, row) in acc.iter_mut().enumerate() {
                row.copy_from_slice(&c[off + i * c_rs..off + i * c_rs + NR_]);
            }
        } else {
            for (i, row) in acc.iter_mut().enumerate().take(mb) {
                for (j, v) in row.iter_mut().enumerate().take(nb) {
                    *v = c[off + i * c_rs + j * c_cs];
                }
            }
        }
    }
    for kk in 0..kb {
        let ar = &ap[kk * MR_..(kk + 1) * MR_];
        let br = &bp[b_off + kk * b_rs..b_off + kk * b_rs + NR_];
        for (i, row) in acc.iter_mut().enumerate() {
            let av = ar[i];
            for (j, v) in row.iter_mut().enumerate() {
                *v += av * br[j];
            }
        }
    }
    if mb == MR_ && nb == NR_ && c_cs == 1 {
        for (i, row) in acc.iter().enumerate() {
            c[off + i * c_rs..off + i * c_rs + NR_].copy_from_slice(row);
        }
    } else {
        for (i, row) in acc.iter().enumerate().take(mb) {
            for (j, &v) in row.iter().enumerate().take(nb) {
                c[off + i * c_rs + j * c_cs] = v;
            }
        }
    }
}

/// Packed, cache-blocked GEMM driver: `C (+)= A_logical * B_logical` where
/// `A_logical` is `m x k` with element `(i, kk)` at `a[kk*a_ld + i]`
/// (`a_k_major`) or `a[i*a_ld + kk]`, `B_logical` is `k x n` with element
/// `(kk, j)` at `b[kk*b_ld + j]` (`b_k_major`) or `b[j*b_ld + kk]`, and
/// `C[i][j]` lives at `c[i*c_rs + j*c_cs]`. One driver therefore covers all
/// of `A*B`, `A^T*B`, `A*B^T`, and their column-swapped (narrow-`n`)
/// orientations.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_driver<const MR_: usize, const NR_: usize>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_ld: usize,
    a_k_major: bool,
    b: &[f32],
    b_ld: usize,
    b_k_major: bool,
    c: &mut [f32],
    c_rs: usize,
    c_cs: usize,
    accumulate: bool,
    apack: &mut Vec<f32>,
    bpack: &mut Vec<f32>,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            for i in 0..m {
                for j in 0..n {
                    c[i * c_rs + j * c_cs] = 0.0;
                }
            }
        }
        return;
    }
    // B panels are consumed once per `ic` block. When B is already k-major
    // and there are at most two `ic` blocks, packing B (a write + re-read of
    // the whole operand) costs more than reading the source directly — the
    // kb x NR_ working set a direct tile touches is at most 16 KiB, still
    // L1-resident. The skinny batched conv lowerings (m = 6..120, k <= 400)
    // all take this path; big square GEMMs keep the packed route.
    let b_direct = b_k_major && m <= 2 * MC;
    for jc in (0..n).step_by(NC) {
        let nb_c = NC.min(n - jc);
        let nb_round = nb_c.div_ceil(NR_) * NR_;
        for (kci, kc) in (0..k).step_by(KC).enumerate() {
            let kb = KC.min(k - kc);
            if !b_direct {
                ensure_len(bpack, kb * nb_round);
                pack_block::<NR_>(bpack, b, b_ld, b_k_major, kc, kb, jc, nb_c);
            }
            let load_c = accumulate || kci > 0;
            for ic in (0..m).step_by(MC) {
                let mb_c = MC.min(m - ic);
                let mb_round = mb_c.div_ceil(MR_) * MR_;
                ensure_len(apack, kb * mb_round);
                pack_block::<MR_>(apack, a, a_ld, a_k_major, kc, kb, ic, mb_c);
                for jr in (0..nb_c).step_by(NR_) {
                    let nb = NR_.min(nb_c - jr);
                    // resolve this column tile's B source: packed panel,
                    // direct view into `b`, or (ragged direct edge) a
                    // just-in-time packed single panel
                    let (bp, b_off, b_rs): (&[f32], usize, usize) = if b_direct {
                        if nb == NR_ {
                            (b, kc * b_ld + jc + jr, b_ld)
                        } else {
                            ensure_len(bpack, kb * NR_);
                            pack_block::<NR_>(bpack, b, b_ld, true, kc, kb, jc + jr, nb);
                            (bpack, 0, NR_)
                        }
                    } else {
                        (
                            &bpack[(jr / NR_) * kb * NR_..(jr / NR_ + 1) * kb * NR_],
                            0,
                            NR_,
                        )
                    };
                    for ir in (0..mb_c).step_by(MR_) {
                        let mb = MR_.min(mb_c - ir);
                        let ap = &apack[(ir / MR_) * kb * MR_..(ir / MR_ + 1) * kb * MR_];
                        let off = (ic + ir) * c_rs + (jc + jr) * c_cs;
                        microkernel::<MR_, NR_>(
                            kb, ap, bp, b_off, b_rs, c, off, c_rs, c_cs, mb, nb, load_c,
                        );
                    }
                }
            }
        }
    }
}

/// AVX-512 instantiation of the driver (4x16 register tile). The generic
/// body is `#[inline(always)]`, so it is
/// recompiled here with AVX-512 codegen; the arithmetic is identical
/// strict-IEEE mul-then-add (rustc never contracts to FMA), so results
/// match the other instantiations bit for bit.
///
/// # Safety
/// Caller must have verified AVX-512F support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_driver_avx512(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_ld: usize,
    a_k_major: bool,
    b: &[f32],
    b_ld: usize,
    b_k_major: bool,
    c: &mut [f32],
    c_rs: usize,
    c_cs: usize,
    accumulate: bool,
    apack: &mut Vec<f32>,
    bpack: &mut Vec<f32>,
) {
    gemm_driver::<MR_AVX512, NR_AVX512>(
        m, k, n, a, a_ld, a_k_major, b, b_ld, b_k_major, c, c_rs, c_cs, accumulate, apack, bpack,
    );
}

/// AVX2 instantiation of the driver (4x16 register tile). The generic body
/// is `#[inline(always)]`, so it is recompiled here with AVX2 codegen; the
/// arithmetic is identical strict-IEEE mul-then-add, so results match the
/// portable path bit for bit.
///
/// # Safety
/// Caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_driver_avx2(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_ld: usize,
    a_k_major: bool,
    b: &[f32],
    b_ld: usize,
    b_k_major: bool,
    c: &mut [f32],
    c_rs: usize,
    c_cs: usize,
    accumulate: bool,
    apack: &mut Vec<f32>,
    bpack: &mut Vec<f32>,
) {
    gemm_driver::<MR_AVX2, NR_AVX2>(
        m, k, n, a, a_ld, a_k_major, b, b_ld, b_k_major, c, c_rs, c_cs, accumulate, apack, bpack,
    );
}

/// Dispatch one logical GEMM through the per-thread pack buffers and the
/// best available instruction set.
#[allow(clippy::too_many_arguments)]
fn gemm_dispatch(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_ld: usize,
    a_k_major: bool,
    b: &[f32],
    b_ld: usize,
    b_k_major: bool,
    c: &mut [f32],
    c_rs: usize,
    c_cs: usize,
    accumulate: bool,
) {
    PACK_BUFS.with(|bufs| {
        let (apack, bpack) = &mut *bufs.borrow_mut();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F availability was just checked.
                unsafe {
                    gemm_driver_avx512(
                        m, k, n, a, a_ld, a_k_major, b, b_ld, b_k_major, c, c_rs, c_cs, accumulate,
                        apack, bpack,
                    );
                }
                return;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 availability was just checked.
                unsafe {
                    gemm_driver_avx2(
                        m, k, n, a, a_ld, a_k_major, b, b_ld, b_k_major, c, c_rs, c_cs, accumulate,
                        apack, bpack,
                    );
                }
                return;
            }
        }
        gemm_driver::<MR_PORTABLE, NR_PORTABLE>(
            m, k, n, a, a_ld, a_k_major, b, b_ld, b_k_major, c, c_rs, c_cs, accumulate, apack,
            bpack,
        );
    });
}

/// True when a `m x n` output is column-starved enough that the swapped
/// orientation (register-tiling over `m`) vectorizes better.
#[inline]
fn narrow(m: usize, n: usize) -> bool {
    n < NARROW_N && m >= 2 * NARROW_N
}

/// GEMV fast path for `n == 1` with row-major `A`: `c[i] = dot(A[i], b)`.
///
/// Packing is pure overhead at this shape (the 1x1-output conv lowering
/// hits it 100+ times per local step), so instead run four independent
/// row-dot chains at a time for instruction-level parallelism. Each output
/// element still accumulates in strictly ascending `k` — bit-identical to
/// the packed driver and the pre-tiling kernel.
fn gemv_row_dots(m: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let mut i = 0;
    while i + 4 <= m {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for (kk, &bv) in b.iter().enumerate() {
            s0 += a0[kk] * bv;
            s1 += a1[kk] * bv;
            s2 += a2[kk] * bv;
            s3 += a3[kk] * bv;
        }
        c[i] = s0;
        c[i + 1] = s1;
        c[i + 2] = s2;
        c[i + 3] = s3;
        i += 4;
    }
    while i < m {
        let row = &a[i * k..(i + 1) * k];
        let mut s = 0.0f32;
        for (&av, &bv) in row.iter().zip(b) {
            s += av * bv;
        }
        c[i] = s;
        i += 1;
    }
}

/// GEMV fast path for `n == 1` with `k`-major `A` (`A^T * b`): the saxpy
/// orientation `c[i] += a[r*m + i] * b[r]` sweeps unit-stride rows, so it
/// auto-vectorizes while each `c[i]` still accumulates in ascending `r`.
fn gemv_at_b(m: usize, a: &[f32], b: &[f32], c: &mut [f32], accumulate: bool) {
    if !accumulate {
        c.fill(0.0);
    }
    for (r, &bv) in b.iter().enumerate() {
        let a_row = &a[r * m..(r + 1) * m];
        for (cv, &av) in c.iter_mut().zip(a_row) {
            *cv += av * bv;
        }
    }
}

/// `C = A * B` for row-major matrices: `A` is `m x k`, `B` is `k x n`,
/// `C` is `m x n`. `C` is fully overwritten (beta-free contract: the first
/// `KC` block stores, later blocks reload-accumulate).
///
/// # Panics
/// Debug-asserts slice lengths; in release an incorrect length is a logic
/// error upstream (the public [`matmul`] wrapper validates shapes).
pub fn sgemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k, "sgemm: A buffer length");
    debug_assert_eq!(b.len(), k * n, "sgemm: B buffer length");
    debug_assert_eq!(c.len(), m * n, "sgemm: C buffer length");
    if n == 1 && k > 0 {
        gemv_row_dots(m, k, a, b, c);
    } else if narrow(m, n) {
        // compute C^T: rows of C^T are columns of C (c_rs = 1, c_cs = n)
        gemm_dispatch(n, k, m, b, n, true, a, k, false, c, 1, n, false);
    } else {
        gemm_dispatch(m, k, n, a, k, false, b, n, true, c, n, 1, false);
    }
}

/// `C += A^T * B` where `A` is `k x m` (so `A^T` is `m x k`), `B` is `k x n`.
///
/// Used by dense-layer weight gradients (`dW = X^T * dY`) without forming the
/// transpose explicitly.
pub fn sgemm_at_b_accum(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if n == 1 {
        gemv_at_b(m, a, b, c, true);
    } else if narrow(m, n) {
        gemm_dispatch(n, k, m, b, n, true, a, m, true, c, 1, n, true);
    } else {
        gemm_dispatch(m, k, n, a, m, true, b, n, true, c, n, 1, true);
    }
}

/// `C = A^T * B` (overwrite variant of [`sgemm_at_b_accum`]) where `A` is
/// `k x m`, `B` is `k x n`.
///
/// Used by the convolution backward pass (`d(col) = W^T * dY`), replacing a
/// `fill(0.0)` + accumulate round trip with the kernel's overwrite contract.
pub fn sgemm_at_b(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if n == 1 {
        gemv_at_b(m, a, b, c, false);
    } else if narrow(m, n) {
        gemm_dispatch(n, k, m, b, n, true, a, m, true, c, 1, n, false);
    } else {
        gemm_dispatch(m, k, n, a, m, true, b, n, true, c, n, 1, false);
    }
}

/// `C = A * B^T` where `A` is `m x k`, `B` is `n x k`, so `C` is `m x n`.
///
/// Used by dense-layer input gradients (`dX = dY * W^T`); `C` is fully
/// overwritten.
pub fn sgemm_a_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    if n == 1 && k > 0 {
        // B is 1 x k row-major: identical dot shape to `sgemm` with n = 1
        gemv_row_dots(m, k, a, b, c);
    } else if narrow(m, n) {
        gemm_dispatch(n, k, m, b, k, false, a, k, false, c, 1, n, false);
    } else {
        gemm_dispatch(m, k, n, a, k, false, b, k, false, c, n, 1, false);
    }
}

/// Shape-checked matrix multiply over 2-d tensors.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (ash, bsh) = (a.shape(), b.shape());
    if ash.len() != 2 || bsh.len() != 2 || ash[1] != bsh[0] {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: ash.to_vec(),
            rhs: bsh.to_vec(),
        });
    }
    let (m, k, n) = (ash[0], ash[1], bsh[1]);
    let mut c = Tensor::zeros(&[m, n]);
    sgemm(m, k, n, a.as_slice(), b.as_slice(), c.as_mut_slice());
    Ok(c)
}

/// Cache-block edge for the tiled transpose: a 32x32 f32 tile is 4 KiB per
/// side, so source reads and destination writes both stay within a few
/// cache lines per row while the tile is live.
const TRANSPOSE_TILE: usize = 32;

/// Transpose a 2-d tensor (cache-blocked: both the strided reads and the
/// strided writes are confined to one `TRANSPOSE_TILE`-square tile at a
/// time instead of streaming the whole matrix per row).
pub fn transpose(a: &Tensor) -> Result<Tensor> {
    let sh = a.shape();
    if sh.len() != 2 {
        return Err(TensorError::InvalidShape(format!(
            "transpose expects 2-d, got {sh:?}"
        )));
    }
    let (m, n) = (sh[0], sh[1]);
    let src = a.as_slice();
    let mut out = vec![0.0f32; m * n];
    for i0 in (0..m).step_by(TRANSPOSE_TILE) {
        let ib = TRANSPOSE_TILE.min(m - i0);
        for j0 in (0..n).step_by(TRANSPOSE_TILE) {
            let jb = TRANSPOSE_TILE.min(n - j0);
            for i in i0..i0 + ib {
                let row = &src[i * n + j0..i * n + j0 + jb];
                for (j, &v) in row.iter().enumerate() {
                    out[(j0 + j) * m + i] = v;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, m])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    fn naive_matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    // === The pre-tiling kernels, kept verbatim as the bit-exactness ===
    // === reference: the packed kernels must reproduce their output   ===
    // === bit for bit (same per-element k-order).                     ===

    fn reference_sgemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        c.fill(0.0);
        let block_k = 256;
        let mut k0 = 0;
        while k0 < k {
            let kb = block_k.min(k - k0);
            for i in 0..m {
                let a_row = &a[i * k + k0..i * k + k0 + kb];
                let c_row = &mut c[i * n..(i + 1) * n];
                for (kk, &aik) in a_row.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    let b_row = &b[(k0 + kk) * n..(k0 + kk + 1) * n];
                    for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                        *cv += aik * bv;
                    }
                }
            }
            k0 += kb;
        }
    }

    fn reference_at_b_accum(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for r in 0..k {
            let a_row = &a[r * m..(r + 1) * m];
            let b_row = &b[r * n..(r + 1) * n];
            for (i, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let c_row = &mut c[i * n..(i + 1) * n];
                for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                    *cv += av * bv;
                }
            }
        }
    }

    fn reference_a_bt(_m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for (i, c_row) in c.chunks_mut(n).enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            for (j, cv) in c_row.iter_mut().enumerate() {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                *cv = acc;
            }
        }
    }

    /// Random data with exact zeros sprinkled in, so the reference kernels'
    /// `== 0.0` skip branches actually fire during the bitwise comparison.
    fn random_with_zeros(len: usize, rng: &mut Prng) -> Vec<f32> {
        (0..len)
            .map(|_| {
                let v = rng.normal();
                if rng.normal() > 1.0 {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    }

    /// Shapes that exercise every edge: non-multiples of MR/NR/KC/MC,
    /// unit dimensions, the narrow-`n` swapped orientation, and the exact
    /// GEMM shapes of the workspace's CNN layers.
    const AWKWARD: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 7, 1),
        (1, 5, 9),
        (5, 1, 3),
        (3, 9, 1),
        (2, 2, 2),
        (4, 8, 8),
        (5, 9, 7),
        (8, 300, 2),
        (13, 17, 19),
        (16, 150, 100),
        (6, 25, 28),
        (120, 400, 1),
        (33, 65, 33),
        (50, 120, 84),
        (129, 257, 31),
    ];

    #[test]
    fn sgemm_bitwise_matches_old_kernel() {
        let mut rng = Prng::seed_from_u64(42);
        for &(m, k, n) in AWKWARD {
            let a = random_with_zeros(m * k, &mut rng);
            let b = random_with_zeros(k * n, &mut rng);
            let mut c_new = vec![f32::NAN; m * n];
            let mut c_old = vec![0.0f32; m * n];
            sgemm(m, k, n, &a, &b, &mut c_new);
            reference_sgemm(m, k, n, &a, &b, &mut c_old);
            assert_eq!(c_new, c_old, "sgemm bit drift at ({m},{k},{n})");
        }
    }

    #[test]
    fn at_b_accum_bitwise_matches_old_kernel() {
        let mut rng = Prng::seed_from_u64(43);
        for &(m, k, n) in AWKWARD {
            let a = random_with_zeros(k * m, &mut rng);
            let b = random_with_zeros(k * n, &mut rng);
            let init: Vec<f32> = (0..m * n).map(|_| rng.normal()).collect();
            let mut c_new = init.clone();
            let mut c_old = init;
            sgemm_at_b_accum(k, m, n, &a, &b, &mut c_new);
            reference_at_b_accum(k, m, n, &a, &b, &mut c_old);
            assert_eq!(c_new, c_old, "at_b_accum bit drift at ({m},{k},{n})");
        }
    }

    #[test]
    fn a_bt_bitwise_matches_old_kernel() {
        let mut rng = Prng::seed_from_u64(44);
        for &(m, k, n) in AWKWARD {
            let a = random_with_zeros(m * k, &mut rng);
            let b = random_with_zeros(n * k, &mut rng);
            let mut c_new = vec![f32::NAN; m * n];
            let mut c_old = vec![0.0f32; m * n];
            sgemm_a_bt(m, k, n, &a, &b, &mut c_new);
            reference_a_bt(m, k, n, &a, &b, &mut c_old);
            assert_eq!(c_new, c_old, "a_bt bit drift at ({m},{k},{n})");
        }
    }

    #[test]
    fn at_b_overwrite_matches_accum_from_zero() {
        let mut rng = Prng::seed_from_u64(45);
        for &(m, k, n) in AWKWARD {
            let a = random_with_zeros(k * m, &mut rng);
            let b = random_with_zeros(k * n, &mut rng);
            let mut c_over = vec![f32::NAN; m * n];
            let mut c_accum = vec![0.0f32; m * n];
            sgemm_at_b(k, m, n, &a, &b, &mut c_over);
            sgemm_at_b_accum(k, m, n, &a, &b, &mut c_accum);
            assert_eq!(c_over, c_accum, "at_b overwrite drift at ({m},{k},{n})");
        }
    }

    #[test]
    fn sgemm_spans_multiple_kc_blocks_bitwise() {
        // k > 2*KC forces the reload-accumulate path across three blocks
        let (m, k, n) = (9, 2 * 256 + 37, 11);
        let mut rng = Prng::seed_from_u64(46);
        let a = random_with_zeros(m * k, &mut rng);
        let b = random_with_zeros(k * n, &mut rng);
        let mut c_new = vec![0.0f32; m * n];
        let mut c_old = vec![0.0f32; m * n];
        sgemm(m, k, n, &a, &b, &mut c_new);
        reference_sgemm(m, k, n, &a, &b, &mut c_old);
        assert_eq!(c_new, c_old);
    }

    #[test]
    fn sgemm_matches_naive_small() {
        let (m, k, n) = (3, 4, 5);
        let a: Vec<f32> = (0..m * k).map(|v| v as f32 * 0.5 - 1.0).collect();
        let b: Vec<f32> = (0..k * n).map(|v| (v as f32).sin()).collect();
        let mut c = vec![0.0; m * n];
        sgemm(m, k, n, &a, &b, &mut c);
        let expect = naive_matmul(m, k, n, &a, &b);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn sgemm_matches_naive_large() {
        let (m, k, n) = (130, 70, 90);
        let mut rng = Prng::seed_from_u64(5);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let mut c = vec![0.0; m * n];
        sgemm(m, k, n, &a, &b, &mut c);
        let expect = naive_matmul(m, k, n, &a, &b);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    #[test]
    fn sgemm_overwrite_semantics() {
        // C must be fully overwritten, not accumulated into.
        let (m, k, n) = (2, 2, 2);
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![100.0; 4];
        sgemm(m, k, n, &a, &b, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    fn narrow_orientation_overwrites_too() {
        // narrow(m, n) path (n = 1, m large) must honour the same contract
        let (m, k, n) = (64, 3, 1);
        let mut rng = Prng::seed_from_u64(47);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let mut c = vec![1e9f32; m * n];
        sgemm(m, k, n, &a, &b, &mut c);
        let expect = naive_matmul(m, k, n, &a, &b);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn at_b_accum_matches_explicit_transpose() {
        let (k, m, n) = (6, 3, 4);
        let mut rng = Prng::seed_from_u64(9);
        let a: Vec<f32> = (0..k * m).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let mut c = vec![0.5f32; m * n];

        // reference: transpose A then naive matmul, plus the 0.5 offset
        let mut at = vec![0.0f32; m * k];
        for r in 0..k {
            for i in 0..m {
                at[i * k + r] = a[r * m + i];
            }
        }
        let mut expect = naive_matmul(m, k, n, &at, &b);
        for e in &mut expect {
            *e += 0.5;
        }

        sgemm_at_b_accum(k, m, n, &a, &b, &mut c);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let (m, k, n) = (4, 5, 3);
        let mut rng = Prng::seed_from_u64(10);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..n * k).map(|_| rng.normal()).collect();
        let mut bt = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                bt[p * n + j] = b[j * k + p];
            }
        }
        let expect = naive_matmul(m, k, n, &a, &bt);
        let mut c = vec![0.0f32; m * n];
        sgemm_a_bt(m, k, n, &a, &b, &mut c);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_tensor_shapes() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), a.as_slice());
        assert!(matmul(&a, &Tensor::zeros(&[3, 2])).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]).unwrap();
        let t = transpose(&a).unwrap();
        assert_eq!(t.shape(), &[4, 3]);
        assert_eq!(t.at(&[2, 1]), a.at(&[1, 2]));
        let back = transpose(&t).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn transpose_blocked_matches_naive_on_ragged_shape() {
        // larger than one tile in both dimensions, not a tile multiple
        let (m, n) = (70, 45);
        let mut rng = Prng::seed_from_u64(48);
        let data: Vec<f32> = (0..m * n).map(|_| rng.normal()).collect();
        let a = Tensor::from_vec(data.clone(), &[m, n]).unwrap();
        let t = transpose(&a).unwrap();
        for i in 0..m {
            for j in 0..n {
                assert_eq!(t.as_slice()[j * m + i], data[i * n + j]);
            }
        }
    }
}
