//! im2col / col2im transformations for convolution layers.
//!
//! Convolutions are lowered to SGEMM: for each image, the receptive fields
//! are unrolled into a `[C*KH*KW, OH*OW]` column matrix, multiplied by the
//! `[OC, C*KH*KW]` filter matrix, and the result is the `[OC, OH*OW]` output
//! plane. `col2im` is the adjoint scatter used for input gradients.

/// Geometry of one 2-d convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel height.
    pub k_h: usize,
    /// Kernel width.
    pub k_w: usize,
    /// Stride (same in both dims).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeom {
    /// Output height.
    #[inline]
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.k_h) / self.stride + 1
    }

    /// Output width.
    #[inline]
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.k_w) / self.stride + 1
    }

    /// Rows of the column matrix (`C * KH * KW`).
    #[inline]
    pub fn col_rows(&self) -> usize {
        self.in_c * self.k_h * self.k_w
    }

    /// Columns of the column matrix (`OH * OW`).
    #[inline]
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// True when the geometry is internally consistent (kernel fits).
    pub fn is_valid(&self) -> bool {
        self.in_h + 2 * self.pad >= self.k_h
            && self.in_w + 2 * self.pad >= self.k_w
            && self.stride > 0
            && self.in_c > 0
            && self.out_c > 0
    }
}

/// Unroll one image `[C, H, W]` into the column matrix `[C*KH*KW, OH*OW]`.
///
/// `img` must have `in_c * in_h * in_w` elements; `col` must have
/// `col_rows() * col_cols()` elements and is fully overwritten.
pub fn im2col(g: &ConvGeom, img: &[f32], col: &mut [f32]) {
    debug_assert_eq!(col.len(), g.col_rows() * g.col_cols());
    im2col_into(g, img, col, g.col_cols(), 0);
}

/// [`im2col`] into a strided destination: row `r` of the per-image column
/// matrix lands at `col[r * row_stride + col_offset ..][..col_cols()]`.
///
/// This is what lets a whole batch share one wide `[C*KH*KW, B*OH*OW]`
/// column matrix (image `bi` at `col_offset = bi * col_cols()`), so the
/// convolution becomes a single SGEMM per layer instead of one per image.
pub fn im2col_into(
    g: &ConvGeom,
    img: &[f32],
    col: &mut [f32],
    row_stride: usize,
    col_offset: usize,
) {
    debug_assert_eq!(img.len(), g.in_c * g.in_h * g.in_w);
    let (oh, ow) = (g.out_h(), g.out_w());
    let n_cols = oh * ow;
    debug_assert!(row_stride >= n_cols);
    for c in 0..g.in_c {
        let plane = &img[c * g.in_h * g.in_w..(c + 1) * g.in_h * g.in_w];
        for kh in 0..g.k_h {
            for kw in 0..g.k_w {
                let row = (c * g.k_h + kh) * g.k_w + kw;
                let dst = &mut col[row * row_stride + col_offset..][..n_cols];
                if g.stride == 1 {
                    // stride-1 fast path: each output row is a contiguous
                    // slice of the input row, bordered by pad zeros
                    for oy in 0..oh {
                        let d = &mut dst[oy * ow..(oy + 1) * ow];
                        let iy = (oy + kh) as isize - g.pad as isize;
                        if iy < 0 || iy >= g.in_h as isize {
                            d.fill(0.0);
                            continue;
                        }
                        // valid ox: 0 <= ox + kw - pad < in_w
                        let lo = (g.pad as isize - kw as isize).clamp(0, ow as isize) as usize;
                        let hi = (g.in_w as isize + g.pad as isize - kw as isize)
                            .clamp(lo as isize, ow as isize)
                            as usize;
                        d[..lo].fill(0.0);
                        let src0 = iy as usize * g.in_w + lo + kw - g.pad;
                        d[lo..hi].copy_from_slice(&plane[src0..src0 + (hi - lo)]);
                        d[hi..].fill(0.0);
                    }
                } else {
                    let mut di = 0usize;
                    for oy in 0..oh {
                        let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                        if iy < 0 || iy >= g.in_h as isize {
                            dst[di..di + ow].fill(0.0);
                            di += ow;
                            continue;
                        }
                        let iy = iy as usize;
                        for ox in 0..ow {
                            let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                            dst[di] = if ix < 0 || ix >= g.in_w as isize {
                                0.0
                            } else {
                                plane[iy * g.in_w + ix as usize]
                            };
                            di += 1;
                        }
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatter-add the column matrix back into an image
/// gradient buffer `[C, H, W]` (which must be zeroed by the caller when a
/// fresh gradient is wanted).
pub fn col2im_accum(g: &ConvGeom, col: &[f32], img: &mut [f32]) {
    debug_assert_eq!(col.len(), g.col_rows() * g.col_cols());
    col2im_accum_from(g, col, g.col_cols(), 0, img);
}

/// [`col2im_accum`] from a strided source: row `r` of the per-image column
/// gradient is read at `col[r * row_stride + col_offset ..][..col_cols()]`
/// (the batched layout [`im2col_into`] writes).
pub fn col2im_accum_from(
    g: &ConvGeom,
    col: &[f32],
    row_stride: usize,
    col_offset: usize,
    img: &mut [f32],
) {
    debug_assert_eq!(img.len(), g.in_c * g.in_h * g.in_w);
    let (oh, ow) = (g.out_h(), g.out_w());
    let n_cols = oh * ow;
    debug_assert!(row_stride >= n_cols);
    for c in 0..g.in_c {
        let plane = &mut img[c * g.in_h * g.in_w..(c + 1) * g.in_h * g.in_w];
        for kh in 0..g.k_h {
            for kw in 0..g.k_w {
                let row = (c * g.k_h + kh) * g.k_w + kw;
                let src = &col[row * row_stride + col_offset..][..n_cols];
                if g.stride == 1 {
                    // stride-1 fast path: the valid span of each output row
                    // accumulates into a contiguous input-row slice
                    for oy in 0..oh {
                        let s = &src[oy * ow..(oy + 1) * ow];
                        let iy = (oy + kh) as isize - g.pad as isize;
                        if iy < 0 || iy >= g.in_h as isize {
                            continue;
                        }
                        let lo = (g.pad as isize - kw as isize).clamp(0, ow as isize) as usize;
                        let hi = (g.in_w as isize + g.pad as isize - kw as isize)
                            .clamp(lo as isize, ow as isize)
                            as usize;
                        let dst0 = iy as usize * g.in_w + lo + kw - g.pad;
                        for (d, &v) in plane[dst0..dst0 + (hi - lo)].iter_mut().zip(&s[lo..hi]) {
                            *d += v;
                        }
                    }
                } else {
                    let mut si = 0usize;
                    for oy in 0..oh {
                        let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                        if iy < 0 || iy >= g.in_h as isize {
                            si += ow;
                            continue;
                        }
                        let iy = iy as usize;
                        for ox in 0..ow {
                            let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                            if ix >= 0 && ix < g.in_w as isize {
                                plane[iy * g.in_w + ix as usize] += src[si];
                            }
                            si += 1;
                        }
                    }
                }
            }
        }
    }
}

/// Reference direct convolution for one image (the test oracle for the
/// im2col path).
///
/// `weights` is `[OC, C, KH, KW]`, `out` is `[OC, OH, OW]` and is overwritten.
pub fn conv2d_direct(g: &ConvGeom, img: &[f32], weights: &[f32], bias: &[f32], out: &mut [f32]) {
    let (oh, ow) = (g.out_h(), g.out_w());
    debug_assert_eq!(out.len(), g.out_c * oh * ow);
    debug_assert_eq!(weights.len(), g.out_c * g.col_rows());
    debug_assert_eq!(bias.len(), g.out_c);
    for oc in 0..g.out_c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = bias[oc];
                for c in 0..g.in_c {
                    for kh in 0..g.k_h {
                        let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                        if iy < 0 || iy >= g.in_h as isize {
                            continue;
                        }
                        for kw in 0..g.k_w {
                            let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                            if ix < 0 || ix >= g.in_w as isize {
                                continue;
                            }
                            let w = weights[((oc * g.in_c + c) * g.k_h + kh) * g.k_w + kw];
                            let x = img[(c * g.in_h + iy as usize) * g.in_w + ix as usize];
                            acc += w * x;
                        }
                    }
                }
                out[(oc * oh + oy) * ow + ox] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::sgemm;
    use crate::rng::Prng;

    fn geom() -> ConvGeom {
        ConvGeom {
            in_c: 2,
            in_h: 5,
            in_w: 5,
            out_c: 3,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        }
    }

    #[test]
    fn geometry_sizes() {
        let g = geom();
        assert!(g.is_valid());
        assert_eq!(g.out_h(), 5);
        assert_eq!(g.out_w(), 5);
        assert_eq!(g.col_rows(), 18);
        assert_eq!(g.col_cols(), 25);
    }

    #[test]
    fn invalid_geometry_detected() {
        let mut g = geom();
        g.k_h = 9;
        g.pad = 0;
        assert!(!g.is_valid());
    }

    #[test]
    fn im2col_gemm_matches_direct_conv() {
        let g = geom();
        let mut rng = Prng::seed_from_u64(21);
        let img: Vec<f32> = (0..g.in_c * g.in_h * g.in_w)
            .map(|_| rng.normal())
            .collect();
        let w: Vec<f32> = (0..g.out_c * g.col_rows()).map(|_| rng.normal()).collect();
        let bias: Vec<f32> = (0..g.out_c).map(|_| rng.normal()).collect();

        // direct
        let mut direct = vec![0.0f32; g.out_c * g.col_cols()];
        conv2d_direct(&g, &img, &w, &bias, &mut direct);

        // im2col + gemm
        let mut col = vec![0.0f32; g.col_rows() * g.col_cols()];
        im2col(&g, &img, &mut col);
        let mut out = vec![0.0f32; g.out_c * g.col_cols()];
        sgemm(g.out_c, g.col_rows(), g.col_cols(), &w, &col, &mut out);
        for oc in 0..g.out_c {
            for p in 0..g.col_cols() {
                out[oc * g.col_cols() + p] += bias[oc];
            }
        }

        for (a, b) in out.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining
        // property that makes the backward pass correct.
        let g = geom();
        let mut rng = Prng::seed_from_u64(33);
        let x: Vec<f32> = (0..g.in_c * g.in_h * g.in_w)
            .map(|_| rng.normal())
            .collect();
        let y: Vec<f32> = (0..g.col_rows() * g.col_cols())
            .map(|_| rng.normal())
            .collect();

        let mut cx = vec![0.0f32; y.len()];
        im2col(&g, &x, &mut cx);
        let lhs: f64 = cx
            .iter()
            .zip(&y)
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum();

        let mut aty = vec![0.0f32; x.len()];
        col2im_accum(&g, &y, &mut aty);
        let rhs: f64 = x
            .iter()
            .zip(&aty)
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum();

        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn stride_two_no_pad() {
        let g = ConvGeom {
            in_c: 1,
            in_h: 6,
            in_w: 6,
            out_c: 1,
            k_h: 2,
            k_w: 2,
            stride: 2,
            pad: 0,
        };
        assert_eq!(g.out_h(), 3);
        assert_eq!(g.out_w(), 3);
        let img: Vec<f32> = (0..36).map(|v| v as f32).collect();
        let w = vec![1.0, 0.0, 0.0, 0.0]; // picks top-left of each 2x2 patch
        let bias = vec![0.0];
        let mut out = vec![0.0; 9];
        conv2d_direct(&g, &img, &w, &bias, &mut out);
        assert_eq!(out, vec![0.0, 2.0, 4.0, 12.0, 14.0, 16.0, 24.0, 26.0, 28.0]);
    }
}
