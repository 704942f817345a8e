//! 2-d convolution layer (im2col + SGEMM lowering).

use super::Layer;
use crate::conv::{col2im_accum_from, im2col_into, ConvGeom};
use crate::linalg::{sgemm, sgemm_a_bt, sgemm_at_b};
use crate::rng::Prng;
use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// 2-d convolution over `[batch, C, H, W]` inputs.
///
/// Weights are stored as the `[out_c, in_c*k_h*k_w]` filter matrix that the
/// im2col lowering multiplies directly. The whole batch is unrolled into one
/// wide `[in_c*k_h*k_w, batch*out_h*out_w]` column matrix so each of the
/// forward / weight-gradient / input-gradient passes is a **single** SGEMM
/// per layer — per-image GEMMs on these paper-scale geometries are too small
/// to amortize the packed kernel's setup (the worst case, a 1x1 output map,
/// degenerates to a GEMV that wastes the whole N-tile).
#[derive(Debug, Clone)]
pub struct Conv2d {
    geom: ConvGeom,
    weight: Vec<f32>,
    bias: Vec<f32>,
    grad_weight: Vec<f32>,
    grad_bias: Vec<f32>,
    /// Batched column matrix from the last forward, reused by backward
    /// (with the batch size it was built for).
    cached_col: Option<(Vec<f32>, usize)>,
}

impl Conv2d {
    /// He-uniform initialized convolution.
    ///
    /// # Panics
    /// Panics if the geometry is invalid (kernel larger than padded input).
    pub fn new(geom: ConvGeom, rng: &mut Prng) -> Self {
        assert!(geom.is_valid(), "invalid conv geometry: {geom:?}");
        let fan_in = geom.col_rows();
        let limit = (6.0f32 / fan_in as f32).sqrt();
        let weight = Tensor::rand_uniform(&[geom.out_c, fan_in], limit, rng).into_vec();
        Conv2d {
            geom,
            weight,
            bias: vec![0.0; geom.out_c],
            grad_weight: vec![0.0; geom.out_c * fan_in],
            grad_bias: vec![0.0; geom.out_c],
            cached_col: None,
        }
    }

    /// The convolution geometry.
    pub fn geom(&self) -> &ConvGeom {
        &self.geom
    }

    fn in_elems(&self) -> usize {
        self.geom.in_c * self.geom.in_h * self.geom.in_w
    }

    fn out_elems(&self) -> usize {
        self.geom.out_c * self.geom.col_cols()
    }

    /// The parameter half of the backward pass: gathers `dY` into the wide
    /// layout, then `dW += dY_wide colᵀ` and `db += per-channel sums of dY`.
    /// Returns the cached column matrix, the batch size and `dY_wide`; the
    /// caller gives both buffers back to the arena.
    fn accumulate_param_grads(
        &mut self,
        grad_out: &Tensor,
        scratch: &mut Scratch,
    ) -> (Vec<f32>, usize, Vec<f32>) {
        let g = self.geom;
        #[expect(
            clippy::expect_used,
            reason = "backward-after-forward is the layer contract"
        )]
        let (col, batch) = self
            .cached_col
            .take()
            .expect("Conv2d::backward called before forward");
        let n_cols = g.col_cols();
        let wide = batch * n_cols;
        let out_elems = self.out_elems();
        debug_assert_eq!(grad_out.len(), batch * out_elems);
        debug_assert_eq!(col.len(), g.col_rows() * wide);

        // gather dY [batch, out_c, n_cols] into the wide layout
        // [out_c, batch*n_cols] that pairs with the cached column matrix
        let mut dy_wide = scratch.take(g.out_c * wide);
        for bi in 0..batch {
            let dy = &grad_out.as_slice()[bi * out_elems..(bi + 1) * out_elems];
            for oc in 0..g.out_c {
                dy_wide[oc * wide + bi * n_cols..][..n_cols]
                    .copy_from_slice(&dy[oc * n_cols..(oc + 1) * n_cols]);
            }
        }

        // dW += dY_wide * col^T — one GEMM reduces over the whole batch
        let mut dw = scratch.take(g.out_c * g.col_rows());
        sgemm_a_bt(g.out_c, wide, g.col_rows(), &dy_wide, &col, &mut dw);
        for (acc, v) in self.grad_weight.iter_mut().zip(&dw) {
            *acc += v;
        }
        scratch.give(dw);

        // db += per-channel sums of dY
        for oc in 0..g.out_c {
            let mut s = 0.0f32;
            for &v in &dy_wide[oc * wide..(oc + 1) * wide] {
                s += v;
            }
            self.grad_bias[oc] += s;
        }
        (col, batch, dy_wide)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, input: Tensor, scratch: &mut Scratch) -> Tensor {
        let g = &self.geom;
        let batch = input.len() / self.in_elems();
        debug_assert_eq!(batch * self.in_elems(), input.len(), "conv2d input size");
        let (oh, ow) = (g.out_h(), g.out_w());
        let n_cols = g.col_cols();
        let wide = batch * n_cols;

        // one wide column matrix for the whole batch (image bi occupies
        // columns [bi*n_cols, (bi+1)*n_cols)); fully overwritten by im2col
        let mut col = scratch.take(g.col_rows() * wide);
        for bi in 0..batch {
            let img = &input.as_slice()[bi * self.in_elems()..(bi + 1) * self.in_elems()];
            im2col_into(g, img, &mut col, wide, bi * n_cols);
        }

        // single forward GEMM: [out_c, col_rows] x [col_rows, wide]
        let mut out_wide = scratch.take(g.out_c * wide);
        sgemm(
            g.out_c,
            g.col_rows(),
            wide,
            &self.weight,
            &col,
            &mut out_wide,
        );

        // un-interleave [out_c, batch*n_cols] -> [batch, out_c, n_cols],
        // fusing the bias add into the copy (overwrites every element)
        let mut out = scratch.take_tensor(&[batch, g.out_c, oh, ow]);
        let dst = out.as_mut_slice();
        for oc in 0..g.out_c {
            let b = self.bias[oc];
            let src_row = &out_wide[oc * wide..(oc + 1) * wide];
            for bi in 0..batch {
                let d = &mut dst[(bi * g.out_c + oc) * n_cols..][..n_cols];
                for (dv, &sv) in d.iter_mut().zip(&src_row[bi * n_cols..][..n_cols]) {
                    *dv = sv + b;
                }
            }
        }
        scratch.give(out_wide);

        // backward reuses the column matrix instead of re-running im2col;
        // the input itself is no longer needed
        if let Some((old, _)) = self.cached_col.replace((col, batch)) {
            scratch.give(old);
        }
        scratch.give_tensor(input);
        out
    }

    fn backward(&mut self, grad_out: Tensor, scratch: &mut Scratch) -> Tensor {
        let g = self.geom;
        let (mut col, batch, dy_wide) = self.accumulate_param_grads(&grad_out, scratch);
        let n_cols = g.col_cols();
        let wide = batch * n_cols;
        let in_elems = self.in_elems();

        // d(col) = W^T dY_wide — reuse the column buffer (its contents were
        // consumed by the dW GEMM); then scatter back per image
        sgemm_at_b(
            g.out_c,
            g.col_rows(),
            wide,
            &self.weight,
            &dy_wide,
            &mut col,
        );
        scratch.give(dy_wide);
        let mut grad_in = scratch.take_tensor_zeroed(&[batch, g.in_c, g.in_h, g.in_w]);
        for bi in 0..batch {
            let gi = &mut grad_in.as_mut_slice()[bi * in_elems..(bi + 1) * in_elems];
            col2im_accum_from(&g, &col, wide, bi * n_cols, gi);
        }
        scratch.give(col);
        scratch.give_tensor(grad_out);
        grad_in
    }

    fn backward_params(&mut self, grad_out: Tensor, scratch: &mut Scratch) {
        let (col, _, dy_wide) = self.accumulate_param_grads(&grad_out, scratch);
        scratch.give(dy_wide);
        scratch.give(col);
        scratch.give_tensor(grad_out);
    }

    fn params(&self) -> Vec<&[f32]> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut [f32]> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&[f32]> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn grads_mut(&mut self) -> Vec<&mut [f32]> {
        vec![&mut self.grad_weight, &mut self.grad_bias]
    }

    fn params_and_grads(&mut self) -> Vec<(&mut [f32], &[f32])> {
        vec![
            (&mut self.weight[..], &self.grad_weight[..]),
            (&mut self.bias[..], &self.grad_bias[..]),
        ]
    }

    fn for_each_param_grad(&mut self, f: &mut dyn FnMut(&mut [f32], &[f32])) {
        f(&mut self.weight, &self.grad_weight);
        f(&mut self.bias, &self.grad_bias);
    }

    fn num_params(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn zero_grads(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    fn flops_forward(&self) -> u64 {
        let g = &self.geom;
        // GEMM: 2 * out_c * col_rows * col_cols, plus bias adds
        2 * (g.out_c as u64) * (g.col_rows() as u64) * (g.col_cols() as u64)
            + (g.out_c * g.col_cols()) as u64
    }

    fn flops_backward(&self) -> u64 {
        // dW GEMM + d(col) GEMM, each the same size as the forward GEMM
        2 * self.flops_forward()
    }

    fn output_shape(&self, _input_shape: &[usize]) -> Vec<usize> {
        vec![self.geom.out_c, self.geom.out_h(), self.geom.out_w()]
    }

    /// The im2col matrix plus the output planes.
    fn forward_footprint(&self, _input_shape: &[usize]) -> usize {
        self.geom.col_rows() * self.geom.col_cols() + self.out_elems()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    fn small_geom() -> ConvGeom {
        ConvGeom {
            in_c: 2,
            in_h: 6,
            in_w: 6,
            out_c: 3,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        }
    }

    #[test]
    fn forward_shape() {
        let mut rng = Prng::seed_from_u64(7);
        let mut conv = Conv2d::new(small_geom(), &mut rng);
        let x = Tensor::randn(&[2, 2, 6, 6], 1.0, &mut rng);
        let y = conv.forward(x, &mut Scratch::new());
        assert_eq!(y.shape(), &[2, 3, 6, 6]);
    }

    #[test]
    fn gradcheck_input_and_params() {
        let mut rng = Prng::seed_from_u64(8);
        let mut conv = Conv2d::new(small_geom(), &mut rng);
        let x = Tensor::randn(&[2, 2, 6, 6], 1.0, &mut rng);
        gradcheck::check_input_gradient(&mut conv, &x, 6e-2);
        gradcheck::check_param_gradient(&mut conv, &x, 6e-2);
    }

    #[test]
    fn stride_two_output_shape() {
        let g = ConvGeom {
            in_c: 1,
            in_h: 8,
            in_w: 8,
            out_c: 4,
            k_h: 3,
            k_w: 3,
            stride: 2,
            pad: 1,
        };
        let mut rng = Prng::seed_from_u64(9);
        let mut conv = Conv2d::new(g, &mut rng);
        let x = Tensor::randn(&[1, 1, 8, 8], 1.0, &mut rng);
        let y = conv.forward(x, &mut Scratch::new());
        assert_eq!(y.shape(), &[1, 4, 4, 4]);
        assert_eq!(conv.output_shape(&[1, 8, 8]), vec![4, 4, 4]);
    }

    #[test]
    fn forward_footprint_is_the_column_matrix_plus_the_output() {
        let g = small_geom();
        let conv = Conv2d::new(g, &mut Prng::seed_from_u64(12));
        // col_rows 2*3*3 = 18 by col_cols 6*6 = 36, plus a 3x6x6 output
        assert_eq!(
            conv.forward_footprint(&[2, 6, 6]),
            g.col_rows() * g.col_cols() + g.out_c * g.out_h() * g.out_w()
        );
    }

    #[test]
    fn num_params() {
        let mut rng = Prng::seed_from_u64(10);
        let conv = Conv2d::new(small_geom(), &mut rng);
        assert_eq!(conv.num_params(), 3 * 2 * 3 * 3 + 3);
    }

    #[test]
    fn bias_shifts_every_output_plane() {
        let mut rng = Prng::seed_from_u64(11);
        let g = small_geom();
        let mut conv = Conv2d::new(g, &mut rng);
        let x = Tensor::zeros(&[1, 2, 6, 6]);
        conv.params_mut()[1].copy_from_slice(&[1.0, 2.0, 3.0]);
        let y = conv.forward(x, &mut Scratch::new());
        let n = g.col_cols();
        for oc in 0..3 {
            for &v in &y.as_slice()[oc * n..(oc + 1) * n] {
                assert!((v - (oc as f32 + 1.0)).abs() < 1e-6);
            }
        }
    }
}
