//! Fully-connected layer.

use super::Layer;
use crate::linalg::{sgemm, sgemm_a_bt, sgemm_at_b_accum};
use crate::rng::Prng;
use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// Fully-connected layer: `y = x W + b` with `W: [in, out]`, `b: [out]`.
#[derive(Debug, Clone)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    weight: Vec<f32>,
    bias: Vec<f32>,
    grad_weight: Vec<f32>,
    grad_bias: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// He-uniform initialized dense layer (`limit = sqrt(6 / in)`), the
    /// standard choice for ReLU networks.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Prng) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "Dense dims must be positive");
        let limit = (6.0f32 / in_dim as f32).sqrt();
        let weight = Tensor::rand_uniform(&[in_dim, out_dim], limit, rng).into_vec();
        Dense {
            in_dim,
            out_dim,
            weight,
            bias: vec![0.0; out_dim],
            grad_weight: vec![0.0; in_dim * out_dim],
            grad_bias: vec![0.0; out_dim],
            cached_input: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&mut self, input: Tensor, scratch: &mut Scratch) -> Tensor {
        let batch = input.len() / self.in_dim;
        debug_assert_eq!(
            batch * self.in_dim,
            input.len(),
            "Dense: input length {} not divisible by in_dim {}",
            input.len(),
            self.in_dim
        );
        // sgemm fully overwrites `out`, so stale scratch contents are fine
        let mut out = scratch.take_tensor(&[batch, self.out_dim]);
        sgemm(
            batch,
            self.in_dim,
            self.out_dim,
            input.as_slice(),
            &self.weight,
            out.as_mut_slice(),
        );
        // broadcast bias over rows
        for row in out.as_mut_slice().chunks_exact_mut(self.out_dim) {
            for (o, &b) in row.iter_mut().zip(&self.bias) {
                *o += b;
            }
        }
        if let Some(old) = self.cached_input.replace(input) {
            scratch.give_tensor(old);
        }
        out
    }

    fn backward(&mut self, grad_out: Tensor, scratch: &mut Scratch) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "backward-after-forward is the layer contract"
        )]
        let x = self
            .cached_input
            .take()
            .expect("Dense::backward called before forward");
        let batch = grad_out.len() / self.out_dim;
        debug_assert_eq!(batch * self.in_dim, x.len());

        // dW += X^T dY  (X: [batch, in], dY: [batch, out])
        sgemm_at_b_accum(
            batch,
            self.in_dim,
            self.out_dim,
            x.as_slice(),
            grad_out.as_slice(),
            &mut self.grad_weight,
        );
        // db += column sums of dY
        for row in grad_out.as_slice().chunks_exact(self.out_dim) {
            for (g, &d) in self.grad_bias.iter_mut().zip(row) {
                *g += d;
            }
        }
        // dX = dY W^T  (W: [in, out] interpreted as B with n=in, k=out);
        // fully overwritten by sgemm_a_bt
        let mut grad_in = scratch.take_tensor(&[batch, self.in_dim]);
        sgemm_a_bt(
            batch,
            self.out_dim,
            self.in_dim,
            grad_out.as_slice(),
            &self.weight,
            grad_in.as_mut_slice(),
        );
        scratch.give_tensor(x);
        scratch.give_tensor(grad_out);
        grad_in
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
        // one multiply-add per weight element, plus the bias add
        2 * (self.in_dim as u64) * (self.out_dim as u64) + self.out_dim as u64
    }

    fn flops_backward(&self) -> u64 {
        // dW (2*in*out) + dX (2*in*out) + db (out)
        4 * (self.in_dim as u64) * (self.out_dim as u64) + self.out_dim as u64
    }

    fn output_shape(&self, _input_shape: &[usize]) -> Vec<usize> {
        vec![self.out_dim]
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    #[test]
    fn forward_matches_manual() {
        let mut rng = Prng::seed_from_u64(1);
        let mut d = Dense::new(2, 3, &mut rng);
        // overwrite params with known values
        d.params_mut()[0].copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]); // W [2,3]
        d.params_mut()[1].copy_from_slice(&[0.1, 0.2, 0.3]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = d.forward(x, &mut Scratch::new());
        assert_eq!(y.shape(), &[1, 3]);
        let e = [5.1f32, 7.2, 9.3];
        for (a, b) in y.as_slice().iter().zip(&e) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn gradcheck_input_and_params() {
        let mut rng = Prng::seed_from_u64(2);
        let mut d = Dense::new(5, 4, &mut rng);
        let x = Tensor::randn(&[3, 5], 1.0, &mut rng);
        gradcheck::check_input_gradient(&mut d, &x, 5e-2);
        gradcheck::check_param_gradient(&mut d, &x, 5e-2);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = Prng::seed_from_u64(3);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Tensor::from_vec(vec![1.0, -1.0], &[1, 2]).unwrap();
        let g = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let mut s = Scratch::new();
        d.forward(x.clone(), &mut s);
        d.backward(g.clone(), &mut s);
        let g1 = d.grads()[0].to_vec();
        d.forward(x, &mut s);
        d.backward(g, &mut s);
        let g2 = d.grads()[0].to_vec();
        for (a, b) in g1.iter().zip(&g2) {
            assert!((2.0 * a - b).abs() < 1e-5, "accumulation broken: {a} {b}");
        }
        d.zero_grads();
        assert!(d.grads()[0].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn num_params_counts_weight_and_bias() {
        let mut rng = Prng::seed_from_u64(4);
        let d = Dense::new(10, 7, &mut rng);
        assert_eq!(d.num_params(), 10 * 7 + 7);
        assert_eq!(d.output_shape(&[10]), vec![7]);
    }

    #[test]
    fn flops_are_symmetric_with_size() {
        let mut rng = Prng::seed_from_u64(5);
        let d = Dense::new(100, 10, &mut rng);
        assert_eq!(d.flops_forward(), 2 * 1000 + 10);
        assert_eq!(d.flops_backward(), 4 * 1000 + 10);
    }
}
