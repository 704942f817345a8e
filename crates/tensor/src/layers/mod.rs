//! Neural-network layers with explicit forward/backward passes.
//!
//! Every layer caches what its backward pass needs during `forward`, mutates
//! its own gradient buffers during `backward`, and reports analytic FLOP
//! counts so the federated cost model (paper Appendix A, Tables III/V/VIII)
//! can be computed exactly rather than estimated.

mod conv2d;
mod dense;
mod dropout;
mod loss;
mod pool;
mod simple;

pub use conv2d::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use loss::SoftmaxCrossEntropy;
pub use pool::MaxPool2d;
pub use simple::{Flatten, Relu};

use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// A differentiable network layer.
///
/// Layers are stateful: `forward` caches activations, `backward` consumes
/// them and accumulates parameter gradients. A fresh copy for an independent
/// client is obtained through [`Layer::clone_box`]. `Send + Sync` so model
/// templates can be shared read-only across rayon workers (each worker
/// clones its own mutable copy).
///
/// Both passes take their tensor argument **by value** and draw working
/// buffers from the [`Scratch`] arena: a layer either mutates the input in
/// place and returns it, or gives the consumed tensor back to the arena and
/// returns a recycled one. In steady state a whole forward/backward sweep
/// performs no heap allocation.
pub trait Layer: Send + Sync {
    /// Human-readable layer name (used in model summaries).
    fn name(&self) -> &'static str;

    /// Run the layer on a batch, caching whatever `backward` will need.
    ///
    /// Consumes `input`; buffers that do not escape as the result must be
    /// returned to `scratch`.
    fn forward(&mut self, input: Tensor, scratch: &mut Scratch) -> Tensor;

    /// Propagate the output gradient, accumulating parameter gradients and
    /// returning the input gradient.
    ///
    /// Must be called after `forward` on the same batch. Consumes
    /// `grad_out`; buffers that do not escape must go back to `scratch`.
    fn backward(&mut self, grad_out: Tensor, scratch: &mut Scratch) -> Tensor;

    /// [`Layer::backward`] for a layer whose input gradient nothing reads
    /// (the first trainable layer of a network): accumulates the parameter
    /// gradients only. By default it runs `backward` and gives the input
    /// gradient back to `scratch`; layers whose input gradient costs real
    /// work override it to skip that work.
    fn backward_params(&mut self, grad_out: Tensor, scratch: &mut Scratch) {
        let grad_in = self.backward(grad_out, scratch);
        scratch.give_tensor(grad_in);
    }

    /// Flat views of the layer's parameters, in a stable order.
    fn params(&self) -> Vec<&[f32]> {
        Vec::new()
    }

    /// Mutable flat views of the layer's parameters.
    fn params_mut(&mut self) -> Vec<&mut [f32]> {
        Vec::new()
    }

    /// Flat views of the accumulated parameter gradients (same order as
    /// [`Layer::params`]).
    fn grads(&self) -> Vec<&[f32]> {
        Vec::new()
    }

    /// Mutable flat views of the parameter gradients.
    fn grads_mut(&mut self) -> Vec<&mut [f32]> {
        Vec::new()
    }

    /// Paired mutable-parameter / gradient views for optimizer steps.
    ///
    /// The two slices of each pair have identical lengths and stable order.
    fn params_and_grads(&mut self) -> Vec<(&mut [f32], &[f32])> {
        Vec::new()
    }

    /// Visit each (parameters, gradients) pair in the same stable order as
    /// [`Layer::params_and_grads`] without allocating — the hot-loop form
    /// used by fused optimizer sweeps.
    fn for_each_param_grad(&mut self, f: &mut dyn FnMut(&mut [f32], &[f32])) {
        let _ = f;
    }

    /// True for elementwise layers whose FLOP counts are *per element*
    /// rather than per sample (the network multiplies by activation size).
    fn is_elementwise(&self) -> bool {
        false
    }

    /// Switch between training and inference behaviour (dropout masks,
    /// etc.). Most layers behave identically in both modes.
    fn set_training(&mut self, _on: bool) {}

    /// Reset accumulated gradients to zero.
    fn zero_grads(&mut self) {}

    /// Number of trainable parameters.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Analytic forward FLOPs for a single sample.
    fn flops_forward(&self) -> u64;

    /// Analytic backward FLOPs for a single sample: the textbook backward,
    /// input gradient included. Training skips the first trainable layer's
    /// input gradient ([`Layer::backward_params`]), but the recorded cost
    /// model (paper Table V) still counts it. So the benchmark's
    /// `tensor.train_step_gflops`, which divides these FLOPs by a timed
    /// `train_step`, reads higher than the rate the kernels run at;
    /// `tensor.backward_ms` still times the full backward.
    fn flops_backward(&self) -> u64;

    /// Output shape (excluding the batch dimension) for a given input shape
    /// (also excluding batch).
    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize>;

    /// Elements of the largest buffer set the forward pass works over, per
    /// sample, for a given input shape (excluding batch): by default the
    /// layer's output.
    fn forward_footprint(&self, input_shape: &[usize]) -> usize {
        self.output_shape(input_shape).iter().product()
    }

    /// Clone into a boxed trait object (models are cloned per client).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Finite-difference gradient checking used by layer unit tests.
#[cfg(test)]
pub(crate) mod gradcheck {
    use super::*;

    /// Check `d loss / d input` of `layer` against central finite differences
    /// where `loss = sum(weights * forward(x))` for a fixed random weighting.
    pub fn check_input_gradient(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
        let mut s = Scratch::new();
        let y = layer.forward(x.clone(), &mut s);
        // fixed pseudo-random weighting puts every output element in play
        let w: Vec<f32> = (0..y.len())
            .map(|i| ((i * 2654435761) % 97) as f32 / 97.0 - 0.5)
            .collect();
        let grad_out = Tensor::from_vec(w.clone(), y.shape()).unwrap();
        layer.zero_grads();
        let gin = layer.backward(grad_out, &mut s);

        let eps = 1e-2f32;
        let n_check = x.len().min(40);
        let stride = (x.len() / n_check).max(1);
        for idx in (0..x.len()).step_by(stride) {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let yp = layer.forward(xp, &mut s);
            let lp: f64 = yp
                .as_slice()
                .iter()
                .zip(&w)
                .map(|(&a, &b)| (a * b) as f64)
                .sum();
            let ym = layer.forward(xm, &mut s);
            let lm: f64 = ym
                .as_slice()
                .iter()
                .zip(&w)
                .map(|(&a, &b)| (a * b) as f64)
                .sum();
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let an = gin.as_slice()[idx];
            assert!(
                (fd - an).abs() <= tol * (1.0 + fd.abs().max(an.abs())),
                "input grad mismatch at {idx}: fd={fd} analytic={an}"
            );
        }
    }

    /// Check `d loss / d params` against central finite differences.
    pub fn check_param_gradient(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
        let mut s = Scratch::new();
        let y = layer.forward(x.clone(), &mut s);
        let w: Vec<f32> = (0..y.len())
            .map(|i| ((i * 2246822519) % 89) as f32 / 89.0 - 0.5)
            .collect();
        let grad_out = Tensor::from_vec(w.clone(), y.shape()).unwrap();
        layer.zero_grads();
        let _ = layer.backward(grad_out, &mut s);
        let analytic: Vec<Vec<f32>> = layer.grads().iter().map(|g| g.to_vec()).collect();

        let eps = 1e-2f32;
        for (pi, g) in analytic.iter().enumerate() {
            let n_check = g.len().min(25);
            let stride = (g.len() / n_check).max(1);
            for idx in (0..g.len()).step_by(stride) {
                let orig = layer.params()[pi][idx];
                layer.params_mut()[pi][idx] = orig + eps;
                let yp = layer.forward(x.clone(), &mut s);
                let lp: f64 = yp
                    .as_slice()
                    .iter()
                    .zip(&w)
                    .map(|(&a, &b)| (a * b) as f64)
                    .sum();
                layer.params_mut()[pi][idx] = orig - eps;
                let ym = layer.forward(x.clone(), &mut s);
                let lm: f64 = ym
                    .as_slice()
                    .iter()
                    .zip(&w)
                    .map(|(&a, &b)| (a * b) as f64)
                    .sum();
                layer.params_mut()[pi][idx] = orig;
                let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
                let an = g[idx];
                assert!(
                    (fd - an).abs() <= tol * (1.0 + fd.abs().max(an.abs())),
                    "param {pi} grad mismatch at {idx}: fd={fd} analytic={an}"
                );
            }
        }
    }
}
