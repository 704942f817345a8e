//! Inverted dropout.

use super::Layer;
use crate::rng::Prng;
use crate::rng_tags;
use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`, so inference
/// (where the layer is the identity) needs no rescaling.
///
/// Not used by the paper's three models (which predate heavy regularization
/// stacks at this scale) — provided as a building block for custom
/// architectures via the same `Layer` trait.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    training: bool,
    rng: Prng,
    mask: Vec<f32>,
}

impl Dropout {
    /// Create a dropout layer with drop probability `p` and its own
    /// deterministic mask stream.
    ///
    /// # Panics
    /// Panics unless `p` is in `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        Dropout {
            p,
            training: true,
            rng: Prng::derive(seed, rng_tags::DROPOUT, &[]),
            mask: Vec::new(),
        }
    }

    /// Drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "dropout"
    }

    fn forward(&mut self, mut input: Tensor, _scratch: &mut Scratch) -> Tensor {
        if !self.training || self.p == 0.0 {
            self.mask.clear();
            return input;
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        self.mask.clear();
        self.mask.reserve(input.len());
        for v in input.as_mut_slice() {
            if self.rng.uniform() < self.p {
                self.mask.push(0.0);
                *v = 0.0;
            } else {
                self.mask.push(scale);
                *v *= scale;
            }
        }
        input
    }

    fn backward(&mut self, mut grad_out: Tensor, _scratch: &mut Scratch) -> Tensor {
        if self.mask.is_empty() {
            // eval mode (or p == 0): identity
            return grad_out;
        }
        assert_eq!(
            grad_out.len(),
            self.mask.len(),
            "Dropout::backward shape drift"
        );
        for (gv, &m) in grad_out.as_mut_slice().iter_mut().zip(&self.mask) {
            *gv *= m;
        }
        grad_out
    }

    fn flops_forward(&self) -> u64 {
        1
    }

    fn flops_backward(&self) -> u64 {
        1
    }

    fn is_elementwise(&self) -> bool {
        true
    }

    fn set_training(&mut self, on: bool) {
        self.training = on;
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        d.set_training(false);
        let mut s = Scratch::new();
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
        let y = d.forward(x.clone(), &mut s);
        assert_eq!(y.as_slice(), x.as_slice());
        let g = d.backward(y, &mut s);
        assert_eq!(g.as_slice(), x.as_slice());
    }

    #[test]
    fn train_mode_zeroes_roughly_p_fraction() {
        let mut d = Dropout::new(0.3, 2);
        let x = Tensor::full(&[10_000], 1.0);
        let y = d.forward(x, &mut Scratch::new());
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "drop fraction {frac}");
    }

    #[test]
    fn survivors_are_rescaled_to_preserve_expectation() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::full(&[20_000], 1.0);
        let y = d.forward(x, &mut Scratch::new());
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        // survivors carry exactly 1/(1-p)
        assert!(y
            .as_slice()
            .iter()
            .all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn backward_routes_through_same_mask() {
        let mut d = Dropout::new(0.5, 4);
        let mut s = Scratch::new();
        let x = Tensor::full(&[100], 1.0);
        let y = d.forward(x, &mut s);
        let g = d.backward(Tensor::full(&[100], 1.0), &mut s);
        for (yv, gv) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(yv, gv, "gradient mask must equal forward mask");
        }
    }

    #[test]
    fn zero_p_is_identity_even_in_training() {
        let mut d = Dropout::new(0.0, 5);
        let x = Tensor::from_vec(vec![5.0, 6.0], &[2]).unwrap();
        assert_eq!(
            d.forward(x.clone(), &mut Scratch::new()).as_slice(),
            x.as_slice()
        );
    }

    #[test]
    #[should_panic(expected = "dropout p")]
    fn rejects_p_of_one() {
        let _ = Dropout::new(1.0, 0);
    }
}
