//! Parameter-free layers: ReLU and Flatten.

use super::Layer;
use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// Rectified linear unit, `y = max(0, x)`.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    /// 1.0 where the input was positive, 0.0 elsewhere.
    mask: Vec<f32>,
}

impl Relu {
    /// Create a ReLU activation.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, mut input: Tensor, _scratch: &mut Scratch) -> Tensor {
        // branchless compare + select keeps the loop vectorizable (the
        // push-per-element form cost more than the surrounding GEMMs on
        // wide activations); `max(0.0)` maps negatives, -0.0 and NaN to
        // +0.0 exactly like the branchy original
        self.mask.resize(input.len(), 0.0);
        for (v, m) in input.as_mut_slice().iter_mut().zip(self.mask.iter_mut()) {
            *m = if *v > 0.0 { 1.0 } else { 0.0 };
            *v = v.max(0.0);
        }
        input
    }

    fn backward(&mut self, mut grad_out: Tensor, _scratch: &mut Scratch) -> Tensor {
        assert_eq!(
            grad_out.len(),
            self.mask.len(),
            "Relu::backward shape drift (forward not called?)"
        );
        for (gv, &m) in grad_out.as_mut_slice().iter_mut().zip(&self.mask) {
            *gv *= m;
        }
        grad_out
    }

    fn flops_forward(&self) -> u64 {
        1 // per element; Sequential multiplies by activation size
    }

    fn flops_backward(&self) -> u64 {
        1
    }

    fn is_elementwise(&self) -> bool {
        true
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Collapse all non-batch dimensions: `[B, C, H, W] -> [B, C*H*W]`.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_shape: Vec<usize>,
}

impl Flatten {
    /// Create a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn forward(&mut self, mut input: Tensor, _scratch: &mut Scratch) -> Tensor {
        self.cached_shape.clear();
        self.cached_shape.extend_from_slice(input.shape());
        let batch = input.shape()[0];
        let rest = input.len() / batch;
        #[expect(clippy::expect_used, reason = "element count is conserved")]
        input
            .reshape_in_place(&[batch, rest])
            .expect("flatten reshape cannot fail");
        input
    }

    fn backward(&mut self, mut grad_out: Tensor, _scratch: &mut Scratch) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "backward-after-forward is the layer contract"
        )]
        grad_out
            .reshape_in_place(&self.cached_shape)
            .expect("Flatten::backward called before forward");
        grad_out
    }

    fn flops_forward(&self) -> u64 {
        0
    }

    fn flops_backward(&self) -> u64 {
        0
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape.iter().product()]
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut r = Relu::new();
        let mut s = Scratch::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        let y = r.forward(x, &mut s);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_gradient_masks() {
        let mut r = Relu::new();
        let mut s = Scratch::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0], &[2]).unwrap();
        r.forward(x, &mut s);
        let g = Tensor::from_vec(vec![5.0, 5.0], &[2]).unwrap();
        let gi = r.backward(g, &mut s);
        assert_eq!(gi.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn relu_zero_input_has_zero_gradient() {
        // subgradient convention: relu'(0) = 0
        let mut r = Relu::new();
        let mut s = Scratch::new();
        let x = Tensor::from_vec(vec![0.0], &[1]).unwrap();
        r.forward(x, &mut s);
        let gi = r.backward(Tensor::from_vec(vec![1.0], &[1]).unwrap(), &mut s);
        assert_eq!(gi.as_slice(), &[0.0]);
    }

    #[test]
    fn flatten_round_trip() {
        let mut f = Flatten::new();
        let mut s = Scratch::new();
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]).unwrap();
        let y = f.forward(x.clone(), &mut s);
        assert_eq!(y.shape(), &[2, 12]);
        let back = f.backward(y, &mut s);
        assert_eq!(back.shape(), &[2, 3, 2, 2]);
        assert_eq!(back.as_slice(), x.as_slice());
    }

    #[test]
    fn layers_have_no_params() {
        let r = Relu::new();
        let f = Flatten::new();
        assert_eq!(r.num_params(), 0);
        assert_eq!(f.num_params(), 0);
    }
}
