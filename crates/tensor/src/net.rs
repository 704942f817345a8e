//! Feed-forward network container.
//!
//! [`Sequential`] chains layers, exposes the flat-parameter view that every
//! federated algorithm operates on, and supports the *feature tap* required
//! by representation-based methods (MOON needs the penultimate activation of
//! three different models plus a gradient injection point at that tap).

use crate::layers::{Layer, SoftmaxCrossEntropy};
use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// Visitor over `(flat offset, params, grads)` parameter blocks — see
/// [`Sequential::for_each_param_grad`].
pub type ParamGradVisitor<'a> = dyn FnMut(usize, &mut [f32], &[f32]) + 'a;

/// A feed-forward network: an ordered stack of layers plus a softmax
/// cross-entropy head.
///
/// The network owns a [`Scratch`] arena that all layer passes draw their
/// working buffers from; after the first batch, forward/backward/train-step
/// sweeps run without heap allocation.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    input_shape: Vec<usize>,
    loss: SoftmaxCrossEntropy,
    /// Index of the layer whose *output* is the feature representation.
    feature_layer: Option<usize>,
    /// Cached per-layer input element counts (per sample), for FLOPs.
    layer_input_elems: Vec<usize>,
    /// Reusable buffer arena for the hot loop.
    scratch: Scratch,
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        // the clone gets a fresh, empty arena: scratch buffers are cheap to
        // re-grow and must never be shared across rayon workers
        Sequential {
            layers: self.layers.clone(),
            input_shape: self.input_shape.clone(),
            loss: self.loss.clone(),
            feature_layer: self.feature_layer,
            layer_input_elems: self.layer_input_elems.clone(),
            scratch: Scratch::new(),
        }
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Sequential({} layers, {} params, input {:?})",
            self.layers.len(),
            self.num_params(),
            self.input_shape
        )
    }
}

impl Sequential {
    /// Create an empty network for inputs of the given per-sample shape
    /// (e.g. `[1, 28, 28]` for grayscale images, `[784]` for flat vectors).
    pub fn new(input_shape: &[usize]) -> Self {
        assert!(!input_shape.is_empty(), "input shape cannot be empty");
        Sequential {
            layers: Vec::new(),
            input_shape: input_shape.to_vec(),
            loss: SoftmaxCrossEntropy::new(),
            feature_layer: None,
            layer_input_elems: Vec::new(),
            scratch: Scratch::new(),
        }
    }

    /// Append a layer (builder style).
    pub fn with(mut self, layer: impl Layer + 'static) -> Self {
        self.push(Box::new(layer));
        self
    }

    /// Append a boxed layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        let in_shape = self.current_output_shape();
        self.layer_input_elems.push(in_shape.iter().product());
        self.layers.push(layer);
    }

    /// Mark the most recently added layer's output as the network's feature
    /// representation (builder style).
    ///
    /// # Panics
    /// Panics when called on an empty network.
    pub fn mark_features(mut self) -> Self {
        assert!(!self.layers.is_empty(), "no layer to mark as features");
        self.feature_layer = Some(self.layers.len() - 1);
        self
    }

    /// Index of the feature layer, if one was marked.
    pub fn feature_layer(&self) -> Option<usize> {
        self.feature_layer
    }

    /// Per-sample shape of the network input.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Per-sample shape of the network output.
    pub fn output_shape(&self) -> Vec<usize> {
        self.current_output_shape()
    }

    fn current_output_shape(&self) -> Vec<usize> {
        let mut shape = self.input_shape.clone();
        for l in &self.layers {
            shape = l.output_shape(&shape);
        }
        shape
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    /// Run a forward pass, returning logits `[batch, classes]`.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let Sequential {
            layers, scratch, ..
        } = self;
        let mut a = scratch.take_copy(x);
        for l in layers.iter_mut() {
            a = l.forward(a, scratch);
        }
        a
    }

    /// Forward pass that also captures the feature-tap activation.
    ///
    /// # Panics
    /// Panics if no feature layer was marked.
    pub fn forward_with_features(&mut self, x: &Tensor) -> (Tensor, Tensor) {
        #[expect(
            clippy::expect_used,
            reason = "documented precondition: a feature layer is marked"
        )]
        let fi = self
            .feature_layer
            .expect("forward_with_features: no feature layer marked");
        let Sequential {
            layers, scratch, ..
        } = self;
        let mut a = scratch.take_copy(x);
        let mut features = None;
        for (i, l) in layers.iter_mut().enumerate() {
            a = l.forward(a, scratch);
            if i == fi {
                features = Some(a.clone());
            }
        }
        #[expect(clippy::expect_used, reason = "mark_feature_layer checked the index")]
        (a, features.expect("feature layer index in range"))
    }

    /// Backward pass from a logits gradient; accumulates parameter grads and
    /// returns the input gradient.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        let Sequential {
            layers, scratch, ..
        } = self;
        let mut g = scratch.take_copy(grad_logits);
        for l in layers.iter_mut().rev() {
            g = l.backward(g, scratch);
        }
        g
    }

    /// Backward pass that adds `feature_grad` to the gradient flowing through
    /// the feature tap (used by MOON's contrastive term).
    ///
    /// # Panics
    /// Panics if no feature layer was marked or shapes mismatch.
    pub fn backward_with_feature_grad(
        &mut self,
        grad_logits: &Tensor,
        feature_grad: &Tensor,
    ) -> Tensor {
        #[expect(
            clippy::expect_used,
            reason = "documented precondition: a feature layer is marked"
        )]
        let fi = self
            .feature_layer
            .expect("backward_with_feature_grad: no feature layer marked");
        let Sequential {
            layers, scratch, ..
        } = self;
        let mut g = scratch.take_copy(grad_logits);
        for (i, l) in layers.iter_mut().enumerate().rev() {
            if i == fi {
                #[expect(clippy::expect_used, reason = "shapes agree with the matching forward")]
                g.add_assign(feature_grad)
                    .expect("feature gradient shape mismatch");
            }
            g = l.backward(g, scratch);
        }
        g
    }

    /// Mean cross-entropy loss + full backward pass for a labelled batch.
    /// Returns the loss. Gradients are *accumulated*; call
    /// [`Sequential::zero_grads`] between steps.
    ///
    /// Every intermediate tensor — input copy, activations, logits, logits
    /// gradient, input gradient — is recycled through the network's scratch
    /// arena, so steady-state calls are allocation-free.
    pub fn train_step(&mut self, x: &Tensor, targets: &[usize]) -> f64 {
        let Sequential {
            layers,
            scratch,
            loss,
            ..
        } = self;
        let mut a = scratch.take_copy(x);
        for l in layers.iter_mut() {
            a = l.forward(a, scratch);
        }
        let (loss_val, grad) = loss.forward_backward_scratch(&a, targets, scratch);
        scratch.give_tensor(a);
        let mut g = grad;
        for l in layers.iter_mut().rev() {
            g = l.backward(g, scratch);
        }
        scratch.give_tensor(g);
        loss_val
    }

    /// Loss head access.
    pub fn loss_head(&self) -> &SoftmaxCrossEntropy {
        &self.loss
    }

    /// Zero all parameter gradients.
    pub fn zero_grads(&mut self) {
        for l in &mut self.layers {
            l.zero_grads();
        }
    }

    /// Switch every layer between training and inference mode (dropout
    /// masks on/off).
    pub fn set_training(&mut self, on: bool) {
        for l in &mut self.layers {
            l.set_training(on);
        }
    }

    /// Copy all parameters into a single flat vector (stable layer order).
    pub fn params_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for l in &self.layers {
            for p in l.params() {
                out.extend_from_slice(p);
            }
        }
        out
    }

    /// Overwrite all parameters from a flat vector.
    ///
    /// # Panics
    /// Panics when `flat.len() != num_params()`.
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.num_params(),
            "flat parameter size mismatch"
        );
        let mut off = 0;
        for l in &mut self.layers {
            for p in l.params_mut() {
                p.copy_from_slice(&flat[off..off + p.len()]);
                off += p.len();
            }
        }
    }

    /// Copy all gradients into a single flat vector.
    pub fn grads_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for l in &self.layers {
            for g in l.grads() {
                out.extend_from_slice(g);
            }
        }
        out
    }

    /// Overwrite all gradient buffers from a flat vector (used by algorithms
    /// that post-process gradients in flat space before stepping).
    ///
    /// # Panics
    /// Panics when `flat.len() != num_params()`.
    pub fn set_grads_flat(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_params(), "flat gradient size mismatch");
        let mut off = 0;
        for l in &mut self.layers {
            for g in l.grads_mut() {
                g.copy_from_slice(&flat[off..off + g.len()]);
                off += g.len();
            }
        }
    }

    /// Paired (params, grads) mutable views for optimizers, flattened across
    /// layers in stable order.
    pub fn params_and_grads(&mut self) -> Vec<(&mut [f32], &[f32])> {
        let mut out = Vec::new();
        for l in &mut self.layers {
            out.extend(l.params_and_grads());
        }
        out
    }

    /// Visit each (flat offset, params, grads) block in the same stable order
    /// as [`Sequential::params_flat`], without allocating. The offset is the
    /// block's position in the flat-parameter view, so callers can index
    /// companion flat vectors (global weights, control variates, momentum).
    pub fn for_each_param_grad(&mut self, f: &mut ParamGradVisitor<'_>) {
        let mut off = 0usize;
        for l in &mut self.layers {
            l.for_each_param_grad(&mut |p, g| {
                let len = p.len();
                f(off, p, g);
                off += len;
            });
        }
    }

    /// Analytic forward FLOPs per sample.
    pub fn flops_forward(&self) -> u64 {
        let mut total = 0u64;
        for (l, &elems) in self.layers.iter().zip(&self.layer_input_elems) {
            total += if l.is_elementwise() {
                l.flops_forward() * elems as u64
            } else {
                l.flops_forward()
            };
        }
        let classes: usize = self.output_shape().iter().product();
        total + self.loss.flops(classes)
    }

    /// Analytic backward FLOPs per sample.
    pub fn flops_backward(&self) -> u64 {
        let mut total = 0u64;
        for (l, &elems) in self.layers.iter().zip(&self.layer_input_elems) {
            total += if l.is_elementwise() {
                l.flops_backward() * elems as u64
            } else {
                l.flops_backward()
            };
        }
        total
    }

    /// Largest per-sample forward working set, in `f32` elements: the input,
    /// or any layer's [`Layer::forward_footprint`] (a convolution's im2col
    /// matrix plus its output), whichever is biggest.
    pub fn forward_footprint(&self) -> usize {
        let mut shape = self.input_shape.clone();
        let mut most: usize = shape.iter().product();
        for l in &self.layers {
            most = most.max(l.forward_footprint(&shape));
            shape = l.output_shape(&shape);
        }
        most
    }

    /// Predicted class indices for a batch.
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        self.forward(x).argmax_rows()
    }

    /// Classification accuracy on a labelled batch.
    pub fn accuracy(&mut self, x: &Tensor, targets: &[usize]) -> f64 {
        let pred = self.predict(x);
        assert_eq!(pred.len(), targets.len());
        if targets.is_empty() {
            return 0.0;
        }
        let correct = pred.iter().zip(targets).filter(|(p, t)| p == t).count();
        correct as f64 / targets.len() as f64
    }

    /// One-line per-layer summary (name, output shape, params).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let mut shape = self.input_shape.clone();
        s.push_str(&format!("input: {shape:?}\n"));
        for l in &self.layers {
            shape = l.output_shape(&shape);
            s.push_str(&format!(
                "{:<10} -> {:?} ({} params)\n",
                l.name(),
                shape,
                l.num_params()
            ));
        }
        s.push_str(&format!("total params: {}", self.num_params()));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::rng::Prng;

    fn tiny_net(rng: &mut Prng) -> Sequential {
        Sequential::new(&[4])
            .with(Dense::new(4, 8, rng))
            .with(Relu::new())
            .mark_features()
            .with(Dense::new(8, 3, rng))
    }

    #[test]
    fn shapes_and_param_counts() {
        let mut rng = Prng::seed_from_u64(1);
        let net = tiny_net(&mut rng);
        assert_eq!(net.num_layers(), 3);
        assert_eq!(net.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(net.output_shape(), vec![3]);
        assert_eq!(net.feature_layer(), Some(1));
    }

    #[test]
    fn forward_footprint_is_the_largest_layer_output() {
        use crate::layers::{Flatten, MaxPool2d};
        let mut rng = Prng::seed_from_u64(3);
        // dense / ReLU / pool / flatten each report their output size
        assert_eq!(Dense::new(4, 8, &mut rng).forward_footprint(&[4]), 8);
        assert_eq!(Relu::new().forward_footprint(&[5, 3]), 15);
        assert_eq!(MaxPool2d::new(2, 6, 6, 2).forward_footprint(&[2, 6, 6]), 18);
        assert_eq!(Flatten::new().forward_footprint(&[2, 3, 3]), 18);
        // the widest layer wins, and the input counts too
        assert_eq!(tiny_net(&mut rng).forward_footprint(), 8);
        let wide_in = Sequential::new(&[20]).with(Dense::new(20, 3, &mut rng));
        assert_eq!(wide_in.forward_footprint(), 20);
    }

    #[test]
    fn params_flat_round_trip() {
        let mut rng = Prng::seed_from_u64(2);
        let mut net = tiny_net(&mut rng);
        let flat = net.params_flat();
        assert_eq!(flat.len(), net.num_params());
        let mut shifted = flat.clone();
        for v in &mut shifted {
            *v += 1.0;
        }
        net.set_params_flat(&shifted);
        let back = net.params_flat();
        assert_eq!(back, shifted);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn set_params_flat_rejects_wrong_len() {
        let mut rng = Prng::seed_from_u64(3);
        let mut net = tiny_net(&mut rng);
        net.set_params_flat(&[0.0; 3]);
    }

    #[test]
    fn train_step_reduces_loss_on_fixed_batch() {
        let mut rng = Prng::seed_from_u64(4);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[16, 4], 1.0, &mut rng);
        let targets: Vec<usize> = (0..16).map(|i| i % 3).collect();
        let mut prev = f64::INFINITY;
        for _ in 0..60 {
            net.zero_grads();
            let loss = net.train_step(&x, &targets);
            // plain SGD, lr 0.5
            for (p, g) in net.params_and_grads() {
                for (pv, gv) in p.iter_mut().zip(g) {
                    *pv -= 0.5 * gv;
                }
            }
            prev = loss;
        }
        assert!(prev < 0.3, "loss did not decrease: {prev}");
    }

    #[test]
    fn grads_flat_matches_layer_grads() {
        let mut rng = Prng::seed_from_u64(5);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[4, 4], 1.0, &mut rng);
        net.zero_grads();
        net.train_step(&x, &[0, 1, 2, 0]);
        let flat = net.grads_flat();
        assert_eq!(flat.len(), net.num_params());
        assert!(flat.iter().any(|&v| v != 0.0));
        // set_grads_flat round trip
        let mut doubled = flat.clone();
        for v in &mut doubled {
            *v *= 2.0;
        }
        net.set_grads_flat(&doubled);
        assert_eq!(net.grads_flat(), doubled);
    }

    #[test]
    fn feature_tap_shape() {
        let mut rng = Prng::seed_from_u64(6);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[5, 4], 1.0, &mut rng);
        let (logits, feats) = net.forward_with_features(&x);
        assert_eq!(logits.shape(), &[5, 3]);
        assert_eq!(feats.shape(), &[5, 8]);
    }

    #[test]
    fn feature_grad_injection_changes_feature_path_grads() {
        let mut rng = Prng::seed_from_u64(7);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let logits = net.forward(&x);
        let zero_glogits = Tensor::zeros(logits.shape());
        let fgrad = Tensor::full(&[2, 8], 0.1);
        net.zero_grads();
        net.backward_with_feature_grad(&zero_glogits, &fgrad);
        let g = net.grads_flat();
        // the first dense layer (before the tap) must receive gradient
        assert!(g[..4 * 8].iter().any(|&v| v != 0.0));
        // the head receives none (logits grad is zero, injection is upstream)
        let head_off = 4 * 8 + 8;
        assert!(g[head_off..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn clone_is_independent() {
        let mut rng = Prng::seed_from_u64(8);
        let net = tiny_net(&mut rng);
        let mut c = net.clone();
        let orig = net.params_flat();
        c.set_params_flat(&vec![0.0; c.num_params()]);
        assert_eq!(net.params_flat(), orig);
    }

    #[test]
    fn flops_positive_and_consistent() {
        let mut rng = Prng::seed_from_u64(9);
        let net = tiny_net(&mut rng);
        // dense 4x8: 2*32+8, relu: 8, dense 8x3: 2*24+3, loss: 15
        assert_eq!(net.flops_forward(), (64 + 8) + 8 + (48 + 3) + 15);
        assert!(net.flops_backward() > net.flops_forward() / 2);
    }

    #[test]
    fn accuracy_on_known_labels() {
        let mut rng = Prng::seed_from_u64(10);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[10, 4], 1.0, &mut rng);
        let pred = net.predict(&x);
        let acc = net.accuracy(&x, &pred);
        assert_eq!(acc, 1.0);
    }
}
