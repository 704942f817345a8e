//! # fedtrip-models
//!
//! The model zoo of the FedTrip paper (§V-A "Models", Table III):
//!
//! * [`mlp`] — 2 fully-connected layers (100, then `classes` neurons), ReLU
//!   after the first. Used on MNIST and FMNIST.
//! * [`cnn`] — a LeNet-5 variant: three 5x5 convolutions followed by
//!   fully-connected layers of 84 and `classes` neurons. Used on MNIST,
//!   FMNIST and EMNIST. Matches the paper's 0.24 MB communication size.
//! * [`alexnet_small`] — an AlexNet-style network for 32x32 RGB inputs
//!   (CIFAR-10), in the paper's ~2.7 M-parameter / ~10 MB class.
//! * [`tiny_mlp`] / [`tiny_cnn`] — reduced models for smoke tests and CI.
//!
//! Every model marks a **feature layer** (the activation after the
//! penultimate fully-connected layer), which MOON's model-contrastive loss
//! taps. Model statistics for reproducing Table III come from
//! [`ModelStats`].
//!
//! Note on Table III: the paper lists MLP at "0.8 M" and CNN at "0.62 M"
//! parameters, which is inconsistent with its own communication sizes
//! (0.3 MB and 0.24 MB at 4 bytes/parameter imply 0.08 M and 0.062 M). We
//! follow the communication sizes — which also match the actual LeNet-5 /
//! 2-layer-MLP architectures described in the text — and flag the factor-10
//! typo in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type
)]

use fedtrip_data::synth::DatasetKind;
use fedtrip_tensor::conv::ConvGeom;
use fedtrip_tensor::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
use fedtrip_tensor::rng::Prng;
use fedtrip_tensor::rng_tags;
use fedtrip_tensor::Sequential;
use serde::{Deserialize, Serialize};

/// The models evaluated in the paper, plus reduced variants for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// 2-layer MLP (784-100-classes).
    Mlp,
    /// LeNet-5 style CNN (3 conv 5x5 + FC-84 + FC-classes).
    Cnn,
    /// AlexNet-style CNN for 32x32 RGB inputs.
    AlexNet,
    /// Compact CIFAR CNN used as the default-scale stand-in for AlexNet
    /// (same input shape, ~30x cheaper per sample on a single core).
    CifarCnn,
    /// Reduced MLP for smoke tests (runs in milliseconds).
    TinyMlp,
    /// Reduced CNN for smoke tests.
    TinyCnn,
}

impl ModelKind {
    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Mlp => "MLP",
            ModelKind::Cnn => "CNN",
            ModelKind::AlexNet => "AlexNet",
            ModelKind::CifarCnn => "CifarCNN",
            ModelKind::TinyMlp => "TinyMLP",
            ModelKind::TinyCnn => "TinyCNN",
        }
    }

    /// Build this model for a given input shape `[C, H, W]` and class count.
    ///
    /// # Panics
    /// Panics when the input shape is incompatible (e.g. AlexNet on
    /// grayscale 28x28 input).
    pub fn build(&self, input_shape: &[usize; 3], classes: usize, seed: u64) -> Sequential {
        let mut rng = Prng::derive(seed, rng_tags::MODEL_INIT, &[]);
        match self {
            ModelKind::Mlp => mlp(input_shape, classes, &mut rng),
            ModelKind::Cnn => cnn(input_shape, classes, &mut rng),
            ModelKind::AlexNet => alexnet_small(input_shape, classes, &mut rng),
            ModelKind::CifarCnn => cifar_cnn(input_shape, classes, &mut rng),
            ModelKind::TinyMlp => tiny_mlp(input_shape, classes, &mut rng),
            ModelKind::TinyCnn => tiny_cnn(input_shape, classes, &mut rng),
        }
    }

    /// The model the paper pairs with each dataset by default
    /// (Table IV columns).
    pub fn default_for(dataset: DatasetKind) -> ModelKind {
        match dataset {
            DatasetKind::MnistLike | DatasetKind::FmnistLike | DatasetKind::EmnistLike => {
                ModelKind::Cnn
            }
            DatasetKind::Cifar10Like => ModelKind::AlexNet,
        }
    }
}

/// Statistics of a built model, for Table III.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelStats {
    /// Trainable parameter count.
    pub params: usize,
    /// Bytes transferred when the model is communicated (f32 parameters).
    pub comm_bytes: usize,
    /// Analytic forward FLOPs for one sample.
    pub flops_forward: u64,
    /// Analytic backward FLOPs for one sample.
    pub flops_backward: u64,
}

impl ModelStats {
    /// Compute statistics for a built network.
    pub fn of(net: &Sequential) -> ModelStats {
        ModelStats {
            params: net.num_params(),
            comm_bytes: net.num_params() * std::mem::size_of::<f32>(),
            flops_forward: net.flops_forward(),
            flops_backward: net.flops_backward(),
        }
    }

    /// Communication size in megabytes (paper Table III units).
    pub fn comm_mb(&self) -> f64 {
        self.comm_bytes as f64 / 1.0e6
    }

    /// Forward cost in MFLOPs (paper Table III units).
    pub fn mflops_forward(&self) -> f64 {
        self.flops_forward as f64 / 1.0e6
    }
}

/// 2-layer MLP: `flatten -> 100 -> ReLU (features) -> classes`.
pub fn mlp(input_shape: &[usize; 3], classes: usize, rng: &mut Prng) -> Sequential {
    let in_dim: usize = input_shape.iter().product();
    Sequential::new(input_shape)
        .with(Flatten::new())
        .with(Dense::new(in_dim, 100, rng))
        .with(Relu::new())
        .mark_features()
        .with(Dense::new(100, classes, rng))
}

/// LeNet-5 variant used by the paper on MNIST / FMNIST / EMNIST:
/// three 5x5 convolutions, two max-pools, FC-84 (features), FC-classes.
///
/// # Panics
/// Panics unless the input is `[1, 28, 28]`.
pub fn cnn(input_shape: &[usize; 3], classes: usize, rng: &mut Prng) -> Sequential {
    assert_eq!(
        input_shape,
        &[1, 28, 28],
        "the paper's CNN expects 28x28 grayscale input"
    );
    // conv1: 1->6, 5x5, pad 2 => 28x28; pool => 14x14
    let g1 = ConvGeom {
        in_c: 1,
        in_h: 28,
        in_w: 28,
        out_c: 6,
        k_h: 5,
        k_w: 5,
        stride: 1,
        pad: 2,
    };
    // conv2: 6->16, 5x5, valid => 10x10; pool => 5x5
    let g2 = ConvGeom {
        in_c: 6,
        in_h: 14,
        in_w: 14,
        out_c: 16,
        k_h: 5,
        k_w: 5,
        stride: 1,
        pad: 0,
    };
    // conv3: 16->120, 5x5, valid => 1x1
    let g3 = ConvGeom {
        in_c: 16,
        in_h: 5,
        in_w: 5,
        out_c: 120,
        k_h: 5,
        k_w: 5,
        stride: 1,
        pad: 0,
    };
    Sequential::new(input_shape)
        .with(Conv2d::new(g1, rng))
        .with(Relu::new())
        .with(MaxPool2d::new(6, 28, 28, 2))
        .with(Conv2d::new(g2, rng))
        .with(Relu::new())
        .with(MaxPool2d::new(16, 10, 10, 2))
        .with(Conv2d::new(g3, rng))
        .with(Relu::new())
        .with(Flatten::new())
        .with(Dense::new(120, 84, rng))
        .with(Relu::new())
        .mark_features()
        .with(Dense::new(84, classes, rng))
}

/// AlexNet-style CNN for CIFAR-scale 32x32 RGB inputs (~2.5 M parameters,
/// the paper's 10 MB / 2.7 M-parameter class).
///
/// # Panics
/// Panics unless the input is `[3, 32, 32]`.
pub fn alexnet_small(input_shape: &[usize; 3], classes: usize, rng: &mut Prng) -> Sequential {
    assert_eq!(
        input_shape,
        &[3, 32, 32],
        "AlexNet-small expects 32x32 RGB input"
    );
    let g1 = ConvGeom {
        in_c: 3,
        in_h: 32,
        in_w: 32,
        out_c: 64,
        k_h: 5,
        k_w: 5,
        stride: 1,
        pad: 2,
    };
    let g2 = ConvGeom {
        in_c: 64,
        in_h: 16,
        in_w: 16,
        out_c: 192,
        k_h: 5,
        k_w: 5,
        stride: 1,
        pad: 2,
    };
    let g3 = ConvGeom {
        in_c: 192,
        in_h: 8,
        in_w: 8,
        out_c: 256,
        k_h: 3,
        k_w: 3,
        stride: 1,
        pad: 1,
    };
    let g4 = ConvGeom {
        in_c: 256,
        in_h: 8,
        in_w: 8,
        out_c: 192,
        k_h: 3,
        k_w: 3,
        stride: 1,
        pad: 1,
    };
    Sequential::new(input_shape)
        .with(Conv2d::new(g1, rng))
        .with(Relu::new())
        .with(MaxPool2d::new(64, 32, 32, 2))
        .with(Conv2d::new(g2, rng))
        .with(Relu::new())
        .with(MaxPool2d::new(192, 16, 16, 2))
        .with(Conv2d::new(g3, rng))
        .with(Relu::new())
        .with(Conv2d::new(g4, rng))
        .with(Relu::new())
        .with(MaxPool2d::new(192, 8, 8, 2))
        .with(Flatten::new())
        .with(Dense::new(192 * 4 * 4, 384, rng))
        .with(Relu::new())
        .with(Dense::new(384, 192, rng))
        .with(Relu::new())
        .mark_features()
        .with(Dense::new(192, classes, rng))
}

/// Compact CIFAR CNN: two 5x5 convolutions + FC head. The default-scale
/// stand-in for AlexNet on single-core machines (same input, same API).
///
/// # Panics
/// Panics unless the input is `[3, 32, 32]`.
pub fn cifar_cnn(input_shape: &[usize; 3], classes: usize, rng: &mut Prng) -> Sequential {
    assert_eq!(
        input_shape,
        &[3, 32, 32],
        "cifar_cnn expects 32x32 RGB input"
    );
    let g1 = ConvGeom {
        in_c: 3,
        in_h: 32,
        in_w: 32,
        out_c: 12,
        k_h: 5,
        k_w: 5,
        stride: 1,
        pad: 2,
    };
    let g2 = ConvGeom {
        in_c: 12,
        in_h: 16,
        in_w: 16,
        out_c: 24,
        k_h: 5,
        k_w: 5,
        stride: 1,
        pad: 2,
    };
    Sequential::new(input_shape)
        .with(Conv2d::new(g1, rng))
        .with(Relu::new())
        .with(MaxPool2d::new(12, 32, 32, 2))
        .with(Conv2d::new(g2, rng))
        .with(Relu::new())
        .with(MaxPool2d::new(24, 16, 16, 2))
        .with(Flatten::new())
        .with(Dense::new(24 * 8 * 8, 96, rng))
        .with(Relu::new())
        .mark_features()
        .with(Dense::new(96, classes, rng))
}

/// Reduced MLP for smoke tests: `flatten -> 32 -> ReLU -> classes`.
pub fn tiny_mlp(input_shape: &[usize; 3], classes: usize, rng: &mut Prng) -> Sequential {
    let in_dim: usize = input_shape.iter().product();
    Sequential::new(input_shape)
        .with(Flatten::new())
        .with(Dense::new(in_dim, 32, rng))
        .with(Relu::new())
        .mark_features()
        .with(Dense::new(32, classes, rng))
}

/// Reduced CNN for smoke tests: one 3x3 conv + pool + FC head.
///
/// Works for any even-sized input.
pub fn tiny_cnn(input_shape: &[usize; 3], classes: usize, rng: &mut Prng) -> Sequential {
    let [c, h, w] = *input_shape;
    assert!(h % 2 == 0 && w % 2 == 0, "tiny_cnn needs even input dims");
    let g = ConvGeom {
        in_c: c,
        in_h: h,
        in_w: w,
        out_c: 4,
        k_h: 3,
        k_w: 3,
        stride: 1,
        pad: 1,
    };
    Sequential::new(input_shape)
        .with(Conv2d::new(g, rng))
        .with(Relu::new())
        .with(MaxPool2d::new(4, h, w, 2))
        .with(Flatten::new())
        .with(Dense::new(4 * (h / 2) * (w / 2), 16, rng))
        .with(Relu::new())
        .mark_features()
        .with(Dense::new(16, classes, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedtrip_tensor::Tensor;

    #[test]
    fn mlp_matches_paper_comm_size() {
        let net = ModelKind::Mlp.build(&[1, 28, 28], 10, 0);
        let s = ModelStats::of(&net);
        // paper Table III: 0.3 MB, 0.08 MFLOPs (MAC counting)
        assert_eq!(s.params, 784 * 100 + 100 + 100 * 10 + 10);
        // 4 bytes per f32 parameter; 79510 params ~= 0.318 MB
        let expected_mb = s.params as f64 * 4.0 / 1.0e6;
        assert!(
            (s.comm_mb() - expected_mb).abs() < 0.01,
            "comm {}",
            s.comm_mb()
        );
        assert!(s.mflops_forward() > 0.1 && s.mflops_forward() < 0.2);
    }

    #[test]
    fn cnn_matches_paper_comm_size() {
        let net = ModelKind::Cnn.build(&[1, 28, 28], 10, 0);
        let s = ModelStats::of(&net);
        // paper Table III: 0.24 MB communication => ~62 k params
        assert_eq!(s.params, 61_706);
        assert!((s.comm_mb() - 0.2468).abs() < 0.005, "comm {}", s.comm_mb());
    }

    #[test]
    fn cnn_emnist_head_has_47_outputs() {
        let mut net = ModelKind::Cnn.build(&[1, 28, 28], 47, 0);
        assert_eq!(net.output_shape(), vec![47]);
        let x = Tensor::zeros(&[2, 1, 28, 28]);
        assert_eq!(net.forward(&x).shape(), &[2, 47]);
    }

    #[test]
    fn alexnet_in_paper_size_class() {
        let net = ModelKind::AlexNet.build(&[3, 32, 32], 10, 0);
        let s = ModelStats::of(&net);
        // paper: 2.72 M params, 10.42 MB
        assert!(
            (1.8e6..3.5e6).contains(&(s.params as f64)),
            "params {}",
            s.params
        );
        assert!(
            s.comm_mb() > 7.0 && s.comm_mb() < 14.0,
            "comm {}",
            s.comm_mb()
        );
    }

    #[test]
    fn all_models_forward_correct_shapes() {
        for (kind, shape, classes) in [
            (ModelKind::Mlp, [1usize, 28, 28], 10usize),
            (ModelKind::Cnn, [1, 28, 28], 10),
            (ModelKind::TinyMlp, [1, 8, 8], 5),
            (ModelKind::TinyCnn, [1, 8, 8], 5),
        ] {
            let mut net = kind.build(&shape, classes, 1);
            let x = Tensor::zeros(&[3, shape[0], shape[1], shape[2]]);
            let y = net.forward(&x);
            assert_eq!(y.shape(), &[3, classes], "{}", kind.name());
        }
    }

    #[test]
    fn alexnet_forward_shape() {
        let mut net = ModelKind::AlexNet.build(&[3, 32, 32], 10, 1);
        let x = Tensor::zeros(&[2, 3, 32, 32]);
        assert_eq!(net.forward(&x).shape(), &[2, 10]);
    }

    #[test]
    fn cifar_cnn_is_a_cheap_alexnet_stand_in() {
        let mut net = ModelKind::CifarCnn.build(&[3, 32, 32], 10, 1);
        let x = Tensor::zeros(&[2, 3, 32, 32]);
        assert_eq!(net.forward(&x).shape(), &[2, 10]);
        assert!(net.feature_layer().is_some());
        let c = ModelStats::of(&net);
        let a = ModelStats::of(&ModelKind::AlexNet.build(&[3, 32, 32], 10, 1));
        assert!(
            c.flops_forward * 10 < a.flops_forward,
            "stand-in not cheap enough: {} vs {}",
            c.flops_forward,
            a.flops_forward
        );
    }

    #[test]
    fn every_model_marks_a_feature_layer() {
        for (kind, shape) in [
            (ModelKind::Mlp, [1usize, 28, 28]),
            (ModelKind::Cnn, [1, 28, 28]),
            (ModelKind::TinyMlp, [1, 8, 8]),
            (ModelKind::TinyCnn, [1, 8, 8]),
        ] {
            let net = kind.build(&shape, 10, 2);
            assert!(net.feature_layer().is_some(), "{}", kind.name());
        }
        let net = ModelKind::AlexNet.build(&[3, 32, 32], 10, 2);
        assert!(net.feature_layer().is_some());
    }

    #[test]
    fn feature_tap_dims() {
        let mut net = ModelKind::Cnn.build(&[1, 28, 28], 10, 3);
        let x = Tensor::zeros(&[2, 1, 28, 28]);
        let (_, f) = net.forward_with_features(&x);
        assert_eq!(f.shape(), &[2, 84]); // FC-84 activations
        let mut net = ModelKind::Mlp.build(&[1, 28, 28], 10, 3);
        let (_, f) = net.forward_with_features(&x);
        assert_eq!(f.shape(), &[2, 100]);
    }

    #[test]
    fn same_seed_same_init_different_seed_differs() {
        let a = ModelKind::Cnn.build(&[1, 28, 28], 10, 7);
        let b = ModelKind::Cnn.build(&[1, 28, 28], 10, 7);
        let c = ModelKind::Cnn.build(&[1, 28, 28], 10, 8);
        assert_eq!(a.params_flat(), b.params_flat());
        assert_ne!(a.params_flat(), c.params_flat());
    }

    #[test]
    fn default_model_mapping_matches_paper() {
        assert_eq!(
            ModelKind::default_for(DatasetKind::MnistLike),
            ModelKind::Cnn
        );
        assert_eq!(
            ModelKind::default_for(DatasetKind::Cifar10Like),
            ModelKind::AlexNet
        );
    }

    #[test]
    fn tiny_models_are_small_and_fast() {
        let net = ModelKind::TinyCnn.build(&[1, 8, 8], 5, 0);
        assert!(net.num_params() < 2_000, "{}", net.num_params());
    }

    #[test]
    fn flop_ordering_mlp_lt_cnn_lt_alexnet() {
        // paper Table III ordering: 0.08 < 0.42 << 145.93 MFLOPs
        let m = ModelStats::of(&ModelKind::Mlp.build(&[1, 28, 28], 10, 0));
        let c = ModelStats::of(&ModelKind::Cnn.build(&[1, 28, 28], 10, 0));
        let a = ModelStats::of(&ModelKind::AlexNet.build(&[3, 32, 32], 10, 0));
        assert!(m.flops_forward < c.flops_forward);
        assert!(c.flops_forward < a.flops_forward / 50);
    }
}
