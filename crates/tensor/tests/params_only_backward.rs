//! The params-only backward accumulates the full backward's parameter
//! gradients, bit for bit.
//!
//! `Sequential::train_step` and `Sequential::backward_params_with_feature_grad`
//! stop at the first trainable layer and compute no input gradient. The
//! oracle is the full backward: `forward` + `loss_head().forward_backward` +
//! `backward` (or `backward_with_feature_grad`), which runs every layer. Every
//! model of the zoo is checked at its dataset's input shape, over two
//! consecutive steps on one warm scratch arena.

use fedtrip_models::ModelKind;
use fedtrip_tensor::rng::Prng;
use fedtrip_tensor::{Sequential, Tensor};

const CLASSES: usize = 10;
const BATCH: usize = 2;

/// The input shape of the dataset each model is trained on; the match keeps
/// the list exhaustive.
fn input_shape(kind: ModelKind) -> [usize; 3] {
    match kind {
        ModelKind::Mlp | ModelKind::Cnn | ModelKind::TinyMlp | ModelKind::TinyCnn => [1, 28, 28],
        ModelKind::AlexNet | ModelKind::CifarCnn => [3, 32, 32],
    }
}

const KINDS: [ModelKind; 6] = [
    ModelKind::Mlp,
    ModelKind::Cnn,
    ModelKind::AlexNet,
    ModelKind::CifarCnn,
    ModelKind::TinyMlp,
    ModelKind::TinyCnn,
];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn batch(kind: ModelKind, rng: &mut Prng) -> (Tensor, Vec<usize>) {
    let [c, h, w] = input_shape(kind);
    let x = Tensor::randn(&[BATCH, c, h, w], 1.0, rng);
    let y = (0..BATCH).map(|_| rng.below(CLASSES)).collect();
    (x, y)
}

/// The same plain SGD update on both nets, so the second step starts from
/// identical parameters.
fn sgd(net: &mut Sequential) {
    net.for_each_param_grad(&mut |_, p, g| {
        for (pv, gv) in p.iter_mut().zip(g) {
            *pv -= 0.05 * gv;
        }
    });
}

#[test]
fn train_step_grads_equal_the_full_backward() {
    for kind in KINDS {
        let mut rng = Prng::seed_from_u64(2023);
        let mut net = kind.build(&input_shape(kind), CLASSES, 7);
        let mut oracle = net.clone();
        for step in 0..2 {
            let (x, y) = batch(kind, &mut rng);
            net.zero_grads();
            let loss = net.train_step(&x, &y);

            oracle.zero_grads();
            let logits = oracle.forward(&x);
            let (oracle_loss, grad) = oracle.loss_head().forward_backward(&logits, &y);
            let _ = oracle.backward(&grad);

            let name = kind.name();
            assert_eq!(loss.to_bits(), oracle_loss.to_bits(), "{name} step {step}");
            assert_eq!(
                bits(&net.grads_flat()),
                bits(&oracle.grads_flat()),
                "{name} step {step}: train_step grads differ from the full backward"
            );
            sgd(&mut net);
            sgd(&mut oracle);
        }
    }
}

#[test]
fn params_only_feature_backward_equals_the_full_one() {
    for kind in KINDS {
        let mut rng = Prng::seed_from_u64(2024);
        let mut net = kind.build(&input_shape(kind), CLASSES, 8);
        let mut oracle = net.clone();
        for step in 0..2 {
            let (x, y) = batch(kind, &mut rng);
            let mut grads = Vec::new();
            for (full, n) in [(false, &mut net), (true, &mut oracle)] {
                n.zero_grads();
                let (logits, z) = n.forward_with_features(&x);
                let (_, grad) = n.loss_head().forward_backward(&logits, &y);
                // the same feature gradient on both sides
                let fgrad = Tensor::randn(z.shape(), 0.1, &mut Prng::seed_from_u64(step));
                if full {
                    let _ = n.backward_with_feature_grad(&grad, &fgrad);
                } else {
                    n.backward_params_with_feature_grad(&grad, &fgrad);
                }
                grads.push(bits(&n.grads_flat()));
            }
            assert_eq!(
                grads[0],
                grads[1],
                "{} step {step}: params-only feature backward differs",
                kind.name()
            );
            sgd(&mut net);
            sgd(&mut oracle);
        }
    }
}
