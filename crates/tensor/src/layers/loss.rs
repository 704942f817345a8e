//! Softmax cross-entropy loss head.

use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// Combined softmax + cross-entropy loss with the numerically stable
/// log-sum-exp formulation and the fused gradient `(softmax - onehot) / B`.
#[derive(Debug, Clone, Default)]
pub struct SoftmaxCrossEntropy;

impl SoftmaxCrossEntropy {
    /// Create the loss head.
    pub fn new() -> Self {
        SoftmaxCrossEntropy
    }

    /// Mean cross-entropy loss over the batch and its gradient w.r.t. the
    /// logits.
    ///
    /// `logits` is `[batch, classes]`; `targets` are class indices.
    ///
    /// # Panics
    /// Panics if `targets.len()` does not match the batch size or a target
    /// index is out of range.
    pub fn forward_backward(&self, logits: &Tensor, targets: &[usize]) -> (f64, Tensor) {
        #[expect(clippy::expect_used, reason = "2-d logits are the documented contract")]
        let classes = *logits.shape().last().expect("logits must be 2-d");
        let batch = logits.len() / classes;
        let mut grad = Tensor::zeros(&[batch, classes]);
        let loss = self.fb_into(logits, targets, &mut grad);
        (loss, grad)
    }

    /// Like [`SoftmaxCrossEntropy::forward_backward`], but the gradient is
    /// written into a recycled scratch tensor (the hot-loop form used by
    /// `Sequential::train_step`).
    pub fn forward_backward_scratch(
        &self,
        logits: &Tensor,
        targets: &[usize],
        scratch: &mut Scratch,
    ) -> (f64, Tensor) {
        #[expect(clippy::expect_used, reason = "2-d logits are the documented contract")]
        let classes = *logits.shape().last().expect("logits must be 2-d");
        let batch = logits.len() / classes;
        // every gradient element is written by fb_into
        let mut grad = scratch.take_tensor(&[batch, classes]);
        let loss = self.fb_into(logits, targets, &mut grad);
        (loss, grad)
    }

    /// Core loss/gradient pass; overwrites every element of `grad`.
    fn fb_into(&self, logits: &Tensor, targets: &[usize], grad: &mut Tensor) -> f64 {
        #[expect(clippy::expect_used, reason = "2-d logits are the documented contract")]
        let classes = *logits.shape().last().expect("logits must be 2-d");
        let batch = logits.len() / classes;
        assert_eq!(batch, targets.len(), "target count != batch size");
        debug_assert_eq!(grad.len(), batch * classes);

        let mut total_loss = 0.0f64;
        let inv_b = 1.0f32 / batch as f32;

        for (bi, (&t, row)) in targets
            .iter()
            .zip(logits.as_slice().chunks_exact(classes))
            .enumerate()
        {
            assert!(t < classes, "target {t} out of range (classes={classes})");
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum_exp = 0.0f32;
            for &v in row {
                sum_exp += (v - m).exp();
            }
            let log_z = m + sum_exp.ln();
            total_loss += (log_z - row[t]) as f64;

            let g_row = &mut grad.as_mut_slice()[bi * classes..(bi + 1) * classes];
            for (j, (&v, g)) in row.iter().zip(g_row.iter_mut()).enumerate() {
                let p = (v - log_z).exp();
                *g = (p - if j == t { 1.0 } else { 0.0 }) * inv_b;
            }
        }
        total_loss / batch as f64
    }

    /// Softmax probabilities (used by evaluation / t-SNE tooling).
    pub fn probabilities(&self, logits: &Tensor) -> Tensor {
        #[expect(clippy::expect_used, reason = "2-d logits are the documented contract")]
        let classes = *logits.shape().last().expect("logits must be 2-d");
        let mut out = logits.clone();
        for row in out.as_mut_slice().chunks_exact_mut(classes) {
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - m).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        out
    }

    /// Analytic FLOPs per sample for `classes` outputs (exp + norm + grad).
    pub fn flops(&self, classes: usize) -> u64 {
        5 * classes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::zeros(&[2, 4]);
        let (l, _) = loss.forward_backward(&logits, &[0, 3]);
        assert!((l - (4.0f64).ln()).abs() < 1e-6, "loss {l}");
    }

    #[test]
    fn perfect_prediction_loss_near_zero() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![100.0, 0.0, 0.0, 0.0], &[1, 4]).unwrap();
        let (l, _) = loss.forward_backward(&logits, &[0]);
        assert!(l < 1e-6);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.1, 0.0, -0.4], &[2, 3]).unwrap();
        let targets = [2usize, 0];
        let (_, grad) = loss.forward_backward(&logits, &targets);
        let eps = 1e-3f32;
        for idx in 0..logits.len() {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= eps;
            let (fp, _) = loss.forward_backward(&lp, &targets);
            let (fm, _) = loss.forward_backward(&lm, &targets);
            let fd = ((fp - fm) / (2.0 * eps as f64)) as f32;
            let an = grad.as_slice()[idx];
            assert!((fd - an).abs() < 1e-3, "idx {idx}: fd={fd} an={an}");
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        // sum_j (p_j - onehot_j) = 0 for each sample
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![2.0, -1.0, 0.5, 0.0, 3.0, 1.0], &[2, 3]).unwrap();
        let (_, grad) = loss.forward_backward(&logits, &[1, 2]);
        for row in grad.as_slice().chunks_exact(3) {
            let s: f32 = row.iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn probabilities_normalize() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![5.0, 1.0, -2.0, 0.0], &[2, 2]).unwrap();
        let p = loss.probabilities(&logits);
        for row in p.as_slice().chunks_exact(2) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn numerically_stable_for_huge_logits() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![1e4, -1e4], &[1, 2]).unwrap();
        let (l, grad) = loss.forward_backward(&logits, &[0]);
        assert!(l.is_finite());
        assert!(grad.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn scratch_variant_matches_allocating_one() {
        let loss = SoftmaxCrossEntropy::new();
        let mut s = Scratch::new();
        let logits = Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.1, 0.0, -0.4], &[2, 3]).unwrap();
        let targets = [2usize, 0];
        let (l0, g0) = loss.forward_backward(&logits, &targets);
        // poison the pool so stale contents would show through
        let mut poison = s.take_tensor(&[2, 3]);
        poison.as_mut_slice().fill(99.0);
        s.give_tensor(poison);
        let (l1, g1) = loss.forward_backward_scratch(&logits, &targets, &mut s);
        assert_eq!(l0, l1);
        assert_eq!(g0.as_slice(), g1.as_slice());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_target() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::zeros(&[1, 3]);
        let _ = loss.forward_backward(&logits, &[3]);
    }
}
