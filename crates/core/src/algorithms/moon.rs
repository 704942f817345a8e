//! MOON (Li et al., 2021) — model-contrastive federated learning.
//!
//! MOON augments the local loss with a contrastive term over *feature
//! representations*: for each sample, the current model's features `z`
//! should align with the global model's features `z_glob` (positive pair)
//! and repel the previous local model's features `z_prev` (negative pair):
//!
//! ```text
//! l_con = -log( exp(sim(z, z_glob)/tau)
//!             / (exp(sim(z, z_glob)/tau) + exp(sim(z, z_prev)/tau)) )
//! ```
//!
//! This is the method FedTrip positions itself against: MOON extracts the
//! same global/historical information but needs **two extra forward passes
//! per sample per iteration** (`K * M * (1+p) * FP` attach FLOPs, Appendix
//! A), whereas FedTrip's parameter-space triplet costs only `4K|w|`.

use super::{model_train_flops, Algorithm, ClientData, ClientState, LocalContext, LocalOutcome};
use crate::costs::{formulas, AttachCost, CostModel};
use fedtrip_data::loader::BatchIter;
use fedtrip_tensor::{Sequential, Tensor};

/// The MOON method.
#[derive(Debug, Clone)]
pub struct Moon {
    mu: f32,
    tau: f32,
}

impl Moon {
    /// Create MOON with contrastive weight `mu` (paper: 1.0) and temperature
    /// `tau` (paper: 0.5).
    ///
    /// # Panics
    /// Panics on negative `mu` or non-positive `tau`.
    pub fn new(mu: f32, tau: f32) -> Self {
        assert!(mu >= 0.0, "MOON mu must be non-negative");
        assert!(tau > 0.0, "MOON tau must be positive");
        Moon { mu, tau }
    }

    /// Contrastive weight.
    pub fn mu(&self) -> f32 {
        self.mu
    }

    /// Temperature.
    pub fn tau(&self) -> f32 {
        self.tau
    }
}

/// Gradient of `cos(z, a)` with respect to `z`, written into `out`.
fn d_cos_dz(z: &[f32], a: &[f32], out: &mut [f32]) {
    let nz = fedtrip_tensor::vecops::norm(z).max(1e-12);
    let na = fedtrip_tensor::vecops::norm(a).max(1e-12);
    let cos = fedtrip_tensor::vecops::dot(z, a) / (nz * na);
    let inv = 1.0 / (nz * na);
    let self_term = cos / (nz * nz);
    for ((o, &zv), &av) in out.iter_mut().zip(z).zip(a) {
        *o = (av as f64 * inv - self_term * zv as f64) as f32;
    }
}

/// Per-sample contrastive loss and feature gradient.
///
/// Returns `(l_con, grad_z)` for one sample's `(z, z_glob, z_prev)`.
fn contrastive(z: &[f32], zg: &[f32], zp: &[f32], tau: f32) -> (f64, Vec<f32>) {
    let sim_g = fedtrip_tensor::vecops::cosine_similarity(z, zg) / tau as f64;
    let sim_p = fedtrip_tensor::vecops::cosine_similarity(z, zp) / tau as f64;
    // softmax over {positive, negative} logits, numerically stabilized
    let m = sim_g.max(sim_p);
    let eg = (sim_g - m).exp();
    let ep = (sim_p - m).exp();
    let sigma_g = eg / (eg + ep);
    let sigma_p = 1.0 - sigma_g;
    let loss = -(sigma_g.max(1e-300)).ln();

    // d loss / d sim_g = sigma_g - 1 ; d loss / d sim_p = sigma_p
    let mut dg = vec![0.0f32; z.len()];
    let mut dp = vec![0.0f32; z.len()];
    d_cos_dz(z, zg, &mut dg);
    d_cos_dz(z, zp, &mut dp);
    let cg = (sigma_g - 1.0) / tau as f64;
    let cp = sigma_p / tau as f64;
    let grad: Vec<f32> = dg
        .iter()
        .zip(&dp)
        .map(|(&g, &p)| (cg * g as f64 + cp * p as f64) as f32)
        .collect();
    (loss, grad)
}

impl Algorithm for Moon {
    fn name(&self) -> &'static str {
        "MOON"
    }

    fn local_train(
        &self,
        net: &mut Sequential,
        data: &ClientData<'_>,
        state: &mut ClientState,
        ctx: &LocalContext<'_>,
    ) -> LocalOutcome {
        let mut opt = self.make_optimizer(ctx.lr, ctx.momentum);

        // Reference models: the global model and the previous local model
        // (global on first participation, per the MOON paper).
        let mut net_glob = net.clone();
        net_glob.set_params_flat(ctx.global);
        let mut net_prev = net.clone();
        match &state.historical {
            Some(h) => net_prev.set_params_flat(h),
            None => net_prev.set_params_flat(ctx.global),
        }

        let mut iterations = 0usize;
        let mut samples = 0usize;
        let mut loss_sum = 0.0f64;

        for epoch in 0..ctx.epochs {
            let mut rng = ctx.epoch_rng(epoch);
            for (x, y) in BatchIter::new(data.dataset, data.refs, ctx.batch_size, &mut rng) {
                let batch = y.len();
                net.zero_grads();
                let (logits, z) = net.forward_with_features(&x);
                let (_, zg) = net_glob.forward_with_features(&x);
                let (_, zp) = net_prev.forward_with_features(&x);
                let (ce_loss, ce_grad) = net.loss_head().forward_backward(&logits, &y);

                let dim = z.len() / batch;
                let mut fgrad = Tensor::zeros(z.shape());
                let mut con_sum = 0.0f64;
                for bi in 0..batch {
                    let zs = &z.as_slice()[bi * dim..(bi + 1) * dim];
                    let zgs = &zg.as_slice()[bi * dim..(bi + 1) * dim];
                    let zps = &zp.as_slice()[bi * dim..(bi + 1) * dim];
                    let (l, g) = contrastive(zs, zgs, zps, self.tau);
                    con_sum += l;
                    let scale = self.mu / batch as f32;
                    let dst = &mut fgrad.as_mut_slice()[bi * dim..(bi + 1) * dim];
                    for (d, &gv) in dst.iter_mut().zip(&g) {
                        *d = scale * gv;
                    }
                }
                net.backward_with_feature_grad(&ce_grad, &fgrad);
                opt.step(net);

                iterations += 1;
                samples += batch;
                loss_sum += ce_loss + self.mu as f64 * con_sum / batch as f64;
            }
        }

        let params = net.params_flat();
        state.historical = Some(params.clone());
        state.last_round = Some(ctx.round);

        // Attach cost: the two extra forward passes actually executed.
        let extra_fwd = 2.0 * samples as f64 * net.flops_forward() as f64;
        LocalOutcome {
            params,
            n_samples: data.refs.len(),
            mean_loss: if iterations > 0 {
                loss_sum / iterations as f64
            } else {
                0.0
            },
            iterations,
            train_flops: model_train_flops(net, samples) + extra_fwd,
            aux: None,
            staleness: 0,
            agg_weight: 1.0,
            dense_down: true,
        }
    }

    fn attach_cost(&self, m: &CostModel) -> AttachCost {
        formulas::moon(m, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::super::fedavg::FedAvg;
    use super::super::testutil::*;
    use super::*;

    #[test]
    fn contrastive_loss_is_log2_when_anchors_coincide() {
        // z_glob == z_prev => sigma = 0.5 => loss = ln 2
        let z = [1.0f32, 0.5, -0.3];
        let a = [0.2f32, 0.9, 0.4];
        let (l, _) = contrastive(&z, &a, &a, 0.5);
        assert!((l - (2.0f64).ln()).abs() < 1e-9, "loss {l}");
    }

    #[test]
    fn contrastive_loss_small_when_aligned_with_global() {
        let z = [1.0f32, 0.0];
        let zg = [1.0f32, 0.0]; // perfectly aligned positive
        let zp = [-1.0f32, 0.0]; // perfectly opposed negative
        let (l, _) = contrastive(&z, &zg, &zp, 0.5);
        // sim_g = 2.0, sim_p = -2.0 -> near-zero loss
        assert!(l < 0.05, "loss {l}");
    }

    #[test]
    fn contrastive_gradient_matches_finite_difference() {
        let z = vec![0.8f32, -0.4, 0.3, 0.1];
        let zg = vec![0.5f32, 0.5, -0.2, 0.7];
        let zp = vec![-0.6f32, 0.2, 0.9, -0.3];
        let tau = 0.5;
        let (_, grad) = contrastive(&z, &zg, &zp, tau);
        let eps = 1e-3f32;
        for i in 0..z.len() {
            let mut zp_ = z.clone();
            zp_[i] += eps;
            let (lp, _) = contrastive(&zp_, &zg, &zp, tau);
            let mut zm_ = z.clone();
            zm_[i] -= eps;
            let (lm, _) = contrastive(&zm_, &zg, &zp, tau);
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (fd - grad[i]).abs() < 1e-3,
                "i={i}: fd {fd} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn mu_zero_matches_fedavg() {
        let h = Harness::new(21);
        let (m, _) = h.train_one_client(&Moon::new(0.0, 0.5), 1, None);
        let (a, _) = h.train_one_client(&FedAvg::new(), 1, None);
        // same data order, same CE gradients, zero contrastive weight
        for (x, y) in m.params.iter().zip(&a.params) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn updates_historical_model() {
        let h = Harness::new(22);
        let (o, s) = h.train_one_client(&Moon::new(1.0, 0.5), 1, None);
        assert_eq!(s.historical.as_deref(), Some(o.params.as_slice()));
    }

    #[test]
    fn train_flops_include_double_forward() {
        let h = Harness::new(23);
        let (m, _) = h.train_one_client(&Moon::new(1.0, 0.5), 1, None);
        let (a, _) = h.train_one_client(&FedAvg::new(), 1, None);
        let fp = h.template.flops_forward() as f64;
        let expect_extra = 2.0 * h.refs.len() as f64 * fp;
        assert!(
            (m.train_flops - a.train_flops - expect_extra).abs() < 1.0,
            "extra {} vs {}",
            m.train_flops - a.train_flops,
            expect_extra
        );
    }

    #[test]
    fn attach_formula_counts_two_forwards_per_sample() {
        let h = Harness::new(24);
        let m = h.cost_model();
        let c = Moon::new(1.0, 0.5).attach_cost(&m);
        let expect = m.local_iterations as f64 * m.batch_size as f64 * 2.0 * m.fp_per_sample as f64;
        assert_eq!(c.flops, expect);
    }

    #[test]
    #[should_panic(expected = "tau must be positive")]
    fn rejects_bad_tau() {
        let _ = Moon::new(1.0, 0.0);
    }
}
