//! FedDyn (Acar et al., 2021) — federated learning with dynamic
//! regularization.
//!
//! Each client keeps a linear correction state `lambda_k` (initialized to
//! zero) and minimizes
//!
//! ```text
//! F_k(w) - <lambda_k, w> + (alpha/2) ||w - w_global||^2
//! ```
//!
//! i.e. the per-step gradient is `g - lambda_k + alpha (w - w_global)`.
//! After local training, `lambda_k <- lambda_k - alpha (w_k - w_global)`.
//! The server keeps its own drift state `h` and sets
//! `w <- mean(w_k) - h / alpha` with
//! `h <- h - alpha * (1/N) * sum_{k in S} (w_k - w_prev)`,
//! which makes client optima asymptotically consistent with the global one.

use super::{
    model_train_flops, run_local_sgd, Algorithm, ClientData, ClientState, LocalContext,
    LocalOutcome, ServerFold,
};
use crate::costs::{formulas, AttachCost, CostModel};
use fedtrip_tensor::optim::{Optimizer, Sgd};
use fedtrip_tensor::{GradAdjust, Sequential};

/// The FedDyn method.
#[derive(Debug, Clone)]
pub struct FedDyn {
    alpha: f32,
    /// Server drift state `h`.
    h: Vec<f32>,
    /// Federation size `N` (set by `on_init`).
    n_clients: usize,
}

impl FedDyn {
    /// Create FedDyn with regularization strength `alpha`
    /// (paper: 1.0 on MNIST, 0.1 on the other datasets).
    ///
    /// # Panics
    /// Panics on non-positive `alpha`.
    pub fn new(alpha: f32) -> Self {
        assert!(alpha > 0.0, "FedDyn alpha must be positive");
        FedDyn {
            alpha,
            h: Vec::new(),
            n_clients: 0,
        }
    }

    /// The regularization strength.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }
}

impl Algorithm for FedDyn {
    fn name(&self) -> &'static str {
        "FedDyn"
    }

    fn on_init(&mut self, n_clients: usize, n_params: usize) {
        self.n_clients = n_clients;
        self.h = vec![0.0; n_params];
    }

    fn make_optimizer(&self, lr: f32, _momentum: f32) -> Box<dyn Optimizer> {
        // §V-A: FedDyn trains locally with plain SGD
        Box::new(Sgd::new(lr))
    }

    fn local_train(
        &self,
        net: &mut Sequential,
        data: &ClientData<'_>,
        state: &mut ClientState,
        ctx: &LocalContext<'_>,
    ) -> LocalOutcome {
        let n = net.num_params();
        if state
            .correction
            .as_ref()
            .map(|c| c.len() != n)
            .unwrap_or(true)
        {
            state.correction = Some(vec![0.0; n]);
        }
        let alpha = self.alpha;
        let global = ctx.global;
        // lambda is borrowed, not cloned: the fused sweep only reads it,
        // and the post-round update below happens after the borrow ends
        #[expect(clippy::expect_used, reason = "correction seeded earlier in this call")]
        let adjust = GradAdjust::DynReg {
            alpha,
            lambda: state.correction.as_deref().expect("initialized above"),
            global,
        };
        let mut opt = self.make_optimizer(ctx.lr, ctx.momentum);
        let (iterations, samples, mean_loss) = run_local_sgd(net, data, ctx, opt.as_mut(), &adjust);

        let params = net.params_flat();
        // lambda_k <- lambda_k - alpha (w_k - w_global)
        #[expect(clippy::expect_used, reason = "correction seeded earlier in this call")]
        let lam = state.correction.as_mut().expect("initialized above");
        for ((lv, &wv), &gl) in lam.iter_mut().zip(&params).zip(global) {
            *lv -= alpha * (wv - gl);
        }
        state.last_round = Some(ctx.round);

        let attach = formulas::feddyn(&CostModel {
            n_params: n,
            fp_per_sample: net.flops_forward(),
            bp_per_sample: net.flops_backward(),
            batch_size: ctx.batch_size,
            local_iterations: iterations,
            local_samples: data.refs.len(),
        });
        LocalOutcome {
            params,
            n_samples: data.refs.len(),
            mean_loss,
            iterations,
            train_flops: model_train_flops(net, samples) + attach.flops,
            aux: None,
            staleness: 0,
            agg_weight: 1.0,
            dense_down: true,
        }
    }

    fn server_begin(&self, fold: &mut ServerFold) {
        // streaming scratch: the per-element drift sum `sum_k (w_k - w_prev)`
        fold.extra = vec![0.0f32; fold.n_params()];
    }

    fn server_fold(&self, fold: &mut ServerFold, outcome: &LocalOutcome, global: &[f32]) {
        for (d, (&p, &g)) in fold.extra.iter_mut().zip(outcome.params.iter().zip(global)) {
            *d += p - g;
        }
    }

    fn server_merge(&self, fold: &mut ServerFold, other: &ServerFold) {
        // the drift scratch is a plain per-element sum over the cohort, so
        // partial sums combine by addition
        for (d, &o) in fold.extra.iter_mut().zip(&other.extra) {
            *d += o;
        }
    }

    fn server_finish(&mut self, global: &mut Vec<f32>, fold: ServerFold, _round: usize) {
        let cohort = fold.plan().cohort;
        let (avg, drift) = fold.into_parts();
        if self.h.len() != global.len() {
            self.h = vec![0.0; global.len()];
        }
        let n = self.n_clients.max(cohort) as f32;
        // h <- h - alpha/N * sum_k (w_k - w_prev)
        for (hv, &d) in self.h.iter_mut().zip(&drift) {
            *hv -= self.alpha * d / n;
        }
        // w <- mean(w_k) - h / alpha
        for ((g, &a), &hv) in global.iter_mut().zip(&avg).zip(&self.h) {
            *g = a - hv / self.alpha;
        }
    }

    fn server_state(&self) -> Vec<Vec<f32>> {
        vec![self.h.clone()]
    }

    fn restore_server_state(&mut self, mut state: Vec<Vec<f32>>) {
        if let Some(h) = state.pop() {
            self.h = h;
        }
    }

    fn attach_cost(&self, m: &CostModel) -> AttachCost {
        formulas::feddyn(m)
    }
}

#[cfg(test)]
mod tests {
    use super::super::server_update;
    use super::super::testutil::*;
    use super::*;

    fn outcome(params: Vec<f32>) -> LocalOutcome {
        LocalOutcome {
            params,
            n_samples: 10,
            mean_loss: 0.0,
            iterations: 1,
            train_flops: 0.0,
            aux: None,
            staleness: 0,
            agg_weight: 1.0,
            dense_down: true,
        }
    }

    #[test]
    fn correction_state_initialized_and_updated() {
        let h = Harness::new(41);
        let (o, s) = h.train_one_client(&FedDyn::new(0.1), 1, None);
        let lam = s.correction.expect("lambda must exist after round");
        // lambda = -alpha (w_k - w_global), nonzero when the model moved
        let expect: Vec<f32> = o
            .params
            .iter()
            .zip(&h.global)
            .map(|(&w, &g)| -0.1 * (w - g))
            .collect();
        for (a, b) in lam.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn server_drift_state_shifts_global_model() {
        let mut fd = FedDyn::new(0.5);
        fd.on_init(4, 2);
        let mut global = vec![0.0f32, 0.0];
        server_update(&mut fd, &mut global, &[outcome(vec![1.0, 1.0])], 1);
        // drift = 1 per coord; h = -0.5*1/4 = -0.125; w = 1 - h/alpha = 1.25
        assert_eq!(global, vec![1.25, 1.25]);
    }

    #[test]
    fn second_round_with_unchanged_clients_keeps_h() {
        let mut fd = FedDyn::new(0.5);
        fd.on_init(4, 1);
        let mut global = vec![0.0f32];
        server_update(&mut fd, &mut global, &[outcome(vec![1.0])], 1);
        let g1 = global[0];
        // clients return exactly the current global: no new drift
        server_update(&mut fd, &mut global, &[outcome(vec![g1])], 2);
        // h unchanged => w = g1 - h/alpha = g1 + 0.25
        assert!((global[0] - (g1 + 0.25)).abs() < 1e-6);
    }

    #[test]
    fn uses_plain_sgd_locally() {
        let h = Harness::new(42);
        let (dyn_o, _) = h.train_one_client(&FedDyn::new(1e-9), 1, None);
        let (avg_o, _) = h.train_one_client(&super::super::fedavg::FedAvg::new(), 1, None);
        // with alpha ~ 0 and zero lambda the only difference is the optimizer
        assert_ne!(dyn_o.params, avg_o.params);
    }

    #[test]
    fn attach_cost_matches_fedtrip_row() {
        let h = Harness::new(43);
        let m = h.cost_model();
        assert_eq!(
            FedDyn::new(0.1).attach_cost(&m).flops,
            4.0 * m.local_iterations as f64 * m.n_params as f64
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn rejects_bad_alpha() {
        let _ = FedDyn::new(0.0);
    }
}
