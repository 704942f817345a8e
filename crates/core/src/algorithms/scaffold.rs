//! SCAFFOLD (Karimireddy et al., 2020) — stochastic controlled averaging.
//!
//! Client drift is corrected with control variates: the server keeps `c`,
//! each client keeps `c_k`, and every local step uses `g - c_k + c`.
//! After `K` steps the client refreshes its control variate with the
//! "option II" rule `c_k+ = c_k - c + (w_global - w_k) / (K * lr)` and
//! uploads the delta, costing `2|w|` extra communication per round — the
//! Appendix-A row FedTrip is contrasted against on the communication side.

use super::{
    model_train_flops, run_local_sgd, Algorithm, ClientData, ClientState, LocalContext,
    LocalOutcome, ServerFold,
};
use crate::costs::{formulas, AttachCost, CostModel};
use fedtrip_tensor::optim::{Optimizer, Sgd};
use fedtrip_tensor::{GradAdjust, Sequential};

/// The SCAFFOLD method.
#[derive(Debug, Clone, Default)]
pub struct Scaffold {
    /// Server control variate `c`.
    c: Vec<f32>,
    /// Federation size `N`.
    n_clients: usize,
}

impl Scaffold {
    /// Create SCAFFOLD.
    pub fn new() -> Self {
        Scaffold::default()
    }

    /// Read-only view of the server control variate (for tests/diagnostics).
    pub fn server_control(&self) -> &[f32] {
        &self.c
    }
}

impl Algorithm for Scaffold {
    fn name(&self) -> &'static str {
        "SCAFFOLD"
    }

    fn on_init(&mut self, n_clients: usize, n_params: usize) {
        self.n_clients = n_clients;
        self.c = vec![0.0; n_params];
    }

    fn make_optimizer(&self, lr: f32, _momentum: f32) -> Box<dyn Optimizer> {
        // control variates assume plain SGD steps
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
        // zeros fallback only materializes on a size change
        let zeros;
        let c_server: &[f32] = if self.c.len() == n {
            &self.c
        } else {
            zeros = vec![0.0f32; n];
            &zeros
        };
        // the client variate is borrowed, not cloned: the fused sweep only
        // reads it, and the option-II refresh below runs in place
        #[expect(clippy::expect_used, reason = "correction seeded earlier in this call")]
        let adjust = GradAdjust::ControlVariates {
            c_server,
            c_client: state.correction.as_deref().expect("initialized above"),
        };
        let mut opt = self.make_optimizer(ctx.lr, ctx.momentum);
        let (iterations, samples, mean_loss) = run_local_sgd(net, data, ctx, opt.as_mut(), &adjust);

        let params = net.params_flat();
        // option II refresh: c_k+ = c_k - c + (w_global - w_k) / (K * lr)
        let scale = 1.0 / (iterations.max(1) as f32 * ctx.lr);
        let mut delta_c = vec![0.0f32; n];
        {
            #[expect(clippy::expect_used, reason = "correction seeded earlier in this call")]
            let ck = state.correction.as_mut().expect("initialized above");
            for i in 0..n {
                let fresh = ck[i] - c_server[i] + (ctx.global[i] - params[i]) * scale;
                delta_c[i] = fresh - ck[i];
                ck[i] = fresh;
            }
        }
        state.last_round = Some(ctx.round);

        LocalOutcome {
            params,
            n_samples: data.refs.len(),
            mean_loss,
            iterations,
            // the 2(K+1)|w| control arithmetic; the n(FP+BP) term of the
            // Appendix-A formula models SCAFFOLD variants that estimate
            // full-batch gradients — our option-II variant does not run it,
            // so count only what is executed:
            train_flops: model_train_flops(net, samples) + 2.0 * (iterations + 1) as f64 * n as f64,
            aux: Some(delta_c),
            staleness: 0,
            agg_weight: 1.0,
            dense_down: true,
        }
    }

    fn server_begin(&self, fold: &mut ServerFold) {
        // streaming scratch: the *next* server control variate, starting
        // from the current `c` (zeros on a size change, as before)
        fold.extra = if self.c.len() == fold.n_params() {
            self.c.clone()
        } else {
            vec![0.0f32; fold.n_params()]
        };
    }

    fn server_fold(&self, fold: &mut ServerFold, outcome: &LocalOutcome, _global: &[f32]) {
        // c <- c + (1/N) * delta_c_k, one arrival at a time
        if let Some(dc) = &outcome.aux {
            let n = self.n_clients.max(fold.plan().cohort) as f32;
            for (cv, &d) in fold.extra.iter_mut().zip(dc) {
                *cv += d / n;
            }
        }
    }

    fn server_merge(&self, fold: &mut ServerFold, other: &ServerFold) {
        // every partial fold's `server_begin` seeded its scratch with one
        // copy of the current `c`, so the union is the element sum minus the
        // duplicated base: (c + Σ_A d/N) + (c + Σ_B d/N) - c. Mirror the
        // zeros-on-size-change guard of `server_begin`.
        let seeded = self.c.len() == fold.n_params();
        for (i, (cv, &ov)) in fold.extra.iter_mut().zip(&other.extra).enumerate() {
            let base = if seeded { self.c[i] } else { 0.0 };
            *cv += ov - base;
        }
    }

    fn server_finish(&mut self, global: &mut Vec<f32>, fold: ServerFold, _round: usize) {
        let (avg, c) = fold.into_parts();
        *global = avg;
        self.c = c;
    }

    fn server_state(&self) -> Vec<Vec<f32>> {
        vec![self.c.clone()]
    }

    fn restore_server_state(&mut self, mut state: Vec<Vec<f32>>) {
        if let Some(c) = state.pop() {
            self.c = c;
        }
    }

    fn attach_cost(&self, m: &CostModel) -> AttachCost {
        formulas::scaffold(m)
    }
}

#[cfg(test)]
mod tests {
    use super::super::server_update;
    use super::super::testutil::*;
    use super::*;

    #[test]
    fn uploads_control_delta() {
        let h = Harness::new(51);
        let (o, s) = h.train_one_client(&Scaffold::new(), 1, None);
        let dc = o.aux.expect("scaffold uploads delta c");
        assert_eq!(dc.len(), o.params.len());
        assert!(dc.iter().any(|&v| v != 0.0));
        // client state must equal old c_k + delta (old was zero)
        let ck = s.correction.unwrap();
        for (a, b) in ck.iter().zip(&dc) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn control_variate_refresh_matches_option_two() {
        // c = 0, c_k = 0: c_k+ = (global - w)/ (K lr)
        let h = Harness::new(52);
        let (o, s) = h.train_one_client(&Scaffold::new(), 1, None);
        let k = o.iterations as f32;
        let ck = s.correction.unwrap();
        for ((c, &w), &g) in ck.iter().zip(&o.params).zip(&h.global) {
            let expect = (g - w) / (k * 0.05);
            assert!((c - expect).abs() < 1e-4, "{c} vs {expect}");
        }
    }

    #[test]
    fn server_accumulates_scaled_deltas() {
        let mut sc = Scaffold::new();
        sc.on_init(10, 2);
        let o = LocalOutcome {
            params: vec![0.0, 0.0],
            n_samples: 5,
            mean_loss: 0.0,
            iterations: 1,
            train_flops: 0.0,
            aux: Some(vec![10.0, -20.0]),
            staleness: 0,
            agg_weight: 1.0,
            dense_down: true,
        };
        let mut g = vec![0.0f32, 0.0];
        server_update(&mut sc, &mut g, &[o], 1);
        assert_eq!(sc.server_control(), &[1.0, -2.0]);
    }

    #[test]
    fn extra_communication_is_2w() {
        let h = Harness::new(53);
        let m = h.cost_model();
        let c = Scaffold::new().attach_cost(&m);
        assert_eq!(c.extra_comm_bytes(), 2 * m.n_params * 4);
        assert_eq!(c.up_params, m.n_params);
        assert_eq!(c.down_params, m.n_params);
    }

    #[test]
    fn zero_controls_first_round_matches_plain_sgd_path() {
        // With c = c_k = 0 the hook is a no-op, so round 1 equals SlowMo's
        // local run (both plain SGD).
        let h = Harness::new(54);
        let (a, _) = h.train_one_client(&Scaffold::new(), 1, None);
        let (b, _) = h.train_one_client(&super::super::slowmo::SlowMo::new(0.5, 1.0), 1, None);
        assert_eq!(a.params, b.params);
    }
}
