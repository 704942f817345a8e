//! MimeLite (Karimireddy et al., 2020) — mimicking centralized SGD with
//! server statistics.
//!
//! The server maintains a momentum statistic `s`. Clients apply it in every
//! local step — `w <- w - lr ((1-beta) g + beta s)` — and additionally
//! compute the *full-batch* gradient of their local data at the received
//! global model, which the server folds into `s`:
//!
//! ```text
//! s <- (1-beta) * mean_k( grad F_k(w_global) ) + beta * s
//! ```
//!
//! The full-batch gradient costs `n (FP + BP)` per round (Appendix A) and
//! its upload doubles communication — the compute/communication profile
//! FedTrip's Table VIII row is contrasted against.

use super::{
    model_train_flops, run_local_sgd, Algorithm, ClientData, ClientState, LocalContext,
    LocalOutcome, ServerFold,
};
use crate::costs::{formulas, AttachCost, CostModel};
use fedtrip_tensor::optim::{Optimizer, Sgd};
use fedtrip_tensor::{GradAdjust, Sequential};

/// The MimeLite method.
#[derive(Debug, Clone)]
pub struct MimeLite {
    beta: f32,
    /// Server momentum statistic `s`.
    s: Vec<f32>,
}

impl MimeLite {
    /// Create MimeLite with momentum `beta` (common default 0.9).
    ///
    /// # Panics
    /// Panics when `beta` is outside `[0, 1)`.
    pub fn new(beta: f32) -> Self {
        assert!((0.0..1.0).contains(&beta), "MimeLite beta must be in [0,1)");
        MimeLite {
            beta,
            s: Vec::new(),
        }
    }

    /// Read-only view of the server statistic (tests/diagnostics).
    pub fn server_statistic(&self) -> &[f32] {
        &self.s
    }
}

/// Full-batch gradient of the client's data at the model's current
/// parameters, evaluated in chunks to bound memory.
fn full_batch_gradient(net: &mut Sequential, data: &ClientData<'_>, chunk: usize) -> Vec<f32> {
    let n = data.refs.len();
    let mut acc = vec![0.0f64; net.num_params()];
    let mut off = 0;
    while off < n {
        let end = (off + chunk).min(n);
        let (x, y) = data.dataset.batch(&data.refs[off..end]);
        net.zero_grads();
        let _ = net.train_step(&x, &y);
        let g = net.grads_flat();
        // train_step averages over its own batch; re-weight to a global mean
        let w = (end - off) as f64 / n as f64;
        for (a, &gv) in acc.iter_mut().zip(&g) {
            *a += w * gv as f64;
        }
        off = end;
    }
    net.zero_grads();
    acc.into_iter().map(|v| v as f32).collect()
}

impl Algorithm for MimeLite {
    fn name(&self) -> &'static str {
        "MimeLite"
    }

    fn on_init(&mut self, _n_clients: usize, n_params: usize) {
        self.s = vec![0.0; n_params];
    }

    fn make_optimizer(&self, lr: f32, _momentum: f32) -> Box<dyn Optimizer> {
        // momentum is carried by the server statistic, not the local optimizer
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
        // full-batch gradient at the *global* model (net is freshly loaded)
        let full_grad = full_batch_gradient(net, data, ctx.batch_size.max(1));

        let beta = self.beta;
        // zeros fallback only materializes on a size change; otherwise the
        // fused sweep reads the server statistic in place
        let zeros;
        let s: &[f32] = if self.s.len() == n {
            &self.s
        } else {
            zeros = vec![0.0f32; n];
            &zeros
        };
        let adjust = GradAdjust::Interp { beta, stat: s };
        let mut opt = self.make_optimizer(ctx.lr, ctx.momentum);
        let (iterations, samples, mean_loss) = run_local_sgd(net, data, ctx, opt.as_mut(), &adjust);
        state.last_round = Some(ctx.round);

        LocalOutcome {
            params: net.params_flat(),
            n_samples: data.refs.len(),
            mean_loss,
            iterations,
            // Appendix A: the attach cost is the full-batch gradient
            train_flops: model_train_flops(net, samples)
                + data.refs.len() as f64 * (net.flops_forward() + net.flops_backward()) as f64,
            aux: Some(full_grad),
            staleness: 0,
            agg_weight: 1.0,
            dense_down: true,
        }
    }

    fn server_begin(&self, fold: &mut ServerFold) {
        // streaming scratch: the mean full-batch gradient over the cohort
        fold.extra = vec![0.0f32; fold.n_params()];
    }

    fn server_fold(&self, fold: &mut ServerFold, outcome: &LocalOutcome, _global: &[f32]) {
        if let Some(g) = &outcome.aux {
            let k = fold.plan().aux_count.max(1) as f32;
            for (mv, &gv) in fold.extra.iter_mut().zip(g) {
                *mv += gv / k;
            }
        }
    }

    fn server_merge(&self, fold: &mut ServerFold, other: &ServerFold) {
        // each partial scratch is a mean over its own `aux_count` gradients
        // (every `server_fold` divided by its local plan's count), so the
        // union mean is the count-weighted recombination. Runs before the
        // base merge — both plans still describe their partial cohorts.
        let (ka, kb) = (fold.plan().aux_count, other.plan().aux_count);
        let k = (ka + kb).max(1) as f32;
        let (fa, fb) = (ka as f32 / k, kb as f32 / k);
        for (mv, &ov) in fold.extra.iter_mut().zip(&other.extra) {
            *mv = fa * *mv + fb * ov;
        }
    }

    fn server_finish(&mut self, global: &mut Vec<f32>, fold: ServerFold, _round: usize) {
        let (avg, mean_g) = fold.into_parts();
        *global = avg;
        if self.s.len() != global.len() {
            self.s = vec![0.0; global.len()];
        }
        for (sv, &m) in self.s.iter_mut().zip(&mean_g) {
            *sv = (1.0 - self.beta) * m + self.beta * *sv;
        }
    }

    fn server_state(&self) -> Vec<Vec<f32>> {
        vec![self.s.clone()]
    }

    fn restore_server_state(&mut self, mut state: Vec<Vec<f32>>) {
        if let Some(s) = state.pop() {
            self.s = s;
        }
    }

    fn attach_cost(&self, m: &CostModel) -> AttachCost {
        formulas::mimelite(m)
    }
}

#[cfg(test)]
mod tests {
    use super::super::server_update;
    use super::super::testutil::*;
    use super::*;
    use fedtrip_data::synth::{DatasetKind, SampleRef, SyntheticVision};
    use fedtrip_models::ModelKind;

    #[test]
    fn full_batch_gradient_is_chunk_invariant() {
        let ds = SyntheticVision::new(DatasetKind::MnistLike, 3);
        let refs: Vec<SampleRef> = (0..30u32)
            .map(|i| SampleRef {
                class: (i % 10) as u16,
                id: i / 10,
            })
            .collect();
        let data = ClientData {
            dataset: &ds,
            refs: &refs,
        };
        let mut net = ModelKind::TinyMlp.build(&[1, 28, 28], 10, 3);
        let g_small = full_batch_gradient(&mut net, &data, 7);
        let g_large = full_batch_gradient(&mut net, &data, 30);
        for (a, b) in g_small.iter().zip(&g_large) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn uploads_full_batch_gradient() {
        let h = Harness::new(61);
        let (o, _) = h.train_one_client(&MimeLite::new(0.9), 1, None);
        let g = o.aux.expect("mimelite uploads the full-batch gradient");
        assert_eq!(g.len(), o.params.len());
        assert!(g.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn server_statistic_tracks_mean_gradient() {
        let mut ml = MimeLite::new(0.5);
        ml.on_init(4, 2);
        let o = LocalOutcome {
            params: vec![0.0, 0.0],
            n_samples: 5,
            mean_loss: 0.0,
            iterations: 1,
            train_flops: 0.0,
            aux: Some(vec![2.0, 4.0]),
            staleness: 0,
            agg_weight: 1.0,
            dense_down: true,
        };
        let mut g = vec![0.0f32, 0.0];
        server_update(&mut ml, &mut g, &[o], 1);
        // s = 0.5 * mean + 0.5 * 0 = [1, 2]
        assert_eq!(ml.server_statistic(), &[1.0, 2.0]);
    }

    #[test]
    fn beta_zero_behaves_like_plain_local_sgd() {
        let h = Harness::new(62);
        let (a, _) = h.train_one_client(&MimeLite::new(0.0), 1, None);
        let (b, _) = h.train_one_client(&super::super::slowmo::SlowMo::new(0.5, 1.0), 1, None);
        assert_eq!(a.params, b.params);
    }

    #[test]
    fn attach_cost_is_full_batch_pass() {
        let h = Harness::new(63);
        let m = h.cost_model();
        let c = MimeLite::new(0.9).attach_cost(&m);
        assert_eq!(
            c.flops,
            m.local_samples as f64 * (m.fp_per_sample + m.bp_per_sample) as f64
        );
        assert_eq!(c.extra_comm_bytes(), 2 * m.n_params * 4);
        assert_eq!(c.up_params, m.n_params);
        assert_eq!(c.down_params, m.n_params);
    }
}
