//! FedTrip — the paper's contribution (Algorithm 1).
//!
//! The local loss gains a *triplet* regularizer (Eq. 5):
//!
//! ```text
//! L = F(w) + (mu/2) [ ||w - w_global||^2 - xi ||w - w_hist||^2 ]
//! ```
//!
//! so each local SGD step uses the adjusted gradient (Algorithm 1, line 7):
//!
//! ```text
//! h = ∇F(w) + mu ( (w - w_global) + xi (w_hist - w) )
//! ```
//!
//! The positive anchor pulls the current local model toward the global model
//! (update consistency, as FedProx); the *negative* anchor pushes it away
//! from the client's own historical model, freeing it to explore parameter
//! space instead of being trapped near its previous round's solution. `xi`
//! is the number of rounds since the client last participated, so stale
//! history is pushed away harder.
//!
//! Attach cost: one fused `4|w|`-FLOP vector pass per iteration; no extra
//! communication (the historical model is the client's own copy).

use super::{
    model_train_flops, run_local_sgd, Algorithm, ClientData, ClientState, LocalContext,
    LocalOutcome,
};
use crate::costs::{formulas, AttachCost, CostModel};
use fedtrip_tensor::{GradAdjust, Sequential};
use serde::{Deserialize, Serialize};

/// How the history coefficient `xi` is derived.
///
/// The paper's prose says `xi` "is set as the interval between the current
/// round and the last round of participating", but its convergence analysis
/// gives `E_k[xi] = p ln p / (p-1)` — which is exactly `E[1/gap]` for the
/// geometric participation gap at rate `p` (and §V-D's observation that
/// `E[xi]` *shrinks* when going from 4-of-10 to 4-of-50 only holds for the
/// inverse). So the faithful rule is `xi = 1 / gap`, which also keeps
/// `xi <= 1`: the proximal anchor always dominates the history repulsion
/// and the regularized objective stays strongly convex (Definition 1).
/// [`XiMode::RawGap`] implements the literal prose reading as an ablation —
/// our experiments show it accelerates early rounds, then diverges once
/// `mu * xi` exceeds the anchor strength.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum XiMode {
    /// The paper's rule: `xi = 1 / (rounds since last participation)`.
    Gap,
    /// Ablation: `xi` = the raw participation gap (diverges for gaps > 1).
    RawGap,
    /// Ablation: a fixed `xi` regardless of participation gaps.
    Fixed(f32),
}

/// FedTrip configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FedTripConfig {
    /// Regularization strength `mu` (paper: 1.0 for MLP, 0.4 otherwise).
    pub mu: f32,
    /// `xi` derivation rule.
    pub xi_mode: XiMode,
}

impl Default for FedTripConfig {
    fn default() -> Self {
        FedTripConfig {
            mu: 0.4,
            xi_mode: XiMode::Gap,
        }
    }
}

/// The FedTrip method (Algorithm 1).
#[derive(Debug, Clone)]
pub struct FedTrip {
    cfg: FedTripConfig,
}

impl FedTrip {
    /// Create FedTrip.
    ///
    /// # Panics
    /// Panics on negative (or NaN) `mu` or fixed `xi`. A fixed `xi` of zero
    /// is allowed: it degenerates to FedProx and is a useful ablation point.
    pub fn new(cfg: FedTripConfig) -> Self {
        assert!(cfg.mu >= 0.0, "FedTrip mu must be non-negative");
        if let XiMode::Fixed(x) = cfg.xi_mode {
            assert!(x >= 0.0, "fixed xi must be non-negative");
        }
        FedTrip { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &FedTripConfig {
        &self.cfg
    }

    /// Resolve `xi` for a client given its participation gap.
    ///
    /// `gap` is `None` on a client's first participation (no history yet —
    /// the history term is dropped entirely in [`Self::local_train`], so the
    /// resolved `xi` is irrelevant that round for `Gap`/`RawGap`). The engine
    /// computes `gap = t - last_round >= 1`; both gap modes clamp with
    /// `max(1)` so a malformed gap of 0 can never zero out (`RawGap`) or
    /// blow up (`Gap`) the regularizer.
    fn xi(&self, gap: Option<usize>) -> f32 {
        match self.cfg.xi_mode {
            XiMode::Gap => gap.map(|g| 1.0 / g.max(1) as f32).unwrap_or(0.0),
            XiMode::RawGap => gap.map(|g| g.max(1) as f32).unwrap_or(0.0),
            XiMode::Fixed(x) => x,
        }
    }
}

impl Algorithm for FedTrip {
    fn name(&self) -> &'static str {
        "FedTrip"
    }

    fn local_train(
        &self,
        net: &mut Sequential,
        data: &ClientData<'_>,
        state: &mut ClientState,
        ctx: &LocalContext<'_>,
    ) -> LocalOutcome {
        let mut opt = self.make_optimizer(ctx.lr, ctx.momentum);
        let mu = self.cfg.mu;
        let global = ctx.global;
        let xi = self.xi(ctx.gap);
        // First participation: no historical model yet — Algorithm 1 line 4
        // loads w̃^{t-1}; we fall back to the proximal-only update (the
        // history term vanishes), which equals FedProx for that round.
        // The historical model is borrowed, not cloned: the fused sweep
        // only reads it.
        let adjust = match state.historical.as_deref() {
            Some(hist) => GradAdjust::Triplet {
                mu,
                xi,
                global,
                hist,
            },
            None => GradAdjust::Prox { mu, anchor: global },
        };
        let (iterations, samples, mean_loss) = run_local_sgd(net, data, ctx, opt.as_mut(), &adjust);

        let params = net.params_flat();
        // the updated local model becomes next participation's history
        match &mut state.historical {
            Some(h) => h.clone_from(&params),
            None => state.historical = Some(params.clone()),
        }
        state.last_round = Some(ctx.round);

        let attach = formulas::fedtrip(&CostModel {
            n_params: net.num_params(),
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

    fn attach_cost(&self, m: &CostModel) -> AttachCost {
        formulas::fedtrip(m)
    }
}

#[cfg(test)]
mod tests {
    use super::super::fedprox::FedProx;
    use super::super::testutil::*;
    use super::*;
    use fedtrip_tensor::vecops::{self, sq_dist};

    fn trip(mu: f32) -> FedTrip {
        FedTrip::new(FedTripConfig {
            mu,
            xi_mode: XiMode::Gap,
        })
    }

    #[test]
    fn first_round_without_history_matches_fedprox_at_same_mu() {
        let h = Harness::new(11);
        let (t, _) = h.train_one_client(&trip(0.4), 1, None);
        let (p, _) = h.train_one_client(&FedProx::new(0.4), 1, None);
        assert_eq!(t.params, p.params);
    }

    #[test]
    fn stores_historical_model_after_round() {
        let h = Harness::new(12);
        let (outcome, state) = h.train_one_client(&trip(0.4), 1, None);
        assert_eq!(state.historical.as_deref(), Some(outcome.params.as_slice()));
        assert_eq!(state.last_round, Some(1));
    }

    #[test]
    fn second_round_diverges_from_prox_because_of_history() {
        let h = Harness::new(13);
        let (_, state) = h.train_one_client(&trip(0.4), 1, None);
        let (t2, _) = h.train_one_client(&trip(0.4), 2, Some(state.clone()));
        // FedProx from the same state ignores history
        let (p2, _) = h.train_one_client(&FedProx::new(0.4), 2, Some(state));
        assert_ne!(t2.params, p2.params);
    }

    #[test]
    fn repulsion_pushes_away_from_history() {
        // With gradient-free dynamics (mu large relative to data gradient),
        // the update should end farther from the historical anchor than
        // FedProx's would.
        let h = Harness::new(14);
        let (_, state) = h.train_one_client(&trip(2.0), 1, None);
        let hist = state.historical.clone().unwrap();
        let (t2, _) = h.train_one_client(&trip(2.0), 2, Some(state.clone()));
        let (p2, _) = h.train_one_client(&FedProx::new(2.0), 2, Some(state));
        let d_trip = sq_dist(&t2.params, &hist);
        let d_prox = sq_dist(&p2.params, &hist);
        assert!(
            d_trip > d_prox,
            "triplet dist to history {d_trip} should exceed prox {d_prox}"
        );
    }

    #[test]
    fn xi_gap_resolution() {
        let t = trip(0.4);
        assert_eq!(t.xi(None), 0.0);
        assert_eq!(t.xi(Some(1)), 1.0);
        // inverse gap: staler history pushes *less* (xi <= 1 keeps the
        // anchor dominant, matching the theory's E[xi] = p ln p / (p-1))
        assert_eq!(t.xi(Some(4)), 0.25);
        let raw = FedTrip::new(FedTripConfig {
            mu: 0.4,
            xi_mode: XiMode::RawGap,
        });
        assert_eq!(raw.xi(Some(7)), 7.0);
        let fixed = FedTrip::new(FedTripConfig {
            mu: 0.4,
            xi_mode: XiMode::Fixed(2.5),
        });
        assert_eq!(fixed.xi(Some(7)), 2.5);
        assert_eq!(fixed.xi(None), 2.5);
    }

    /// Golden values for the adjusted gradient of Algorithm 1, line 7:
    /// `h = ∇F(w) + mu ((w - w_global) + xi (w_hist - w))`, hand-computed at
    /// a point where every term is a dyadic rational, so f32 arithmetic is
    /// exact and the assertions can demand bit equality.
    #[test]
    fn adjusted_gradient_golden_values() {
        let g0 = vec![0.5f32, -1.0, 2.0];
        let w = [1.0f32, 2.0, -1.0];
        let global = [0.5f32, 1.0, 0.0];
        let hist = [2.0f32, 0.0, -2.0];
        let (mu, xi) = (0.5f32, 0.25f32);
        // Per coordinate: h_i = g_i + mu*((w_i - global_i) + xi*(hist_i - w_i))
        //   i=0: 0.5  + 0.5*((1.0 - 0.5)  + 0.25*( 2.0 - 1.0))  = 0.875
        //   i=1: -1.0 + 0.5*((2.0 - 1.0)  + 0.25*( 0.0 - 2.0))  = -0.75
        //   i=2: 2.0  + 0.5*((-1.0 - 0.0) + 0.25*(-2.0 + 1.0))  = 1.375
        let golden = [0.875f32, -0.75, 1.375];

        let mut g = g0.clone();
        vecops::triplet_adjust(&mut g, mu, xi, &w, &global, &hist);
        assert_eq!(g, golden);

        // The unfused reference formulation must agree exactly.
        let mut g_naive = g0.clone();
        vecops::triplet_adjust_naive(&mut g_naive, mu, xi, &w, &global, &hist);
        assert_eq!(g_naive, golden);

        // xi = 0.25 is what Gap mode resolves for a participation gap of 4,
        // and what Fixed(0.25) always resolves — all three routes meet at
        // the same golden point.
        assert_eq!(trip(mu).xi(Some(4)), xi);
        let fixed = FedTrip::new(FedTripConfig {
            mu,
            xi_mode: XiMode::Fixed(0.25),
        });
        assert_eq!(fixed.xi(Some(999)), xi);

        // RawGap golden point at gap = 2 (xi = 2.0):
        //   i=0: 0.5  + 0.5*(0.5  + 2.0*1.0)  = 1.75
        //   i=1: -1.0 + 0.5*(1.0  + 2.0*(-2.0)) = -2.5
        //   i=2: 2.0  + 0.5*(-1.0 + 2.0*(-1.0)) = 0.5
        let raw = FedTrip::new(FedTripConfig {
            mu,
            xi_mode: XiMode::RawGap,
        });
        let xi_raw = raw.xi(Some(2));
        assert_eq!(xi_raw, 2.0);
        let mut g_raw = g0;
        vecops::triplet_adjust(&mut g_raw, mu, xi_raw, &w, &global, &hist);
        assert_eq!(g_raw, [1.75f32, -2.5, 0.5]);
    }

    #[test]
    fn raw_gap_clamps_malformed_zero_gap() {
        let raw = FedTrip::new(FedTripConfig {
            mu: 0.4,
            xi_mode: XiMode::RawGap,
        });
        // gap 0 cannot come out of the engine, but if it ever did, the
        // history term must not silently vanish
        assert_eq!(raw.xi(Some(0)), 1.0);
        let gap = FedTrip::new(FedTripConfig {
            mu: 0.4,
            xi_mode: XiMode::Gap,
        });
        assert_eq!(gap.xi(Some(0)), 1.0);
    }

    #[test]
    fn attach_cost_is_4kw_no_comm() {
        let h = Harness::new(15);
        let m = h.cost_model();
        let c = trip(0.4).attach_cost(&m);
        assert_eq!(c.flops, 4.0 * m.local_iterations as f64 * m.n_params as f64);
        assert_eq!(c.extra_comm_bytes(), 0);
    }

    #[test]
    fn mu_zero_with_history_is_plain_sgd() {
        let h = Harness::new(16);
        let (_, state) = h.train_one_client(&trip(0.0), 1, None);
        let (a, _) = h.train_one_client(&trip(0.0), 2, Some(state));
        let (b, _) = h.train_one_client(&super::super::fedavg::FedAvg::new(), 2, None);
        assert_eq!(a.params, b.params);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_mu() {
        let _ = trip(-1.0);
    }
}
