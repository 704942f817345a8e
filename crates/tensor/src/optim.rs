//! Local optimizers with fused adjusted-gradient sweeps.
//!
//! The paper (§V-A) trains with SGD-with-momentum (lr 0.01, momentum 0.9)
//! for FedAvg / FedProx / MOON / FedTrip and plain SGD for SlowMo / FedDyn.
//!
//! Every federated algorithm in this workspace perturbs the local gradient
//! before the descent step — FedProx adds a proximal pull, FedTrip its
//! triplet attraction/repulsion, FedDyn a dynamic regularizer, SCAFFOLD
//! control variates, MimeLite a server-statistic interpolation.
//! [`GradAdjust`] fuses that adjustment into the optimizer update itself:
//! one sweep over the parameter blocks, zero allocation, and the raw
//! gradients in the network are left untouched. Per block the sweep hands
//! each arm its companion slices `[off..off + len]` alongside the block's
//! parameters, gradients and velocity, so every arm is a monomorphised,
//! branch-free loop that vectorises — the triplet term costs memory
//! traffic, which is the "negligible additional computation" of the
//! paper's Table V.
//!
//! Numerically the fusion is exact: each adjusted gradient element is the
//! same f32 expression, in the same order, as the vecops hook applied to
//! the element — followed by the same update — so fused and unfused
//! trajectories are bit-identical.

use crate::net::Sequential;
use serde::{Deserialize, Serialize};

/// Learning-rate schedule applied across communication rounds.
///
/// The paper trains with a fixed rate (0.01); the schedules are the
/// extension its §VI future work invites and are exercised by the
/// `flrun` CLI and ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LrSchedule {
    /// The paper's setting: a fixed learning rate.
    Constant,
    /// Multiply the rate by `factor` every `every` rounds.
    StepDecay {
        /// Rounds between decays.
        every: usize,
        /// Multiplicative factor per decay (in `(0, 1]`).
        factor: f32,
    },
    /// Cosine annealing from the base rate to `min_lr` over `total` rounds.
    Cosine {
        /// Rounds over which to anneal.
        total: usize,
        /// Terminal learning rate.
        min_lr: f32,
    },
}

impl LrSchedule {
    /// The learning rate in effect at a (1-based) round.
    ///
    /// # Panics
    /// Panics on invalid schedule parameters (zero period, factor outside
    /// `(0, 1]`, zero total).
    pub fn lr_at(&self, base_lr: f32, round: usize) -> f32 {
        let r = round.max(1) - 1; // 0-based rounds elapsed
        match *self {
            LrSchedule::Constant => base_lr,
            LrSchedule::StepDecay { every, factor } => {
                assert!(every > 0, "StepDecay period must be positive");
                assert!(
                    factor > 0.0 && factor <= 1.0,
                    "StepDecay factor must be in (0,1]"
                );
                base_lr * factor.powi((r / every) as i32)
            }
            LrSchedule::Cosine { total, min_lr } => {
                assert!(total > 0, "Cosine total must be positive");
                let t = (r as f32 / total as f32).min(1.0);
                min_lr + 0.5 * (base_lr - min_lr) * (1.0 + (std::f32::consts::PI * t).cos())
            }
        }
    }
}

/// An algorithm-specific gradient adjustment fused into the optimizer step.
///
/// Companion vectors are borrowed flat views (indexed by the same offsets
/// as [`Sequential::params_flat`]) and must have exactly `num_params`
/// elements. The adjusted gradient `h` replaces the raw gradient `g` inside
/// the update only — the network's accumulated gradient buffers are never
/// modified.
#[derive(Debug, Clone, Copy)]
pub enum GradAdjust<'a> {
    /// Use the raw gradient (FedAvg / SlowMo / MOON).
    None,
    /// FedProx: `h = g + mu * (w - anchor)`.
    Prox {
        /// Proximal strength.
        mu: f32,
        /// Round-start global parameters.
        anchor: &'a [f32],
    },
    /// FedTrip: `h = g + mu * ((w - global) + xi * (hist - w))`.
    Triplet {
        /// Proximal strength.
        mu: f32,
        /// Repulsion weight against the historical model.
        xi: f32,
        /// Round-start global parameters (positive anchor).
        global: &'a [f32],
        /// Previous-round local parameters (negative anchor).
        hist: &'a [f32],
    },
    /// FedDyn: `h = g + (-lambda + alpha * (w - global))`.
    DynReg {
        /// Regularization strength.
        alpha: f32,
        /// Client's accumulated linear-penalty state.
        lambda: &'a [f32],
        /// Round-start global parameters.
        global: &'a [f32],
    },
    /// SCAFFOLD: `h = g + (c_server - c_client)`.
    ControlVariates {
        /// Server control variate.
        c_server: &'a [f32],
        /// Client control variate.
        c_client: &'a [f32],
    },
    /// MimeLite: `h = (1 - beta) * g + beta * stat`.
    Interp {
        /// Interpolation weight toward the server statistic.
        beta: f32,
        /// Server-held full-batch gradient statistic.
        stat: &'a [f32],
    },
}

impl GradAdjust<'_> {
    /// Validate that every companion vector covers all `n` parameters.
    fn check_sizes(&self, n: usize) {
        let ck = |name: &str, s: &[f32]| {
            assert_eq!(s.len(), n, "GradAdjust::{name}: companion size mismatch");
        };
        match *self {
            GradAdjust::None => {}
            GradAdjust::Prox { anchor, .. } => ck("Prox", anchor),
            GradAdjust::Triplet { global, hist, .. } => {
                ck("Triplet", global);
                ck("Triplet", hist);
            }
            GradAdjust::DynReg { lambda, global, .. } => {
                ck("DynReg", lambda);
                ck("DynReg", global);
            }
            GradAdjust::ControlVariates { c_server, c_client } => {
                ck("ControlVariates", c_server);
                ck("ControlVariates", c_client);
            }
            GradAdjust::Interp { stat, .. } => ck("Interp", stat),
        }
    }
}

/// A first-order optimizer stepping a [`Sequential`] in place.
pub trait Optimizer: Send {
    /// Apply one update step, adjusting each gradient element on the fly.
    ///
    /// The network's gradient buffers are read-only here; the adjustment is
    /// applied inside the update expression.
    fn step_adjusted(&mut self, net: &mut Sequential, adjust: &GradAdjust<'_>);

    /// Apply one plain update step using the accumulated gradients.
    fn step(&mut self, net: &mut Sequential) {
        self.step_adjusted(net, &GradAdjust::None);
    }

    /// Clear internal state (momentum buffers).
    fn reset(&mut self);

    /// Learning rate currently in effect.
    fn learning_rate(&self) -> f32;

    /// Clone into a boxed trait object.
    fn clone_box(&self) -> Box<dyn Optimizer>;
}

impl Clone for Box<dyn Optimizer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// One fused plain-SGD sweep: `w -= lr * adj(w, g, c)`.
///
/// Each parameter block hands `adj` its `K` companion slices
/// `[off..off + len]`, element by element alongside the block's parameters
/// and gradients. `adj` is monomorphized per adjustment variant and every
/// slice has the block's length, so the inner loop carries no branches
/// and vectorises.
#[inline]
fn sgd_sweep<const K: usize>(
    net: &mut Sequential,
    lr: f32,
    companions: [&[f32]; K],
    adj: impl Fn(f32, f32, [f32; K]) -> f32,
) {
    net.for_each_param_grad(&mut |off, p, g| {
        let len = p.len();
        let g = &g[..len];
        let c = companions.map(|s| &s[off..off + len]);
        for i in 0..len {
            p[i] -= lr * adj(p[i], g[i], c.map(|s| s[i]));
        }
    });
}

/// One fused momentum sweep: `v = m * v + adj(w, g, c); w -= lr * v`,
/// block-sliced like [`sgd_sweep`].
#[inline]
fn momentum_sweep<const K: usize>(
    net: &mut Sequential,
    lr: f32,
    momentum: f32,
    velocity: &mut [f32],
    companions: [&[f32]; K],
    adj: impl Fn(f32, f32, [f32; K]) -> f32,
) {
    net.for_each_param_grad(&mut |off, p, g| {
        let len = p.len();
        let c = companions.map(|s| &s[off..off + len]);
        let v = &mut velocity[off..off + len];
        momentum_block(p, g, v, c, &adj, lr, momentum);
    });
}

/// The body of [`momentum_sweep`] for one block. The velocity slice comes
/// in as an argument, not through the sweep closure's captures, so the
/// compiler knows it aliases neither the parameters nor the companions.
#[inline]
fn momentum_block<const K: usize>(
    p: &mut [f32],
    g: &[f32],
    v: &mut [f32],
    c: [&[f32]; K],
    adj: &impl Fn(f32, f32, [f32; K]) -> f32,
    lr: f32,
    momentum: f32,
) {
    let len = p.len();
    let (g, v) = (&g[..len], &mut v[..len]);
    for i in 0..len {
        v[i] = momentum * v[i] + adj(p[i], g[i], c.map(|s| s[i]));
        p[i] -= lr * v[i];
    }
}

/// Plain stochastic gradient descent: `w -= lr * h`.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Create plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step_adjusted(&mut self, net: &mut Sequential, adjust: &GradAdjust<'_>) {
        adjust.check_sizes(net.num_params());
        let lr = self.lr;
        match *adjust {
            GradAdjust::None => sgd_sweep(net, lr, [], |_, g, []| g),
            GradAdjust::Prox { mu, anchor } => {
                sgd_sweep(net, lr, [anchor], |w, g, [a]| g + mu * (w - a));
            }
            GradAdjust::Triplet {
                mu,
                xi,
                global,
                hist,
            } => {
                sgd_sweep(net, lr, [global, hist], |w, g, [gl, h]| {
                    g + mu * ((w - gl) + xi * (h - w))
                });
            }
            GradAdjust::DynReg {
                alpha,
                lambda,
                global,
            } => {
                sgd_sweep(net, lr, [lambda, global], |w, g, [l, gl]| {
                    g + (-l + alpha * (w - gl))
                });
            }
            GradAdjust::ControlVariates { c_server, c_client } => {
                sgd_sweep(net, lr, [c_server, c_client], |_, g, [cs, cc]| {
                    g + (cs - cc)
                });
            }
            GradAdjust::Interp { beta, stat } => {
                sgd_sweep(net, lr, [stat], |_, g, [st]| (1.0 - beta) * g + beta * st);
            }
        }
    }

    fn reset(&mut self) {}

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn clone_box(&self) -> Box<dyn Optimizer> {
        Box::new(self.clone())
    }
}

/// SGD with (PyTorch-convention) momentum:
/// `v = m * v + h; w -= lr * v`.
#[derive(Debug, Clone)]
pub struct SgdMomentum {
    lr: f32,
    momentum: f32,
    /// Flat velocity buffer, one element per parameter (lazily sized).
    velocity: Vec<f32>,
}

impl SgdMomentum {
    /// Create SGD-with-momentum. The paper default is `lr=0.01, m=0.9`.
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        SgdMomentum {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for SgdMomentum {
    fn step_adjusted(&mut self, net: &mut Sequential, adjust: &GradAdjust<'_>) {
        let n = net.num_params();
        adjust.check_sizes(n);
        if self.velocity.len() != n {
            // `clear + resize` keeps the allocation across `reset()` cycles
            self.velocity.clear();
            self.velocity.resize(n, 0.0);
        }
        let lr = self.lr;
        let m = self.momentum;
        let vel = self.velocity.as_mut_slice();
        match *adjust {
            GradAdjust::None => momentum_sweep(net, lr, m, vel, [], |_, g, []| g),
            GradAdjust::Prox { mu, anchor } => {
                momentum_sweep(net, lr, m, vel, [anchor], |w, g, [a]| g + mu * (w - a));
            }
            GradAdjust::Triplet {
                mu,
                xi,
                global,
                hist,
            } => {
                momentum_sweep(net, lr, m, vel, [global, hist], |w, g, [gl, h]| {
                    g + mu * ((w - gl) + xi * (h - w))
                });
            }
            GradAdjust::DynReg {
                alpha,
                lambda,
                global,
            } => {
                momentum_sweep(net, lr, m, vel, [lambda, global], |w, g, [l, gl]| {
                    g + (-l + alpha * (w - gl))
                });
            }
            GradAdjust::ControlVariates { c_server, c_client } => {
                momentum_sweep(net, lr, m, vel, [c_server, c_client], |_, g, [cs, cc]| {
                    g + (cs - cc)
                });
            }
            GradAdjust::Interp { beta, stat } => {
                momentum_sweep(net, lr, m, vel, [stat], |_, g, [st]| {
                    (1.0 - beta) * g + beta * st
                });
            }
        }
    }

    fn reset(&mut self) {
        self.velocity.clear();
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn clone_box(&self) -> Box<dyn Optimizer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Dense;
    use crate::rng::Prng;
    use crate::vecops;

    fn one_layer_net(rng: &mut Prng) -> Sequential {
        Sequential::new(&[2]).with(Dense::new(2, 2, rng))
    }

    #[test]
    fn sgd_step_is_w_minus_lr_g() {
        let mut rng = Prng::seed_from_u64(1);
        let mut net = one_layer_net(&mut rng);
        let w0 = net.params_flat();
        net.zero_grads();
        let g = vec![1.0f32; net.num_params()];
        net.set_grads_flat(&g);
        let mut opt = Sgd::new(0.1);
        opt.step(&mut net);
        let w1 = net.params_flat();
        for (a, b) in w0.iter().zip(&w1) {
            assert!((a - 0.1 - b).abs() < 1e-6);
        }
    }

    #[test]
    fn momentum_accumulates_across_steps() {
        let mut rng = Prng::seed_from_u64(2);
        let mut net = one_layer_net(&mut rng);
        let w0 = net.params_flat();
        let g = vec![1.0f32; net.num_params()];
        let mut opt = SgdMomentum::new(0.1, 0.9);
        // step 1: v=1, w -= 0.1
        net.set_grads_flat(&g);
        opt.step(&mut net);
        // step 2: v=1.9, w -= 0.19
        net.set_grads_flat(&g);
        opt.step(&mut net);
        let w2 = net.params_flat();
        for (a, b) in w0.iter().zip(&w2) {
            assert!((a - 0.1 - 0.19 - b).abs() < 1e-5, "{a} {b}");
        }
    }

    #[test]
    fn momentum_reset_clears_velocity() {
        let mut rng = Prng::seed_from_u64(3);
        let mut net = one_layer_net(&mut rng);
        let g = vec![1.0f32; net.num_params()];
        let mut opt = SgdMomentum::new(0.1, 0.9);
        net.set_grads_flat(&g);
        opt.step(&mut net);
        opt.reset();
        let w1 = net.params_flat();
        net.set_grads_flat(&g);
        opt.step(&mut net);
        let w2 = net.params_flat();
        // after reset the step is again lr * g exactly
        for (a, b) in w1.iter().zip(&w2) {
            assert!((a - 0.1 - b).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_momentum_equals_plain_sgd() {
        let mut rng = Prng::seed_from_u64(4);
        let mut net_a = one_layer_net(&mut rng);
        let mut net_b = net_a.clone();
        let g: Vec<f32> = (0..net_a.num_params()).map(|i| i as f32 * 0.01).collect();
        net_a.set_grads_flat(&g);
        net_b.set_grads_flat(&g);
        Sgd::new(0.05).step(&mut net_a);
        SgdMomentum::new(0.05, 0.0).step(&mut net_b);
        assert_eq!(net_a.params_flat(), net_b.params_flat());
    }

    /// Reference for the fused sweeps: apply `hook` to a flat gradient
    /// clone (the pre-fusion data path), scatter it back, plain-step, and
    /// restore the original grads.
    fn hook_then_step(
        net: &mut Sequential,
        opt: &mut dyn Optimizer,
        hook: impl Fn(&mut Vec<f32>, &[f32]),
    ) {
        let params = net.params_flat();
        let mut grads = net.grads_flat();
        let saved = grads.clone();
        hook(&mut grads, &params);
        net.set_grads_flat(&grads);
        opt.step(net);
        net.set_grads_flat(&saved);
    }

    /// Shared fixture: a net with pseudo-random params/grads plus companion
    /// vectors, returned as (net, grads, companion-a, companion-b).
    fn fused_fixture(seed: u64) -> (Sequential, Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut rng = Prng::seed_from_u64(seed);
        let net = Sequential::new(&[3])
            .with(Dense::new(3, 4, &mut rng))
            .with(Dense::new(4, 2, &mut rng));
        let n = net.num_params();
        let g: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let a: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        (net, g, a, b)
    }

    #[test]
    fn fused_prox_matches_hook_then_step_bitwise() {
        for (mk_opt, seed) in [
            (
                (|| Box::new(Sgd::new(0.05)) as Box<dyn Optimizer>) as fn() -> Box<dyn Optimizer>,
                7u64,
            ),
            (|| Box::new(SgdMomentum::new(0.05, 0.9)), 8),
        ] {
            let (mut net, g, anchor, _) = fused_fixture(seed);
            let mut reference = net.clone();
            net.set_grads_flat(&g);
            reference.set_grads_flat(&g);
            let mu = 0.25f32;

            let mut opt_f = mk_opt();
            opt_f.step_adjusted(
                &mut net,
                &GradAdjust::Prox {
                    mu,
                    anchor: &anchor,
                },
            );

            let mut opt_r = mk_opt();
            hook_then_step(&mut reference, opt_r.as_mut(), |gr, w| {
                vecops::prox_adjust(gr, mu, w, &anchor);
            });

            assert_eq!(net.params_flat(), reference.params_flat());
            // fused path must leave the raw gradients untouched
            assert_eq!(net.grads_flat(), g);
        }
    }

    #[test]
    fn fused_triplet_matches_hook_then_step_bitwise() {
        let (mut net, g, global, hist) = fused_fixture(9);
        let mut reference = net.clone();
        net.set_grads_flat(&g);
        reference.set_grads_flat(&g);
        let (mu, xi) = (0.5f32, 0.125f32);

        let mut opt_f = SgdMomentum::new(0.01, 0.9);
        opt_f.step_adjusted(
            &mut net,
            &GradAdjust::Triplet {
                mu,
                xi,
                global: &global,
                hist: &hist,
            },
        );

        let mut opt_r = SgdMomentum::new(0.01, 0.9);
        hook_then_step(&mut reference, &mut opt_r, |gr, w| {
            vecops::triplet_adjust(gr, mu, xi, w, &global, &hist);
        });

        assert_eq!(net.params_flat(), reference.params_flat());
    }

    #[test]
    fn fused_dyn_reg_matches_hook_then_step_bitwise() {
        let (mut net, g, lambda, global) = fused_fixture(10);
        let mut reference = net.clone();
        net.set_grads_flat(&g);
        reference.set_grads_flat(&g);
        let alpha = 0.1f32;

        let mut opt_f = Sgd::new(0.05);
        opt_f.step_adjusted(
            &mut net,
            &GradAdjust::DynReg {
                alpha,
                lambda: &lambda,
                global: &global,
            },
        );

        let mut opt_r = Sgd::new(0.05);
        hook_then_step(&mut reference, &mut opt_r, |gr, w| {
            for (i, gv) in gr.iter_mut().enumerate() {
                *gv += -lambda[i] + alpha * (w[i] - global[i]);
            }
        });

        assert_eq!(net.params_flat(), reference.params_flat());
    }

    #[test]
    fn fused_control_variates_matches_hook_then_step_bitwise() {
        let (mut net, g, c_server, c_client) = fused_fixture(11);
        let mut reference = net.clone();
        net.set_grads_flat(&g);
        reference.set_grads_flat(&g);

        let mut opt_f = Sgd::new(0.02);
        opt_f.step_adjusted(
            &mut net,
            &GradAdjust::ControlVariates {
                c_server: &c_server,
                c_client: &c_client,
            },
        );

        let mut opt_r = Sgd::new(0.02);
        hook_then_step(&mut reference, &mut opt_r, |gr, _| {
            for (i, gv) in gr.iter_mut().enumerate() {
                *gv += c_server[i] - c_client[i];
            }
        });

        assert_eq!(net.params_flat(), reference.params_flat());
    }

    #[test]
    fn fused_interp_matches_hook_then_step_bitwise() {
        let (mut net, g, stat, _) = fused_fixture(12);
        let mut reference = net.clone();
        net.set_grads_flat(&g);
        reference.set_grads_flat(&g);
        let beta = 0.3f32;

        let mut opt_f = SgdMomentum::new(0.01, 0.9);
        opt_f.step_adjusted(&mut net, &GradAdjust::Interp { beta, stat: &stat });

        let mut opt_r = SgdMomentum::new(0.01, 0.9);
        hook_then_step(&mut reference, &mut opt_r, |gr, _| {
            for (i, gv) in gr.iter_mut().enumerate() {
                *gv = (1.0 - beta) * *gv + beta * stat[i];
            }
        });

        assert_eq!(net.params_flat(), reference.params_flat());
    }

    /// The per-index closure sweeps the block-sliced kernels replaced,
    /// kept as the bit-identity oracle: every arm's f32 expression, in the
    /// same order, fed through a flat index into the companion vectors.
    fn reference_step(
        net: &mut Sequential,
        lr: f32,
        momentum: Option<(f32, &mut [f32])>,
        adjust: &GradAdjust<'_>,
    ) {
        let adj = |i: usize, w: f32, g: f32| match *adjust {
            GradAdjust::None => g,
            GradAdjust::Prox { mu, anchor } => g + mu * (w - anchor[i]),
            GradAdjust::Triplet {
                mu,
                xi,
                global,
                hist,
            } => g + mu * ((w - global[i]) + xi * (hist[i] - w)),
            GradAdjust::DynReg {
                alpha,
                lambda,
                global,
            } => g + (-lambda[i] + alpha * (w - global[i])),
            GradAdjust::ControlVariates { c_server, c_client } => g + (c_server[i] - c_client[i]),
            GradAdjust::Interp { beta, stat } => (1.0 - beta) * g + beta * stat[i],
        };
        match momentum {
            None => net.for_each_param_grad(&mut |off, p, g| {
                for (i, (pv, &gv)) in p.iter_mut().zip(g.iter()).enumerate() {
                    let h = adj(off + i, *pv, gv);
                    *pv -= lr * h;
                }
            }),
            Some((m, velocity)) => net.for_each_param_grad(&mut |off, p, g| {
                let v = &mut velocity[off..off + p.len()];
                for (i, ((pv, &gv), vv)) in p.iter_mut().zip(g.iter()).zip(v.iter_mut()).enumerate()
                {
                    let h = adj(off + i, *pv, gv);
                    *vv = m * *vv + h;
                    *pv -= lr * *vv;
                }
            }),
        }
    }

    /// Mostly normal draws, with ±0, subnormals, huge values, ±inf and NaN
    /// mixed in so the kernels are checked where IEEE rules bite.
    fn edgy(rng: &mut Prng) -> f32 {
        const SPECIAL: [f32; 10] = [
            0.0,
            -0.0,
            1e-40,
            -1e-40,
            f32::MIN_POSITIVE,
            3e38,
            -3e38,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        if rng.below(8) == 0 {
            SPECIAL[rng.below(SPECIAL.len())]
        } else {
            rng.normal()
        }
    }

    /// Bit equality, except that any NaN equals any NaN: Rust leaves the
    /// payload of a NaN produced by arithmetic unspecified, and vectorised
    /// code may commute the operands of `+` and `*`.
    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    #[test]
    fn block_sweeps_match_the_index_closure_oracle_bitwise() {
        for seed in 0..24u64 {
            let mut rng = Prng::seed_from_u64(100 + seed);
            // odd, uneven layer widths so blocks end off any vector width
            let (a, b, c) = (1 + rng.below(9), 1 + rng.below(17), 1 + rng.below(5));
            let mut net = Sequential::new(&[a])
                .with(Dense::new(a, b, &mut rng))
                .with(Dense::new(b, c, &mut rng));
            let n = net.num_params();
            let draw = |rng: &mut Prng| (0..n).map(|_| edgy(rng)).collect::<Vec<f32>>();
            let w0 = draw(&mut rng);
            let comp: Vec<Vec<f32>> = (0..2).map(|_| draw(&mut rng)).collect();
            let grads: Vec<Vec<f32>> = (0..3).map(|_| draw(&mut rng)).collect();
            let (k0, k1) = (&comp[0][..], &comp[1][..]);
            let (mu, xi) = (edgy(&mut rng), 0.5 * rng.uniform());
            let arms = [
                GradAdjust::None,
                GradAdjust::Prox { mu, anchor: k0 },
                GradAdjust::Triplet {
                    mu,
                    xi,
                    global: k0,
                    hist: k1,
                },
                GradAdjust::DynReg {
                    alpha: mu,
                    lambda: k0,
                    global: k1,
                },
                GradAdjust::ControlVariates {
                    c_server: k0,
                    c_client: k1,
                },
                GradAdjust::Interp { beta: xi, stat: k0 },
            ];
            for arm in &arms {
                for momentum in [None, Some(0.9f32)] {
                    net.set_params_flat(&w0);
                    let mut reference = net.clone();
                    let mut opt: Box<dyn Optimizer> = match momentum {
                        None => Box::new(Sgd::new(0.05)),
                        Some(m) => Box::new(SgdMomentum::new(0.05, m)),
                    };
                    let mut vel = vec![0.0f32; n];
                    // three steps, so the momentum buffers carry state
                    for g in &grads {
                        net.set_grads_flat(g);
                        reference.set_grads_flat(g);
                        opt.step_adjusted(&mut net, arm);
                        reference_step(
                            &mut reference,
                            0.05,
                            momentum.map(|m| (m, vel.as_mut_slice())),
                            arm,
                        );
                        assert!(
                            same_bits(&net.params_flat(), &reference.params_flat()),
                            "seed {seed}, {arm:?}, momentum {momentum:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "companion size mismatch")]
    fn rejects_short_companion_vector() {
        let mut rng = Prng::seed_from_u64(13);
        let mut net = one_layer_net(&mut rng);
        let short = vec![0.0f32; net.num_params() - 1];
        Sgd::new(0.1).step_adjusted(
            &mut net,
            &GradAdjust::Prox {
                mu: 0.1,
                anchor: &short,
            },
        );
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_nonpositive_lr() {
        let _ = Sgd::new(0.0);
    }

    #[test]
    fn constant_schedule_is_identity() {
        for r in [1, 10, 1000] {
            assert_eq!(LrSchedule::Constant.lr_at(0.01, r), 0.01);
        }
    }

    #[test]
    fn step_decay_halves_on_schedule() {
        let s = LrSchedule::StepDecay {
            every: 10,
            factor: 0.5,
        };
        assert_eq!(s.lr_at(0.4, 1), 0.4);
        assert_eq!(s.lr_at(0.4, 10), 0.4);
        assert_eq!(s.lr_at(0.4, 11), 0.2);
        assert_eq!(s.lr_at(0.4, 21), 0.1);
    }

    #[test]
    fn cosine_hits_endpoints_and_is_monotone() {
        let s = LrSchedule::Cosine {
            total: 100,
            min_lr: 0.001,
        };
        assert!((s.lr_at(0.1, 1) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(0.1, 101) - 0.001).abs() < 1e-7);
        // clamps past the end
        assert!((s.lr_at(0.1, 500) - 0.001).abs() < 1e-7);
        let mut prev = f32::INFINITY;
        for r in 1..=101 {
            let lr = s.lr_at(0.1, r);
            assert!(lr <= prev + 1e-9, "cosine not monotone at round {r}");
            prev = lr;
        }
    }

    #[test]
    #[should_panic(expected = "period")]
    fn step_decay_rejects_zero_period() {
        let _ = LrSchedule::StepDecay {
            every: 0,
            factor: 0.5,
        }
        .lr_at(0.1, 5);
    }
}
