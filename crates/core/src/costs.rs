//! Analytic resource model (paper Appendix A, Tables V and VIII).
//!
//! The paper compares methods by the cost of their *attaching operations* —
//! the extra work a method performs on top of vanilla local SGD — plus any
//! extra communication. Costs are expressed with the paper's symbols:
//!
//! * `K` — local iterations per round,
//! * `M` — mini-batch size,
//! * `n` — local data samples,
//! * `|w|` — model parameter count,
//! * `FP` / `BP` — forward / backward FLOPs for a single sample,
//! * `p` — number of historical models MOON contrasts against (1 here).
//!
//! [`CostModel`] carries those quantities for a concrete experiment;
//! [`AttachCost`] is the per-round result, and [`RoundCosts`] the bytes a
//! simulated round charges once the codecs have had their say.

use serde::{Deserialize, Serialize};

/// Quantities entering the Appendix-A cost formulas for one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// `|w|` — number of model parameters.
    pub n_params: usize,
    /// `FP` — forward FLOPs per sample.
    pub fp_per_sample: u64,
    /// `BP` — backward FLOPs per sample.
    pub bp_per_sample: u64,
    /// `M` — mini-batch size.
    pub batch_size: usize,
    /// `K` — local iterations per round (`ceil(n / M) * epochs`).
    pub local_iterations: usize,
    /// `n` — local training samples per client.
    pub local_samples: usize,
}

impl CostModel {
    /// Baseline training FLOPs per client per round: every local iteration
    /// runs forward + backward over one mini-batch.
    pub fn base_train_flops(&self) -> f64 {
        self.local_iterations as f64
            * self.batch_size as f64
            * (self.fp_per_sample + self.bp_per_sample) as f64
    }

    /// `K * |w|` in FLOPs — the unit the vector-op formulas are built from.
    fn kw(&self) -> f64 {
        self.local_iterations as f64 * self.n_params as f64
    }
}

/// Per-round, per-client overhead of a method's attaching operations.
///
/// Communication overhead is kept as directed *value counts* rather than
/// bytes: the client→server half rides the same uplink as the model update
/// and is therefore subject to the configured upload codec
/// ([`crate::compression`]), and the server→client half likewise rides the
/// broadcast — dense f32 by default, or through the downlink codec when
/// delta broadcasts are enabled.
/// [`AttachCost::extra_comm_bytes`] gives the uncompressed byte total the
/// paper's Table VIII reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttachCost {
    /// Extra computation (FLOPs) per client per round.
    pub flops: f64,
    /// Extra f32 values *uploaded* (client→server) per round, beyond the
    /// `|w|` model parameters every method already sends (e.g. SCAFFOLD's
    /// control-variate delta).
    pub up_params: usize,
    /// Extra f32 values *downloaded* (server→client) per round, beyond the
    /// `|w|` model parameters every method already receives (e.g.
    /// MimeLite's server statistics).
    pub down_params: usize,
}

impl AttachCost {
    /// No overhead (FedAvg baseline).
    pub const ZERO: AttachCost = AttachCost {
        flops: 0.0,
        up_params: 0,
        down_params: 0,
    };

    /// Uncompressed extra communication in bytes (up + down combined) per
    /// client per round — the paper's Table VIII quantity. The engine
    /// instead routes [`AttachCost::up_params`] through the configured
    /// codec's `encoded_len`, so clock and cost tables agree when
    /// compression is off and diverge exactly by the codec ratio when on.
    pub fn extra_comm_bytes(&self) -> usize {
        (self.up_params + self.down_params) * std::mem::size_of::<f32>()
    }
}

/// What one round charges on the wire, in bytes per client and per edge,
/// built by `Env::round_costs` from the codecs and the [`AttachCost`].
#[derive(Debug, Clone, Copy)]
pub struct RoundCosts {
    /// One client's upload: `|w|` plus the uplink extras, each encoded.
    pub up: f64,
    /// The same upload at raw f32 width.
    pub dense_up: f64,
    /// A dense full-model broadcast (`|w|` plus downlink extras, raw f32).
    pub down_dense: f64,
    /// An encoded delta broadcast (`down_dense` on a dense downlink).
    pub down_delta: f64,
    /// Each active edge's summary uplink to the root (`0.0` at `E = 1`).
    pub edge_up: f64,
    /// The broadcast relayed to each active edge: dense on resyncs, else
    /// the delta (`0.0` at `E = 1` or on a dense downlink).
    pub edge_down: f64,
    /// Seconds of one edge's root links at the reference bandwidth
    /// (provisioned sites, unlike client devices); `0.0` at `E = 1`.
    pub edge_secs: f64,
}

impl RoundCosts {
    /// One broadcast: the dense model or the encoded delta.
    pub fn down(&self, dense: bool) -> f64 {
        if dense {
            self.down_dense
        } else {
            self.down_delta
        }
    }

    /// One client's round trip: its upload plus the broadcast it received.
    pub fn client(&self, dense_down: bool) -> f64 {
        self.up + self.down(dense_down)
    }
}

/// Appendix-A Table VIII rows, as functions of the cost model.
pub mod formulas {
    use super::{AttachCost, CostModel};

    /// FedAvg: no attaching operations.
    pub fn fedavg(_m: &CostModel) -> AttachCost {
        AttachCost::ZERO
    }

    /// FedProx: `2 K |w|` — one subtraction + one axpy per iteration.
    pub fn fedprox(m: &CostModel) -> AttachCost {
        AttachCost {
            flops: 2.0 * m.kw(),
            ..AttachCost::ZERO
        }
    }

    /// FedTrip: `4 K |w|` — the fused triplet kernel touches two anchor
    /// vectors (global + historical) per iteration.
    pub fn fedtrip(m: &CostModel) -> AttachCost {
        AttachCost {
            flops: 4.0 * m.kw(),
            ..AttachCost::ZERO
        }
    }

    /// FedDyn: `4 K |w|` — linear-correction term + proximal term.
    pub fn feddyn(m: &CostModel) -> AttachCost {
        AttachCost {
            flops: 4.0 * m.kw(),
            ..AttachCost::ZERO
        }
    }

    /// MOON: `K * M * (1 + p) * FP` — two extra forward passes per sample
    /// per iteration (global model and `p = 1` historical model).
    pub fn moon(m: &CostModel, p_history: usize) -> AttachCost {
        AttachCost {
            flops: m.local_iterations as f64
                * m.batch_size as f64
                * (1 + p_history) as f64
                * m.fp_per_sample as f64,
            ..AttachCost::ZERO
        }
    }

    /// SlowMo: server-side momentum only — no client attach cost.
    pub fn slowmo(_m: &CostModel) -> AttachCost {
        AttachCost::ZERO
    }

    /// SCAFFOLD: `2 (K + 1) |w|` control-variate arithmetic plus a
    /// full-batch gradient `n (FP + BP)`, and `2 |w|` extra communication
    /// (control variates travel both ways: the server's `c` down, the
    /// client's control-variate delta up).
    pub fn scaffold(m: &CostModel) -> AttachCost {
        AttachCost {
            flops: 2.0 * (m.local_iterations + 1) as f64 * m.n_params as f64
                + m.local_samples as f64 * (m.fp_per_sample + m.bp_per_sample) as f64,
            up_params: m.n_params,
            down_params: m.n_params,
        }
    }

    /// MimeLite: full-batch gradient at the server model, `n (FP + BP)`,
    /// and `2 |w|` extra communication (server statistics down, full-batch
    /// gradient up).
    pub fn mimelite(m: &CostModel) -> AttachCost {
        AttachCost {
            flops: m.local_samples as f64 * (m.fp_per_sample + m.bp_per_sample) as f64,
            up_params: m.n_params,
            down_params: m.n_params,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::formulas::*;
    use super::*;

    fn cnn_like() -> CostModel {
        // LeNet-5 class numbers (paper CNN): |w| ~ 62k, FP ~ 0.9 MFLOPs
        CostModel {
            n_params: 61_706,
            fp_per_sample: 900_000,
            bp_per_sample: 1_700_000,
            batch_size: 50,
            local_iterations: 12,
            local_samples: 600,
        }
    }

    #[test]
    fn fedtrip_is_twice_fedprox() {
        let m = cnn_like();
        assert_eq!(fedtrip(&m).flops, 2.0 * fedprox(&m).flops);
    }

    #[test]
    fn fedtrip_equals_feddyn() {
        let m = cnn_like();
        assert_eq!(fedtrip(&m).flops, feddyn(&m).flops);
    }

    #[test]
    fn moon_dwarfs_fedtrip_on_cnn() {
        // Paper §V-B: MOON's attach cost is 171.4x FedTrip's on CNN.
        let m = cnn_like();
        let ratio = moon(&m, 1).flops / fedtrip(&m).flops;
        assert!(
            ratio > 100.0 && ratio < 500.0,
            "MOON/FedTrip attach ratio {ratio} out of the paper's ballpark"
        );
    }

    #[test]
    fn moon_ratio_grows_with_model_compute_density() {
        // Paper: ratio is 50x on MLP, 171x on CNN, 1336x on AlexNet — denser
        // models (more FLOPs per parameter) widen the gap.
        let mlp = CostModel {
            n_params: 79_510,
            fp_per_sample: 160_000,
            bp_per_sample: 320_000,
            batch_size: 50,
            local_iterations: 12,
            local_samples: 600,
        };
        let alex = CostModel {
            n_params: 2_500_000,
            fp_per_sample: 280_000_000,
            bp_per_sample: 560_000_000,
            batch_size: 50,
            local_iterations: 40,
            local_samples: 2_000,
        };
        let cnn = cnn_like();
        let r_mlp = moon(&mlp, 1).flops / fedtrip(&mlp).flops;
        let r_cnn = moon(&cnn, 1).flops / fedtrip(&cnn).flops;
        let r_alex = moon(&alex, 1).flops / fedtrip(&alex).flops;
        assert!(r_mlp < r_cnn && r_cnn < r_alex, "{r_mlp} {r_cnn} {r_alex}");
    }

    #[test]
    fn only_scaffold_and_mimelite_add_communication() {
        let m = cnn_like();
        assert_eq!(fedavg(&m).extra_comm_bytes(), 0);
        assert_eq!(fedprox(&m).extra_comm_bytes(), 0);
        assert_eq!(fedtrip(&m).extra_comm_bytes(), 0);
        assert_eq!(feddyn(&m).extra_comm_bytes(), 0);
        assert_eq!(moon(&m, 1).extra_comm_bytes(), 0);
        assert_eq!(slowmo(&m).extra_comm_bytes(), 0);
        assert_eq!(scaffold(&m).extra_comm_bytes(), 2 * m.n_params * 4);
        assert_eq!(mimelite(&m).extra_comm_bytes(), 2 * m.n_params * 4);
        // the uplink half is what the upload codec sees
        assert_eq!(scaffold(&m).up_params, m.n_params);
        assert_eq!(mimelite(&m).down_params, m.n_params);
    }

    #[test]
    fn scaffold_includes_full_batch_gradient() {
        let m = cnn_like();
        let full_grad = m.local_samples as f64 * (m.fp_per_sample + m.bp_per_sample) as f64;
        assert!(scaffold(&m).flops > full_grad);
        assert_eq!(mimelite(&m).flops, full_grad);
    }

    #[test]
    fn base_train_flops_scales_with_iterations() {
        let mut m = cnn_like();
        let f1 = m.base_train_flops();
        m.local_iterations *= 2;
        assert_eq!(m.base_train_flops(), 2.0 * f1);
    }
}
