//! Local-training fan-out.
//!
//! One batch of clients trains **in parallel** (rayon — clients are
//! independent) from a given global model. Outcomes are returned in the
//! order the clients were passed in, and every client derives its own RNG
//! stream from `(seed, round, client)`, so thread scheduling can never
//! change results. Both schedulers share this one code path. The executor
//! is also where the upload codec ([`crate::compression`]) bites: each
//! outcome's parameters are encoded/decoded (with optional error feedback)
//! in place before any scheduler sees them, so the server only ever
//! aggregates what actually travelled the wire.
//!
//! ```
//! use fedtrip_core::algorithms::{AlgorithmKind, ClientStateStore, HyperParams};
//! use fedtrip_core::compression::Identity;
//! use fedtrip_core::engine::SimulationConfig;
//! use fedtrip_core::runtime::ClientExecutor;
//! use fedtrip_data::partition::Partition;
//! use fedtrip_data::synth::SyntheticVision;
//! use fedtrip_models::ModelKind;
//!
//! // a tiny 4-client federation, assembled by hand (the engine normally
//! // does all of this)
//! let cfg = SimulationConfig {
//!     model: ModelKind::TinyMlp,
//!     n_clients: 4,
//!     clients_per_round: 2,
//!     batch_size: 10,
//!     client_samples_override: Some(20),
//!     ..SimulationConfig::default()
//! };
//! let dataset = SyntheticVision::new(cfg.dataset, cfg.seed);
//! let mut spec = *dataset.spec();
//! spec.client_samples = 20;
//! let partition = Partition::build(&spec, cfg.heterogeneity, 4, cfg.seed);
//! let template = cfg.model.build(&spec.sample_shape(), spec.classes, cfg.seed);
//! let exec = ClientExecutor {
//!     cfg: &cfg,
//!     dataset: &dataset,
//!     partition: &partition,
//!     template: &template,
//!     compressor: &Identity,
//!     down_delta: false,
//!     resync_round: false,
//!     broadcast_epoch: 0,
//! };
//!
//! // train clients 1 and 3 in parallel from the initial global model
//! let global = template.params_flat();
//! let mut states = ClientStateStore::new(4);
//! let algorithm = AlgorithmKind::FedAvg.build(&HyperParams::default());
//! let outcomes = exec.train_batch(algorithm.as_ref(), &global, &mut states, &[1, 3], 1);
//! assert_eq!(outcomes.len(), 2);
//! assert!(outcomes.iter().all(|o| o.iterations > 0));
//! // only the two participants became resident in the sparse store
//! assert_eq!(states.resident(), 2);
//! assert_eq!(states.get(1).and_then(|s| s.last_round), Some(1));
//! assert_eq!(states.get(3).and_then(|s| s.last_round), Some(1));
//! ```

use crate::algorithms::{
    Algorithm, ClientData, ClientState, ClientStateStore, LocalContext, LocalOutcome,
};
use crate::compression::{error_feedback_into, Compressor};
use crate::engine::SimulationConfig;
use fedtrip_data::partition::Partition;
use fedtrip_data::synth::{SampleRef, SyntheticVision};
use fedtrip_tensor::Sequential;
use rayon::prelude::*;
use std::sync::Arc;

/// Shared, read-only context for training a batch of clients.
pub struct ClientExecutor<'a> {
    /// Engine configuration (epochs, batch size, LR schedule, seed).
    pub cfg: &'a SimulationConfig,
    /// The procedural dataset.
    pub dataset: &'a SyntheticVision,
    /// Per-client sample assignment.
    pub partition: &'a Partition,
    /// Architecture template (cloned once per worker group).
    pub template: &'a Sequential,
    /// Upload codec applied to each outcome before it reaches the server
    /// (the lossless [`Identity`](crate::compression::Identity) skips the
    /// round trip entirely).
    pub compressor: &'a dyn Compressor,
    /// Whether the downlink broadcasts compressed **deltas** (a non-identity
    /// downlink codec). When `false` every broadcast is a dense full-model
    /// send and per-client sync epochs are never touched — the pre-delta
    /// path, bit for bit.
    pub down_delta: bool,
    /// Whether this round is a periodic full-model resync (every client
    /// receives the dense base regardless of its sync epoch).
    pub resync_round: bool,
    /// The server's current broadcast sync epoch: clients whose
    /// [`ClientState::sync_epoch`] differs (joiners, anyone who missed a
    /// resync) receive an on-demand dense base before any delta.
    pub broadcast_epoch: u64,
}

impl ClientExecutor<'_> {
    /// Train `clients` in parallel from `global`, as server step `round`
    /// (1-based; also the LR-schedule index and the RNG stream tag).
    ///
    /// Client states are taken out of the sparse `states` store for the
    /// duration of training and returned afterwards (which is what makes a
    /// client *resident*: only clients that ever reach this point hold a
    /// store entry); outcomes come back in `clients` order. The round's
    /// shards are materialized from the lazy partition **before** the
    /// parallel fan-out, so the memo fill stays deterministic and
    /// lock-free workers only read.
    pub fn train_batch(
        &self,
        algorithm: &dyn Algorithm,
        global: &[f32],
        states: &mut ClientStateStore,
        clients: &[usize],
        round: usize,
    ) -> Vec<LocalOutcome> {
        // pull the selected clients' states (and shards) so rayon workers
        // own everything they need
        let mut taken: Vec<(usize, ClientState, Arc<[SampleRef]>)> = clients
            .iter()
            .map(|&c| (c, states.take(c), self.partition.shard(c)))
            .collect();

        let cfg = self.cfg;
        let dataset = self.dataset;
        let template = self.template;
        let compressor = self.compressor;
        let (down_delta, resync_round, broadcast_epoch) =
            (self.down_delta, self.resync_round, self.broadcast_epoch);
        let round_lr = cfg.lr_schedule.lr_at(cfg.lr, round);

        // One template clone per worker group, not per client: the network
        // (its scratch arena, layer caches, and the thread-local GEMM pack
        // buffers it warms) is reused across every client in the group, so
        // steady-state local training stays allocation-free. Reuse cannot
        // change results: loading the global parameters plus the per-batch
        // `zero_grads` resets everything a training run reads, and scratch
        // buffers are overwritten before use — so outcomes are independent
        // of how clients are grouped onto workers.
        let groups = rayon::current_num_threads().max(1);
        let chunk = taken.len().div_ceil(groups).max(1);
        let grouped: Vec<Vec<LocalOutcome>> = taken
            .par_chunks_mut(chunk)
            .map(|group| {
                let mut net = template.clone();
                let mut outs = Vec::with_capacity(group.len());
                // codec scratch, reused by every client in the group
                let (mut delta, mut wire) = (Vec::new(), Vec::new());
                for (client_id, state, shard) in group.iter_mut() {
                    net.set_params_flat(global);
                    let ctx = LocalContext {
                        round,
                        client_id: *client_id,
                        global,
                        gap: state.last_round.map(|lr| round.saturating_sub(lr)),
                        epochs: cfg.local_epochs,
                        batch_size: cfg.batch_size,
                        lr: round_lr,
                        momentum: cfg.momentum,
                        seed: cfg.seed,
                    };
                    let data = ClientData {
                        dataset,
                        refs: &shard[..],
                    };
                    let mut outcome = algorithm.local_train(&mut net, &data, state, &ctx);
                    // delta-downlink bookkeeping: a client whose view is not
                    // in the current sync epoch (first participation, churn
                    // joiner, a missed resync) — or anyone on a resync
                    // round — received the dense base; everyone else got
                    // the compressed delta. Dense downlinks leave the epoch
                    // `None`: nothing reads it there, so their client states
                    // and snapshots carry no sync bookkeeping.
                    if down_delta {
                        outcome.dense_down =
                            resync_round || state.sync_epoch != Some(broadcast_epoch);
                        state.sync_epoch = Some(broadcast_epoch);
                    }
                    if !compressor.is_identity() {
                        compress_outcome(
                            &mut outcome,
                            global,
                            state,
                            compressor,
                            cfg.error_feedback,
                            (&mut delta, &mut wire),
                        );
                    }
                    outs.push(outcome);
                }
                outs
            })
            .collect();
        let outcomes: Vec<LocalOutcome> = grouped.into_iter().flatten().collect();

        // return states
        for (c, s, _) in taken {
            states.put(c, s);
        }
        outcomes
    }
}

/// Encode/decode a client's upload through the codec at the
/// executor→scheduler boundary, so the server only ever sees what actually
/// travelled the wire.
///
/// The codec works on the *update* `w_k - w_global` (updates are
/// near-zero-centred, which is what makes affine quantization and top-k
/// selection effective); the reconstructed parameters
/// `w_global + decode(encode(delta))` overwrite `outcome.params` in place.
/// With error feedback on, the part of the (residual-compensated) update
/// the encoding dropped is stored back into [`ClientState::residual`] and
/// rides this client's next participation. The client's own local state
/// (`historical`, corrections) keeps the uncompressed model — only the
/// server-bound copy is lossy. Auxiliary uploads (SCAFFOLD's
/// control-variate delta, MimeLite's full-batch gradient) take the same
/// codec without feedback. `delta` and `wire` are scratch buffers, reused
/// across calls.
fn compress_outcome(
    outcome: &mut LocalOutcome,
    global: &[f32],
    state: &mut ClientState,
    compressor: &dyn Compressor,
    error_feedback: bool,
    (delta, wire): (&mut Vec<f32>, &mut Vec<u8>),
) {
    delta.clear();
    delta.extend(outcome.params.iter().zip(global).map(|(&p, &g)| p - g));
    error_feedback_into(
        compressor,
        delta,
        &mut state.residual,
        error_feedback,
        wire,
        &mut outcome.params,
    );
    for (p, &g) in outcome.params.iter_mut().zip(global) {
        *p += g;
    }
    if let Some(aux) = outcome.aux.as_mut() {
        delta.clone_from(aux);
        compressor.encode_decode_into(delta, wire, aux);
    }
}
