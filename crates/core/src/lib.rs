//! # fedtrip-core
//!
//! The federated-learning engine of the FedTrip reproduction.
//!
//! * [`engine`] — the simulation driver: seeded K-of-N client selection,
//!   parallel local training (rayon), weighted aggregation `w_t = Σ a_k w_k`
//!   (Eq. 2), and per-round evaluation, as a thin loop over [`runtime`].
//! * [`runtime`] — the layered federation runtime the engine composes: a
//!   `Scheduler` (the paper's synchronous barrier, bit-identical, plus a
//!   FedBuff-style semi-async buffered aggregator with staleness-discounted
//!   weights), a `Sampler` (selection + straggler injection), a
//!   `ClientExecutor` (training fan-out), and a `VirtualClock` with
//!   seed-derived per-client `DeviceProfile`s.
//! * [`algorithms`] — the paper's contribution (**FedTrip**, Algorithm 1) and
//!   every baseline it is evaluated against: FedAvg, FedProx, MOON, FedDyn,
//!   SlowMo, plus the Appendix-A comparators SCAFFOLD and MimeLite.
//! * [`costs`] — the analytic resource model of Appendix A / Table VIII:
//!   per-iteration "attaching operation" FLOPs and communication overhead of
//!   every method, composed with model forward/backward FLOPs to reproduce
//!   Tables V and VIII.
//! * [`compression`] — client-upload codecs (8/4-bit affine quantization,
//!   top-k sparsification) with exact encoded-byte accounting and optional
//!   error feedback; the engine charges the compressed bytes to the virtual
//!   clock so codecs trade accuracy-per-round against seconds-per-round.
//! * [`experiment`] — declarative experiment specs with `smoke` / `default` /
//!   `paper` scales, shared by the examples, the integration tests and every
//!   table/figure binary in `fedtrip-bench`.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type
)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod checkpoint;
pub mod compression;
pub mod costs;
pub mod engine;
pub mod experiment;
pub mod runtime;

pub use algorithms::{Algorithm, AlgorithmKind, HyperParams};
pub use checkpoint::Checkpoint;
pub use compression::{CompressionKind, Compressor};
pub use costs::{AttachCost, CostModel};
pub use engine::{RoundRecord, RunMode, SelectionStrategy, Simulation, SimulationConfig};
pub use experiment::{ExperimentSpec, Scale};
pub use runtime::{DeviceProfile, Sampler, Scheduler, SemiAsync, Synchronous, VirtualClock};

// The canonical import point for the RNG stream-tag registry: the module
// lives in `fedtrip-tensor` (next to `Prng`, below the data/model crates in
// the dependency graph) and is re-exported here for engine-level code.
pub use fedtrip_tensor::rng_tags;
