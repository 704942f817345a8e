//! # fedtrip
//!
//! Facade crate for the FedTrip reproduction workspace. Re-exports the
//! public API of every sub-crate so applications can depend on a single
//! crate:
//!
//! ```
//! use fedtrip::prelude::*;
//!
//! let spec = ExperimentSpec::quickstart();
//! assert_eq!(spec.algorithm, AlgorithmKind::FedTrip);
//! ```
//!
//! See the workspace `README.md` for the architecture overview and
//! `DESIGN.md` for the paper-to-module map.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type
)]

pub use fedtrip_core as core;
pub use fedtrip_data as data;
pub use fedtrip_metrics as metrics;
pub use fedtrip_models as models;
pub use fedtrip_tensor as tensor;

/// Commonly used items, re-exported for `use fedtrip::prelude::*`.
pub mod prelude {
    pub use fedtrip_core::algorithms::{AlgorithmKind, FedTripConfig};
    pub use fedtrip_core::compression::{CompressionKind, Compressor};
    pub use fedtrip_core::engine::{RoundRecord, Simulation, SimulationConfig};
    pub use fedtrip_core::experiment::{ExperimentSpec, Scale};
    pub use fedtrip_data::partition::{HeterogeneityKind, Partition};
    pub use fedtrip_data::synth::{DatasetKind, SyntheticVision};
    pub use fedtrip_models::ModelKind;
    pub use fedtrip_tensor::{Sequential, Tensor};
}
