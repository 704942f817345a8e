//! # fedtrip-data
//!
//! Federated datasets for the FedTrip reproduction.
//!
//! The paper evaluates on MNIST, FashionMNIST, EMNIST and CIFAR-10. Real
//! downloads are unavailable in this environment, so [`synth`] provides
//! *procedural class-conditional* image datasets with the exact geometry of
//! Table II (classes, channels, sizes, per-client sample counts). What the
//! experiments actually measure — relative convergence speed under label-skew
//! heterogeneity — depends on the *label distribution across clients*, which
//! [`partition`] reproduces faithfully (Dirichlet and orthogonal-cluster
//! partitioning as described in §V-A).
//!
//! Every sample is a pure function of `(dataset seed, class, sample id)`, so
//! datasets are never materialized in full: clients hold lightweight
//! [`synth::SampleRef`]s and synthesize mini-batches on demand.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type
)]

pub mod loader;
pub mod partition;
pub mod synth;

pub use loader::BatchIter;
pub use partition::{HeterogeneityKind, Partition};
pub use synth::{DatasetKind, DatasetSpec, SampleRef, SyntheticVision};
