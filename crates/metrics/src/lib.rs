//! # fedtrip-metrics
//!
//! Evaluation utilities for the FedTrip reproduction:
//!
//! * [`stats`] — exponential moving averages (the smoothing applied to the
//!   paper's Fig. 5 curves), five-number boxplot summaries (Fig. 6),
//!   mean/variance helpers (Fig. 7's circle radii), and the
//!   time-to-target-accuracy metric for virtual-clock runtimes.
//! * [`tsne`] — an exact O(n²) t-SNE implementation for the Fig. 2 feature
//!   visualizations.
//! * [`report`] — fixed-width/markdown table rendering and JSON artifact
//!   writing, shared by every table/figure binary so each prints
//!   paper-vs-measured rows and drops machine-readable results.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type
)]

pub mod report;
pub mod stats;
pub mod tsne;

pub use report::Table;
pub use stats::{ema, gini, quantile, time_to_target, BoxplotSummary, Summary};
pub use tsne::{Tsne, TsneConfig};
