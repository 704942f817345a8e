//! The layered federation runtime.
//!
//! The paper's engine (§III-A) is a strictly synchronous round loop. Real
//! resource-constrained federations — the setting FedTrip targets — are
//! bottlenecked by heterogeneous device speed and stragglers, which a
//! synchronous-only engine cannot model. This module decomposes the engine
//! into composable layers so the async/staleness scenario family opens up
//! while the paper's sync semantics stay bit-identical:
//!
//! * [`clock`] — a [`VirtualClock`] plus per-client [`DeviceProfile`]s
//!   (compute-speed multiplier and link bandwidth, derived deterministically
//!   from the master seed) that compose with the Appendix-A cost accounting
//!   to turn FLOPs and bytes into virtual seconds;
//! * [`sampler`] — [`Sampler`] owns *who* participates: the selection
//!   strategies and straggler injection that used to live inside the engine,
//!   with the exact same RNG stream derivations;
//! * [`executor`] — [`ClientExecutor`] owns local-training fan-out: the
//!   rayon-parallel client loop with deterministic per-client RNG streams;
//! * [`scheduler`] — [`Scheduler`] owns *when* client results fold into the
//!   global model: [`Synchronous`] reproduces the paper's barriered round
//!   loop bit-for-bit (guarded by a golden regression test), [`SemiAsync`]
//!   is a FedBuff-style buffered aggregator that folds the first `B`
//!   arrivals by virtual completion time with staleness-discounted weights
//!   `1 / (1 + s)^a`;
//! * [`edge`] — [`EdgeTier`] owns *where* results fold: clients shard
//!   across `E` edge aggregators (`client mod E`), each with its own
//!   streaming fold and [`VirtualClock`], and the root merges the edge
//!   summaries with the associative `ServerFold::merge` across rayon
//!   threads. `E = 1` (the default) is the flat fold, bit for bit.
//!
//! The codecs of [`crate::compression`] plug in at both ends of the wire:
//! uplinks are encoded/decoded at the executor→scheduler boundary before
//! any scheduler sees them, downlink delta broadcasts are encoded by the
//! engine before the executor fans out, and both schedulers charge the
//! *encoded* bytes of each direction to the clock through
//! `RuntimeCtx::comm_bytes_for` (dense full-model sends — joiners,
//! resyncs — charge f32 width).
//!
//! Every layer is O(K) per server step and O(participants) in resident
//! memory — client states live in a sparse store, partition shards and
//! device profiles derive lazily on first participation, selection runs a
//! sparse Fisher–Yates, and both schedulers stream arrivals into a running
//! weighted fold — so federation size is not a cost axis (residency and
//! bytes per round are pinned from N = 1k to N = 100k by
//! `tests/population.rs`; the benchmark's `pop_1m_edge` workload times
//! N = 1M).

pub mod availability;
pub mod clock;
pub mod edge;
pub mod executor;
pub mod sampler;
pub mod scheduler;

pub use availability::{AvailabilityModel, UtilityTable};
pub use clock::{DeviceProfile, DeviceProfiles, VirtualClock};
pub use edge::EdgeTier;
pub use executor::ClientExecutor;
pub use sampler::{ClientSizes, Sampler, SelectionStrategy};
pub use scheduler::{
    staleness_weight, FoldStats, RuntimeCtx, Scheduler, SchedulerState, SemiAsync, StepOutput,
    Synchronous,
};

use serde::{Deserialize, Serialize};

/// Which scheduler drives the federation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunMode {
    /// The paper's barriered round loop: every selected client reports back
    /// before the server aggregates (bit-identical to the pre-runtime
    /// engine).
    Sync,
    /// FedBuff-style buffered semi-asynchronous aggregation: the server
    /// folds the first `B` arrivals by virtual completion time, discounting
    /// stale updates by `1 / (1 + s)^a`.
    SemiAsync,
}

impl RunMode {
    /// Parse `sync` / `semiasync` (case-insensitive).
    pub fn parse(s: &str) -> Option<RunMode> {
        match s.to_ascii_lowercase().as_str() {
            "sync" => Some(RunMode::Sync),
            "semiasync" | "semi-async" | "async" => Some(RunMode::SemiAsync),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            RunMode::Sync => "sync",
            RunMode::SemiAsync => "semiasync",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parse_round_trips() {
        assert_eq!(RunMode::parse("sync"), Some(RunMode::Sync));
        assert_eq!(RunMode::parse("SemiAsync"), Some(RunMode::SemiAsync));
        assert_eq!(RunMode::parse("semi-async"), Some(RunMode::SemiAsync));
        assert_eq!(RunMode::parse("nope"), None);
        assert_eq!(RunMode::parse(RunMode::Sync.name()), Some(RunMode::Sync));
    }
}
