//! A simulated MPI runtime, modeled on SimGrid's SMPI.
//!
//! The runtime executes per-rank [`workloads::MpiOp`] streams over a
//! [`netmodel::FlowNet`], implementing the point-to-point semantics the
//! paper identifies as decisive for replay accuracy (Section 3.3):
//!
//! * **eager / detached mode** (messages `< 64 KiB`): "the send
//!   corresponds to the time of a copy of the data in memory. Moreover,
//!   if the receive is issued after the send, the data is already stored
//!   in memory" — the sender pays a (configurable) memory-copy cost and
//!   continues immediately; the transfer proceeds concurrently and the
//!   receive completes at `max(post time, arrival time)`;
//! * **rendezvous mode** (larger messages): the transfer starts only once
//!   the matching receive is posted; the sender blocks until completion;
//! * **piece-wise linear protocol factors** on latency and bandwidth
//!   ([`netmodel::PiecewiseFactors`]);
//! * **collectives as real algorithms** (binomial trees, recursive
//!   doubling, pairwise exchange — [`collectives`]), not monolithic cost
//!   formulas.
//!
//! The same runtime serves two roles: configured with
//! [`SmpiConfig::ground_truth`] (memory-copy cost modeled) it is the
//! emulated *testbed* standing in for the paper's real clusters;
//! configured with [`SmpiConfig::smpi_replay`] (copy cost *not* modeled —
//! the missing feature the paper's future work announces) it is the
//! improved replay back-end.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod actor;
pub mod collectives;
pub mod hooks;
pub mod pairs;
pub mod runner;
pub mod slab;
pub mod timeline;
pub mod world;

pub use hooks::{ComputePlan, ExecHooks, FixedRateHooks};
pub use runner::{prepare_smpi, run_smpi, SmpiResult, SmpiRun};
pub use timeline::{Segment, SegmentKind, Timeline};
pub use world::{SmpiWorld, WorldStats};

use netmodel::PiecewiseFactors;

/// The eager/rendezvous switch-over size in bytes.
pub const EAGER_THRESHOLD: u64 = 64 * 1024;

/// Cost of the sender-side memory copy of an eager send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyCost {
    /// Fixed seconds per copy.
    pub base_seconds: f64,
    /// Copy throughput, bytes/second.
    pub bytes_per_second: f64,
}

impl CopyCost {
    /// Seconds to copy `bytes`.
    pub fn seconds(&self, bytes: u64) -> f64 {
        self.base_seconds + bytes as f64 / self.bytes_per_second
    }
}

/// Protocol-level configuration of the runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct SmpiConfig {
    /// Eager/rendezvous threshold in bytes.
    pub eager_threshold: u64,
    /// Message-size-dependent latency/bandwidth correction.
    pub factors: PiecewiseFactors,
    /// Sender-side eager copy cost; `None` = not modeled (the known gap
    /// of the paper's improved replay, Figures 6–7).
    pub copy: Option<CopyCost>,
    /// Intra-host transfer throughput, bytes/s (pure memory copy).
    pub loopback_bandwidth: f64,
    /// Intra-host transfer fixed latency, seconds.
    pub loopback_latency: f64,
}

impl SmpiConfig {
    /// The emulated-testbed configuration: every known cost modeled.
    pub fn ground_truth() -> SmpiConfig {
        SmpiConfig {
            eager_threshold: EAGER_THRESHOLD,
            factors: PiecewiseFactors::gige_tcp(),
            copy: Some(CopyCost {
                base_seconds: 4.0e-6,
                bytes_per_second: 2.2e9,
            }),
            loopback_bandwidth: 3.0e9,
            loopback_latency: 0.4e-6,
        }
    }

    /// The improved replay back-end: identical protocol model *minus* the
    /// eager memory-copy time ("SMPI does not model the time to copy data
    /// in memory in the `MPI_Send` function yet", Section 4.3).
    pub fn smpi_replay() -> SmpiConfig {
        SmpiConfig {
            copy: None,
            ..SmpiConfig::ground_truth()
        }
    }

    /// `true` when `bytes` uses the eager protocol.
    pub fn is_eager(&self, bytes: u64) -> bool {
        bytes < self.eager_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_cost_is_affine() {
        let c = CopyCost {
            base_seconds: 1e-6,
            bytes_per_second: 1e9,
        };
        assert!((c.seconds(0) - 1e-6).abs() < 1e-15);
        assert!((c.seconds(1_000_000) - 1.001e-3).abs() < 1e-12);
    }

    #[test]
    fn replay_config_differs_only_in_copy() {
        let truth = SmpiConfig::ground_truth();
        let replay = SmpiConfig::smpi_replay();
        assert!(truth.copy.is_some());
        assert!(replay.copy.is_none());
        assert_eq!(truth.factors, replay.factors);
        assert_eq!(truth.eager_threshold, replay.eager_threshold);
    }

    #[test]
    fn eager_threshold_matches_paper() {
        let c = SmpiConfig::ground_truth();
        assert!(c.is_eager(65535));
        assert!(!c.is_eager(65536));
    }
}
