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
//! The same runtime plays three roles. Configured with
//! [`SmpiConfig::ground_truth`] (memory-copy cost modeled) it is the
//! emulated *testbed* standing in for the paper's real clusters;
//! configured with [`SmpiConfig::smpi_replay`] (copy cost *not* modeled —
//! the missing feature the paper's future work announces) it is the
//! improved replay back-end; configured with [`SmpiConfig::msg_legacy`]
//! it is the paper's *first* replay back-end, the MSG model Section 2.4
//! diagnoses:
//!
//! * every transfer starts when the receiver matches it ([`Model::Msg`]),
//!   so the receiver pays the full latency plus size over bandwidth on
//!   its critical path — even for small messages a real MPI runtime would
//!   have delivered long before the receive;
//! * sends under 64 KiB still never block the sender (the old
//!   `if (size<65536)` asynchronous path);
//! * no per-size protocol factors, only a fitted 1.9 latency factor on
//!   every transfer;
//! * collectives as closed-form timers (`collectives::CollectiveModel`):
//!   every rank blocks until all have entered, then all leave after a
//!   log-tree cost formula.
//!
//! The per-small-message overestimation accumulates with the message
//! count — which in NPB-LU grows with the process count — so the MSG
//! configuration reproduces the linearly growing error of the paper's
//! Figure 3.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod actor;
pub mod collectives;
pub mod hooks;
pub mod pairs;
pub mod runner;
pub mod slab;
pub mod world;

pub use hooks::{ComputePlan, ExecHooks, FixedRateHooks};
pub use runner::{prepare_smpi, SmpiRun};
pub use world::SmpiWorld;

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

/// The replay model the runtime simulates: the paper's improved SMPI
/// back-end or its legacy MSG one (see the [crate documentation](crate)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Messages under the eager threshold start their transfer at the
    /// send, larger ones at the match; collectives run as point-to-point
    /// algorithms.
    Smpi,
    /// Every transfer starts at the match (a mailbox task), and a
    /// pre-posted blocked receiver is woken at arrival before a blocked
    /// sender; collectives are closed-form timers.
    Msg,
}

impl Model {
    /// The name the metrics carry (`"smpi"` or `"msg"`).
    pub fn name(self) -> &'static str {
        match self {
            Model::Smpi => "smpi",
            Model::Msg => "msg",
        }
    }
}

/// Protocol-level configuration of the runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct SmpiConfig {
    /// Small-message threshold in bytes: a blocking send below it never
    /// blocks the sender. Under [`Model::Smpi`] such a send is eager (its
    /// transfer starts at the send) and larger ones are rendezvous; under
    /// [`Model::Msg`] every transfer starts at the match.
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
    /// The point-to-point and collective model.
    pub model: Model,
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
            model: Model::Smpi,
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

    /// The legacy MSG back-end: transfers start at the match, sends
    /// under 64 KiB are asynchronous, full nominal bandwidth and a flat
    /// 1.9 latency factor for every size (SimGrid's network models of the
    /// MSG era applied one fitted latency factor uniformly, CM02/LV08
    /// style, rather than per-size factors), closed-form collectives (see
    /// the [crate documentation](crate)).
    pub fn msg_legacy() -> SmpiConfig {
        SmpiConfig {
            eager_threshold: EAGER_THRESHOLD,
            factors: PiecewiseFactors::new(Vec::new(), (1.0, 1.9)),
            copy: None,
            loopback_bandwidth: 3.0e9,
            loopback_latency: 0.4e-6,
            model: Model::Msg,
        }
    }

    /// `true` when `bytes` uses the eager protocol: its transfer starts
    /// at the send.
    pub fn is_eager(&self, bytes: u64) -> bool {
        self.model == Model::Smpi && self.is_detached(bytes)
    }

    /// `true` when a blocking send of `bytes` leaves the sender free.
    pub(crate) fn is_detached(&self, bytes: u64) -> bool {
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
    fn collective_formulas() {
        let m = crate::collectives::CollectiveModel {
            latency: 1e-5,
            bandwidth: 1e8,
        };
        assert_eq!(m.barrier(1), 0.0);
        assert!((m.barrier(8) - 2.0 * 3.0 * 1e-5).abs() < 1e-15);
        // Non-power-of-two rounds up.
        assert!((m.barrier(5) - 2.0 * 3.0 * 1e-5).abs() < 1e-15);
        let hop = 1e-5 + 100.0 / 1e8;
        assert!((m.bcast(4, 100) - 2.0 * hop).abs() < 1e-15);
        assert!((m.allreduce(4, 100) - 4.0 * hop).abs() < 1e-15);
        assert!((m.alltoall(4, 100) - 3.0 * hop).abs() < 1e-15);
    }

    #[test]
    fn duration_dispatch() {
        let m = crate::collectives::CollectiveModel {
            latency: 1e-5,
            bandwidth: 1e8,
        };
        use workloads::MpiOp;
        assert!(m.duration(&MpiOp::Barrier, 4).is_some());
        assert!(m.duration(&MpiOp::Wait, 4).is_none());
        assert_eq!(
            m.duration(&MpiOp::Allreduce { bytes: 100 }, 4),
            Some(m.allreduce(4, 100))
        );
    }

    #[test]
    fn legacy_config_is_raw() {
        let c = SmpiConfig::msg_legacy();
        // No per-size table: full nominal bandwidth and the flat 1.9
        // latency factor at every size.
        for bytes in [0, 1, 1420, 65535, 65536, 1 << 30] {
            assert_eq!(c.factors.factors(bytes), (1.0, 1.9));
        }
        assert!(c.is_detached(65535) && !c.is_detached(65536));
        assert!(!c.is_eager(0) && !c.is_eager(65535));
    }

    #[test]
    fn eager_threshold_matches_paper() {
        let c = SmpiConfig::ground_truth();
        assert!(c.is_eager(65535));
        assert!(!c.is_eager(65536));
    }
}
