//! The legacy MSG-style replay back-end.
//!
//! This crate reimplements the paper's *first* trace-replay mechanism —
//! the one Section 2.4 diagnoses and Section 3.3 replaces — with its
//! modeling choices intact:
//!
//! * **mailbox semantics**: a send deposits a task into the
//!   `<src>_<dst>` mailbox; "a matching action on the receiver side will
//!   read the contents of the mailbox and execute the task, *which
//!   actually starts the simulated communication*". The transfer
//!   therefore begins at match time and the receiver always pays the full
//!   latency + size/bandwidth on its critical path — even for small
//!   messages that a real MPI runtime would have delivered eagerly long
//!   before the receive was posted;
//! * **asynchronous small sends**: messages under 64 KiB are sent
//!   asynchronously (the old `action_Isend` path), so the *sender* does
//!   not block — but the receiver-side cost above remains;
//! * **raw network model**: nominal link latency and bandwidth, no
//!   piece-wise protocol factors;
//! * **monolithic collectives**: every rank blocks until all have
//!   entered, then all leave after a closed-form duration (log-tree cost
//!   formulas), instead of simulating the constituent point-to-point
//!   messages.
//!
//! Because the per-small-message overestimation accumulates with the
//! message count — which in NPB-LU grows with the process count — this
//! back-end reproduces the linearly growing relative error of the
//! paper's Figure 3.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod runner;
pub mod world;

pub use runner::{prepare_msg, run_msg, MsgResult, MsgRun};
pub use world::MsgWorld;

use netmodel::PiecewiseFactors;

/// Messages strictly below this size use the asynchronous (non-blocking
/// sender) path, mirroring the old implementation's `if (size<65536)`.
pub const ASYNC_THRESHOLD: u64 = 64 * 1024;

/// Configuration of the MSG back-end.
#[derive(Debug, Clone, PartialEq)]
pub struct MsgConfig {
    /// Async/blocking sender threshold, bytes.
    pub async_threshold: u64,
    /// Network factors — [`PiecewiseFactors::raw`] for the faithful
    /// legacy model.
    pub factors: PiecewiseFactors,
    /// Flat multiplier on route latency. SimGrid's network models of the
    /// era applied a fitted constant latency factor uniformly (CM02/LV08
    /// style) rather than the per-size piece-wise factors SMPI later
    /// introduced; combined with the start-at-match semantics this
    /// over-charges every small message on the receive path.
    pub latency_multiplier: f64,
    /// Intra-host transfer throughput, bytes/s.
    pub loopback_bandwidth: f64,
    /// Intra-host fixed latency, seconds.
    pub loopback_latency: f64,
}

impl MsgConfig {
    /// The faithful legacy configuration.
    pub fn legacy() -> MsgConfig {
        MsgConfig {
            async_threshold: ASYNC_THRESHOLD,
            factors: PiecewiseFactors::raw(),
            latency_multiplier: 1.9,
            loopback_bandwidth: 3.0e9,
            loopback_latency: 0.4e-6,
        }
    }
}

/// Closed-form durations of the monolithic collective models, as used by
/// the old MSG-based replay: log-tree formulas over a nominal
/// latency/bandwidth pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveModel {
    /// Nominal point-to-point latency, seconds.
    pub latency: f64,
    /// Nominal point-to-point bandwidth, bytes/s.
    pub bandwidth: f64,
}

impl CollectiveModel {
    fn log2_ceil(p: u32) -> f64 {
        if p <= 1 {
            0.0
        } else {
            f64::from(32 - (p - 1).leading_zeros())
        }
    }

    fn hop(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }

    /// Duration of a barrier over `p` ranks.
    pub fn barrier(&self, p: u32) -> f64 {
        2.0 * Self::log2_ceil(p) * self.latency
    }

    /// Duration of a broadcast of `bytes`.
    pub fn bcast(&self, p: u32, bytes: u64) -> f64 {
        Self::log2_ceil(p) * self.hop(bytes)
    }

    /// Duration of a reduce of `bytes`.
    pub fn reduce(&self, p: u32, bytes: u64) -> f64 {
        Self::log2_ceil(p) * self.hop(bytes)
    }

    /// Duration of an allreduce of `bytes`.
    pub fn allreduce(&self, p: u32, bytes: u64) -> f64 {
        2.0 * Self::log2_ceil(p) * self.hop(bytes)
    }

    /// Duration of an all-to-all of `bytes` per pair.
    pub fn alltoall(&self, p: u32, bytes: u64) -> f64 {
        f64::from(p.saturating_sub(1)) * self.hop(bytes)
    }

    /// Duration of a gather of `bytes` per rank.
    pub fn gather(&self, p: u32, bytes: u64) -> f64 {
        f64::from(p.saturating_sub(1)) * self.hop(bytes)
    }

    /// Duration of an allgather of `bytes` per rank.
    pub fn allgather(&self, p: u32, bytes: u64) -> f64 {
        f64::from(p.saturating_sub(1)) * self.hop(bytes)
    }

    /// Duration of the collective `op` over `p` ranks, or `None` for
    /// non-collective ops.
    pub fn duration(&self, op: &workloads::MpiOp, p: u32) -> Option<f64> {
        use workloads::MpiOp;
        Some(match *op {
            MpiOp::Barrier => self.barrier(p),
            MpiOp::Bcast { bytes, .. } => self.bcast(p, bytes),
            MpiOp::Reduce { bytes, .. } => self.reduce(p, bytes),
            MpiOp::Allreduce { bytes } => self.allreduce(p, bytes),
            MpiOp::Alltoall { bytes } => self.alltoall(p, bytes),
            MpiOp::Gather { bytes, .. } => self.gather(p, bytes),
            MpiOp::Allgather { bytes } => self.allgather(p, bytes),
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collective_formulas() {
        let m = CollectiveModel {
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
        let m = CollectiveModel {
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
        let c = MsgConfig::legacy();
        assert_eq!(c.factors, PiecewiseFactors::raw());
        assert_eq!(c.async_threshold, 65536);
    }
}
