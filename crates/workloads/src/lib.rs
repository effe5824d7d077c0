//! MPI workload generators.
//!
//! A workload is, per rank, a lazy stream of [`MpiOp`]s — the same
//! operations a real MPI application would issue, with *volumes* attached
//! (instructions for compute, bytes for communication) but no timing. The
//! emulated testbed executes these streams against a platform model to
//! produce ground-truth times; the acquisition layer turns them into
//! time-independent traces.
//!
//! The flagship generator is [`lu`], a structurally faithful model of the
//! NAS Parallel Benchmarks LU solver (SSOR with 2D pipelined wavefront
//! sweeps) that the paper evaluates.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod lu;

/// One compute burst between MPI calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeBlock {
    /// True application instructions at the baseline compiler setting
    /// (no optimization). Compiler models scale this.
    pub instructions: f64,
    /// Function calls a fine-grain instrumenter would probe inside this
    /// block (drives instrumentation perturbation).
    pub fn_calls: f64,
    /// Active working set touched by this block, in bytes (drives the
    /// cache-dependent instruction rate).
    pub working_set: u64,
}

impl ComputeBlock {
    /// A block with no cache pressure and no instrumentable calls.
    pub fn plain(instructions: f64) -> ComputeBlock {
        ComputeBlock {
            instructions,
            fn_calls: 0.0,
            working_set: 0,
        }
    }
}

/// One MPI-level operation of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MpiOp {
    /// `MPI_Init`.
    Init,
    /// `MPI_Finalize`.
    Finalize,
    /// Local computation.
    Compute(ComputeBlock),
    /// Blocking send.
    Send {
        /// Destination rank.
        dst: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// Non-blocking send.
    Isend {
        /// Destination rank.
        dst: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// Blocking receive.
    Recv {
        /// Source rank.
        src: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// Non-blocking receive.
    Irecv {
        /// Source rank.
        src: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// Complete the oldest pending non-blocking request.
    Wait,
    /// Complete all pending non-blocking requests.
    WaitAll,
    /// Barrier over all ranks.
    Barrier,
    /// Broadcast from `root`.
    Bcast {
        /// Payload bytes.
        bytes: u64,
        /// Root rank.
        root: u32,
    },
    /// Reduction to `root`.
    Reduce {
        /// Per-rank contribution bytes.
        bytes: u64,
        /// Root rank.
        root: u32,
    },
    /// All-reduce.
    Allreduce {
        /// Per-rank contribution bytes.
        bytes: u64,
    },
    /// All-to-all exchange.
    Alltoall {
        /// Per-pair payload bytes.
        bytes: u64,
    },
    /// Gather to `root`.
    Gather {
        /// Per-rank contribution bytes.
        bytes: u64,
        /// Root rank.
        root: u32,
    },
    /// All-gather.
    Allgather {
        /// Per-rank contribution bytes.
        bytes: u64,
    },
}

/// A lazy per-rank operation stream. Sources are `Send`, so a trace
/// writer can acquire each rank on a worker thread.
pub trait OpSource: Send {
    /// The next operation, or `None` when the rank's program ends.
    fn next_op(&mut self) -> Option<MpiOp>;
}

/// An [`OpSource`] over a pre-built vector (used for trace replay and in
/// tests).
#[derive(Debug, Clone)]
pub struct VecSource {
    ops: std::vec::IntoIter<MpiOp>,
}

impl VecSource {
    /// Wraps a vector of operations.
    pub fn new(ops: Vec<MpiOp>) -> VecSource {
        VecSource {
            ops: ops.into_iter(),
        }
    }
}

impl OpSource for VecSource {
    fn next_op(&mut self) -> Option<MpiOp> {
        self.ops.next()
    }
}

/// Maps one [`MpiOp`] to the equivalent trace [`titrace::Action`], using
/// exact instruction counts for compute.
pub fn op_to_action(op: &MpiOp) -> titrace::Action {
    use titrace::{Action, Rank};
    match op {
        MpiOp::Init => Action::Init,
        MpiOp::Finalize => Action::Finalize,
        MpiOp::Compute(b) => Action::Compute {
            amount: b.instructions,
        },
        MpiOp::Send { dst, bytes } => Action::Send {
            dst: Rank(*dst),
            bytes: *bytes,
        },
        MpiOp::Isend { dst, bytes } => Action::Isend {
            dst: Rank(*dst),
            bytes: *bytes,
        },
        MpiOp::Recv { src, bytes } => Action::Recv {
            src: Rank(*src),
            bytes: *bytes,
        },
        MpiOp::Irecv { src, bytes } => Action::Irecv {
            src: Rank(*src),
            bytes: *bytes,
        },
        MpiOp::Wait => Action::Wait,
        MpiOp::WaitAll => Action::WaitAll,
        MpiOp::Barrier => Action::Barrier,
        MpiOp::Bcast { bytes, root } => Action::Bcast {
            bytes: *bytes,
            root: Rank(*root),
        },
        MpiOp::Reduce { bytes, root } => Action::Reduce {
            bytes: *bytes,
            root: Rank(*root),
        },
        MpiOp::Allreduce { bytes } => Action::Allreduce { bytes: *bytes },
        MpiOp::Alltoall { bytes } => Action::Alltoall { bytes: *bytes },
        MpiOp::Gather { bytes, root } => Action::Gather {
            bytes: *bytes,
            root: Rank(*root),
        },
        MpiOp::Allgather { bytes } => Action::Allgather { bytes: *bytes },
    }
}

/// Drains an [`OpSource`] into a vector.
#[cfg(test)]
pub(crate) fn collect_ops(mut src: impl OpSource) -> Vec<MpiOp> {
    let mut out = Vec::new();
    while let Some(op) = src.next_op() {
        out.push(op);
    }
    out
}

/// Converts a full workload (one source per rank) into a *ground-truth*
/// time-independent trace: compute amounts are the exact instruction
/// counts, uninflated by any instrumentation: the "perfect acquisition"
/// baseline of the tests.
#[cfg(test)]
pub(crate) fn exact_trace(sources: Vec<Box<dyn OpSource>>) -> titrace::Trace {
    let ranks = sources.len() as u32;
    let mut trace = titrace::Trace::new(ranks);
    for (r, mut src) in sources.into_iter().enumerate() {
        let rank = titrace::Rank(r as u32);
        while let Some(op) = src.next_op() {
            trace.push(rank, op_to_action(&op));
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_source_drains_in_order() {
        let ops = vec![
            MpiOp::Init,
            MpiOp::Compute(ComputeBlock::plain(10.0)),
            MpiOp::Finalize,
        ];
        let collected = collect_ops(VecSource::new(ops.clone()));
        assert_eq!(collected, ops);
    }

    #[test]
    fn op_to_action_covers_p2p() {
        let a = op_to_action(&MpiOp::Send { dst: 3, bytes: 99 });
        assert_eq!(
            a,
            titrace::Action::Send {
                dst: titrace::Rank(3),
                bytes: 99
            }
        );
        let a = op_to_action(&MpiOp::Irecv { src: 1, bytes: 7 });
        assert_eq!(
            a,
            titrace::Action::Irecv {
                src: titrace::Rank(1),
                bytes: 7
            }
        );
    }

    #[test]
    fn exact_trace_uses_true_instructions() {
        let r0: Vec<MpiOp> = vec![
            MpiOp::Init,
            MpiOp::Compute(ComputeBlock {
                instructions: 123.0,
                fn_calls: 9.0,
                working_set: 4096,
            }),
            MpiOp::Finalize,
        ];
        let t = exact_trace(vec![Box::new(VecSource::new(r0))]);
        assert_eq!(
            t.actions(titrace::Rank(0))[1],
            titrace::Action::Compute { amount: 123.0 }
        );
    }
}
