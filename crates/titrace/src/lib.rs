//! Time-independent MPI execution traces.
//!
//! A time-independent trace records, per MPI process, only *what* the
//! application did and *how much* — never *when*:
//!
//! ```text
//! p0 compute 956140
//! p0 send p1 1240
//! p0 compute 2110
//! p0 send p2 1240
//! ```
//!
//! Because no timestamp appears anywhere, a trace acquired on any machine
//! (or assembled from per-process fragments acquired on *different*
//! machines) can be replayed against any simulated platform — the paper's
//! core idea. This crate defines the action model ([`Action`]), the text
//! format ([`parse`] / [`mod@write`]), the merged and split file layouts
//! ([`files`]), the compact binary format ([`binfmt`]), ingestion
//! ([`stream`]), structural validation ([`validate`]) and volume
//! statistics ([`stats`]).
//!
//! Every on-disk trace is read one way: [`stream::open_sources`] opens one
//! cursor per rank that decodes its actions through a window of at most
//! 16 KiB, whatever the format (less past 4 096 ranks: the windows over
//! one trace share a 64 MiB budget). A replay pulls those cursors — a
//! sequential replay of text through [`ahead`], whose helper thread
//! decodes them, through windows half that size; a whole-trace load
//! ([`stream::load_trace`]) and the statistics
//! ([`TraceStats::from_sources`]) drain them rank by rank, and the
//! writers behind `trace pack` and `trace unpack`
//! ([`write::write_sources`], [`binfmt::write_sources`]) drain them on
//! every core, writing the ranks in order.
//!
//! Receive actions carry the message size: this is the format extension
//! introduced in Section 3.3 of the paper ("we had to add the message size
//! to the parameters of this action") which lets the replay engine pick
//! the correct point-to-point protocol without peeking at the sender's
//! trace.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod ahead;
pub mod binfmt;
pub mod files;
pub mod parse;
mod pipeline;
mod shortest;
pub mod stats;
pub mod stream;
pub mod validate;
mod window;
pub mod write;

pub use parse::ParseError;
pub use stats::TraceStats;
pub use stream::{ActionSource, SourceError, TraceInput};
pub use validate::ValidationError;

/// An MPI process index within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rank(pub u32);

impl Rank {
    /// Index into per-rank tables.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// One traced event. Volumes only: instructions for compute, bytes for
/// communication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// `MPI_Init`.
    Init,
    /// `MPI_Finalize`.
    Finalize,
    /// A computation burst of `amount` instructions (as measured by the
    /// hardware counter between two MPI calls).
    Compute {
        /// Instructions executed.
        amount: f64,
    },
    /// Blocking send.
    Send {
        /// Destination rank.
        dst: Rank,
        /// Message size in bytes.
        bytes: u64,
    },
    /// Non-blocking send; completed by a later [`Action::Wait`] /
    /// [`Action::WaitAll`].
    Isend {
        /// Destination rank.
        dst: Rank,
        /// Message size in bytes.
        bytes: u64,
    },
    /// Blocking receive (size recorded, per the new trace format).
    Recv {
        /// Source rank.
        src: Rank,
        /// Message size in bytes.
        bytes: u64,
    },
    /// Non-blocking receive.
    Irecv {
        /// Source rank.
        src: Rank,
        /// Message size in bytes.
        bytes: u64,
    },
    /// Completes the *oldest* still-pending non-blocking request of this
    /// process.
    Wait,
    /// Completes every pending non-blocking request of this process.
    WaitAll,
    /// `MPI_Barrier` over all ranks.
    Barrier,
    /// `MPI_Bcast`: `bytes` from `root` to all.
    Bcast {
        /// Payload size in bytes.
        bytes: u64,
        /// Broadcast root.
        root: Rank,
    },
    /// `MPI_Reduce`: `bytes` from all to `root`.
    Reduce {
        /// Per-rank contribution size in bytes.
        bytes: u64,
        /// Reduction root.
        root: Rank,
    },
    /// `MPI_Allreduce` of `bytes` per rank.
    Allreduce {
        /// Per-rank contribution size in bytes.
        bytes: u64,
    },
    /// `MPI_Alltoall`, `bytes` exchanged with every peer.
    Alltoall {
        /// Per-pair payload size in bytes.
        bytes: u64,
    },
    /// `MPI_Gather` of `bytes` per rank to `root`.
    Gather {
        /// Per-rank contribution size in bytes.
        bytes: u64,
        /// Gather root.
        root: Rank,
    },
    /// `MPI_Allgather` of `bytes` per rank.
    Allgather {
        /// Per-rank contribution size in bytes.
        bytes: u64,
    },
}

impl Action {
    /// `true` for the collective operations (executed by all ranks at the
    /// same logical point).
    pub(crate) fn is_collective(&self) -> bool {
        matches!(
            self,
            Action::Barrier
                | Action::Bcast { .. }
                | Action::Reduce { .. }
                | Action::Allreduce { .. }
                | Action::Alltoall { .. }
                | Action::Gather { .. }
                | Action::Allgather { .. }
        )
    }

    /// `true` for point-to-point transmissions (blocking or not).
    pub(crate) fn is_send(&self) -> bool {
        matches!(self, Action::Send { .. } | Action::Isend { .. })
    }
}

/// A complete time-independent trace: one action list per rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    per_rank: Vec<Vec<Action>>,
}

impl Trace {
    /// An empty trace for `ranks` processes.
    pub fn new(ranks: u32) -> Trace {
        Trace {
            per_rank: (0..ranks).map(|_| Vec::new()).collect(),
        }
    }

    /// Builds a trace directly from per-rank action lists.
    pub(crate) fn from_actions(per_rank: Vec<Vec<Action>>) -> Trace {
        Trace { per_rank }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> u32 {
        self.per_rank.len() as u32
    }

    /// The action list of one rank.
    pub fn actions(&self, rank: Rank) -> &[Action] {
        &self.per_rank[rank.as_usize()]
    }

    /// Appends an action to a rank's list.
    pub fn push(&mut self, rank: Rank, action: Action) {
        self.per_rank[rank.as_usize()].push(action);
    }

    /// Total number of actions over all ranks.
    pub fn len(&self) -> usize {
        self.per_rank.iter().map(Vec::len).sum()
    }

    /// `true` when no rank has any action.
    pub fn is_empty(&self) -> bool {
        self.per_rank.iter().all(Vec::is_empty)
    }

    /// Iterates `(rank, &actions)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Rank, &[Action])> {
        self.per_rank
            .iter()
            .enumerate()
            .map(|(i, a)| (Rank(i as u32), a.as_slice()))
    }

    /// Mutable access to one rank's actions (used by perturbation models).
    pub fn actions_mut(&mut self, rank: Rank) -> &mut Vec<Action> {
        &mut self.per_rank[rank.as_usize()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_construction() {
        let mut t = Trace::new(2);
        assert_eq!(t.ranks(), 2);
        assert!(t.is_empty());
        t.push(Rank(0), Action::Init);
        t.push(Rank(0), Action::Compute { amount: 100.0 });
        t.push(
            Rank(0),
            Action::Send {
                dst: Rank(1),
                bytes: 1240,
            },
        );
        t.push(Rank(1), Action::Init);
        t.push(
            Rank(1),
            Action::Recv {
                src: Rank(0),
                bytes: 1240,
            },
        );
        assert_eq!(t.len(), 5);
        assert_eq!(t.actions(Rank(0)).len(), 3);
        assert!(!t.is_empty());
        let collected: Vec<Rank> = t.iter().map(|(r, _)| r).collect();
        assert_eq!(collected, vec![Rank(0), Rank(1)]);
    }

    #[test]
    fn action_classification() {
        assert!(Action::Barrier.is_collective());
        assert!(Action::Allreduce { bytes: 40 }.is_collective());
        assert!(!Action::Compute { amount: 1.0 }.is_collective());
        assert!(Action::Send {
            dst: Rank(0),
            bytes: 1
        }
        .is_send());
        assert!(Action::Isend {
            dst: Rank(0),
            bytes: 1
        }
        .is_send());
        assert!(!Action::Wait.is_send());
    }

    #[test]
    fn rank_display() {
        assert_eq!(Rank(7).to_string(), "p7");
    }
}
