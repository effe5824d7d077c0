//! The one translation of a [`ReplayConfig`] into a runtime run, and the
//! one op source that feeds it. The sequential path prepares a single
//! run over every rank; the island engine ([`crate::parallel`]) prepares
//! one per coupling island — with the same configuration and the same
//! input checks either way.

use std::sync::{Arc, Mutex, PoisonError};

use platform::{HostId, Platform};
use smpi::{SmpiConfig, SmpiRun};
use titrace::{Action, ActionSource, Rank, SourceError};
use workloads::{MpiOp, OpSource};

use crate::{action_to_op, ReplayConfig, ReplayEngine};

/// The first fault any rank's op source hit, with the rank (global id).
pub(crate) type FaultSlot = Arc<Mutex<Option<(Rank, SourceError)>>>;

/// The parked fault, if any, as the replay's error. Checked before the
/// engine's own outcome: a fault truncates its rank's stream, which the
/// engine can only see as early termination or deadlock.
pub(crate) fn check_fault(fault: &FaultSlot) -> Result<(), String> {
    match fault.lock().unwrap_or_else(PoisonError::into_inner).take() {
        Some((rank, e)) => Err(format!("rank {rank} trace stream failed: {e}")),
        None => Ok(()),
    }
}

/// Assembles the run `config` selects over `sources` placed on `hosts`:
/// one runtime, configured as the improved SMPI back-end or as the
/// legacy MSG one. With `record_spans` it records spans under the run's
/// own rank ids (`0..sources.len()`).
pub(crate) fn prepare<'p>(
    platform: &'p Platform,
    hosts: &[HostId],
    sources: Vec<Box<dyn OpSource>>,
    config: &ReplayConfig,
    record_spans: bool,
) -> SmpiRun<'p> {
    let hooks = Box::new(smpi::FixedRateHooks::uniform(
        config.rate,
        hosts.len() as u32,
    ));
    let cfg = match config.engine {
        ReplayEngine::Smpi => SmpiConfig {
            copy: config.copy_model,
            ..SmpiConfig::smpi_replay()
        },
        ReplayEngine::Msg => SmpiConfig::msg_legacy(),
    };
    smpi::prepare_smpi(platform, hosts, sources, cfg, hooks, record_spans)
}

/// The [`OpSource`] of every replay: pulls one rank's actions from its
/// [`ActionSource`] cursor and rejects what the runtimes cannot execute
/// — the streaming form of `titrace::validate` rules 1 and 3: a peer or
/// collective root outside the trace, a message to oneself, a `wait`
/// with no outstanding `isend`/`irecv`, requests still outstanding when
/// the stream ends. On the island path it also remaps peers from global
/// to island-local rank ids.
///
/// `OpSource::next_op` is infallible, so a fault — a rejected action or
/// the cursor's own I/O, parse or decode error — is parked in the slot
/// shared with the other ranks, naming the action's index in this rank's
/// stream, and the stream ends (see [`check_fault`]).
pub(crate) struct ReplayOps {
    inner: Box<dyn ActionSource>,
    /// Global rank, for the checks and fault attribution.
    rank: Rank,
    /// Ranks in the trace.
    ranks: u32,
    /// The island's members (global ids, ascending) on the island path.
    island: Option<Arc<Vec<u32>>>,
    /// Actions pulled so far.
    index: u64,
    /// `isend`/`irecv` requests not yet waited for.
    outstanding: u64,
    fault: FaultSlot,
}

impl ReplayOps {
    /// Wraps the cursors of `members` (global ids, in cursor order) of a
    /// `ranks`-rank trace; `island` is `Some(members)` on the island path.
    pub(crate) fn wrap(
        cursors: Vec<Box<dyn ActionSource>>,
        members: impl Iterator<Item = u32>,
        ranks: u32,
        island: Option<&Arc<Vec<u32>>>,
        fault: &FaultSlot,
    ) -> Vec<Box<dyn OpSource>> {
        cursors
            .into_iter()
            .zip(members)
            .map(|(inner, rank)| {
                Box::new(ReplayOps {
                    inner,
                    rank: Rank(rank),
                    ranks,
                    island: island.cloned(),
                    index: 0,
                    outstanding: 0,
                    fault: Arc::clone(fault),
                }) as Box<dyn OpSource>
            })
            .collect()
    }

    fn check(&mut self, action: &Action) -> Result<(), SourceError> {
        let index = self.index;
        let peer = match *action {
            Action::Isend { dst: peer, .. } | Action::Irecv { src: peer, .. } => {
                self.outstanding += 1;
                peer
            }
            Action::Send { dst: peer, .. } | Action::Recv { src: peer, .. } => peer,
            Action::Bcast { root, .. }
            | Action::Reduce { root, .. }
            | Action::Gather { root, .. } => {
                return self.in_range(root);
            }
            Action::Wait => {
                self.outstanding = (self.outstanding.checked_sub(1))
                    .ok_or(SourceError::WaitWithoutRequest { index })?;
                return Ok(());
            }
            Action::WaitAll => {
                self.outstanding = 0;
                return Ok(());
            }
            _ => return Ok(()),
        };
        if peer == self.rank {
            return Err(SourceError::SelfMessage { index });
        }
        self.in_range(peer)
    }

    fn in_range(&self, peer: Rank) -> Result<(), SourceError> {
        if peer.0 < self.ranks {
            Ok(())
        } else {
            Err(SourceError::PeerOutOfRange {
                index: self.index,
                peer,
                ranks: self.ranks,
            })
        }
    }

    /// Rewrites point-to-point peers to island-local ids. Collectives
    /// never get here: any collective couples every rank into one island,
    /// which takes the sequential path.
    fn localise(&self, op: MpiOp) -> MpiOp {
        let Some(island) = &self.island else {
            return op;
        };
        let local = |global: u32| {
            // Invariant: `partition_ranks` puts both ends of every
            // point-to-point edge in one island.
            island
                .binary_search(&global)
                .expect("peer rank outside its island — partitioning bug") as u32
        };
        match op {
            MpiOp::Send { dst, bytes } => MpiOp::Send {
                dst: local(dst),
                bytes,
            },
            MpiOp::Isend { dst, bytes } => MpiOp::Isend {
                dst: local(dst),
                bytes,
            },
            MpiOp::Recv { src, bytes } => MpiOp::Recv {
                src: local(src),
                bytes,
            },
            MpiOp::Irecv { src, bytes } => MpiOp::Irecv {
                src: local(src),
                bytes,
            },
            other => other,
        }
    }
}

impl OpSource for ReplayOps {
    fn next_op(&mut self) -> Option<MpiOp> {
        let fault = match self.inner.next_action() {
            Ok(Some(action)) => match self.check(&action) {
                Ok(()) => {
                    self.index += 1;
                    return Some(self.localise(action_to_op(&action)));
                }
                Err(e) => e,
            },
            Ok(None) if self.outstanding == 0 => return None,
            Ok(None) => SourceError::PendingAtEnd {
                actions: self.index,
                pending: self.outstanding,
            },
            Err(e) => e,
        };
        let mut slot = self.fault.lock().unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert((self.rank, fault));
        None
    }
}
