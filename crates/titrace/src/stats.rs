//! Volume statistics of a trace — the quantities the acquisition side of
//! the paper reasons about (instruction counts per process, message size
//! distribution, fraction of eager-mode messages).

use crate::{Action, ActionSource, Rank, SourceError, Trace};

/// The eager/rendezvous protocol switch-over used by MPI runtimes of the
/// paper's era ("when the message is smaller than 64KB, the eager mode is
/// activated").
pub const EAGER_THRESHOLD: u64 = 64 * 1024;

/// Per-rank volume counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankStats {
    /// Total instructions in compute actions.
    pub compute_instructions: f64,
    /// Number of compute actions.
    pub compute_actions: u64,
    /// Point-to-point messages sent.
    pub sends: u64,
    /// Point-to-point messages received.
    pub recvs: u64,
    /// Bytes sent point-to-point.
    pub bytes_sent: u64,
    /// Bytes received point-to-point.
    pub bytes_received: u64,
    /// Sent messages strictly below [`EAGER_THRESHOLD`].
    pub eager_sends: u64,
    /// Collective operations participated in.
    pub collectives: u64,
    /// Wait/WaitAll actions.
    pub waits: u64,
    /// Total actions.
    pub actions: u64,
}

/// Whole-trace statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Per-rank counters.
    pub per_rank: Vec<RankStats>,
    /// Instructions over all ranks, added one action at a time in rank
    /// order: the one float total, so it is summed once, in the order
    /// every reader of a trace meets the actions.
    instructions: f64,
}

impl TraceStats {
    /// Computes statistics for `trace`: [`TraceStats::from_sources`] over
    /// its own action lists.
    pub fn of(trace: &Trace) -> TraceStats {
        match TraceStats::from_sources(crate::binfmt::trace_sources(trace)) {
            Ok(stats) => stats,
            Err(e) => unreachable!("an in-memory action list cannot fail: {e}"),
        }
    }

    /// Computes statistics by draining one action source per rank, in
    /// rank order: a trace is counted as it streams, never held.
    ///
    /// # Errors
    /// The first failure of a source.
    pub fn from_sources<S: ActionSource>(sources: Vec<S>) -> Result<TraceStats, SourceError> {
        let mut per_rank = Vec::with_capacity(sources.len());
        let mut instructions = 0.0;
        for mut source in sources {
            let mut s = RankStats::default();
            while let Some(a) = source.next_action()? {
                s.actions += 1;
                match a {
                    Action::Compute { amount } => {
                        instructions += amount;
                        s.compute_instructions += amount;
                        s.compute_actions += 1;
                    }
                    Action::Send { bytes, .. } | Action::Isend { bytes, .. } => {
                        s.sends += 1;
                        s.bytes_sent += bytes;
                        if bytes < EAGER_THRESHOLD {
                            s.eager_sends += 1;
                        }
                    }
                    Action::Recv { bytes, .. } | Action::Irecv { bytes, .. } => {
                        s.recvs += 1;
                        s.bytes_received += bytes;
                    }
                    Action::Wait | Action::WaitAll => s.waits += 1,
                    a if a.is_collective() => s.collectives += 1,
                    _ => {}
                }
            }
            per_rank.push(s);
        }
        Ok(TraceStats {
            per_rank,
            instructions,
        })
    }

    /// The counters of all ranks added up (what `titreplay inspect` and
    /// `titserved`'s `/inspect` print).
    pub fn total(&self) -> RankStats {
        let mut t = RankStats {
            compute_instructions: self.instructions,
            ..RankStats::default()
        };
        for s in &self.per_rank {
            t.compute_actions += s.compute_actions;
            t.sends += s.sends;
            t.recvs += s.recvs;
            t.bytes_sent += s.bytes_sent;
            t.bytes_received += s.bytes_received;
            t.eager_sends += s.eager_sends;
            t.collectives += s.collectives;
            t.waits += s.waits;
            t.actions += s.actions;
        }
        t
    }

    /// Stats of one rank.
    pub fn rank(&self, rank: Rank) -> &RankStats {
        &self.per_rank[rank.as_usize()]
    }

    /// Total instructions across ranks.
    pub fn total_instructions(&self) -> f64 {
        self.instructions
    }

    /// Mean instructions per rank (the metric quoted in Section 2.2:
    /// "the average total number of instructions per process").
    pub fn mean_instructions_per_rank(&self) -> f64 {
        if self.per_rank.is_empty() {
            0.0
        } else {
            self.total_instructions() / self.per_rank.len() as f64
        }
    }

    /// Total point-to-point messages.
    pub fn total_messages(&self) -> u64 {
        self.total().sends
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new(2);
        t.push(Rank(0), Action::Init);
        t.push(Rank(0), Action::Compute { amount: 1000.0 });
        t.push(
            Rank(0),
            Action::Send {
                dst: Rank(1),
                bytes: 100,
            },
        );
        t.push(
            Rank(0),
            Action::Isend {
                dst: Rank(1),
                bytes: 128 * 1024,
            },
        );
        t.push(Rank(0), Action::Wait);
        t.push(Rank(0), Action::Allreduce { bytes: 40 });
        t.push(Rank(0), Action::Finalize);
        t.push(Rank(1), Action::Init);
        t.push(
            Rank(1),
            Action::Recv {
                src: Rank(0),
                bytes: 100,
            },
        );
        t.push(
            Rank(1),
            Action::Irecv {
                src: Rank(0),
                bytes: 128 * 1024,
            },
        );
        t.push(Rank(1), Action::Wait);
        t.push(Rank(1), Action::Compute { amount: 3000.0 });
        t.push(Rank(1), Action::Allreduce { bytes: 40 });
        t.push(Rank(1), Action::Finalize);
        t
    }

    #[test]
    fn per_rank_counters() {
        let stats = TraceStats::of(&sample());
        let r0 = stats.rank(Rank(0));
        assert_eq!(r0.sends, 2);
        assert_eq!(r0.eager_sends, 1);
        assert_eq!(r0.bytes_sent, 100 + 128 * 1024);
        assert_eq!(r0.recvs, 0);
        assert_eq!(r0.collectives, 1);
        assert_eq!(r0.waits, 1);
        assert_eq!(r0.compute_instructions, 1000.0);
        let r1 = stats.rank(Rank(1));
        assert_eq!(r1.recvs, 2);
        assert_eq!(r1.bytes_received, 100 + 128 * 1024);
        assert_eq!(r1.sends, 0);
    }

    #[test]
    fn aggregates() {
        let stats = TraceStats::of(&sample());
        assert_eq!(stats.total_instructions(), 4000.0);
        let total = stats.total();
        assert_eq!(total.actions, 14);
        assert_eq!((total.sends, total.recvs, total.waits), (2, 2, 2));
        assert_eq!((total.compute_actions, total.collectives), (2, 2));
        assert_eq!(total.bytes_sent, 100 + 128 * 1024);
        assert_eq!(total.compute_instructions, 4000.0);
        assert_eq!(stats.mean_instructions_per_rank(), 2000.0);
        assert_eq!(stats.total_messages(), 2);
        assert_eq!(total.eager_sends, 1);
    }

    #[test]
    fn empty_trace() {
        let stats = TraceStats::of(&Trace::new(4));
        assert_eq!(stats.total_instructions(), 0.0);
        assert_eq!(stats.total().sends, 0);
        assert_eq!(stats.mean_instructions_per_rank(), 0.0);
    }

    #[test]
    fn eager_threshold_is_64k() {
        assert_eq!(EAGER_THRESHOLD, 65536);
        let mut t = Trace::new(2);
        t.push(
            Rank(0),
            Action::Send {
                dst: Rank(1),
                bytes: EAGER_THRESHOLD,
            },
        );
        let stats = TraceStats::of(&t);
        // Exactly at the threshold => rendezvous, not eager.
        assert_eq!(stats.rank(Rank(0)).eager_sends, 0);
    }
}
