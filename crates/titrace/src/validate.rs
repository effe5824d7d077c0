//! Structural validation of traces.
//!
//! A valid trace is one a replay engine can execute without getting stuck
//! on malformed input:
//!
//! 1. every referenced rank exists, nobody sends to itself;
//! 2. per ordered pair `(src, dst)`, the sequence of send sizes equals the
//!    sequence of receive sizes (MPI point-to-point channels are FIFO);
//! 3. every `wait` has a pending non-blocking request to complete, and no
//!    request is left pending at the end of a rank's stream;
//! 4. all ranks execute the *same* sequence of collective operations;
//! 5. `init`/`finalize`, when present, come first/last.
//!
//! These checks catch corrupted acquisitions; genuine communication
//! deadlocks (cyclic rendezvous waits) are a runtime property detected by
//! the replay engines' deadlock reporting.

use std::collections::BTreeMap;

use crate::{Action, Rank, Trace};

/// A structural defect in a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// An action references a rank outside `0..ranks`.
    RankOutOfRange {
        /// Offending rank (the referenced one).
        rank: Rank,
        /// Where it was referenced.
        at: Rank,
    },
    /// A process sends to itself.
    SelfMessage {
        /// The offending rank.
        rank: Rank,
    },
    /// Send/receive sequences disagree for a channel.
    ChannelMismatch {
        /// Sender.
        src: Rank,
        /// Receiver.
        dst: Rank,
        /// Explanation (count or size sequence difference).
        detail: String,
    },
    /// A `wait` appears with no pending request, or requests remain
    /// pending at the end.
    WaitImbalance {
        /// The offending rank.
        rank: Rank,
        /// Explanation.
        detail: String,
    },
    /// Ranks disagree on the collective sequence.
    CollectiveMismatch {
        /// First rank of the disagreeing pair (always rank 0's view).
        rank: Rank,
        /// Explanation.
        detail: String,
    },
    /// `init` not first or `finalize` not last.
    Framing {
        /// The offending rank.
        rank: Rank,
        /// Explanation.
        detail: String,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::RankOutOfRange { rank, at } => {
                write!(f, "{at} references non-existent rank {rank}")
            }
            ValidationError::SelfMessage { rank } => write!(f, "{rank} sends to itself"),
            ValidationError::ChannelMismatch { src, dst, detail } => {
                write!(f, "channel {src}->{dst}: {detail}")
            }
            ValidationError::WaitImbalance { rank, detail } => write!(f, "{rank}: {detail}"),
            ValidationError::CollectiveMismatch { rank, detail } => {
                write!(f, "{rank}: {detail}")
            }
            ValidationError::Framing { rank, detail } => write!(f, "{rank}: {detail}"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates `trace`, returning every defect found (empty = valid).
pub fn validate(trace: &Trace) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    let ranks = trace.ranks();
    check_references(trace, ranks, &mut errors);
    check_channels(trace, ranks, &mut errors);
    check_waits(trace, &mut errors);
    check_collectives(trace, &mut errors);
    check_framing(trace, &mut errors);
    errors
}

fn check_references(trace: &Trace, ranks: u32, errors: &mut Vec<ValidationError>) {
    for (at, actions) in trace.iter() {
        for a in actions {
            let peer = match a {
                Action::Send { dst, .. } | Action::Isend { dst, .. } => Some(*dst),
                Action::Recv { src, .. } | Action::Irecv { src, .. } => Some(*src),
                Action::Bcast { root, .. }
                | Action::Reduce { root, .. }
                | Action::Gather { root, .. } => Some(*root),
                _ => None,
            };
            if let Some(p) = peer {
                if p.0 >= ranks {
                    errors.push(ValidationError::RankOutOfRange { rank: p, at });
                }
                if a.is_send() && p == at {
                    errors.push(ValidationError::SelfMessage { rank: at });
                }
            }
        }
    }
}

fn check_channels(trace: &Trace, ranks: u32, errors: &mut Vec<ValidationError>) {
    // Channel (src, dst) -> sequences of sizes as sent and as received,
    // over the channels the trace uses, in (src, dst) order.
    let mut channels: BTreeMap<(Rank, Rank), (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for (rank, actions) in trace.iter() {
        for a in actions {
            match a {
                Action::Send { dst, bytes } | Action::Isend { dst, bytes } if dst.0 < ranks => {
                    channels.entry((rank, *dst)).or_default().0.push(*bytes);
                }
                Action::Recv { src, bytes } | Action::Irecv { src, bytes } if src.0 < ranks => {
                    channels.entry((*src, rank)).or_default().1.push(*bytes);
                }
                _ => {}
            }
        }
    }
    for ((src, dst), (tx, rx)) in channels {
        if tx.len() != rx.len() {
            errors.push(ValidationError::ChannelMismatch {
                src,
                dst,
                detail: format!("{} sends vs {} receives", tx.len(), rx.len()),
            });
        } else if tx != rx {
            // Invariant: equal lengths and unequal contents, so some
            // position differs and `at` is `Some`.
            let at = tx.iter().zip(rx.iter()).position(|(a, b)| a != b);
            errors.push(ValidationError::ChannelMismatch {
                src,
                dst,
                detail: format!(
                    "size sequences differ first at message {}",
                    at.expect("sequences differ")
                ),
            });
        }
    }
}

fn check_waits(trace: &Trace, errors: &mut Vec<ValidationError>) {
    for (rank, actions) in trace.iter() {
        let mut pending: i64 = 0;
        for (i, a) in actions.iter().enumerate() {
            match a {
                Action::Isend { .. } | Action::Irecv { .. } => pending += 1,
                Action::Wait => {
                    pending -= 1;
                    if pending < 0 {
                        errors.push(ValidationError::WaitImbalance {
                            rank,
                            detail: format!("wait at action {i} with no pending request"),
                        });
                        pending = 0;
                    }
                }
                Action::WaitAll => pending = 0,
                _ => {}
            }
        }
        if pending > 0 {
            errors.push(ValidationError::WaitImbalance {
                rank,
                detail: format!("{pending} request(s) never completed"),
            });
        }
    }
}

fn collective_signature(actions: &[Action]) -> Vec<Action> {
    actions
        .iter()
        .filter(|a| a.is_collective())
        .copied()
        .collect()
}

fn check_collectives(trace: &Trace, errors: &mut Vec<ValidationError>) {
    if trace.ranks() == 0 {
        return;
    }
    let reference = collective_signature(trace.actions(Rank(0)));
    for (rank, actions) in trace.iter().skip(1) {
        let sig = collective_signature(actions);
        if sig.len() != reference.len() {
            errors.push(ValidationError::CollectiveMismatch {
                rank,
                detail: format!(
                    "rank 0 performs {} collectives, {rank} performs {}",
                    reference.len(),
                    sig.len()
                ),
            });
            continue;
        }
        if let Some(i) = reference.iter().zip(sig.iter()).position(|(a, b)| a != b) {
            errors.push(ValidationError::CollectiveMismatch {
                rank,
                detail: format!("collective {i} differs from rank 0's"),
            });
        }
    }
}

fn check_framing(trace: &Trace, errors: &mut Vec<ValidationError>) {
    for (rank, actions) in trace.iter() {
        for (i, a) in actions.iter().enumerate() {
            if matches!(a, Action::Init) && i != 0 {
                errors.push(ValidationError::Framing {
                    rank,
                    detail: format!("init at position {i}"),
                });
            }
            if matches!(a, Action::Finalize) && i != actions.len() - 1 {
                errors.push(ValidationError::Framing {
                    rank,
                    detail: format!("finalize at position {i} of {}", actions.len()),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ping_pong() -> Trace {
        let mut t = Trace::new(2);
        t.push(Rank(0), Action::Init);
        t.push(
            Rank(0),
            Action::Send {
                dst: Rank(1),
                bytes: 64,
            },
        );
        t.push(
            Rank(0),
            Action::Recv {
                src: Rank(1),
                bytes: 64,
            },
        );
        t.push(Rank(0), Action::Finalize);
        t.push(Rank(1), Action::Init);
        t.push(
            Rank(1),
            Action::Recv {
                src: Rank(0),
                bytes: 64,
            },
        );
        t.push(
            Rank(1),
            Action::Send {
                dst: Rank(0),
                bytes: 64,
            },
        );
        t.push(Rank(1), Action::Finalize);
        t
    }

    #[test]
    fn valid_ping_pong() {
        assert!(validate(&ping_pong()).is_empty());
    }

    #[test]
    fn detects_unmatched_send() {
        let mut t = ping_pong();
        t.actions_mut(Rank(0)).insert(
            3,
            Action::Send {
                dst: Rank(1),
                bytes: 8,
            },
        );
        let errs = validate(&t);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::ChannelMismatch { .. })));
    }

    #[test]
    fn detects_size_mismatch() {
        let mut t = ping_pong();
        // Corrupt the receive size.
        let a = &mut t.actions_mut(Rank(1))[1];
        *a = Action::Recv {
            src: Rank(0),
            bytes: 63,
        };
        let errs = validate(&t);
        assert!(errs.iter().any(|e| matches!(
            e,
            ValidationError::ChannelMismatch { detail, .. } if detail.contains("size")
        )));
    }

    #[test]
    fn detects_self_message() {
        let mut t = Trace::new(1);
        t.push(
            Rank(0),
            Action::Send {
                dst: Rank(0),
                bytes: 1,
            },
        );
        let errs = validate(&t);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::SelfMessage { .. })));
    }

    #[test]
    fn detects_rank_out_of_range() {
        let mut t = Trace::new(2);
        t.push(
            Rank(0),
            Action::Send {
                dst: Rank(7),
                bytes: 1,
            },
        );
        let errs = validate(&t);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::RankOutOfRange { rank: Rank(7), .. })));
    }

    #[test]
    fn detects_wait_without_request() {
        let mut t = Trace::new(1);
        t.push(Rank(0), Action::Wait);
        let errs = validate(&t);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::WaitImbalance { .. })));
    }

    #[test]
    fn detects_dangling_request() {
        let mut t = Trace::new(2);
        t.push(
            Rank(0),
            Action::Isend {
                dst: Rank(1),
                bytes: 4,
            },
        );
        t.push(
            Rank(1),
            Action::Recv {
                src: Rank(0),
                bytes: 4,
            },
        );
        let errs = validate(&t);
        assert!(errs.iter().any(|e| matches!(
            e,
            ValidationError::WaitImbalance { detail, .. } if detail.contains("never completed")
        )));
    }

    #[test]
    fn waitall_clears_pending() {
        let mut t = Trace::new(2);
        t.push(
            Rank(0),
            Action::Isend {
                dst: Rank(1),
                bytes: 4,
            },
        );
        t.push(
            Rank(0),
            Action::Isend {
                dst: Rank(1),
                bytes: 4,
            },
        );
        t.push(Rank(0), Action::WaitAll);
        t.push(
            Rank(1),
            Action::Irecv {
                src: Rank(0),
                bytes: 4,
            },
        );
        t.push(
            Rank(1),
            Action::Irecv {
                src: Rank(0),
                bytes: 4,
            },
        );
        t.push(Rank(1), Action::WaitAll);
        assert!(validate(&t).is_empty());
    }

    #[test]
    fn detects_collective_mismatch() {
        let mut t = Trace::new(2);
        t.push(Rank(0), Action::Allreduce { bytes: 40 });
        // Rank 1 never joins the allreduce.
        let errs = validate(&t);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::CollectiveMismatch { .. })));
    }

    #[test]
    fn detects_collective_payload_disagreement() {
        let mut t = Trace::new(2);
        t.push(Rank(0), Action::Allreduce { bytes: 40 });
        t.push(Rank(1), Action::Allreduce { bytes: 48 });
        let errs = validate(&t);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::CollectiveMismatch { .. })));
    }

    #[test]
    fn detects_bad_framing() {
        let mut t = Trace::new(1);
        t.push(Rank(0), Action::Compute { amount: 1.0 });
        t.push(Rank(0), Action::Init);
        let errs = validate(&t);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::Framing { .. })));
    }

    /// Channel bookkeeping follows the pairs a trace uses, not P²: a
    /// 4096-rank ring validates clean (and quickly).
    #[test]
    fn large_ring_validates_clean() {
        let ranks = 4096;
        let mut t = Trace::new(ranks);
        for r in 0..ranks {
            let (right, left) = (Rank((r + 1) % ranks), Rank((r + ranks - 1) % ranks));
            t.push(
                Rank(r),
                Action::Isend {
                    dst: right,
                    bytes: 8,
                },
            );
            t.push(
                Rank(r),
                Action::Recv {
                    src: left,
                    bytes: 8,
                },
            );
            t.push(Rank(r), Action::Wait);
        }
        assert_eq!(validate(&t), Vec::new());
    }

    #[test]
    fn empty_trace_is_valid() {
        assert!(validate(&Trace::new(0)).is_empty());
        assert!(validate(&Trace::new(8)).is_empty());
    }
}
