//! Emitting traces in the paper's text format.
//!
//! One line per action, prefixed by the process name:
//!
//! ```text
//! p0 compute 956140
//! p0 send p1 1240
//! p0 recv p2 1240
//! p0 allreduce 40
//! ```
//!
//! Compute amounts are written as integers when exact (hardware counters
//! count whole instructions) and in scientific notation otherwise.

use std::fmt::Write as _;

use crate::{Action, Rank, Trace};

/// Formats one action as a trace line (without trailing newline).
pub fn format_action(rank: Rank, action: &Action, out: &mut String) {
    out.clear();
    let _ = match action {
        Action::Init => write!(out, "{rank} init"),
        Action::Finalize => write!(out, "{rank} finalize"),
        Action::Compute { amount } => {
            if amount.fract() == 0.0 && *amount < 9.0e15 {
                write!(out, "{rank} compute {}", *amount as u64)
            } else {
                write!(out, "{rank} compute {amount:e}")
            }
        }
        Action::Send { dst, bytes } => write!(out, "{rank} send {dst} {bytes}"),
        Action::Isend { dst, bytes } => write!(out, "{rank} isend {dst} {bytes}"),
        Action::Recv { src, bytes } => write!(out, "{rank} recv {src} {bytes}"),
        Action::Irecv { src, bytes } => write!(out, "{rank} irecv {src} {bytes}"),
        Action::Wait => write!(out, "{rank} wait"),
        Action::WaitAll => write!(out, "{rank} waitall"),
        Action::Barrier => write!(out, "{rank} barrier"),
        Action::Bcast { bytes, root } => write!(out, "{rank} bcast {bytes} {root}"),
        Action::Reduce { bytes, root } => write!(out, "{rank} reduce {bytes} {root}"),
        Action::Allreduce { bytes } => write!(out, "{rank} allreduce {bytes}"),
        Action::Alltoall { bytes } => write!(out, "{rank} alltoall {bytes}"),
        Action::Gather { bytes, root } => write!(out, "{rank} gather {bytes} {root}"),
        Action::Allgather { bytes } => write!(out, "{rank} allgather {bytes}"),
    };
}

/// Streams one rank's action stream as text into an `io::Write` — one
/// reusable line buffer, no whole-trace `String`.
///
/// # Errors
/// Propagates write failures.
pub fn write_rank_to<W: std::io::Write>(
    trace: &Trace,
    rank: Rank,
    out: &mut W,
) -> std::io::Result<()> {
    let mut line = String::new();
    for a in trace.actions(rank) {
        format_action(rank, a, &mut line);
        line.push('\n');
        out.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Streams the whole trace as merged text into an `io::Write`, rank by
/// rank, without materialising the full text.
///
/// # Errors
/// Propagates write failures.
pub fn write_to<W: std::io::Write>(trace: &Trace, out: &mut W) -> std::io::Result<()> {
    for (rank, _) in trace.iter() {
        write_rank_to(trace, rank, out)?;
    }
    Ok(())
}

/// Writes the whole trace as a single merged text file, rank by rank (the
/// single-trace-file deployment mode described in Section 3.3: "if this
/// file contains a single entry, all the processes will look for the
/// actions they have to perform into the same trace").
pub fn to_string(trace: &Trace) -> String {
    let mut out = Vec::with_capacity(trace.len() * 24);
    write_to(trace, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("trace lines are ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_match_paper_examples() {
        let mut line = String::new();
        format_action(Rank(0), &Action::Compute { amount: 956140.0 }, &mut line);
        assert_eq!(line, "p0 compute 956140");
        format_action(
            Rank(0),
            &Action::Send {
                dst: Rank(1),
                bytes: 1240,
            },
            &mut line,
        );
        assert_eq!(line, "p0 send p1 1240");
        format_action(
            Rank(3),
            &Action::Recv {
                src: Rank(0),
                bytes: 64,
            },
            &mut line,
        );
        assert_eq!(line, "p3 recv p0 64");
    }

    #[test]
    fn collective_formats() {
        let mut line = String::new();
        format_action(Rank(2), &Action::Allreduce { bytes: 40 }, &mut line);
        assert_eq!(line, "p2 allreduce 40");
        format_action(
            Rank(2),
            &Action::Bcast {
                bytes: 8,
                root: Rank(0),
            },
            &mut line,
        );
        assert_eq!(line, "p2 bcast 8 p0");
        format_action(Rank(1), &Action::Barrier, &mut line);
        assert_eq!(line, "p1 barrier");
        format_action(Rank(1), &Action::WaitAll, &mut line);
        assert_eq!(line, "p1 waitall");
    }

    #[test]
    fn fractional_compute_uses_scientific() {
        let mut line = String::new();
        format_action(Rank(0), &Action::Compute { amount: 1.5 }, &mut line);
        assert_eq!(line, "p0 compute 1.5e0");
    }

    #[test]
    fn merged_output_groups_by_rank() {
        let mut t = Trace::new(2);
        t.push(Rank(0), Action::Init);
        t.push(Rank(1), Action::Init);
        t.push(Rank(0), Action::Finalize);
        t.push(Rank(1), Action::Finalize);
        let s = to_string(&t);
        assert_eq!(s, "p0 init\np0 finalize\np1 init\np1 finalize\n");
    }

    #[test]
    fn streaming_writers_match_string_builders() {
        let mut t = Trace::new(2);
        t.push(Rank(0), Action::Init);
        t.push(Rank(0), Action::Compute { amount: 1.5 });
        t.push(Rank(1), Action::Allreduce { bytes: 40 });
        t.push(Rank(0), Action::Finalize);
        let mut streamed = Vec::new();
        write_to(&t, &mut streamed).unwrap();
        assert_eq!(
            streamed,
            b"p0 init\np0 compute 1.5e0\np0 finalize\np1 allreduce 40\n"
        );
        let mut rank0 = Vec::new();
        write_rank_to(&t, Rank(0), &mut rank0).unwrap();
        assert_eq!(rank0, b"p0 init\np0 compute 1.5e0\np0 finalize\n");
    }
}
