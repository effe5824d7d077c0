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
//! Compute amounts are written as integers when they are whole and below
//! 9·10^15 (hardware counters count whole instructions; `-0.0` writes as
//! `0`), and otherwise as the shortest decimal that reads back as the
//! same `f64`, byte for byte what `format!("{v:e}")` writes: the digits,
//! a `.` after the first only when there are more, then `e` and the
//! exponent. Where two shortest decimals are equally near, the larger is
//! written, as std does.
//!
//! Lines are encoded byte by byte into reusable buffers; nothing on the
//! way goes through `core::fmt`. An amount the readers would refuse —
//! negative, NaN or infinite — is not written: the writers stop with
//! [`io::ErrorKind::InvalidData`] naming the rank and the action's index.
//!
//! [`write_sources`] encodes the ranks on every core through the crate's
//! ordered per-rank pipeline (`crate::pipeline`): workers encode whole
//! ranks into 64 KiB chunks, and the calling thread writes the chunks in
//! rank order through one 64 KiB `BufWriter`, so the output, and the
//! first error in rank order, are those of a rank-by-rank writer.
//! [`write_to`] and [`to_string`] are that writer over a decoded trace.

use std::io::{self, Write};

use crate::pipeline::{self, Sink};
use crate::shortest;
use crate::stream::{ActionSource, SourceError};
use crate::{Action, Rank, Trace};

/// Whole compute amounts below this are written as integers.
const INT_BELOW: f64 = 9.0e15;

/// Streams one rank's action stream as text into an `io::Write`.
///
/// # Errors
/// Write failures, and `InvalidData` for an amount the readers refuse.
pub fn write_rank_to<W: Write>(trace: &Trace, rank: Rank, out: &mut W) -> io::Result<()> {
    let mut buf = Vec::with_capacity(pipeline::CHUNK);
    for (index, action) in trace.actions(rank).iter().enumerate() {
        push_line(rank, index as u64, action, &mut buf)?;
        if buf.len() >= pipeline::FULL {
            out.write_all(&buf)?;
            buf.clear();
        }
    }
    out.write_all(&buf)
}

/// Streams the whole trace as merged text into an `io::Write`, rank by
/// rank, without materialising the full text: [`write_sources`] over the
/// trace's own action lists.
///
/// # Errors
/// Write failures, and `InvalidData` for an amount the readers refuse.
pub fn write_to<W: Write>(trace: &Trace, out: &mut W) -> io::Result<()> {
    match write_sources(crate::binfmt::trace_sources(trace), out)? {
        Ok(_) => Ok(()),
        Err(e) => unreachable!("an in-memory action list cannot fail: {e}"),
    }
}

/// Writes the actions `sources` yield (one source per rank, in rank
/// order) as merged text, encoding the ranks in parallel and writing
/// them in rank order. Returns the number of actions written.
///
/// # Errors
/// The outer error is the write's (`InvalidData` for an amount the
/// readers refuse); the inner one is the first failure of a source. Of
/// the two, the one met first in rank order is reported.
pub fn write_sources<S: ActionSource, W: Write>(
    sources: Vec<S>,
    out: &mut W,
) -> io::Result<Result<u64, SourceError>> {
    let mut sink = Text(io::BufWriter::with_capacity(pipeline::CHUNK, out));
    let written = pipeline::write(sources, push_line, &mut sink)?;
    sink.0.flush()?;
    Ok(written)
}

/// The text writer's sink: the output, behind one buffer that gathers
/// the short last chunks of small ranks into full writes.
struct Text<'w, W: Write>(io::BufWriter<&'w mut W>);

impl<W: Write> Sink for Text<'_, W> {
    fn bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0.write_all(bytes)
    }
}

/// Writes the whole trace as a single merged text file, rank by rank (the
/// single-trace-file deployment mode described in Section 3.3: "if this
/// file contains a single entry, all the processes will look for the
/// actions they have to perform into the same trace").
///
/// # Panics
/// On an amount the readers refuse (see [`write_to`]).
pub fn to_string(trace: &Trace) -> String {
    let mut out = Vec::with_capacity(trace.len() * 24);
    write_to(trace, &mut out).expect("trace amounts are finite and >= 0");
    String::from_utf8(out).expect("trace lines are ASCII")
}

/// Refuses action `index` of `rank` when it is a compute amount the
/// readers would not read back: negative, NaN or infinite.
pub(crate) fn check_writable(rank: Rank, index: u64, action: &Action) -> io::Result<()> {
    match *action {
        Action::Compute { amount } if !(amount.is_finite() && amount >= 0.0) => {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{rank} action {index}: compute amount {amount} cannot be written \
                     (trace readers accept only finite amounts >= 0)"
                ),
            ))
        }
        _ => Ok(()),
    }
}

/// Appends the line of action `index` (0-based, in its rank's stream) of
/// `rank` to `buf`, or refuses the action.
pub(crate) fn push_line(
    rank: Rank,
    index: u64,
    action: &Action,
    buf: &mut Vec<u8>,
) -> io::Result<()> {
    check_writable(rank, index, action)?;
    push_rank(buf, rank);
    match *action {
        Action::Init => buf.extend_from_slice(b" init"),
        Action::Finalize => buf.extend_from_slice(b" finalize"),
        Action::Compute { amount } => {
            buf.extend_from_slice(b" compute ");
            // `fract` would be a libm `trunc` call per amount.
            if amount < INT_BELOW && (amount as u64) as f64 == amount {
                push_u64(buf, amount as u64);
            } else {
                shortest::push_exp(buf, amount);
            }
        }
        Action::Send { dst, bytes } => peer_bytes(buf, b" send ", dst, bytes),
        Action::Isend { dst, bytes } => peer_bytes(buf, b" isend ", dst, bytes),
        Action::Recv { src, bytes } => peer_bytes(buf, b" recv ", src, bytes),
        Action::Irecv { src, bytes } => peer_bytes(buf, b" irecv ", src, bytes),
        Action::Wait => buf.extend_from_slice(b" wait"),
        Action::WaitAll => buf.extend_from_slice(b" waitall"),
        Action::Barrier => buf.extend_from_slice(b" barrier"),
        Action::Bcast { bytes, root } => bytes_root(buf, b" bcast ", bytes, root),
        Action::Reduce { bytes, root } => bytes_root(buf, b" reduce ", bytes, root),
        Action::Allreduce { bytes } => verb_bytes(buf, b" allreduce ", bytes),
        Action::Alltoall { bytes } => verb_bytes(buf, b" alltoall ", bytes),
        Action::Gather { bytes, root } => bytes_root(buf, b" gather ", bytes, root),
        Action::Allgather { bytes } => verb_bytes(buf, b" allgather ", bytes),
    }
    buf.push(b'\n');
    Ok(())
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    let mut digits = [0u8; 20];
    let first = shortest::digits(v, &mut digits);
    buf.extend_from_slice(&digits[first..]);
}

fn push_rank(buf: &mut Vec<u8>, rank: Rank) {
    buf.push(b'p');
    push_u64(buf, u64::from(rank.0));
}

fn verb_bytes(buf: &mut Vec<u8>, verb: &[u8], bytes: u64) {
    buf.extend_from_slice(verb);
    push_u64(buf, bytes);
}

fn peer_bytes(buf: &mut Vec<u8>, verb: &[u8], peer: Rank, bytes: u64) {
    buf.extend_from_slice(verb);
    push_rank(buf, peer);
    buf.push(b' ');
    push_u64(buf, bytes);
}

fn bytes_root(buf: &mut Vec<u8>, verb: &[u8], bytes: u64, root: Rank) {
    verb_bytes(buf, verb, bytes);
    buf.push(b' ');
    push_rank(buf, root);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The line `action` encodes to for `rank`, without its newline.
    fn line(rank: Rank, action: Action) -> String {
        let mut t = Trace::new(rank.0 + 1);
        t.push(rank, action);
        let mut out = Vec::new();
        write_rank_to(&t, rank, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        text.strip_suffix('\n').unwrap().to_string()
    }

    #[test]
    fn formats_match_paper_examples() {
        assert_eq!(
            line(Rank(0), Action::Compute { amount: 956140.0 }),
            "p0 compute 956140"
        );
        let send = Action::Send {
            dst: Rank(1),
            bytes: 1240,
        };
        assert_eq!(line(Rank(0), send), "p0 send p1 1240");
        let recv = Action::Recv {
            src: Rank(0),
            bytes: 64,
        };
        assert_eq!(line(Rank(3), recv), "p3 recv p0 64");
    }

    #[test]
    fn collective_formats() {
        assert_eq!(
            line(Rank(2), Action::Allreduce { bytes: 40 }),
            "p2 allreduce 40"
        );
        let bcast = Action::Bcast {
            bytes: 8,
            root: Rank(0),
        };
        assert_eq!(line(Rank(2), bcast), "p2 bcast 8 p0");
        assert_eq!(line(Rank(1), Action::Barrier), "p1 barrier");
        assert_eq!(line(Rank(1), Action::WaitAll), "p1 waitall");
    }

    #[test]
    fn fractional_compute_uses_scientific() {
        assert_eq!(
            line(Rank(0), Action::Compute { amount: 1.5 }),
            "p0 compute 1.5e0"
        );
        assert_eq!(
            line(Rank(0), Action::Compute { amount: 9.0e15 }),
            "p0 compute 9e15"
        );
        assert_eq!(
            line(
                Rank(0),
                Action::Compute {
                    amount: 9.0e15 - 1.0
                }
            ),
            "p0 compute 8999999999999999"
        );
        assert_eq!(
            line(Rank(0), Action::Compute { amount: -0.0 }),
            "p0 compute 0"
        );
    }

    /// Every action kind at its largest fields encodes as the old
    /// `core::fmt` line did.
    #[test]
    fn every_kind_matches_display_formatting() {
        let (r, p, b) = (Rank(u32::MAX), Rank(7), u64::MAX);
        for (action, want) in [
            (Action::Init, format!("{r} init")),
            (Action::Finalize, format!("{r} finalize")),
            (
                Action::Compute { amount: 0.1 },
                format!("{r} compute {:e}", 0.1),
            ),
            (
                Action::Send { dst: p, bytes: b },
                format!("{r} send {p} {b}"),
            ),
            (
                Action::Isend { dst: p, bytes: b },
                format!("{r} isend {p} {b}"),
            ),
            (
                Action::Recv { src: p, bytes: b },
                format!("{r} recv {p} {b}"),
            ),
            (
                Action::Irecv { src: p, bytes: b },
                format!("{r} irecv {p} {b}"),
            ),
            (Action::Wait, format!("{r} wait")),
            (Action::WaitAll, format!("{r} waitall")),
            (Action::Barrier, format!("{r} barrier")),
            (
                Action::Bcast { bytes: b, root: p },
                format!("{r} bcast {b} {p}"),
            ),
            (
                Action::Reduce { bytes: b, root: p },
                format!("{r} reduce {b} {p}"),
            ),
            (Action::Allreduce { bytes: b }, format!("{r} allreduce {b}")),
            (Action::Alltoall { bytes: b }, format!("{r} alltoall {b}")),
            (
                Action::Gather { bytes: b, root: p },
                format!("{r} gather {b} {p}"),
            ),
            (Action::Allgather { bytes: b }, format!("{r} allgather {b}")),
        ] {
            let mut out = Vec::new();
            push_line(r, 0, &action, &mut out).unwrap();
            assert_eq!(out, format!("{want}\n").into_bytes());
        }
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
        assert_eq!(streamed, to_string(&t).into_bytes());
        let mut rank0 = Vec::new();
        write_rank_to(&t, Rank(0), &mut rank0).unwrap();
        assert_eq!(rank0, b"p0 init\np0 compute 1.5e0\np0 finalize\n");
        let mut drained = Vec::new();
        let written = write_sources(crate::binfmt::trace_sources(&t), &mut drained)
            .unwrap()
            .unwrap();
        assert_eq!((written, drained), (4, streamed));
    }

    /// Output larger than one chunk arrives whole and in order.
    #[test]
    fn output_spanning_many_chunks_is_whole() {
        let mut t = Trace::new(1);
        for i in 0..20_000u64 {
            t.push(Rank(0), Action::Allreduce { bytes: i });
        }
        let mut out = Vec::new();
        write_to(&t, &mut out).unwrap();
        let want: String = (0..20_000).map(|i| format!("p0 allreduce {i}\n")).collect();
        assert!(want.len() > 3 * pipeline::CHUNK);
        assert_eq!(out, want.into_bytes());
    }

    /// A compute amount the readers refuse is not written: the writer
    /// fails with `InvalidData` naming the rank and the action's index.
    #[test]
    fn amounts_the_readers_refuse_are_not_written() {
        for bad in [-5.0, -1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut t = Trace::new(2);
            t.push(Rank(1), Action::Init);
            t.push(Rank(1), Action::Compute { amount: bad });
            let mut out = Vec::new();
            let e = write_to(&t, &mut out).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{bad}");
            assert!(e.to_string().contains("p1 action 1"), "{bad}: {e}");
            let path = std::env::temp_dir().join(format!(
                "titrace-write-bad-{}-{}.titb",
                bad.to_bits(),
                std::process::id()
            ));
            match crate::binfmt::write_file(&t, &path, None) {
                Err(crate::files::FileError::Io(p, e)) => {
                    assert_eq!(p, path);
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{bad}");
                    assert!(e.to_string().contains("p1 action 1"), "{bad}: {e}");
                }
                other => panic!("{bad}: binary writer gave {other:?}"),
            }
            assert!(!path.exists(), "{bad}: a refused write leaves no file");
        }
    }
}
