//! Streaming and parallel trace ingestion.
//!
//! The original ingestion path read every trace file with
//! `fs::read_to_string` and materialised the full `Vec<Vec<Action>>`
//! before the first simulated event fired. This module provides the
//! scalable alternatives:
//!
//! * a **zero-copy byte decoder** ([`parse_line_bytes`],
//!   [`parse_merged_bytes`]) that tokenises `&[u8]` slices directly —
//!   no per-line `String`, no up-front UTF-8 validation pass;
//! * a **chunked parallel decoder** ([`parse_merged_parallel`]) that
//!   splits a merged file at line boundaries, demultiplexes each chunk
//!   into per-rank action lists on a scoped worker pool, and stitches
//!   the per-rank lists back in chunk order — byte-identical to the
//!   sequential parse at any worker count;
//! * an [`ActionSource`] **cursor abstraction** that lets the replay
//!   engines pull actions per rank incrementally, bounding resident
//!   memory to O(ranks · window) for split text files and to the
//!   (much smaller) encoded bytes for `.titb` binary traces;
//! * an automatic **binary side-car cache** ([`load_merged_cached`]):
//!   parsing a merged text trace drops a `.titb` next to it, keyed on
//!   the source's size + mtime, and later loads hit the binary path.
//!
//! Worker counts follow the `TITR_SWEEP_THREADS` convention used by the
//! experiment sweeps: the variable forces a count (1 = sequential),
//! otherwise the machine's available parallelism is used.

use std::io::{self, BufRead};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::files::FileError;
use crate::parse::ParseError;
use crate::{binfmt, Action, Rank, Trace};

// ----------------------------------------------------------------------
// Zero-copy text decoding
// ----------------------------------------------------------------------

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Iterator over ASCII-whitespace-separated tokens of a byte slice.
struct Tokens<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let start = self.rest.iter().position(|b| !b.is_ascii_whitespace())?;
        let rest = &self.rest[start..];
        let end = rest
            .iter()
            .position(u8::is_ascii_whitespace)
            .unwrap_or(rest.len());
        self.rest = &rest[end..];
        Some(&rest[..end])
    }
}

/// A token as UTF-8 text (tokens are almost always pure ASCII; the
/// conversion validates without copying).
fn token_str<'a>(tok: &'a [u8], line: usize, what: &str) -> Result<&'a str, ParseError> {
    std::str::from_utf8(tok).map_err(|_| {
        err(
            line,
            format!("invalid {what} `{}`", String::from_utf8_lossy(tok)),
        )
    })
}

fn parse_rank_tok(tok: &[u8], line: usize) -> Result<Rank, ParseError> {
    let digits = tok.strip_prefix(b"p").unwrap_or(tok);
    token_str(digits, line, "rank token")
        .ok()
        .and_then(|s| s.parse::<u32>().ok())
        .map(Rank)
        .ok_or_else(|| {
            err(
                line,
                format!("invalid rank token `{}`", String::from_utf8_lossy(tok)),
            )
        })
}

fn parse_bytes_tok(tok: &[u8], line: usize) -> Result<u64, ParseError> {
    token_str(tok, line, "byte count")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| {
            err(
                line,
                format!("invalid byte count `{}`", String::from_utf8_lossy(tok)),
            )
        })
}

fn parse_amount_tok(tok: &[u8], line: usize) -> Result<f64, ParseError> {
    let v: f64 = token_str(tok, line, "compute amount")?
        .parse()
        .map_err(|_| {
            err(
                line,
                format!("invalid compute amount `{}`", String::from_utf8_lossy(tok)),
            )
        })?;
    if !v.is_finite() || v < 0.0 {
        return Err(err(line, format!("compute amount out of range: {v}")));
    }
    Ok(v)
}

/// Parses one trace line from raw bytes into `(rank, action)`. Returns
/// `Ok(None)` for blank lines and `#` comments. This is the canonical
/// parser — [`crate::parse::parse_line`] delegates here — and it never
/// allocates on the success path.
pub fn parse_line_bytes(raw: &[u8], line: usize) -> Result<Option<(Rank, Action)>, ParseError> {
    let mut toks = Tokens { rest: raw };
    let Some(rank_tok) = toks.next() else {
        return Ok(None);
    };
    if rank_tok[0] == b'#' {
        return Ok(None);
    }
    let rank = parse_rank_tok(rank_tok, line)?;
    let verb = toks
        .next()
        .ok_or_else(|| err(line, "missing action verb"))?;
    let mut next = |what: &str| {
        toks.next().ok_or_else(|| {
            err(
                line,
                format!("missing {what} for `{}`", String::from_utf8_lossy(verb)),
            )
        })
    };
    let action = match verb {
        b"init" => Action::Init,
        b"finalize" => Action::Finalize,
        b"compute" => Action::Compute {
            amount: parse_amount_tok(next("amount")?, line)?,
        },
        b"send" | b"isend" => {
            let dst = parse_rank_tok(next("destination")?, line)?;
            let bytes = parse_bytes_tok(next("size")?, line)?;
            if verb == b"send" {
                Action::Send { dst, bytes }
            } else {
                Action::Isend { dst, bytes }
            }
        }
        b"recv" | b"irecv" => {
            let src = parse_rank_tok(next("source")?, line)?;
            let bytes = parse_bytes_tok(next("size")?, line)?;
            if verb == b"recv" {
                Action::Recv { src, bytes }
            } else {
                Action::Irecv { src, bytes }
            }
        }
        b"wait" => Action::Wait,
        b"waitall" => Action::WaitAll,
        b"barrier" => Action::Barrier,
        b"bcast" => Action::Bcast {
            bytes: parse_bytes_tok(next("size")?, line)?,
            root: parse_rank_tok(next("root")?, line)?,
        },
        b"reduce" => Action::Reduce {
            bytes: parse_bytes_tok(next("size")?, line)?,
            root: parse_rank_tok(next("root")?, line)?,
        },
        b"allreduce" => Action::Allreduce {
            bytes: parse_bytes_tok(next("size")?, line)?,
        },
        b"alltoall" => Action::Alltoall {
            bytes: parse_bytes_tok(next("size")?, line)?,
        },
        b"gather" => Action::Gather {
            bytes: parse_bytes_tok(next("size")?, line)?,
            root: parse_rank_tok(next("root")?, line)?,
        },
        b"allgather" => Action::Allgather {
            bytes: parse_bytes_tok(next("size")?, line)?,
        },
        other => {
            return Err(err(
                line,
                format!("unknown action verb `{}`", String::from_utf8_lossy(other)),
            ))
        }
    };
    if let Some(extra) = toks.next() {
        return Err(err(
            line,
            format!(
                "trailing token `{}` after `{}`",
                String::from_utf8_lossy(extra),
                String::from_utf8_lossy(verb)
            ),
        ));
    }
    Ok(Some((rank, action)))
}

/// Output of decoding one chunk of a merged file.
struct ChunkOut {
    /// Actions demultiplexed by rank, in chunk line order.
    per_rank: Vec<Vec<Action>>,
    /// Newlines in the chunk (for global line-number accounting).
    newlines: usize,
}

/// Decodes one chunk of a merged trace. Errors carry chunk-local line
/// numbers; the caller rebases them.
fn decode_chunk(bytes: &[u8], ranks: u32) -> Result<ChunkOut, ParseError> {
    let mut per_rank: Vec<Vec<Action>> = (0..ranks).map(|_| Vec::new()).collect();
    let mut line = 0usize;
    for raw in bytes.split(|&b| b == b'\n') {
        line += 1;
        if let Some((rank, action)) = parse_line_bytes(raw, line)? {
            if rank.0 >= ranks {
                return Err(err(
                    line,
                    format!("rank {rank} out of range (trace has {ranks} ranks)"),
                ));
            }
            per_rank[rank.as_usize()].push(action);
        }
    }
    let newlines = bytes.iter().filter(|&&b| b == b'\n').count();
    Ok(ChunkOut { per_rank, newlines })
}

/// Parses a merged trace directly from bytes — the zero-copy equivalent
/// of [`crate::parse::parse_merged`], which delegates here.
///
/// # Errors
/// Returns the first line that fails to parse.
pub fn parse_merged_bytes(bytes: &[u8], ranks: u32) -> Result<Trace, ParseError> {
    decode_chunk(bytes, ranks).map(|c| Trace::from_actions(c.per_rank))
}

/// Splits `bytes` into at most `parts` non-empty chunks, cutting only
/// immediately after a newline so no line straddles two chunks.
fn split_at_lines(bytes: &[u8], parts: usize) -> Vec<&[u8]> {
    let mut chunks = Vec::with_capacity(parts);
    let mut start = 0usize;
    for i in 1..parts {
        let target = (bytes.len() * i) / parts;
        if target <= start {
            continue;
        }
        // Advance to just past the next newline at or after `target`.
        let cut = match bytes[target..].iter().position(|&b| b == b'\n') {
            Some(off) => target + off + 1,
            None => bytes.len(),
        };
        if cut > start && cut < bytes.len() {
            chunks.push(&bytes[start..cut]);
            start = cut;
        }
    }
    if start < bytes.len() {
        chunks.push(&bytes[start..]);
    }
    if chunks.is_empty() {
        chunks.push(bytes);
    }
    chunks
}

/// Below this size a parallel parse is all overhead.
const PARALLEL_MIN_BYTES: usize = 64 * 1024;

/// Chooses the ingest worker count for `items` independent work units:
/// `TITR_SWEEP_THREADS` when set (1 forces sequential), otherwise the
/// machine's available parallelism, never more than `items`.
pub fn worker_count(items: usize) -> usize {
    let workers = std::env::var("TITR_SWEEP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    workers.min(items).max(1)
}

/// Parses a merged trace from bytes on `workers` threads: the buffer is
/// chunked at line boundaries, each chunk is demultiplexed into
/// per-rank lists independently, and the lists are stitched back in
/// chunk order — so each rank's relative order (= line order) is
/// preserved and the result equals [`parse_merged_bytes`] exactly.
///
/// # Errors
/// Returns the earliest failing line, with its global line number.
pub fn parse_merged_parallel(
    bytes: &[u8],
    ranks: u32,
    workers: usize,
) -> Result<Trace, ParseError> {
    if workers <= 1 || bytes.len() < PARALLEL_MIN_BYTES {
        return parse_merged_bytes(bytes, ranks);
    }
    let chunks = split_at_lines(bytes, workers);
    if chunks.len() <= 1 {
        return parse_merged_bytes(bytes, ranks);
    }
    let results: Vec<Result<ChunkOut, ParseError>> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| s.spawn(move |_| decode_chunk(chunk, ranks)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ingest worker panicked"))
            .collect()
    })
    .expect("ingest scope failed");

    // Rebase the earliest error (if any) to its global line number. All
    // chunks before the failing one parsed fully, so their newline
    // counts are exact.
    let mut lines_before = 0usize;
    let mut outs = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Ok(out) => {
                lines_before += out.newlines;
                outs.push(out);
            }
            Err(e) => {
                return Err(err(lines_before + e.line, e.message));
            }
        }
    }
    // Stitch: concatenate each rank's sub-lists in chunk order.
    let mut per_rank: Vec<Vec<Action>> = (0..ranks as usize)
        .map(|r| {
            let total: usize = outs.iter().map(|o| o.per_rank[r].len()).sum();
            Vec::with_capacity(total)
        })
        .collect();
    for out in outs {
        for (r, mut list) in out.per_rank.into_iter().enumerate() {
            per_rank[r].append(&mut list);
        }
    }
    Ok(Trace::from_actions(per_rank))
}

// ----------------------------------------------------------------------
// Incremental per-rank cursors
// ----------------------------------------------------------------------

/// Why an incremental source failed mid-pull.
#[derive(Debug)]
pub enum SourceError {
    /// I/O failure on the underlying file.
    Io(PathBuf, io::Error),
    /// A text line failed to parse.
    Parse(PathBuf, ParseError),
    /// A binary block failed to decode.
    Bin(PathBuf, binfmt::BinError),
    /// A split file contained a line for another rank.
    WrongRank {
        /// Offending file.
        path: PathBuf,
        /// Rank the file is assigned to.
        expected: Rank,
        /// Rank found on the line.
        found: Rank,
        /// 1-based line number.
        line: usize,
    },
    /// An action names a peer rank the trace does not have.
    PeerOutOfRange {
        /// Rank named by the action.
        peer: Rank,
        /// Number of ranks in the trace.
        ranks: u32,
    },
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            SourceError::Parse(p, e) => write!(f, "{}: {e}", p.display()),
            SourceError::Bin(p, e) => write!(f, "{}: {e}", p.display()),
            SourceError::WrongRank {
                path,
                expected,
                found,
                line,
            } => write!(
                f,
                "{}: line {line} belongs to rank {found} but the file is assigned to rank {expected}",
                path.display()
            ),
            SourceError::PeerOutOfRange { peer, ranks } => {
                write!(f, "an action references peer {peer} outside 0..{ranks}")
            }
        }
    }
}

impl std::error::Error for SourceError {}

/// An incremental cursor over one rank's action stream. Unlike a
/// materialised [`Trace`], a source may be backed by a file and read
/// lazily, so pulling can fail.
pub trait ActionSource: Send {
    /// The next action, or `Ok(None)` at end of stream.
    ///
    /// # Errors
    /// I/O, parse, or decode failures of the backing store.
    fn next_action(&mut self) -> Result<Option<Action>, SourceError>;

    /// Remaining actions, when cheaply known (used for pre-sizing).
    fn remaining_hint(&self) -> Option<u64> {
        None
    }
}

/// An [`ActionSource`] over one rank of a shared in-memory trace.
pub struct MemorySource {
    trace: Arc<Trace>,
    rank: Rank,
    next: usize,
}

impl MemorySource {
    /// A cursor over `rank` of `trace`.
    pub fn new(trace: Arc<Trace>, rank: Rank) -> MemorySource {
        MemorySource {
            trace,
            rank,
            next: 0,
        }
    }
}

impl ActionSource for MemorySource {
    fn next_action(&mut self) -> Result<Option<Action>, SourceError> {
        let actions = self.trace.actions(self.rank);
        let a = actions.get(self.next).copied();
        if a.is_some() {
            self.next += 1;
        }
        Ok(a)
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some((self.trace.actions(self.rank).len() - self.next) as u64)
    }
}

/// Per-rank cursors over a shared in-memory trace.
pub fn memory_sources(trace: &Arc<Trace>) -> Vec<Box<dyn ActionSource>> {
    (0..trace.ranks())
        .map(|r| Box::new(MemorySource::new(Arc::clone(trace), Rank(r))) as Box<dyn ActionSource>)
        .collect()
}

/// An [`ActionSource`] streaming one rank's split text file through a
/// buffered reader — resident memory is one line window, not the file.
pub struct TextFileSource {
    path: PathBuf,
    reader: io::BufReader<std::fs::File>,
    rank: Rank,
    line: usize,
    buf: Vec<u8>,
}

impl TextFileSource {
    /// Opens `path` as the action stream of `rank`.
    ///
    /// # Errors
    /// Propagates the open failure.
    pub fn open(path: &Path, rank: Rank) -> Result<TextFileSource, SourceError> {
        let file = std::fs::File::open(path).map_err(|e| SourceError::Io(path.to_path_buf(), e))?;
        Ok(TextFileSource {
            path: path.to_path_buf(),
            reader: io::BufReader::new(file),
            rank,
            line: 0,
            buf: Vec::with_capacity(80),
        })
    }
}

impl ActionSource for TextFileSource {
    fn next_action(&mut self) -> Result<Option<Action>, SourceError> {
        loop {
            self.buf.clear();
            let n = self
                .reader
                .read_until(b'\n', &mut self.buf)
                .map_err(|e| SourceError::Io(self.path.clone(), e))?;
            if n == 0 {
                return Ok(None);
            }
            self.line += 1;
            match parse_line_bytes(&self.buf, self.line) {
                Ok(None) => continue,
                Ok(Some((rank, action))) => {
                    if rank != self.rank {
                        return Err(SourceError::WrongRank {
                            path: self.path.clone(),
                            expected: self.rank,
                            found: rank,
                            line: self.line,
                        });
                    }
                    return Ok(Some(action));
                }
                Err(e) => return Err(SourceError::Parse(self.path.clone(), e)),
            }
        }
    }
}

// ----------------------------------------------------------------------
// Unified trace inputs
// ----------------------------------------------------------------------

/// Where a replay's actions come from.
#[derive(Debug, Clone)]
pub enum TraceInput {
    /// An already-materialised trace.
    Memory(Arc<Trace>),
    /// A merged text file (all ranks in one file).
    MergedText(PathBuf),
    /// A description file listing per-rank (or one merged) trace files.
    Description(PathBuf),
    /// A compact binary `.titb` trace.
    Binary(PathBuf),
}

impl TraceInput {
    /// Classifies an on-disk trace by content and name: `.titb` magic →
    /// binary, `.desc` extension → description file, anything else →
    /// merged text.
    ///
    /// # Errors
    /// Propagates the sniffing read failure.
    pub fn detect(path: &Path) -> Result<TraceInput, FileError> {
        use std::io::Read;
        let mut head = [0u8; 4];
        let mut f = std::fs::File::open(path).map_err(|e| FileError::Io(path.to_path_buf(), e))?;
        let n = f
            .read(&mut head)
            .map_err(|e| FileError::Io(path.to_path_buf(), e))?;
        if n == 4 && head == *binfmt::MAGIC {
            return Ok(TraceInput::Binary(path.to_path_buf()));
        }
        if path.extension().is_some_and(|e| e == "desc") {
            return Ok(TraceInput::Description(path.to_path_buf()));
        }
        Ok(TraceInput::MergedText(path.to_path_buf()))
    }
}

/// Opens per-rank incremental cursors for `input`.
///
/// Split description files and binary traces stream (split files keep a
/// one-line window per rank; binary cursors decode on the fly from the
/// encoded bytes). Merged text cannot be streamed per rank without one
/// scan per rank, so it is decoded in parallel up front and served from
/// memory.
///
/// # Errors
/// Propagates I/O, parse, and layout failures.
pub fn open_sources(
    input: &TraceInput,
    ranks: u32,
) -> Result<Vec<Box<dyn ActionSource>>, FileError> {
    match input {
        TraceInput::Memory(trace) => Ok(memory_sources(trace)),
        TraceInput::MergedText(path) => {
            let trace = load_merged(path, ranks)?;
            Ok(memory_sources(&Arc::new(trace)))
        }
        TraceInput::Binary(path) => binfmt::open_cursors(path, ranks),
        TraceInput::Description(path) => {
            let entries = crate::files::description_entries(path, ranks)?;
            if entries.len() == 1 {
                let trace = load_merged(&entries[0].1, ranks)?;
                return Ok(memory_sources(&Arc::new(trace)));
            }
            entries
                .iter()
                .map(|(rank, p)| {
                    TextFileSource::open(p, *rank)
                        .map(|s| Box::new(s) as Box<dyn ActionSource>)
                        .map_err(|e| match e {
                            SourceError::Io(p, e) => FileError::Io(p, e),
                            other => FileError::Description(path.to_path_buf(), other.to_string()),
                        })
                })
                .collect()
        }
    }
}

/// Fully materialises `input` as a [`Trace`] (used by `trace pack` and
/// the experiment drivers).
///
/// # Errors
/// Propagates I/O, parse, and decode failures.
pub fn load_trace(input: &TraceInput, ranks: u32) -> Result<Trace, FileError> {
    match input {
        TraceInput::Memory(trace) => Ok(trace.as_ref().clone()),
        TraceInput::MergedText(path) => load_merged(path, ranks),
        TraceInput::Binary(path) => binfmt::read_file(path),
        TraceInput::Description(path) => crate::files::read_description(path, ranks),
    }
}

/// Loads a merged text trace with the parallel decoder.
///
/// # Errors
/// Propagates I/O and parse failures.
pub fn load_merged(path: &Path, ranks: u32) -> Result<Trace, FileError> {
    let bytes = std::fs::read(path).map_err(|e| FileError::Io(path.to_path_buf(), e))?;
    let workers = worker_count(usize::MAX);
    parse_merged_parallel(&bytes, ranks, workers)
        .map_err(|e| FileError::Parse(path.to_path_buf(), e))
}

// ----------------------------------------------------------------------
// Binary side-car cache
// ----------------------------------------------------------------------

/// The side-car cache file of a text trace: `<name>.titb` appended to
/// the full file name (`app.trace` → `app.trace.titb`).
pub fn sidecar_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map_or_else(Default::default, |n| n.to_os_string());
    name.push(".titb");
    path.with_file_name(name)
}

/// The cache key of a source file: `(len, mtime_ns)`. A side-car whose
/// header records a different signature is stale and ignored.
///
/// # Errors
/// Propagates the metadata read failure.
pub fn source_signature(path: &Path) -> io::Result<(u64, u64)> {
    let meta = std::fs::metadata(path)?;
    let mtime_ns = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    Ok((meta.len(), mtime_ns))
}

/// How [`load_merged_cached`] obtained the trace (for logging/tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The side-car matched the source signature and was loaded.
    Hit,
    /// The text was parsed and a fresh side-car was written.
    MissStored,
    /// The text was parsed; no side-car was written (disabled or the
    /// write failed — the cache is best-effort).
    MissUncached,
}

/// Loads a merged text trace through its binary side-car cache: a
/// `.titb` next to the source whose header matches the source's
/// size+mtime signature is decoded instead of the text; otherwise the
/// text is parsed (in parallel) and, when `cache` is set, the side-car
/// is (re)written for next time.
///
/// # Errors
/// Propagates I/O and parse failures of the *source*; a corrupt or
/// stale side-car is treated as a miss, never an error.
pub fn load_merged_cached(
    path: &Path,
    ranks: u32,
    cache: bool,
) -> Result<(Trace, CacheOutcome), FileError> {
    let sig = source_signature(path).map_err(|e| FileError::Io(path.to_path_buf(), e))?;
    let sidecar = sidecar_path(path);
    if cache {
        if let Ok(bytes) = std::fs::read(&sidecar) {
            if let Ok(header) = binfmt::read_header(&bytes) {
                if header.ranks == ranks && header.source_signature == Some(sig) {
                    if let Ok(trace) = binfmt::decode(&bytes) {
                        return Ok((trace, CacheOutcome::Hit));
                    }
                }
            }
        }
    }
    let trace = load_merged(path, ranks)?;
    if !cache {
        return Ok((trace, CacheOutcome::MissUncached));
    }
    let outcome = match binfmt::write_file(&trace, &sidecar, Some(sig)) {
        Ok(()) => CacheOutcome::MissStored,
        Err(_) => CacheOutcome::MissUncached,
    };
    Ok((trace, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn sample_text(ranks: u32, per_rank: usize) -> String {
        let mut t = Trace::new(ranks);
        for r in 0..ranks {
            t.push(Rank(r), Action::Init);
            for i in 0..per_rank {
                t.push(
                    Rank(r),
                    Action::Compute {
                        amount: (i * 10 + r as usize) as f64,
                    },
                );
                t.push(
                    Rank(r),
                    Action::Send {
                        dst: Rank((r + 1) % ranks),
                        bytes: 64 + u64::from(r),
                    },
                );
            }
            t.push(Rank(r), Action::Finalize);
        }
        crate::write::to_string(&t)
    }

    #[test]
    fn byte_parser_matches_str_parser() {
        let text = sample_text(4, 50);
        let a = parse::parse_merged(&text, 4).unwrap();
        let b = parse_merged_bytes(text.as_bytes(), 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_parse_equals_sequential_at_any_worker_count() {
        let text = sample_text(8, 400); // > PARALLEL_MIN_BYTES
        assert!(text.len() > PARALLEL_MIN_BYTES);
        let sequential = parse_merged_bytes(text.as_bytes(), 8).unwrap();
        for workers in [2, 3, 7, 16] {
            let parallel = parse_merged_parallel(text.as_bytes(), 8, workers).unwrap();
            assert_eq!(parallel, sequential, "workers={workers}");
        }
    }

    #[test]
    fn parallel_parse_reports_global_line_numbers() {
        let mut text = sample_text(2, 2000);
        assert!(text.len() > PARALLEL_MIN_BYTES);
        text.push_str("p0 teleport 3\n");
        let total_lines = text.lines().count();
        for workers in [1, 2, 5] {
            let e = parse_merged_parallel(text.as_bytes(), 2, workers).unwrap_err();
            assert_eq!(e.line, total_lines, "workers={workers}");
            assert!(e.message.contains("teleport"));
        }
    }

    #[test]
    fn split_at_lines_covers_the_buffer_without_splitting_lines() {
        let text = sample_text(3, 100);
        for parts in [1, 2, 4, 9] {
            let chunks = split_at_lines(text.as_bytes(), parts);
            let total: usize = chunks.iter().map(|c| c.len()).sum();
            assert_eq!(total, text.len());
            for c in &chunks[..chunks.len() - 1] {
                assert_eq!(*c.last().unwrap(), b'\n', "chunk must end at a line");
            }
        }
    }

    #[test]
    fn memory_source_streams_a_rank() {
        let text = sample_text(2, 3);
        let trace = Arc::new(parse_merged_bytes(text.as_bytes(), 2).unwrap());
        let mut src = MemorySource::new(Arc::clone(&trace), Rank(1));
        let mut got = Vec::new();
        while let Some(a) = src.next_action().unwrap() {
            got.push(a);
        }
        assert_eq!(got.as_slice(), trace.actions(Rank(1)));
    }

    #[test]
    fn text_file_source_streams_and_checks_rank() {
        let dir = std::env::temp_dir().join(format!("titrace-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("r1.trace");
        std::fs::write(&p, "# comment\np1 init\np1 compute 10\np1 finalize\n").unwrap();
        let mut src = TextFileSource::open(&p, Rank(1)).unwrap();
        assert_eq!(src.next_action().unwrap(), Some(Action::Init));
        assert_eq!(
            src.next_action().unwrap(),
            Some(Action::Compute { amount: 10.0 })
        );
        assert_eq!(src.next_action().unwrap(), Some(Action::Finalize));
        assert_eq!(src.next_action().unwrap(), None);

        let bad = dir.join("bad.trace");
        std::fs::write(&bad, "p0 init\n").unwrap();
        let mut src = TextFileSource::open(&bad, Rank(1)).unwrap();
        assert!(matches!(
            src.next_action(),
            Err(SourceError::WrongRank { found: Rank(0), .. })
        ));
    }

    #[test]
    fn sidecar_cache_roundtrip_and_invalidation() {
        let dir = std::env::temp_dir().join(format!("titrace-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("app.trace");
        std::fs::write(&p, sample_text(3, 5)).unwrap();
        let (first, outcome) = load_merged_cached(&p, 3, true).unwrap();
        assert_eq!(outcome, CacheOutcome::MissStored);
        assert!(sidecar_path(&p).exists());
        let (second, outcome) = load_merged_cached(&p, 3, true).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(first, second);
        // Touch the source: the cache must invalidate (size change).
        std::fs::write(&p, sample_text(3, 6)).unwrap();
        let (third, outcome) = load_merged_cached(&p, 3, true).unwrap();
        assert_eq!(outcome, CacheOutcome::MissStored);
        assert_ne!(first, third);
        // Disabled cache never reads or writes the side-car.
        std::fs::remove_file(sidecar_path(&p)).unwrap();
        let (_, outcome) = load_merged_cached(&p, 3, false).unwrap();
        assert_eq!(outcome, CacheOutcome::MissUncached);
        assert!(!sidecar_path(&p).exists());
    }

    #[test]
    fn concurrent_sidecar_opens_never_observe_a_torn_cache() {
        let dir = std::env::temp_dir().join(format!("titrace-cache-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("app.trace");
        std::fs::write(&p, sample_text(4, 200)).unwrap();
        let expected = {
            let (t, _) = load_merged_cached(&p, 4, false).unwrap();
            t
        };
        // Many threads all cold-open the same trace: every one must get
        // the full trace whether it wins the cache write, loses the
        // rename race, or reads a freshly renamed side-car. The atomic
        // write_file guarantees no reader ever sees a partial image.
        for round in 0..4 {
            if round % 2 == 1 {
                let _ = std::fs::remove_file(sidecar_path(&p));
            }
            let results = crossbeam::thread::scope(|s| {
                let handles: Vec<_> = (0..8)
                    .map(|_| s.spawn(|_| load_merged_cached(&p, 4, true).unwrap()))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<_>>()
            })
            .unwrap();
            for (t, _) in results {
                assert_eq!(t, expected, "round {round}");
            }
        }
        // After the dust settles the side-car is valid and hot.
        let (t, outcome) = load_merged_cached(&p, 4, true).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(t, expected);
    }

    #[test]
    fn detect_classifies_inputs() {
        let dir = std::env::temp_dir().join(format!("titrace-detect-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text = dir.join("a.trace");
        std::fs::write(&text, "p0 init\n").unwrap();
        assert!(matches!(
            TraceInput::detect(&text).unwrap(),
            TraceInput::MergedText(_)
        ));
        let desc = dir.join("a.desc");
        std::fs::write(&desc, "a.trace\n").unwrap();
        assert!(matches!(
            TraceInput::detect(&desc).unwrap(),
            TraceInput::Description(_)
        ));
        let bin = dir.join("a.titb");
        let mut t = Trace::new(1);
        t.push(Rank(0), Action::Init);
        binfmt::write_file(&t, &bin, None).unwrap();
        assert!(matches!(
            TraceInput::detect(&bin).unwrap(),
            TraceInput::Binary(_)
        ));
    }
}
