//! Streaming trace ingestion.
//!
//! * **One text grammar.** [`parse_line_bytes`] is the only definition of
//!   the format and of its errors (≈ 75–90 ns per line).
//! * **One merged-text decoder.** [`load_merged`] makes a single pass over
//!   the file through a fixed 1 MiB buffer (`decode_reader`). *Carry
//!   invariant:* between refills the buffer holds only the unterminated
//!   start of the next line, so resident memory is the decoded [`Trace`]
//!   plus the buffer, never the file. *Fast path defers:* each line first
//!   goes to `fast_line`, byte loops for the lines `write` emits (≈ 40
//!   ns per line with the demultiplexing, ≈ 60 when it carries a float);
//!   whatever it does not recognise it rejects without building an error,
//!   and that one line goes to [`parse_line_bytes`]. A line longer than
//!   [`MAX_LINE`] is an error, not an allocation. [`parse_merged_bytes`]
//!   is the same per-line function looped over a slice. Decoding runs on
//!   the calling thread: the chunk-parallel decoder of PRs 2–14 was
//!   removed on measurement — read DESIGN.md "Trace formats & ingestion"
//!   before adding one back.
//! * an [`ActionSource`] **cursor abstraction** that lets the replay
//!   engines pull actions per rank incrementally, bounding resident
//!   memory to O(ranks · window) for split text files and to the
//!   (much smaller) encoded bytes for `.titb` binary traces;
//! * an automatic **binary side-car cache** ([`load_merged_cached`]):
//!   parsing a merged text trace drops a `.titb` next to it, keyed on
//!   the source's size + mtime, and later loads hit the binary path.

use std::io::{self, BufRead};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::files::FileError;
use crate::parse::ParseError;
use crate::{binfmt, Action, Rank, Trace};

// ----------------------------------------------------------------------
// Text decoding
// ----------------------------------------------------------------------

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// What follows a verb and how its action is built.
enum Shape {
    Bare(Action),
    Amount,
    /// Peer then size; the string names the peer in errors.
    Peer(&'static str, fn(Rank, u64) -> Action),
    Sized(fn(u64) -> Action),
    /// Size then root.
    Rooted(fn(u64, Rank) -> Action),
}

/// The one table of the format's verbs, read by [`parse_line_bytes`] and
/// by the fast path. Commonest first: the arms are tried in order.
#[inline(always)]
fn shape(verb: &[u8]) -> Option<Shape> {
    Some(match verb {
        b"compute" => Shape::Amount,
        b"send" => Shape::Peer("destination", |dst, bytes| Action::Send { dst, bytes }),
        b"recv" => Shape::Peer("source", |src, bytes| Action::Recv { src, bytes }),
        b"isend" => Shape::Peer("destination", |dst, bytes| Action::Isend { dst, bytes }),
        b"irecv" => Shape::Peer("source", |src, bytes| Action::Irecv { src, bytes }),
        b"wait" => Shape::Bare(Action::Wait),
        b"waitall" => Shape::Bare(Action::WaitAll),
        b"init" => Shape::Bare(Action::Init),
        b"finalize" => Shape::Bare(Action::Finalize),
        b"barrier" => Shape::Bare(Action::Barrier),
        b"bcast" => Shape::Rooted(|bytes, root| Action::Bcast { bytes, root }),
        b"reduce" => Shape::Rooted(|bytes, root| Action::Reduce { bytes, root }),
        b"gather" => Shape::Rooted(|bytes, root| Action::Gather { bytes, root }),
        b"allreduce" => Shape::Sized(|bytes| Action::Allreduce { bytes }),
        b"alltoall" => Shape::Sized(|bytes| Action::Alltoall { bytes }),
        b"allgather" => Shape::Sized(|bytes| Action::Allgather { bytes }),
        _ => return None,
    })
}

/// A token through `str::parse` (UTF-8 validated here, without copying).
fn parse_tok<T: std::str::FromStr>(tok: &[u8]) -> Option<T> {
    std::str::from_utf8(tok).ok()?.parse().ok()
}

fn invalid(what: &str, tok: &[u8], line: usize) -> ParseError {
    let tok = String::from_utf8_lossy(tok);
    err(line, format!("invalid {what} `{tok}`"))
}

fn parse_rank_tok(tok: &[u8], line: usize) -> Result<Rank, ParseError> {
    let rank = parse_tok(tok.strip_prefix(b"p").unwrap_or(tok)).map(Rank);
    rank.ok_or_else(|| invalid("rank token", tok, line))
}

fn parse_bytes_tok(tok: &[u8], line: usize) -> Result<u64, ParseError> {
    parse_tok(tok).ok_or_else(|| invalid("byte count", tok, line))
}

fn parse_amount_tok(tok: &[u8], line: usize) -> Result<f64, ParseError> {
    let v: f64 = parse_tok(tok).ok_or_else(|| invalid("compute amount", tok, line))?;
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
    let mut toks = raw
        .split(u8::is_ascii_whitespace)
        .filter(|tok| !tok.is_empty());
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
    let quoted = || String::from_utf8_lossy(verb);
    let mut next = |what: &str| {
        toks.next()
            .ok_or_else(|| err(line, format!("missing {what} for `{}`", quoted())))
    };
    let action = match shape(verb) {
        Some(Shape::Bare(action)) => action,
        Some(Shape::Amount) => Action::Compute {
            amount: parse_amount_tok(next("amount")?, line)?,
        },
        Some(Shape::Peer(peer, make)) => {
            let peer = parse_rank_tok(next(peer)?, line)?;
            make(peer, parse_bytes_tok(next("size")?, line)?)
        }
        Some(Shape::Sized(make)) => make(parse_bytes_tok(next("size")?, line)?),
        Some(Shape::Rooted(make)) => {
            let bytes = parse_bytes_tok(next("size")?, line)?;
            make(bytes, parse_rank_tok(next("root")?, line)?)
        }
        None => return Err(err(line, format!("unknown action verb `{}`", quoted()))),
    };
    if let Some(extra) = toks.next() {
        let extra = String::from_utf8_lossy(extra);
        let message = format!("trailing token `{extra}` after `{}`", quoted());
        return Err(err(line, message));
    }
    Ok(Some((rank, action)))
}

/// Longest line the text decoders (merged and split per-rank) accept,
/// without its `\n`: a file with no newline cannot make them buffer more
/// than this.
pub const MAX_LINE: usize = 64 * 1024;

/// The error for a `line` longer than [`MAX_LINE`].
fn too_long(line: usize) -> ParseError {
    err(line, format!("line exceeds {MAX_LINE} bytes"))
}

/// Read size of [`load_merged`].
const READ_BUF: usize = 1 << 20;

/// Digits the fast path converts itself: 18 cannot overflow a `u64`.
const FAST_DIGITS: usize = 18;

/// The fast path's cursor: the rest of the buffer, from inside a line.
struct Fast<'a>(&'a [u8]);

impl<'a> Fast<'a> {
    /// Consumes the token `self.0[..n]` and the blanks (whitespace other
    /// than `\n`) after it; `None` if it is empty, runs on into another
    /// byte, or the buffer ends before the next token or `\n`.
    fn token(&mut self, n: usize) -> Option<&'a [u8]> {
        let (tok, rest) = self.0.split_at(n);
        let blanks = rest
            .iter()
            .position(|&b| b == b'\n' || !b.is_ascii_whitespace())?;
        self.0 = &rest[blanks..];
        (n > 0 && (blanks > 0 || rest[0] == b'\n')).then_some(tok)
    }

    fn word(&mut self) -> Option<&'a [u8]> {
        self.token(self.0.iter().position(u8::is_ascii_whitespace)?)
    }

    fn uint(&mut self) -> Option<u64> {
        let digits = self.0.iter().take_while(|b| b.is_ascii_digit());
        let (v, n) = digits.fold((0u64, 0), |(v, n), b| {
            (v.wrapping_mul(10).wrapping_add(u64::from(b - b'0')), n + 1)
        });
        (n <= FAST_DIGITS && self.token(n).is_some()).then_some(v)
    }

    fn rank(&mut self) -> Option<Rank> {
        self.0 = self.0.strip_prefix(b"p")?;
        u32::try_from(self.uint()?).ok().map(Rank)
    }
}

/// Decodes the `\n`-terminated line at the start of `buf` if it is one
/// `write` could have emitted, and returns its length and value. `None`
/// ("not mine") for anything else — blank, comment, bare rank, sign, more
/// than [`FAST_DIGITS`] digits, unknown verb, missing or trailing token,
/// no `\n` yet — which the caller hands to [`parse_line_bytes`]; a
/// `Some` here is always the value that function returns.
fn fast_line(buf: &[u8]) -> Option<(usize, Rank, Action)> {
    let mut f = Fast(buf);
    let rank = f.rank()?;
    let action = match shape(f.word()?)? {
        Shape::Bare(action) => action,
        Shape::Amount => {
            let amount = parse_tok(f.word()?).filter(|v: &f64| v.is_finite() && *v >= 0.0)?;
            Action::Compute { amount }
        }
        Shape::Peer(_, make) => make(f.rank()?, f.uint()?),
        Shape::Sized(make) => make(f.uint()?),
        Shape::Rooted(make) => make(f.uint()?, f.rank()?),
    };
    (f.0.first() == Some(&b'\n')).then(|| (buf.len() - f.0.len(), rank, action))
}

/// Per-rank action lists under construction, with the count of lines
/// consumed so far: every error carries its global 1-based line number.
struct Demux {
    per_rank: Vec<Vec<Action>>,
    line: usize,
}

impl Demux {
    fn new(ranks: u32) -> Demux {
        let per_rank = vec![Vec::new(); ranks as usize];
        Demux { per_rank, line: 0 }
    }

    /// Decodes every `\n`-terminated line of `bytes`; returns where the
    /// unterminated rest starts.
    fn push_lines(&mut self, bytes: &[u8]) -> Result<usize, ParseError> {
        let mut start = 0;
        loop {
            let rest = &bytes[start..];
            let (len, fast) = match fast_line(rest) {
                Some((len, rank, action)) => (len, Some((rank, action))),
                None => match rest.iter().position(|&b| b == b'\n') {
                    Some(len) => (len, None),
                    None => return Ok(start),
                },
            };
            self.push_line(&rest[..len], fast)?;
            start += len + 1;
        }
    }

    /// Files the action of one line (`raw`, without its `\n`), decoding
    /// it with [`parse_line_bytes`] unless the fast path already has.
    fn push_line(&mut self, raw: &[u8], fast: Option<(Rank, Action)>) -> Result<(), ParseError> {
        if raw.len() > MAX_LINE {
            return Err(too_long(self.line + 1));
        }
        self.line += 1;
        let parsed = match fast {
            None => parse_line_bytes(raw, self.line)?,
            some => some,
        };
        if let Some((rank, action)) = parsed {
            let ranks = self.per_rank.len();
            let list = self.per_rank.get_mut(rank.as_usize()).ok_or_else(|| {
                let message = format!("rank {rank} out of range (trace has {ranks} ranks)");
                err(self.line, message)
            })?;
            list.push(action);
        }
        Ok(())
    }

    /// Decodes the unterminated last line, if any, and builds the trace.
    fn finish(mut self, last: &[u8]) -> Result<Trace, ParseError> {
        if !last.is_empty() {
            self.push_line(last, None)?;
        }
        Ok(Trace::from_actions(self.per_rank))
    }
}

/// Parses a merged trace directly from bytes — the in-memory form of
/// [`load_merged`], and what [`crate::parse::parse_merged`] delegates to.
///
/// # Errors
/// Returns the first line that fails to parse.
pub fn parse_merged_bytes(bytes: &[u8], ranks: u32) -> Result<Trace, ParseError> {
    let mut demux = Demux::new(ranks);
    let rest = demux.push_lines(bytes)?;
    demux.finish(&bytes[rest..])
}

/// Decodes a merged trace from `reader` in one pass through a buffer of
/// `buf_len` bytes, which grows only while it is smaller than a line and
/// never past [`MAX_LINE`]` + 1`. Between refills `buf[..carried]` is the
/// unterminated start of the next line.
///
/// # Errors
/// The outer error is the reader's; the inner one is the first line
/// that fails to parse, exactly as [`parse_merged_bytes`] reports it.
pub(crate) fn decode_reader(
    mut reader: impl io::Read,
    ranks: u32,
    buf_len: usize,
) -> io::Result<Result<Trace, ParseError>> {
    let mut demux = Demux::new(ranks);
    let mut buf = vec![0u8; buf_len.max(1)];
    let mut carried = 0;
    loop {
        let end = match reader.read(&mut buf[carried..]) {
            Ok(0) => return Ok(demux.finish(&buf[..carried])),
            Ok(n) => carried + n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let rest = match demux.push_lines(&buf[..end]) {
            Ok(rest) => rest,
            Err(e) => return Ok(Err(e)),
        };
        buf.copy_within(rest..end, 0);
        carried = end - rest;
        if carried > MAX_LINE {
            return Ok(Err(too_long(demux.line + 1)));
        }
        if carried == buf.len() {
            buf.resize((2 * carried).min(MAX_LINE + 1), 0);
        }
    }
}

/// Chooses the worker count for `items` independent work units (split
/// per-rank files, sweep cells): `TITR_SWEEP_THREADS` when set (1 forces
/// sequential), otherwise the machine's available parallelism, never
/// more than `items`.
pub fn worker_count(items: usize) -> usize {
    let workers = std::env::var("TITR_SWEEP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    workers.min(items).max(1)
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
/// buffered reader — resident memory is one line of at most [`MAX_LINE`]
/// bytes, not the file.
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
            let n = io::Read::take(&mut self.reader, MAX_LINE as u64 + 1)
                .read_until(b'\n', &mut self.buf)
                .map_err(|e| SourceError::Io(self.path.clone(), e))?;
            if n == 0 {
                return Ok(None);
            }
            self.line += 1;
            if n > MAX_LINE && self.buf.last() != Some(&b'\n') {
                return Err(SourceError::Parse(self.path.clone(), too_long(self.line)));
            }
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
/// scan per rank, so it is decoded up front and served from memory.
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

/// Loads a merged text trace with the streaming decoder: the file is
/// never held, only 1 MiB of it at a time.
///
/// # Errors
/// Propagates I/O and parse failures.
pub fn load_merged(path: &Path, ranks: u32) -> Result<Trace, FileError> {
    let io_err = |e| FileError::Io(path.to_path_buf(), e);
    let file = std::fs::File::open(path).map_err(io_err)?;
    decode_reader(file, ranks, READ_BUF)
        .map_err(io_err)?
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
/// text is parsed and, when `cache` is set, the side-car
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

    /// Texts that exercise every branch of the line loop — deferred lines
    /// (comments, blanks, bare ranks, tabs), CRLF, a missing final
    /// newline, the empty file, each kind of first error — with the rank
    /// count and the first error, if one is expected.
    fn reader_cases() -> Vec<(String, u32, Option<ParseError>)> {
        let good = sample_text(2, 30);
        let after_good = good.lines().count() + 1;
        let mut no_final_newline = sample_text(5, 9);
        no_final_newline.pop();
        let odd = "# header\n\n0 init\np1\tinit\n  p1 compute 1e3  \np0 send p1 +7\n\np1 wait";
        let too_long = format!("line exceeds {MAX_LINE} bytes");
        let fails = |line: usize, message: &str| Some(err(line, message));
        vec![
            (sample_text(4, 50), 4, None),
            (sample_text(3, 40).replace('\n', "\r\n"), 3, None),
            (no_final_newline, 5, None),
            (odd.to_string(), 2, None),
            (String::new(), 2, None),
            ("\n".to_string(), 1, None),
            (format!("#{}\np0 init", "x".repeat(MAX_LINE - 1)), 1, None),
            (
                format!("{good}p0 teleport 3\n{good}"),
                2,
                fails(after_good, "unknown action verb `teleport`"),
            ),
            (
                format!("{good}p2 wait\np0 teleport\n"),
                2,
                fails(after_good, "rank p2 out of range (trace has 2 ranks)"),
            ),
            (
                format!("{good}p0 send p1"),
                2,
                fails(after_good, "missing size for `send`"),
            ),
            (
                format!("p0 init\n#{}\np0 teleport\n", "x".repeat(MAX_LINE)),
                1,
                fails(2, &too_long),
            ),
            (
                format!("p0 init\n{}", "A".repeat(MAX_LINE + 1)),
                1,
                fails(2, &too_long),
            ),
        ]
    }

    #[test]
    fn reader_equals_slice_decoder_at_any_buffer_size() {
        for (i, (text, ranks, error)) in reader_cases().into_iter().enumerate() {
            let whole = parse_merged_bytes(text.as_bytes(), ranks);
            assert_eq!(whole.as_ref().err(), error.as_ref(), "case {i}");
            for buf_len in [1, 2, 3, 7, 64, 4096, READ_BUF] {
                let streamed = decode_reader(text.as_bytes(), ranks, buf_len).unwrap();
                assert_eq!(streamed, whole, "case {i}, buf_len {buf_len}");
            }
        }
    }

    #[test]
    fn errors_past_the_first_refill_keep_global_line_numbers() {
        let mut text = String::new();
        for i in 0..70_000 {
            text.push_str(if i % 2 == 0 {
                "p0 compute 956140\n"
            } else {
                "p1 recv p0 1240\n"
            });
        }
        assert!(text.len() > READ_BUF, "the bad line must sit past a refill");
        for (bad, what) in [
            ("p0 teleport 3\n", "teleport"),
            ("p7 wait\n", "rank p7 out of range"),
        ] {
            let text = format!("{text}{bad}p0 wait\n");
            let e = decode_reader(text.as_bytes(), 2, READ_BUF)
                .unwrap()
                .unwrap_err();
            assert_eq!(e.line, 70_001);
            assert!(e.message.contains(what), "{}", e.message);
        }
    }

    #[test]
    fn every_line_write_emits_takes_the_fast_path() {
        let text = "p0 init\np12 compute 956140\np0 compute 4.4378401532216393e5\n\
                    p0 send p1 1240\np1 recv p0 1240\np0 isend p1 7\np1 irecv p0 7\n\
                    p0 wait\np0 waitall\np0 barrier\np0 bcast 40 p0\np0 reduce 40 p1\n\
                    p0 allreduce 40\np0 alltoall 8\np0 gather 8 p0\np0 allgather 8\n\
                    p0 finalize\np3\tsend  p4 999999999999999999 \r\n";
        let mut rest = text.as_bytes();
        while !rest.is_empty() {
            let (len, rank, action) = fast_line(rest).expect("fast path deferred a plain line");
            let canonical = parse_line_bytes(&rest[..len], 1).unwrap();
            assert_eq!(canonical, Some((rank, action)));
            rest = &rest[len + 1..];
        }
        assert_eq!(
            fast_line(b"p0 wait"),
            None,
            "no newline: not a whole line yet"
        );
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

        // The merged decoder's line bound, case for case: a comment of
        // exactly MAX_LINE bytes passes, one byte more is the same error
        // with the same line number, terminated or not.
        let too_long = format!("line exceeds {MAX_LINE} bytes");
        for (text, expect) in [
            (format!("#{}\np1 init", "x".repeat(MAX_LINE - 1)), None),
            (
                format!("p1 init\n#{}\np1 teleport\n", "x".repeat(MAX_LINE)),
                Some(err(2, &too_long)),
            ),
            (
                format!("p1 init\n{}", "A".repeat(MAX_LINE + 1)),
                Some(err(2, &too_long)),
            ),
        ] {
            std::fs::write(&p, text).unwrap();
            let mut src = TextFileSource::open(&p, Rank(1)).unwrap();
            assert_eq!(src.next_action().unwrap(), Some(Action::Init));
            match (src.next_action(), expect) {
                (Ok(None), None) => {}
                (Err(SourceError::Parse(path, e)), Some(expect)) => {
                    assert_eq!((path, e), (p.clone(), expect));
                }
                (got, expect) => panic!("{got:?}, expected {expect:?}"),
            }
        }
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

/// Differential test of the fast path against the canonical parser.
#[cfg(test)]
mod fast_path_props {
    use super::*;
    use proptest::prelude::*;

    /// The line `write` emits for the `verb`-th action kind.
    fn line_for(verb: usize, rank: u32, peer: u32, bytes: u64, amount: f64) -> String {
        let peer = Rank(peer);
        let action = match verb {
            0 => Action::Init,
            1 => Action::Finalize,
            2 => Action::Compute { amount },
            3 => Action::Send { dst: peer, bytes },
            4 => Action::Isend { dst: peer, bytes },
            5 => Action::Recv { src: peer, bytes },
            6 => Action::Irecv { src: peer, bytes },
            7 => Action::Wait,
            8 => Action::WaitAll,
            9 => Action::Barrier,
            10 => Action::Bcast { bytes, root: peer },
            11 => Action::Reduce { bytes, root: peer },
            12 => Action::Allreduce { bytes },
            13 => Action::Alltoall { bytes },
            14 => Action::Gather { bytes, root: peer },
            _ => Action::Allgather { bytes },
        };
        let mut line = String::new();
        crate::write::format_action(Rank(rank), &action, &mut line);
        line
    }

    const MUTATIONS: usize = 19;

    /// Damages token `pick % tokens` of `line` (or its spacing) in the
    /// `kind`-th way; kind 0 leaves it alone.
    fn mutate(line: &str, kind: usize, pick: usize) -> Vec<u8> {
        let mut toks: Vec<Vec<u8>> = line.split(' ').map(|t| t.as_bytes().to_vec()).collect();
        let i = pick % toks.len();
        let (mut sep, mut tail): (&[u8], &[u8]) = (b" ", b"");
        match kind {
            0 => {}
            1 | 2 => {
                let at = usize::from(toks[i][0] == b'p');
                toks[i].insert(at, if kind == 1 { b'+' } else { b'-' });
            }
            3 => toks[i] = "9".repeat(19 + pick % 7).into_bytes(),
            4 => toks[i] = u64::MAX.to_string().into_bytes(),
            5 => toks[i] = b"18446744073709551616".to_vec(),
            6 => toks[i] = (u64::MAX - 1).to_string().into_bytes(),
            7 => {
                toks[i].remove(0);
            }
            8 => toks[i].insert(0, b'p'),
            9 => toks[i].make_ascii_uppercase(),
            10 | 11 => {
                let at = pick % (toks[i].len() + 1);
                let junk = if kind == 10 { "\0" } else { "é" };
                toks[i].splice(at..at, junk.bytes());
            }
            12 => toks.push(b"extra".to_vec()),
            13 => sep = b"\t",
            14 => tail = b"\r",
            15 => {
                toks.pop();
            }
            16 => (sep, tail) = (b" \t ", b" \x0C\r"),
            17 => toks[0].insert(0, b'#'),
            _ => toks.insert(0, Vec::new()),
        }
        let mut out = toks.join(sep);
        out.extend_from_slice(tail);
        out
    }

    fn same_bits(a: Action, b: Action) -> bool {
        match (a, b) {
            (Action::Compute { amount: x }, Action::Compute { amount: y }) => {
                x.to_bits() == y.to_bits()
            }
            _ => a == b,
        }
    }

    fn arb_bytes() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..100_000,
            0u64..=u64::MAX,
            Just(999_999_999_999_999_999),
            Just(1_000_000_000_000_000_000),
        ]
    }

    fn arb_amount() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u64..=1 << 53).prop_map(|a| a as f64),
            (0u64..=1 << 60).prop_map(|a| a as f64 / 8.0),
            // Any finite non-negative double, by bit pattern.
            (0u64..0x7FF0_0000_0000_0000).prop_map(f64::from_bits),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Whatever the line, the fast path either defers or returns
        /// exactly what the canonical parser returns.
        #[test]
        fn fast_path_defers_or_agrees(
            verb in 0usize..16,
            ranks in (0u32..300, prop_oneof![0u32..300, Just(u32::MAX)]),
            bytes in arb_bytes(),
            amount in arb_amount(),
            kind in 0usize..MUTATIONS,
            pick in 0usize..1000,
        ) {
            let plain = line_for(verb, ranks.0, ranks.1, bytes, amount);
            let line = mutate(&plain, kind, pick);
            let mut buf = line.clone();
            buf.extend_from_slice(b"\np0 wait\n");
            match fast_line(&buf) {
                Some((len, rank, action)) => {
                    prop_assert_eq!(len, line.len());
                    let Ok(Some((r, a))) = parse_line_bytes(&line, 1) else {
                        panic!("fast path accepted what the parser rejects: {:?}", plain);
                    };
                    prop_assert!(rank == r && same_bits(action, a), "{:?}", plain);
                }
                // The writer's own lines must not all be deferred.
                None => prop_assert!(kind != 0 || bytes >= 1_000_000_000_000_000_000),
            }
        }
    }
}
