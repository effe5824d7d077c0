//! Streaming trace ingestion.
//!
//! * **One text grammar.** `parse_line_bytes` is the only definition of
//!   the format and of its errors (≈ 75–90 ns per line). Each line first
//!   goes to `fast_line`, byte loops for the lines `write` emits (≈ 40 ns
//!   per line, ≈ 60 when it carries a float); whatever it does not
//!   recognise it rejects without building an error, and that one line
//!   goes to `parse_line_bytes`. A line longer than [`MAX_LINE`] is an
//!   error, not an allocation.
//! * **Merged text streams per rank.** [`TextFile::open`] makes one pass
//!   through a 1 MiB buffer that reads only each line's rank token and
//!   records the byte runs each rank's lines occupy; its cursors read
//!   those runs through windows of at most 16 KiB (8 KiB for the cursors
//!   a replay decodes ahead; less past 4 096 ranks: one trace's windows
//!   share a 64 MiB budget). A faulty line fails with the first error of
//!   the file up to it, text and line number, as one whole-file pass
//!   (`Demux`) finds it.
//! * **One reader.** Every trace is read through its per-rank cursors
//!   ([`open_sources`]): a replay pulls them, and [`load_trace`] drains
//!   them rank by rank into a [`Trace`], so a whole-trace load, `trace
//!   pack`/`unpack`, `inspect` and the replay meet the same errors.
//!   [`crate::parse::parse_merged`] is the per-line function looped over
//!   an in-memory string. Each rank is decoded on one thread, in file
//!   order: the calling thread, or for a sequential replay of text the
//!   helper of [`crate::ahead`]. A chunk-parallel decoder was removed on
//!   measurement — read DESIGN.md "Trace formats & ingestion" before
//!   adding one back.
//! * an [`ActionSource`] **cursor abstraction** that lets the replay
//!   engines pull actions per rank incrementally, bounding resident
//!   memory to O(ranks · window) for merged and split text files and
//!   `.titb` binary traces alike ([`open_sources`]);
//! * an automatic **binary side-car cache** ([`open_merged_cached`]): a
//!   merged text trace read without a valid side-car gets a `.titb` next
//!   to it, keyed on the source's size + mtime, and every replay of it
//!   streams the side-car like any `.titb`.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::files::FileError;
use crate::parse::ParseError;
use crate::window::{text_window_for, window_for, SharedFile, Window};
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
/// parser, and it never allocates on the success path.
pub(crate) fn parse_line_bytes(
    raw: &[u8],
    line: usize,
) -> Result<Option<(Rank, Action)>, ParseError> {
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

/// Read size of the index pass and of the whole-file pass.
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

/// The first line of `buf` if `buf` holds all of it: its length without
/// the `\n`, and its value when the fast path decoded it (`None` leaves
/// the line to [`parse_line_bytes`]).
fn split_line(buf: &[u8]) -> Option<(usize, Option<(Rank, Action)>)> {
    match fast_line(buf) {
        Some((len, rank, action)) => Some((len, Some((rank, action)))),
        None => Some((buf.iter().position(|&b| b == b'\n')?, None)),
    }
}

fn out_of_range(rank: Rank, ranks: usize, line: usize) -> ParseError {
    err(
        line,
        format!("rank {rank} out of range (trace has {ranks} ranks)"),
    )
}

/// Per-rank action lists under construction, with the count of lines
/// consumed so far: every error carries its global 1-based line number.
/// A checking demux ([`Demux::checking`]) decodes and checks every line
/// the same way but keeps no action.
struct Demux {
    per_rank: Vec<Vec<Action>>,
    ranks: usize,
    line: usize,
}

impl Demux {
    fn new(ranks: u32) -> Demux {
        Demux {
            per_rank: vec![Vec::new(); ranks as usize],
            ..Demux::checking(ranks)
        }
    }

    fn checking(ranks: u32) -> Demux {
        Demux {
            per_rank: Vec::new(),
            ranks: ranks as usize,
            line: 0,
        }
    }

    /// Decodes every `\n`-terminated line of `bytes`; returns where the
    /// unterminated rest starts.
    fn push_lines(&mut self, bytes: &[u8]) -> Result<usize, ParseError> {
        let mut start = 0;
        while let Some((len, fast)) = split_line(&bytes[start..]) {
            self.push_line(&bytes[start..start + len], fast)?;
            start += len + 1;
        }
        Ok(start)
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
            if rank.as_usize() >= self.ranks {
                return Err(out_of_range(rank, self.ranks, self.line));
            }
            if let Some(list) = self.per_rank.get_mut(rank.as_usize()) {
                list.push(action);
            }
        }
        Ok(())
    }

    /// Decodes the unterminated last line, if any.
    fn push_last(&mut self, last: &[u8]) -> Result<(), ParseError> {
        if last.is_empty() {
            return Ok(());
        }
        self.push_line(last, None)
    }

    fn into_trace(self) -> Trace {
        Trace::from_actions(self.per_rank)
    }

    /// Decodes `reader` to its end in one pass through a buffer of
    /// `buf_len` bytes, which grows only while it is smaller than a line
    /// and never past [`MAX_LINE`]` + 1`. Between refills `buf[..carried]`
    /// is the unterminated start of the next line.
    ///
    /// # Errors
    /// The outer error is the reader's; the inner one is the first line
    /// that fails to parse, exactly as [`parse_merged_bytes`] reports it.
    fn read(
        &mut self,
        mut reader: impl io::Read,
        buf_len: usize,
    ) -> io::Result<Result<(), ParseError>> {
        let mut buf = vec![0u8; buf_len.max(1)];
        let mut carried = 0;
        loop {
            let end = match reader.read(&mut buf[carried..]) {
                Ok(0) => return Ok(self.push_last(&buf[..carried])),
                Ok(n) => carried + n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let rest = match self.push_lines(&buf[..end]) {
                Ok(rest) => rest,
                Err(e) => return Ok(Err(e)),
            };
            buf.copy_within(rest..end, 0);
            carried = end - rest;
            if carried > MAX_LINE {
                return Ok(Err(too_long(self.line + 1)));
            }
            if carried == buf.len() {
                buf.resize((2 * carried).min(MAX_LINE + 1), 0);
            }
        }
    }
}

/// Parses a merged trace directly from bytes — what
/// [`crate::parse::parse_merged`] delegates to.
///
/// # Errors
/// Returns the first line that fails to parse.
pub(crate) fn parse_merged_bytes(bytes: &[u8], ranks: u32) -> Result<Trace, ParseError> {
    let mut demux = Demux::new(ranks);
    let rest = demux.push_lines(bytes)?;
    demux.push_last(&bytes[rest..])?;
    Ok(demux.into_trace())
}

/// Decodes `path` up to byte `upto` in one whole-file pass, keeping no
/// action: the first error there, or the number of lines read.
fn first_error(path: &Path, ranks: u32, upto: u64) -> io::Result<Result<usize, ParseError>> {
    let mut demux = Demux::checking(ranks);
    let file = std::fs::File::open(path)?;
    Ok(demux
        .read(io::Read::take(file, upto), READ_BUF)?
        .map(|()| demux.line))
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
    /// Action `index` (0-based, in its rank's stream) names a peer or
    /// collective root the trace does not have.
    PeerOutOfRange {
        /// Position of the action in its rank's stream.
        index: u64,
        /// Rank named by the action.
        peer: Rank,
        /// Number of ranks in the trace.
        ranks: u32,
    },
    /// Action `index` sends to or receives from its own rank.
    SelfMessage {
        /// Position of the action in its rank's stream.
        index: u64,
    },
    /// Action `index` is a `wait` with no outstanding non-blocking
    /// request.
    WaitWithoutRequest {
        /// Position of the action in its rank's stream.
        index: u64,
    },
    /// The stream ended after `actions` actions with `pending`
    /// non-blocking requests never waited for.
    PendingAtEnd {
        /// Actions in the stream.
        actions: u64,
        /// Requests left outstanding.
        pending: u64,
    },
    /// The cursor panicked on a thread decoding ahead of the replay
    /// (`crate::ahead`) or encoding for a writer (`crate::pipeline`),
    /// with the panic's message.
    Panicked(String),
    /// The thread pulling the cursor — decoding ahead of the replay or
    /// encoding for a writer — stopped before the stream ended.
    Stopped,
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
            SourceError::PeerOutOfRange { index, peer, ranks } => {
                write!(f, "action {index} references peer {peer} outside 0..{ranks}")
            }
            SourceError::SelfMessage { index } => {
                write!(f, "action {index} addresses its own rank")
            }
            SourceError::WaitWithoutRequest { index } => {
                write!(f, "action {index} waits with no outstanding request")
            }
            SourceError::PendingAtEnd { actions, pending } => write!(
                f,
                "stream ends after {actions} actions with {pending} request(s) never waited for"
            ),
            SourceError::Panicked(message) => write!(f, "the action source panicked: {message}"),
            SourceError::Stopped => write!(
                f,
                "the thread reading the action source stopped before the stream ended"
            ),
        }
    }
}

impl std::error::Error for SourceError {}

impl SourceError {
    /// The failure of a stream whose cursor panicked with `payload`.
    pub(crate) fn panicked(payload: Box<dyn std::any::Any + Send>) -> SourceError {
        let message = match (
            payload.downcast_ref::<&str>(),
            payload.downcast_ref::<String>(),
        ) {
            (Some(s), _) => s.to_string(),
            (_, Some(s)) => s.clone(),
            _ => "no message".to_string(),
        };
        SourceError::Panicked(message)
    }
}

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
pub(crate) struct MemorySource {
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
pub(crate) fn memory_sources(trace: &Arc<Trace>) -> Vec<Box<dyn ActionSource>> {
    (0..trace.ranks())
        .map(|r| Box::new(MemorySource::new(Arc::clone(trace), Rank(r))) as Box<dyn ActionSource>)
        .collect()
}

/// A boxed cursor is a cursor.
impl<S: ActionSource + ?Sized> ActionSource for Box<S> {
    fn next_action(&mut self) -> Result<Option<Action>, SourceError> {
        (**self).next_action()
    }

    fn remaining_hint(&self) -> Option<u64> {
        (**self).remaining_hint()
    }
}

/// A rank's actions straight from an in-memory list (how
/// [`binfmt::write_file`] feeds the writer a decoded trace).
impl ActionSource for std::slice::Iter<'_, Action> {
    fn next_action(&mut self) -> Result<Option<Action>, SourceError> {
        Ok(self.next().copied())
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.len() as u64)
    }
}

// ----------------------------------------------------------------------
// Streaming text
// ----------------------------------------------------------------------

/// A byte range of a text trace holding consecutive lines of one rank,
/// with any blank or comment lines among or after them. It starts at a
/// line start and ends at one, or at the end of the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    start: u64,
    end: u64,
}

/// A merged text trace opened for streaming. Opening makes one pass
/// through a 1 MiB buffer that reads only each line's rank token, checks
/// it and the line's length, and records the byte `Run`s each rank's
/// lines occupy: one per rank for the rank-major files every writer here
/// emits, one per rank switch for an interleaved file. [`TextFile::cursors`]
/// then read each rank's runs through a window of at most 16 KiB, so
/// resident memory is O(ranks · window) plus the runs, never the file or
/// its decoded actions. Any number of cursor sets can be handed out.
///
/// Errors carry the text and line number one whole-file pass finds:
/// opening fails on the first unreadable rank token, out-of-range rank
/// or overlong line, and a cursor on any other faulty line — each
/// reporting the first error of the file up to that line, found by
/// decoding it again (only on the error path; runs carry no line
/// numbers).
#[derive(Debug)]
pub struct TextFile {
    file: SharedFile,
    ranks: u32,
    runs: Vec<Arc<[Run]>>,
}

impl TextFile {
    /// Opens `path` as a merged text trace of `ranks` ranks and indexes
    /// its runs.
    ///
    /// # Errors
    /// I/O failures, and a line refused for its rank token or its length
    /// (or an earlier line refused first).
    pub fn open(path: &Path, ranks: u32) -> Result<TextFile, FileError> {
        let io_err = |e| FileError::Io(path.to_path_buf(), e);
        let file = SharedFile::open(path).map_err(io_err)?;
        let indexed = index_runs(&mut *file.lock(), ranks).map_err(io_err)?;
        let runs = match indexed {
            Ok(runs) => runs,
            Err((upto, own)) => {
                let e = match first_error(path, ranks, upto).map_err(io_err)? {
                    Err(first) => first,
                    Ok(_) => own,
                };
                return Err(FileError::Parse(path.to_path_buf(), e));
            }
        };
        Ok(TextFile {
            file,
            ranks,
            runs: runs.into_iter().map(Arc::from).collect(),
        })
    }

    /// The file this handle reads.
    pub fn path(&self) -> &Path {
        self.file.path()
    }

    /// Fails unless the file was opened for exactly `ranks` ranks.
    fn expect_ranks(&self, ranks: u32) -> Result<(), FileError> {
        if self.ranks != ranks {
            return Err(FileError::Description(
                self.path().to_path_buf(),
                format!(
                    "text trace opened for {} ranks, {ranks} requested",
                    self.ranks
                ),
            ));
        }
        Ok(())
    }

    /// One incremental [`ActionSource`] per rank, each at the start of
    /// its first run.
    pub fn cursors(&self) -> Vec<Box<dyn ActionSource>> {
        self.cursors_in(Windows::Drain)
    }

    /// [`TextFile::cursors`] with windows held as `windows` says.
    fn cursors_in(&self, windows: Windows) -> Vec<Box<dyn ActionSource>> {
        let (window, now) = windows.of(self.ranks);
        self.cursors_with_window(window, now)
    }

    fn cursors_with_window(&self, window: usize, now: bool) -> Vec<Box<dyn ActionSource>> {
        let cursor = |(r, runs): (usize, &Arc<[Run]>)| {
            let runs = Arc::clone(runs);
            let rank = Rank(r as u32);
            let cursor = TextCursor::new(self.file.clone(), runs, rank, self.ranks, window, now);
            Box::new(cursor) as Box<dyn ActionSource>
        };
        self.runs.iter().enumerate().map(cursor).collect()
    }
}

/// Bit `i` set where `block[i]` is a `\n`.
fn newline_bits(block: &[u8; 64]) -> u64 {
    const LOW7: u64 = u64::from_le_bytes([0x7f; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    // Gathers the top bit of each byte into the top byte, in order.
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let mut bits = 0;
    for (i, word) in block.chunks_exact(8).enumerate() {
        // Invariant: `chunks_exact(8)` yields 8-byte words only.
        let x = u64::from_le_bytes(word.try_into().expect("8 bytes")) ^ NEWLINES;
        // A byte's top bit survives only where `x` has a zero byte: no
        // carry crosses bytes, so no other byte is flagged.
        let zeros = !((((x & LOW7) + LOW7) | x) | LOW7);
        bits |= ((zeros >> 7).wrapping_mul(GATHER) >> 56) << (8 * i);
    }
    bits
}

/// The state of the index pass of [`TextFile::open`].
struct Indexer {
    runs: Vec<Vec<Run>>,
    /// The rank whose run is being read, and where that run starts.
    open: Option<(usize, u64)>,
    /// The first token of the last line filed and the blank after it,
    /// as a word and its mask, when they fit in eight bytes: a line that
    /// starts with the same bytes names the same rank, unread.
    prefix: (u64, u64),
    /// Lines read so far.
    line: usize,
}

/// The [`Indexer::prefix`] that matches no line.
const NO_PREFIX: (u64, u64) = (1, 0);

/// A faulty line: the offset just past it (where a re-decode looking
/// for an earlier error stops) and its error.
type Fault = (u64, ParseError);

impl Indexer {
    /// Files the line `buf[start..nl]` (`nl` is its `\n`, or the end of
    /// the file), which starts at file offset `base + start`, under its
    /// rank.
    #[inline(always)]
    fn line(&mut self, buf: &[u8], start: usize, nl: usize, base: u64) -> Result<(), Fault> {
        self.line += 1;
        let raw = &buf[start..nl];
        let fault = |e| (base + nl as u64 + 1, e);
        if raw.len() > MAX_LINE {
            return Err(fault(too_long(self.line)));
        }
        // Invariant: a `get` of an 8-byte range is 8 bytes when it is `Some`.
        let head = buf
            .get(start..start + 8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")));
        if head.is_some_and(|w| w & self.prefix.1 == self.prefix.0) {
            return Ok(());
        }
        let Some(rank) = line_rank(raw, self.line).map_err(fault)? else {
            return Ok(());
        };
        let r = rank.as_usize();
        if r >= self.runs.len() {
            return Err(fault(out_of_range(rank, self.runs.len(), self.line)));
        }
        if self.open.map(|(o, _)| o) != Some(r) {
            self.close(base + start as u64);
            self.open = Some((r, base + start as u64));
        }
        let token = raw.iter().position(u8::is_ascii_whitespace);
        self.prefix = match (head, token) {
            (Some(w), Some(n @ 1..=7)) => {
                let mask = u64::MAX >> (8 * (7 - n));
                (w & mask, mask)
            }
            _ => NO_PREFIX,
        };
        Ok(())
    }

    /// Ends the open run at file offset `end`.
    fn close(&mut self, end: u64) {
        if let Some((r, start)) = self.open.take() {
            self.runs[r].push(Run { start, end });
        }
    }
}

/// The index pass of [`TextFile::open`]: each rank's runs, in file
/// order, with newlines found 64 bytes at a time; the first faulty line
/// stops it.
fn index_runs(mut reader: impl io::Read, ranks: u32) -> io::Result<Result<Vec<Vec<Run>>, Fault>> {
    let mut ix = Indexer {
        runs: vec![Vec::new(); ranks as usize],
        open: None,
        prefix: NO_PREFIX,
        line: 0,
    };
    let mut buf = vec![0u8; READ_BUF];
    // `buf[..carried]` is the unterminated start of a line at file
    // offset `base`.
    let (mut carried, mut base) = (0, 0u64);
    loop {
        let n = match reader.read(&mut buf[carried..]) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let end = carried + n;
        let mut start = 0;
        let mut blocks = buf[..end].chunks_exact(64);
        for (b, block) in blocks.by_ref().enumerate() {
            // Invariant: `chunks_exact(64)` yields 64-byte blocks only.
            let mut bits = newline_bits(block.try_into().expect("64 bytes"));
            while bits != 0 {
                let nl = 64 * b + bits.trailing_zeros() as usize;
                if let Err(fault) = ix.line(&buf[..end], start, nl, base) {
                    return Ok(Err(fault));
                }
                start = nl + 1;
                bits &= bits - 1;
            }
        }
        let tail = end - blocks.remainder().len();
        for nl in (tail..end).filter(|&i| buf[i] == b'\n') {
            if let Err(fault) = ix.line(&buf[..end], start, nl, base) {
                return Ok(Err(fault));
            }
            start = nl + 1;
        }
        if n == 0 {
            // The unterminated last line, if any.
            if start < end {
                if let Err(fault) = ix.line(&buf[..end], start, end, base) {
                    return Ok(Err(fault));
                }
            }
            ix.close(base + end as u64);
            return Ok(Ok(ix.runs));
        }
        buf.copy_within(start..end, 0);
        base += start as u64;
        carried = end - start;
        if carried > MAX_LINE {
            return Ok(Err((base + carried as u64 + 1, too_long(ix.line + 1))));
        }
    }
}

/// The rank a line is filed under, `None` for a blank or comment line:
/// its first token, read as [`parse_line_bytes`] reads it, and nothing
/// after it.
fn line_rank(raw: &[u8], line: usize) -> Result<Option<Rank>, ParseError> {
    match raw
        .split(u8::is_ascii_whitespace)
        .find(|tok| !tok.is_empty())
    {
        Some(tok) if tok[0] != b'#' => parse_rank_tok(tok, line).map(Some),
        _ => Ok(None),
    }
}

/// One rank's lines of a text trace, read through a [`Window`]: its runs
/// of a merged file, or the whole of its split fragment. Every line is
/// decoded by the fast path or [`parse_line_bytes`], and must name the
/// cursor's rank. The window grows only to
/// hold a line longer than itself, never past [`MAX_LINE`]` + 1` bytes.
struct TextCursor {
    window: Window,
    runs: Arc<[Run]>,
    next_run: usize,
    rank: Rank,
    /// The rank count a re-decode on the error path checks lines
    /// against: the trace's for merged text, none (`u32::MAX`) for a
    /// split fragment, all of whose earlier lines name the cursor's rank.
    ranks: u32,
}

impl TextCursor {
    /// A cursor over `runs` with a window of at most `window` bytes,
    /// allocated `now` or by the first refill.
    fn new(
        file: SharedFile,
        runs: Arc<[Run]>,
        rank: Rank,
        ranks: u32,
        window: usize,
        now: bool,
    ) -> TextCursor {
        let bytes: u64 = runs.iter().map(|run| run.end - run.start).sum();
        let capacity = usize::try_from(bytes)
            .map_or(window, |b| b.min(window))
            .max(1);
        let window = Window::new(file, 0, 0, capacity);
        TextCursor {
            window: if now { window.allocated() } else { window },
            runs,
            next_run: 0,
            rank,
            ranks,
        }
    }

    /// The cursor's error for the line `len` bytes long at file offset
    /// `start`: the first error a whole-file pass meets in the file up to
    /// and including that line — the same whichever rank's cursor meets
    /// the damage first — or, if it meets none (a line of another rank),
    /// `own` given the line's number.
    #[cold]
    fn fail(&self, start: u64, len: usize, own: impl FnOnce(usize) -> SourceError) -> SourceError {
        let path = self.window.path();
        match first_error(path, self.ranks, start + len as u64 + 1) {
            Ok(Ok(line)) => own(line),
            Ok(Err(e)) => SourceError::Parse(path.to_path_buf(), e),
            Err(e) => SourceError::Io(path.to_path_buf(), e),
        }
    }

    /// Reads on in the current run, first growing a window that one
    /// unterminated line fills.
    fn refill(&mut self) -> Result<(), SourceError> {
        if self.window.full() && !self.window.grow(MAX_LINE + 1) {
            let (start, len) = (self.window.offset(), self.window.unconsumed());
            let path = self.window.path().to_path_buf();
            return Err(self.fail(start, len, |line| SourceError::Parse(path, too_long(line))));
        }
        let read = self.window.refill();
        read.map_err(|e| SourceError::Io(self.window.path().to_path_buf(), e))
    }
}

impl ActionSource for TextCursor {
    fn next_action(&mut self) -> Result<Option<Action>, SourceError> {
        loop {
            let rest = self.window.rest();
            let (len, fast) = match split_line(rest) {
                Some(line) => line,
                None if !self.window.read_all() => {
                    self.refill()?;
                    continue;
                }
                // The unterminated last line of the file.
                None if !rest.is_empty() => (rest.len(), None),
                None => {
                    let Some(&Run { start, end }) = self.runs.get(self.next_run) else {
                        return Ok(None);
                    };
                    self.next_run += 1;
                    self.window.jump(start, end);
                    continue;
                }
            };
            let start = self.window.offset();
            let parsed = match fast {
                Some(fast) => Some(fast),
                None => match parse_line_bytes(&rest[..len], 0) {
                    Ok(parsed) => parsed,
                    Err(e) => {
                        let path = self.window.path().to_path_buf();
                        let own = |line| SourceError::Parse(path, err(line, e.message));
                        return Err(self.fail(start, len, own));
                    }
                },
            };
            let consumed = rest.len().min(len + 1);
            self.window.consume(consumed);
            match parsed {
                Some((rank, action)) if rank == self.rank => return Ok(Some(action)),
                Some((found, _)) => {
                    let (path, expected) = (self.window.path().to_path_buf(), self.rank);
                    let own = |line| SourceError::WrongRank {
                        path,
                        expected,
                        found,
                        line,
                    };
                    return Err(self.fail(start, len, own));
                }
                None => {}
            }
        }
    }
}

/// A cursor over the split fragment `path` of `rank` of `ranks`: one
/// run, the whole file, every line checked for the rank.
fn open_fragment(
    path: &Path,
    rank: Rank,
    ranks: u32,
    windows: Windows,
) -> Result<Box<dyn ActionSource>, FileError> {
    let io_err = |e| FileError::Io(path.to_path_buf(), e);
    let file = SharedFile::open(path).map_err(io_err)?;
    let len = file.lock().metadata().map_err(io_err)?.len();
    let runs = Arc::from([Run { start: 0, end: len }]);
    let (window, now) = windows.of(ranks);
    let cursor = TextCursor::new(file, runs, rank, u32::MAX, window, now);
    Ok(Box::new(cursor))
}

/// How the text cursors of an open hold their read windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Windows {
    /// `window::window_for`'s size, allocated by the first refill: a
    /// drain reads one rank at a time, so it holds one window.
    Drain,
    /// Half that, allocated now: a replay holds every rank's window at
    /// once, and the thread decoding ahead of it (`crate::ahead`) refills
    /// them without allocating.
    Ahead,
}

impl Windows {
    /// The window of each of `ranks` cursors, and whether it is
    /// allocated now.
    fn of(self, ranks: u32) -> (usize, bool) {
        match self {
            Windows::Drain => (window_for(ranks as usize), false),
            Windows::Ahead => (text_window_for(ranks as usize), true),
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
    /// A `.titb` trace already opened and verified (a side-car hit):
    /// cursors come from the handle without re-reading its header or
    /// re-hashing its payload.
    OpenBinary(Arc<binfmt::TitbFile>),
    /// A merged text trace already opened and indexed: cursors come from
    /// the handle without another index pass.
    OpenText(Arc<TextFile>),
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

    /// Heap bytes the input keeps between replays: an opened `.titb`'s
    /// block table, an opened text file's run index, a decoded trace's
    /// actions; nothing for a path not yet opened.
    pub fn held_bytes(&self) -> u64 {
        use std::mem::size_of;
        let bytes = match self {
            TraceInput::Memory(trace) => trace.len() * size_of::<Action>(),
            TraceInput::OpenBinary(titb) => titb.header().blocks.len() * size_of::<binfmt::Block>(),
            TraceInput::OpenText(text) => text
                .runs
                .iter()
                .map(|runs| size_of::<Arc<[Run]>>() + runs.len() * size_of::<Run>())
                .sum(),
            TraceInput::MergedText(_) | TraceInput::Description(_) | TraceInput::Binary(_) => 0,
        };
        bytes as u64
    }
}

/// Opens per-rank incremental cursors for `input`. Every on-disk layout
/// streams: merged text (also as the one entry of a description file)
/// through [`TextFile`]'s windows over each rank's runs, split fragments
/// through the same text cursor over the whole file, binary traces
/// through [`binfmt::TitbFile`]'s windows over each rank's block.
///
/// # Errors
/// Propagates I/O, parse, and layout failures.
pub fn open_sources(
    input: &TraceInput,
    ranks: u32,
) -> Result<Vec<Box<dyn ActionSource>>, FileError> {
    open_sources_in(input, ranks, Windows::Drain)
}

/// [`open_sources`] with text cursors' windows held as `windows` says.
pub(crate) fn open_sources_in(
    input: &TraceInput,
    ranks: u32,
    windows: Windows,
) -> Result<Vec<Box<dyn ActionSource>>, FileError> {
    match input {
        TraceInput::Memory(trace) => Ok(memory_sources(trace)),
        TraceInput::OpenText(text) => {
            text.expect_ranks(ranks)?;
            Ok(text.cursors_in(windows))
        }
        TraceInput::OpenBinary(titb) => {
            titb.expect_ranks(ranks)?;
            Ok(titb.cursors())
        }
        TraceInput::Binary(path) => binfmt::open_cursors(path, ranks),
        TraceInput::MergedText(path) => Ok(TextFile::open(path, ranks)?.cursors_in(windows)),
        TraceInput::Description(path) => {
            let entries = crate::files::description_entries(path, ranks)?;
            if let [(_, merged)] = entries.as_slice() {
                return Ok(TextFile::open(merged, ranks)?.cursors_in(windows));
            }
            entries
                .iter()
                .map(|(rank, p)| open_fragment(p, *rank, ranks, windows))
                .collect()
        }
    }
}

/// Opens `input` once, so that [`open_sources`] on the result only hands
/// out cursors: merged text (also as the one entry of a description
/// file) is indexed into a [`TraceInput::OpenText`], a `.titb` opened and
/// verified into a [`TraceInput::OpenBinary`]. Other inputs come back as
/// they are.
///
/// # Errors
/// Propagates I/O, parse, and layout failures.
pub fn open_input(input: &TraceInput, ranks: u32) -> Result<TraceInput, FileError> {
    let text = |path: &Path| Ok(TraceInput::OpenText(Arc::new(TextFile::open(path, ranks)?)));
    match input {
        TraceInput::MergedText(path) => text(path),
        TraceInput::Binary(path) => Ok(TraceInput::OpenBinary(Arc::new(binfmt::TitbFile::open(
            path, ranks,
        )?))),
        TraceInput::Description(path) => {
            match crate::files::description_entries(path, ranks)?.as_slice() {
                [(_, merged)] => text(merged),
                _ => Ok(input.clone()),
            }
        }
        _ => Ok(input.clone()),
    }
}

/// Fully materialises `input` as a [`Trace`]: drains [`open_sources`]
/// rank by rank, so a whole-trace load reads exactly what a replay
/// streams and fails exactly where a replay fails.
///
/// # Errors
/// Propagates I/O, parse, decode and layout failures.
pub fn load_trace(input: &TraceInput, ranks: u32) -> Result<Trace, FileError> {
    let mut per_rank = Vec::with_capacity(ranks as usize);
    for mut source in open_sources(input, ranks)? {
        // A hint never exceeds what the source can yield (a `.titb`
        // cursor caps it by the bytes left in its block).
        let hint = source.remaining_hint().unwrap_or(0);
        let mut actions = Vec::with_capacity(usize::try_from(hint).unwrap_or(0));
        while let Some(action) = source.next_action()? {
            actions.push(action);
        }
        per_rank.push(actions);
    }
    Ok(Trace::from_actions(per_rank))
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

/// How [`open_merged_cached`] or [`load_merged_cached`] obtained the
/// trace (for logging/tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The side-car matched the source signature and was loaded.
    Hit,
    /// The text was read and a fresh side-car was written.
    MissStored,
    /// The text was read; no side-car was written (disabled or the
    /// write failed — the cache is best-effort).
    MissUncached,
}

/// Resolves a merged text trace through its binary side-car cache, as a
/// replay input that streams through bounded per-rank windows: a `.titb`
/// next to the source whose header matches the source's size+mtime
/// signature and `ranks`, and whose checksum verifies, is returned open
/// ([`TraceInput::OpenBinary`]). Otherwise the text is opened
/// ([`TextFile::open`]) and, when `cache` is set, the side-car is
/// (re)written rank by rank from its cursors and the fresh side-car
/// returned open; without `cache`, or if the write fails, the text itself
/// is returned open ([`TraceInput::OpenText`]).
///
/// # Errors
/// Propagates I/O and parse failures of the *source*; a stale or
/// corrupt side-car is treated as a miss, never an error.
pub fn open_merged_cached(
    path: &Path,
    ranks: u32,
    cache: bool,
) -> Result<(TraceInput, CacheOutcome), FileError> {
    let sig = source_signature(path).map_err(|e| FileError::Io(path.to_path_buf(), e))?;
    if let Some(titb) = cached_sidecar(path, ranks, sig, cache) {
        return Ok((TraceInput::OpenBinary(Arc::new(titb)), CacheOutcome::Hit));
    }
    let text = TextFile::open(path, ranks)?;
    if cache {
        // A failed write leaves the text to stream; a faulty text line
        // fails the open, as it would fail the replay.
        let sidecar = sidecar_path(path);
        if let Ok(written) = binfmt::write_sources(text.cursors(), &sidecar, Some(sig)) {
            written?;
            if let Ok(titb) = binfmt::TitbFile::open(&sidecar, ranks) {
                return Ok((
                    TraceInput::OpenBinary(Arc::new(titb)),
                    CacheOutcome::MissStored,
                ));
            }
        }
    }
    Ok((
        TraceInput::OpenText(Arc::new(text)),
        CacheOutcome::MissUncached,
    ))
}

/// Loads a merged text trace through its binary side-car cache:
/// [`open_merged_cached`], then [`load_trace`] over what it opened.
///
/// # Errors
/// Propagates I/O and parse failures of the *source*; a corrupt or
/// stale side-car is treated as a miss, never an error.
pub fn load_merged_cached(
    path: &Path,
    ranks: u32,
    cache: bool,
) -> Result<(Trace, CacheOutcome), FileError> {
    let (input, outcome) = open_merged_cached(path, ranks, cache)?;
    Ok((load_trace(&input, ranks)?, outcome))
}

/// The verified side-car of `path` when caching is on and its header
/// records `sig` and `ranks`; the header is checked before the payload
/// is hashed, so a stale side-car costs one header read.
fn cached_sidecar(
    path: &Path,
    ranks: u32,
    sig: (u64, u64),
    cache: bool,
) -> Option<binfmt::TitbFile> {
    if !cache {
        return None;
    }
    let titb = binfmt::TitbFile::open_unverified(&sidecar_path(path)).ok()?;
    let header = titb.header();
    if header.ranks != ranks || header.source_signature != Some(sig) {
        return None;
    }
    titb.verify().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    /// Decodes a merged trace from `reader` in one whole-file pass
    /// through a buffer of `buf_len` bytes ([`Demux::read`]): the oracle
    /// the streamed cursors are checked against.
    pub(super) fn decode_reader(
        reader: impl io::Read,
        ranks: u32,
        buf_len: usize,
    ) -> io::Result<Result<Trace, ParseError>> {
        let mut demux = Demux::new(ranks);
        Ok(demux.read(reader, buf_len)?.map(|()| demux.into_trace()))
    }

    /// [`decode_reader`] over the file at `path`, each rank's actions or
    /// the error as a whole-trace load words it.
    pub(super) fn decode_file(path: &Path, ranks: u32) -> Result<Vec<Vec<Action>>, String> {
        let file = std::fs::File::open(path).unwrap();
        let decoded = decode_reader(file, ranks, READ_BUF).unwrap();
        decoded
            .map(|t| t.iter().map(|(_, a)| a.to_vec()).collect())
            .map_err(|e| FileError::Parse(path.to_path_buf(), e).to_string())
    }

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

    /// Errors past the first 1 MiB refill keep their global line
    /// numbers, in the whole-file decoder and in the streamed text
    /// (interleaved or rank-major) alike, whose clean drain equals the
    /// whole-file decode; a line with a bad verb and a bad rank fails on
    /// the verb in both.
    #[test]
    fn errors_past_the_first_refill_keep_global_line_numbers() {
        let dir = std::env::temp_dir().join(format!("titrace-refill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.trace");
        let line = |i: usize| match i % 3 {
            0 => format!("p{} compute {}\n", i % 2, 956_140 + i),
            1 => format!("p{} recv p0 1240\n", i % 2),
            _ => format!("p{}\tsend  p1 {} \r\n", i % 2, i),
        };
        let interleaved: String = (0..70_000).map(line).collect();
        let rank_major: String = (0..70_000)
            .map(|i| line(2 * (i % 35_000) + i / 35_000))
            .collect();
        let long = format!("p1 init{}\n", " ".repeat(MAX_LINE));
        for text in [interleaved, rank_major] {
            assert!(text.len() > READ_BUF, "the bad line must sit past a refill");
            for (bad, what) in [
                ("", ""),
                ("p0 teleport 3\n", "unknown action verb `teleport`"),
                ("p7 wait\n", "rank p7 out of range"),
                (&long, "line exceeds"),
                ("p8 teleport\n", "unknown action verb `teleport`"),
            ] {
                let text = format!("{text}{bad}p0 wait\np1 wait");
                let whole = decode_reader(text.as_bytes(), 2, READ_BUF).unwrap();
                if let Err(e) = &whole {
                    assert_eq!(e.line, 70_001);
                    assert!(e.message.contains(what), "{}", e.message);
                }
                assert_eq!(bad.is_empty(), whole.is_ok());
                std::fs::write(&path, &text).unwrap();
                let drained = TextFile::open(&path, 2)
                    .map_err(|e| e.to_string())
                    .and_then(|t| {
                        let drain = |mut c: Box<dyn ActionSource>| {
                            let mut got = Vec::new();
                            while let Some(a) = c.next_action().map_err(|e| e.to_string())? {
                                got.push(a);
                            }
                            Ok(got)
                        };
                        t.cursors().into_iter().map(drain).collect()
                    });
                assert_eq!(drained, decode_file(&path, 2));
            }
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
    fn split_fragment_cursor_streams_and_checks_rank() {
        let dir = std::env::temp_dir().join(format!("titrace-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("r1.trace");
        std::fs::write(&p, "# comment\np1 init\np1 compute 10\np1 finalize\n").unwrap();
        let mut src = open_fragment(&p, Rank(1), 2, Windows::Drain).unwrap();
        assert_eq!(src.next_action().unwrap(), Some(Action::Init));
        assert_eq!(
            src.next_action().unwrap(),
            Some(Action::Compute { amount: 10.0 })
        );
        assert_eq!(src.next_action().unwrap(), Some(Action::Finalize));
        assert_eq!(src.next_action().unwrap(), None);

        let bad = dir.join("bad.trace");
        std::fs::write(&bad, "p0 init\n").unwrap();
        let mut src = open_fragment(&bad, Rank(1), 2, Windows::Drain).unwrap();
        let e = src.next_action().unwrap_err();
        assert!(matches!(
            e,
            SourceError::WrongRank {
                found: Rank(0),
                line: 1,
                ..
            }
        ));
        assert_eq!(
            e.to_string(),
            format!(
                "{}: line 1 belongs to rank p0 but the file is assigned to rank p1",
                bad.display()
            )
        );

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
            let mut src = open_fragment(&p, Rank(1), 2, Windows::Drain).unwrap();
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

    /// A side-car hit is handed on open, to stream, and so is the
    /// side-car a miss writes; one with the wrong rank count or a bad
    /// checksum is a silent re-read. A side-car that cannot be written
    /// leaves the text to stream, but a faulty text line fails the open.
    #[test]
    fn sidecar_hits_stream_and_bad_sidecars_are_misses() {
        let dir = std::env::temp_dir().join(format!("titrace-cache-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("app.trace");
        std::fs::write(&p, sample_text(3, 5)).unwrap();
        let parsed = load_trace(&TraceInput::MergedText(p.clone()), 3).unwrap();
        let (input, outcome) = open_merged_cached(&p, 3, true).unwrap();
        assert_eq!(outcome, CacheOutcome::MissStored);
        assert!(
            matches!(input, TraceInput::OpenBinary(_)),
            "a miss streams the side-car it wrote"
        );
        assert_eq!(load_trace(&input, 3).unwrap(), parsed);
        let (input, outcome) = open_merged_cached(&p, 3, false).unwrap();
        assert_eq!(outcome, CacheOutcome::MissUncached);
        assert!(
            matches!(input, TraceInput::OpenText(_)),
            "no cache streams the text"
        );
        assert_eq!(load_trace(&input, 3).unwrap(), parsed);
        let (input, outcome) = open_merged_cached(&p, 3, true).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert!(matches!(input, TraceInput::OpenBinary(_)));
        assert_eq!(load_trace(&input, 3).unwrap(), parsed);
        for (r, mut cursor) in open_sources(&input, 3).unwrap().into_iter().enumerate() {
            let mut got = Vec::new();
            while let Some(a) = cursor.next_action().unwrap() {
                got.push(a);
            }
            assert_eq!(got.as_slice(), parsed.actions(Rank(r as u32)));
        }
        assert!(open_sources(&input, 4).is_err(), "rank mismatch must fail");
        // The side-car holds 3 ranks: asking for 4 re-parses.
        let (_, outcome) = open_merged_cached(&p, 4, true).unwrap();
        assert_eq!(outcome, CacheOutcome::MissStored);
        std::fs::remove_file(sidecar_path(&p)).unwrap();
        open_merged_cached(&p, 3, true).unwrap();
        let mut bytes = std::fs::read(sidecar_path(&p)).unwrap();
        *bytes.last_mut().unwrap() ^= 1;
        std::fs::write(sidecar_path(&p), bytes).unwrap();
        let (input, outcome) = open_merged_cached(&p, 3, true).unwrap();
        assert_eq!(outcome, CacheOutcome::MissStored, "bad checksum re-parses");
        assert!(matches!(input, TraceInput::OpenBinary(_)));
        // A directory where the side-car goes: the write fails.
        std::fs::remove_file(sidecar_path(&p)).unwrap();
        std::fs::create_dir_all(sidecar_path(&p).join("blocker")).unwrap();
        let (input, outcome) = open_merged_cached(&p, 3, true).unwrap();
        assert_eq!(outcome, CacheOutcome::MissUncached);
        assert!(matches!(input, TraceInput::OpenText(_)));
        assert_eq!(load_trace(&input, 3).unwrap(), parsed);
        std::fs::remove_dir_all(sidecar_path(&p)).unwrap();
        std::fs::write(&p, "p0 init\np1 teleport\np2 init\n").unwrap();
        let e = open_merged_cached(&p, 3, true).unwrap_err();
        assert_eq!(
            e.to_string(),
            load_trace(&TraceInput::MergedText(p.clone()), 3)
                .unwrap_err()
                .to_string()
        );
        assert!(
            e.to_string()
                .contains("line 2: unknown action verb `teleport`"),
            "{e}"
        );
        assert!(
            !sidecar_path(&p).exists(),
            "a faulty text leaves no side-car"
        );
        let names = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(names, 1, "nor a temp file");
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
            let results = std::thread::scope(|s| {
                let handles: Vec<_> = (0..8)
                    .map(|_| s.spawn(|| load_merged_cached(&p, 4, true).unwrap()))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<_>>()
            });
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
    pub(super) fn line_for(verb: usize, rank: u32, peer: u32, bytes: u64, amount: f64) -> String {
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
        let mut t = Trace::new(rank + 1);
        t.push(Rank(rank), action);
        let mut line = crate::write::to_string(&t);
        line.pop();
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

/// Differential test of the streamed text cursors against the whole-file
/// decoder.
#[cfg(test)]
mod text_cursor_props {
    use super::tests::decode_file;
    use super::*;
    use proptest::prelude::*;

    /// One generated line: rank (mod the rank count), verb, peer, byte
    /// count, compute amount, and how it is dressed.
    type LineSpec = (u32, usize, u32, u64, f64, usize);

    /// The line of `spec` as `write` emits it, then dressed: tabs,
    /// padding, or a blank or comment line in front.
    fn dressed(spec: &LineSpec, ranks: u32) -> Vec<String> {
        let &(rank, verb, peer, bytes, amount, dress) = spec;
        let line = fast_path_props::line_for(verb, rank % ranks, peer % ranks, bytes, amount);
        match dress {
            0 => vec![line.replace(' ', "\t")],
            1 => vec![String::new(), line],
            2 => vec![format!("# note {rank}"), line],
            3 => vec![format!("  {line}  ")],
            _ => vec![line],
        }
    }

    /// Every rank's line groups, in rank order or merged in an order
    /// drawn from `seed` that keeps each rank's own order.
    fn merge(per_rank: Vec<Vec<Vec<String>>>, interleave: bool, mut seed: u64) -> Vec<String> {
        if !interleave {
            return per_rank.into_iter().flatten().flatten().collect();
        }
        let mut queues: Vec<_> = per_rank.into_iter().map(|g| g.into_iter()).collect();
        let mut lines = Vec::new();
        loop {
            let live: Vec<usize> = (0..queues.len()).filter(|&r| queues[r].len() > 0).collect();
            if live.is_empty() {
                return lines;
            }
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let r = live[(seed % live.len() as u64) as usize];
            lines.extend(queues[r].next().expect("live rank has a group"));
        }
    }

    /// Every rank's actions drained through `window`-byte windows,
    /// ranks in `order`; an error as text.
    fn drain(
        path: &Path,
        ranks: u32,
        window: usize,
        order: &[usize],
    ) -> Result<Vec<Vec<Action>>, String> {
        let text = TextFile::open(path, ranks).map_err(|e| e.to_string())?;
        let mut cursors = text.cursors_with_window(window, false);
        let mut got = vec![Vec::new(); ranks as usize];
        for &r in order {
            while let Some(a) = cursors[r].next_action().map_err(|e| e.to_string())? {
                got[r].push(a);
            }
        }
        Ok(got)
    }

    fn arb_line() -> impl Strategy<Value = LineSpec> {
        let bytes = prop_oneof![0u64..100_000, 0u64..=u64::MAX];
        let amount = prop_oneof![
            (0u64..1 << 40).prop_map(|a| a as f64),
            (0u64..0x7FF0_0000_0000_0000).prop_map(f64::from_bits),
        ];
        (0u32..8, 0usize..16, 0u32..8, bytes, amount, 0usize..8)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Rank-major or interleaved, dressed with blank lines, comments,
        /// tabs, CRLF and a missing final newline, read through windows
        /// of 32 to 200 bytes: a clean file drains to exactly what the
        /// whole-file pass decodes, and a file with one fault (cut short,
        /// a byte changed, an overlong line, a rank out of range) fails
        /// with exactly its error, whichever rank is drained first.
        #[test]
        fn text_cursors_match_load_merged(
            ranks in 1u32..=5,
            specs in proptest::collection::vec(arb_line(), 0..120),
            interleave in any::<bool>(),
            seed in 1u64..=u64::MAX,
            crlf in any::<bool>(),
            final_newline in any::<bool>(),
            window in 32usize..=200,
            fault in 0usize..5,
            at in any::<usize>(),
            flip in 1u8..=255,
        ) {
            let mut per_rank = vec![Vec::new(); ranks as usize];
            for spec in &specs {
                per_rank[(spec.0 % ranks) as usize].push(dressed(spec, ranks));
            }
            let mut lines = merge(per_rank, interleave, seed);
            if !lines.is_empty() {
                let i = at % lines.len();
                match fault {
                    3 if flip.is_multiple_of(2) => {
                        lines.insert(i, format!("#{}", "x".repeat(MAX_LINE)));
                    }
                    3 => lines.insert(i, format!("p0 compute 1{}", " ".repeat(MAX_LINE))),
                    4 => {
                        let bad = [ranks, ranks + u32::from(flip), u32::MAX][usize::from(flip % 3)];
                        lines.insert(i, format!("p{bad} init"));
                    }
                    _ => {}
                }
            }
            let mut bytes = lines.join(if crlf { "\r\n" } else { "\n" }).into_bytes();
            if final_newline && !bytes.is_empty() {
                bytes.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
            }
            if !bytes.is_empty() {
                let i = at % bytes.len();
                match fault {
                    1 => bytes.truncate(i),
                    // One change in eight makes a newline: two faulty
                    // lines from one changed byte.
                    2 if flip.is_multiple_of(8) => bytes[i] = b'\n',
                    2 => bytes[i] ^= flip,
                    _ => {}
                }
            }
            let dir = std::env::temp_dir().join(format!("titrace-textprop-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("case.trace");
            std::fs::write(&path, &bytes).unwrap();

            let expected = decode_file(&path, ranks);
            let forward: Vec<usize> = (0..ranks as usize).collect();
            let backward: Vec<usize> = forward.iter().rev().copied().collect();
            prop_assert_eq!(&drain(&path, ranks, window, &forward), &expected);
            prop_assert_eq!(&drain(&path, ranks, window, &backward), &expected);
            if fault == 0 {
                prop_assert!(expected.is_ok(), "a clean file must load: {:?}", expected);
            }
        }
    }
}
