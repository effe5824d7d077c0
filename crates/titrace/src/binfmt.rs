//! `.titb` — the compact binary trace format.
//!
//! Text traces are convenient to inspect but slow to re-ingest: a
//! class-C/128-process acquisition runs to gigabytes and every replay
//! pays the full tokenisation cost again. `.titb` stores the same
//! actions varint-encoded in per-rank blocks behind a self-describing
//! header, so a replay can (a) decode several times faster than the
//! text parse and (b) stream each rank's block incrementally without
//! materialising `Vec<Vec<Action>>` or the file.
//!
//! ## Reading
//!
//! [`TitbFile::open`] reads the header and the block table (after
//! checking that the table fits in the file, so a hostile rank count
//! allocates nothing) and verifies the payload checksum in one
//! sequential pass through a 64 KiB buffer. Its [`TitbFile::cursors`]
//! decode each rank's block from a window of at most 16 KiB, less past
//! 4 096 ranks (the window type text cursors read through too, sized
//! from the same 64 MiB budget), refilled with one seek and one
//! read through the shared file handle whenever fewer bytes remain than
//! the longest action encoding. Every read of a `.titb` goes through
//! these cursors: a replay, a side-car hit, `trace unpack`, and a
//! whole-trace load ([`crate::stream::load_trace`], which drains them
//! rank by rank). A replay therefore holds O(ranks · window) of the
//! trace whatever its length, and a decode error reports the same file
//! offset on every path.
//!
//! ## Writing
//!
//! One writer, [`write_sources`], drains one action source per rank into
//! a file: a side-car and `trace pack` write from the input's own
//! cursors this way, `titrace-gen --binary` from its generators, and
//! [`write_file`] is the same writer over a decoded trace's lists. The
//! ranks are encoded in parallel through the crate's ordered per-rank
//! pipeline (`crate::pipeline`); the calling thread hashes and writes
//! the encoded chunks in rank order and records each rank's block, so
//! the file is byte for byte the one a rank-by-rank writer makes. It is
//! assembled in a temp sibling, synced, and renamed into place only
//! whole: on any failure nothing is left at the path.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     4  magic "TITB"
//!      4     1  version (= 1)
//!      5     3  reserved (zero)
//!      8     4  ranks: u32
//!     12     8  source_len: u64     ┐ side-car cache key of the text
//!     20     8  source_mtime_ns: u64┘ source; zero when stand-alone
//!     28     8  payload checksum: u64 (FNV-1a over the payload bytes)
//!     36  24·R  block table: per rank { payload_offset: u64,
//!                 byte_len: u64, action_count: u64 }
//!      …     …  payload: concatenated per-rank action blocks
//! ```
//!
//! Each action is an opcode byte followed by LEB128 varint fields
//! (ranks, byte counts) — except non-integral compute amounts, which
//! carry their exact f64 bits. Integral compute amounts below 9·10¹⁵
//! (the text writer's own integer-formatting threshold, under 2⁵³ so
//! the u64⇄f64 round-trip is exact) are varint-encoded, which is what
//! makes the format compact: LU traces are dominated by them.

use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::files::FileError;
use crate::pipeline;
use crate::stream::{ActionSource, SourceError};
use crate::window::{window_for, SharedFile, Window};
use crate::{Action, Rank, Trace};

/// The four magic bytes opening every `.titb` file.
pub(crate) const MAGIC: &[u8; 4] = b"TITB";

/// Current format version.
pub(crate) const VERSION: u8 = 1;

/// Fixed header bytes before the block table.
pub(crate) const HEADER_FIXED: usize = 36;

/// Bytes per block-table entry.
pub(crate) const TABLE_ENTRY: usize = 24;

const OP_INIT: u8 = 0;
const OP_FINALIZE: u8 = 1;
const OP_COMPUTE_INT: u8 = 2;
const OP_COMPUTE_F64: u8 = 3;
const OP_SEND: u8 = 4;
const OP_ISEND: u8 = 5;
const OP_RECV: u8 = 6;
const OP_IRECV: u8 = 7;
const OP_WAIT: u8 = 8;
const OP_WAITALL: u8 = 9;
const OP_BARRIER: u8 = 10;
const OP_BCAST: u8 = 11;
const OP_REDUCE: u8 = 12;
const OP_ALLREDUCE: u8 = 13;
const OP_ALLTOALL: u8 = 14;
const OP_GATHER: u8 = 15;
const OP_ALLGATHER: u8 = 16;

/// The text writer's integer threshold: integral amounts below this are
/// exactly representable both as u64 and f64.
const COMPUTE_INT_MAX: f64 = 9.0e15;

/// Decoding failures of a `.titb` buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// The buffer does not start with `MAGIC`.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// The buffer ends before the structure it promises.
    Truncated,
    /// Payload bytes do not hash to the header checksum.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload as read.
        actual: u64,
    },
    /// A varint ran past its maximal encoding.
    OverlongVarint {
        /// File offset of the offending varint.
        offset: usize,
    },
    /// Unknown action opcode.
    BadOpcode(u8),
    /// A decoded rank does not fit u32.
    BadRank(u64),
    /// A compute amount decoded to a non-finite or negative value.
    BadCompute,
    /// A rank block decoded its promised action count before its byte
    /// range ended (or ran past it).
    BlockLengthMismatch {
        /// Rank whose block is inconsistent.
        rank: u32,
    },
    /// The block table is internally inconsistent (overlaps, runs past
    /// the payload, or leaves trailing bytes).
    BadTable(String),
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::BadMagic => write!(f, "not a .titb trace (bad magic)"),
            BinError::BadVersion(v) => write!(f, "unsupported .titb version {v}"),
            BinError::Truncated => write!(f, "truncated .titb data"),
            BinError::ChecksumMismatch { expected, actual } => write!(
                f,
                "payload checksum mismatch (header {expected:#018x}, payload {actual:#018x})"
            ),
            BinError::OverlongVarint { offset } => {
                write!(f, "overlong varint at file offset {offset}")
            }
            BinError::BadOpcode(op) => write!(f, "unknown action opcode {op}"),
            BinError::BadRank(v) => write!(f, "rank {v} does not fit 32 bits"),
            BinError::BadCompute => write!(f, "compute amount out of range"),
            BinError::BlockLengthMismatch { rank } => {
                write!(
                    f,
                    "rank {rank} block length disagrees with its action count"
                )
            }
            BinError::BadTable(msg) => write!(f, "bad block table: {msg}"),
        }
    }
}

impl std::error::Error for BinError {}

// ----------------------------------------------------------------------
// Primitives
// ----------------------------------------------------------------------

/// Incremental FNV-1a 64-bit hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// A fresh hasher.
    pub fn new() -> Fnv1a {
        Fnv1a::default()
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// The digest so far.
    pub fn digest(self) -> u64 {
        self.0
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, BinError> {
    let start = *pos;
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos).ok_or(BinError::Truncated)?;
        *pos += 1;
        if shift == 63 && (b & !1) != 0 {
            // Tenth byte may only carry the single remaining bit.
            return Err(BinError::OverlongVarint { offset: start });
        }
        out |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
        if shift > 63 {
            return Err(BinError::OverlongVarint { offset: start });
        }
    }
}

fn get_rank(bytes: &[u8], pos: &mut usize) -> Result<Rank, BinError> {
    let v = get_varint(bytes, pos)?;
    u32::try_from(v).map(Rank).map_err(|_| BinError::BadRank(v))
}

/// The `N` bytes at `at`, or [`BinError::Truncated`] past the end.
fn read_array<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], BinError> {
    let slice = bytes.get(at..at.saturating_add(N));
    slice
        .and_then(|b| b.try_into().ok())
        .ok_or(BinError::Truncated)
}

fn read_u32(bytes: &[u8], at: usize) -> Result<u32, BinError> {
    read_array(bytes, at).map(u32::from_le_bytes)
}

fn read_u64(bytes: &[u8], at: usize) -> Result<u64, BinError> {
    read_array(bytes, at).map(u64::from_le_bytes)
}

// ----------------------------------------------------------------------
// Action codec
// ----------------------------------------------------------------------

/// Appends one encoded action to `out`.
pub(crate) fn encode_action(action: &Action, out: &mut Vec<u8>) {
    match *action {
        Action::Init => out.push(OP_INIT),
        Action::Finalize => out.push(OP_FINALIZE),
        Action::Compute { amount } => {
            if amount.fract() == 0.0 && (0.0..COMPUTE_INT_MAX).contains(&amount) {
                out.push(OP_COMPUTE_INT);
                put_varint(out, amount as u64);
            } else {
                out.push(OP_COMPUTE_F64);
                out.extend_from_slice(&amount.to_bits().to_le_bytes());
            }
        }
        Action::Send { dst, bytes } => {
            out.push(OP_SEND);
            put_varint(out, u64::from(dst.0));
            put_varint(out, bytes);
        }
        Action::Isend { dst, bytes } => {
            out.push(OP_ISEND);
            put_varint(out, u64::from(dst.0));
            put_varint(out, bytes);
        }
        Action::Recv { src, bytes } => {
            out.push(OP_RECV);
            put_varint(out, u64::from(src.0));
            put_varint(out, bytes);
        }
        Action::Irecv { src, bytes } => {
            out.push(OP_IRECV);
            put_varint(out, u64::from(src.0));
            put_varint(out, bytes);
        }
        Action::Wait => out.push(OP_WAIT),
        Action::WaitAll => out.push(OP_WAITALL),
        Action::Barrier => out.push(OP_BARRIER),
        Action::Bcast { bytes, root } => {
            out.push(OP_BCAST);
            put_varint(out, bytes);
            put_varint(out, u64::from(root.0));
        }
        Action::Reduce { bytes, root } => {
            out.push(OP_REDUCE);
            put_varint(out, bytes);
            put_varint(out, u64::from(root.0));
        }
        Action::Allreduce { bytes } => {
            out.push(OP_ALLREDUCE);
            put_varint(out, bytes);
        }
        Action::Alltoall { bytes } => {
            out.push(OP_ALLTOALL);
            put_varint(out, bytes);
        }
        Action::Gather { bytes, root } => {
            out.push(OP_GATHER);
            put_varint(out, bytes);
            put_varint(out, u64::from(root.0));
        }
        Action::Allgather { bytes } => {
            out.push(OP_ALLGATHER);
            put_varint(out, bytes);
        }
    }
}

/// Decodes one action at `pos`, advancing it.
///
/// # Errors
/// Structural decode failures; `pos` is left wherever decoding stopped.
pub(crate) fn decode_action(bytes: &[u8], pos: &mut usize) -> Result<Action, BinError> {
    let op = *bytes.get(*pos).ok_or(BinError::Truncated)?;
    *pos += 1;
    let action = match op {
        OP_INIT => Action::Init,
        OP_FINALIZE => Action::Finalize,
        OP_COMPUTE_INT => Action::Compute {
            amount: get_varint(bytes, pos)? as f64,
        },
        OP_COMPUTE_F64 => {
            let amount = f64::from_bits(read_u64(bytes, *pos)?);
            *pos += 8;
            if !amount.is_finite() || amount < 0.0 {
                return Err(BinError::BadCompute);
            }
            Action::Compute { amount }
        }
        OP_SEND => Action::Send {
            dst: get_rank(bytes, pos)?,
            bytes: get_varint(bytes, pos)?,
        },
        OP_ISEND => Action::Isend {
            dst: get_rank(bytes, pos)?,
            bytes: get_varint(bytes, pos)?,
        },
        OP_RECV => Action::Recv {
            src: get_rank(bytes, pos)?,
            bytes: get_varint(bytes, pos)?,
        },
        OP_IRECV => Action::Irecv {
            src: get_rank(bytes, pos)?,
            bytes: get_varint(bytes, pos)?,
        },
        OP_WAIT => Action::Wait,
        OP_WAITALL => Action::WaitAll,
        OP_BARRIER => Action::Barrier,
        OP_BCAST => Action::Bcast {
            bytes: get_varint(bytes, pos)?,
            root: get_rank(bytes, pos)?,
        },
        OP_REDUCE => Action::Reduce {
            bytes: get_varint(bytes, pos)?,
            root: get_rank(bytes, pos)?,
        },
        OP_ALLREDUCE => Action::Allreduce {
            bytes: get_varint(bytes, pos)?,
        },
        OP_ALLTOALL => Action::Alltoall {
            bytes: get_varint(bytes, pos)?,
        },
        OP_GATHER => Action::Gather {
            bytes: get_varint(bytes, pos)?,
            root: get_rank(bytes, pos)?,
        },
        OP_ALLGATHER => Action::Allgather {
            bytes: get_varint(bytes, pos)?,
        },
        other => return Err(BinError::BadOpcode(other)),
    };
    Ok(action)
}

// ----------------------------------------------------------------------
// Header
// ----------------------------------------------------------------------

/// One rank's block in the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Offset within the payload.
    pub offset: u64,
    /// Encoded byte length.
    pub len: u64,
    /// Number of actions.
    pub count: u64,
}

/// Parsed `.titb` header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Rank count.
    pub ranks: u32,
    /// Per-rank payload blocks, in rank order.
    pub blocks: Vec<Block>,
    /// `(len, mtime_ns)` of the text source this file caches, if any.
    pub source_signature: Option<(u64, u64)>,
    /// FNV-1a checksum of the payload.
    pub checksum: u64,
}

impl Header {
    /// First payload byte (= header length).
    pub(crate) fn payload_start(&self) -> usize {
        HEADER_FIXED + TABLE_ENTRY * self.blocks.len()
    }

    /// Total actions over all ranks.
    pub fn total_actions(&self) -> u64 {
        self.blocks.iter().map(|b| b.count).sum()
    }
}

/// The fixed header fields: `(ranks, source signature, checksum)`.
type Fixed = (u32, Option<(u64, u64)>, u64);

/// Parses the fixed header from the first `min(len, 36)` bytes of a
/// `.titb` image.
fn parse_fixed(bytes: &[u8]) -> Result<Fixed, BinError> {
    if bytes.len() < HEADER_FIXED {
        return Err(if bytes.get(..4).is_some_and(|m| m != MAGIC) {
            BinError::BadMagic
        } else {
            BinError::Truncated
        });
    }
    if &bytes[..4] != MAGIC {
        return Err(BinError::BadMagic);
    }
    if bytes[4] != VERSION {
        return Err(BinError::BadVersion(bytes[4]));
    }
    let ranks = read_u32(bytes, 8)?;
    let source_len = read_u64(bytes, 12)?;
    let source_mtime_ns = read_u64(bytes, 20)?;
    let checksum = read_u64(bytes, 28)?;
    let source_signature = if source_len == 0 && source_mtime_ns == 0 {
        None
    } else {
        Some((source_len, source_mtime_ns))
    };
    Ok((ranks, source_signature, checksum))
}

/// First payload byte of a `ranks`-rank image of `len` bytes; checked
/// before the table is read or allocated, so a header claiming more
/// ranks than the file can hold costs nothing.
fn payload_start(ranks: u32, len: u64) -> Result<u64, BinError> {
    let start = HEADER_FIXED as u64 + TABLE_ENTRY as u64 * u64::from(ranks);
    if len < start {
        return Err(BinError::Truncated);
    }
    Ok(start)
}

/// Parses the block table and checks that the blocks tile the
/// `payload_len` payload bytes exactly, in rank order.
fn parse_table(table: &[u8], payload_len: u64) -> Result<Vec<Block>, BinError> {
    let mut blocks = Vec::with_capacity(table.len() / TABLE_ENTRY);
    let mut expect_offset = 0u64;
    for (r, entry) in table.chunks_exact(TABLE_ENTRY).enumerate() {
        let block = Block {
            offset: read_u64(entry, 0)?,
            len: read_u64(entry, 8)?,
            count: read_u64(entry, 16)?,
        };
        if block.offset != expect_offset {
            return Err(BinError::BadTable(format!(
                "rank {r} block starts at {} instead of {expect_offset}",
                block.offset
            )));
        }
        expect_offset = block
            .offset
            .checked_add(block.len)
            .ok_or_else(|| BinError::BadTable(format!("rank {r} block length overflows")))?;
        blocks.push(block);
    }
    if expect_offset != payload_len {
        return Err(BinError::BadTable(format!(
            "blocks cover {expect_offset} bytes but the payload holds {payload_len}"
        )));
    }
    Ok(blocks)
}

// ----------------------------------------------------------------------
// Content identity
// ----------------------------------------------------------------------

/// The FNV-1a digest of the encoded action payload `sources` yield (one
/// source per rank, in rank order), and the number of actions — exactly
/// the checksum a `.titb` written from them carries in its header,
/// computed in one streaming pass without materialising the file image.
/// This is the canonical *content* identity of a trace: independent of
/// file path, mtime, text formatting, and storage form, so it is the
/// trace component of a what-if memoization key (see
/// `tit_replay::querykey`). A decoded trace's sources are
/// [`trace_sources`].
///
/// # Errors
/// The first failure of a source.
pub fn content_checksum<S: ActionSource>(sources: Vec<S>) -> Result<(u64, u64), SourceError> {
    let mut fnv = Fnv1a::new();
    let mut scratch = Vec::with_capacity(32);
    let mut actions = 0u64;
    for mut source in sources {
        while let Some(action) = source.next_action()? {
            scratch.clear();
            encode_action(&action, &mut scratch);
            fnv.update(&scratch);
            actions += 1;
        }
    }
    Ok((fnv.digest(), actions))
}

/// One [`ActionSource`] per rank over a decoded trace's own action lists.
pub fn trace_sources(trace: &Trace) -> Vec<std::slice::Iter<'_, Action>> {
    trace.iter().map(|(_, actions)| actions.iter()).collect()
}

// ----------------------------------------------------------------------
// Writing
// ----------------------------------------------------------------------

fn header_bytes(
    trace_ranks: u32,
    blocks: &[Block],
    sig: Option<(u64, u64)>,
    checksum: u64,
) -> Vec<u8> {
    let (src_len, src_mtime) = sig.unwrap_or((0, 0));
    let mut out = Vec::with_capacity(HEADER_FIXED + TABLE_ENTRY * blocks.len());
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&[0, 0, 0]);
    out.extend_from_slice(&trace_ranks.to_le_bytes());
    out.extend_from_slice(&src_len.to_le_bytes());
    out.extend_from_slice(&src_mtime.to_le_bytes());
    out.extend_from_slice(&checksum.to_le_bytes());
    for b in blocks {
        out.extend_from_slice(&b.offset.to_le_bytes());
        out.extend_from_slice(&b.len.to_le_bytes());
        out.extend_from_slice(&b.count.to_le_bytes());
    }
    out
}

/// Writes `trace` to `path` as `.titb`: [`write_sources`] over cursors of
/// the trace's own action lists.
///
/// # Errors
/// Propagates I/O failures (with the path).
pub fn write_file(trace: &Trace, path: &Path, sig: Option<(u64, u64)>) -> Result<(), FileError> {
    write_sources(trace_sources(trace), path, sig)??;
    Ok(())
}

/// Writes the actions `sources` yield (one source per rank, in rank
/// order) to `path` as `.titb`, encoding the ranks in parallel and
/// writing them in rank order through a buffered writer (chunks, not a
/// whole-file image): a placeholder header is written first and patched
/// once the payload lengths and checksum are known. Returns the number
/// of actions written.
///
/// The file is assembled in a uniquely named temp sibling, synced, and
/// moved into place with `rename`, so concurrent readers of `path` only
/// ever observe a complete image — never a half-written header — and
/// two simultaneous writers race to an identical result instead of
/// interleaving.
///
/// # Errors
/// The outer error is the write's (with the path; `InvalidData` for a
/// compute amount the readers refuse, naming its rank and index, or a
/// failed sync); the inner one is the first failure of a source. Of a
/// source's failure and a refused amount, the one met first in rank
/// order is reported. Nothing is left at `path` after either.
pub fn write_sources<S: ActionSource>(
    sources: Vec<S>,
    path: &Path,
    sig: Option<(u64, u64)>,
) -> Result<Result<u64, SourceError>, FileError> {
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "titb.tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let result = match write_file_at(sources, &tmp, sig) {
        // Name the file asked for, not its temp sibling.
        Err(e) => Err(FileError::Io(path.to_path_buf(), e)),
        Ok(Ok(actions)) => std::fs::rename(&tmp, path)
            .map(|()| Ok(actions))
            .map_err(|e| FileError::Io(path.to_path_buf(), e)),
        Ok(Err(e)) => Ok(Err(e)),
    };
    if !matches!(result, Ok(Ok(_))) {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// The `.titb` writer's sink: the payload goes to the file and through
/// the checksum, and each rank's block is recorded as it ends.
struct Payload {
    out: io::BufWriter<std::fs::File>,
    fnv: Fnv1a,
    blocks: Vec<Block>,
    offset: u64,
}

impl pipeline::Sink for Payload {
    fn bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.fnv.update(bytes);
        self.out.write_all(bytes)
    }

    fn rank_end(&mut self, actions: u64, len: u64) {
        self.blocks.push(Block {
            offset: self.offset,
            len,
            count: actions,
        });
        self.offset += len;
    }
}

/// Appends the encoding of action `index` of `rank`, or refuses an
/// amount the readers would not read back.
fn encode_checked(rank: Rank, index: u64, action: &Action, out: &mut Vec<u8>) -> io::Result<()> {
    crate::write::check_writable(rank, index, action)?;
    encode_action(action, out);
    Ok(())
}

fn write_file_at<S: ActionSource>(
    sources: Vec<S>,
    path: &Path,
    sig: Option<(u64, u64)>,
) -> io::Result<Result<u64, SourceError>> {
    let ranks = u32::try_from(sources.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "more than 2^32 ranks"))?;
    let file = std::fs::File::create(path)?;
    let mut payload = Payload {
        out: io::BufWriter::with_capacity(pipeline::CHUNK, file),
        fnv: Fnv1a::new(),
        blocks: Vec::with_capacity(sources.len()),
        offset: 0,
    };
    payload
        .out
        .write_all(&vec![0u8; HEADER_FIXED + TABLE_ENTRY * sources.len()])?;
    let actions = match pipeline::write(sources, encode_checked, &mut payload)? {
        Ok(actions) => actions,
        Err(e) => return Ok(Err(e)),
    };
    let mut file = payload.out.into_inner().map_err(|e| e.into_error())?;
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&header_bytes(
        ranks,
        &payload.blocks,
        sig,
        payload.fnv.digest(),
    ))?;
    file.sync_data()?;
    Ok(Ok(actions))
}

// ----------------------------------------------------------------------
// Reading
// ----------------------------------------------------------------------

/// Opens one incremental [`ActionSource`] per rank over a `.titb` file:
/// [`TitbFile::open`] then [`TitbFile::cursors`].
///
/// # Errors
/// I/O and decode failures, or a rank-count mismatch.
pub fn open_cursors(path: &Path, ranks: u32) -> Result<Vec<Box<dyn ActionSource>>, FileError> {
    Ok(TitbFile::open(path, ranks)?.cursors())
}

/// The longest action encoding (an opcode and two ten-byte varints is
/// 21 bytes), rounded up. A cursor refills its window before decoding
/// from fewer bytes than this, so a decode never meets a window edge:
/// it sees either this many bytes or the whole rest of its block.
const MAX_ACTION: usize = 32;

/// Read buffer of the checksum pass.
const HASH_BUF: usize = 64 * 1024;

/// An opened `.titb` file: header and block table read, payload checksum
/// verified, the file kept open. Any number of cursor sets can be handed
/// out without re-reading or re-hashing anything (a parallel replay
/// scans the trace, then replays it). Every cursor reads its rank's
/// block through a window of at most 16 KiB from the one shared file
/// handle, so a replay holds O(ranks · window) bytes of the trace, not
/// the file.
#[derive(Debug)]
pub struct TitbFile {
    file: SharedFile,
    header: Header,
}

impl TitbFile {
    /// Opens `path` as a `ranks`-rank trace and verifies its checksum.
    ///
    /// # Errors
    /// I/O and decode failures, or a rank-count mismatch.
    pub fn open(path: &Path, ranks: u32) -> Result<TitbFile, FileError> {
        let titb = TitbFile::open_unverified(path)?;
        titb.expect_ranks(ranks)?;
        titb.verify()
    }

    /// Opens `path` with the rank count its header records (how `trace
    /// unpack` reads a file it is given no rank count for) and verifies
    /// its checksum.
    ///
    /// # Errors
    /// I/O and decode failures.
    pub fn open_any(path: &Path) -> Result<TitbFile, FileError> {
        TitbFile::open_unverified(path)?.verify()
    }

    /// Fails unless the file holds exactly `ranks` ranks.
    pub(crate) fn expect_ranks(&self, ranks: u32) -> Result<(), FileError> {
        if self.header.ranks != ranks {
            return Err(FileError::Description(
                self.path().to_path_buf(),
                format!(
                    "binary trace holds {} ranks, {ranks} requested",
                    self.header.ranks
                ),
            ));
        }
        Ok(())
    }

    /// Reads the header and the block table only: no payload byte is
    /// read, so a caller can reject the file on its header (a stale
    /// side-car) before paying for [`TitbFile::verify`].
    pub(crate) fn open_unverified(path: &Path) -> Result<TitbFile, FileError> {
        let io_err = |e| FileError::Io(path.to_path_buf(), e);
        let bin_err = |e| FileError::Bin(path.to_path_buf(), e);
        let shared = SharedFile::open(path).map_err(io_err)?;
        let mut file = shared.lock();
        let len = file.metadata().map_err(io_err)?.len();
        let mut fixed = Vec::with_capacity(HEADER_FIXED);
        (&mut *file)
            .take(HEADER_FIXED as u64)
            .read_to_end(&mut fixed)
            .map_err(io_err)?;
        let (ranks, source_signature, checksum) = parse_fixed(&fixed).map_err(bin_err)?;
        let start = payload_start(ranks, len).map_err(bin_err)?;
        let table_len = usize::try_from(start - HEADER_FIXED as u64)
            .map_err(|_| bin_err(BinError::Truncated))?;
        let mut table = vec![0u8; table_len];
        file.read_exact(&mut table).map_err(io_err)?;
        let blocks = parse_table(&table, len - start).map_err(bin_err)?;
        drop(file);
        Ok(TitbFile {
            file: shared,
            header: Header {
                ranks,
                blocks,
                source_signature,
                checksum,
            },
        })
    }

    /// Hashes the payload in one sequential buffered pass and checks it
    /// against the header.
    pub(crate) fn verify(self) -> Result<TitbFile, FileError> {
        let io_err = |e| FileError::Io(self.path().to_path_buf(), e);
        let payload_len: u64 = self.header.blocks.iter().map(|b| b.len).sum();
        let mut fnv = Fnv1a::new();
        {
            let mut file = self.file.lock();
            file.seek(SeekFrom::Start(self.header.payload_start() as u64))
                .map_err(io_err)?;
            let mut buf = vec![0u8; HASH_BUF];
            let mut left = payload_len;
            while left > 0 {
                let n = left.min(HASH_BUF as u64) as usize;
                file.read_exact(&mut buf[..n]).map_err(io_err)?;
                fnv.update(&buf[..n]);
                left -= n as u64;
            }
        }
        let actual = fnv.digest();
        if actual != self.header.checksum {
            let expected = self.header.checksum;
            let e = BinError::ChecksumMismatch { expected, actual };
            return Err(FileError::Bin(self.path().to_path_buf(), e));
        }
        Ok(self)
    }

    /// The parsed header: rank count, block table, source signature and
    /// the verified payload checksum.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The file this handle reads.
    pub fn path(&self) -> &Path {
        self.file.path()
    }

    /// One incremental [`ActionSource`] per rank, each at the start of
    /// its block. Actions decode on the fly as the replay pulls them, so
    /// no `Vec<Vec<Action>>` is ever materialised.
    pub fn cursors(&self) -> Vec<Box<dyn ActionSource>> {
        self.cursors_with_window(window_for(self.header.blocks.len()))
    }

    fn cursors_with_window(&self, window: usize) -> Vec<Box<dyn ActionSource>> {
        assert!(
            window >= MAX_ACTION,
            "a window must hold the longest action"
        );
        let cursor = |(r, block): (usize, &Block)| {
            let start = self.header.payload_start() as u64 + block.offset;
            let capacity = usize::try_from(block.len).map_or(window, |len| len.min(window));
            Box::new(BlockCursor {
                window: Window::new(self.file.clone(), start, start + block.len, capacity),
                rank: r as u32,
                remaining: block.count,
            }) as Box<dyn ActionSource>
        };
        self.header.blocks.iter().enumerate().map(cursor).collect()
    }
}

/// Incremental decoder over one rank's block of an open `.titb` file,
/// through a window of the block.
struct BlockCursor {
    window: Window,
    rank: u32,
    remaining: u64,
}

impl BlockCursor {
    /// A decode error in block terms: running out of window bytes means
    /// the block ended early (the window holds the rest of the block
    /// whenever a decode can run out), and a window position becomes a
    /// file offset.
    #[cold]
    fn in_block(&self, e: BinError) -> BinError {
        match e {
            BinError::Truncated => BinError::BlockLengthMismatch { rank: self.rank },
            BinError::OverlongVarint { offset } => BinError::OverlongVarint {
                offset: self.window.file_offset(offset) as usize,
            },
            other => other,
        }
    }
}

impl ActionSource for BlockCursor {
    fn next_action(&mut self) -> Result<Option<Action>, SourceError> {
        if self.remaining == 0 {
            if self.window.unconsumed() != 0 || !self.window.read_all() {
                let e = BinError::BlockLengthMismatch { rank: self.rank };
                return Err(SourceError::Bin(self.window.path().to_path_buf(), e));
            }
            return Ok(None);
        }
        if self.window.unconsumed() < MAX_ACTION && !self.window.read_all() {
            if let Err(e) = self.window.refill() {
                return Err(SourceError::Io(self.window.path().to_path_buf(), e));
            }
        }
        let (bytes, pos) = self.window.parts();
        match decode_action(bytes, pos) {
            Ok(action) => {
                self.remaining -= 1;
                Ok(Some(action))
            }
            Err(e) => Err(SourceError::Bin(
                self.window.path().to_path_buf(),
                self.in_block(e),
            )),
        }
    }

    fn remaining_hint(&self) -> Option<u64> {
        // Every action takes at least one byte, so a corrupt count cannot
        // claim more actions than the block has bytes left.
        Some(self.remaining.min(self.window.left()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WINDOW;

    fn sample() -> Trace {
        let mut t = Trace::new(3);
        for r in 0..3u32 {
            t.push(Rank(r), Action::Init);
            t.push(Rank(r), Action::Compute { amount: 956_140.0 });
            t.push(
                Rank(r),
                Action::Isend {
                    dst: Rank((r + 1) % 3),
                    bytes: 1240,
                },
            );
            t.push(
                Rank(r),
                Action::Irecv {
                    src: Rank((r + 2) % 3),
                    bytes: 1240,
                },
            );
            t.push(Rank(r), Action::WaitAll);
            t.push(Rank(r), Action::Compute { amount: 1.5 });
            t.push(Rank(r), Action::Allreduce { bytes: 40 });
            t.push(Rank(r), Action::Finalize);
        }
        t
    }

    /// The image [`write_file`] writes for `trace`: the test oracle of
    /// the layout.
    pub(super) fn encode(trace: &Trace, sig: Option<(u64, u64)>) -> Vec<u8> {
        let mut payload = Vec::new();
        let mut blocks = Vec::new();
        for (_, actions) in trace.iter() {
            let offset = payload.len() as u64;
            for a in actions {
                encode_action(a, &mut payload);
            }
            blocks.push(Block {
                offset,
                len: payload.len() as u64 - offset,
                count: actions.len() as u64,
            });
        }
        let mut fnv = Fnv1a::new();
        fnv.update(&payload);
        let mut out = header_bytes(trace.ranks(), &blocks, sig, fnv.digest());
        out.extend_from_slice(&payload);
        out
    }

    /// The header and block table of an in-memory image.
    pub(super) fn read_header(bytes: &[u8]) -> Result<Header, BinError> {
        let (ranks, source_signature, checksum) =
            parse_fixed(&bytes[..bytes.len().min(HEADER_FIXED)])?;
        let start = payload_start(ranks, bytes.len() as u64)? as usize;
        let blocks = parse_table(&bytes[HEADER_FIXED..start], (bytes.len() - start) as u64)?;
        Ok(Header {
            ranks,
            blocks,
            source_signature,
            checksum,
        })
    }

    /// Decodes a whole in-memory image: the oracle the windowed cursors
    /// are checked against. Varint offsets count from the image start,
    /// which is the file start.
    pub(super) fn decode(bytes: &[u8]) -> Result<Trace, BinError> {
        let header = read_header(bytes)?;
        let start = header.payload_start();
        let mut fnv = Fnv1a::new();
        fnv.update(&bytes[start..]);
        if fnv.digest() != header.checksum {
            return Err(BinError::ChecksumMismatch {
                expected: header.checksum,
                actual: fnv.digest(),
            });
        }
        let mut per_rank = Vec::new();
        for (r, block) in header.blocks.iter().enumerate() {
            let rank = r as u32;
            let mut pos = start + block.offset as usize;
            let block_bytes = &bytes[..pos + block.len as usize];
            let mut actions = Vec::new();
            for _ in 0..block.count {
                let a = decode_action(block_bytes, &mut pos).map_err(|e| match e {
                    BinError::Truncated => BinError::BlockLengthMismatch { rank },
                    other => other,
                })?;
                actions.push(a);
            }
            if pos != block_bytes.len() {
                return Err(BinError::BlockLengthMismatch { rank });
            }
            per_rank.push(actions);
        }
        Ok(Trace::from_actions(per_rank))
    }

    /// Writes `bytes` to a per-process temp file named `name`.
    pub(super) fn temp_titb(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let p = temp_path(name);
        std::fs::write(&p, bytes).unwrap();
        p
    }

    /// A per-process temp path named `name`.
    pub(super) fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("titrace-binfmt-win-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}.titb"))
    }

    fn bin_error(e: FileError) -> BinError {
        match e {
            FileError::Bin(_, e) => e,
            other => panic!("expected a decode error, got {other}"),
        }
    }

    /// Every rank of the file at `path`, opened whatever its rank count,
    /// drained in rank order through cursors with `window`-byte windows;
    /// the first failure, as [`decode`] reports its first.
    pub(super) fn drain_windowed(path: &Path, window: usize) -> Result<Trace, BinError> {
        let titb = TitbFile::open_any(path).map_err(bin_error)?;
        let mut ranks = Vec::new();
        for mut cursor in titb.cursors_with_window(window) {
            let mut got = Vec::new();
            while let Some(a) = cursor.next_action().map_err(|e| match e {
                SourceError::Bin(_, e) => e,
                other => panic!("expected a decode error, got {other}"),
            })? {
                got.push(a);
            }
            ranks.push(got);
        }
        Ok(Trace::from_actions(ranks))
    }

    /// The file reader: what `trace unpack` and every whole-trace load
    /// of a `.titb` decode, through the replay's windows.
    pub(super) fn read(path: &Path) -> Result<Trace, BinError> {
        drain_windowed(path, WINDOW)
    }

    /// `trace` written by [`write_file`] and read back by the file reader.
    fn through_file(trace: &Trace, name: &str) -> Trace {
        let p = temp_path(name);
        write_file(trace, &p, None).unwrap();
        read(&p).unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = sample();
        assert_eq!(through_file(&t, "roundtrip"), t);
        assert_eq!(decode(&encode(&t, None)).unwrap(), t);
    }

    #[test]
    fn all_action_kinds_roundtrip() {
        let actions = vec![
            Action::Init,
            Action::Finalize,
            Action::Compute { amount: 0.0 },
            Action::Compute { amount: 8.999e15 },
            Action::Compute { amount: 9.1e15 }, // above the int threshold
            Action::Compute { amount: 0.125 },
            Action::Send {
                dst: Rank(0),
                bytes: 0,
            },
            Action::Isend {
                dst: Rank(u32::MAX),
                bytes: u64::MAX,
            },
            Action::Recv {
                src: Rank(1),
                bytes: 300,
            },
            Action::Irecv {
                src: Rank(2),
                bytes: 400,
            },
            Action::Wait,
            Action::WaitAll,
            Action::Barrier,
            Action::Bcast {
                bytes: 8,
                root: Rank(0),
            },
            Action::Reduce {
                bytes: 16,
                root: Rank(1),
            },
            Action::Allreduce { bytes: 40 },
            Action::Alltoall { bytes: 64 },
            Action::Gather {
                bytes: 32,
                root: Rank(2),
            },
            Action::Allgather { bytes: 24 },
        ];
        let mut t = Trace::new(1);
        for a in &actions {
            t.push(Rank(0), *a);
        }
        let back = through_file(&t, "all-kinds");
        assert_eq!(back.actions(Rank(0)), t.actions(Rank(0)));
    }

    #[test]
    fn compact_on_realistic_actions() {
        let t = sample();
        let p = temp_path("compact");
        write_file(&t, &p, None).unwrap();
        let bin = std::fs::metadata(&p).unwrap().len() as usize;
        let text = crate::write::to_string(&t).len();
        assert!(bin < text, "binary {bin}B should beat text {text}B");
    }

    #[test]
    fn header_reads_back() {
        let t = sample();
        let p = temp_path("header");
        write_file(&t, &p, Some((1234, 5678))).unwrap();
        let titb = TitbFile::open(&p, 3).unwrap();
        let h = titb.header();
        assert_eq!(h.ranks, 3);
        assert_eq!(h.blocks.len(), 3);
        assert_eq!(h.total_actions(), t.len() as u64);
        assert_eq!(h.source_signature, Some((1234, 5678)));
    }

    #[test]
    fn truncation_anywhere_is_an_error_never_a_panic() {
        let bytes = encode(&sample(), None);
        for cut in 0..bytes.len() {
            let path = temp_titb("cut", &bytes[..cut]);
            assert!(
                read(&path).is_err(),
                "reading {cut}/{} bytes must fail",
                bytes.len()
            );
        }
    }

    #[test]
    fn corrupt_payload_byte_fails_checksum() {
        let t = sample();
        let mut bytes = encode(&t, None);
        let payload_start = read_header(&bytes).unwrap().payload_start();
        let last = bytes.len() - 1;
        assert!(last >= payload_start);
        bytes[last] ^= 0xff;
        let path = temp_titb("flip", &bytes);
        assert!(matches!(
            read(&path),
            Err(BinError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = encode(&sample(), None);
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(read(&temp_titb("magic", &wrong)), Err(BinError::BadMagic));
        bytes[4] = 9;
        let path = temp_titb("version", &bytes);
        assert_eq!(read(&path), Err(BinError::BadVersion(9)));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let mut bytes = vec![0x80u8; 10];
        bytes.push(0x02); // 10 continuation bytes then overflow bits
        let mut pos = 0;
        assert!(matches!(
            get_varint(&bytes, &mut pos),
            Err(BinError::OverlongVarint { .. })
        ));
        let eleven = vec![0x80u8; 11];
        let mut pos = 0;
        assert!(matches!(
            get_varint(&eleven, &mut pos),
            Err(BinError::OverlongVarint { .. })
        ));
    }

    #[test]
    fn varint_roundtrips_at_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn block_count_and_length_must_agree() {
        let t = sample();
        let mut bytes = encode(&t, None);
        // Inflate rank 0's action count without touching its bytes.
        let at = HEADER_FIXED + 16;
        let count = read_u64(&bytes, at).unwrap();
        bytes[at..at + 8].copy_from_slice(&(count + 1).to_le_bytes());
        let path = temp_titb("count", &bytes);
        assert_eq!(read(&path), Err(BinError::BlockLengthMismatch { rank: 0 }));
    }

    #[test]
    fn file_roundtrip_and_cursors() {
        let p = temp_path("cursors");
        let t = sample();
        write_file(&t, &p, None).unwrap();
        assert_eq!(read(&p).unwrap(), t);
        let mut cursors = open_cursors(&p, 3).unwrap();
        for (r, c) in cursors.iter_mut().enumerate() {
            assert_eq!(
                c.remaining_hint(),
                Some(t.actions(Rank(r as u32)).len() as u64)
            );
            let mut got = Vec::new();
            while let Some(a) = c.next_action().unwrap() {
                got.push(a);
            }
            assert_eq!(got.as_slice(), t.actions(Rank(r as u32)));
        }
        assert!(open_cursors(&p, 5).is_err(), "rank mismatch must fail");
    }

    fn set_u64(bytes: &mut [u8], at: usize, v: u64) {
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// A block whose action count is one too high or too low, or whose
    /// bytes end early (the next block absorbing the cut), fails through
    /// windowed cursors exactly as the whole-buffer decode does, at every
    /// window size from the minimum up — so at some size the block's
    /// end falls on each position relative to a window edge.
    #[test]
    fn block_errors_at_window_edges_match_the_whole_buffer_decode() {
        let mut t = Trace::new(2);
        for i in 0..80u32 {
            let a = match i % 3 {
                0 => Action::Compute {
                    amount: 0.5 + f64::from(i),
                },
                1 => Action::Send {
                    dst: Rank(1),
                    bytes: 1 << (i % 60),
                },
                _ => Action::Wait,
            };
            t.push(Rank(0), a);
        }
        t.push(Rank(1), Action::Init);
        t.push(Rank(1), Action::Finalize);
        let clean = encode(&t, None);
        let h = read_header(&clean).unwrap();
        let (b0, b1) = (HEADER_FIXED, HEADER_FIXED + TABLE_ENTRY);
        let mut variants = Vec::new();
        for count in [h.blocks[0].count + 1, h.blocks[0].count - 1] {
            let mut bytes = clean.clone();
            set_u64(&mut bytes, b0 + 16, count);
            variants.push(bytes);
        }
        for cut in 1..=12 {
            let mut bytes = clean.clone();
            set_u64(&mut bytes, b0 + 8, h.blocks[0].len - cut);
            set_u64(&mut bytes, b1, h.blocks[1].offset - cut);
            set_u64(&mut bytes, b1 + 8, h.blocks[1].len + cut);
            variants.push(bytes);
        }
        for (i, bytes) in variants.iter().enumerate() {
            let expected = decode(bytes).unwrap_err();
            assert_eq!(expected, BinError::BlockLengthMismatch { rank: 0 });
            let path = temp_titb(&format!("edge-{i}"), bytes);
            for window in MAX_ACTION..=200 {
                assert_eq!(drain_windowed(&path, window), Err(expected.clone()));
            }
        }
    }

    /// A checksum-consistent block whose send carries an overlong varint
    /// straddling the first window's edge reports the file offset the
    /// whole-buffer decode reports.
    #[test]
    fn overlong_varint_across_a_window_edge_keeps_its_offset() {
        for window in [MAX_ACTION, 47, 64, 100, 200] {
            for lead in window - 12..window {
                let mut payload = vec![OP_WAIT; lead];
                payload.push(OP_SEND);
                payload.extend_from_slice(&[0x80; 10]);
                payload.push(0x02);
                let block = Block {
                    offset: 0,
                    len: payload.len() as u64,
                    count: lead as u64 + 1,
                };
                let mut fnv = Fnv1a::new();
                fnv.update(&payload);
                let mut bytes = header_bytes(1, &[block], None, fnv.digest());
                bytes.extend_from_slice(&payload);
                let expected = decode(&bytes).unwrap_err();
                let from_file_start = HEADER_FIXED + TABLE_ENTRY + lead + 1;
                assert_eq!(
                    expected,
                    BinError::OverlongVarint {
                        offset: from_file_start
                    }
                );
                let path = temp_titb(&format!("overlong-{window}-{lead}"), &bytes);
                assert_eq!(drain_windowed(&path, window), Err(expected));
            }
        }
    }

    /// An overlong varint is reported at its offset in the file, by the
    /// cursors and by the test oracle alike: rank 0 of a 4-rank file
    /// holds six `init`s, then a `send` whose varint starts at payload
    /// byte 7, which is file byte 36 + 4 × 24 + 7.
    #[test]
    fn overlong_varint_error_names_its_file_offset() {
        let mut payload = vec![OP_INIT; 6];
        payload.push(OP_SEND);
        payload.extend_from_slice(&[0x80; 10]);
        payload.push(0x02);
        let end = payload.len() as u64;
        let mut blocks = vec![Block {
            offset: 0,
            len: end,
            count: 7,
        }];
        blocks.extend((1..4).map(|_| Block {
            offset: end,
            len: 0,
            count: 0,
        }));
        let mut fnv = Fnv1a::new();
        fnv.update(&payload);
        let mut bytes = header_bytes(4, &blocks, None, fnv.digest());
        bytes.extend_from_slice(&payload);
        let want = "overlong varint at file offset 139";
        assert_eq!(decode(&bytes).unwrap_err().to_string(), want);
        let path = temp_titb("overlong-message", &bytes);
        let mut rank0 = open_cursors(&path, 4).unwrap().swap_remove(0);
        let err = loop {
            match rank0.next_action() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("the overlong varint decoded"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.to_string(), format!("{}: {want}", path.display()));
    }

    /// A 40-byte file claiming `u32::MAX` ranks is truncated: the table
    /// length is checked against the file before it is allocated (the
    /// 96 GiB allocation would abort the test).
    #[test]
    fn huge_rank_count_is_truncated_before_the_table_is_allocated() {
        let mut bytes = header_bytes(u32::MAX, &[], None, 0);
        bytes.extend_from_slice(&[0; 4]);
        assert_eq!(bytes.len(), 40);
        let path = temp_titb("huge-ranks", &bytes);
        assert_eq!(read(&path), Err(BinError::Truncated));
        assert_eq!(
            TitbFile::open(&path, u32::MAX).map_err(bin_error).err(),
            Some(BinError::Truncated)
        );
    }

    #[test]
    fn streamed_file_matches_in_memory_encoding() {
        let p = temp_path("eq");
        let t = sample();
        write_file(&t, &p, Some((7, 9))).unwrap();
        let streamed = std::fs::read(&p).unwrap();
        assert_eq!(streamed, encode(&t, Some((7, 9))));
    }

    #[test]
    fn content_checksum_matches_written_file_header() {
        let p = temp_path("ck");
        let t = sample();
        write_file(&t, &p, Some((11, 13))).unwrap();
        let header = TitbFile::open(&p, 3).unwrap().header().clone();
        let (checksum, actions) = content_checksum(trace_sources(&t)).unwrap();
        assert_eq!(checksum, header.checksum);
        assert_eq!(actions, t.len() as u64);
        // Independent of the source signature and of going through a file.
        let in_memory = read_header(&encode(&t, None)).unwrap();
        assert_eq!(checksum, in_memory.checksum);
        // The same digest streamed from the file's own cursors.
        let streamed = content_checksum(open_cursors(&p, t.ranks()).unwrap()).unwrap();
        assert_eq!(streamed, (checksum, actions));
    }

    #[test]
    fn write_file_leaves_no_temp_siblings() {
        let dir = std::env::temp_dir().join(format!("titrace-binfmt-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("clean.titb");
        write_file(&sample(), &p, None).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(
            names,
            vec!["clean.titb".to_string()],
            "temp files must be renamed away"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{decode, drain_windowed, encode, read, temp_path, temp_titb};
    use super::*;
    use proptest::prelude::*;

    fn arb_action(ranks: u32) -> impl Strategy<Value = Action> {
        let r = 0..ranks;
        prop_oneof![
            Just(Action::Init),
            Just(Action::Finalize),
            (0u64..=1u64 << 53).prop_map(|a| Action::Compute { amount: a as f64 }),
            (0u64..=1u64 << 60).prop_map(|a| Action::Compute {
                amount: a as f64 / 8.0
            }),
            (r.clone(), 0u64..=u64::MAX).prop_map(|(d, b)| Action::Send {
                dst: Rank(d),
                bytes: b
            }),
            (r.clone(), 0u64..=u64::MAX).prop_map(|(d, b)| Action::Isend {
                dst: Rank(d),
                bytes: b
            }),
            (r.clone(), 0u64..=u64::MAX).prop_map(|(s, b)| Action::Recv {
                src: Rank(s),
                bytes: b
            }),
            (r.clone(), 0u64..=u64::MAX).prop_map(|(s, b)| Action::Irecv {
                src: Rank(s),
                bytes: b
            }),
            Just(Action::Wait),
            Just(Action::WaitAll),
            Just(Action::Barrier),
            (0u64..1 << 40, r.clone()).prop_map(|(b, ro)| Action::Bcast {
                bytes: b,
                root: Rank(ro)
            }),
            (0u64..1 << 40, r.clone()).prop_map(|(b, ro)| Action::Reduce {
                bytes: b,
                root: Rank(ro)
            }),
            (0u64..1 << 40).prop_map(|b| Action::Allreduce { bytes: b }),
            (0u64..1 << 40).prop_map(|b| Action::Alltoall { bytes: b }),
            (0u64..1 << 40, r).prop_map(|(b, ro)| Action::Gather {
                bytes: b,
                root: Rank(ro)
            }),
            (0u64..1 << 40).prop_map(|b| Action::Allgather { bytes: b }),
        ]
    }

    proptest! {
        /// write → read is the identity on arbitrary traces.
        #[test]
        fn binary_roundtrip(actions in proptest::collection::vec(arb_action(6), 0..300)) {
            let mut t = Trace::new(6);
            for (i, a) in actions.iter().enumerate() {
                t.push(Rank((i % 6) as u32), *a);
            }
            let path = temp_path("binary-roundtrip");
            write_file(&t, &path, None).unwrap();
            prop_assert_eq!(read(&path).unwrap(), t);
        }

        /// text → Trace → binary → Trace → text is the identity: the two
        /// formats agree action-for-action.
        #[test]
        fn text_binary_text(actions in proptest::collection::vec(arb_action(4), 0..150)) {
            let mut t = Trace::new(4);
            for (i, a) in actions.iter().enumerate() {
                t.push(Rank((i % 4) as u32), *a);
            }
            let text = crate::write::to_string(&t);
            let from_text = crate::parse::parse_merged(&text, 4).unwrap();
            let path = temp_path("text-binary-text");
            write_file(&from_text, &path, None).unwrap();
            let from_bin = read(&path).unwrap();
            prop_assert_eq!(&from_bin, &from_text);
            prop_assert_eq!(crate::write::to_string(&from_bin), text);
        }

        /// Cursors decoding through windows of 32 to 200 bytes agree with
        /// the whole-buffer decode on traces of every opcode, 9-byte f64
        /// computes and ten-byte varints.
        #[test]
        fn windowed_cursors_match_decode(
            actions in proptest::collection::vec(arb_action(u32::MAX), 0..400),
            window in MAX_ACTION..=200,
        ) {
            let mut t = Trace::new(4);
            for (i, a) in actions.iter().enumerate() {
                t.push(Rank((i % 4) as u32), *a);
            }
            let path = temp_titb("windowed", &encode(&t, None));
            let decoded = decode(&std::fs::read(&path).unwrap()).unwrap();
            prop_assert_eq!(drain_windowed(&path, window).unwrap(), decoded);
        }

        /// The file reader fails exactly as the whole-buffer decode does
        /// on a truncated or byte-flipped file.
        #[test]
        fn read_file_errors_match_decode(
            actions in proptest::collection::vec(arb_action(3), 1..60),
            at in 0usize..=usize::MAX,
            flip in 0u8..=255,
        ) {
            let mut t = Trace::new(3);
            for (i, a) in actions.iter().enumerate() {
                t.push(Rank((i % 3) as u32), *a);
            }
            let mut bytes = encode(&t, None);
            let i = at % bytes.len();
            if flip == 0 {
                bytes.truncate(i);
            } else {
                bytes[i] ^= flip;
            }
            let path = temp_titb("corrupt", &bytes);
            prop_assert_eq!(read(&path), decode(&bytes));
        }

        /// The file reader is total on arbitrary bytes: structured errors
        /// or success, never a panic.
        #[test]
        fn decoder_is_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = read(&temp_titb("arbitrary", &bytes));
        }

        /// Flipping any single byte of a valid file never panics the file
        /// reader, and payload corruption specifically is always caught.
        #[test]
        fn single_byte_corruption_is_caught(
            actions in proptest::collection::vec(arb_action(3), 1..60),
            at in 0usize..=usize::MAX,
            flip in 1u8..=255,
        ) {
            let mut t = Trace::new(3);
            for (i, a) in actions.iter().enumerate() {
                t.push(Rank((i % 3) as u32), *a);
            }
            let mut dirty = encode(&t, None);
            let i = at % dirty.len();
            dirty[i] ^= flip;
            if let Ok(got) = read(&temp_titb("flipped", &dirty)) {
                // Only the reserved bytes and the side-car source
                // signature are semantically inert; a flip anywhere
                // else (magic, version, ranks, checksum, table,
                // payload) must be rejected. FNV-1a's per-byte steps
                // are invertible, so any payload flip changes the
                // digest.
                let inert = (5..8).contains(&i) || (12..28).contains(&i);
                prop_assert!(inert, "corruption at byte {i} slipped through");
                prop_assert_eq!(got, t);
            }
        }
    }
}
