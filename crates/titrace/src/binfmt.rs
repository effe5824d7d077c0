//! `.titb` — the compact binary trace format.
//!
//! Text traces are convenient to inspect but slow to re-ingest: a
//! class-C/128-process acquisition runs to gigabytes and every replay
//! pays the full tokenisation cost again. `.titb` stores the same
//! actions varint-encoded in per-rank blocks behind a self-describing
//! header, so a replay can (a) decode several times faster than the
//! text parse and (b) stream each rank's block incrementally through a
//! [`BlockCursor`] without materialising `Vec<Vec<Action>>` at all.
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

use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use crate::files::FileError;
use crate::stream::{ActionSource, SourceError};
use crate::{Action, Rank, Trace};

/// The four magic bytes opening every `.titb` file.
pub const MAGIC: &[u8; 4] = b"TITB";

/// Current format version.
pub const VERSION: u8 = 1;

/// Fixed header bytes before the block table.
pub const HEADER_FIXED: usize = 36;

/// Bytes per block-table entry.
pub const TABLE_ENTRY: usize = 24;

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
    /// The buffer does not start with [`MAGIC`].
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
        /// Payload offset of the offending varint.
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
                write!(f, "overlong varint at payload offset {offset}")
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

fn read_u32(bytes: &[u8], at: usize) -> Result<u32, BinError> {
    let b: [u8; 4] = bytes
        .get(at..at + 4)
        .ok_or(BinError::Truncated)?
        .try_into()
        .expect("slice has length 4");
    Ok(u32::from_le_bytes(b))
}

fn read_u64(bytes: &[u8], at: usize) -> Result<u64, BinError> {
    let b: [u8; 8] = bytes
        .get(at..at + 8)
        .ok_or(BinError::Truncated)?
        .try_into()
        .expect("slice has length 8");
    Ok(u64::from_le_bytes(b))
}

// ----------------------------------------------------------------------
// Action codec
// ----------------------------------------------------------------------

/// Appends one encoded action to `out`.
pub fn encode_action(action: &Action, out: &mut Vec<u8>) {
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
pub fn decode_action(bytes: &[u8], pos: &mut usize) -> Result<Action, BinError> {
    let op = *bytes.get(*pos).ok_or(BinError::Truncated)?;
    *pos += 1;
    let action = match op {
        OP_INIT => Action::Init,
        OP_FINALIZE => Action::Finalize,
        OP_COMPUTE_INT => Action::Compute {
            amount: get_varint(bytes, pos)? as f64,
        },
        OP_COMPUTE_F64 => {
            let b: [u8; 8] = bytes
                .get(*pos..*pos + 8)
                .ok_or(BinError::Truncated)?
                .try_into()
                .expect("slice has length 8");
            *pos += 8;
            let amount = f64::from_bits(u64::from_le_bytes(b));
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
    pub fn payload_start(&self) -> usize {
        HEADER_FIXED + TABLE_ENTRY * self.blocks.len()
    }

    /// Total actions over all ranks.
    pub fn total_actions(&self) -> u64 {
        self.blocks.iter().map(|b| b.count).sum()
    }
}

/// Parses and sanity-checks the header of a `.titb` buffer. Does **not**
/// hash the payload — call [`verify_checksum`] for that.
///
/// # Errors
/// Structural failures ([`BinError`]).
pub fn read_header(bytes: &[u8]) -> Result<Header, BinError> {
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
    let table_len = TABLE_ENTRY
        .checked_mul(ranks as usize)
        .ok_or(BinError::Truncated)?;
    let payload_start = HEADER_FIXED + table_len;
    if bytes.len() < payload_start {
        return Err(BinError::Truncated);
    }
    let payload_len = (bytes.len() - payload_start) as u64;
    let mut blocks = Vec::with_capacity(ranks as usize);
    let mut expect_offset = 0u64;
    for r in 0..ranks as usize {
        let at = HEADER_FIXED + TABLE_ENTRY * r;
        let block = Block {
            offset: read_u64(bytes, at)?,
            len: read_u64(bytes, at + 8)?,
            count: read_u64(bytes, at + 16)?,
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
    let source_signature = if source_len == 0 && source_mtime_ns == 0 {
        None
    } else {
        Some((source_len, source_mtime_ns))
    };
    Ok(Header {
        ranks,
        blocks,
        source_signature,
        checksum,
    })
}

/// Hashes the payload and compares with the header checksum.
///
/// # Errors
/// [`BinError::ChecksumMismatch`] on disagreement.
pub fn verify_checksum(bytes: &[u8], header: &Header) -> Result<(), BinError> {
    let mut fnv = Fnv1a::new();
    fnv.update(&bytes[header.payload_start()..]);
    let actual = fnv.digest();
    if actual != header.checksum {
        return Err(BinError::ChecksumMismatch {
            expected: header.checksum,
            actual,
        });
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Whole-trace encode / decode
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

/// Encodes a whole trace as an in-memory `.titb` image.
pub fn encode(trace: &Trace) -> Vec<u8> {
    encode_with_source(trace, None)
}

/// Like [`encode`], recording a side-car source signature in the header.
pub fn encode_with_source(trace: &Trace, sig: Option<(u64, u64)>) -> Vec<u8> {
    let mut payload = Vec::with_capacity(trace.len() * 4);
    let mut blocks = Vec::with_capacity(trace.ranks() as usize);
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

/// The FNV-1a digest of the trace's encoded action payload — exactly
/// the checksum a `.titb` written from this trace carries in its
/// header, computed without materialising the file image. This is the
/// canonical *content* identity of a trace: independent of file path,
/// mtime, text formatting, and storage form, so it is the trace
/// component of a what-if memoization key (see `tit_replay::querykey`).
pub fn content_checksum(trace: &Trace) -> u64 {
    let mut fnv = Fnv1a::new();
    let mut scratch = Vec::with_capacity(32);
    for (_, actions) in trace.iter() {
        for a in actions {
            scratch.clear();
            encode_action(a, &mut scratch);
            fnv.update(&scratch);
        }
    }
    fnv.digest()
}

/// Decodes a full `.titb` image into a [`Trace`], verifying the
/// checksum and every block length.
///
/// # Errors
/// Structural failures ([`BinError`]).
pub fn decode(bytes: &[u8]) -> Result<Trace, BinError> {
    let header = read_header(bytes)?;
    verify_checksum(bytes, &header)?;
    let payload = &bytes[header.payload_start()..];
    let mut per_rank = Vec::with_capacity(header.blocks.len());
    for (r, block) in header.blocks.iter().enumerate() {
        let start = block.offset as usize;
        let end = start + block.len as usize;
        let slice = &payload[start..end]; // in range: read_header checked coverage
        let mut pos = 0usize;
        // Each action is at least one byte, so a (possibly corrupt)
        // count can never justify more capacity than the block length.
        let cap = usize::try_from(block.count.min(block.len)).unwrap_or(0);
        let mut actions = Vec::with_capacity(cap);
        for _ in 0..block.count {
            let a = decode_action(slice, &mut pos).map_err(|e| match e {
                BinError::Truncated => BinError::BlockLengthMismatch { rank: r as u32 },
                other => other,
            })?;
            actions.push(a);
        }
        if pos != slice.len() {
            return Err(BinError::BlockLengthMismatch { rank: r as u32 });
        }
        per_rank.push(actions);
    }
    Ok(Trace::from_actions(per_rank))
}

// ----------------------------------------------------------------------
// File I/O
// ----------------------------------------------------------------------

/// Writes `trace` to `path` as `.titb`, streaming rank blocks through a
/// buffered writer (one small scratch buffer, not a whole-file image):
/// a placeholder header is written first and patched once the payload
/// lengths and checksum are known.
///
/// The file is assembled in a uniquely named temp sibling and moved
/// into place with `rename`, so concurrent readers of `path` only ever
/// observe a complete image — never a half-written header — and two
/// simultaneous writers race to an identical result instead of
/// interleaving.
///
/// # Errors
/// Propagates I/O failures (with the path).
pub fn write_file(trace: &Trace, path: &Path, sig: Option<(u64, u64)>) -> Result<(), FileError> {
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "titb.tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let result = write_file_at(trace, &tmp, sig).and_then(|()| {
        std::fs::rename(&tmp, path).map_err(|e| FileError::Io(path.to_path_buf(), e))
    });
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn write_file_at(trace: &Trace, path: &Path, sig: Option<(u64, u64)>) -> Result<(), FileError> {
    let io_err = |e: io::Error| FileError::Io(path.to_path_buf(), e);
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut out = io::BufWriter::new(file);
    let table_len = TABLE_ENTRY * trace.ranks() as usize;
    out.write_all(&vec![0u8; HEADER_FIXED + table_len])
        .map_err(io_err)?;
    let mut blocks = Vec::with_capacity(trace.ranks() as usize);
    let mut fnv = Fnv1a::new();
    let mut offset = 0u64;
    let mut scratch = Vec::with_capacity(32);
    for (_, actions) in trace.iter() {
        let block_start = offset;
        for a in actions {
            scratch.clear();
            encode_action(a, &mut scratch);
            fnv.update(&scratch);
            out.write_all(&scratch).map_err(io_err)?;
            offset += scratch.len() as u64;
        }
        blocks.push(Block {
            offset: block_start,
            len: offset - block_start,
            count: actions.len() as u64,
        });
    }
    out.flush().map_err(io_err)?;
    let mut file = out.into_inner().map_err(|e| io_err(e.into_error()))?;
    file.seek(SeekFrom::Start(0)).map_err(io_err)?;
    file.write_all(&header_bytes(trace.ranks(), &blocks, sig, fnv.digest()))
        .map_err(io_err)?;
    file.sync_data().ok();
    Ok(())
}

/// Reads and decodes a `.titb` file.
///
/// # Errors
/// I/O failures or decode failures (both carrying the path).
pub fn read_file(path: &Path) -> Result<Trace, FileError> {
    let bytes = std::fs::read(path).map_err(|e| FileError::Io(path.to_path_buf(), e))?;
    decode(&bytes).map_err(|e| FileError::Bin(path.to_path_buf(), e))
}

/// A `.titb` file read into memory once, its payload checksum verified.
/// Any number of cursor sets can be handed out over the same bytes (a
/// parallel replay scans the trace, then replays it).
pub struct Image {
    bytes: Arc<Vec<u8>>,
    header: Header,
    path: std::path::PathBuf,
}

impl Image {
    /// Reads and verifies `path`.
    ///
    /// # Errors
    /// I/O and decode failures, or a rank-count mismatch.
    pub fn open(path: &Path, ranks: u32) -> Result<Image, FileError> {
        let bytes = std::fs::read(path).map_err(|e| FileError::Io(path.to_path_buf(), e))?;
        let header = read_header(&bytes).map_err(|e| FileError::Bin(path.to_path_buf(), e))?;
        if header.ranks != ranks {
            return Err(FileError::Description(
                path.to_path_buf(),
                format!(
                    "binary trace holds {} ranks, {ranks} requested",
                    header.ranks
                ),
            ));
        }
        verify_checksum(&bytes, &header).map_err(|e| FileError::Bin(path.to_path_buf(), e))?;
        Ok(Image {
            bytes: Arc::new(bytes),
            header,
            path: path.to_path_buf(),
        })
    }

    /// One incremental [`ActionSource`] per rank, each at the start of
    /// its block. Actions decode on the fly as the replay pulls them, so
    /// no `Vec<Vec<Action>>` is ever materialised.
    pub fn cursors(&self) -> Vec<Box<dyn ActionSource>> {
        let payload_start = self.header.payload_start();
        self.header
            .blocks
            .iter()
            .enumerate()
            .map(|(r, block)| {
                Box::new(BlockCursor {
                    bytes: Arc::clone(&self.bytes),
                    path: self.path.clone(),
                    rank: r as u32,
                    pos: payload_start + block.offset as usize,
                    end: payload_start + (block.offset + block.len) as usize,
                    remaining: block.count,
                }) as Box<dyn ActionSource>
            })
            .collect()
    }
}

/// Opens one incremental [`ActionSource`] per rank over a `.titb` file:
/// [`Image::open`] then [`Image::cursors`].
///
/// # Errors
/// I/O and decode failures, or a rank-count mismatch.
pub fn open_cursors(path: &Path, ranks: u32) -> Result<Vec<Box<dyn ActionSource>>, FileError> {
    Ok(Image::open(path, ranks)?.cursors())
}

/// Incremental decoder over one rank's block of a shared `.titb` image.
pub struct BlockCursor {
    bytes: Arc<Vec<u8>>,
    path: std::path::PathBuf,
    rank: u32,
    pos: usize,
    end: usize,
    remaining: u64,
}

impl ActionSource for BlockCursor {
    fn next_action(&mut self) -> Result<Option<Action>, SourceError> {
        if self.remaining == 0 {
            if self.pos != self.end {
                return Err(SourceError::Bin(
                    self.path.clone(),
                    BinError::BlockLengthMismatch { rank: self.rank },
                ));
            }
            return Ok(None);
        }
        let slice = &self.bytes[..self.end];
        let action = decode_action(slice, &mut self.pos).map_err(|e| {
            let e = match e {
                BinError::Truncated => BinError::BlockLengthMismatch { rank: self.rank },
                other => other,
            };
            SourceError::Bin(self.path.clone(), e)
        })?;
        self.remaining -= 1;
        Ok(Some(action))
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn encode_decode_roundtrip() {
        let t = sample();
        let bytes = encode(&t);
        assert_eq!(decode(&bytes).unwrap(), t);
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
        let back = decode(&encode(&t)).unwrap();
        assert_eq!(back.actions(Rank(0)), t.actions(Rank(0)));
    }

    #[test]
    fn compact_on_realistic_actions() {
        let t = sample();
        let bin = encode(&t).len();
        let text = crate::write::to_string(&t).len();
        assert!(bin < text, "binary {bin}B should beat text {text}B");
    }

    #[test]
    fn header_reads_back() {
        let t = sample();
        let bytes = encode_with_source(&t, Some((1234, 5678)));
        let h = read_header(&bytes).unwrap();
        assert_eq!(h.ranks, 3);
        assert_eq!(h.blocks.len(), 3);
        assert_eq!(h.total_actions(), t.len() as u64);
        assert_eq!(h.source_signature, Some((1234, 5678)));
        verify_checksum(&bytes, &h).unwrap();
    }

    #[test]
    fn truncation_anywhere_is_an_error_never_a_panic() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]);
            assert!(
                err.is_err(),
                "decode of {cut}/{} bytes must fail",
                bytes.len()
            );
        }
    }

    #[test]
    fn corrupt_payload_byte_fails_checksum() {
        let t = sample();
        let mut bytes = encode(&t);
        let payload_start = read_header(&bytes).unwrap().payload_start();
        let last = bytes.len() - 1;
        assert!(last >= payload_start);
        bytes[last] ^= 0xff;
        assert!(matches!(
            decode(&bytes),
            Err(BinError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = encode(&sample());
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(decode(&wrong), Err(BinError::BadMagic));
        bytes[4] = 9;
        assert_eq!(decode(&bytes), Err(BinError::BadVersion(9)));
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
        let mut bytes = encode(&t);
        // Inflate rank 0's action count without touching its bytes.
        let at = HEADER_FIXED + 16;
        let count = read_u64(&bytes, at).unwrap();
        bytes[at..at + 8].copy_from_slice(&(count + 1).to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(BinError::BlockLengthMismatch { rank: 0 })
        ));
    }

    #[test]
    fn file_roundtrip_and_cursors() {
        let dir = std::env::temp_dir().join(format!("titrace-binfmt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.titb");
        let t = sample();
        write_file(&t, &p, None).unwrap();
        assert_eq!(read_file(&p).unwrap(), t);
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

    #[test]
    fn streamed_file_matches_in_memory_encoding() {
        let dir = std::env::temp_dir().join(format!("titrace-binfmt-eq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("eq.titb");
        let t = sample();
        write_file(&t, &p, Some((7, 9))).unwrap();
        let streamed = std::fs::read(&p).unwrap();
        assert_eq!(streamed, encode_with_source(&t, Some((7, 9))));
    }

    #[test]
    fn content_checksum_matches_written_file_header() {
        let dir = std::env::temp_dir().join(format!("titrace-binfmt-ck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("ck.titb");
        let t = sample();
        write_file(&t, &p, Some((11, 13))).unwrap();
        let header = read_header(&std::fs::read(&p).unwrap()).unwrap();
        assert_eq!(content_checksum(&t), header.checksum);
        // Independent of the source signature and of going through a file.
        let in_memory = read_header(&encode(&t)).unwrap();
        assert_eq!(content_checksum(&t), in_memory.checksum);
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
        /// encode → decode is the identity on arbitrary traces.
        #[test]
        fn binary_roundtrip(actions in proptest::collection::vec(arb_action(6), 0..300)) {
            let mut t = Trace::new(6);
            for (i, a) in actions.iter().enumerate() {
                t.push(Rank((i % 6) as u32), *a);
            }
            let back = decode(&encode(&t)).unwrap();
            prop_assert_eq!(back, t);
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
            let from_bin = decode(&encode(&from_text)).unwrap();
            prop_assert_eq!(&from_bin, &from_text);
            prop_assert_eq!(crate::write::to_string(&from_bin), text);
        }

        /// The decoder is total on arbitrary bytes: structured errors or
        /// success, never a panic.
        #[test]
        fn decoder_is_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decode(&bytes);
            let _ = read_header(&bytes);
        }

        /// Flipping any single byte of a valid image never panics, and
        /// payload corruption specifically is always caught.
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
            let clean = encode(&t);
            let mut dirty = clean.clone();
            let i = at % dirty.len();
            dirty[i] ^= flip;
            if let Ok(got) = decode(&dirty) {
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
