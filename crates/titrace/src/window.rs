//! The bounded read window behind every file cursor.
//!
//! A `.titb` block cursor and a text-trace cursor both decode one rank's
//! byte range of a file through a [`Window`]: at most `capacity` bytes of
//! the range, refilled with one seek and one read through a [`SharedFile`]
//! handle that every cursor over the same file shares. Resident memory is
//! one window per rank, whatever the file's length, and the windows of
//! one trace's cursors share a budget ([`window_for`]), so it stays
//! bounded at large rank counts too.
//!
//! A replay's text cursors, which a helper thread refills
//! (`crate::ahead`), get half that window ([`text_window_for`]),
//! allocated when they are made ([`Window::allocated`]): the helper then
//! only reads, so the windows do not land in its thread's glibc arena,
//! and since it, not the replay, pays for the extra refills, the smaller
//! windows cost the replay nothing. Every other cursor allocates its
//! window on the first refill, so a rank-by-rank drain holds one window
//! at a time.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Bytes a cursor decodes from between two reads of the file, at most.
pub(crate) const WINDOW: usize = 16 * 1024;

/// Bytes the windows of all the cursors over one trace may hold together.
const BUDGET: usize = 64 << 20;

/// The smallest window, however many ranks share the budget, so that a
/// refill's seek and read still bring dozens of actions.
const FLOOR: usize = 1024;

/// The window of each of `ranks` cursors over one trace: an even share of
/// the budget, clamped to `[FLOOR, WINDOW]`. Up to 4 096 ranks every
/// cursor gets the full [`WINDOW`].
pub(crate) fn window_for(ranks: usize) -> usize {
    (BUDGET / ranks.max(1)).clamp(FLOOR, WINDOW)
}

/// The window of each of `ranks` text cursors a helper thread refills:
/// half of [`window_for`] (8 KiB up to 4 096 ranks), never under the
/// floor.
pub(crate) fn text_window_for(ranks: usize) -> usize {
    (window_for(ranks) / 2).max(FLOOR)
}

/// An open file shared by the cursors that read it, with its path for
/// their errors. Every read seeks first, so the cursors need not agree on
/// the file position, and one that panicked while holding the lock
/// leaves nothing a later reader depends on.
#[derive(Debug, Clone)]
pub(crate) struct SharedFile {
    file: Arc<Mutex<File>>,
    path: Arc<Path>,
}

impl SharedFile {
    pub(crate) fn open(path: &Path) -> io::Result<SharedFile> {
        Ok(SharedFile {
            file: Arc::new(Mutex::new(File::open(path)?)),
            path: Arc::from(path),
        })
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, File> {
        self.file.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A cursor's view of the byte range `next_read..end` of a file still to
/// be read, preceded by `bytes`: the file bytes `next_read - bytes.len()
/// .. next_read`, of which `pos..` are not yet consumed. `bytes` is
/// allocated on the first refill (or by [`Window::allocated`]) and never
/// grows past `capacity`.
#[derive(Debug)]
pub(crate) struct Window {
    file: SharedFile,
    bytes: Vec<u8>,
    pos: usize,
    next_read: u64,
    end: u64,
    capacity: usize,
}

impl Window {
    /// A window of at most `capacity` bytes over `start..end` of `file`;
    /// nothing is read or allocated yet.
    pub(crate) fn new(file: SharedFile, start: u64, end: u64, capacity: usize) -> Window {
        Window {
            file,
            bytes: Vec::new(),
            pos: 0,
            next_read: start,
            end,
            capacity,
        }
    }

    /// The window with its buffer allocated now, on this thread, rather
    /// than by the first refill.
    pub(crate) fn allocated(mut self) -> Window {
        self.bytes.reserve_exact(self.capacity);
        self
    }

    pub(crate) fn path(&self) -> &Path {
        self.file.path()
    }

    /// The read but unconsumed bytes.
    pub(crate) fn rest(&self) -> &[u8] {
        &self.bytes[self.pos..]
    }

    /// How many bytes are read but unconsumed.
    pub(crate) fn unconsumed(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The window bytes and the consume position, for decoders that
    /// index the window themselves.
    pub(crate) fn parts(&mut self) -> (&[u8], &mut usize) {
        (&self.bytes, &mut self.pos)
    }

    pub(crate) fn consume(&mut self, n: usize) {
        self.pos += n;
    }

    /// The file offset of window byte `i`.
    pub(crate) fn file_offset(&self, i: usize) -> u64 {
        self.next_read - (self.bytes.len() - i) as u64
    }

    /// The file offset of the first unconsumed byte.
    pub(crate) fn offset(&self) -> u64 {
        self.file_offset(self.pos)
    }

    /// Bytes of the range not yet consumed, read or not.
    pub(crate) fn left(&self) -> u64 {
        self.end - self.offset()
    }

    /// Whether the whole range has been read into the window.
    pub(crate) fn read_all(&self) -> bool {
        self.next_read == self.end
    }

    /// Whether the unconsumed bytes fill the window.
    pub(crate) fn full(&self) -> bool {
        self.unconsumed() == self.capacity
    }

    /// Doubles the capacity, never past `max`; `false` if it is there
    /// already.
    pub(crate) fn grow(&mut self, max: usize) -> bool {
        let grown = (2 * self.capacity).clamp(1, max);
        std::mem::replace(&mut self.capacity, grown) < grown
    }

    /// Moves to the range `start..end`, dropping what the window holds
    /// (its allocation is kept).
    pub(crate) fn jump(&mut self, start: u64, end: u64) {
        self.bytes.clear();
        self.pos = 0;
        self.next_read = start;
        self.end = end;
    }

    /// Moves the unconsumed bytes to the front of the window and fills
    /// the rest from the file with one seek and one read. On failure the
    /// window keeps only bytes that came from the file.
    pub(crate) fn refill(&mut self) -> io::Result<()> {
        self.bytes.drain(..self.pos);
        self.pos = 0;
        let kept = self.bytes.len();
        let n = (self.end - self.next_read).min((self.capacity - kept) as u64) as usize;
        self.bytes.reserve_exact(self.capacity - kept);
        self.bytes.resize(kept + n, 0);
        let mut file = self.file.lock();
        let read = file
            .seek(SeekFrom::Start(self.next_read))
            .and_then(|_| file.read_exact(&mut self.bytes[kept..]));
        if read.is_err() {
            self.bytes.truncate(kept);
        }
        read?;
        self.next_read += n as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_share_one_budget_between_a_floor_and_the_cap() {
        for ranks in [0, 1, 2, 64, 1024, 4096] {
            assert_eq!(window_for(ranks), WINDOW, "{ranks} ranks");
        }
        assert_eq!(window_for(4097), BUDGET / 4097);
        assert_eq!(window_for(16_384), 4096);
        assert_eq!(window_for(65_536), FLOOR);
        assert_eq!(window_for(1 << 20), FLOOR);
        for ranks in [4097, 10_000, 30_000, 65_536] {
            assert!(ranks * window_for(ranks) <= BUDGET, "{ranks} ranks");
        }
    }

    #[test]
    fn text_windows_are_half_of_a_binary_window_above_the_floor() {
        assert_eq!(text_window_for(64), WINDOW / 2);
        assert_eq!(text_window_for(4096), 8 * 1024);
        assert_eq!(text_window_for(16_384), 2048);
        assert_eq!(text_window_for(65_536), FLOOR);
    }
}
