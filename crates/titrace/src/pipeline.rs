//! Writing a trace on every core: one ordered per-rank pipeline.
//!
//! No rank's action list depends on another's, so the writers of text
//! (`write::write_sources`) and of `.titb` (`binfmt::write_sources`)
//! encode ranks in parallel. Worker threads each take the next rank's
//! source, pull its actions and encode them into buffers of at most
//! [`CHUNK`] bytes, which they hand over; the calling
//! thread writes the buffers in rank order to a [`Sink`] (the output,
//! and for `.titb` the payload hash and the block table) and hands them
//! back empty.
//!
//! * **Bounded memory.** Each worker owns [`IN_FLIGHT`] buffers,
//!   allocated up front on the calling thread and recycled, never
//!   grown: the one it fills and those handed over. A worker that gets
//!   ahead of the writer blocks until the writer empties one, so the
//!   pipeline holds O(workers × chunk) whatever the trace's length or
//!   rank count (the sources' own windows aside).
//! * **No deadlock.** Ranks are handed out in order, and a worker
//!   queues its pieces in the order it makes them, so every piece the
//!   writer has not yet taken belongs to its current rank or a later
//!   one. The worker that owns the writer's current rank therefore
//!   holds only buffers the writer is about to empty, and always gets
//!   one back.
//! * **Errors in rank order.** A rank ends with its action count or
//!   its failure: a [`SourceError`], an action the encoder refuses
//!   (`InvalidData` naming the rank and the action's index), or a panic
//!   of the source ([`SourceError::Panicked`]). The writer meets the
//!   ranks in order, so it reports the first failure a rank-by-rank
//!   writer would meet; once a rank has failed no later rank is
//!   started.
//! * **Nothing outlives the call.** The workers are scoped threads:
//!   every one is joined before [`write`] returns, on success, on an
//!   error and on a panic of the sink, whose guard first wakes any
//!   worker waiting for a buffer.
//!
//! Rank 0 is always encoded on the calling thread, by the same per-rank
//! loop feeding the sink directly. The rest follow on the workers, or
//! inline too: with one worker, when no thread can be spawned, or when
//! rank 0 encoded to under [`SMALL`] bytes: for ranks that small,
//! spawning threads and handing over every rank costs more than the
//! encoding.

use std::collections::VecDeque;
use std::io;
use std::iter::Enumerate;
use std::mem;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::vec;

use crate::stream::{ActionSource, SourceError};
use crate::{Action, Rank};

/// Bytes of a chunk, at most: the capacity of every buffer.
pub(crate) const CHUNK: usize = 64 * 1024;

/// A worker hands its buffer over once it holds this many bytes: room
/// is left for one more action (no action encodes to more than 64
/// bytes, as text or as `.titb`), so a buffer never grows.
pub(crate) const FULL: usize = CHUNK - 128;

/// Rank 0 is always written inline. If it encodes to fewer bytes than
/// this, the ranks are too small for threads to pay (spawning them and
/// a hand-off per rank cost more than the encoding) and every rank is.
const SMALL: u64 = CHUNK as u64 / 2;

/// Buffers per worker: the one it fills and up to seven handed over.
/// Output is written in rank order, so a worker that is not on the
/// writer's rank can run ahead only by these: with two workers, ranks of
/// up to about twice this (1 MiB) are encoded fully in parallel.
const IN_FLIGHT: usize = 8;

/// Appends the encoding of action `index` (0-based, in its rank's
/// stream) of `rank` to a buffer, or refuses the action. Each encoder
/// (a function item) is its own type, so the per-action loop calls it
/// directly.
pub(crate) trait Encode:
    Fn(Rank, u64, &Action, &mut Vec<u8>) -> io::Result<()> + Copy + Send + Sync
{
}

impl<E: Fn(Rank, u64, &Action, &mut Vec<u8>) -> io::Result<()> + Copy + Send + Sync> Encode for E {}

/// Where the writer puts the encoded bytes, in rank order.
pub(crate) trait Sink {
    /// Takes the next bytes of the current rank.
    ///
    /// # Errors
    /// The output's failure; the write stops with it.
    fn bytes(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// The current rank ended after `actions` actions, encoded in `len`
    /// bytes.
    fn rank_end(&mut self, _actions: u64, _len: u64) {}
}

/// Encodes the actions `sources` yield (one source per rank, in rank
/// order) with `encode` and writes them to `sink` in rank order: rank 0
/// inline, then the rest on `available_parallelism().min(ranks - 1)`
/// workers (one runs inline), or inline if rank 0 was [`SMALL`].
/// Returns the number of actions written.
///
/// # Errors
/// The outer error is the sink's, or `encode`'s refusal of an action;
/// the inner one is the first failure of a source. Either is the first
/// failure in rank order.
pub(crate) fn write<S: ActionSource>(
    sources: Vec<S>,
    encode: impl Encode,
    sink: &mut dyn Sink,
) -> io::Result<Result<u64, SourceError>> {
    let ranks = sources.len();
    let mut writer = Writer {
        sink,
        len: 0,
        total: 0,
        written: 0,
    };
    let mut sources = sources.into_iter().enumerate();
    let result = inline(sources.by_ref().take(1), encode, &mut writer).and_then(|()| {
        let workers = if writer.written < SMALL {
            1
        } else {
            workers(ranks - 1)
        };
        if workers <= 1 {
            inline(sources, encode, &mut writer)
        } else {
            parallel(workers, sources, ranks, encode, &mut writer)
        }
    });
    match result {
        Ok(()) => Ok(Ok(writer.total)),
        Err(Failure::Source(e)) => Ok(Err(e)),
        Err(Failure::Io(e)) => Err(e),
    }
}

/// Workers for `ranks` ranks: one per core, at most one per rank (a
/// unit test may set the count, see `tests::on_workers`).
fn workers(ranks: usize) -> usize {
    #[cfg(test)]
    if let Some(workers) = tests::WORKERS.get() {
        return workers;
    }
    thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(ranks)
}

/// Why a write failed.
enum Failure {
    /// A rank's stream failed or panicked.
    Source(SourceError),
    /// An action was refused, or the sink failed.
    Io(io::Error),
}

/// Why a rank's encoding stopped before its end.
enum Stop {
    Failed(Failure),
    /// The writer has stopped: the rank no longer matters.
    Closed,
}

/// How a rank ended: its action count, or its failure.
type End = Result<u64, Failure>;

/// Sources with their ranks, in rank order.
type Ranks<S> = Enumerate<vec::IntoIter<S>>;

/// The writer's side: the sink, fed one rank at a time.
struct Writer<'k> {
    sink: &'k mut dyn Sink,
    /// Bytes of the current rank so far.
    len: u64,
    /// Actions written.
    total: u64,
    /// Bytes written.
    written: u64,
}

impl Writer<'_> {
    /// Writes the next bytes of the current rank; `end`, if given, ends
    /// it.
    fn take(&mut self, bytes: &[u8], end: Option<End>) -> Result<(), Failure> {
        self.sink.bytes(bytes).map_err(Failure::Io)?;
        self.len += bytes.len() as u64;
        self.written += bytes.len() as u64;
        match end {
            None => Ok(()),
            Some(Ok(actions)) => {
                self.sink.rank_end(actions, mem::take(&mut self.len));
                self.total += actions;
                Ok(())
            }
            Some(Err(failure)) => Err(failure),
        }
    }
}

/// Encodes rank `rank`'s stream from `source` into `buf`, calling
/// `hand_over` whenever `buf` holds a chunk; returns the action count,
/// leaving the rank's last bytes in `buf`. A panic of the source or the
/// encoder fails the rank.
fn encode_rank(
    rank: usize,
    source: &mut impl ActionSource,
    encode: impl Encode,
    buf: &mut Vec<u8>,
    hand_over: &mut dyn FnMut(&mut Vec<u8>) -> Result<(), Stop>,
) -> Result<u64, Stop> {
    let r = Rank(rank as u32);
    let run = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut index = 0;
        loop {
            let action = match source.next_action() {
                Ok(Some(action)) => action,
                Ok(None) => return Ok(index),
                Err(e) => return Err(Stop::Failed(Failure::Source(e))),
            };
            encode(r, index, &action, buf).map_err(|e| Stop::Failed(Failure::Io(e)))?;
            index += 1;
            if buf.len() >= FULL {
                hand_over(buf)?;
            }
        }
    }));
    run.unwrap_or_else(|payload| {
        Err(Stop::Failed(Failure::Source(SourceError::panicked(
            payload,
        ))))
    })
}

/// The per-rank loop on the calling thread, feeding the writer
/// directly.
fn inline<S: ActionSource>(
    sources: impl Iterator<Item = (usize, S)>,
    encode: impl Encode,
    writer: &mut Writer<'_>,
) -> Result<(), Failure> {
    let mut buf = Vec::with_capacity(CHUNK);
    for (rank, mut source) in sources {
        let mut emit = |b: &mut Vec<u8>| {
            let taken = writer.take(b, None);
            b.clear();
            taken.map_err(Stop::Failed)
        };
        let end = match encode_rank(rank, &mut source, encode, &mut buf, &mut emit) {
            Ok(actions) => Ok(actions),
            Err(Stop::Failed(failure)) => Err(failure),
            Err(Stop::Closed) => unreachable!("the inline writer never closes"),
        };
        writer.take(&buf, Some(end))?;
        buf.clear();
    }
    Ok(())
}

/// Bytes of one rank handed to the writer; the rank's last piece carries
/// how it ended.
struct Piece {
    rank: usize,
    bytes: Vec<u8>,
    end: Option<End>,
}

/// One worker's buffers.
struct Lane {
    /// Pieces handed over, oldest first.
    ready: VecDeque<Piece>,
    /// Buffers the writer has emptied.
    free: Vec<Vec<u8>>,
}

struct State<S> {
    /// The sources not yet taken, with their ranks.
    sources: Ranks<S>,
    /// Ranks from here on are not started: an earlier one failed.
    stop_at: usize,
    lanes: Vec<Lane>,
    /// Set when the writer stops: the workers quit.
    closed: bool,
    /// Workers not yet exited.
    running: usize,
}

struct Shared<S> {
    state: Mutex<State<S>>,
    /// The writer waits here for a piece.
    piece: Condvar,
    /// Workers wait here for a free buffer.
    free: Condvar,
}

impl<S> Shared<S> {
    /// The state, also after a panic while it was held: source and
    /// encoder code runs outside the lock.
    fn lock(&self) -> MutexGuard<'_, State<S>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `buf` as the next piece of `rank` on `lane`, then refills
    /// `buf` with an empty buffer of the lane, waiting for one.
    fn hand_over(
        &self,
        lane: usize,
        rank: usize,
        buf: &mut Vec<u8>,
        end: Option<End>,
    ) -> Result<(), Stop> {
        let mut st = self.lock();
        if st.closed {
            return Err(Stop::Closed);
        }
        let bytes = mem::take(buf);
        st.lanes[lane].ready.push_back(Piece { rank, bytes, end });
        self.piece.notify_one();
        *buf = self.take_free(st, lane)?;
        Ok(())
    }

    /// An empty buffer of `lane`, once the writer has one.
    fn take_free(&self, mut st: MutexGuard<'_, State<S>>, lane: usize) -> Result<Vec<u8>, Stop> {
        loop {
            if st.closed {
                return Err(Stop::Closed);
            }
            if let Some(buf) = st.lanes[lane].free.pop() {
                return Ok(buf);
            }
            st = self.free.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops the workers: whichever waits for a buffer wakes and quits.
    fn close(&self) {
        self.lock().closed = true;
        self.free.notify_all();
    }
}

/// Counts a worker out when it exits, however it exits, and wakes the
/// writer.
struct Exit<'a, S>(&'a Shared<S>);

impl<S> Drop for Exit<'_, S> {
    fn drop(&mut self) {
        self.0.lock().running -= 1;
        self.0.piece.notify_one();
    }
}

/// The workers, closed and joined when the writer returns or unwinds:
/// a scope waits only until its threads have run, this until they have
/// exited.
struct Workers<'scope, 'a, S> {
    shared: &'a Shared<S>,
    threads: Vec<thread::ScopedJoinHandle<'scope, ()>>,
}

impl<S> Drop for Workers<'_, '_, S> {
    fn drop(&mut self) {
        self.shared.close();
        for worker in self.threads.drain(..) {
            // A worker's sources and encoder run under `catch_unwind`.
            let _ = worker.join();
        }
    }
}

/// A worker: takes the next rank until none is left, encoding it into
/// the buffers of `lane`.
fn work<S: ActionSource>(shared: &Shared<S>, lane: usize, encode: impl Encode) {
    let _exit = Exit(shared);
    let Ok(mut buf) = shared.take_free(shared.lock(), lane) else {
        return;
    };
    loop {
        let (rank, mut source) = {
            let mut st = shared.lock();
            match st.sources.next() {
                Some((rank, source)) if rank < st.stop_at && !st.closed => (rank, source),
                _ => return,
            }
        };
        let mut hand_over = |b: &mut Vec<u8>| shared.hand_over(lane, rank, b, None);
        let end = match encode_rank(rank, &mut source, encode, &mut buf, &mut hand_over) {
            Ok(actions) => Ok(actions),
            Err(Stop::Failed(failure)) => {
                let mut st = shared.lock();
                st.stop_at = st.stop_at.min(rank + 1);
                Err(failure)
            }
            Err(Stop::Closed) => return,
        };
        drop(source);
        if shared.hand_over(lane, rank, &mut buf, Some(end)).is_err() {
            return;
        }
    }
}

/// The pipeline on up to `workers` threads for the ranks `sources`
/// holds, the last of `ranks`; the calling thread writes.
fn parallel<S: ActionSource>(
    workers: usize,
    sources: Ranks<S>,
    ranks: usize,
    encode: impl Encode,
    writer: &mut Writer<'_>,
) -> Result<(), Failure> {
    let first = ranks - sources.len();
    let lanes = (0..workers)
        .map(|_| Lane {
            ready: VecDeque::with_capacity(IN_FLIGHT),
            free: (0..IN_FLIGHT).map(|_| Vec::with_capacity(CHUNK)).collect(),
        })
        .collect();
    let shared = Shared {
        state: Mutex::new(State {
            sources,
            stop_at: ranks,
            lanes,
            closed: false,
            running: 0,
        }),
        piece: Condvar::new(),
        free: Condvar::new(),
    };
    thread::scope(|scope| {
        let mut spawned = Workers {
            shared: &shared,
            threads: Vec::with_capacity(workers),
        };
        for lane in 0..workers {
            let shared = &shared;
            shared.lock().running += 1;
            let worker = thread::Builder::new()
                .name("titrace-write".into())
                .spawn_scoped(scope, move || work(shared, lane, encode));
            match worker {
                Ok(worker) => spawned.threads.push(worker),
                Err(_) => {
                    shared.lock().running -= 1;
                    break;
                }
            }
        }
        if spawned.threads.is_empty() {
            let none = Vec::new().into_iter().enumerate();
            let sources = mem::replace(&mut shared.lock().sources, none);
            return inline(sources, encode, writer);
        }
        drain(&shared, first..ranks, writer)
    })
}

/// The writer: takes every rank's pieces in rank order, handing each
/// emptied buffer back to its lane.
fn drain<S>(
    shared: &Shared<S>,
    ranks: Range<usize>,
    writer: &mut Writer<'_>,
) -> Result<(), Failure> {
    let mut spent: Option<(usize, Vec<u8>)> = None;
    for rank in ranks {
        loop {
            let (lane, piece) = {
                let mut st = shared.lock();
                if let Some((lane, mut buf)) = spent.take() {
                    buf.clear();
                    st.lanes[lane].free.push(buf);
                    shared.free.notify_all();
                }
                loop {
                    let at = |l: &Lane| l.ready.front().is_some_and(|p| p.rank == rank);
                    if let Some(lane) = st.lanes.iter().position(at) {
                        let piece = st.lanes[lane].ready.pop_front();
                        break (lane, piece.expect("the lane's front piece"));
                    }
                    if st.running == 0 {
                        return Err(Failure::Source(SourceError::Stopped));
                    }
                    st = shared
                        .piece
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let last = piece.end.is_some();
            writer.take(&piece.bytes, piece.end)?;
            spent = Some((lane, piece.bytes));
            if last {
                break;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::Cell;
    use std::io::Write;
    use std::path::{Path, PathBuf};

    use proptest::prelude::*;

    use super::*;
    use crate::{binfmt, files};

    thread_local! {
        /// The worker count [`workers`] returns on this thread, when set.
        pub(super) static WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// Runs `f` with every write on this thread on `workers` workers.
    fn on_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
        WORKERS.set(Some(workers));
        let out = f();
        WORKERS.set(None);
        out
    }

    /// How an injected fault shows.
    #[derive(Debug, Clone, Copy)]
    enum Fault {
        /// The source fails.
        Fail,
        /// The source panics.
        Panic,
        /// The source yields an amount the writers refuse.
        Refuse,
    }

    /// Action `i` of rank `rank`: varied kinds and field widths.
    fn action(rank: u32, i: u64) -> Action {
        let x = ((u64::from(rank) << 40) | i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let peer = Rank((x >> 8) as u32 % 9);
        match x % 5 {
            0 => Action::Compute {
                amount: (x >> 11) as f64 / 7.0,
            },
            1 => Action::Send {
                dst: peer,
                bytes: x >> 3,
            },
            2 => Action::Irecv {
                src: peer,
                bytes: x >> 20,
            },
            3 => Action::Allreduce { bytes: x },
            _ => Action::WaitAll,
        }
    }

    /// A rank's stream: `len` actions, or a fault at an index.
    #[derive(Debug, Clone)]
    struct Scripted {
        rank: u32,
        len: u64,
        fault: Option<(u64, Fault)>,
        next: u64,
    }

    impl ActionSource for Scripted {
        fn next_action(&mut self) -> Result<Option<Action>, SourceError> {
            let i = self.next;
            match self.fault {
                Some((at, Fault::Fail)) if at == i => {
                    return Err(SourceError::SelfMessage { index: i })
                }
                Some((at, Fault::Panic)) if at == i => {
                    panic!("injected at p{} action {i}", self.rank)
                }
                Some((at, Fault::Refuse)) if at == i => {
                    self.next += 1;
                    return Ok(Some(Action::Compute { amount: -1.0 }));
                }
                _ => {}
            }
            if i >= self.len {
                return Ok(None);
            }
            self.next += 1;
            Ok(Some(action(self.rank, i)))
        }
    }

    /// Streams for `lens`, with a fault at each `(rank, index)` of
    /// `faults` that lands on a rank.
    fn streams(lens: &[u64], faults: &[(u64, u64, u64)]) -> Vec<Scripted> {
        let mut streams: Vec<Scripted> = (0..lens.len())
            .map(|r| Scripted {
                rank: r as u32,
                // Mostly short or empty ranks, some long enough to fill
                // every buffer a worker has; rank 0 is mostly long, so
                // that most writes go to the workers.
                len: match lens[r] % 4 {
                    _ if r == 0 && !lens[r].is_multiple_of(3) => 5000 + lens[r] % 20_000,
                    0 => 0,
                    1 => lens[r] % 50,
                    2 => lens[r] % 3000,
                    _ => 5000 + lens[r] % 20_000,
                },
                fault: None,
                next: 0,
            })
            .collect();
        for &(rank, index, kind) in faults {
            let s = &mut streams[rank as usize % lens.len()];
            let kind = [Fault::Fail, Fault::Panic, Fault::Refuse][kind as usize % 3];
            s.fault = Some((index % (s.len + 1), kind));
        }
        streams
    }

    /// What the writers must report for `streams` written to `path`: the
    /// first fault in rank order, or the action count.
    fn expected(streams: &[Scripted], path: &Path) -> Result<u64, String> {
        for s in streams {
            match s.fault {
                Some((at, Fault::Fail)) => {
                    return Err(format!("action {at} addresses its own rank"))
                }
                Some((at, Fault::Panic)) => {
                    return Err(format!(
                        "the action source panicked: injected at p{} action {at}",
                        s.rank
                    ))
                }
                Some((at, Fault::Refuse)) => {
                    return Err(format!(
                        "{}: p{} action {at}: compute amount -1 cannot be written \
                         (trace readers accept only finite amounts >= 0)",
                        path.display(),
                        s.rank
                    ))
                }
                None => {}
            }
        }
        Ok(streams.iter().map(|s| s.len).sum())
    }

    fn flat<E1: std::fmt::Display, E2: std::fmt::Display>(
        r: Result<Result<u64, E1>, E2>,
    ) -> Result<u64, String> {
        match r {
            Ok(Ok(n)) => Ok(n),
            Ok(Err(e)) => Err(e.to_string()),
            Err(e) => Err(e.to_string()),
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("titrace-pipeline-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The text of `streams` written one line at a time: the oracle.
    fn text_of(streams: &[Scripted]) -> Vec<u8> {
        let mut out = Vec::new();
        for s in streams {
            for i in 0..s.len {
                let a = action(s.rank, i);
                crate::write::push_line(Rank(s.rank), i, &a, &mut out).unwrap();
            }
        }
        out
    }

    /// What a file at `path` holds, if anything.
    fn contents(path: &Path) -> Option<Vec<u8>> {
        std::fs::read(path).ok()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// On 0 to 3 workers, the text and `.titb` writers write the
        /// bytes the inline writer writes, or fail with its message and
        /// leave nothing at the path; the inline writer writes the
        /// oracle's bytes and reports the first fault in rank order.
        #[test]
        fn any_worker_count_writes_what_the_inline_writer_writes(
            lens in proptest::collection::vec(any::<u64>(), 1..10),
            faults in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..3),
        ) {
            let faults: Vec<_> = faults.into_iter().filter(|f| f.2 % 4 != 3).collect();
            let streams = streams(&lens, &faults);
            let dir = temp_dir("prop");
            let text = dir.join("out.trace");
            let titb = dir.join("out.titb");
            let run = |workers: usize| {
                on_workers(workers, || {
                    let t = flat(files::write_merged_sources(streams.clone(), &text));
                    let b = flat(binfmt::write_sources(streams.clone(), &titb, None));
                    ((t, contents(&text)), (b, contents(&titb)))
                })
            };
            let inline = run(0);
            let ((t, text_bytes), (b, titb_bytes)) = &inline;
            prop_assert_eq!(t, &expected(&streams, &text));
            prop_assert_eq!(b, &expected(&streams, &titb));
            if t.is_ok() {
                prop_assert_eq!(text_bytes.as_deref(), Some(&text_of(&streams)[..]));
                let read = crate::stream::load_trace(&crate::TraceInput::Binary(titb.clone()), streams.len() as u32).unwrap();
                for s in &streams {
                    let want: Vec<Action> = (0..s.len).map(|i| action(s.rank, i)).collect();
                    prop_assert_eq!(read.actions(Rank(s.rank)), &want[..]);
                }
            } else {
                prop_assert_eq!(text_bytes, &None);
                prop_assert_eq!(titb_bytes, &None);
            }
            for workers in 1..=3 {
                prop_assert_eq!(&run(workers), &inline, "{} workers", workers);
            }
            let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
            prop_assert!(left.iter().all(|n| !n.to_string_lossy().contains(".tmp.")), "{:?}", left);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// An output that fails after `left` bytes, or panics instead.
    struct Failing {
        left: usize,
        panics: bool,
    }

    impl Write for Failing {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.len() > self.left {
                assert!(!self.panics, "the output panicked");
                return Err(io::Error::other("the output is full"));
            }
            self.left -= buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A failing or panicking output stops the write, whichever rank
    /// the workers are on: the error comes back, or the panic goes on,
    /// once every worker is joined.
    #[test]
    fn a_failing_output_stops_every_worker() {
        let long = |rank| Scripted {
            rank,
            len: 40_000,
            fault: None,
            next: 0,
        };
        for workers in 0..=3 {
            for left in [0, 100_000, 1_000_000] {
                let sources: Vec<_> = (0..6).map(long).collect();
                let mut out = Failing {
                    left,
                    panics: false,
                };
                let e = on_workers(workers, || crate::write::write_sources(sources, &mut out))
                    .unwrap_err();
                assert_eq!(e.to_string(), "the output is full", "{workers} workers");
                let sources: Vec<_> = (0..6).map(long).collect();
                let mut out = Failing { left, panics: true };
                let panicked = panic::catch_unwind(AssertUnwindSafe(|| {
                    on_workers(workers, || crate::write::write_sources(sources, &mut out))
                }));
                WORKERS.set(None);
                assert!(panicked.is_err(), "{workers} workers");
            }
        }
    }

    /// The writer meets every rank whatever the worker count, also ranks
    /// with no actions and more workers than ranks.
    #[test]
    fn empty_ranks_and_idle_workers_write_an_empty_trace() {
        for workers in 0..=5 {
            for ranks in 0..4u32 {
                let sources: Vec<_> = (0..ranks)
                    .map(|rank| Scripted {
                        rank,
                        len: 0,
                        fault: None,
                        next: 0,
                    })
                    .collect();
                let mut out = Vec::new();
                let written =
                    on_workers(workers, || crate::write::write_sources(sources, &mut out));
                assert_eq!(written.unwrap().unwrap(), 0);
                assert!(out.is_empty());
            }
        }
    }
}
