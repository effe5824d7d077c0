//! Decoding ahead: per-rank cursors fed by one helper thread.
//!
//! A replay from text spends a third of its wall time decoding lines.
//! The cursors [`open`] hands out for a text input move that work to a
//! helper thread, which owns the text cursors and decodes each rank ahead
//! into small batches; the replay pulls ready-made actions from them and
//! meets exactly the stream it would have met inline — the same actions,
//! then the same end or the same [`SourceError`] at the same position.
//! The text cursors' windows are half the usual size and allocated up
//! front (`crate::window`), so the helper does not allocate as it
//! decodes.
//!
//! * **Two batches per rank.** The replay reads one while the helper
//!   fills the other. Both are allocated here, on the calling thread,
//!   and recycled: a batch the replay has read is handed back as the
//!   rank's free spare and queued for the helper, in the order the
//!   replay freed them.
//! * **One lock, few wake-ups.** A single `Mutex` guards the spares and
//!   the queue. The helper parks when the queue is empty, and the replay
//!   wakes it only when it is about to wait for a batch (that rank is
//!   then filled first) or once about a quarter of the ranks have a free
//!   spare, so a batch hand-off is a lock and a swap, not a futex call.
//! * **Nothing outlives the replay.** [`Ahead`] closes the helper and
//!   joins it when finished or dropped, also on an error or a panic of
//!   the replay. A cursor that panics on the helper fails its rank's
//!   stream at that position ([`SourceError::Panicked`]); a replay that
//!   waits on a helper that is gone gets an error, never a hang. If the
//!   thread cannot be spawned, [`open`] hands the text cursors back
//!   unwrapped and the replay decodes inline.
//!
//! Only text is worth it: a `.titb` cursor's varint decode is cheaper
//! than the hand-off (DESIGN.md, "Merged text streams per rank"). And
//! only a sequential replay uses it: the island engine's workers already
//! occupy the cores.

use std::collections::VecDeque;
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::files::FileError;
use crate::stream::{open_sources, open_sources_in, ActionSource, SourceError, Windows};
use crate::{Action, TraceInput};

/// Actions per batch, at most.
const BATCH: usize = 32;

/// Bytes the batches of all the ranks of one trace may hold together.
const BUDGET: usize = 8 << 20;

/// Actions per batch for `ranks` ranks: [`BATCH`], or less when two
/// batches per rank would exceed the budget, never under 4.
fn batch_for(ranks: usize) -> usize {
    (BUDGET / (2 * mem::size_of::<Action>() * ranks.max(1))).clamp(4, BATCH)
}

/// What a helper that wrapped a replay's cursors did, for the replay's
/// profile.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AheadStats {
    /// Seconds the cursors' readers spent waiting for a batch.
    pub wait_s: f64,
    /// Times the helper parked with every spare batch full.
    pub parks: u64,
}

/// How a batch ends once its actions are read.
#[derive(Debug)]
enum Tail {
    /// The stream goes on in the next batch.
    More,
    /// The stream ends.
    End,
    /// The cursor failed here.
    Failed(SourceError),
}

#[derive(Debug)]
struct Batch {
    actions: Vec<Action>,
    tail: Tail,
}

impl Batch {
    fn with_capacity(n: usize) -> Batch {
        Batch {
            actions: Vec::with_capacity(n),
            tail: Tail::More,
        }
    }

    /// Refills the batch from `source`: up to `n` actions, then where the
    /// stream stands. A panic of the source fails the stream there.
    fn fill(&mut self, source: &mut dyn ActionSource, n: usize) {
        self.actions.clear();
        let actions = &mut self.actions;
        let read = panic::catch_unwind(AssertUnwindSafe(|| {
            while actions.len() < n {
                match source.next_action() {
                    Ok(Some(action)) => actions.push(action),
                    Ok(None) => return Tail::End,
                    Err(e) => return Tail::Failed(e),
                }
            }
            Tail::More
        }));
        self.tail = read.unwrap_or_else(|payload| Tail::Failed(SourceError::panicked(payload)));
    }
}

/// Where a rank's spare batch is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Spare {
    /// Read by the replay, waiting for the helper.
    Free,
    /// Being filled by the helper (the slot holds an empty `Vec`).
    Filling,
    /// Filled, waiting for the replay.
    Ready,
    /// The stream has ended or failed: never filled again.
    Done,
}

struct Slot {
    batch: Batch,
    spare: Spare,
    /// Whether the rank is in [`State::free`].
    queued: bool,
}

struct State {
    slots: Vec<Slot>,
    /// Ranks whose spare is free, in the order the replay freed them
    /// (an entry whose spare was filled out of turn is skipped).
    free: VecDeque<usize>,
    /// A rank the replay waits for, filled before the queue.
    urgent: Option<usize>,
    /// The cursors, until the helper takes them.
    sources: Option<Vec<Box<dyn ActionSource>>>,
    parked: bool,
    /// Set by [`Ahead`]: the helper stops.
    closed: bool,
    /// Set by the helper as it exits.
    gone: bool,
    waiters: usize,
    wait: Duration,
    parks: u64,
}

struct Shared {
    state: Mutex<State>,
    /// The helper parks here.
    work: Condvar,
    /// The replay waits here for a batch.
    ready: Condvar,
    batch: usize,
    /// Free spares at which the replay wakes a parked helper.
    wake_at: usize,
}

impl Shared {
    /// The state, also after a panic while it was held: every update
    /// under the lock is a single field write, and cursor code runs
    /// outside it.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Marks the helper gone when it exits, however it exits, and wakes
/// whoever waits for it.
struct Exit<'a>(&'a Shared);

impl Drop for Exit<'_> {
    fn drop(&mut self) {
        self.0.lock().gone = true;
        self.0.ready.notify_all();
    }
}

/// The helper: fills free spares until closed, parking when there are
/// none.
fn decode_ahead(shared: &Shared) {
    let _exit = Exit(shared);
    let mut st = shared.lock();
    let Some(mut sources) = st.sources.take() else {
        return;
    };
    loop {
        if st.closed {
            return;
        }
        let Some(r) = next_free(&mut st) else {
            st.parked = true;
            st.parks += 1;
            while st.parked && !st.closed {
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            st.parked = false;
            continue;
        };
        let slot = &mut st.slots[r];
        slot.spare = Spare::Filling;
        let mut batch = mem::replace(&mut slot.batch, Batch::with_capacity(0));
        drop(st);
        batch.fill(&mut *sources[r], shared.batch);
        st = shared.lock();
        let slot = &mut st.slots[r];
        slot.batch = batch;
        slot.spare = Spare::Ready;
        if st.waiters > 0 {
            shared.ready.notify_all();
        }
    }
}

/// The rank whose spare the helper fills next: the one the replay waits
/// for, else the first one freed.
fn next_free(st: &mut State) -> Option<usize> {
    if let Some(r) = st.urgent.take() {
        if st.slots[r].spare == Spare::Free {
            return Some(r);
        }
    }
    while let Some(r) = st.free.pop_front() {
        st.slots[r].queued = false;
        if st.slots[r].spare == Spare::Free {
            return Some(r);
        }
    }
    None
}

/// A rank's cursor over the batches the helper decodes.
struct AheadCursor {
    shared: Arc<Shared>,
    rank: usize,
    batch: Batch,
    next: usize,
}

impl AheadCursor {
    /// Trades the batch just read for the rank's spare, waiting for the
    /// helper to fill it if need be, and hands the read one back.
    fn swap(&mut self) -> Result<(), SourceError> {
        let shared = &*self.shared;
        let mut st = shared.lock();
        loop {
            match st.slots[self.rank].spare {
                Spare::Ready => break,
                _ if st.gone || st.closed => return Err(SourceError::Stopped),
                Spare::Free => st.urgent = Some(self.rank),
                Spare::Filling | Spare::Done => {}
            }
            if mem::take(&mut st.parked) {
                shared.work.notify_one();
            }
            st.waiters += 1;
            let since = Instant::now();
            st = shared
                .ready
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
            st.wait += since.elapsed();
            st.waiters -= 1;
        }
        let st = &mut *st;
        let slot = &mut st.slots[self.rank];
        mem::swap(&mut slot.batch, &mut self.batch);
        self.next = 0;
        if !matches!(self.batch.tail, Tail::More) {
            slot.spare = Spare::Done;
        } else {
            slot.spare = Spare::Free;
            if !mem::replace(&mut slot.queued, true) {
                st.free.push_back(self.rank);
            }
        }
        if st.parked && st.free.len() >= shared.wake_at {
            st.parked = false;
            shared.work.notify_one();
        }
        Ok(())
    }
}

impl ActionSource for AheadCursor {
    fn next_action(&mut self) -> Result<Option<Action>, SourceError> {
        loop {
            if let Some(&action) = self.batch.actions.get(self.next) {
                self.next += 1;
                return Ok(Some(action));
            }
            match mem::replace(&mut self.batch.tail, Tail::End) {
                Tail::More => {
                    self.batch.tail = Tail::More;
                    self.swap()?;
                }
                Tail::End => return Ok(None),
                Tail::Failed(e) => return Err(e),
            }
        }
    }
}

/// The helper of the cursors [`open`] hands out. Finishing or dropping it
/// stops the helper and joins it; a cursor read after that yields what
/// was already decoded, then fails with [`SourceError::Stopped`].
pub struct Ahead {
    shared: Option<Arc<Shared>>,
    helper: Option<JoinHandle<()>>,
}

impl Ahead {
    /// The guard of cursors no helper feeds.
    fn idle() -> Ahead {
        Ahead {
            shared: None,
            helper: None,
        }
    }

    /// Stops and joins the helper; what it did.
    pub fn finish(mut self) -> AheadStats {
        self.close()
    }

    fn close(&mut self) -> AheadStats {
        let Some(shared) = self.shared.take() else {
            return AheadStats::default();
        };
        {
            let mut st = shared.lock();
            st.closed = true;
            shared.work.notify_one();
        }
        if let Some(helper) = self.helper.take() {
            // A panic of the helper's own code already failed the
            // streams it left unfinished (`SourceError::Stopped`).
            let _ = helper.join();
        }
        let st = shared.lock();
        AheadStats {
            wait_s: st.wait.as_secs_f64(),
            parks: st.parks,
        }
    }
}

impl Drop for Ahead {
    fn drop(&mut self) {
        self.close();
    }
}

/// Opens `input`'s per-rank cursors for a replay that reads every rank at
/// once, with their guard: for text (merged, or a description's files) a
/// helper thread decodes them ahead of the reader; any other input
/// decodes inline, as [`open_sources`] opens it, under an idle guard.
///
/// # Errors
/// Propagates [`open_sources`]'s I/O, parse, and layout failures.
pub fn open(
    input: &TraceInput,
    ranks: u32,
) -> Result<(Vec<Box<dyn ActionSource>>, Ahead), FileError> {
    match input {
        TraceInput::MergedText(_) | TraceInput::Description(_) | TraceInput::OpenText(_) => {
            Ok(wrap(open_sources_in(input, ranks, Windows::Ahead)?))
        }
        _ => Ok((open_sources(input, ranks)?, Ahead::idle())),
    }
}

/// Moves the decoding of `sources` to a helper thread: one cursor per
/// source, in order, each yielding exactly what its source yields, and
/// the helper's guard. If no thread can be spawned, `sources` come back
/// as they are, with a guard that does nothing.
fn wrap(sources: Vec<Box<dyn ActionSource>>) -> (Vec<Box<dyn ActionSource>>, Ahead) {
    start(sources, |f| {
        thread::Builder::new().name("titrace-ahead".into()).spawn(f)
    })
}

/// [`wrap`] with the thread spawner given.
fn start(
    sources: Vec<Box<dyn ActionSource>>,
    spawn: impl FnOnce(Box<dyn FnOnce() + Send>) -> std::io::Result<JoinHandle<()>>,
) -> (Vec<Box<dyn ActionSource>>, Ahead) {
    let ranks = sources.len();
    let batch = batch_for(ranks);
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            slots: (0..ranks)
                .map(|_| Slot {
                    batch: Batch::with_capacity(batch),
                    spare: Spare::Free,
                    queued: true,
                })
                .collect(),
            free: (0..ranks).collect(),
            urgent: None,
            sources: Some(sources),
            parked: false,
            closed: false,
            gone: false,
            waiters: 0,
            wait: Duration::ZERO,
            parks: 0,
        }),
        work: Condvar::new(),
        ready: Condvar::new(),
        batch,
        wake_at: (ranks / 4).max(1),
    });
    let helper = {
        let shared = Arc::clone(&shared);
        spawn(Box::new(move || decode_ahead(&shared)))
    };
    let Ok(helper) = helper else {
        // Invariant: the helper never ran, so the cursors are still here.
        let sources = shared.lock().sources.take().expect("unspawned helper");
        return (sources, Ahead::idle());
    };
    let cursors = (0..ranks)
        .map(|rank| {
            Box::new(AheadCursor {
                shared: Arc::clone(&shared),
                rank,
                batch: Batch::with_capacity(batch),
                next: 0,
            }) as Box<dyn ActionSource>
        })
        .collect();
    let ahead = Ahead {
        shared: Some(shared),
        helper: Some(helper),
    };
    (cursors, ahead)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `len` computes, then `end`.
    struct Script {
        next: u64,
        len: u64,
        end: fn(u64) -> Result<Option<Action>, SourceError>,
    }

    impl ActionSource for Script {
        fn next_action(&mut self) -> Result<Option<Action>, SourceError> {
            if self.next == self.len {
                return (self.end)(self.next);
            }
            self.next += 1;
            Ok(Some(Action::Compute {
                amount: self.next as f64,
            }))
        }
    }

    fn script(
        len: u64,
        end: fn(u64) -> Result<Option<Action>, SourceError>,
    ) -> Box<dyn ActionSource> {
        Box::new(Script { next: 0, len, end })
    }

    /// Every action of `cursor`, then how it ended.
    fn drain(cursor: &mut dyn ActionSource) -> (Vec<Action>, Result<(), String>) {
        let mut actions = Vec::new();
        loop {
            match cursor.next_action() {
                Ok(Some(a)) => actions.push(a),
                Ok(None) => return (actions, Ok(())),
                Err(e) => return (actions, Err(e.to_string())),
            }
        }
    }

    fn computes(n: u64) -> Vec<Action> {
        (1..=n)
            .map(|i| Action::Compute { amount: i as f64 })
            .collect()
    }

    #[test]
    fn batch_size_shrinks_only_at_scale() {
        assert_eq!(batch_for(1), BATCH);
        assert_eq!(batch_for(4096), BATCH);
        assert!(batch_for(65_536) < BATCH);
        assert_eq!(batch_for(1 << 24), 4);
    }

    #[test]
    fn each_stream_arrives_whole_with_its_end_in_place() {
        let lens = [0, 1, 31, 32, 33, 64, 100, 1000];
        let sources = lens.iter().map(|&n| script(n, |_| Ok(None))).collect();
        let (mut cursors, ahead) = wrap(sources);
        // Ranks read interleaved, as a replay reads them.
        let mut out: Vec<(Vec<Action>, Result<(), String>)> =
            vec![(Vec::new(), Ok(())); lens.len()];
        let mut open: Vec<bool> = vec![true; lens.len()];
        while open.iter().any(|&o| o) {
            for (r, cursor) in cursors.iter_mut().enumerate() {
                for _ in 0..(r + 1) * 7 {
                    if !open[r] {
                        break;
                    }
                    match cursor.next_action() {
                        Ok(Some(a)) => out[r].0.push(a),
                        Ok(None) => open[r] = false,
                        Err(e) => panic!("rank {r}: {e}"),
                    }
                }
            }
        }
        for (r, &n) in lens.iter().enumerate() {
            assert_eq!(out[r].0, computes(n), "rank {r}");
            assert_eq!(
                cursors[r].next_action().unwrap(),
                None,
                "rank {r} stays ended"
            );
        }
        drop(cursors);
        let stats = ahead.finish();
        assert!(stats.wait_s >= 0.0);
    }

    #[test]
    fn an_error_arrives_after_the_actions_before_it() {
        let sources = vec![
            script(70, |i| Err(SourceError::WaitWithoutRequest { index: i })),
            script(5, |_| Ok(None)),
        ];
        let (mut cursors, ahead) = wrap(sources);
        let (actions, end) = drain(&mut *cursors[0]);
        assert_eq!(actions, computes(70));
        assert_eq!(
            end,
            Err("action 70 waits with no outstanding request".into())
        );
        assert_eq!(drain(&mut *cursors[1]), (computes(5), Ok(())));
        drop(ahead);
    }

    #[test]
    fn a_panicking_source_fails_its_stream_and_no_other() {
        let sources = vec![
            script(3, |_| Ok(None)),
            script(40, |_| panic!("decoder bug")),
            script(50, |_| Ok(None)),
        ];
        let (mut cursors, ahead) = wrap(sources);
        let (actions, end) = drain(&mut *cursors[1]);
        assert_eq!(actions, computes(40));
        assert_eq!(end, Err("the action source panicked: decoder bug".into()));
        assert_eq!(drain(&mut *cursors[0]), (computes(3), Ok(())));
        assert_eq!(drain(&mut *cursors[2]), (computes(50), Ok(())));
        ahead.finish();
    }

    #[test]
    fn dropping_the_guard_mid_stream_stops_the_helper() {
        let sources = (0..16).map(|_| script(1_000_000, |_| Ok(None))).collect();
        let (mut cursors, ahead) = wrap(sources);
        assert!(cursors[3].next_action().unwrap().is_some());
        drop(ahead);
        // A cursor read after its helper stopped fails instead of waiting.
        let (read, end) = drain(&mut *cursors[3]);
        assert!(read.len() < 2 * BATCH);
        assert_eq!(end, Err(SourceError::Stopped.to_string()));
    }

    #[test]
    fn without_a_thread_the_sources_come_back_unwrapped() {
        let sources = vec![script(10, |_| Ok(None)), script(0, |_| Ok(None))];
        let (mut cursors, ahead) =
            start(sources, |_| Err(std::io::Error::other("no threads here")));
        assert_eq!(drain(&mut *cursors[0]), (computes(10), Ok(())));
        assert_eq!(drain(&mut *cursors[1]), (Vec::new(), Ok(())));
        assert_eq!(ahead.finish(), AheadStats::default());
    }
}
