//! The future event list: a deterministic priority queue of timestamped
//! events with lazy cancellation, implemented as a ladder (calendar)
//! queue.
//!
//! Events are ordered by `(time, sequence)`: the sequence number is assigned
//! at insertion, so simultaneous events fire in insertion order. Cancellation
//! is *lazy*: cancelled entries stay queued and are skipped when popped,
//! identified by a generation counter stored alongside the target. This is
//! the standard technique for activities whose completion time is
//! rescheduled every time resource sharing changes.
//!
//! Events land in one of [`LADDER_BUCKETS`] unsorted buckets partitioning
//! the current *epoch* of simulated time, `O(1)` per push; each bucket is
//! sorted once, when the simulation clock reaches it. Far-future events
//! wait in an overflow list that reseeds the next epoch. Because the
//! buckets partition time and `(time, seq)` is a unique total key, the
//! concatenation of per-bucket sorts is the one total order of the keys —
//! the order a binary heap pops. The tests keep such a heap as the
//! referee (see the test-module docs).
//!
//! Lazy cancellation has a pathology: workloads that re-share rates much
//! more often than activities complete (large max-min components under
//! churn) can grow the queue mostly full of dead entries, making every
//! push and pop pay for the dead weight. The queue therefore tracks how
//! many entries its owner has reported superseded
//! ([`EventQueue::note_superseded`]) and supports an explicit purge
//! ([`EventQueue::compact`]) that the owner triggers once stale entries
//! form a strict majority of a queue at least [`MIN_COMPACT_LEN`] entries
//! long ([`EventQueue::should_compact`]). The purge drops dead entries in
//! place at bucket granularity (`Vec::retain` per bucket), never re-sorting
//! survivors.
//!
//! The queue counts its scheduling traffic (events scheduled / superseded
//! / popped, bucket sorts, epoch reseeds, overflow spills, compactions) in
//! a [`FelProfile`]; the counters are plain increments and always on.

use crate::time::Time;

/// What an event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An activity (see [`crate::activity`]) has exhausted its work.
    /// Carries the activity index and the generation the schedule was made
    /// for; a mismatch with the activity's current generation means the
    /// event was superseded by a rate change and must be ignored.
    ActivityComplete {
        /// Activity slot index.
        index: u32,
        /// Slot generation (instance identity) at scheduling time.
        generation: u32,
        /// Schedule counter at scheduling time; a mismatch means the
        /// completion was superseded by a rate or work change.
        sched: u32,
    },
    /// A timer set by an actor; wakes the actor with the given user key.
    Timer {
        /// Actor to wake.
        actor: u32,
        /// Opaque key handed back to the actor.
        key: u64,
    },
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    at: Time,
    seq: u64,
    kind: EventKind,
}

impl Entry {
    /// The total order key: `(time, insertion sequence)`. Unique, since
    /// `seq` is unique.
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

/// Once the queue holds at least this many entries, a *strict majority* of
/// stale ones triggers [`EventQueue::should_compact`]. Below this floor,
/// compaction would churn memory without a measurable win. DESIGN.md §4
/// ("Performance model") documents the same constant.
pub const MIN_COMPACT_LEN: usize = 64;

/// Number of rung buckets in the ladder. Each epoch of simulated time is
/// split evenly across this many unsorted buckets; events past the epoch
/// wait in an overflow list.
pub const LADDER_BUCKETS: usize = 64;

/// Hot-path counters for the event core, surfaced by
/// [`EventQueue::profile`] and reported in the run manifest's
/// `fel_profile` object.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FelProfile {
    /// Events pushed.
    pub scheduled: u64,
    /// Entries reported superseded (cumulative; `stale_len` is the live
    /// count).
    pub superseded: u64,
    /// Entries popped, stale or live.
    pub popped: u64,
    /// Popped entries the owner reported as stale skips.
    pub stale_popped: u64,
    /// Pushes that landed past the current epoch (overflow spills).
    pub spills: u64,
    /// Buckets sorted into the consumption buffer.
    pub bucket_sorts: u64,
    /// Epoch reseeds from the overflow list.
    pub reseeds: u64,
    /// Explicit compactions performed.
    pub compactions: u64,
}

impl FelProfile {
    /// Events popped and actually delivered (popped minus stale skips).
    pub fn fired(&self) -> u64 {
        self.popped - self.stale_popped
    }
}

/// Deterministic future event list. See the [module docs](self).
///
/// `bottom` holds the already-reached part of the epoch, sorted
/// *descending* by `(time, seq)` so the next event pops from the back;
/// `buckets[cur..]` partition the rest of the epoch into unsorted time
/// slices; `overflow` holds everything past the epoch and seeds the next
/// one. All buffers are recycled (swap + `drain`), so a warmed-up queue
/// performs no allocation.
#[derive(Debug)]
pub struct EventQueue {
    bottom: Vec<Entry>,
    buckets: Vec<Vec<Entry>>,
    /// First bucket not yet drained into `bottom`.
    cur: usize,
    /// Epoch origin, seconds. Meaningless until the first reseed.
    epoch_start: f64,
    /// Bucket width, seconds; zero until the first reseed.
    width: f64,
    overflow: Vec<Entry>,
    /// Reusable reseed buffer.
    scratch: Vec<Entry>,
    len: usize,
    next_seq: u64,
    /// Entries still queued that the owner has reported superseded.
    stale: usize,
    profile: FelProfile,
    /// Shadow binary heap fed every push and compaction, against which
    /// every pop is checked (see the test-module docs).
    #[cfg(test)]
    referee: Option<std::collections::BinaryHeap<Entry>>,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            bottom: Vec::new(),
            buckets: std::iter::repeat_with(Vec::new)
                .take(LADDER_BUCKETS)
                .collect(),
            cur: LADDER_BUCKETS,
            epoch_start: 0.0,
            width: 0.0,
            overflow: Vec::with_capacity(capacity),
            scratch: Vec::new(),
            len: 0,
            next_seq: 0,
            stale: 0,
            profile: FelProfile::default(),
            #[cfg(test)]
            referee: None,
        }
    }

    /// The hot-path counters gathered so far.
    pub fn profile(&self) -> FelProfile {
        self.profile
    }

    /// Bucket index of `t` under the current epoch. The `f64 → usize`
    /// cast saturates, so times before the epoch map to 0 and far-future
    /// times map past [`LADDER_BUCKETS`]; callers route on the result.
    /// This is the *single* placement formula — push, reseed, and peek
    /// all use it, so an entry's segment is always consistent with the
    /// drain order.
    #[inline]
    fn slot(&self, t: f64) -> usize {
        ((t - self.epoch_start) / self.width) as usize
    }

    /// Schedules `kind` to fire at `at`. Events scheduled for the same
    /// instant fire in the order they were pushed.
    pub fn push(&mut self, at: Time, kind: EventKind) {
        debug_assert!(!at.is_never(), "cannot schedule an event at NEVER");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.profile.scheduled += 1;
        let e = Entry { at, seq, kind };
        #[cfg(test)]
        if let Some(heap) = &mut self.referee {
            heap.push(e);
        }
        self.len += 1;
        if self.width == 0.0 {
            // No epoch yet: everything collects in overflow until the
            // first pop reseeds.
            self.overflow.push(e);
            return;
        }
        let s = self.slot(e.at.as_secs());
        if s < self.cur {
            // The event lands in the already-drained region: merge it
            // into the sorted bottom (descending, earliest at the back).
            // Keys are unique, so the insertion point is unambiguous.
            let key = e.key();
            let pos = self.bottom.partition_point(|x| x.key() > key);
            self.bottom.insert(pos, e);
        } else if s < LADDER_BUCKETS {
            self.buckets[s].push(e);
        } else {
            self.profile.spills += 1;
            self.overflow.push(e);
        }
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Stale entries are returned like any other; the owner detects
    /// them (generation/schedule mismatch) and must report the skip with
    /// [`EventQueue::note_stale_popped`].
    pub fn pop(&mut self) -> Option<(Time, EventKind)> {
        #[cfg(test)]
        self.assert_referee_agrees();
        let e = self.pop_entry();
        #[cfg(test)]
        if let Some(heap) = &mut self.referee {
            let key = |e: Entry| (e.key(), e.kind);
            assert_eq!(e.map(key), heap.pop().map(key), "ladder vs heap pop");
        }
        let e = e?;
        self.profile.popped += 1;
        Some((e.at, e.kind))
    }

    fn pop_entry(&mut self) -> Option<Entry> {
        loop {
            if let Some(e) = self.bottom.pop() {
                self.len -= 1;
                return Some(e);
            }
            while self.cur < LADDER_BUCKETS {
                if self.buckets[self.cur].is_empty() {
                    self.cur += 1;
                    continue;
                }
                // Reuse the bottom's storage for the bucket and vice
                // versa; capacities circulate instead of reallocating.
                std::mem::swap(&mut self.bottom, &mut self.buckets[self.cur]);
                self.cur += 1;
                // Unstable sort allocates nothing; keys are unique so
                // stability is irrelevant. Descending: pop from the back.
                self.bottom
                    .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                self.profile.bucket_sorts += 1;
                break;
            }
            if !self.bottom.is_empty() {
                continue;
            }
            if self.overflow.is_empty() {
                return None;
            }
            self.reseed();
        }
    }

    /// Starts a new epoch over the overflow list. The entry at the
    /// minimum time always lands in bucket 0, so every reseed makes
    /// progress; entries the placement formula still puts past the last
    /// bucket (at most a rounding fringe) stay in overflow for the epoch
    /// after.
    fn reseed(&mut self) {
        debug_assert!(self.bottom.is_empty());
        debug_assert!(self.buckets.iter().all(Vec::is_empty));
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for e in &self.overflow {
            let t = e.at.as_secs();
            min = min.min(t);
            max = max.max(t);
        }
        self.epoch_start = min;
        let span = max - min;
        self.width = if span > 0.0 {
            span / LADDER_BUCKETS as f64
        } else {
            1.0
        };
        self.cur = 0;
        std::mem::swap(&mut self.overflow, &mut self.scratch);
        let (epoch_start, width) = (self.epoch_start, self.width);
        for e in self.scratch.drain(..) {
            // Same placement formula as `slot` (inlined: `drain` holds a
            // field borrow).
            let s = ((e.at.as_secs() - epoch_start) / width) as usize;
            if s < LADDER_BUCKETS {
                self.buckets[s].push(e);
            } else {
                self.overflow.push(e);
            }
        }
        self.profile.reseeds += 1;
    }

    /// The timestamp of the earliest pending entry — a *lower bound* on the
    /// next live event's time, since the earliest entry may be a stale one
    /// that will be skipped. The bottom answers in `O(1)`; otherwise the
    /// first non-empty segment is scanned (segments are ordered by time,
    /// so its minimum is the global minimum).
    pub fn peek_time(&self) -> Option<Time> {
        if let Some(e) = self.bottom.last() {
            return Some(e.at);
        }
        for b in &self.buckets[self.cur.min(LADDER_BUCKETS)..] {
            if !b.is_empty() {
                return b.iter().map(|e| e.at).min();
            }
        }
        self.overflow.iter().map(|e| e.at).min()
    }

    /// Number of pending entries, *including* superseded (stale) ones that
    /// will be skipped when popped. Use [`EventQueue::live_len`] for the
    /// number of events that will actually fire.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of pending entries that are still live (will fire), assuming
    /// every superseded entry was reported via
    /// [`EventQueue::note_superseded`].
    pub fn live_len(&self) -> usize {
        self.len() - self.stale
    }

    /// Number of entries reported superseded and not yet popped or
    /// compacted away.
    pub fn stale_len(&self) -> usize {
        self.stale
    }

    /// `true` when no entries are pending (live or stale).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records that one entry currently queued has been superseded (its
    /// target was rescheduled or cancelled) and will be skipped when
    /// popped.
    pub fn note_superseded(&mut self) {
        debug_assert!(self.stale < self.len(), "more stale entries than entries");
        self.stale += 1;
        self.profile.superseded += 1;
    }

    /// Records that a popped entry turned out to be stale (the owner
    /// skipped it).
    pub fn note_stale_popped(&mut self) {
        debug_assert!(
            self.stale > 0,
            "stale pop without a matching note_superseded"
        );
        self.stale = self.stale.saturating_sub(1);
        self.profile.stale_popped += 1;
    }

    /// `true` when stale entries form a strict majority of a queue at
    /// least [`MIN_COMPACT_LEN`] entries long, so an
    /// [`EventQueue::compact`] would more than halve it.
    pub fn should_compact(&self) -> bool {
        self.len() >= MIN_COMPACT_LEN && self.stale * 2 > self.len()
    }

    /// Drops every entry for which `keep` returns `false` and resets the
    /// stale count. Pop order of the survivors is unchanged — it is fully
    /// determined by each entry's `(time, sequence)` key, which compaction
    /// does not touch: `Vec::retain` preserves relative order (and the
    /// bottom's sortedness), so survivors keep their exact pop ranks
    /// without any re-sort.
    pub fn compact(&mut self, mut keep: impl FnMut(&EventKind) -> bool) {
        self.bottom.retain(|e| keep(&e.kind));
        for b in &mut self.buckets {
            b.retain(|e| keep(&e.kind));
        }
        self.overflow.retain(|e| keep(&e.kind));
        self.len = self.bottom.len()
            + self.buckets.iter().map(Vec::len).sum::<usize>()
            + self.overflow.len();
        self.stale = 0;
        self.profile.compactions += 1;
        #[cfg(test)]
        if let Some(heap) = &mut self.referee {
            heap.retain(|e| keep(&e.kind));
            self.assert_referee_agrees();
        }
    }
}

/// The binary heap the ladder is refereed against. A queue built with
/// [`EventQueue::refereed`] feeds every push and compaction to a shadow
/// `BinaryHeap` and asserts on every pop that the ladder returned exactly
/// the heap's entry (time bits, sequence, payload), and that length and
/// `peek_time` agree. Every pop-order test below runs refereed, and so
/// does `kernel.rs`'s churn test.
///
/// This replaces the heap-vs-ladder axis that the end-to-end suites
/// (`tests/{runtime_semantics,parallel_replay,windowed_pdes,
/// collective_batching}.rs` and `replay`'s unit tests) used to carry: the
/// kernel is a deterministic function of its inputs and the FEL's pop
/// sequence, so pop-order identity here implies bit-identical replays
/// there.
#[cfg(test)]
mod referee {
    use super::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.key() == other.key()
        }
    }
    impl Eq for Entry {}

    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert so the earliest (time, seq)
            // pops first.
            other.key().cmp(&self.key())
        }
    }

    impl EventQueue {
        /// An empty queue shadowed by the heap referee.
        pub(crate) fn refereed() -> EventQueue {
            EventQueue {
                referee: Some(BinaryHeap::new()),
                ..EventQueue::new()
            }
        }

        /// Asserts the ladder and its referee (if any) agree on length and
        /// earliest pending time.
        pub(crate) fn assert_referee_agrees(&self) {
            if let Some(heap) = &self.referee {
                assert_eq!(self.len(), heap.len(), "ladder vs heap len");
                assert_eq!(
                    self.peek_time(),
                    heap.peek().map(|e| e.at),
                    "ladder vs heap peek_time"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(actor: u32, key: u64) -> EventKind {
        EventKind::Timer { actor, key }
    }

    fn drain_keys(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { key, .. } => key,
                EventKind::ActivityComplete { .. } => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::refereed();
        q.push(Time::from_secs(3.0), timer(0, 3));
        q.push(Time::from_secs(1.0), timer(0, 1));
        q.push(Time::from_secs(2.0), timer(0, 2));
        assert_eq!(drain_keys(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut q = EventQueue::refereed();
        let t = Time::from_secs(5.0);
        for key in 0..10u64 {
            q.push(t, timer(0, key));
        }
        assert_eq!(drain_keys(&mut q), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::refereed();
        q.push(Time::from_secs(2.0), timer(0, 0));
        q.push(Time::from_secs(1.0), timer(0, 1));
        assert_eq!(q.peek_time(), Some(Time::from_secs(1.0)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Time::from_secs(1.0));
        assert_eq!(q.peek_time(), Some(Time::from_secs(2.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = EventQueue::refereed();
        assert!(q.pop().is_none());
        assert!(q.peek_time().is_none());
        assert!(q.is_empty());
        assert_eq!(q.live_len(), 0);
        assert_eq!(q.stale_len(), 0);
    }

    #[test]
    fn stale_accounting_tracks_live_len() {
        let mut q = EventQueue::new();
        for key in 0..4u64 {
            q.push(Time::from_secs(key as f64), timer(0, key));
        }
        q.note_superseded();
        q.note_superseded();
        assert_eq!(q.len(), 4);
        assert_eq!(q.live_len(), 2);
        assert_eq!(q.stale_len(), 2);
        let _ = q.pop();
        q.note_stale_popped();
        assert_eq!(q.len(), 3);
        assert_eq!(q.live_len(), 2);
    }

    #[test]
    fn profile_counts_scheduling_traffic() {
        let mut q = EventQueue::new();
        for key in 0..4u64 {
            q.push(Time::from_secs(key as f64), timer(0, key));
        }
        q.note_superseded();
        let _ = q.pop();
        q.note_stale_popped();
        let _ = q.pop();
        // Epoch is [0, 3]; a push far past it spills to overflow.
        q.push(Time::from_secs(1e6), timer(0, 4));
        q.compact(|_| true);
        let p = q.profile();
        assert_eq!(
            (
                p.scheduled,
                p.superseded,
                p.popped,
                p.stale_popped,
                p.fired()
            ),
            (5, 1, 2, 1, 1)
        );
        assert_eq!((p.reseeds, p.spills, p.compactions), (1, 1, 1));
        assert!(p.bucket_sorts >= 1);
    }

    #[test]
    fn compact_drops_only_filtered_entries_and_preserves_order() {
        let mut q = EventQueue::refereed();
        // Interleave keepers (keys divisible by 3) and stale entries at
        // identical timestamps so FIFO order is exercised across a
        // purge.
        for key in 0..99u64 {
            q.push(Time::from_secs((key / 10) as f64), timer(0, key));
            if key % 3 != 0 {
                q.note_superseded();
            }
        }
        assert!(q.should_compact(), "2/3 stale is a strict majority");
        q.compact(|k| matches!(k, EventKind::Timer { key, .. } if key % 3 == 0));
        assert_eq!(q.len(), 33);
        assert_eq!(q.live_len(), 33);
        assert_eq!(q.stale_len(), 0);
        assert!(!q.should_compact());
        let expect: Vec<u64> = (0..99).filter(|k| k % 3 == 0).collect();
        assert_eq!(drain_keys(&mut q), expect);
    }

    #[test]
    fn should_compact_needs_majority_and_minimum_size() {
        let mut q = EventQueue::new();
        for key in 0..10u64 {
            q.push(Time::from_secs(key as f64), timer(0, key));
        }
        for _ in 0..9 {
            q.note_superseded();
        }
        // 90% stale but below the size floor: not worth a purge.
        assert!(!q.should_compact());
    }

    #[test]
    fn ladder_reseeds_across_sparse_epochs() {
        // Clusters of events separated by huge gaps force epoch turnover:
        // every cluster past the first starts life in overflow.
        let mut q = EventQueue::refereed();
        let mut expect = Vec::new();
        let mut key = 0u64;
        for cluster in 0..5 {
            let base = cluster as f64 * 1e9;
            for i in 0..50u64 {
                let t = base + ((i * 37) % 50) as f64;
                q.push(Time::from_secs(t), timer(0, key));
                expect.push((t, key));
                key += 1;
            }
        }
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let got: Vec<(f64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, k)| match k {
                EventKind::Timer { key, .. } => (t.as_secs(), key),
                EventKind::ActivityComplete { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn ladder_accepts_pushes_into_the_drained_region() {
        // Pop half an epoch, then push events earlier than everything
        // still queued (but later than the last pop): they must merge into
        // the bottom and pop next.
        let mut q = EventQueue::refereed();
        for key in 0..100u64 {
            q.push(Time::from_secs(key as f64), timer(0, key));
        }
        for expect in 0..50u64 {
            let (_, EventKind::Timer { key, .. }) = q.pop().unwrap() else {
                unreachable!()
            };
            assert_eq!(key, expect);
        }
        q.push(Time::from_secs(49.5), timer(0, 1000));
        q.push(Time::from_secs(49.25), timer(0, 1001));
        assert_eq!(q.peek_time(), Some(Time::from_secs(49.25)));
        assert_eq!(drain_keys(&mut q), {
            let mut v = vec![1001, 1000];
            v.extend(50..100);
            v
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    proptest! {
        /// Popping yields a non-decreasing sequence of times regardless of
        /// insertion order.
        #[test]
        fn pop_order_is_sorted(times in proptest::collection::vec(0.0f64..1e6, 1..200)) {
            let mut q = EventQueue::refereed();
            for (i, t) in times.iter().enumerate() {
                q.push(Time::from_secs(*t), EventKind::Timer { actor: 0, key: i as u64 });
            }
            let mut last = Time::ZERO;
            let mut n = 0;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                n += 1;
            }
            prop_assert_eq!(n, times.len());
        }

        /// Compacting away a random subset of entries never perturbs the
        /// relative pop order of the survivors.
        #[test]
        fn compact_preserves_survivor_order(
            entries in proptest::collection::vec((0.0f64..100.0, proptest::prelude::any::<bool>()), 1..300),
        ) {
            let mut q = EventQueue::refereed();
            let mut reference = EventQueue::refereed();
            for (i, (t, live)) in entries.iter().enumerate() {
                q.push(Time::from_secs(*t), EventKind::Timer { actor: u32::from(*live), key: i as u64 });
                if *live {
                    reference.push(Time::from_secs(*t), EventKind::Timer { actor: 1, key: i as u64 });
                } else {
                    q.note_superseded();
                }
            }
            q.compact(|k| matches!(k, EventKind::Timer { actor: 1, .. }));
            prop_assert_eq!(q.stale_len(), 0);
            while let Some((t, EventKind::Timer { key, .. })) = q.pop() {
                // The reference queue saw the live entries pushed in the
                // same relative order, so (time, seq) ranks them
                // identically.
                let (rt, EventKind::Timer { key: rkey, .. }) = reference.pop().unwrap() else {
                    unreachable!()
                };
                prop_assert_eq!(t, rt);
                prop_assert_eq!(key, rkey);
            }
            prop_assert!(reference.is_empty());
        }

        /// FIFO among equal timestamps holds for any partition of keys into
        /// timestamp groups.
        #[test]
        fn fifo_within_groups(groups in proptest::collection::vec(0u8..4, 1..100)) {
            let mut q = EventQueue::refereed();
            for (i, g) in groups.iter().enumerate() {
                q.push(Time::from_secs(*g as f64), EventKind::Timer { actor: 0, key: i as u64 });
            }
            let mut seen_per_group: [Option<u64>; 4] = [None; 4];
            while let Some((t, EventKind::Timer { key, .. })) = q.pop() {
                let g = t.as_secs() as usize;
                if let Some(prev) = seen_per_group[g] {
                    prop_assert!(key > prev, "FIFO violated in group {}", g);
                }
                seen_per_group[g] = Some(key);
            }
        }

        /// The differential acceptance test for the ladder: any random
        /// interleaving of pushes (including time clusters far apart and
        /// duplicate timestamps), pops, supersedes, and compactions
        /// produces a pop sequence bit-identical to the binary heap's —
        /// the refereed queue asserts it on every pop, and length and
        /// `peek_time` agreement is asserted after every operation.
        #[test]
        fn fel_heap_vs_ladder_identical(
            ops in proptest::collection::vec((0u8..12, 0u32..4, 0.0f64..100.0), 1..400),
        ) {
            let mut q = EventQueue::refereed();
            // Keys pushed and not yet popped, oldest first, plus the set
            // already marked superseded — the "owner" state driving the
            // queue.
            let mut pending: Vec<u64> = Vec::new();
            let mut dead: HashSet<u64> = HashSet::new();
            let mut next_key = 0u64;
            let pop = |q: &mut EventQueue, pending: &mut Vec<u64>, dead: &mut HashSet<u64>| {
                if let Some((_, EventKind::Timer { key, .. })) = q.pop() {
                    pending.retain(|k| *k != key);
                    if dead.remove(&key) {
                        q.note_stale_popped();
                    }
                }
            };
            for (op, cluster, t) in ops {
                match op {
                    // Push: timestamps drawn from one of four clusters a
                    // billion seconds apart, to exercise epoch reseeds.
                    0..=5 => {
                        let at = Time::from_secs(f64::from(cluster) * 1e9 + t);
                        let key = next_key;
                        next_key += 1;
                        q.push(at, EventKind::Timer { actor: 0, key });
                        pending.push(key);
                    }
                    // Pop and compare.
                    6..=8 => pop(&mut q, &mut pending, &mut dead),
                    // Supersede the oldest still-live pending entry.
                    9..=10 => {
                        if let Some(&key) = pending.iter().find(|k| !dead.contains(k)) {
                            dead.insert(key);
                            q.note_superseded();
                        }
                    }
                    // Compact, dropping the dead set.
                    _ => {
                        q.compact(|k| matches!(k, EventKind::Timer { key, .. } if !dead.contains(key)));
                        pending.retain(|k| !dead.contains(k));
                        dead.clear();
                    }
                }
                q.assert_referee_agrees();
                prop_assert_eq!(q.live_len(), pending.len() - dead.len());
            }
            while !q.is_empty() {
                pop(&mut q, &mut pending, &mut dead);
            }
            prop_assert!(q.pop().is_none() && pending.is_empty());
        }
    }
}
