//! The future event list: a deterministic binary heap of timestamped
//! events on one packed integer key, with lazy cancellation.
//!
//! Events pop in `(time, sequence)` order; the sequence is assigned at
//! insertion, so simultaneous events fire in insertion order. The key is
//! `(time bits << 64) | seq`, with the bits of `at.as_secs() + 0.0`: a
//! [`Time`] is finite and non-negative, such doubles order like their bit
//! patterns, and adding `0.0` folds `-0.0` into the equal `+0.0`, so
//! comparing keys as integers is exactly `Time` order, then insertion
//! order. A sift step is one `u128` compare.
//!
//! Cancellation is lazy: a superseded entry stays queued and its owner
//! skips it when popped (generation mismatch). Workloads that re-rate far
//! more often than activities complete can fill the queue with such dead
//! entries, so the owner reports them ([`EventQueue::note_superseded`])
//! and purges them with [`EventQueue::compact`] once
//! `EventQueue::should_compact` finds them a strict majority.
//! Compaction never changes a survivor's key, so pop order is unchanged.
//!
//! An event nobody may ever need can be *reserved* instead of pushed:
//! `EventQueue::reserve` takes its key (instant and sequence number)
//! and queues nothing. `EventQueue::push_reserved` queues it later
//! under that key, so it pops exactly where an immediate push would
//! have; `EventQueue::fired` tells whether an immediate push would
//! have popped by now. The owner arms a reservation only while it has
//! not fired.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::num::NonZeroU64;

use crate::time::Time;

/// What an event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An activity (see [`crate::activity`]) has exhausted its work.
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

/// A queued event. Keys are unique, so the derived equality agrees with
/// the key order below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// `(time bits << 64) | seq`; see the [module docs](self).
    key: u128,
    kind: EventKind,
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        other.key.cmp(&self.key)
    }
}

/// Once the queue holds at least this many entries, a *strict majority* of
/// stale ones triggers [`EventQueue::should_compact`]; below it, compaction
/// would churn memory without a measurable win (DESIGN.md §4).
pub(crate) const MIN_COMPACT_LEN: usize = 64;

/// The key of an event taken by `EventQueue::reserve` and not (yet)
/// queued; see the [module docs](self). Held as two words, the sequence
/// number never zero, so that `Option<Reserved>` takes 16 bytes at
/// 8-byte alignment: runtime records keep one per message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reserved {
    bits: u64,
    seq: NonZeroU64,
}

impl Reserved {
    fn key(self) -> u128 {
        (u128::from(self.bits) << 64) | u128::from(self.seq.get())
    }
}

/// Hot-path counters of the event core ([`EventQueue::profile`]), reported
/// in the run manifest's `fel_profile` object.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FelProfile {
    /// Events pushed.
    pub scheduled: u64,
    /// Entries reported superseded.
    pub superseded: u64,
    /// Entries popped, stale or live.
    pub popped: u64,
    /// Popped entries the owner reported as stale skips.
    pub stale_popped: u64,
    /// Explicit compactions performed.
    pub compactions: u64,
}

impl FelProfile {
    /// Events popped and actually delivered (popped minus stale skips).
    pub(crate) fn fired(&self) -> u64 {
        self.popped - self.stale_popped
    }
}

/// Deterministic future event list. See the [module docs](self).
#[derive(Debug)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    /// Sequence number of the next push or reservation; starts at 1.
    next_seq: NonZeroU64,
    /// Entries still queued that the owner has reported superseded.
    stale: usize,
    /// Key of the entry popped last; `None` before the first pop.
    last_popped: Option<u128>,
    profile: FelProfile,
    #[cfg(test)]
    referee: Option<Vec<(Time, u64, EventKind)>>,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: NonZeroU64::MIN,
            stale: 0,
            last_popped: None,
            profile: FelProfile::default(),
            #[cfg(test)]
            referee: None,
        }
    }

    /// The hot-path counters gathered so far.
    pub fn profile(&self) -> FelProfile {
        self.profile
    }

    /// Schedules `kind` to fire at `at`. Events scheduled for the same
    /// instant fire in the order they were pushed.
    pub fn push(&mut self, at: Time, kind: EventKind) {
        let r = self.reserve(at);
        self.enqueue(r, kind);
    }

    /// Takes the key an event at `at` pushed now would get, and queues
    /// nothing. Events pushed later at the same instant pop after it,
    /// whether or not it is ever queued.
    pub(crate) fn reserve(&mut self, at: Time) -> Reserved {
        debug_assert!(!at.is_never(), "cannot schedule an event at NEVER");
        let seq = self.next_seq;
        self.next_seq = seq.saturating_add(1);
        Reserved {
            bits: (at.as_secs() + 0.0).to_bits(),
            seq,
        }
    }

    /// Queues `kind` under the reserved key `r`, which must not have
    /// fired: it pops exactly where a push at reserve time would have.
    pub(crate) fn push_reserved(&mut self, r: Reserved, kind: EventKind) {
        debug_assert!(!self.fired(r), "arming a reservation that has fired");
        self.enqueue(r, kind);
    }

    fn enqueue(&mut self, r: Reserved, kind: EventKind) {
        self.profile.scheduled += 1;
        #[cfg(test)]
        self.referee_push(key_time(r.key()), r.seq.get(), kind);
        self.heap.push(Entry { key: r.key(), kind });
    }

    /// Whether an event pushed under `r` at reserve time would have popped
    /// by now, that is, whether the last popped key is at or past `r`'s.
    pub(crate) fn fired(&self, r: Reserved) -> bool {
        self.last_popped.is_some_and(|last| r.key() <= last)
    }

    /// Removes and returns the earliest event. Stale entries come back like
    /// any other; the owner reports them with [`EventQueue::note_stale_popped`].
    pub fn pop(&mut self) -> Option<(Time, EventKind)> {
        let e = self.heap.pop();
        #[cfg(test)]
        self.referee_pop(e);
        let e = e?;
        self.profile.popped += 1;
        self.last_popped = Some(e.key);
        Some((key_time(e.key), e.kind))
    }

    /// Number of pending entries, *including* superseded (stale) ones.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Number of pending entries that will fire (all superseded ones noted).
    #[cfg(test)]
    pub(crate) fn live_len(&self) -> usize {
        self.len() - self.stale
    }

    /// `true` when no entries are pending (live or stale).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records that one queued entry was superseded and will be skipped.
    pub fn note_superseded(&mut self) {
        debug_assert!(self.stale < self.len(), "more stale entries than entries");
        self.stale += 1;
        self.profile.superseded += 1;
    }

    /// Records that a popped entry was stale (the owner skipped it).
    pub fn note_stale_popped(&mut self) {
        debug_assert!(self.stale > 0, "stale pop never superseded");
        self.stale = self.stale.saturating_sub(1);
        self.profile.stale_popped += 1;
    }

    /// `true` when stale entries are a strict majority of a queue at least
    /// [`MIN_COMPACT_LEN`] long, so [`EventQueue::compact`] would halve it.
    pub(crate) fn should_compact(&self) -> bool {
        self.len() >= MIN_COMPACT_LEN && self.stale * 2 > self.len()
    }

    /// Drops every entry for which `keep` returns `false` and resets the
    /// stale count. Survivors keep their keys, so their pop order holds.
    pub fn compact(&mut self, mut keep: impl FnMut(&EventKind) -> bool) {
        self.heap.retain(|e| keep(&e.kind));
        self.stale = 0;
        self.profile.compactions += 1;
        #[cfg(test)]
        self.referee_compact(keep);
    }
}

/// The instant a packed key encodes.
fn key_time(key: u128) -> Time {
    Time::from_secs(f64::from_bits((key >> 64) as u64))
}

#[cfg(test)]
mod referee {
    //! The sorted `Vec` the heap is refereed against. A queue built with
    //! [`EventQueue::refereed`] mirrors every push (a reservation when it
    //! is armed, under its reserved sequence number) and compaction into
    //! a `Vec` kept sorted by `(Time, seq)` — `Time`'s own order, not the
    //! packed key — and asserts on every pop that the heap returned exactly
    //! the vector's head (time bits, sequence, payload) and that the
    //! lengths agree. The queue hands `-0.0` back as the equal `+0.0`, so
    //! the referee compares the bits of `t + 0.0`. Every pop-order test in
    //! this file runs refereed, and so does `kernel.rs`'s churn test: the
    //! kernel is a deterministic function of its inputs and the FEL's pop
    //! sequence, so pop-order identity here implies bit-identical replays
    //! there.

    use super::*;

    impl EventQueue {
        /// An empty queue shadowed by the sorted-`Vec` referee.
        pub(crate) fn refereed() -> EventQueue {
            EventQueue {
                referee: Some(Vec::new()),
                ..EventQueue::new()
            }
        }

        pub(super) fn referee_push(&mut self, at: Time, seq: u64, kind: EventKind) {
            if let Some(sorted) = &mut self.referee {
                let pos = sorted.partition_point(|&(t, s, _)| (t, s) < (at, seq));
                sorted.insert(pos, (at, seq, kind));
            }
        }

        pub(super) fn referee_pop(&mut self, got: Option<Entry>) {
            if let Some(sorted) = &mut self.referee {
                let want = (!sorted.is_empty()).then(|| sorted.remove(0));
                assert_eq!(
                    got.map(|e| ((e.key >> 64) as u64, e.key as u64, e.kind)),
                    want.map(|(t, seq, kind)| ((t.as_secs() + 0.0).to_bits(), seq, kind)),
                    "heap vs sorted-vec pop"
                );
                self.assert_referee_agrees();
            }
        }

        pub(super) fn referee_compact(&mut self, mut keep: impl FnMut(&EventKind) -> bool) {
            if let Some(sorted) = &mut self.referee {
                sorted.retain(|(_, _, kind)| keep(kind));
                self.assert_referee_agrees();
            }
        }

        /// Asserts the heap and its referee (if any) agree on length.
        pub(crate) fn assert_referee_agrees(&self) {
            if let Some(sorted) = &self.referee {
                assert_eq!(self.len(), sorted.len(), "heap vs sorted-vec len");
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
    fn len_tracks_pushes_and_pops() {
        let mut q = EventQueue::refereed();
        q.push(Time::from_secs(2.0), timer(0, 0));
        q.push(Time::from_secs(1.0), timer(0, 1));
        assert_eq!(q.len(), 2);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Time::from_secs(1.0));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = EventQueue::refereed();
        assert!(q.pop().is_none());
        assert!(q.is_empty());
        assert_eq!(q.live_len(), 0);
        assert_eq!(q.live_len(), q.len());
    }

    /// The packed key orders exactly like `Time`, including at the edges
    /// of its bit pattern: `-0.0` ties with `0.0` (and so pops in
    /// insertion order among zeros), the smallest subnormal and the next
    /// double above `1.0` are their own instants, and the largest
    /// schedulable time pops last.
    #[test]
    fn key_orders_like_time() {
        let times = [
            f64::MAX.next_down(),
            1.0f64.next_up(),
            -0.0,
            1.0,
            f64::from_bits(1),
            0.0,
            -0.0,
            1.0f64.next_up(),
            1.0,
            0.0,
            f64::from_bits(1),
            f64::MAX.next_down(),
        ];
        let mut q = EventQueue::refereed();
        for (key, &t) in times.iter().enumerate() {
            q.push(Time::from_secs(t), timer(0, key as u64));
        }
        let mut expect: Vec<(Time, u64)> = (0..times.len() as u64)
            .map(|key| (Time::from_secs(times[key as usize]), key))
            .collect();
        // Stable: ties keep insertion order.
        expect.sort_by_key(|&(t, _)| t);
        let got: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, k)| match k {
                EventKind::Timer { key, .. } => (t, key),
                EventKind::ActivityComplete { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(got, expect);
    }

    /// A reservation armed after later pushes still pops at its reserved
    /// place, ahead of same-instant events pushed after it; `fired` turns
    /// true once the queue pops past its key.
    #[test]
    fn armed_reservation_pops_at_its_reserved_place() {
        let mut q = EventQueue::refereed();
        let t = Time::from_secs(1.0);
        q.push(t, timer(0, 0));
        let r = q.reserve(t);
        let never = q.reserve(Time::from_secs(0.5));
        q.push(t, timer(0, 2));
        assert!(!q.fired(r) && !q.fired(never));
        q.push_reserved(r, timer(0, 1));
        assert_eq!(q.len(), 3);
        let _ = q.pop();
        assert!(q.fired(never), "popped past the unarmed key");
        assert!(!q.fired(r));
        assert_eq!(drain_keys(&mut q), vec![1, 2]);
        assert!(q.fired(r));
        assert_eq!(
            q.profile().scheduled,
            3,
            "an unarmed reservation is not scheduled"
        );
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
        assert_eq!(q.len() - q.live_len(), 2);
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
        q.push(Time::from_secs(1e6), timer(0, 4));
        q.compact(|_| true);
        let p = q.profile();
        assert_eq!(
            (
                p.scheduled,
                p.superseded,
                p.popped,
                p.stale_popped,
                p.fired(),
                p.compactions
            ),
            (5, 1, 2, 1, 1, 1)
        );
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
        assert_eq!(q.live_len(), q.len());
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
    fn sparse_clusters_pop_in_time_order() {
        // Clusters of events separated by huge gaps, each pushed in a
        // scrambled order.
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
    fn pushes_between_pops_merge_into_order() {
        // Pop half the events, then push events earlier than everything
        // still queued (but later than the last pop): they must pop next.
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
    use std::collections::{HashMap, HashSet};

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
            prop_assert_eq!(q.live_len(), q.len());
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

        /// The differential acceptance test for the heap: any random
        /// interleaving of pushes (including time clusters far apart and
        /// duplicate timestamps), pops, supersedes, and compactions
        /// produces the sorted `Vec`'s pop sequence bit for bit — the
        /// refereed queue asserts it on every pop, and length agreement is
        /// asserted after every operation.
        #[test]
        fn fel_matches_sorted_vec_referee(
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
                    // billion seconds apart, so keys differ in the
                    // exponent as well as the mantissa.
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
        /// Reservations are invisible until armed. Two refereed queues see
        /// the same pushes and reservations at non-decreasing instants;
        /// `eager` pushes every reservation at once, `lazy` reserves it and
        /// arms it at a random later point before it fires, or never. On
        /// every `lazy` pop, `eager` pops the same entry after popping the
        /// never-armed ones ahead of it, and then `lazy.fired(r)` holds
        /// for exactly the reservations `eager` has popped.
        #[test]
        fn reserved_entries_pop_where_immediate_pushes_would(
            ops in proptest::collection::vec((0u8..12, 0u8..4, any::<u16>()), 1..400),
        ) {
            let mut eager = EventQueue::refereed();
            let mut lazy = EventQueue::refereed();
            let mut now = 0.0f64;
            let mut next_key = 0u64;
            // Every reservation by payload key; the ones not armed yet;
            // the keys `eager` has popped.
            let mut reserved: HashMap<u64, Reserved> = HashMap::new();
            let mut unarmed: Vec<u64> = Vec::new();
            let mut eager_popped: HashSet<u64> = HashSet::new();
            let key_of = |kind: EventKind| match kind {
                EventKind::Timer { key, .. } => key,
                EventKind::ActivityComplete { .. } => unreachable!(),
            };
            for (op, delta, pick) in ops {
                let at = Time::from_secs(now + f64::from(delta));
                match op {
                    0..=2 => {
                        eager.push(at, EventKind::Timer { actor: 0, key: next_key });
                        lazy.push(at, EventKind::Timer { actor: 0, key: next_key });
                        next_key += 1;
                    }
                    3..=5 => {
                        eager.push(at, EventKind::Timer { actor: 0, key: next_key });
                        reserved.insert(next_key, lazy.reserve(at));
                        unarmed.push(next_key);
                        next_key += 1;
                    }
                    6..=7 if !unarmed.is_empty() => {
                        let key = unarmed[usize::from(pick) % unarmed.len()];
                        let r = reserved[&key];
                        if !lazy.fired(r) {
                            lazy.push_reserved(r, EventKind::Timer { actor: 0, key });
                            unarmed.retain(|&k| k != key);
                        }
                    }
                    _ => {
                        let Some((t, kind)) = lazy.pop() else { continue };
                        now = t.as_secs();
                        loop {
                            let (et, ekind) = eager.pop().expect("eager ran dry first");
                            let key = key_of(ekind);
                            eager_popped.insert(key);
                            if !unarmed.contains(&key) {
                                prop_assert_eq!((et, ekind), (t, kind));
                                break;
                            }
                        }
                        for (key, &r) in &reserved {
                            prop_assert_eq!(lazy.fired(r), eager_popped.contains(key), "key {}", key);
                        }
                    }
                }
            }
            while let Some((t, kind)) = lazy.pop() {
                let (et, ekind) = std::iter::from_fn(|| eager.pop())
                    .find(|(_, k)| !unarmed.contains(&key_of(*k)))
                    .expect("eager ran dry first");
                prop_assert_eq!((et, ekind), (t, kind));
            }
            prop_assert!(std::iter::from_fn(|| eager.pop()).all(|(_, k)| unarmed.contains(&key_of(k))));
        }
    }
}
