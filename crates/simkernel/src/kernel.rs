//! The kernel: simulated clock, future event list, activity table, and the
//! actor ready-queue.
//!
//! The kernel is deliberately domain-free. Network models and MPI runtimes
//! manipulate activities (creating flows, re-sharing rates) and wake actors;
//! the kernel only guarantees exact work accounting and deterministic event
//! delivery.

use std::collections::VecDeque;

use crate::activity::{ActivityId, ActivityState, Slot};
use crate::actor::{ActorId, Wake};
use crate::queue::{EventKind, EventQueue, Reserved};
use crate::time::{Duration, Time};

const NO_FREE: u32 = u32::MAX;

/// Upper bound on concurrently in-flight activities per simulated rank
/// during a trace replay: one blocking transfer plus a bounded window of
/// detached eager sends (compute bursts are timers, not activities).
/// Used by [`replay_sizing`].
pub const IN_FLIGHT_PER_RANK: usize = 8;

/// The pre-sizing heuristic of the replay runner (`smpi::runner`): a
/// `ranks`-process replay keeps at most [`IN_FLIGHT_PER_RANK`] network
/// flows in flight per rank (activity slots hold flows only), and each
/// accounts for at most two queued events (its scheduled completion plus
/// one superseded predecessor awaiting its lazy skip), which also leaves
/// room for the ranks' compute and delay timers.
/// Returns `(activities, events)` suitable for
/// [`Kernel::with_capacity`], so the activity slab and event queue never
/// regrow mid-replay.
pub fn replay_sizing(ranks: usize) -> (usize, usize) {
    let activities = ranks * IN_FLIGHT_PER_RANK;
    (activities, 2 * activities)
}

/// The simulation kernel. See the [module documentation](self).
#[derive(Debug)]
pub struct Kernel {
    now: Time,
    queue: EventQueue,
    slots: Vec<Slot>,
    free_head: u32,
    ready: VecDeque<(ActorId, Wake)>,
    live_activities: usize,
    events_processed: u64,
    /// Reusable buffer swapped with a completing activity's waiter list,
    /// so completions recycle capacity instead of allocating.
    wake_scratch: Vec<u32>,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Creates a kernel with the clock at [`Time::ZERO`].
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// Creates a kernel pre-sized for `activities` concurrent activities
    /// and `events` pending events, so the hot slab and event queue never
    /// reallocate during steady-state replay. Callers that know their
    /// workload (e.g. a trace replayer with `P` ranks and a bounded number
    /// of in-flight transfers per rank) should use this; see
    /// [`replay_sizing`] for the replay runners' shared heuristic.
    pub fn with_capacity(activities: usize, events: usize) -> Self {
        Kernel {
            now: Time::ZERO,
            queue: EventQueue::with_capacity(events),
            slots: Vec::with_capacity(activities),
            free_head: NO_FREE,
            ready: VecDeque::new(),
            live_activities: 0,
            events_processed: 0,
            wake_scratch: Vec::new(),
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events delivered so far (a cheap progress/performance
    /// metric for the bench harness).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Fills the kernel-owned fields of a metrics snapshot: events
    /// processed and the FEL profile.
    pub fn observe(&self, metrics: &mut crate::obs::Metrics) {
        metrics.events_processed = self.events_processed();
        metrics.fel = self.queue.profile();
    }

    // ------------------------------------------------------------------
    // Activities
    // ------------------------------------------------------------------

    /// Starts an activity with `work` units remaining, progressing at
    /// `rate` units/second (zero suspends it until [`Kernel::set_rate`]).
    ///
    /// # Panics
    /// Panics if `work` or `rate` is negative or non-finite.
    pub fn start_activity(&mut self, work: f64, rate: f64) -> ActivityId {
        assert!(work.is_finite() && work >= 0.0, "invalid work: {work}");
        assert!(rate.is_finite() && rate >= 0.0, "invalid rate: {rate}");
        let index = if self.free_head != NO_FREE {
            let index = self.free_head;
            let slot = &mut self.slots[index as usize];
            self.free_head = slot.next_free;
            slot.remaining = work;
            slot.rate = rate;
            slot.settled_at = self.now;
            slot.generation = slot.generation.wrapping_add(1);
            slot.sched = 0;
            slot.state = ActivityState::Running;
            slot.queued = false;
            slot.waiters.clear();
            slot.next_free = NO_FREE;
            index
        } else {
            let index = u32::try_from(self.slots.len()).expect("too many activities");
            self.slots.push(Slot {
                remaining: work,
                rate,
                settled_at: self.now,
                generation: 0,
                sched: 0,
                state: ActivityState::Running,
                queued: false,
                waiters: Vec::new(),
                next_free: NO_FREE,
            });
            index
        };
        self.live_activities += 1;
        let generation = self.slots[index as usize].generation;
        let id = ActivityId { index, generation };
        self.schedule_completion(id);
        id
    }

    /// Changes the rate of a running activity, settling its remaining work
    /// at the current instant first. A rate of zero suspends the activity.
    ///
    /// Setting the rate an activity already has is a true no-op: nothing
    /// is settled, queued or counted. `remaining` is therefore rounded
    /// once per *change* of rate, so an activity's float trajectory — and
    /// its completion instant — is a function of its own rate history and
    /// not of how many re-shares of its neighbours happened to visit it.
    ///
    /// Calling this on a completed or cancelled activity is a no-op, since
    /// resource re-sharing commonly races with completions within the same
    /// instant.
    pub fn set_rate(&mut self, id: ActivityId, rate: f64) {
        assert!(rate.is_finite() && rate >= 0.0, "invalid rate: {rate}");
        let now = self.now;
        let Some(slot) = self.slot_mut(id) else {
            return;
        };
        if slot.rate == rate {
            return;
        }
        slot.settle(now);
        slot.rate = rate;
        slot.sched = slot.sched.wrapping_add(1);
        self.orphan_queued(id.index);
        self.schedule_completion(id);
    }

    /// Cancels a running activity; its waiters are *not* woken. No-op when
    /// already finished.
    pub fn cancel(&mut self, id: ActivityId) {
        let now = self.now;
        let Some(slot) = self.slot_mut(id) else {
            return;
        };
        if slot.state == ActivityState::Running {
            slot.settle(now);
            slot.state = ActivityState::Cancelled;
            slot.waiters.clear();
            let index = id.index;
            self.live_activities -= 1;
            self.orphan_queued(index);
            self.release(index);
        }
    }

    /// Registers `actor` to be woken with [`Wake::Activity`] when `id`
    /// completes. If the activity already completed, the actor is woken
    /// immediately (same instant, after currently queued wakes).
    pub fn subscribe(&mut self, id: ActivityId, actor: ActorId) {
        // Completed-and-recycled slots are gone; id mismatch means "already
        // completed" from the subscriber's point of view.
        let index = id.index as usize;
        let matches = self
            .slots
            .get(index)
            .is_some_and(|s| s.next_free == NO_FREE && s.generation == id.generation);
        if matches && self.slots[index].state == ActivityState::Running {
            self.slots[index].waiters.push(actor.0);
        } else {
            self.ready.push_back((actor, Wake::Activity(id)));
        }
    }

    /// Remaining work units of a running activity, settled to "now".
    #[cfg(test)]
    pub(crate) fn remaining_work(&self, id: ActivityId) -> Option<f64> {
        let slot = self.slots.get(id.index as usize)?;
        if slot.next_free != NO_FREE
            || slot.generation != id.generation
            || slot.state != ActivityState::Running
        {
            return None;
        }
        let elapsed = self.now.since(slot.settled_at);
        Some((slot.remaining - elapsed.work_at(slot.rate)).max(0.0))
    }

    // ------------------------------------------------------------------
    // Timers and wakes
    // ------------------------------------------------------------------

    /// Wakes `actor` after `delay` with [`Wake::Timer`] carrying `key`.
    pub fn set_timer(&mut self, actor: ActorId, delay: Duration, key: u64) {
        self.queue.push(
            self.now + delay,
            EventKind::Timer {
                actor: actor.0,
                key,
            },
        );
    }

    /// Reserves the place of a timer `delay` from now without queueing
    /// it (see [`crate::queue`]): [`Kernel::arm_timer`] queues it there
    /// later, and [`Kernel::timer_fired`] tells whether it would have
    /// fired by now.
    pub fn reserve_timer(&mut self, delay: Duration) -> Reserved {
        self.queue.reserve(self.now + delay)
    }

    /// Queues the timer reserved as `r`, which must not have fired,
    /// to wake `actor` with [`Wake::Timer`] carrying `key`: it fires
    /// exactly where [`Kernel::set_timer`] at reserve time would have.
    pub fn arm_timer(&mut self, r: Reserved, actor: ActorId, key: u64) {
        self.queue.push_reserved(
            r,
            EventKind::Timer {
                actor: actor.0,
                key,
            },
        );
    }

    /// Whether the timer reserved as `r` would have fired by now, had
    /// it been queued at reserve time.
    pub fn timer_fired(&self, r: Reserved) -> bool {
        self.queue.fired(r)
    }

    /// Immediately enqueues a wake for `actor` (delivered at the current
    /// instant, in FIFO order with other pending wakes).
    pub fn wake(&mut self, actor: ActorId, wake: Wake) {
        self.ready.push_back((actor, wake));
    }

    // ------------------------------------------------------------------
    // Event loop plumbing (driven by `smpi::runner`)
    // ------------------------------------------------------------------

    /// Pops the next actor wake-up. Drains same-instant wakes first, then
    /// advances the clock to the next event. Returns `None` when the
    /// simulation has quiesced (no wakes, no events).
    ///
    /// `smpi::runner` drives this loop; tests step a kernel by hand.
    pub fn next_wake(&mut self) -> Option<(ActorId, Wake)> {
        loop {
            if let Some(wake) = self.ready.pop_front() {
                return Some(wake);
            }
            let (at, kind) = self.queue.pop()?;
            debug_assert!(at >= self.now, "event list went backwards");
            self.now = at;
            self.events_processed += 1;
            match kind {
                EventKind::Timer { actor, key } => {
                    return Some((ActorId(actor), Wake::Timer(key)));
                }
                EventKind::ActivityComplete {
                    index,
                    generation,
                    sched,
                } => {
                    if let Some(w) = self.complete_activity(index, generation, sched) {
                        return Some(w);
                    }
                    // Stale event; keep looping.
                }
            }
        }
    }

    fn complete_activity(
        &mut self,
        index: u32,
        generation: u32,
        sched: u32,
    ) -> Option<(ActorId, Wake)> {
        let slot = &mut self.slots[index as usize];
        if slot.generation != generation
            || slot.sched != sched
            || slot.state != ActivityState::Running
            || slot.next_free != NO_FREE
        {
            // Superseded entry reaching the head of the queue: account for
            // the skip so live_len stays exact.
            self.queue.note_stale_popped();
            return None;
        }
        slot.queued = false;
        let now = self.now;
        slot.settle(now);
        debug_assert!(slot.remaining <= 1e-6 * (1.0 + slot.rate));
        slot.remaining = 0.0;
        slot.state = ActivityState::Done;
        let id = ActivityId { index, generation };
        // Swap the waiter list with a reusable scratch buffer: capacities
        // circulate between the scratch and the slots, so steady-state
        // completions never touch the allocator.
        let mut waiters = std::mem::take(&mut self.wake_scratch);
        debug_assert!(waiters.is_empty());
        std::mem::swap(&mut self.slots[index as usize].waiters, &mut waiters);
        self.live_activities -= 1;
        self.release(index);
        let mut first = None;
        for (i, &w) in waiters.iter().enumerate() {
            if i == 0 {
                first = Some((ActorId(w), Wake::Activity(id)));
            } else {
                self.ready.push_back((ActorId(w), Wake::Activity(id)));
            }
        }
        waiters.clear();
        self.wake_scratch = waiters;
        first.or_else(|| self.ready.pop_front())
    }

    fn schedule_completion(&mut self, id: ActivityId) {
        let slot = &mut self.slots[id.index as usize];
        let eta = slot.eta();
        if !eta.is_never() {
            slot.queued = true;
            let sched = slot.sched;
            self.queue.push(
                eta,
                EventKind::ActivityComplete {
                    index: id.index,
                    generation: id.generation,
                    sched,
                },
            );
        }
    }

    /// Reports the queued completion (if any) for slot `index` as
    /// superseded, and compacts the event queue once dead entries dominate
    /// it. Called whenever a rate/work change or a cancellation orphans a
    /// previously scheduled completion.
    fn orphan_queued(&mut self, index: u32) {
        let slot = &mut self.slots[index as usize];
        if !slot.queued {
            return;
        }
        slot.queued = false;
        self.queue.note_superseded();
        if self.queue.should_compact() {
            let Kernel { queue, slots, .. } = self;
            queue.compact(|kind| match *kind {
                EventKind::ActivityComplete {
                    index,
                    generation,
                    sched,
                } => {
                    let s = &slots[index as usize];
                    s.next_free == NO_FREE
                        && s.generation == generation
                        && s.sched == sched
                        && s.state == ActivityState::Running
                }
                EventKind::Timer { .. } => true,
            });
        }
    }

    fn slot_mut(&mut self, id: ActivityId) -> Option<&mut Slot> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.next_free != NO_FREE
            || slot.generation != id.generation
            || slot.state != ActivityState::Running
        {
            return None;
        }
        Some(slot)
    }

    fn release(&mut self, index: u32) {
        let slot = &mut self.slots[index as usize];
        slot.next_free = self.free_head;
        self.free_head = index;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Kernel {
        /// Number of live (running) activities.
        pub(crate) fn live_activities(&self) -> usize {
            self.live_activities
        }

        /// Number of queued events that will actually fire (excludes
        /// entries already superseded by rate changes or cancellations).
        pub(crate) fn pending_events(&self) -> usize {
            self.queue.live_len()
        }
    }

    #[test]
    fn activity_completes_at_expected_time() {
        let mut k = Kernel::new();
        let a = k.start_activity(100.0, 10.0);
        k.subscribe(a, ActorId(7));
        let (actor, wake) = k.next_wake().unwrap();
        assert_eq!(actor, ActorId(7));
        assert_eq!(wake, Wake::Activity(a));
        assert_eq!(k.now(), Time::from_secs(10.0));
    }

    #[test]
    fn rate_change_reschedules_exactly() {
        let mut k = Kernel::new();
        let a = k.start_activity(100.0, 10.0);
        k.subscribe(a, ActorId(0));
        // Let 2 seconds pass via a timer, then double the rate.
        k.set_timer(ActorId(1), Duration::from_secs(2.0), 0);
        let (actor, _) = k.next_wake().unwrap();
        assert_eq!(actor, ActorId(1));
        assert_eq!(k.now(), Time::from_secs(2.0));
        k.set_rate(a, 20.0); // 80 units left at 20/s => completes at t=6.
        let (actor, wake) = k.next_wake().unwrap();
        assert_eq!(actor, ActorId(0));
        assert_eq!(wake, Wake::Activity(a));
        assert_eq!(k.now(), Time::from_secs(6.0));
    }

    /// Same-rate `set_rate` calls are true no-ops: a kernel that receives
    /// any number of them, at any instants, is indistinguishable from one
    /// that receives none — remaining work, queued events, events
    /// processed, and the completion instant after a later real change.
    #[test]
    fn same_rate_set_rate_is_a_true_no_op() {
        let mut plain = Kernel::new();
        let mut visited = Kernel::new();
        let (a, b) = (
            plain.start_activity(1234.5, 73.0),
            visited.start_activity(1234.5, 73.0),
        );
        assert_eq!(a, b);
        let mut at = 0.0;
        for i in 0..14u32 {
            let step = [0.1 + 0.013 * f64::from(i / 2), 0.07][i as usize % 2];
            for k in [&mut plain, &mut visited] {
                k.set_timer(ActorId(9), Duration::from_secs(step), 0);
                assert_eq!(k.next_wake().unwrap().0, ActorId(9));
            }
            at = plain.now().as_secs();
            for _ in 0..=i % 3 {
                visited.set_rate(a, 73.0);
            }
            assert_eq!(
                plain.remaining_work(a).map(f64::to_bits),
                visited.remaining_work(a).map(f64::to_bits)
            );
            assert_eq!(plain.queue.len(), visited.queue.len());
            assert_eq!(plain.pending_events(), visited.pending_events());
            assert_eq!(plain.events_processed(), visited.events_processed());
        }
        // A real change now settles once, from the same history.
        for k in [&mut plain, &mut visited] {
            k.set_rate(a, 50.0);
            k.subscribe(a, ActorId(0));
            assert_eq!(k.next_wake(), Some((ActorId(0), Wake::Activity(a))));
        }
        assert_eq!(plain.now(), visited.now());
        assert_eq!(
            plain.now().as_secs().to_bits(),
            (at + (1234.5 - at * 73.0) / 50.0).to_bits()
        );
        assert_eq!(plain.events_processed(), visited.events_processed());
    }

    #[test]
    fn suspend_and_resume() {
        let mut k = Kernel::new();
        let a = k.start_activity(10.0, 10.0);
        k.subscribe(a, ActorId(0));
        k.set_timer(ActorId(9), Duration::from_secs(0.5), 0);
        let _ = k.next_wake().unwrap(); // timer at 0.5, 5 units remain
        k.set_rate(a, 0.0); // suspend
        k.set_timer(ActorId(9), Duration::from_secs(10.0), 1);
        let (actor, _) = k.next_wake().unwrap();
        assert_eq!(actor, ActorId(9)); // completion did NOT fire while suspended
        assert_eq!(k.now(), Time::from_secs(10.5));
        k.set_rate(a, 5.0); // 5 units at 5/s => completes at 11.5
        let (actor, wake) = k.next_wake().unwrap();
        assert_eq!(actor, ActorId(0));
        assert_eq!(wake, Wake::Activity(a));
        assert_eq!(k.now(), Time::from_secs(11.5));
    }

    #[test]
    fn subscribe_after_completion_wakes_immediately() {
        let mut k = Kernel::new();
        let a = k.start_activity(1.0, 1.0);
        // Drain the completion without a subscriber.
        assert!(k.next_wake().is_none());
        assert_eq!(k.now(), Time::from_secs(1.0));
        k.subscribe(a, ActorId(3));
        let (actor, wake) = k.next_wake().unwrap();
        assert_eq!(actor, ActorId(3));
        assert_eq!(wake, Wake::Activity(a));
        assert_eq!(k.now(), Time::from_secs(1.0)); // no time passed
    }

    #[test]
    fn cancelled_activity_never_fires() {
        let mut k = Kernel::new();
        let a = k.start_activity(1.0, 1.0);
        k.subscribe(a, ActorId(0));
        k.cancel(a);
        assert!(k.next_wake().is_none());
        assert_eq!(k.live_activities(), 0);
    }

    #[test]
    fn slot_recycling_does_not_alias() {
        let mut k = Kernel::new();
        let a = k.start_activity(1.0, 1.0);
        k.cancel(a);
        let b = k.start_activity(5.0, 1.0);
        assert_eq!(a.index, b.index, "slot should be recycled");
        assert_ne!(a.generation, b.generation);
        k.subscribe(b, ActorId(1));
        let (actor, wake) = k.next_wake().unwrap();
        assert_eq!(actor, ActorId(1));
        assert_eq!(wake, Wake::Activity(b));
        assert_eq!(k.now(), Time::from_secs(5.0));
    }

    #[test]
    fn zero_work_completes_immediately() {
        let mut k = Kernel::new();
        let a = k.start_activity(0.0, 1.0);
        k.subscribe(a, ActorId(0));
        let (_, wake) = k.next_wake().unwrap();
        assert_eq!(wake, Wake::Activity(a));
        assert_eq!(k.now(), Time::ZERO);
    }

    #[test]
    fn multiple_waiters_all_wake() {
        let mut k = Kernel::new();
        let a = k.start_activity(1.0, 1.0);
        k.subscribe(a, ActorId(0));
        k.subscribe(a, ActorId(1));
        k.subscribe(a, ActorId(2));
        let mut woken = Vec::new();
        while let Some((actor, _)) = k.next_wake() {
            woken.push(actor.0);
        }
        assert_eq!(woken, vec![0, 1, 2]);
    }

    #[test]
    fn remaining_work_settles_to_now() {
        let mut k = Kernel::new();
        let a = k.start_activity(100.0, 10.0);
        k.set_timer(ActorId(0), Duration::from_secs(3.0), 0);
        let _ = k.next_wake();
        assert_eq!(k.remaining_work(a), Some(70.0));
    }

    #[test]
    fn rate_churn_keeps_queue_compact() {
        // 64 long-lived activities re-shared 1000 times each: without
        // compaction the heap would hold ~64_000 dead entries.
        let mut k = Kernel::new();
        let acts: Vec<_> = (0..64).map(|_| k.start_activity(1e9, 1.0)).collect();
        for round in 0..1000u32 {
            for &a in &acts {
                k.set_rate(a, 1.0 + f64::from(round % 7));
            }
        }
        assert_eq!(k.pending_events(), 64, "one live completion per activity");
        assert!(
            k.queue.profile().compactions > 0,
            "sustained churn must trigger compaction"
        );
        assert!(
            k.queue.len() < 64 * 4,
            "heap should stay near its live size, got {}",
            k.queue.len()
        );
        // Work accounting survives all of it: every activity still
        // completes, at the final rate, in a deterministic order.
        for (i, &a) in acts.iter().enumerate() {
            k.subscribe(a, ActorId(i as u32));
        }
        let mut done = 0;
        while k.next_wake().is_some() {
            done += 1;
        }
        assert_eq!(done, 64);
        assert_eq!(k.pending_events(), 0);
        assert_eq!(k.live_activities(), 0);
    }

    #[test]
    fn pending_events_excludes_superseded_and_cancelled() {
        let mut k = Kernel::new();
        let a = k.start_activity(100.0, 1.0);
        let b = k.start_activity(100.0, 1.0);
        assert_eq!(k.pending_events(), 2);
        k.set_rate(a, 2.0); // orphans a's first completion
        assert_eq!(k.pending_events(), 2);
        k.cancel(b); // orphans b's completion
        assert_eq!(k.pending_events(), 1);
        k.set_rate(a, 0.0); // suspend: no live completion at all
        assert_eq!(k.pending_events(), 0);
        assert!(!k.queue.is_empty(), "stale entries drain lazily");
        assert!(k.next_wake().is_none());
        assert_eq!(k.pending_events(), 0);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut k = Kernel::with_capacity(128, 512);
        let a = k.start_activity(10.0, 2.0);
        k.subscribe(a, ActorId(0));
        let (actor, wake) = k.next_wake().unwrap();
        assert_eq!(actor, ActorId(0));
        assert_eq!(wake, Wake::Activity(a));
        assert_eq!(k.now(), Time::from_secs(5.0));
    }

    #[test]
    fn replay_sizing_is_the_runners_heuristic() {
        let (activities, events) = crate::kernel::replay_sizing(16);
        assert_eq!(activities, 16 * IN_FLIGHT_PER_RANK);
        assert_eq!(events, 2 * activities);
    }

    /// The kernel-level differential check: a churn-heavy workload (rate
    /// changes, timers, cancellations, compactions) run on a queue
    /// shadowed by the sorted-`Vec` referee, which asserts on every pop
    /// that the heap delivered the vector's head (see `queue.rs`'s
    /// test-module docs). The refereed run must also equal a plain one.
    #[test]
    fn refereed_and_plain_kernels_agree_under_churn() {
        let run = |refereed: bool| {
            let mut k = Kernel::new();
            if refereed {
                k.queue = EventQueue::refereed();
            }
            let acts: Vec<_> = (0..48)
                .map(|i| k.start_activity(1e6 + f64::from(i as u32), 1.0))
                .collect();
            let mut trace: Vec<(u32, f64)> = Vec::new();
            for round in 0..200u32 {
                for (i, &a) in acts.iter().enumerate() {
                    k.set_rate(a, 1.0 + f64::from((round as usize + i) as u32 % 11));
                }
                k.set_timer(
                    ActorId(999),
                    Duration::from_secs(f64::from(round) * 0.01),
                    u64::from(round),
                );
                if round % 7 == 0 {
                    let (actor, _) = k.next_wake().unwrap();
                    trace.push((actor.0, k.now().as_secs()));
                }
                if round == 150 {
                    k.cancel(acts[3]);
                }
            }
            for (i, &a) in acts.iter().enumerate() {
                k.subscribe(a, ActorId(i as u32));
            }
            while let Some((actor, _)) = k.next_wake() {
                trace.push((actor.0, k.now().as_secs()));
            }
            assert!(
                k.queue.profile().compactions > 0,
                "churn must trigger compaction"
            );
            (trace, k.now().as_secs().to_bits(), k.events_processed())
        };
        assert_eq!(run(true), run(false));
    }
}
