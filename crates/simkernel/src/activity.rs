//! Activities: quantities of work progressing at a mutable rate.
//!
//! An activity models work whose rate can change while it runs: in a
//! replay, a network transfer (work = bytes, rate = allotted bandwidth),
//! re-rated whenever resource sharing changes. The kernel settles the
//! remaining work before applying a new rate, so progress accounting is
//! exact under arbitrary re-sharing. Work at a fixed rate, such as a
//! rank's compute burst, needs no activity: it is a timer.
//!
//! Slots are recycled through a free list; stale completion events are
//! detected with per-slot generation counters.

use crate::time::{Duration, Time};

/// Handle to an activity slot. Includes the slot generation, so a handle to
/// a completed-and-recycled activity can never alias a live one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ActivityId {
    pub(crate) index: u32,
    pub(crate) generation: u32,
}

impl ActivityId {
    /// The raw slot index (stable for the lifetime of the activity; reused
    /// afterwards). Mostly useful as a map key together with the full id.
    pub fn index(self) -> u32 {
        self.index
    }

    /// The slot generation (instance identity). Together with
    /// [`ActivityId::index`] this uniquely identifies an activity
    /// instance, letting side tables index by slot and validate by
    /// generation instead of hashing the whole id.
    pub fn generation(self) -> u32 {
        self.generation
    }
}

/// Lifecycle state of an activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ActivityState {
    /// Progressing (possibly at rate zero, i.e. suspended).
    Running,
    /// All work done. The slot stays observable until recycled.
    Done,
    /// Explicitly cancelled before completion.
    Cancelled,
}

#[derive(Debug)]
pub(crate) struct Slot {
    /// Work still to do, in work units.
    pub remaining: f64,
    /// Current processing rate, work units per second.
    pub rate: f64,
    /// Instant at which `remaining` was last settled.
    pub settled_at: Time,
    /// Instance identity: bumped when the slot is recycled for a new
    /// activity, so stale handles can never alias a live one.
    pub generation: u32,
    /// Schedule counter: bumped on every rate or work change; completion
    /// events carry the value they were scheduled under and are ignored on
    /// mismatch.
    pub sched: u32,
    pub state: ActivityState,
    /// `true` while a completion event for the *current* `sched` value sits
    /// in the event queue. Lets the kernel keep the queue's stale-entry
    /// count exact: a rate/work change or cancel that orphans the queued
    /// completion reports exactly one superseded entry.
    pub queued: bool,
    /// Actors to wake on completion (usually exactly one).
    pub waiters: Vec<u32>,
    /// Free-list linkage; `u32::MAX` when occupied.
    pub next_free: u32,
}

impl Slot {
    /// Settles `remaining` down to the current instant `now`.
    pub(crate) fn settle(&mut self, now: Time) {
        if self.state == ActivityState::Running {
            let elapsed = now.since(self.settled_at);
            self.remaining = (self.remaining - elapsed.work_at(self.rate)).max(0.0);
        }
        self.settled_at = now;
    }

    /// Time at which the activity will complete at the current rate, or
    /// `Time::NEVER` when suspended (rate == 0).
    pub(crate) fn eta(&self) -> Time {
        match Duration::for_work(self.remaining, self.rate) {
            Some(d) => self.settled_at + d,
            None => Time::NEVER,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(remaining: f64, rate: f64, at: f64) -> Slot {
        Slot {
            remaining,
            rate,
            settled_at: Time::from_secs(at),
            generation: 0,
            sched: 0,
            state: ActivityState::Running,
            queued: false,
            waiters: Vec::new(),
            next_free: u32::MAX,
        }
    }

    #[test]
    fn settle_consumes_work() {
        let mut s = slot(100.0, 10.0, 0.0);
        s.settle(Time::from_secs(4.0));
        assert_eq!(s.remaining, 60.0);
        assert_eq!(s.settled_at, Time::from_secs(4.0));
    }

    #[test]
    fn settle_clamps_at_zero() {
        let mut s = slot(10.0, 10.0, 0.0);
        s.settle(Time::from_secs(100.0));
        assert_eq!(s.remaining, 0.0);
    }

    #[test]
    fn eta_at_positive_rate() {
        let s = slot(50.0, 25.0, 1.0);
        assert_eq!(s.eta(), Time::from_secs(3.0));
    }

    #[test]
    fn eta_suspended_is_never() {
        let s = slot(50.0, 0.0, 1.0);
        assert!(s.eta().is_never());
    }

    #[test]
    fn settle_is_exact_under_rate_change_sequence() {
        // 100 units: 2s at 10/s, then 4s at 15/s, then finish at 5/s.
        let mut s = slot(100.0, 10.0, 0.0);
        s.settle(Time::from_secs(2.0));
        assert_eq!(s.remaining, 80.0);
        s.rate = 15.0;
        s.settle(Time::from_secs(6.0));
        assert_eq!(s.remaining, 20.0);
        s.rate = 5.0;
        assert_eq!(s.eta(), Time::from_secs(10.0));
    }

    #[test]
    fn done_activities_do_not_progress() {
        let mut s = slot(100.0, 10.0, 0.0);
        s.state = ActivityState::Done;
        s.settle(Time::from_secs(5.0));
        assert_eq!(s.remaining, 100.0);
    }
}
