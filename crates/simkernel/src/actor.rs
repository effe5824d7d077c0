//! Wake addressing: who the kernel wakes, and why.
//!
//! The kernel does not know what a simulated process is. Activity
//! subscriptions, timers and signals name an [`ActorId`], and
//! [`Kernel::next_wake`](crate::Kernel::next_wake) hands back the id
//! with the [`Wake`] reason; the event loop that owns the processes
//! (`smpi::runner`) maps the id to a rank or to its transport.

use crate::activity::ActivityId;

/// The address of a wake: a dense index chosen by the event loop that
/// drives the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub u32);

impl ActorId {
    /// The actor index as a usize (for indexing per-actor tables).
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// Why an actor was resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// First resume, before any event is processed.
    Start,
    /// An activity the actor subscribed to has completed.
    Activity(ActivityId),
    /// A timer set via [`Kernel::set_timer`](crate::Kernel::set_timer)
    /// fired; carries the user key.
    Timer(u64),
    /// Another actor (through the world/runtime) requested a wake with an
    /// opaque payload.
    Signal(u64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_id_roundtrip() {
        assert_eq!(ActorId(5).as_usize(), 5);
        assert!(ActorId(1) < ActorId(2));
    }

    #[test]
    fn wake_equality() {
        assert_eq!(Wake::Timer(3), Wake::Timer(3));
        assert_ne!(Wake::Timer(3), Wake::Signal(3));
        assert_eq!(Wake::Start, Wake::Start);
    }
}
