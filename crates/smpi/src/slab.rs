//! A small generational slab for runtime records (messages, posts,
//! requests), plus the slab-indexed side tables the replay hot path uses
//! instead of hash maps. Simulation runs create and retire millions of
//! records; recycling slots keeps memory flat, and generations make stale
//! handles detectable instead of silently aliasing.

use simkernel::{ActivityId, ActorId};

/// Typed handle into a `Slab`.
pub struct Id<T> {
    index: u32,
    generation: u32,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T> Id<T> {
    /// Packs the id into a u64 (for timer keys).
    pub fn pack(self) -> u64 {
        (u64::from(self.generation) << 32) | u64::from(self.index)
    }

    /// Unpacks an id previously packed with [`Id::pack`].
    pub fn unpack(key: u64) -> Id<T> {
        Id {
            index: key as u32,
            generation: (key >> 32) as u32,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T> Clone for Id<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Id<T> {}
impl<T> PartialEq for Id<T> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index && self.generation == other.generation
    }
}
impl<T> Eq for Id<T> {}
impl<T> std::hash::Hash for Id<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.pack().hash(state);
    }
}
impl<T> std::fmt::Debug for Id<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Id({}@{})", self.index, self.generation)
    }
}

struct Entry<T> {
    value: Option<T>,
    generation: u32,
    next_free: u32,
}

const NO_FREE: u32 = u32::MAX;

/// Generational slab.
pub(crate) struct Slab<T> {
    entries: Vec<Entry<T>>,
    free_head: u32,
    live: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Empty slab.
    pub fn new() -> Slab<T> {
        Slab::with_capacity(0)
    }

    /// Empty slab with room for `capacity` entries before the backing
    /// vector regrows. Runners that know the rank count should pre-size
    /// record slabs so the replay steady state never reallocates.
    pub fn with_capacity(capacity: usize) -> Slab<T> {
        Slab {
            entries: Vec::with_capacity(capacity),
            free_head: NO_FREE,
            live: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Inserts a value, returning its handle.
    pub fn insert(&mut self, value: T) -> Id<T> {
        self.live += 1;
        if self.free_head != NO_FREE {
            let index = self.free_head;
            let e = &mut self.entries[index as usize];
            self.free_head = e.next_free;
            e.next_free = NO_FREE;
            e.generation = e.generation.wrapping_add(1);
            e.value = Some(value);
            Id {
                index,
                generation: e.generation,
                _marker: std::marker::PhantomData,
            }
        } else {
            // Invariant: 2^32 live records exhaust memory before the index.
            let index = u32::try_from(self.entries.len()).expect("slab overflow");
            self.entries.push(Entry {
                value: Some(value),
                generation: 0,
                next_free: NO_FREE,
            });
            Id {
                index,
                generation: 0,
                _marker: std::marker::PhantomData,
            }
        }
    }

    /// Shared access; `None` when the handle is stale or removed.
    pub fn get(&self, id: Id<T>) -> Option<&T> {
        let e = self.entries.get(id.index as usize)?;
        if e.generation != id.generation {
            return None;
        }
        e.value.as_ref()
    }

    /// Mutable access; `None` when the handle is stale or removed.
    pub fn get_mut(&mut self, id: Id<T>) -> Option<&mut T> {
        let e = self.entries.get_mut(id.index as usize)?;
        if e.generation != id.generation {
            return None;
        }
        e.value.as_mut()
    }

    /// Shared access, panicking on a stale handle.
    #[cfg(test)]
    pub fn expect(&self, id: Id<T>) -> &T {
        self.get(id).expect("stale slab id")
    }

    /// Mutable access, panicking on a stale handle.
    pub(crate) fn expect_mut(&mut self, id: Id<T>) -> &mut T {
        // Invariant: callers pass only handles of records still alive.
        self.get_mut(id).expect("stale slab id")
    }

    /// Removes and returns an entry.
    pub fn remove(&mut self, id: Id<T>) -> Option<T> {
        let e = self.entries.get_mut(id.index as usize)?;
        if e.generation != id.generation || e.value.is_none() {
            return None;
        }
        let value = e.value.take();
        e.next_free = self.free_head;
        self.free_head = id.index;
        self.live -= 1;
        value
    }
}

/// A side table keyed by [`ActivityId`]: a dense `Vec` indexed by the
/// activity's kernel slot, validated by its generation. This replaces
/// `HashMap<ActivityId, T>` on the transport hot path — a lookup is one
/// bounds check plus one generation compare, with no hashing and no
/// rehash-driven allocation once the table has grown to the kernel's
/// activity-slab width (which [`simkernel::replay_sizing`] pre-sizes).
pub(crate) struct ActivityMap<T> {
    entries: Vec<Option<(u32, T)>>,
    live: usize,
}

impl<T> Default for ActivityMap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ActivityMap<T> {
    /// Empty map.
    pub fn new() -> ActivityMap<T> {
        ActivityMap::with_capacity(0)
    }

    /// Empty map pre-sized for activity slots `0..capacity`.
    pub fn with_capacity(capacity: usize) -> ActivityMap<T> {
        let mut entries = Vec::with_capacity(capacity);
        entries.resize_with(capacity, || None);
        ActivityMap { entries, live: 0 }
    }

    /// Number of live entries.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no entries are live.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts a value under `id`'s slot. An entry left behind by an
    /// earlier generation of the slot is silently replaced (the kernel
    /// only recycles a slot once its activity is dead); two *live*
    /// activities can never share a slot, which the debug assertion
    /// checks.
    pub fn insert(&mut self, id: ActivityId, value: T) {
        let index = id.index() as usize;
        if index >= self.entries.len() {
            self.entries.resize_with(index + 1, || None);
        }
        let slot = &mut self.entries[index];
        debug_assert!(
            slot.as_ref().is_none_or(|(g, _)| *g != id.generation()),
            "two live entries for activity slot {index}"
        );
        if slot.replace((id.generation(), value)).is_none() {
            self.live += 1;
        }
    }

    /// Removes and returns the entry for `id`, or `None` when the slot is
    /// empty or holds a different generation (a stale handle).
    pub fn remove(&mut self, id: ActivityId) -> Option<T> {
        let slot = self.entries.get_mut(id.index() as usize)?;
        if slot.as_ref()?.0 != id.generation() {
            return None;
        }
        self.live -= 1;
        slot.take().map(|(_, value)| value)
    }

    /// Shared access; `None` when the handle is stale or absent.
    #[cfg(test)]
    pub fn get(&self, id: ActivityId) -> Option<&T> {
        let (generation, value) = self.entries.get(id.index() as usize)?.as_ref()?;
        (*generation == id.generation()).then_some(value)
    }
}

/// A tiny inline waiter list for protocol records. A message or request
/// blocks at most two actors in the shipped protocols (a rendezvous
/// sender and a waiting receiver), so two inline slots cover the steady
/// state without heap allocation; any excess spills into a `Vec` so the
/// type stays correct under unusual actor patterns.
#[derive(Debug, Default)]
pub(crate) struct Waiters {
    inline: [Option<ActorId>; 2],
    spill: Vec<ActorId>,
}

impl Waiters {
    /// Empty list.
    pub fn new() -> Waiters {
        Waiters::default()
    }

    /// `true` when no actor is waiting.
    pub fn is_empty(&self) -> bool {
        self.inline[0].is_none() && self.spill.is_empty()
    }

    /// Number of waiting actors.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.inline.iter().filter(|s| s.is_some()).count() + self.spill.len()
    }

    /// Appends a waiter (FIFO order is preserved on iteration).
    pub fn push(&mut self, actor: ActorId) {
        for slot in &mut self.inline {
            if slot.is_none() {
                *slot = Some(actor);
                return;
            }
        }
        self.spill.push(actor);
    }

    /// Consumes the list, yielding waiters in push order.
    pub fn for_each(self, mut f: impl FnMut(ActorId)) {
        for actor in self.inline.into_iter().flatten() {
            f(actor);
        }
        for actor in self.spill {
            f(actor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut s: Slab<String> = Slab::new();
        let a = s.insert("a".into());
        let b = s.insert("b".into());
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a).unwrap(), "a");
        assert_eq!(s.remove(a).unwrap(), "a");
        assert!(s.get(a).is_none());
        assert_eq!(s.get(b).unwrap(), "b");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn recycled_slot_invalidates_old_handle() {
        let mut s: Slab<u32> = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        let b = s.insert(2);
        assert!(s.get(a).is_none(), "stale handle must not alias");
        assert_eq!(*s.get(b).unwrap(), 2);
        assert_eq!(s.remove(a), None);
    }

    #[test]
    fn pack_roundtrip() {
        let mut s: Slab<u8> = Slab::new();
        let a = s.insert(9);
        s.remove(a);
        let b = s.insert(7); // same index, new generation
        let restored: Id<u8> = Id::unpack(b.pack());
        assert_eq!(restored, b);
        assert_ne!(restored, a);
        assert_eq!(*s.get(restored).unwrap(), 7);
    }

    #[test]
    fn expect_mut_mutates() {
        let mut s: Slab<Vec<u32>> = Slab::new();
        let a = s.insert(vec![1]);
        s.expect_mut(a).push(2);
        assert_eq!(s.expect(a), &vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "stale slab id")]
    fn expect_panics_on_stale() {
        let mut s: Slab<u8> = Slab::new();
        let a = s.insert(1);
        s.remove(a);
        let _ = s.expect(a);
    }

    #[test]
    fn activity_map_indexes_by_slot_and_checks_generation() {
        let mut k = simkernel::Kernel::new();
        let a = k.start_activity(1.0, 1.0);
        let mut m: ActivityMap<u32> = ActivityMap::with_capacity(4);
        assert!(m.is_empty());
        m.insert(a, 7);
        assert_eq!(m.get(a), Some(&7));
        assert_eq!(m.len(), 1);

        // Recycle the kernel slot: the old handle must not alias the new
        // entry, and a leftover entry under the old generation is replaced.
        k.cancel(a);
        let b = k.start_activity(1.0, 1.0);
        assert_eq!(b.index(), a.index(), "kernel should recycle the slot");
        m.insert(b, 9);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(a), None);
        assert_eq!(m.remove(a), None);
        assert_eq!(m.remove(b), Some(9));
        assert!(m.is_empty());
    }

    #[test]
    fn activity_map_grows_past_presized_width() {
        let mut k = simkernel::Kernel::new();
        let ids: Vec<ActivityId> = (0..8).map(|_| k.start_activity(1.0, 1.0)).collect();
        let mut m: ActivityMap<u64> = ActivityMap::with_capacity(2);
        for (i, id) in ids.iter().enumerate() {
            m.insert(*id, i as u64);
        }
        assert_eq!(m.len(), 8);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(m.remove(*id), Some(i as u64));
        }
        assert!(m.is_empty());
    }

    #[test]
    fn waiters_inline_then_spill_preserve_fifo() {
        let mut w = Waiters::new();
        assert!(w.is_empty());
        for i in 0..4 {
            w.push(ActorId(i));
        }
        assert_eq!(w.len(), 4);
        assert!(!w.is_empty());
        let mut order = Vec::new();
        w.for_each(|a| order.push(a));
        assert_eq!(order, vec![ActorId(0), ActorId(1), ActorId(2), ActorId(3)]);
    }
}
