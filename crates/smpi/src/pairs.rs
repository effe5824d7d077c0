//! Per-pair runtime state, built on a pair's first message.
//!
//! The runtime keeps, for each ordered `(source, destination)` rank
//! pair, the route between the two hosts, its nominal latency and
//! bandwidth, and the protocol's FIFO match queues. Replayed traces talk
//! to few peers per rank — O(1) for stencils, rings and LU, O(log P) for
//! tree collectives — so a `PairTable` builds a pair's state when its
//! first message is sent or received, and its memory is O(P + pairs
//! that talk): building a world costs O(P), and a replay adds O(1) per
//! communicating pair, never O(P²).
//!
//! Layout: the pairs live in one arena, appended in first-use order, and
//! each destination indexes its own. A destination keeps its sources as
//! a short `(src, slot)` list searched linearly, and only when it has
//! heard from more than `max(16, P / 16)` sources (an all-to-all) does it
//! switch to a dense `u32` row over all P sources, which then costs at
//! most 64 bytes per pair in it. A message carries its pair's slot, so
//! the transport side indexes the arena with no lookup; only the first
//! lookup of each posted operation searches.

use std::ops::{Index, IndexMut};

use platform::{HostId, LinkId, Platform};

/// Index entry of a source that has not talked to the destination yet.
const NO_SLOT: u32 = u32::MAX;

/// A destination's list of sources stays sparse up to this many entries
/// (two cache lines of `(src, slot)`), or `P / 16` if that is more.
const SPARSE_MAX: usize = 16;

/// The state of one communicating `(source, destination)` rank pair.
#[derive(Debug)]
pub(crate) struct Pair<Q> {
    /// Links from the source's host to the destination's; empty when
    /// both ranks share a host (a loopback copy).
    pub route: Box<[LinkId]>,
    /// Nominal route latency, seconds ([`Platform::path_latency`]).
    pub latency: f64,
    /// Nominal route bandwidth, bytes/s ([`Platform::path_bandwidth`]).
    pub bandwidth: f64,
    /// The protocol's FIFO match queues of this pair.
    pub queues: Q,
}

/// One destination's index of the sources it has talked to.
#[derive(Debug)]
enum Row {
    /// `(src, slot)` in first-use order.
    Sparse(Vec<(u32, u32)>),
    /// The slot of every source, or [`NO_SLOT`].
    Dense(Box<[u32]>),
}

impl Row {
    #[inline]
    fn get(&self, src: u32) -> u32 {
        match self {
            Row::Sparse(entries) => entries
                .iter()
                .find(|&&(s, _)| s == src)
                .map_or(NO_SLOT, |&(_, slot)| slot),
            Row::Dense(slots) => slots[src as usize],
        }
    }

    /// The lowest source whose slot satisfies `pred`.
    fn first_src(&self, pred: impl Fn(u32) -> bool) -> Option<u32> {
        match self {
            Row::Sparse(entries) => entries
                .iter()
                .filter(|&&(_, slot)| pred(slot))
                .map(|&(src, _)| src)
                .min(),
            Row::Dense(slots) => slots
                .iter()
                .position(|&slot| slot != NO_SLOT && pred(slot))
                .map(|src| src as u32),
        }
    }
}

/// The pairs of one world that have communicated so far. See the
/// [module documentation](self).
pub(crate) struct PairTable<'p, Q> {
    platform: &'p Platform,
    hosts: Vec<HostId>,
    /// The sources of each destination, with their slots in `pairs`.
    index: Vec<Row>,
    pairs: Vec<Pair<Q>>,
    /// Route buffer reused by every pair construction.
    scratch: Vec<LinkId>,
}

impl<'p, Q: Default> PairTable<'p, Q> {
    /// An empty table for ranks placed on `hosts` of `platform`.
    pub fn new(platform: &'p Platform, hosts: &[HostId]) -> PairTable<'p, Q> {
        PairTable {
            platform,
            hosts: hosts.to_vec(),
            index: (0..hosts.len()).map(|_| Row::Sparse(Vec::new())).collect(),
            pairs: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The slot of the pair `src → dst`, built on first use.
    #[inline]
    pub fn slot(&mut self, src: u32, dst: u32) -> u32 {
        match self.index[dst as usize].get(src) {
            NO_SLOT => self.insert(src, dst),
            slot => slot,
        }
    }

    #[cold]
    #[inline(never)]
    fn insert(&mut self, src: u32, dst: u32) -> u32 {
        // Invariant: 2^32 pairs (each a route and two queues) exhaust
        // memory long before the index does.
        let slot = u32::try_from(self.pairs.len()).expect("pair table overflow");
        let ranks = self.hosts.len();
        let row = &mut self.index[dst as usize];
        match row {
            Row::Sparse(entries) if entries.len() < SPARSE_MAX.max(ranks / 16) => {
                entries.push((src, slot));
            }
            Row::Sparse(entries) => {
                let mut slots = vec![NO_SLOT; ranks].into_boxed_slice();
                for &(s, slot) in entries.iter() {
                    slots[s as usize] = slot;
                }
                slots[src as usize] = slot;
                *row = Row::Dense(slots);
            }
            Row::Dense(slots) => slots[src as usize] = slot,
        }
        let route = &mut self.scratch;
        self.platform
            .route(self.hosts[src as usize], self.hosts[dst as usize], route);
        self.pairs.push(Pair {
            route: route.as_slice().into(),
            latency: self.platform.path_latency(route),
            bandwidth: self.platform.path_bandwidth(route),
            queues: Q::default(),
        });
        slot
    }
}

impl<'p, Q> PairTable<'p, Q> {
    /// The platform routes are resolved on.
    pub fn platform(&self) -> &'p Platform {
        self.platform
    }

    /// The host of each rank.
    pub fn hosts(&self) -> &[HostId] {
        &self.hosts
    }

    /// The lowest pair in `(dst, src)` order whose queues satisfy `pred`,
    /// as `(src, dst)`.
    pub(crate) fn first_where(&self, pred: impl Fn(&Q) -> bool) -> Option<(u32, u32)> {
        self.index.iter().enumerate().find_map(|(dst, row)| {
            let src = row.first_src(|slot| pred(&self.pairs[slot as usize].queues))?;
            Some((src, dst as u32))
        })
    }
}

impl<Q> Index<u32> for PairTable<'_, Q> {
    type Output = Pair<Q>;

    fn index(&self, slot: u32) -> &Pair<Q> {
        &self.pairs[slot as usize]
    }
}

impl<Q> IndexMut<u32> for PairTable<'_, Q> {
    fn index_mut(&mut self, slot: u32) -> &mut Pair<Q> {
        &mut self.pairs[slot as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::clusters;

    #[test]
    fn pairs_are_built_once_on_first_use() {
        let p = clusters::graphene();
        let hosts = [HostId(0), HostId(40), HostId(0)];
        let mut t: PairTable<'_, Vec<u8>> = PairTable::new(&p, &hosts);
        let a = t.slot(0, 1);
        assert_eq!(t.slot(0, 1), a);
        let b = t.slot(1, 0);
        assert_ne!(a, b, "pairs are ordered");
        assert_eq!(
            t[a].latency.to_bits(),
            p.route_latency(hosts[0], hosts[1]).to_bits()
        );
        let mut route = Vec::new();
        p.route(hosts[1], hosts[0], &mut route);
        assert_eq!(t[b].bandwidth.to_bits(), p.path_bandwidth(&route).to_bits());
        let local = t.slot(2, 0);
        assert!(t[local].route.is_empty(), "same host: loopback");
        assert_eq!(t[local].bandwidth, f64::INFINITY);
    }

    #[test]
    fn a_busy_destination_switches_to_a_dense_row_keeping_its_slots() {
        let p = clusters::graphene();
        let hosts: Vec<HostId> = (0..40).map(HostId).collect();
        let mut t: PairTable<'_, u32> = PairTable::new(&p, &hosts);
        // Sources in a scrambled order, past the sparse limit.
        let order: Vec<u32> = (1..40).map(|i| (i * 7) % 40).collect();
        let slots: Vec<u32> = order.iter().map(|&s| t.slot(s, 0)).collect();
        assert!(matches!(t.index[0], Row::Dense(_)));
        assert!(matches!(t.index[1], Row::Sparse(_)));
        for (&s, &slot) in order.iter().zip(&slots) {
            assert_eq!(t.slot(s, 0), slot, "source {s}");
        }
        assert_eq!(t.pairs.len(), order.len(), "no pair built twice");
    }

    #[test]
    fn first_where_keeps_destination_then_source_order() {
        let p = clusters::graphene();
        let hosts: Vec<HostId> = (0..40).map(HostId).collect();
        for dense in [false, true] {
            let mut t: PairTable<'_, bool> = PairTable::new(&p, &hosts);
            if dense {
                for s in 1..40 {
                    t.slot(s, 2);
                }
            }
            for (src, dst) in [(9, 2), (5, 3), (7, 2), (3, 2), (1, 3)] {
                let slot = t.slot(src, dst);
                t[slot].queues = src != 3;
            }
            assert_eq!(t.first_where(|&q| q), Some((7, 2)), "dense: {dense}");
            assert_eq!(t.first_where(|_| false), None);
        }
    }
}
