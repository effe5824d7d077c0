//! Per-pair runtime state, built on a pair's first message.
//!
//! The runtime keeps, for each ordered `(source, destination)` rank
//! pair, the route between the two hosts, its nominal latency and
//! bandwidth, and the protocol's FIFO match queues. Replayed traces talk
//! to few peers per rank — O(1) for stencils and LU, O(log P) for tree
//! collectives — so a `PairTable` builds a pair's state when its first
//! message is sent or received, and building a world costs O(P), not
//! O(P²).
//!
//! Layout: per destination, a dense `u32` slot index over source ranks,
//! allocated on that destination's first message, into one arena of
//! `Pair`s appended in first-use order. A message carries its pair's
//! slot, so the transport side indexes the arena with no lookup.

use std::ops::{Index, IndexMut};

use platform::{HostId, LinkId, Platform};

/// Index entry of a source that has not talked to the destination yet.
const NO_SLOT: u32 = u32::MAX;

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

/// The pairs of one world that have communicated so far. See the
/// [module documentation](self).
pub(crate) struct PairTable<'p, Q> {
    platform: &'p Platform,
    hosts: Vec<HostId>,
    /// `index[dst][src]`: slot of the pair in `pairs`, or [`NO_SLOT`].
    /// A row stays empty until its destination's first message.
    index: Vec<Vec<u32>>,
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
            index: vec![Vec::new(); hosts.len()],
            pairs: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The slot of the pair `src → dst`, built on first use.
    #[inline]
    pub fn slot(&mut self, src: u32, dst: u32) -> u32 {
        match self.index[dst as usize].get(src as usize) {
            Some(&slot) if slot != NO_SLOT => slot,
            _ => self.insert(src, dst),
        }
    }

    #[cold]
    #[inline(never)]
    fn insert(&mut self, src: u32, dst: u32) -> u32 {
        // Invariant: 2^32 pairs (each a route and two queues) exhaust
        // memory long before the index does.
        let slot = u32::try_from(self.pairs.len()).expect("pair table overflow");
        let row = &mut self.index[dst as usize];
        if row.is_empty() {
            *row = vec![NO_SLOT; self.hosts.len()];
        }
        row[src as usize] = slot;
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
            let src = row
                .iter()
                .position(|&slot| slot != NO_SLOT && pred(&self.pairs[slot as usize].queues))?;
            Some((src as u32, dst as u32))
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
}
