//! Flow-level network models.
//!
//! A network transfer is a kernel activity whose work is the message size
//! in bytes and whose rate is the bandwidth currently allotted to the
//! flow. This crate maintains that allotment as flows come and go, with
//! one sharing model, the **bottleneck** share: each flow receives
//! `min_over_route(capacity / flows_on_link)`, capped by its own protocol
//! ceiling. It guarantees no link is oversubscribed but does not
//! redistribute head-room (same family of approximation as SimGrid's fast
//! default without cross-traffic). Exact max-min fairness was measured
//! against it on every paper figure and moved no error by 0.5 percentage
//! points (see EXPERIMENTS.md), so it survives only as the test referee
//! `sharing::maxmin_rates`, which bounds every bottleneck rate from
//! above. An open or close examines only the flows on links where some
//! flow's rate can move (see `LinkState::hi`), and a flow remembers the
//! last rate pushed to the kernel so only a bitwise different one is
//! pushed again.
//!
//! For collective traffic there is additionally a **deferred** open/close
//! path ([`FlowNet::open_deferred`] / [`FlowNet::close_deferred`]): the
//! per-flow tables update immediately, but the re-share is batched to the
//! end of the current instant ([`FlowNet::flush`], driven by a zero-delay
//! [`FLUSH_KEY`] timer). Same-instant rate changes cannot affect any
//! completion time, and the flush re-rates every flow on a dirty link
//! against the instant's *final* occupancies — the same state the per-op
//! sequence ends in — so allotments stay bit-identical while a P-flow
//! collective phase costs O(1) re-shares instead of O(P). [`NetStats`]
//! counts the work.
//!
//! [`piecewise::PiecewiseFactors`] implements SMPI's piece-wise linear
//! correction of nominal latency/bandwidth by message size — the paper's
//! "original piece-wise linear model to take into account the specifics of
//! the cluster interconnect".

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod piecewise;
pub mod sharing;

pub use piecewise::PiecewiseFactors;
pub use sharing::SharingPolicy;
pub use simkernel::obs::NetStats;

use platform::{LinkId, Platform};
use simkernel::{ActivityId, ActorId, Duration, Kernel};

const NO_FREE: u32 = u32::MAX;

/// Timer key of the deferred-sharing flush tick. Chosen just below the
/// engines' own sentinel keys (`u64::MAX`, `u64::MAX - 1`) and far above
/// any packed slab id, so transports can recognise it before unpacking.
/// A transport that installed itself via [`FlowNet::set_flush_actor`]
/// must call [`FlowNet::flush`] when a timer with this key fires.
pub const FLUSH_KEY: u64 = u64::MAX - 2;

/// Handle to an open flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId {
    index: u32,
    generation: u32,
}

#[derive(Debug)]
struct Flow {
    route: Vec<LinkId>,
    activity: ActivityId,
    /// Per-flow rate ceiling (protocol-corrected nominal bandwidth).
    cap: f64,
    /// Last rate pushed to the kernel (0 until the first push): what the
    /// flow's activity runs at. A re-share compares a recomputed rate
    /// against it bitwise and calls the kernel only on a difference.
    rate: f64,
    /// Monotonic open-order stamp. Slab indices are recycled through the
    /// free list, so index order says nothing about which flow opened
    /// first; rate pushes to the kernel are ordered by this stamp
    /// instead, keeping the kernel's event-insertion order a function of
    /// the flows' own history (open order) rather than of slab reuse.
    /// Every `per_link` list is kept strictly increasing in it.
    seq: u64,
    generation: u32,
    live: bool,
    next_free: u32,
}

#[derive(Debug, Clone, Copy)]
struct LinkState {
    capacity: f64,
    /// `capacity / per_link[l].len()`, refreshed whenever a flow joins or
    /// leaves the link (infinite while the link is empty): the fair share
    /// the bottleneck policy takes its minimum over, divided out once per
    /// occupancy change instead of once per re-rated neighbour.
    share: f64,
    /// `min(share before, share after)` of the link's last occupancy
    /// change (routes cross a link once). A flow on the link whose cached
    /// rate is below it was not bound by this link before the change and
    /// is not bound by it after: the change cannot move its rate.
    floor: f64,
    /// Upper bound on the cached [`Flow::rate`] of every live flow on the
    /// link: raised by every push to a flow crossing it, recomputed
    /// exactly whenever the link is swept. `hi < floor` proves that no
    /// flow on the link can move, so the eager re-share skips its list.
    hi: f64,
}

/// The live network: link occupancies and flow allotments.
#[derive(Debug)]
pub struct FlowNet {
    links: Vec<LinkState>,
    flows: Vec<Flow>,
    free_head: u32,
    /// Flows crossing each link, in open order ([`Flow::seq`] strictly
    /// increasing): `register` appends, `unregister` removes in place.
    per_link: Vec<Vec<u32>>,
    /// Flows collected by the current sweep, deduplicated.
    scratch: Vec<u32>,
    live_count: usize,
    /// Sweep-membership stamps; a flow is in the current sweep iff its
    /// stamp equals `epoch` (no per-reshare clearing).
    flow_mark: Vec<u64>,
    epoch: u64,
    /// Next value of [`Flow::seq`].
    next_seq: u64,
    stats: NetStats,
    /// Partition-safety guard: when set, opening a flow over a link
    /// outside this mask panics. `None` (the default) allows every link.
    allowed: Option<Vec<bool>>,
    /// Deferred-batching sink: when set, the first deferred op of an
    /// instant schedules a zero-delay [`FLUSH_KEY`] timer to this actor,
    /// whose owner then calls [`FlowNet::flush`].
    flush_actor: Option<ActorId>,
    /// Whether a flush timer is already pending for the current instant.
    flush_scheduled: bool,
    /// Links whose occupancy a deferred open or close changed since the
    /// last flush, each listed once (`link_dirty` is the membership mark).
    /// The flush re-rates exactly the flows still on these links, so a
    /// P-flow phase over a shared backbone examines O(P) indices.
    batch_links: Vec<u32>,
    link_dirty: Vec<bool>,
    /// Slab slots freed by deferred closes, returned to the free list at
    /// flush — never mid-batch, so batch indices stay unambiguous.
    batch_freed: Vec<u32>,
    #[cfg(test)]
    probe: tests::Probe,
}

impl FlowNet {
    /// Builds the network state from a platform's links. `SharingPolicy`
    /// has the one bottleneck variant, so the argument selects nothing.
    pub fn new(platform: &Platform, _policy: SharingPolicy) -> FlowNet {
        let links = platform
            .links()
            .iter()
            .map(|l| LinkState {
                capacity: l.bandwidth,
                share: f64::INFINITY,
                floor: f64::INFINITY,
                hi: 0.0,
            })
            .collect::<Vec<_>>();
        let per_link = links.iter().map(|_| Vec::new()).collect();
        let nlinks = links.len();
        FlowNet {
            links,
            flows: Vec::new(),
            free_head: NO_FREE,
            per_link,
            scratch: Vec::new(),
            live_count: 0,
            flow_mark: Vec::new(),
            epoch: 0,
            next_seq: 0,
            stats: NetStats::default(),
            allowed: None,
            flush_actor: None,
            flush_scheduled: false,
            batch_links: Vec::new(),
            link_dirty: vec![false; nlinks],
            batch_freed: Vec::new(),
            #[cfg(test)]
            probe: tests::Probe::default(),
        }
    }

    /// Restricts this network to `links`: any later [`FlowNet::open`]
    /// whose route leaves the set panics. The parallel replay engine
    /// installs each partition's link set here, so a partitioning bug
    /// (two partitions sharing a link, which would let their bandwidth
    /// interact) fails loudly and deterministically instead of silently
    /// diverging from the sequential replay.
    pub fn restrict_links(&mut self, links: &[LinkId]) {
        let mut mask = vec![false; self.links.len()];
        for l in links {
            mask[l.as_usize()] = true;
        }
        self.allowed = Some(mask);
    }

    /// Counters of the sharing work performed so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Opens a flow of `bytes` over `route`, with a per-flow bandwidth
    /// ceiling `cap` (bytes/s; pass the protocol-corrected nominal
    /// bandwidth). Returns the flow handle; the underlying activity
    /// completes when the last byte is transferred.
    ///
    /// # Panics
    /// Panics if `route` is empty — loopback transfers never reach the
    /// network layer.
    pub fn open(&mut self, kernel: &mut Kernel, route: &[LinkId], bytes: f64, cap: f64) -> FlowId {
        let id = self.register(kernel, route, bytes, cap);
        self.collect_neighbors(id.index);
        // The new flow has no rate yet, whatever its links say.
        if self.flow_mark[id.index as usize] != self.epoch {
            self.scratch.push(id.index); // youngest: open order holds
        }
        self.rerate_scratch(kernel);
        id
    }

    /// Opens a flow like [`FlowNet::open`] but defers the re-solve to the
    /// end of the current instant: the flow starts at rate 0 and receives
    /// its allotment at [`FlowNet::flush`]. Same-instant rate changes
    /// cannot move any completion time, and the flush solves the
    /// instant's final graph — the state the per-op sequence ends in — so
    /// the allotments are bit-identical to opening eagerly. Collective
    /// phases use this to pay O(1) solves for O(P) flows.
    ///
    /// A flow opened deferred must be closed with
    /// [`FlowNet::close_deferred`] (or after a flush has run), never with
    /// a same-instant [`FlowNet::close`], which would recycle its slab
    /// while the batch still references it.
    pub fn open_deferred(
        &mut self,
        kernel: &mut Kernel,
        route: &[LinkId],
        bytes: f64,
        cap: f64,
    ) -> FlowId {
        let id = self.register(kernel, route, bytes, cap);
        self.mark_route_dirty(id.index);
        self.schedule_flush(kernel);
        id
    }

    /// Registers a flow in the slab and per-link tables without solving.
    fn register(&mut self, kernel: &mut Kernel, route: &[LinkId], bytes: f64, cap: f64) -> FlowId {
        assert!(!route.is_empty(), "cannot open a flow over an empty route");
        assert!(cap > 0.0 && cap.is_finite(), "invalid flow cap: {cap}");
        if let Some(mask) = &self.allowed {
            for l in route {
                assert!(
                    mask[l.as_usize()],
                    "flow route uses link {} outside the partition's allowed set",
                    l.as_usize()
                );
            }
        }
        let activity = kernel.start_activity(bytes, 0.0);
        let index = if self.free_head != NO_FREE {
            let index = self.free_head;
            let f = &mut self.flows[index as usize];
            self.free_head = f.next_free;
            f.route.clear();
            f.route.extend_from_slice(route);
            f.activity = activity;
            f.cap = cap;
            f.rate = 0.0;
            f.seq = self.next_seq;
            f.generation = f.generation.wrapping_add(1);
            f.live = true;
            f.next_free = NO_FREE;
            index
        } else {
            let index = u32::try_from(self.flows.len()).expect("too many flows");
            self.flows.push(Flow {
                route: route.to_vec(),
                activity,
                cap,
                rate: 0.0,
                seq: self.next_seq,
                generation: 0,
                live: true,
                next_free: NO_FREE,
            });
            index
        };
        for l in route {
            self.per_link[l.as_usize()].push(index);
            self.refresh_share(l.as_usize());
        }
        self.next_seq += 1;
        self.live_count += 1;
        self.stats.flows_opened += 1;
        if self.live_count as u64 > self.stats.live_flow_hwm {
            self.stats.live_flow_hwm = self.live_count as u64;
        }
        FlowId {
            index,
            generation: self.flows[index as usize].generation,
        }
    }

    /// The kernel activity carrying this flow's progress (subscribe to it
    /// to learn of completion).
    pub fn activity(&self, id: FlowId) -> ActivityId {
        let f = &self.flows[id.index as usize];
        assert_eq!(f.generation, id.generation, "stale FlowId");
        f.activity
    }

    /// Closes a flow (after its activity completed, or to abort it) and
    /// redistributes bandwidth. Closing an already-closed flow is an
    /// error.
    pub fn close(&mut self, kernel: &mut Kernel, id: FlowId) {
        self.unregister(kernel, id);
        let f = &mut self.flows[id.index as usize];
        f.next_free = self.free_head;
        self.free_head = id.index;
        // The closed flow's former route links gained head-room.
        self.collect_neighbors(id.index);
        self.rerate_scratch(kernel);
    }

    /// Closes a flow like [`FlowNet::close`] but defers the re-solve to
    /// [`FlowNet::flush`]: the flow leaves the tables immediately (so any
    /// same-instant solve already sees the departure), its route links
    /// are marked dirty so the flush re-rates whoever is left on them,
    /// and its slab slot is quarantined until the flush. A whole
    /// collective phase retiring at one instant thus costs O(1) solves
    /// instead of O(P).
    pub fn close_deferred(&mut self, kernel: &mut Kernel, id: FlowId) {
        self.unregister(kernel, id);
        self.mark_route_dirty(id.index);
        self.batch_freed.push(id.index);
        self.schedule_flush(kernel);
    }

    /// Adds the links of `flow`'s route (kept in the slab past
    /// `unregister`) to the dirty set of the current batch.
    fn mark_route_dirty(&mut self, flow: u32) {
        for l in &self.flows[flow as usize].route {
            let lu = l.as_usize();
            if !self.link_dirty[lu] {
                self.link_dirty[lu] = true;
                self.batch_links.push(lu as u32);
            }
        }
    }

    /// Removes a flow from the live tables without recycling its slab or
    /// solving.
    fn unregister(&mut self, kernel: &mut Kernel, id: FlowId) {
        let f = &mut self.flows[id.index as usize];
        assert_eq!(f.generation, id.generation, "stale FlowId");
        assert!(f.live, "double close of flow {id:?}");
        f.live = false;
        kernel.cancel(f.activity); // no-op when already completed
        let route = std::mem::take(&mut self.flows[id.index as usize].route);
        for l in &route {
            // Closes mostly retire the oldest flows, so the scan ends
            // near the front; the ordered `remove` keeps open order.
            let v = &mut self.per_link[l.as_usize()];
            let pos = v
                .iter()
                .position(|x| *x == id.index)
                .expect("flow missing from link index");
            v.remove(pos);
            self.refresh_share(l.as_usize());
        }
        self.live_count -= 1;
        self.stats.flows_closed += 1;
        let f = &mut self.flows[id.index as usize];
        f.route = route; // keep the allocation for reuse
    }

    fn refresh_share(&mut self, link: usize) {
        let l = &mut self.links[link];
        let old = l.share;
        l.share = l.capacity / self.per_link[link].len() as f64;
        l.floor = old.min(l.share);
    }

    /// Installs the actor that owns the deferred-flush timer. The SMPI
    /// runtime points this at its transport, which recognises
    /// [`FLUSH_KEY`] and calls [`FlowNet::flush`]. Without a sink,
    /// deferred ops still batch but the owner must call `flush` itself
    /// (unit tests do exactly that).
    pub fn set_flush_actor(&mut self, actor: ActorId) {
        self.flush_actor = Some(actor);
    }

    fn schedule_flush(&mut self, kernel: &mut Kernel) {
        if self.flush_scheduled {
            return;
        }
        if let Some(actor) = self.flush_actor {
            kernel.set_timer(actor, Duration::ZERO, FLUSH_KEY);
            self.flush_scheduled = true;
        }
    }

    /// Applies every deferred open/close recorded since the last flush:
    /// one batched re-share over every flow on a dirty link — a superset
    /// of the flows whose link occupancies changed — in the instant's
    /// final graph, rate pushes in flow-open order. The bottleneck rate
    /// is a pure function of the final occupancies, so pushing it once
    /// per flow it moved reproduces the sequential sequence's
    /// end-of-instant rates bitwise. Quarantined slab slots return to the
    /// free list last, in close order, matching the sequential path's
    /// free-list state at the end of the instant.
    pub fn flush(&mut self, kernel: &mut Kernel) {
        self.flush_scheduled = false;
        // Every deferred op dirties its (non-empty) route.
        if self.batch_links.is_empty() {
            return;
        }
        self.stats.flush_batches += 1;
        #[cfg(test)]
        {
            self.probe.flush_examined = 0;
        }
        self.begin_sweep();
        for i in 0..self.batch_links.len() {
            let l = self.batch_links[i] as usize;
            #[cfg(test)]
            {
                self.probe.flush_examined += self.per_link[l].len();
            }
            self.sweep_link(l);
        }
        self.rerate_scratch(kernel);
        for i in 0..self.batch_freed.len() {
            let idx = self.batch_freed[i];
            self.flows[idx as usize].next_free = self.free_head;
            self.free_head = idx;
        }
        self.batch_freed.clear();
        for l in self.batch_links.drain(..) {
            self.link_dirty[l as usize] = false;
        }
    }

    /// Starts a deduplicating sweep into `scratch` under a fresh epoch.
    fn begin_sweep(&mut self) {
        if self.flow_mark.len() < self.flows.len() {
            self.flow_mark.resize(self.flows.len(), 0);
        }
        self.epoch += 1;
        self.scratch.clear();
    }

    /// Appends to `scratch` the flows on `link` this sweep has not seen,
    /// and tightens the link's `hi` to the largest rate cached on it.
    fn sweep_link(&mut self, link: usize) {
        let mut hi = 0.0;
        for &f in &self.per_link[link] {
            let rate = self.flows[f as usize].rate;
            if rate > hi {
                hi = rate;
            }
            if self.flow_mark[f as usize] != self.epoch {
                self.flow_mark[f as usize] = self.epoch;
                self.scratch.push(f);
            }
        }
        self.links[link].hi = hi;
    }

    /// Collects into `scratch`, once each, the live flows on the links of
    /// `flow`'s route (which the slab keeps past `unregister`), longest
    /// list first: every list is in open order, so whenever that list
    /// contains the others (a flat cluster's backbone) `scratch` is too.
    /// While every cached rate is exact, links whose flows the occupancy
    /// change on this route provably cannot move (`hi < floor`) are left
    /// out; a pending deferred batch leaves the flows on its dirty links
    /// stale until the flush, so then every link is swept.
    fn collect_neighbors(&mut self, flow: u32) {
        #[cfg(test)]
        if self.probe.reference_collect {
            return self.collect_neighbors_reference(flow);
        }
        self.begin_sweep();
        let movable_only = self.batch_links.is_empty();
        let swept =
            |net: &FlowNet, l: usize| !movable_only || net.links[l].hi >= net.links[l].floor;
        let Some(longest) = (self.flows[flow as usize].route.iter())
            .map(|l| l.as_usize())
            .filter(|&l| swept(self, l))
            .max_by_key(|&l| self.per_link[l].len())
        else {
            return;
        };
        self.sweep_link(longest);
        for i in 0..self.flows[flow as usize].route.len() {
            let l = self.flows[flow as usize].route[i].as_usize();
            if l != longest && swept(self, l) {
                self.sweep_link(l);
            }
        }
    }

    /// Bottleneck re-solve of the (deduplicated) flows in `scratch`.
    fn rerate_scratch(&mut self, kernel: &mut Kernel) {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.stats.resolves += 1;
        self.stats.examined += scratch.len() as u64;
        // Keep the flows whose rate moved, caching the new one.
        let mut moved = 0;
        for i in 0..scratch.len() {
            let idx = scratch[i];
            let rate = self.bottleneck_rate(idx);
            let f = &mut self.flows[idx as usize];
            if rate.to_bits() != f.rate.to_bits() {
                f.rate = rate;
                scratch[moved] = idx;
                moved += 1;
            }
        }
        scratch.truncate(moved);
        // Push in open order, not slab-index order: see Flow::seq. A
        // sweep over nested lists arrives in it; only a route whose lists
        // do not nest, or a multi-link flush, has to be sorted.
        let seq = |i: u32| self.flows[i as usize].seq;
        if !scratch.windows(2).all(|w| seq(w[0]) < seq(w[1])) {
            #[cfg(test)]
            {
                self.probe.fallback_sorts += 1;
            }
            scratch.sort_unstable_by_key(|&i| seq(i));
        }
        for &idx in &scratch {
            self.push_rate(kernel, idx);
        }
        scratch.clear();
        self.scratch = scratch;
    }

    /// Pushes flow `idx`'s freshly cached rate to the kernel — the one
    /// place a rate leaves this crate — and raises `hi` on its route.
    fn push_rate(&mut self, kernel: &mut Kernel, idx: u32) {
        let f = &self.flows[idx as usize];
        for l in &f.route {
            let hi = &mut self.links[l.as_usize()].hi;
            if f.rate > *hi {
                *hi = f.rate;
            }
        }
        self.stats.rate_updates += 1;
        #[cfg(test)]
        {
            self.probe.rate_log.push((f.activity, f.rate));
            self.probe.told.insert(f.activity, f.rate);
        }
        kernel.set_rate(f.activity, f.rate);
    }

    fn bottleneck_rate(&self, flow: u32) -> f64 {
        let f = &self.flows[flow as usize];
        let mut rate = f.cap;
        for l in &f.route {
            debug_assert!(!self.per_link[l.as_usize()].is_empty());
            rate = rate.min(self.links[l.as_usize()].share);
        }
        rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::topology::{flat_cluster, FlatClusterSpec};
    use platform::HostId;

    impl FlowNet {
        /// Number of currently open flows.
        pub(crate) fn live_flows(&self) -> usize {
            self.live_count
        }

        /// The rate each live flow currently receives.
        pub(crate) fn current_rates(&self) -> Vec<(FlowId, f64)> {
            let mut out = Vec::new();
            for (idx, f) in self.flows.iter().enumerate() {
                if f.live {
                    let id = FlowId {
                        index: idx as u32,
                        generation: f.generation,
                    };
                    out.push((id, f.rate));
                }
            }
            out
        }
    }

    /// Test-only instrumentation carried by every [`FlowNet`].
    #[derive(Debug, Default)]
    pub(super) struct Probe {
        /// Flow indices the last flush read from `per_link` (regression
        /// guard: must stay linear in the batch size).
        pub flush_examined: usize,
        /// Times `rerate_scratch` found its input out of open order.
        pub fallback_sorts: usize,
        /// Every `(activity, rate)` pushed to the kernel, in push order.
        pub rate_log: Vec<(ActivityId, f64)>,
        /// The rate the kernel was last told for each activity (it
        /// starts every flow's activity at rate 0).
        pub told: std::collections::HashMap<ActivityId, f64>,
        /// Routes `collect_neighbors` through the reference below.
        pub reference_collect: bool,
    }

    impl FlowNet {
        /// The parent design's neighbour collection — concatenate, sort and
        /// dedup by slab index — kept as the reference the sweep is tested
        /// against (`rerate_scratch` then finds it out of open order and
        /// sorts, as the parent always did).
        pub(super) fn collect_neighbors_reference(&mut self, flow: u32) {
            self.begin_sweep();
            for l in &self.flows[flow as usize].route {
                self.scratch.extend(self.per_link[l.as_usize()].iter());
            }
            self.scratch.sort_unstable();
            self.scratch.dedup();
            for &f in &self.scratch {
                self.flow_mark[f as usize] = self.epoch;
            }
        }
    }

    fn net() -> (Platform, FlowNet, Kernel) {
        let p = flat_cluster(&FlatClusterSpec {
            name: "t".into(),
            nodes: 4,
            host_speed: 1e9,
            cores: 1,
            cache_bytes: 1 << 20,
            link_bandwidth: 100.0,
            link_latency: 0.0,
            backbone_bandwidth: 150.0,
            backbone_latency: 0.0,
        });
        let f = FlowNet::new(&p, SharingPolicy::Bottleneck);
        (p, f, Kernel::new())
    }

    fn route(p: &Platform, s: u32, d: u32) -> Vec<LinkId> {
        let mut r = Vec::new();
        p.route(HostId(s), HostId(d), &mut r);
        r
    }

    #[test]
    fn single_flow_gets_bottleneck_bandwidth() {
        let (p, mut net, mut k) = net();
        let r = route(&p, 0, 1);
        let f = net.open(&mut k, &r, 1000.0, 1e9);
        let rates = net.current_rates();
        assert_eq!(rates.len(), 1);
        assert_eq!(rates[0].0, f);
        assert_eq!(rates[0].1, 100.0); // NIC limits, not the 150 backbone
    }

    #[test]
    fn restricted_net_accepts_allowed_routes() {
        let (p, mut net, mut k) = net();
        let r = route(&p, 0, 1);
        net.restrict_links(&r);
        let _f = net.open(&mut k, &r, 1000.0, 1e9);
        assert_eq!(net.live_flows(), 1);
    }

    #[test]
    #[should_panic(expected = "outside the partition's allowed set")]
    fn restricted_net_rejects_foreign_routes() {
        let (p, mut net, mut k) = net();
        // Allow only 0->1's links; a 2->3 flow crosses other NICs.
        net.restrict_links(&route(&p, 0, 1));
        net.open(&mut k, &route(&p, 2, 3), 1000.0, 1e9);
    }

    #[test]
    fn cap_limits_flow_rate() {
        let (p, mut net, mut k) = net();
        let r = route(&p, 0, 1);
        let _f = net.open(&mut k, &r, 1000.0, 42.0);
        assert_eq!(net.current_rates()[0].1, 42.0);
    }

    #[test]
    fn backbone_contention_shares_fairly() {
        let (p, mut net, mut k) = net();
        // Two flows from different sources to different destinations: they
        // only share the 150-capacity backbone => 75 each.
        let f1 = net.open(&mut k, &route(&p, 0, 1), 1e6, 1e9);
        let f2 = net.open(&mut k, &route(&p, 2, 3), 1e6, 1e9);
        let rates = net.current_rates();
        assert_eq!(rates.len(), 2);
        for (id, rate) in rates {
            assert!(id == f1 || id == f2);
            assert_eq!(rate, 75.0);
        }
    }

    #[test]
    fn stats_count_opens_closes_and_resolves() {
        let (p, mut net, mut k) = net();
        let f1 = net.open(&mut k, &route(&p, 0, 1), 1e6, 1e9);
        let f2 = net.open(&mut k, &route(&p, 2, 3), 1e6, 1e9);
        net.close(&mut k, f1);
        net.close(&mut k, f2);
        let s = net.stats();
        assert_eq!(s.flows_opened, 2);
        assert_eq!(s.flows_closed, 2);
        assert!(s.resolves >= 3, "{s:?}");
        assert!(s.rate_updates >= 2, "{s:?}");
    }

    #[test]
    fn closing_a_flow_restores_bandwidth() {
        let (p, mut net, mut k) = net();
        let f1 = net.open(&mut k, &route(&p, 0, 1), 1e6, 1e9);
        let f2 = net.open(&mut k, &route(&p, 2, 3), 1e6, 1e9);
        net.close(&mut k, f1);
        let rates = net.current_rates();
        assert_eq!(rates.len(), 1);
        assert_eq!(rates[0].0, f2);
        assert_eq!(rates[0].1, 100.0);
        assert_eq!(net.live_flows(), 1);
    }

    #[test]
    fn flow_completion_time_under_contention() {
        // Two flows on the same NIC uplink (50 each), one finishes, the
        // survivor speeds up to 100.
        let (p, mut net, mut k) = net();
        let r1 = route(&p, 0, 1);
        let r2 = route(&p, 0, 2);
        let f1 = net.open(&mut k, &r1, 100.0, 1e9); // shares uplink of host 0
        let f2 = net.open(&mut k, &r2, 1000.0, 1e9);
        let a1 = net.activity(f1);
        let a2 = net.activity(f2);
        k.subscribe(a1, simkernel::ActorId(0));
        k.subscribe(a2, simkernel::ActorId(1));
        // f1: 100 bytes at 50 B/s => done at t=2. f2 then has 1000-100=900
        // left at 100 B/s => done at 2 + 9 = 11.
        let (actor, _) = k.next_wake().unwrap();
        assert_eq!(actor, simkernel::ActorId(0));
        assert_eq!(k.now().as_secs(), 2.0);
        net.close(&mut k, f1);
        let (actor, _) = k.next_wake().unwrap();
        assert_eq!(actor, simkernel::ActorId(1));
        assert!((k.now().as_secs() - 11.0).abs() < 1e-9);
    }

    /// Closed form, no code shared with the sweep: N equal flows opened
    /// together between disjoint host pairs meet only on the backbone,
    /// get `capacity / N` each and all complete at `N * bytes /
    /// capacity` (powers of two, so every operation is exact).
    #[test]
    fn equal_flows_on_one_backbone_finish_together() {
        for n in [2u32, 4, 8] {
            let p = flat_cluster(&FlatClusterSpec {
                name: "bb".into(),
                nodes: 2 * n,
                host_speed: 1e9,
                cores: 1,
                cache_bytes: 1 << 20,
                link_bandwidth: 128.0,
                link_latency: 0.0,
                backbone_bandwidth: 64.0,
                backbone_latency: 0.0,
            });
            let mut net = FlowNet::new(&p, SharingPolicy::Bottleneck);
            let mut k = Kernel::new();
            let flows: Vec<FlowId> = (0..n)
                .map(|i| net.open(&mut k, &route(&p, i, i + n), 1024.0, 1e9))
                .collect();
            for (i, f) in flows.iter().enumerate() {
                k.subscribe(net.activity(*f), simkernel::ActorId(i as u32));
            }
            let want = f64::from(n) * 1024.0 / 64.0;
            for _ in 0..n {
                let (actor, _) = k.next_wake().expect("a flow never completed");
                assert_eq!(k.now().as_secs(), want, "N={n}");
                net.close(&mut k, flows[actor.0 as usize]);
            }
            assert!(k.next_wake().is_none());
        }
    }

    /// Worked by hand: f1 (1000 B) runs alone on host 0's NIC at 100 B/s;
    /// at t=4 f2 (300 B) joins the NIC and both drop to 50 B/s. f2 is
    /// done at 4 + 300/50 = 10, when f1 has 1000 - 400 - 300 = 300 B left
    /// and the NIC to itself again: done at 10 + 300/100 = 13.
    #[test]
    fn staggered_pair_completes_at_the_hand_worked_instants() {
        let (p, mut net, mut k) = net();
        let f1 = net.open(&mut k, &route(&p, 0, 1), 1000.0, 1e9);
        k.subscribe(net.activity(f1), simkernel::ActorId(1));
        k.set_timer(simkernel::ActorId(9), Duration::from_secs(4.0), 0);
        assert_eq!(k.next_wake().unwrap().0, simkernel::ActorId(9));
        let f2 = net.open(&mut k, &route(&p, 0, 2), 300.0, 1e9);
        k.subscribe(net.activity(f2), simkernel::ActorId(2));
        assert_eq!(k.next_wake().unwrap().0, simkernel::ActorId(2));
        assert_eq!(k.now().as_secs(), 10.0);
        net.close(&mut k, f2);
        assert_eq!(k.next_wake().unwrap().0, simkernel::ActorId(1));
        assert_eq!(k.now().as_secs(), 13.0);
    }

    /// A cap-bound bystander crosses the backbone while `k` other flows
    /// open and close around it at awkward instants, none of them taking
    /// its share below its cap. Its rate never changes, so nothing may
    /// touch its progress: left alone it completes at exactly `bytes /
    /// cap`; squeezed onto a shared NIC at `t` it has `bytes - t * cap`
    /// left — rounded once, not once per passer-by — and completes at
    /// `t + (bytes - t * cap) / 50`. Both to the bit (settling at each
    /// of these fourteen visits would land the second 4 ulp late).
    #[test]
    fn cap_bound_bystander_is_untouched_by_passing_reshares() {
        use simkernel::{ActorId, Duration};
        let (bytes, cap, passers) = (1234.5, 73.0, 7);
        for squeeze in [false, true] {
            let (p, mut net, mut k) = net();
            let bystander = net.open(&mut k, &route(&p, 0, 1), bytes, cap);
            k.subscribe(net.activity(bystander), ActorId(0));
            let pause = |k: &mut Kernel, s: f64| {
                k.set_timer(ActorId(9), Duration::from_secs(s), 0);
                assert_eq!(k.next_wake().unwrap().0, ActorId(9));
            };
            // One passer at a time: 150 / 2 = 75 >= 73 on the backbone.
            for i in 0..passers {
                pause(&mut k, 0.1 + 0.013 * f64::from(i));
                let passer = net.open(&mut k, &route(&p, 2, 3), 1e6, 1e9);
                pause(&mut k, 0.07);
                net.close(&mut k, passer);
                assert_eq!(rate_of(&net, bystander), cap);
            }
            let mut want = bytes / cap;
            if squeeze {
                pause(&mut k, 0.3);
                let at = k.now().as_secs();
                let _squeezer = net.open(&mut k, &route(&p, 0, 2), 1e6, 1e9);
                assert_eq!(rate_of(&net, bystander), 50.0);
                want = at + (bytes - at * cap) / 50.0;
            }
            assert_eq!(k.next_wake().unwrap().0, ActorId(0));
            assert_eq!(
                k.now().as_secs().to_bits(),
                want.to_bits(),
                "squeeze={squeeze}: {} vs {want}",
                k.now().as_secs()
            );
            // Each passer ran at its 75 B/s backbone share, so its close
            // sweeps the backbone and examines the bystander — pushing
            // nothing to it, and tightening `hi` back to 73 so that the
            // next passer's open (share 75) skips the backbone again.
            let (s, squeezed) = (net.stats(), u64::from(squeeze) * 2);
            assert_eq!(s.rate_updates, 1 + passers as u64 + squeezed);
            assert_eq!(s.examined, 1 + 2 * passers as u64 + squeezed);
        }
    }

    #[test]
    #[should_panic(expected = "empty route")]
    fn empty_route_rejected() {
        let (_p, mut net, mut k) = net();
        let _ = net.open(&mut k, &[], 10.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "double close")]
    fn double_close_rejected() {
        let (p, mut net, mut k) = net();
        let f = net.open(&mut k, &route(&p, 0, 1), 10.0, 1.0);
        net.close(&mut k, f);
        net.close(&mut k, f);
    }

    #[test]
    fn slot_reuse_yields_fresh_generation() {
        let (p, mut net, mut k) = net();
        let f1 = net.open(&mut k, &route(&p, 0, 1), 10.0, 1.0);
        net.close(&mut k, f1);
        let f2 = net.open(&mut k, &route(&p, 0, 1), 10.0, 1.0);
        assert_ne!(f1, f2);
        let _ = net.activity(f2); // must not panic
    }

    /// The rate a flow currently runs at (its cached allotment).
    fn rate_of(net: &FlowNet, id: FlowId) -> f64 {
        net.flows[id.index as usize].rate
    }

    #[test]
    fn deferred_batch_matches_sequential_rates() {
        let (p, mut seq, mut k_seq) = net();
        let mut def = FlowNet::new(&p, SharingPolicy::Bottleneck);
        let mut k_def = Kernel::new();
        // A symmetric 2-pair phase plus one asymmetric flow.
        let routes = [route(&p, 0, 1), route(&p, 2, 3), route(&p, 0, 2)];
        let mut pairs = Vec::new();
        for r in &routes {
            pairs.push((
                seq.open(&mut k_seq, r, 1e6, 90.0),
                def.open_deferred(&mut k_def, r, 1e6, 90.0),
            ));
        }
        def.flush(&mut k_def);
        for (fs, fd) in &pairs {
            assert_eq!(rate_of(&seq, *fs).to_bits(), rate_of(&def, *fd).to_bits());
        }
        // Retire the phase; the asymmetric survivor must re-expand.
        let (fs, fd) = pairs.remove(0);
        seq.close(&mut k_seq, fs);
        def.close_deferred(&mut k_def, fd);
        def.flush(&mut k_def);
        for (fs, fd) in &pairs {
            assert_eq!(rate_of(&seq, *fs).to_bits(), rate_of(&def, *fd).to_bits());
        }
        assert_eq!(seq.live_flows(), def.live_flows());
    }

    /// The flush must read O(P) flow indices for a P-flow phase over a
    /// shared backbone: 3P for the re-solve (P on the backbone plus one
    /// per NIC link at either end). A per-flow seed list (P²/2 here) or a
    /// second P-flow sweep cannot come back unnoticed.
    #[test]
    fn flush_work_is_linear_in_the_batch() {
        for p in [64u32, 256, 1024] {
            let plat = flat_cluster(&FlatClusterSpec {
                name: "lin".into(),
                nodes: p,
                host_speed: 1e9,
                cores: 1,
                cache_bytes: 1 << 20,
                link_bandwidth: 100.0,
                link_latency: 0.0,
                backbone_bandwidth: 150.0,
                backbone_latency: 0.0,
            });
            let mut net = FlowNet::new(&plat, SharingPolicy::Bottleneck);
            let mut k = Kernel::new();
            let flows: Vec<FlowId> = (0..p)
                .map(|i| net.open_deferred(&mut k, &route(&plat, i, (i + 1) % p), 1e6, 90.0))
                .collect();
            net.flush(&mut k);
            let bound = 4 * p as usize;
            assert!(
                net.probe.flush_examined <= bound,
                "P={p}: open flush examined {} > {bound}",
                net.probe.flush_examined
            );
            // Retire all but one, so the close flush has a survivor.
            for f in &flows[1..] {
                net.close_deferred(&mut k, *f);
            }
            net.flush(&mut k);
            assert!(
                net.probe.flush_examined <= bound,
                "P={p}: close flush examined {} > {bound}",
                net.probe.flush_examined
            );
            assert_eq!(net.live_flows(), 1);
            assert_eq!(rate_of(&net, flows[0]), 90.0);
        }
    }

    #[test]
    fn flush_timer_reaches_the_installed_actor() {
        let (p, mut net, mut k) = net();
        net.set_flush_actor(simkernel::ActorId(7));
        let _f = net.open_deferred(&mut k, &route(&p, 0, 1), 1e6, 90.0);
        let (actor, wake) = k.next_wake().expect("flush timer scheduled");
        assert_eq!(actor, simkernel::ActorId(7));
        assert!(matches!(wake, simkernel::Wake::Timer(FLUSH_KEY)));
        assert_eq!(k.now().as_secs(), 0.0, "flush fires within the instant");
        net.flush(&mut k);
        assert_eq!(net.stats().flush_batches, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use platform::topology::{cabinet_cluster, flat_cluster, CabinetClusterSpec, FlatClusterSpec};
    use platform::HostId;
    use proptest::prelude::*;
    use simkernel::ActorId;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Referee: drive a net through a random eager open/close
        /// schedule (`(s, d, close_at, cap)`: open a flow s→d capped at
        /// `cap`, then close the flow opened `close_at` steps ago) and,
        /// after every op, hold it against a from-scratch
        /// [`sharing::maxmin_rates`] run over the same live flows. The
        /// bottleneck share never allocates a flow more than max-min
        /// fairness does (1e-12 is the solver's own tie tolerance), and
        /// no link's summed allotment exceeds its capacity.
        #[test]
        fn bottleneck_never_exceeds_maxmin(
            ops in proptest::collection::vec((0u32..8, 0u32..8, 0usize..12, 1.0f64..200.0), 1..60),
        ) {
            for p in [churn_platform(), cabinet_platform()] {
                let mut k = Kernel::new();
                let mut net = FlowNet::new(&p, SharingPolicy::Bottleneck);
                let mut r = Vec::new();
                let mut open: Vec<FlowId> = Vec::new();
                for &(s, d, close_at, cap) in &ops {
                    if s != d {
                        p.route(HostId(s), HostId(d), &mut r);
                        open.push(net.open(&mut k, &r, 1e6, cap));
                        assert_within_maxmin(&p, &net);
                    }
                    if close_at < open.len() {
                        let f = open.swap_remove(open.len() - 1 - close_at);
                        net.close(&mut k, f);
                        assert_within_maxmin(&p, &net);
                    }
                }
            }
        }
    }

    fn assert_within_maxmin(p: &Platform, net: &FlowNet) {
        let caps: Vec<f64> = p.links().iter().map(|l| l.bandwidth).collect();
        let flow_refs: Vec<Option<(&[LinkId], f64)>> = (net.flows.iter())
            .map(|f| f.live.then_some((f.route.as_slice(), f.cap)))
            .collect();
        let want = sharing::maxmin_rates(caps.clone(), flow_refs);
        let mut used = vec![0.0f64; caps.len()];
        for (idx, w) in want.iter().enumerate() {
            let Some(w) = w else { continue };
            let f = &net.flows[idx];
            assert!(
                f.rate <= w * (1.0 + 1e-12),
                "flow {idx}: bottleneck {} above max-min {w}",
                f.rate
            );
            for l in &f.route {
                used[l.as_usize()] += f.rate;
            }
        }
        for (l, (used, cap)) in used.iter().zip(&caps).enumerate() {
            assert!(
                *used <= cap * (1.0 + 1e-9),
                "link {l} oversubscribed: {used} > {cap}"
            );
        }
    }

    fn churn_platform() -> Platform {
        flat_cluster(&FlatClusterSpec {
            name: "churn".into(),
            nodes: 8,
            host_speed: 1e9,
            cores: 1,
            cache_bytes: 1,
            link_bandwidth: 100.0,
            link_latency: 0.0,
            backbone_bandwidth: 370.0,
            backbone_latency: 0.0,
        })
    }

    /// Two cabinets of four nodes: intra-cabinet flows share NIC links
    /// only, so — unlike on the flat platform, where the backbone joins
    /// everything — which links a batch dirtied decides who is re-rated.
    fn cabinet_platform() -> Platform {
        cabinet_cluster(&CabinetClusterSpec {
            name: "cab".into(),
            cabinets: 2,
            nodes_per_cabinet: 4,
            host_speed: 1e9,
            cores: 1,
            cache_bytes: 1,
            link_bandwidth: 100.0,
            link_latency: 0.0,
            cabinet_bandwidth: 170.0,
            cabinet_latency: 0.0,
            backbone_bandwidth: 230.0,
            backbone_latency: 0.0,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Differential: a schedule whose ops are a random mix of eager
        /// `open`/`close` and deferred ones on shared links — what `smpi`
        /// does with application traffic next to collective traffic —
        /// ends every instant (one flush) with bitwise the allotments
        /// the all-eager sequential path holds.
        /// The flush re-rates every flow on a dirty link, a superset of
        /// the flows whose allotment can have changed; this is the
        /// exactness gate the always-on collective batching rests on.
        /// Along the way every link table must stay in open order with
        /// `hi` above every rate cached on it, caches must be exact
        /// whenever nothing is pending, and a third net whose neighbour
        /// collection is the unfiltered concat + sort + dedup of every
        /// route link must push the very same `(activity, rate)`
        /// sequence to its kernel as the filtered sweep, keep every other
        /// counter equal, and — when the surviving flows are finally
        /// left to drain — pop the same completions at the same bits.
        #[test]
        fn deferred_flush_is_bitwise_equal_to_sequential(
            instants in proptest::collection::vec(
                proptest::collection::vec(
                    (0u32..8, 0u32..8, 0usize..12, 1.0f64..200.0, 0u8..4), 1..5),
                1..16),
        ) {
            for p in [churn_platform(), cabinet_platform()] {
                assert_mixed_matches_sequential(&p, &instants);
            }
        }
    }

    /// One instant's ops: `(src, dst, close_at, cap, mix)` — open a flow
    /// src→dst (deferred when `mix & 1`), then close the flow opened
    /// `close_at` steps ago (deferred when `mix & 2`).
    type MixedOps = Vec<(u32, u32, usize, f64, u8)>;

    /// Every `per_link[l]` is strictly increasing in `Flow::seq`, holds
    /// exactly the live flows routed over `l`, `share` is the division
    /// `bottleneck_rate` used to perform per neighbour, and `hi` bounds
    /// every rate cached on the link.
    fn assert_link_tables(net: &FlowNet) {
        for (l, list) in net.per_link.iter().enumerate() {
            let seq = |f: u32| net.flows[f as usize].seq;
            assert!(
                list.windows(2).all(|w| seq(w[0]) < seq(w[1])),
                "link {l} out of open order: {list:?}"
            );
            let mut live: Vec<u32> = (0..net.flows.len() as u32)
                .filter(|&f| {
                    let f = &net.flows[f as usize];
                    f.live && f.route.iter().any(|x| x.as_usize() == l)
                })
                .collect();
            live.sort_unstable_by_key(|&f| seq(f));
            assert_eq!(*list, live, "link {l} does not hold its live flows");
            let share = net.links[l].capacity / list.len() as f64;
            assert_eq!(net.links[l].share.to_bits(), share.to_bits(), "link {l}");
            for &f in list {
                let rate = net.flows[f as usize].rate;
                assert!(net.links[l].hi >= rate, "link {l}: hi below {rate}");
            }
        }
    }

    /// With nothing pending, every live flow's cached rate is its
    /// bottleneck rate — what the `hi < floor` skip rests on.
    fn assert_caches_exact(net: &FlowNet) {
        if !net.batch_links.is_empty() {
            return;
        }
        for (idx, f) in net.flows.iter().enumerate().filter(|(_, f)| f.live) {
            let derived = net.bottleneck_rate(idx as u32);
            assert!(
                f.rate.to_bits() == derived.to_bits(),
                "flow {idx}: cached {} vs derived {derived}",
                f.rate
            );
        }
    }

    /// Closes each flow as it completes until the kernel runs dry;
    /// returns the completions in pop order with their instants' bits.
    fn drain(net: &mut FlowNet, k: &mut Kernel, open: &[FlowId]) -> Vec<(ActivityId, u64)> {
        for f in open {
            k.subscribe(net.activity(*f), ActorId(1));
        }
        let mut popped = Vec::new();
        while let Some((_, wake)) = k.next_wake() {
            let simkernel::Wake::Activity(a) = wake else {
                panic!("unexpected {wake:?}")
            };
            popped.push((a, k.now().as_secs().to_bits()));
            let done = open.iter().find(|f| net.activity(**f) == a).unwrap();
            net.close(k, *done);
        }
        popped
    }

    fn rate_log_bits(net: &mut FlowNet) -> Vec<(ActivityId, u64)> {
        let log = std::mem::take(&mut net.probe.rate_log);
        log.into_iter().map(|(a, r)| (a, r.to_bits())).collect()
    }

    fn assert_mixed_matches_sequential(p: &Platform, instants: &[MixedOps]) {
        let mut k_seq = Kernel::new();
        let mut k_def = Kernel::new();
        let mut k_ref = Kernel::new();
        let mut seq = FlowNet::new(p, SharingPolicy::Bottleneck);
        let mut def = FlowNet::new(p, SharingPolicy::Bottleneck);
        // Same ops as `def`, hence the same `FlowId`s.
        let mut reference = FlowNet::new(p, SharingPolicy::Bottleneck);
        reference.probe.reference_collect = true;
        let mut r = Vec::new();
        // (sequential id, mixed id, opened deferred this instant)
        let mut open: Vec<(FlowId, FlowId, bool)> = Vec::new();
        for ops in instants {
            for (s, d, close_at, cap, mix) in ops {
                let (defer_open, defer_close) = (mix & 1 != 0, mix & 2 != 0);
                if s != d {
                    p.route(HostId(*s), HostId(*d), &mut r);
                    let [fd, fr] =
                        [(&mut def, &mut k_def), (&mut reference, &mut k_ref)].map(|(net, k)| {
                            match defer_open {
                                true => net.open_deferred(k, &r, 1e6, *cap),
                                false => net.open(k, &r, 1e6, *cap),
                            }
                        });
                    assert_eq!(fd, fr);
                    open.push((seq.open(&mut k_seq, &r, 1e6, *cap), fd, defer_open));
                }
                if *close_at < open.len() {
                    let (fs, fd, in_batch) = open.swap_remove(open.len() - 1 - close_at);
                    seq.close(&mut k_seq, fs);
                    // A flow of the pending batch may only leave deferred.
                    for (net, k) in [(&mut def, &mut k_def), (&mut reference, &mut k_ref)] {
                        match defer_close || in_batch {
                            true => net.close_deferred(k, fd),
                            false => net.close(k, fd),
                        }
                    }
                }
                for net in [&seq, &def, &reference] {
                    assert_link_tables(net);
                    assert_caches_exact(net);
                }
            }
            def.flush(&mut k_def);
            reference.flush(&mut k_ref);
            assert_caches_exact(&def);
            assert_eq!(
                rate_log_bits(&mut def),
                rate_log_bits(&mut reference),
                "sweep and reference collection pushed different rates"
            );
            // Skipping a link saves examinations and nothing else.
            let examined_apart = |net: &FlowNet| NetStats {
                examined: 0,
                ..net.stats()
            };
            assert_eq!(examined_apart(&def), examined_apart(&reference));
            assert!(def.stats().examined <= reference.stats().examined);
            for (fs, fd, in_batch) in &mut open {
                *in_batch = false;
                let rs = seq.flows[fs.index as usize].rate;
                let rd = def.flows[fd.index as usize].rate;
                assert!(
                    rs.to_bits() == rd.to_bits(),
                    "sequential {rs} vs mixed {rd}"
                );
            }
            assert_eq!(seq.live_flows(), def.live_flows());
            // The kernels must have been told the same rates: what each
            // kernel was last told for a flow is the flow's rate, which
            // is equal in both, so between two instants both drain
            // every flow alike.
            for (fs, fd, _) in &open {
                for (net, f) in [(&seq, fs), (&def, fd)] {
                    let told = net.probe.told.get(&net.activity(*f)).copied();
                    let rate = net.flows[f.index as usize].rate;
                    assert_eq!(told.unwrap_or(0.0).to_bits(), rate.to_bits());
                }
            }
            // Let a second pass (no flow can drain 1e6 bytes within the
            // schedule).
            for k in [&mut k_seq, &mut k_def, &mut k_ref] {
                k.set_timer(ActorId(0), Duration::from_secs(1.0), 0);
                assert!(k.next_wake().is_some());
            }
        }
        let mixed: Vec<FlowId> = open.iter().map(|o| o.1).collect();
        assert_eq!(
            drain(&mut def, &mut k_def, &mixed),
            drain(&mut reference, &mut k_ref, &mixed),
            "sweep and reference collection drained differently"
        );
        assert_eq!(rate_log_bits(&mut def), rate_log_bits(&mut reference));
        assert_eq!(k_def.events_processed(), k_ref.events_processed());
        assert_eq!(def.live_flows(), 0);
    }

    /// Eager LU-shaped churn under the bottleneck policy: every step
    /// each node of a 2x4 grid sends east and south, and the oldest
    /// flows retire once 12 are live. Returns the number of fallback
    /// sorts and everything pushed to the kernel.
    fn lu_churn(p: &Platform, reference: bool) -> (usize, Vec<(ActivityId, u64)>) {
        let mut k = Kernel::new();
        let mut net = FlowNet::new(p, SharingPolicy::Bottleneck);
        net.probe.reference_collect = reference;
        let mut r = Vec::new();
        let mut open = std::collections::VecDeque::new();
        for _step in 0..20 {
            for node in 0..8u32 {
                let east = node / 4 * 4 + (node + 1) % 4;
                let south = (node + 4) % 8;
                for peer in [east, south] {
                    p.route(HostId(node), HostId(peer), &mut r);
                    open.push_back(net.open(&mut k, &r, 1e6, 90.0));
                    if open.len() > 12 {
                        net.close(&mut k, open.pop_front().unwrap());
                    }
                }
            }
        }
        (net.probe.fallback_sorts, rate_log_bits(&mut net))
    }

    /// The sort-free path must be the one LU takes on a flat cluster
    /// (every NIC list nests in the backbone's), and the sorting
    /// fallback must stay exercised — with the reference's results —
    /// where lists do not nest: neither can silently change sides.
    #[test]
    fn nested_routes_never_sort_and_cabinet_routes_do() {
        let (flat, cab) = (churn_platform(), cabinet_platform());
        let (flat_sorts, flat_log) = lu_churn(&flat, false);
        assert_eq!(flat_sorts, 0, "flat cluster fell back to sorting");
        assert_eq!(flat_log, lu_churn(&flat, true).1);
        let (cab_sorts, cab_log) = lu_churn(&cab, false);
        assert!(cab_sorts > 0, "two-cabinet churn never took the fallback");
        assert_eq!(cab_log, lu_churn(&cab, true).1);
    }
}
