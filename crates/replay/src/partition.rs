//! Rank partitioning for conservative parallel replay.
//!
//! A time-independent trace fixes every communication partner up front,
//! so the rank set can be split — before any simulation — into *coupling
//! islands*: groups of ranks that exchange no messages with, and share
//! no network links with, any rank outside the group. Two islands can
//! never influence each other's simulated state (no messages, and no
//! bandwidth interaction, since the sharing solver only couples flows on
//! common links), so the effective lookahead between them is unbounded
//! and each island replays independently — the conservative-PDES null-
//! message bound degenerates to "no synchronization needed". The
//! [`crate::parallel`] engine schedules islands across worker threads;
//! this module computes the islands and the quality figures
//! (`titreplay inspect` reports them) that predict parallel efficiency.
//!
//! Islands are computed as connected components of the union of two
//! relations over ranks:
//!
//! 1. **communication** — `a ~ b` when the trace has a send or receive
//!    between `a` and `b`; any collective couples *all* ranks;
//! 2. **link sharing** — `a ~ b` when the platform routes of their
//!    observed transfers share a network link (e.g. every pair of nodes
//!    in a flat cluster couples through the shared backbone).

use platform::{HostId, LinkId, Platform};
use titrace::{Action, ActionSource, Rank};

/// The communication shape of a trace, gathered by one streaming pass
/// over the per-rank action cursors (no simulation involved).
#[derive(Debug, Clone)]
pub struct CommScan {
    /// Number of ranks scanned.
    pub ranks: u32,
    /// Actions per rank (the event-count estimate used for balance).
    pub actions_per_rank: Vec<u64>,
    /// Deduplicated directed communication edges `(src, dst)` observed
    /// in send *and* receive actions, in ascending order.
    pub edges: Vec<(u32, u32)>,
    /// Largest message observed on the matching `edges` entry (the
    /// eager-protocol certificate input of [`plan_subshards`]).
    pub edge_max_bytes: Vec<u64>,
    /// Whether any collective appears (a collective couples all ranks).
    pub has_collective: bool,
}

/// Scans `sources` (consuming them) into a [`CommScan`].
///
/// # Errors
/// Fails on a cursor fault (I/O, parse, decode) or an out-of-range peer
/// rank.
pub fn scan_sources(sources: Vec<Box<dyn ActionSource>>) -> Result<CommScan, String> {
    scan(sources, false)
}

/// [`scan_sources`] for a caller that only partitions: it returns at the
/// first collective, which already forces one island and an
/// uncertifiable sub-shard plan — the counts and edges gathered up to
/// there are partial and nothing downstream reads them.
pub(crate) fn scan_until_collective(
    sources: Vec<Box<dyn ActionSource>>,
) -> Result<CommScan, String> {
    scan(sources, true)
}

fn scan(sources: Vec<Box<dyn ActionSource>>, stop_at_collective: bool) -> Result<CommScan, String> {
    let ranks = sources.len() as u32;
    let mut actions_per_rank = vec![0u64; ranks as usize];
    let mut edges = std::collections::BTreeMap::new();
    let mut has_collective = false;
    let check = |rank: u32, peer: Rank| -> Result<u32, String> {
        if peer.0 >= ranks {
            return Err(format!(
                "rank {rank} references peer {} outside 0..{ranks}",
                peer.0
            ));
        }
        Ok(peer.0)
    };
    'ranks: for (r, mut source) in sources.into_iter().enumerate() {
        let r = r as u32;
        while let Some(action) = source
            .next_action()
            .map_err(|e| format!("rank {r} trace stream failed: {e}"))?
        {
            actions_per_rank[r as usize] += 1;
            match action {
                Action::Send { dst, bytes } | Action::Isend { dst, bytes } => {
                    let e = edges.entry((r, check(r, dst)?)).or_insert(0u64);
                    *e = (*e).max(bytes);
                }
                Action::Recv { src, bytes } | Action::Irecv { src, bytes } => {
                    let e = edges.entry((check(r, src)?, r)).or_insert(0u64);
                    *e = (*e).max(bytes);
                }
                Action::Barrier
                | Action::Bcast { .. }
                | Action::Reduce { .. }
                | Action::Allreduce { .. }
                | Action::Alltoall { .. }
                | Action::Gather { .. }
                | Action::Allgather { .. } => {
                    has_collective = true;
                    if stop_at_collective {
                        break 'ranks;
                    }
                }
                Action::Init | Action::Finalize | Action::Compute { .. } => {}
                Action::Wait | Action::WaitAll => {}
            }
        }
    }
    let (edges, edge_max_bytes) = edges.into_iter().unzip();
    Ok(CommScan {
        ranks,
        actions_per_rank,
        edges,
        edge_max_bytes,
        has_collective,
    })
}

/// One coupling island: ranks that communicate (transitively) only among
/// themselves and whose transfers touch no link used by another island.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Island {
    /// Member ranks, ascending.
    pub ranks: Vec<u32>,
    /// Total trace actions over the members (load estimate for the
    /// worker assignment and the balance report).
    pub actions: u64,
}

/// The complete partition of a trace's ranks into coupling islands.
#[derive(Debug, Clone)]
pub struct RankPartition {
    /// Islands ordered by their smallest member rank.
    pub islands: Vec<Island>,
    /// `rank_island[r]` = index into `islands` owning rank `r`.
    pub rank_island: Vec<u32>,
}

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: u32) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Attach the larger root under the smaller so island indices
            // track smallest member ranks deterministically.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// Partitions the scanned ranks into coupling islands for a concrete
/// placement (`hosts[r]` = host of rank `r`). Deterministic: depends
/// only on the scan, the platform routes, and the placement — never on
/// thread counts or timing.
pub fn partition_ranks(scan: &CommScan, platform: &Platform, hosts: &[HostId]) -> RankPartition {
    assert_eq!(hosts.len(), scan.ranks as usize, "one host per rank");
    let mut uf = UnionFind::new(scan.ranks);
    if scan.has_collective {
        for r in 1..scan.ranks {
            uf.union(0, r);
        }
    }
    // Couple communicating ranks, and ranks whose transfer routes share
    // a link (first-seen rank per link is the link's representative).
    let mut link_owner: Vec<Option<u32>> = vec![None; platform.links().len()];
    let mut route = Vec::new();
    for &(src, dst) in &scan.edges {
        uf.union(src, dst);
        platform.route(hosts[src as usize], hosts[dst as usize], &mut route);
        for l in &route {
            match link_owner[l.as_usize()] {
                Some(owner) => uf.union(owner, src),
                None => link_owner[l.as_usize()] = Some(src),
            }
        }
    }
    let mut island_of_root = std::collections::BTreeMap::new();
    let mut islands: Vec<Island> = Vec::new();
    let mut rank_island = vec![0u32; scan.ranks as usize];
    for r in 0..scan.ranks {
        let root = uf.find(r);
        let idx = *island_of_root.entry(root).or_insert_with(|| {
            islands.push(Island {
                ranks: Vec::new(),
                actions: 0,
            });
            (islands.len() - 1) as u32
        });
        islands[idx as usize].ranks.push(r);
        islands[idx as usize].actions += scan.actions_per_rank[r as usize];
        rank_island[r as usize] = idx;
    }
    RankPartition {
        islands,
        rank_island,
    }
}

/// Every link any transfer inside the island can use: the union of the
/// platform routes between all ordered host pairs of the island's
/// members. A superset of the links actually used (routes of observed
/// edges), installed as the island's [`netmodel::FlowNet`] restriction
/// so a partitioning bug fails loudly instead of silently diverging.
pub fn island_links(platform: &Platform, hosts: &[HostId], island: &Island) -> Vec<LinkId> {
    let mut seen = vec![false; platform.links().len()];
    let mut links = Vec::new();
    let mut route = Vec::new();
    for &a in &island.ranks {
        for &b in &island.ranks {
            if a == b {
                continue;
            }
            platform.route(hosts[a as usize], hosts[b as usize], &mut route);
            for l in &route {
                if !seen[l.as_usize()] {
                    seen[l.as_usize()] = true;
                    links.push(*l);
                }
            }
        }
    }
    links.sort_by_key(|l| l.as_usize());
    links
}

/// One sub-shard of a coupled component (windowed PDES; see
/// [`plan_subshards`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubShard {
    /// Member ranks, ascending, component-global ids.
    pub ranks: Vec<u32>,
    /// Total trace actions over the members (load estimate).
    pub actions: u64,
    /// Links this shard's netmodel owns: the union of the routes of
    /// every observed edge whose *sender* is local. Installed as the
    /// shard's link restriction so an ownership bug fails loudly.
    pub links: Vec<LinkId>,
}

/// A certified sub-shard plan for windowed conservative execution
/// *within* a coupled component. Unlike coupling islands, sub-shards do
/// exchange messages; the certificate in [`plan_subshards`] guarantees
/// the exchange can be replayed bit-identically through window-boundary
/// mailboxes: every cross-shard message is eager (sender-detached, so no
/// cross-shard control dependence faster than the wire), every network
/// link is exercised by exactly one shard's flows (so bandwidth sharing
/// never couples shards), and every cross-shard route carries at least
/// [`ShardPlan::lookahead_s`] of latency (the conservative window bound).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// Sub-shards ordered by their smallest member rank.
    pub shards: Vec<SubShard>,
    /// `rank_shard[r]` = index into `shards` owning rank `r`.
    pub rank_shard: Vec<u32>,
    /// Conservative lookahead: the minimum *nominal* route latency over
    /// the observed cross-shard edges. Protocol latency factors are
    /// always `>= 1`, so a cross-shard message sent at `t` can never
    /// arrive before `t + lookahead_s` — the engine may safely run each
    /// shard to `min(all shards' next event) + lookahead/2` per window.
    pub lookahead_s: f64,
}

impl ShardPlan {
    /// `max/min` shard load ratio.
    pub fn balance_ratio(&self) -> f64 {
        let min = self.shards.iter().map(|s| s.actions).min().unwrap_or(0);
        let max = self.shards.iter().map(|s| s.actions).max().unwrap_or(0);
        max as f64 / min as f64
    }
}

/// Splits a fully coupled component into up to `shards` sub-shards for
/// windowed conservative execution, or explains why it cannot be done
/// exactly.
///
/// The split is host-grouped LPT: whole hosts (all ranks placed on one
/// host) are the assignment unit — so intra-host loopback traffic never
/// crosses a shard boundary — greedily placed on the least-loaded shard
/// by descending action count. Deterministic: depends only on the scan
/// and the placement.
///
/// # Errors
/// Returns a human-readable reason when the windowed-execution
/// certificate fails: collectives present, fewer than two populated
/// hosts, a cross-shard edge carrying rendezvous-size messages, a link
/// shared between two shards' flows, or a zero-latency cross-shard
/// route. Callers fall back to sequential (or island-parallel) replay.
pub fn plan_subshards(
    scan: &CommScan,
    platform: &Platform,
    hosts: &[HostId],
    shards: usize,
    eager: impl Fn(u64) -> bool,
) -> Result<ShardPlan, String> {
    assert_eq!(hosts.len(), scan.ranks as usize, "one host per rank");
    if shards < 2 {
        return Err("windowed execution needs at least two shards".into());
    }
    if scan.has_collective {
        return Err("trace contains collectives, which couple all ranks each phase".into());
    }
    // Host groups, keyed by smallest member rank for determinism.
    let mut groups: std::collections::BTreeMap<HostId, Vec<u32>> =
        std::collections::BTreeMap::new();
    for r in 0..scan.ranks {
        groups.entry(hosts[r as usize]).or_default().push(r);
    }
    if groups.len() < 2 {
        return Err("all ranks share one host; no shard boundary without loopback".into());
    }
    let mut groups: Vec<Vec<u32>> = groups.into_values().collect();
    // LPT: heaviest group first, ties broken by smallest member rank
    // (groups at this point are sorted by host id; sort_by is stable).
    let weight = |g: &[u32]| -> u64 {
        g.iter()
            .map(|&r| scan.actions_per_rank[r as usize].max(1))
            .sum()
    };
    groups.sort_by_key(|g| std::cmp::Reverse(weight(g)));
    let bins = shards.min(groups.len());
    let mut bin_ranks: Vec<Vec<u32>> = vec![Vec::new(); bins];
    let mut bin_load = vec![0u64; bins];
    for g in groups {
        let w = weight(&g);
        let lightest = (0..bins).min_by_key(|&b| (bin_load[b], b)).unwrap();
        bin_load[lightest] += w;
        bin_ranks[lightest].extend(g);
    }
    for b in &mut bin_ranks {
        b.sort_unstable();
    }
    bin_ranks.sort_by_key(|b| b[0]);
    let mut rank_shard = vec![0u32; scan.ranks as usize];
    for (i, b) in bin_ranks.iter().enumerate() {
        for &r in b {
            rank_shard[r as usize] = i as u32;
        }
    }
    // Certificate over every observed edge: eager-only cross traffic,
    // exclusive link ownership (owner = sender's shard), and a positive
    // lookahead on every cross route.
    let mut link_user: Vec<Option<u32>> = vec![None; platform.links().len()];
    let mut shard_links: Vec<Vec<LinkId>> = vec![Vec::new(); bins];
    let mut lookahead_s = f64::INFINITY;
    let mut route = Vec::new();
    for (i, &(src, dst)) in scan.edges.iter().enumerate() {
        let (ss, ds) = (rank_shard[src as usize], rank_shard[dst as usize]);
        if ss != ds {
            let bytes = scan.edge_max_bytes[i];
            if !eager(bytes) {
                return Err(format!(
                    "edge {src}->{dst} carries {bytes}-byte rendezvous messages across shards"
                ));
            }
            let lat = platform.route_latency(hosts[src as usize], hosts[dst as usize]);
            if lat <= 0.0 {
                return Err(format!("zero-latency cross-shard route {src}->{dst}"));
            }
            lookahead_s = lookahead_s.min(lat);
        }
        platform.route(hosts[src as usize], hosts[dst as usize], &mut route);
        for l in &route {
            match link_user[l.as_usize()] {
                Some(user) if user != ss => {
                    return Err(format!(
                        "link {} carries flows of shards {user} and {ss}; \
                         bandwidth sharing would couple them",
                        l.as_usize()
                    ));
                }
                Some(_) => {}
                None => {
                    link_user[l.as_usize()] = Some(ss);
                    shard_links[ss as usize].push(*l);
                }
            }
        }
    }
    if lookahead_s == f64::INFINITY {
        return Err("no cross-shard traffic; ranks decouple into islands instead".into());
    }
    for links in &mut shard_links {
        links.sort_by_key(|l| l.as_usize());
    }
    let shards = bin_ranks
        .into_iter()
        .zip(shard_links)
        .map(|(ranks, links)| SubShard {
            actions: ranks
                .iter()
                .map(|&r| scan.actions_per_rank[r as usize])
                .sum(),
            ranks,
            links,
        })
        .collect();
    Ok(ShardPlan {
        shards,
        rank_shard,
        lookahead_s,
    })
}

/// Partition-quality figures for `titreplay inspect`: how much
/// parallelism the trace/platform pair exposes and how balanced it is.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionReport {
    /// Number of coupling islands (the parallelism ceiling).
    pub islands: usize,
    /// Conservative lookahead bound between partitions: the minimum
    /// end-to-end route latency between any two ranks in *different*
    /// islands. `None` for a single island (no partition boundary).
    /// Because islands share no links, the engine never has to wait for
    /// this bound — it is reported as the classic conservative-PDES
    /// safety window the partitioning renders unbounded.
    pub lookahead_s: Option<f64>,
    /// Smallest per-island action count (event-count balance, low side).
    pub min_island_actions: u64,
    /// Largest per-island action count (event-count balance, high side).
    pub max_island_actions: u64,
    /// Rank count of each island, in island order.
    pub island_ranks: Vec<usize>,
    /// Action count of each island, in island order.
    pub island_actions: Vec<u64>,
}

impl PartitionReport {
    /// `max/min` island load ratio; `inf` when some island is empty.
    pub fn balance_ratio(&self) -> f64 {
        self.max_island_actions as f64 / self.min_island_actions as f64
    }
}

/// Computes the [`PartitionReport`] for a partition under a placement.
pub fn partition_report(
    partition: &RankPartition,
    platform: &Platform,
    hosts: &[HostId],
) -> PartitionReport {
    let mut lookahead_s: Option<f64> = None;
    let ranks = partition.rank_island.len();
    for a in 0..ranks {
        for b in 0..ranks {
            if partition.rank_island[a] == partition.rank_island[b] {
                continue;
            }
            let lat = platform.route_latency(hosts[a], hosts[b]);
            lookahead_s = Some(match lookahead_s {
                Some(cur) => cur.min(lat),
                None => lat,
            });
        }
    }
    let min = partition
        .islands
        .iter()
        .map(|i| i.actions)
        .min()
        .unwrap_or(0);
    let max = partition
        .islands
        .iter()
        .map(|i| i.actions)
        .max()
        .unwrap_or(0);
    PartitionReport {
        islands: partition.islands.len(),
        lookahead_s,
        min_island_actions: min,
        max_island_actions: max,
        island_ranks: partition.islands.iter().map(|i| i.ranks.len()).collect(),
        island_actions: partition.islands.iter().map(|i| i.actions).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::topology::{cabinet_cluster, flat_cluster, CabinetClusterSpec, FlatClusterSpec};
    use std::sync::Arc;
    use titrace::{Trace, TraceInput};

    fn scan_trace(trace: Trace) -> CommScan {
        let input = TraceInput::Memory(Arc::new(trace));
        let ranks = match &input {
            TraceInput::Memory(t) => t.ranks(),
            _ => unreachable!(),
        };
        let sources = titrace::stream::open_sources(&input, ranks).unwrap();
        scan_sources(sources).unwrap()
    }

    fn cabinets(cabs: u32, per: u32) -> Platform {
        cabinet_cluster(&CabinetClusterSpec {
            name: "c".into(),
            cabinets: cabs,
            nodes_per_cabinet: per,
            host_speed: 1e9,
            cores: 1,
            cache_bytes: 1 << 20,
            link_bandwidth: 1.25e9,
            link_latency: 1e-5,
            cabinet_bandwidth: 1e10,
            cabinet_latency: 2e-6,
            backbone_bandwidth: 1e11,
            backbone_latency: 1e-6,
        })
    }

    fn flat(nodes: u32) -> Platform {
        flat_cluster(&FlatClusterSpec {
            name: "f".into(),
            nodes,
            host_speed: 1e9,
            cores: 1,
            cache_bytes: 1 << 20,
            link_bandwidth: 1e8,
            link_latency: 1e-5,
            backbone_bandwidth: 1e9,
            backbone_latency: 1e-6,
        })
    }

    fn hosts(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    /// Two intra-cabinet rings on a cabinet cluster: one island per
    /// cabinet, with the lookahead bound set by the inter-cabinet path.
    fn ring_trace(cabs: u32, per: u32) -> Trace {
        let ranks = cabs * per;
        let mut trace = Trace::new(ranks);
        for r in 0..ranks {
            let cab = r / per;
            let right = cab * per + (r % per + 1) % per;
            trace.push(Rank(r), Action::Init);
            trace.push(
                Rank(r),
                Action::Isend {
                    dst: Rank(right),
                    bytes: 1024,
                },
            );
            trace.push(
                Rank(r),
                Action::Recv {
                    src: Rank(cab * per + (r % per + per - 1) % per),
                    bytes: 1024,
                },
            );
            trace.push(Rank(r), Action::WaitAll);
            trace.push(Rank(r), Action::Finalize);
        }
        trace
    }

    #[test]
    fn cabinet_rings_form_one_island_per_cabinet() {
        let (cabs, per) = (4, 3);
        let p = cabinets(cabs, per);
        let scan = scan_trace(ring_trace(cabs, per));
        assert!(!scan.has_collective);
        let part = partition_ranks(&scan, &p, &hosts(cabs * per));
        assert_eq!(part.islands.len(), cabs as usize);
        for (i, island) in part.islands.iter().enumerate() {
            let base = i as u32 * per;
            assert_eq!(island.ranks, (base..base + per).collect::<Vec<_>>());
        }
        let report = partition_report(&part, &p, &hosts(cabs * per));
        assert_eq!(report.islands, cabs as usize);
        // Inter-cabinet path: NIC + cabinet switch + backbone + cabinet
        // switch + NIC.
        let expect = 1e-5 + 2e-6 + 1e-6 + 2e-6 + 1e-5;
        assert!((report.lookahead_s.unwrap() - expect).abs() < 1e-12);
        assert_eq!(report.min_island_actions, report.max_island_actions);
    }

    #[test]
    fn shared_backbone_couples_flat_cluster_pairs() {
        // Disjoint comm pairs (0<->1, 2<->3) still merge into one island
        // on a flat cluster: all routes cross the shared backbone.
        let p = flat(4);
        let mut trace = Trace::new(4);
        for (a, b) in [(0u32, 1u32), (2, 3)] {
            trace.push(
                Rank(a),
                Action::Send {
                    dst: Rank(b),
                    bytes: 64,
                },
            );
            trace.push(
                Rank(b),
                Action::Recv {
                    src: Rank(a),
                    bytes: 64,
                },
            );
        }
        let part = partition_ranks(&scan_trace(trace), &p, &hosts(4));
        assert_eq!(part.islands.len(), 1);
        assert_eq!(part.islands[0].ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn collectives_couple_everything() {
        let (cabs, per) = (2, 2);
        let p = cabinets(cabs, per);
        let mut trace = ring_trace(cabs, per);
        trace.push(Rank(0), Action::Allreduce { bytes: 8 });
        let scan = scan_trace(trace);
        assert!(scan.has_collective);
        let part = partition_ranks(&scan, &p, &hosts(cabs * per));
        assert_eq!(part.islands.len(), 1);
    }

    /// The partition-only scan stops reading at the first collective and
    /// still yields the one-island partition of the full scan; without a
    /// collective it is the full scan.
    #[test]
    fn partition_scan_stops_at_the_first_collective() {
        let (cabs, per) = (2, 2);
        let open = |trace: &Trace| {
            let input = TraceInput::Memory(Arc::new(trace.clone()));
            titrace::stream::open_sources(&input, cabs * per).unwrap()
        };
        let mut trace = ring_trace(cabs, per);
        let free = scan_until_collective(open(&trace)).unwrap();
        assert!(!free.has_collective);
        assert_eq!(free.edges, scan_trace(trace.clone()).edges);
        let before = free.actions_per_rank[0];
        trace.push(Rank(0), Action::Allreduce { bytes: 8 });
        trace.push(Rank(0), Action::Compute { amount: 1.0 });
        let scan = scan_until_collective(open(&trace)).unwrap();
        assert!(scan.has_collective);
        assert_eq!(
            scan.actions_per_rank[0],
            before + 1,
            "read past the collective"
        );
        assert!(scan.actions_per_rank[1..].iter().all(|&n| n == 0));
        let p = cabinets(cabs, per);
        let part = partition_ranks(&scan, &p, &hosts(cabs * per));
        assert_eq!(part.islands.len(), 1);
    }

    #[test]
    fn island_links_are_disjoint_across_islands() {
        let (cabs, per) = (3, 2);
        let p = cabinets(cabs, per);
        let scan = scan_trace(ring_trace(cabs, per));
        let part = partition_ranks(&scan, &p, &hosts(cabs * per));
        let mut seen = std::collections::BTreeSet::new();
        for island in &part.islands {
            for l in island_links(&p, &hosts(cabs * per), island) {
                assert!(seen.insert(l.as_usize()), "link shared across islands");
            }
        }
        assert!(!seen.is_empty());
    }

    /// A ring over all ranks (one rank per host): fully coupled without
    /// collectives.
    fn full_ring_trace(ranks: u32, bytes: u64) -> Trace {
        let mut trace = Trace::new(ranks);
        for r in 0..ranks {
            trace.push(Rank(r), Action::Init);
            trace.push(
                Rank(r),
                Action::Irecv {
                    src: Rank((r + ranks - 1) % ranks),
                    bytes,
                },
            );
            trace.push(
                Rank(r),
                Action::Isend {
                    dst: Rank((r + 1) % ranks),
                    bytes,
                },
            );
            trace.push(Rank(r), Action::WaitAll);
            trace.push(Rank(r), Action::Finalize);
        }
        trace
    }

    fn direct(nodes: u32) -> Platform {
        platform::topology::direct_cluster(&platform::topology::DirectClusterSpec {
            name: "d".into(),
            nodes,
            host_speed: 1e9,
            cores: 1,
            cache_bytes: 1 << 20,
            link_bandwidth: 1e8,
            link_latency: 1e-5,
        })
    }

    #[test]
    fn scan_records_per_edge_max_bytes() {
        let mut trace = Trace::new(2);
        trace.push(
            Rank(0),
            Action::Send {
                dst: Rank(1),
                bytes: 100,
            },
        );
        trace.push(
            Rank(0),
            Action::Send {
                dst: Rank(1),
                bytes: 9000,
            },
        );
        trace.push(
            Rank(1),
            Action::Recv {
                src: Rank(0),
                bytes: 100,
            },
        );
        trace.push(
            Rank(1),
            Action::Recv {
                src: Rank(0),
                bytes: 9000,
            },
        );
        let scan = scan_trace(trace);
        assert_eq!(scan.edges, vec![(0, 1)]);
        assert_eq!(scan.edge_max_bytes, vec![9000]);
    }

    #[test]
    fn subshard_plan_certifies_direct_ring() {
        let n = 8u32;
        let p = direct(n);
        let scan = scan_trace(full_ring_trace(n, 1024));
        // The ring couples everything into one island on any topology.
        let part = partition_ranks(&scan, &p, &hosts(n));
        assert_eq!(part.islands.len(), 1);
        let plan = plan_subshards(&scan, &p, &hosts(n), 4, |b| b < 64 * 1024).expect("certifies");
        assert_eq!(plan.shards.len(), 4);
        assert_eq!(
            plan.shards.iter().map(|s| s.ranks.len()).sum::<usize>(),
            n as usize
        );
        // Every rank in exactly one shard; shard order by smallest rank.
        for w in plan.shards.windows(2) {
            assert!(w[0].ranks[0] < w[1].ranks[0]);
        }
        for (r, &s) in plan.rank_shard.iter().enumerate() {
            assert!(plan.shards[s as usize].ranks.contains(&(r as u32)));
        }
        // Dedicated pair links: shards own disjoint link sets.
        let mut seen = std::collections::BTreeSet::new();
        for s in &plan.shards {
            assert!(!s.links.is_empty());
            for l in &s.links {
                assert!(seen.insert(l.as_usize()), "link owned twice");
            }
        }
        // Direct route: two 10µs NIC-link hops.
        assert!((plan.lookahead_s - 2e-5).abs() < 1e-12);
        assert!(plan.balance_ratio() < 2.0, "{}", plan.balance_ratio());
    }

    #[test]
    fn subshard_plan_rejects_collectives_and_shared_links() {
        let n = 4u32;
        let scan_ring = scan_trace(full_ring_trace(n, 1024));
        // Flat cluster: every route crosses the shared backbone.
        let err = plan_subshards(&scan_ring, &flat(n), &hosts(n), 2, |b| b < 64 * 1024)
            .expect_err("backbone is shared");
        assert!(err.contains("link"), "{err}");
        // Collectives.
        let mut t = full_ring_trace(n, 1024);
        t.push(Rank(0), Action::Allreduce { bytes: 8 });
        let err = plan_subshards(&scan_trace(t), &direct(n), &hosts(n), 2, |b| b < 64 * 1024)
            .expect_err("collectives");
        assert!(err.contains("collective"), "{err}");
        // Rendezvous-size cross traffic.
        let err = plan_subshards(
            &scan_trace(full_ring_trace(n, 1 << 20)),
            &direct(n),
            &hosts(n),
            2,
            |b| b < 64 * 1024,
        )
        .expect_err("rendezvous");
        assert!(err.contains("rendezvous"), "{err}");
    }

    #[test]
    fn out_of_range_peer_is_reported() {
        let mut trace = Trace::new(2);
        trace.push(
            Rank(0),
            Action::Send {
                dst: Rank(7),
                bytes: 1,
            },
        );
        let input = TraceInput::Memory(Arc::new(trace));
        let sources = titrace::stream::open_sources(&input, 2).unwrap();
        let err = scan_sources(sources).unwrap_err();
        assert!(err.contains("outside 0..2"), "{err}");
    }
}
