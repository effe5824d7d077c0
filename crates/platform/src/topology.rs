//! Topologies and generic cluster builders.
//!
//! Two topology families cover the paper's platforms:
//!
//! * [`Topology::Flat`] — every node hangs off one big switch (the
//!   *bordereau* cluster: "a single 10 Gigabit switch").
//! * [`Topology::Cabinets`] — nodes grouped in cabinets, each cabinet
//!   switch uplinked to a backbone (the *graphene* cluster: "nodes
//!   scattered across four cabinets, interconnected by a hierarchy of
//!   10 Gigabit switches").
//!
//! Every node attaches through a full-duplex channel modeled as two
//! independent links (uplink for egress, downlink for ingress), so a
//! node's sends never artificially contend with its receives.

use crate::{Host, HostId, Link, LinkId, Platform};

/// How hosts are wired together. Routes are derived, not stored.
#[derive(Debug, Clone)]
pub enum Topology {
    /// Single switch: `src.up -> backbone -> dst.down`.
    Flat {
        /// Egress link of each host.
        uplinks: Vec<LinkId>,
        /// Ingress link of each host.
        downlinks: Vec<LinkId>,
        /// The switch fabric, shared by all traffic.
        backbone: LinkId,
    },
    /// Non-blocking point-to-point fabric: `src.up -> dst.down` with no
    /// shared switch stage. Models a full-crossbar (or ideally
    /// over-provisioned fat-tree) interconnect where distinct host pairs
    /// never contend — which also makes it the topology on which the
    /// sub-shard link-ownership certificate (`replay::partition::
    /// plan_subshards`) holds for any communication pattern whose
    /// receivers each have a single source shard (rings, pipelines, halo
    /// exchanges along one axis).
    Direct {
        /// Egress link of each host.
        uplinks: Vec<LinkId>,
        /// Ingress link of each host.
        downlinks: Vec<LinkId>,
    },
    /// Two-level hierarchy: hosts in cabinets, cabinets on a backbone.
    /// Intra-cabinet traffic: `src.up -> dst.down`.
    /// Inter-cabinet: `src.up -> cab(src).up -> backbone -> cab(dst).down
    /// -> dst.down`.
    Cabinets {
        /// Egress link of each host.
        uplinks: Vec<LinkId>,
        /// Ingress link of each host.
        downlinks: Vec<LinkId>,
        /// Cabinet index of each host.
        cabinet_of: Vec<u16>,
        /// Egress link of each cabinet switch.
        cabinet_up: Vec<LinkId>,
        /// Ingress link of each cabinet switch.
        cabinet_down: Vec<LinkId>,
        /// Inter-cabinet fabric.
        backbone: LinkId,
    },
}

impl Topology {
    /// Appends the route from `src` to `dst` (distinct hosts) to `out`.
    pub fn route(&self, src: HostId, dst: HostId, out: &mut Vec<LinkId>) {
        debug_assert_ne!(src, dst);
        match self {
            Topology::Flat {
                uplinks,
                downlinks,
                backbone,
            } => {
                out.push(uplinks[src.as_usize()]);
                out.push(*backbone);
                out.push(downlinks[dst.as_usize()]);
            }
            Topology::Direct { uplinks, downlinks } => {
                out.push(uplinks[src.as_usize()]);
                out.push(downlinks[dst.as_usize()]);
            }
            Topology::Cabinets {
                uplinks,
                downlinks,
                cabinet_of,
                cabinet_up,
                cabinet_down,
                backbone,
            } => {
                let cs = cabinet_of[src.as_usize()] as usize;
                let cd = cabinet_of[dst.as_usize()] as usize;
                out.push(uplinks[src.as_usize()]);
                if cs != cd {
                    out.push(cabinet_up[cs]);
                    out.push(*backbone);
                    out.push(cabinet_down[cd]);
                }
                out.push(downlinks[dst.as_usize()]);
            }
        }
    }

    /// Checks internal consistency against the platform's host/link counts.
    pub fn validate(&self, hosts: u32, links: u32) {
        let check = |id: LinkId| assert!(id.0 < links, "topology references missing link {id:?}");
        match self {
            Topology::Flat {
                uplinks,
                downlinks,
                backbone,
            } => {
                assert_eq!(uplinks.len() as u32, hosts, "one uplink per host");
                assert_eq!(downlinks.len() as u32, hosts, "one downlink per host");
                uplinks
                    .iter()
                    .chain(downlinks.iter())
                    .copied()
                    .for_each(check);
                check(*backbone);
            }
            Topology::Direct { uplinks, downlinks } => {
                assert_eq!(uplinks.len() as u32, hosts, "one uplink per host");
                assert_eq!(downlinks.len() as u32, hosts, "one downlink per host");
                uplinks
                    .iter()
                    .chain(downlinks.iter())
                    .copied()
                    .for_each(check);
            }
            Topology::Cabinets {
                uplinks,
                downlinks,
                cabinet_of,
                cabinet_up,
                cabinet_down,
                backbone,
            } => {
                assert_eq!(uplinks.len() as u32, hosts);
                assert_eq!(downlinks.len() as u32, hosts);
                assert_eq!(cabinet_of.len() as u32, hosts);
                assert_eq!(cabinet_up.len(), cabinet_down.len());
                let ncab = cabinet_up.len() as u16;
                assert!(ncab > 0, "no cabinets");
                for c in cabinet_of {
                    assert!(*c < ncab, "host in missing cabinet {c}");
                }
                uplinks
                    .iter()
                    .chain(downlinks.iter())
                    .chain(cabinet_up.iter())
                    .chain(cabinet_down.iter())
                    .copied()
                    .for_each(check);
                check(*backbone);
            }
        }
    }
}

/// Parameters for [`flat_cluster`].
#[derive(Debug, Clone)]
pub struct FlatClusterSpec {
    /// Cluster name; hosts are named `<name>-<i>`.
    pub name: String,
    /// Number of nodes.
    pub nodes: u32,
    /// Peak per-core instruction rate (instructions/s).
    pub host_speed: f64,
    /// Cores per node.
    pub cores: u32,
    /// Per-core cache capacity in bytes.
    pub cache_bytes: u64,
    /// Node NIC bandwidth, bytes/s (each direction).
    pub link_bandwidth: f64,
    /// Node NIC latency, seconds (each direction).
    pub link_latency: f64,
    /// Switch fabric bandwidth, bytes/s.
    pub backbone_bandwidth: f64,
    /// Switch traversal latency, seconds.
    pub backbone_latency: f64,
}

/// Builds a single-switch cluster.
pub fn flat_cluster(spec: &FlatClusterSpec) -> Platform {
    assert!(spec.nodes > 0);
    let mut hosts = Vec::with_capacity(spec.nodes as usize);
    let mut links = Vec::with_capacity(2 * spec.nodes as usize + 1);
    let mut uplinks = Vec::with_capacity(spec.nodes as usize);
    let mut downlinks = Vec::with_capacity(spec.nodes as usize);
    for i in 0..spec.nodes {
        hosts.push(Host {
            name: format!("{}-{}", spec.name, i),
            speed: spec.host_speed,
            cores: spec.cores,
            cache_bytes: spec.cache_bytes,
        });
        uplinks.push(LinkId(links.len() as u32));
        links.push(Link {
            name: format!("{}-{}-up", spec.name, i),
            bandwidth: spec.link_bandwidth,
            latency: spec.link_latency,
        });
        downlinks.push(LinkId(links.len() as u32));
        links.push(Link {
            name: format!("{}-{}-down", spec.name, i),
            bandwidth: spec.link_bandwidth,
            latency: spec.link_latency,
        });
    }
    let backbone = LinkId(links.len() as u32);
    links.push(Link {
        name: format!("{}-backbone", spec.name),
        bandwidth: spec.backbone_bandwidth,
        latency: spec.backbone_latency,
    });
    Platform::new(
        spec.name.clone(),
        hosts,
        links,
        Topology::Flat {
            uplinks,
            downlinks,
            backbone,
        },
    )
}

/// Parameters for [`direct_cluster`].
#[derive(Debug, Clone)]
pub struct DirectClusterSpec {
    /// Cluster name; hosts are named `<name>-<i>`.
    pub name: String,
    /// Number of nodes.
    pub nodes: u32,
    /// Peak per-core instruction rate (instructions/s).
    pub host_speed: f64,
    /// Cores per node.
    pub cores: u32,
    /// Per-core cache capacity in bytes.
    pub cache_bytes: u64,
    /// Node NIC bandwidth, bytes/s (each direction).
    pub link_bandwidth: f64,
    /// Node NIC latency, seconds (each direction).
    pub link_latency: f64,
}

/// Builds a non-blocking crossbar cluster ([`Topology::Direct`]).
pub fn direct_cluster(spec: &DirectClusterSpec) -> Platform {
    assert!(spec.nodes > 0);
    let mut hosts = Vec::with_capacity(spec.nodes as usize);
    let mut links = Vec::with_capacity(2 * spec.nodes as usize);
    let mut uplinks = Vec::with_capacity(spec.nodes as usize);
    let mut downlinks = Vec::with_capacity(spec.nodes as usize);
    for i in 0..spec.nodes {
        hosts.push(Host {
            name: format!("{}-{}", spec.name, i),
            speed: spec.host_speed,
            cores: spec.cores,
            cache_bytes: spec.cache_bytes,
        });
        uplinks.push(LinkId(links.len() as u32));
        links.push(Link {
            name: format!("{}-{}-up", spec.name, i),
            bandwidth: spec.link_bandwidth,
            latency: spec.link_latency,
        });
        downlinks.push(LinkId(links.len() as u32));
        links.push(Link {
            name: format!("{}-{}-down", spec.name, i),
            bandwidth: spec.link_bandwidth,
            latency: spec.link_latency,
        });
    }
    Platform::new(
        spec.name.clone(),
        hosts,
        links,
        Topology::Direct { uplinks, downlinks },
    )
}

/// Parameters for [`cabinet_cluster`].
#[derive(Debug, Clone)]
pub struct CabinetClusterSpec {
    /// Cluster name; hosts are named `<name>-<i>`.
    pub name: String,
    /// Number of cabinets.
    pub cabinets: u32,
    /// Nodes in each cabinet.
    pub nodes_per_cabinet: u32,
    /// Peak per-core instruction rate (instructions/s).
    pub host_speed: f64,
    /// Cores per node.
    pub cores: u32,
    /// Per-core cache capacity in bytes.
    pub cache_bytes: u64,
    /// Node NIC bandwidth, bytes/s.
    pub link_bandwidth: f64,
    /// Node NIC latency, seconds.
    pub link_latency: f64,
    /// Cabinet uplink bandwidth, bytes/s.
    pub cabinet_bandwidth: f64,
    /// Cabinet switch latency, seconds.
    pub cabinet_latency: f64,
    /// Inter-cabinet backbone bandwidth, bytes/s.
    pub backbone_bandwidth: f64,
    /// Backbone latency, seconds.
    pub backbone_latency: f64,
}

/// Builds a two-level (cabinet hierarchy) cluster.
pub fn cabinet_cluster(spec: &CabinetClusterSpec) -> Platform {
    assert!(spec.cabinets > 0 && spec.nodes_per_cabinet > 0);
    let nodes = spec.cabinets * spec.nodes_per_cabinet;
    let mut hosts = Vec::with_capacity(nodes as usize);
    let mut links = Vec::new();
    let mut uplinks = Vec::with_capacity(nodes as usize);
    let mut downlinks = Vec::with_capacity(nodes as usize);
    let mut cabinet_of = Vec::with_capacity(nodes as usize);
    for i in 0..nodes {
        hosts.push(Host {
            name: format!("{}-{}", spec.name, i),
            speed: spec.host_speed,
            cores: spec.cores,
            cache_bytes: spec.cache_bytes,
        });
        cabinet_of.push((i / spec.nodes_per_cabinet) as u16);
        uplinks.push(LinkId(links.len() as u32));
        links.push(Link {
            name: format!("{}-{}-up", spec.name, i),
            bandwidth: spec.link_bandwidth,
            latency: spec.link_latency,
        });
        downlinks.push(LinkId(links.len() as u32));
        links.push(Link {
            name: format!("{}-{}-down", spec.name, i),
            bandwidth: spec.link_bandwidth,
            latency: spec.link_latency,
        });
    }
    let mut cabinet_up = Vec::with_capacity(spec.cabinets as usize);
    let mut cabinet_down = Vec::with_capacity(spec.cabinets as usize);
    for c in 0..spec.cabinets {
        cabinet_up.push(LinkId(links.len() as u32));
        links.push(Link {
            name: format!("{}-cab{}-up", spec.name, c),
            bandwidth: spec.cabinet_bandwidth,
            latency: spec.cabinet_latency,
        });
        cabinet_down.push(LinkId(links.len() as u32));
        links.push(Link {
            name: format!("{}-cab{}-down", spec.name, c),
            bandwidth: spec.cabinet_bandwidth,
            latency: spec.cabinet_latency,
        });
    }
    let backbone = LinkId(links.len() as u32);
    links.push(Link {
        name: format!("{}-backbone", spec.name),
        bandwidth: spec.backbone_bandwidth,
        latency: spec.backbone_latency,
    });
    Platform::new(
        spec.name.clone(),
        hosts,
        links,
        Topology::Cabinets {
            uplinks,
            downlinks,
            cabinet_of,
            cabinet_up,
            cabinet_down,
            backbone,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cabinets() -> Platform {
        cabinet_cluster(&CabinetClusterSpec {
            name: "cc".into(),
            cabinets: 2,
            nodes_per_cabinet: 3,
            host_speed: 1e9,
            cores: 4,
            cache_bytes: 2 << 20,
            link_bandwidth: 1.25e8,
            link_latency: 20e-6,
            cabinet_bandwidth: 1.25e9,
            cabinet_latency: 2e-6,
            backbone_bandwidth: 2.5e9,
            backbone_latency: 2e-6,
        })
    }

    #[test]
    fn intra_cabinet_route_is_two_hops() {
        let p = small_cabinets();
        let mut r = Vec::new();
        p.route(HostId(0), HostId(2), &mut r);
        assert_eq!(r.len(), 2);
        assert!((p.route_latency(HostId(0), HostId(2)) - 40e-6).abs() < 1e-12);
    }

    #[test]
    fn inter_cabinet_route_crosses_backbone() {
        let p = small_cabinets();
        let mut r = Vec::new();
        p.route(HostId(0), HostId(5), &mut r);
        assert_eq!(r.len(), 5);
        let lat = p.route_latency(HostId(0), HostId(5));
        assert!((lat - (20e-6 * 2.0 + 2e-6 * 3.0)).abs() < 1e-12);
    }

    #[test]
    fn host_and_cabinet_counts() {
        let p = small_cabinets();
        assert_eq!(p.host_count(), 6);
        // 2 links per host + 2 per cabinet + backbone
        assert_eq!(p.links().len(), 6 * 2 + 2 * 2 + 1);
    }

    #[test]
    fn direct_routes_are_pairwise_link_disjoint_per_sender() {
        let p = direct_cluster(&DirectClusterSpec {
            name: "d".into(),
            nodes: 4,
            host_speed: 1e9,
            cores: 1,
            cache_bytes: 1 << 20,
            link_bandwidth: 1e8,
            link_latency: 10e-6,
        });
        assert_eq!(p.links().len(), 8);
        let mut r = Vec::new();
        p.route(HostId(0), HostId(3), &mut r);
        assert_eq!(r.len(), 2);
        assert!((p.route_latency(HostId(0), HostId(3)) - 20e-6).abs() < 1e-15);
        // Distinct ordered pairs with distinct endpoints share no links.
        let mut a = Vec::new();
        let mut b = Vec::new();
        p.route(HostId(0), HostId(1), &mut a);
        p.route(HostId(2), HostId(3), &mut b);
        assert!(a.iter().all(|l| !b.contains(l)));
    }

    #[test]
    fn all_pairs_have_routes() {
        let p = small_cabinets();
        let mut r = Vec::new();
        for s in 0..6u32 {
            for d in 0..6u32 {
                if s == d {
                    continue;
                }
                p.route(HostId(s), HostId(d), &mut r);
                assert!(!r.is_empty(), "no route {s}->{d}");
                assert!(p.path_bandwidth(&r) > 0.0);
            }
        }
    }
}
