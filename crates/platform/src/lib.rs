//! Simulated platform descriptions for the TiTR toolkit.
//!
//! A [`Platform`] is the simulation-side analogue of SimGrid's
//! `platform.xml`: a set of [`Host`]s (compute nodes with an instruction
//! rate and a cache size) connected by [`Link`]s (bandwidth + latency)
//! arranged in a [`topology::Topology`]. Routing is computed from the
//! topology; links are full-duplex (independent up/down channels), and a
//! shared backbone models the switch fabric.
//!
//! The crate ships the two cluster models used throughout the paper's
//! evaluation — [`clusters::bordereau`] and [`clusters::graphene`] — plus
//! generic builders and a JSON spec format for user-defined platforms.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod clusters;
pub mod mapping;
pub mod spec;
pub mod topology;

pub use mapping::Placement;
pub use spec::PlatformSpec;
pub use topology::Topology;

use serde::{Deserialize, Serialize};

/// Identifier of a host within a [`Platform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct HostId(pub u32);

impl HostId {
    /// Index into per-host tables.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a link within a [`Platform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Index into per-link tables.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// A compute node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Host {
    /// Human-readable name (`"bordereau-17"`).
    pub name: String,
    /// Peak instruction rate of one core, in instructions per second, when
    /// the working set is cache-resident. Cache-dependent degradation is
    /// applied by the `hwmodel` crate.
    pub speed: f64,
    /// Number of cores.
    pub cores: u32,
    /// Per-core last-level private cache capacity in bytes (the paper's
    /// "L2 cache"). Drives the cache-aware calibration logic.
    pub cache_bytes: u64,
}

/// A network link (one direction of a full-duplex channel).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Link {
    /// Human-readable name.
    pub name: String,
    /// Bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Latency in seconds.
    pub latency: f64,
}

/// A complete simulated platform.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Cluster name (used in reports).
    pub name: String,
    hosts: Vec<Host>,
    links: Vec<Link>,
    topology: Topology,
}

impl Platform {
    /// Assembles a platform. Intended for builders in [`topology`] /
    /// [`clusters`]; validates that the topology references only existing
    /// links and hosts.
    pub fn new(
        name: impl Into<String>,
        hosts: Vec<Host>,
        links: Vec<Link>,
        topology: Topology,
    ) -> Platform {
        let p = Platform {
            name: name.into(),
            hosts,
            links,
            topology,
        };
        p.validate();
        p
    }

    fn validate(&self) {
        let nl = self.links.len() as u32;
        let nh = self.hosts.len() as u32;
        assert!(nh > 0, "platform has no hosts");
        self.topology.validate(nh, nl);
        for l in &self.links {
            assert!(
                l.bandwidth > 0.0 && l.bandwidth.is_finite(),
                "link {} has invalid bandwidth",
                l.name
            );
            assert!(
                l.latency >= 0.0 && l.latency.is_finite(),
                "link {} has invalid latency",
                l.name
            );
        }
        for h in &self.hosts {
            assert!(
                h.speed > 0.0 && h.speed.is_finite(),
                "host {} has invalid speed",
                h.name
            );
            assert!(h.cores > 0, "host {} has no cores", h.name);
        }
    }

    /// All hosts, indexed by [`HostId`].
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// All links, indexed by [`LinkId`].
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// A host by id.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.as_usize()]
    }

    /// A link by id.
    pub(crate) fn link(&self, id: LinkId) -> &Link {
        &self.links[id.as_usize()]
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// The topology.
    #[cfg(test)]
    pub(crate) fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Appends the links of the route from `src` to `dst` to `out` (which
    /// is cleared first). The route is empty for loopback (src == dst):
    /// intra-host communication is modeled as a pure memory copy by the
    /// runtimes, not as a network transfer.
    pub fn route(&self, src: HostId, dst: HostId, out: &mut Vec<LinkId>) {
        out.clear();
        if src == dst {
            return;
        }
        self.topology.route(src, dst, out);
    }

    /// Total latency along the route from `src` to `dst`, in seconds.
    pub fn route_latency(&self, src: HostId, dst: HostId) -> f64 {
        self.path_latency(&self.route_links(src, dst))
    }

    /// Total latency of the links of `path` (a route from
    /// [`Platform::route`]), in seconds; summed in path order.
    pub fn path_latency(&self, path: &[LinkId]) -> f64 {
        path.iter().map(|l| self.link(*l).latency).sum()
    }

    /// Minimum bandwidth over the links of `path`, in bytes/second;
    /// `f64::INFINITY` for an empty (loopback) path.
    pub fn path_bandwidth(&self, path: &[LinkId]) -> f64 {
        path.iter()
            .map(|l| self.link(*l).bandwidth)
            .fold(f64::INFINITY, f64::min)
    }

    fn route_links(&self, src: HostId, dst: HostId) -> Vec<LinkId> {
        let mut links = Vec::with_capacity(4);
        self.route(src, dst, &mut links);
        links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_cluster_routes() {
        let p = topology::flat_cluster(&topology::FlatClusterSpec {
            name: "test".into(),
            nodes: 4,
            host_speed: 1e9,
            cores: 2,
            cache_bytes: 1 << 20,
            link_bandwidth: 1.25e8,
            link_latency: 25e-6,
            backbone_bandwidth: 1.25e9,
            backbone_latency: 5e-6,
        });
        assert_eq!(p.host_count(), 4);
        let mut route = Vec::new();
        p.route(HostId(0), HostId(3), &mut route);
        // up(0), backbone, down(3)
        assert_eq!(route.len(), 3);
        let lat = p.route_latency(HostId(0), HostId(3));
        assert!((lat - 55e-6).abs() < 1e-12);
        assert_eq!(
            p.path_bandwidth(&p.route_links(HostId(0), HostId(3))),
            1.25e8
        );
    }

    #[test]
    fn loopback_route_is_empty() {
        let p = clusters::bordereau();
        let mut route = vec![LinkId(0)];
        p.route(HostId(5), HostId(5), &mut route);
        assert!(route.is_empty());
        assert_eq!(p.route_latency(HostId(5), HostId(5)), 0.0);
        assert_eq!(
            p.path_bandwidth(&p.route_links(HostId(5), HostId(5))),
            f64::INFINITY
        );
    }

    #[test]
    fn duplex_channels_do_not_share_endpoint_links() {
        let p = clusters::bordereau();
        let mut fwd = Vec::new();
        let mut back = Vec::new();
        p.route(HostId(0), HostId(1), &mut fwd);
        p.route(HostId(1), HostId(0), &mut back);
        assert_ne!(fwd, back);
        // Host 0's uplink (first hop out) differs from host 0's downlink
        // (last hop in on the return path).
        assert_ne!(fwd[0], *back.last().unwrap());
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth")]
    fn zero_bandwidth_rejected() {
        let hosts = vec![Host {
            name: "h".into(),
            speed: 1e9,
            cores: 1,
            cache_bytes: 1,
        }];
        let links = vec![Link {
            name: "l".into(),
            bandwidth: 0.0,
            latency: 0.0,
        }];
        let _ = Platform::new(
            "bad",
            hosts,
            links,
            Topology::Flat {
                uplinks: vec![LinkId(0)],
                downlinks: vec![LinkId(0)],
                backbone: LinkId(0),
            },
        );
    }
}
