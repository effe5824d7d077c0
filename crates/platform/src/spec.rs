//! JSON platform specifications — the analogue of SimGrid's
//! `platform.xml` input file.
//!
//! The replay tool is launched, as in the paper, with a platform
//! description file; this module defines that format and the conversion to
//! a live [`Platform`].
//!
//! ```
//! use platform::PlatformSpec;
//! let json = r#"{
//!   "name": "mini",
//!   "kind": { "Flat": {
//!       "nodes": 4, "host_speed": 1e9, "cores": 2, "cache_bytes": 1048576,
//!       "link_bandwidth": 1.25e8, "link_latency": 2.5e-5,
//!       "backbone_bandwidth": 1.25e9, "backbone_latency": 5e-6 } }
//! }"#;
//! let spec: PlatformSpec = serde_json::from_str(json).unwrap();
//! let platform = spec.build();
//! assert_eq!(platform.host_count(), 4);
//! ```

use serde::{DeError, Deserialize, Serialize, Value};

use crate::topology::{
    cabinet_cluster, direct_cluster, flat_cluster, CabinetClusterSpec, DirectClusterSpec,
    FlatClusterSpec,
};
use crate::Platform;

/// Serializable description of a cluster platform. Deserializing one
/// ([`PlatformSpec::from_json`], `from_value`) also
/// [validates](PlatformSpec::validate) it, so a spec read from a file or
/// a request always builds.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct PlatformSpec {
    /// Cluster name.
    pub name: String,
    /// Topology family and parameters.
    pub kind: SpecKind,
}

/// The topology families expressible in a spec file.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum SpecKind {
    /// Single-switch cluster.
    Flat {
        /// Number of nodes.
        nodes: u32,
        /// Peak per-core instruction rate (instructions/s), read by the
        /// emulated testbed (`hwmodel::cpu`). A replay's compute time
        /// comes from its config `rate`, not from this field.
        host_speed: f64,
        /// Cores per node.
        cores: u32,
        /// Per-core cache in bytes.
        cache_bytes: u64,
        /// NIC bandwidth, bytes/s.
        link_bandwidth: f64,
        /// NIC latency, seconds.
        link_latency: f64,
        /// Fabric bandwidth, bytes/s.
        backbone_bandwidth: f64,
        /// Fabric latency, seconds.
        backbone_latency: f64,
    },
    /// Non-blocking crossbar: every pair connected through dedicated
    /// NIC links only (no shared fabric stage).
    Direct {
        /// Number of nodes.
        nodes: u32,
        /// Peak per-core instruction rate (instructions/s), read by the
        /// emulated testbed (`hwmodel::cpu`). A replay's compute time
        /// comes from its config `rate`, not from this field.
        host_speed: f64,
        /// Cores per node.
        cores: u32,
        /// Per-core cache in bytes.
        cache_bytes: u64,
        /// NIC bandwidth, bytes/s.
        link_bandwidth: f64,
        /// NIC latency, seconds.
        link_latency: f64,
    },
    /// Cabinet hierarchy.
    Cabinets {
        /// Number of cabinets.
        cabinets: u32,
        /// Nodes per cabinet.
        nodes_per_cabinet: u32,
        /// Peak per-core instruction rate (instructions/s), read by the
        /// emulated testbed (`hwmodel::cpu`). A replay's compute time
        /// comes from its config `rate`, not from this field.
        host_speed: f64,
        /// Cores per node.
        cores: u32,
        /// Per-core cache in bytes.
        cache_bytes: u64,
        /// NIC bandwidth, bytes/s.
        link_bandwidth: f64,
        /// NIC latency, seconds.
        link_latency: f64,
        /// Cabinet uplink bandwidth, bytes/s.
        cabinet_bandwidth: f64,
        /// Cabinet switch latency, seconds.
        cabinet_latency: f64,
        /// Backbone bandwidth, bytes/s.
        backbone_bandwidth: f64,
        /// Backbone latency, seconds.
        backbone_latency: f64,
    },
}

impl Deserialize for PlatformSpec {
    fn from_value(v: &Value) -> Result<PlatformSpec, DeError> {
        let spec = PlatformSpec {
            name: Deserialize::from_value(serde::obj_field(v, "name", "PlatformSpec")?)?,
            kind: Deserialize::from_value(serde::obj_field(v, "kind", "PlatformSpec")?)?,
        };
        spec.validate().map_err(DeError::custom)?;
        Ok(spec)
    }
}

impl PlatformSpec {
    /// Checks that the spec describes a platform that can be built: every
    /// count at least 1 (at most 65 535 cabinets, and their nodes within
    /// `u32`), every speed and bandwidth positive and finite, every
    /// latency finite and not negative.
    ///
    /// # Errors
    /// The first offending field, by name, with its value.
    pub fn validate(&self) -> Result<(), String> {
        let check = |ok: bool, field: &str, want: &str, v: &dyn std::fmt::Display| {
            if ok {
                Ok(())
            } else {
                Err(format!("`{field}` must be {want}, got {v}"))
            }
        };
        let count = |field: &str, v: u32| check(v > 0, field, "at least 1", &v);
        let rate =
            |field: &str, v: f64| check(v > 0.0 && v.is_finite(), field, "positive and finite", &v);
        let latency = |field: &str, v: f64| {
            check(
                v >= 0.0 && v.is_finite(),
                field,
                "finite and not negative",
                &v,
            )
        };
        match &self.kind {
            SpecKind::Flat {
                nodes,
                host_speed,
                cores,
                cache_bytes: _,
                link_bandwidth,
                link_latency,
                backbone_bandwidth,
                backbone_latency,
            } => {
                count("nodes", *nodes)?;
                rate("host_speed", *host_speed)?;
                count("cores", *cores)?;
                rate("link_bandwidth", *link_bandwidth)?;
                latency("link_latency", *link_latency)?;
                rate("backbone_bandwidth", *backbone_bandwidth)?;
                latency("backbone_latency", *backbone_latency)
            }
            SpecKind::Direct {
                nodes,
                host_speed,
                cores,
                cache_bytes: _,
                link_bandwidth,
                link_latency,
            } => {
                count("nodes", *nodes)?;
                rate("host_speed", *host_speed)?;
                count("cores", *cores)?;
                rate("link_bandwidth", *link_bandwidth)?;
                latency("link_latency", *link_latency)
            }
            SpecKind::Cabinets {
                cabinets,
                nodes_per_cabinet,
                host_speed,
                cores,
                cache_bytes: _,
                link_bandwidth,
                link_latency,
                cabinet_bandwidth,
                cabinet_latency,
                backbone_bandwidth,
                backbone_latency,
            } => {
                count("cabinets", *cabinets)?;
                // The topology numbers cabinets in a `u16`.
                if *cabinets > u32::from(u16::MAX) {
                    return Err(format!(
                        "`cabinets` must be at most {}, got {cabinets}",
                        u16::MAX
                    ));
                }
                count("nodes_per_cabinet", *nodes_per_cabinet)?;
                if cabinets.checked_mul(*nodes_per_cabinet).is_none() {
                    return Err(format!(
                        "`cabinets` × `nodes_per_cabinet` ({cabinets} × {nodes_per_cabinet}) \
                         exceeds {} nodes",
                        u32::MAX
                    ));
                }
                rate("host_speed", *host_speed)?;
                count("cores", *cores)?;
                rate("link_bandwidth", *link_bandwidth)?;
                latency("link_latency", *link_latency)?;
                rate("cabinet_bandwidth", *cabinet_bandwidth)?;
                latency("cabinet_latency", *cabinet_latency)?;
                rate("backbone_bandwidth", *backbone_bandwidth)?;
                latency("backbone_latency", *backbone_latency)
            }
        }
    }

    /// Instantiates the platform this spec describes.
    ///
    /// # Panics
    /// On a spec [`PlatformSpec::validate`] refuses; a deserialized spec
    /// has passed it.
    pub fn build(&self) -> Platform {
        match &self.kind {
            SpecKind::Flat {
                nodes,
                host_speed,
                cores,
                cache_bytes,
                link_bandwidth,
                link_latency,
                backbone_bandwidth,
                backbone_latency,
            } => flat_cluster(&FlatClusterSpec {
                name: self.name.clone(),
                nodes: *nodes,
                host_speed: *host_speed,
                cores: *cores,
                cache_bytes: *cache_bytes,
                link_bandwidth: *link_bandwidth,
                link_latency: *link_latency,
                backbone_bandwidth: *backbone_bandwidth,
                backbone_latency: *backbone_latency,
            }),
            SpecKind::Direct {
                nodes,
                host_speed,
                cores,
                cache_bytes,
                link_bandwidth,
                link_latency,
            } => direct_cluster(&DirectClusterSpec {
                name: self.name.clone(),
                nodes: *nodes,
                host_speed: *host_speed,
                cores: *cores,
                cache_bytes: *cache_bytes,
                link_bandwidth: *link_bandwidth,
                link_latency: *link_latency,
            }),
            SpecKind::Cabinets {
                cabinets,
                nodes_per_cabinet,
                host_speed,
                cores,
                cache_bytes,
                link_bandwidth,
                link_latency,
                cabinet_bandwidth,
                cabinet_latency,
                backbone_bandwidth,
                backbone_latency,
            } => cabinet_cluster(&CabinetClusterSpec {
                name: self.name.clone(),
                cabinets: *cabinets,
                nodes_per_cabinet: *nodes_per_cabinet,
                host_speed: *host_speed,
                cores: *cores,
                cache_bytes: *cache_bytes,
                link_bandwidth: *link_bandwidth,
                link_latency: *link_latency,
                cabinet_bandwidth: *cabinet_bandwidth,
                cabinet_latency: *cabinet_latency,
                backbone_bandwidth: *backbone_bandwidth,
                backbone_latency: *backbone_latency,
            }),
        }
    }

    /// A stable 64-bit digest of the spec: FNV-1a over the canonical
    /// serialized tree, with floats taken as their IEEE-754 bit patterns
    /// (never as formatted text). Two specs hash equal iff they describe
    /// the same named platform, so the digest is a well-defined
    /// memoization-key component for a what-if prediction service: it is
    /// invariant under JSON whitespace/formatting and stable across
    /// processes and releases. The name participates — predictions embed
    /// it in their manifests, so differently-named twins are different
    /// answers.
    pub fn canonical_hash(&self) -> u64 {
        let mut h = Fnv64::new();
        hash_value(&mut h, &self.to_value());
        h.digest()
    }

    /// Parses a spec from JSON and [validates](PlatformSpec::validate) it.
    pub fn from_json(json: &str) -> Result<PlatformSpec, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Serializes the spec to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("PlatformSpec always serializes")
    }
}

/// FNV-1a, 64-bit — the same function the `.titb` trace format uses for
/// its payload checksum, re-stated here so `platform` stays free of a
/// `titrace` dependency.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn digest(self) -> u64 {
        self.0
    }
}

/// Hashes a serialized value tree with unambiguous framing: every node
/// is tagged with its kind and every composite with its length, so
/// distinct trees can never produce the same byte stream. Numbers hash
/// as IEEE-754 bits — no formatting round-trip is involved.
fn hash_value(h: &mut Fnv64, v: &serde::Value) {
    use serde::Value;
    match v {
        Value::Null => h.update(b"n"),
        Value::Bool(b) => h.update(if *b { b"t" } else { b"f" }),
        Value::Number(n) => {
            h.update(b"d");
            h.update(&n.to_bits().to_le_bytes());
        }
        Value::String(s) => {
            h.update(b"s");
            h.update(&(s.len() as u64).to_le_bytes());
            h.update(s.as_bytes());
        }
        Value::Array(items) => {
            h.update(b"a");
            h.update(&(items.len() as u64).to_le_bytes());
            for item in items {
                hash_value(h, item);
            }
        }
        Value::Object(pairs) => {
            h.update(b"o");
            h.update(&(pairs.len() as u64).to_le_bytes());
            for (k, item) in pairs {
                h.update(&(k.len() as u64).to_le_bytes());
                h.update(k.as_bytes());
                hash_value(h, item);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// How a spec field is checked.
    #[derive(Clone, Copy)]
    enum Field {
        /// An integer count, at least 1.
        Count,
        /// A byte size (any `u64`).
        Bytes,
        /// A speed or bandwidth: positive and finite.
        Rate,
        /// A latency: finite and not negative.
        Latency,
    }

    /// The fields of each spec kind, with a value that builds.
    const FLAT: &[(&str, Field, &str)] = &[
        ("nodes", Field::Count, "4"),
        ("host_speed", Field::Rate, "1e9"),
        ("cores", Field::Count, "2"),
        ("cache_bytes", Field::Bytes, "1048576"),
        ("link_bandwidth", Field::Rate, "1.25e8"),
        ("link_latency", Field::Latency, "2.5e-5"),
        ("backbone_bandwidth", Field::Rate, "1.25e9"),
        ("backbone_latency", Field::Latency, "5e-6"),
    ];
    const DIRECT: &[(&str, Field, &str)] = &[
        ("nodes", Field::Count, "8"),
        ("host_speed", Field::Rate, "1e9"),
        ("cores", Field::Count, "1"),
        ("cache_bytes", Field::Bytes, "1048576"),
        ("link_bandwidth", Field::Rate, "1.25e8"),
        ("link_latency", Field::Latency, "1e-5"),
    ];
    const CABINETS: &[(&str, Field, &str)] = &[
        ("cabinets", Field::Count, "2"),
        ("nodes_per_cabinet", Field::Count, "4"),
        ("host_speed", Field::Rate, "2e9"),
        ("cores", Field::Count, "4"),
        ("cache_bytes", Field::Bytes, "2097152"),
        ("link_bandwidth", Field::Rate, "1.25e8"),
        ("link_latency", Field::Latency, "2e-5"),
        ("cabinet_bandwidth", Field::Rate, "1.25e9"),
        ("cabinet_latency", Field::Latency, "2e-6"),
        ("backbone_bandwidth", Field::Rate, "2.5e9"),
        ("backbone_latency", Field::Latency, "2e-6"),
    ];

    /// The hostile draws; a draw past them is the field's own buildable
    /// value, so about a quarter of the draws are hostile and many specs
    /// hold none that a field refuses.
    const DRAWS: [&str; 4] = ["0", "-1", "1e-300", "1e300"];

    /// Whether `field` accepts `value`: `Some(false)` where validation
    /// refuses it, `None` where it is no value of the field's type.
    fn accepts(field: Field, value: &str) -> Option<bool> {
        let integer = value == "0" || !DRAWS.contains(&value);
        match field {
            Field::Count => integer.then_some(value != "0"),
            Field::Bytes => integer.then_some(true),
            Field::Rate => Some(value != "0" && value != "-1"),
            Field::Latency => Some(value != "-1"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every numeric field of every spec kind drawn from 0, −1,
        /// 1e-300, 1e300 or a buildable value: parsing refuses exactly
        /// the degenerate specs — naming the first refused field, or as a
        /// number its integer field cannot hold — and every spec it
        /// accepts builds without a panic.
        #[test]
        fn degenerate_specs_are_refused_and_accepted_ones_build(
            kind in 0usize..3,
            draws in proptest::collection::vec(0usize..16, 11),
        ) {
            let (name, fields) = [("Flat", FLAT), ("Direct", DIRECT), ("Cabinets", CABINETS)][kind];
            let mut body = Vec::new();
            let mut untyped = false;
            let mut refused = None;
            for (&(field, check, normal), &draw) in fields.iter().zip(&draws) {
                let value = DRAWS.get(draw).copied().unwrap_or(normal);
                match accepts(check, value) {
                    None => untyped = true,
                    Some(false) => {
                        refused.get_or_insert(field);
                    }
                    Some(true) => {}
                }
                body.push(format!("\"{field}\": {value}"));
            }
            let json = format!(
                "{{\"name\": \"p\", \"kind\": {{\"{name}\": {{{}}}}}}}",
                body.join(", ")
            );
            match PlatformSpec::from_json(&json) {
                Ok(spec) => {
                    prop_assert!(!untyped && refused.is_none(), "accepted {json}");
                    prop_assert!(spec.build().host_count() > 0);
                }
                Err(e) if untyped => {
                    let e = e.to_string();
                    prop_assert!(e.contains(" for u32") || e.contains(" for u64"), "{json}: {e}");
                }
                Err(e) => {
                    let field = refused.unwrap_or_else(|| panic!("refused {json}: {e}"));
                    prop_assert!(e.to_string().contains(&format!("`{field}`")), "{json}: {e}");
                }
            }
        }
    }

    fn flat_spec() -> PlatformSpec {
        PlatformSpec {
            name: "mini".into(),
            kind: SpecKind::Flat {
                nodes: 4,
                host_speed: 1e9,
                cores: 2,
                cache_bytes: 1 << 20,
                link_bandwidth: 1.25e8,
                link_latency: 25e-6,
                backbone_bandwidth: 1.25e9,
                backbone_latency: 5e-6,
            },
        }
    }

    #[test]
    fn json_roundtrip() {
        let spec = flat_spec();
        let json = spec.to_json();
        let back = PlatformSpec::from_json(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn build_matches_spec() {
        let p = flat_spec().build();
        assert_eq!(p.host_count(), 4);
        assert_eq!(p.name, "mini");
    }

    #[test]
    fn cabinets_spec_builds() {
        let spec = PlatformSpec {
            name: "hier".into(),
            kind: SpecKind::Cabinets {
                cabinets: 2,
                nodes_per_cabinet: 4,
                host_speed: 2e9,
                cores: 4,
                cache_bytes: 2 << 20,
                link_bandwidth: 1.25e8,
                link_latency: 20e-6,
                cabinet_bandwidth: 1.25e9,
                cabinet_latency: 2e-6,
                backbone_bandwidth: 2.5e9,
                backbone_latency: 2e-6,
            },
        };
        let p = spec.build();
        assert_eq!(p.host_count(), 8);
        let back = PlatformSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn direct_spec_builds_and_roundtrips() {
        let spec = PlatformSpec {
            name: "xbar".into(),
            kind: SpecKind::Direct {
                nodes: 8,
                host_speed: 1e9,
                cores: 1,
                cache_bytes: 1 << 20,
                link_bandwidth: 1.25e8,
                link_latency: 10e-6,
            },
        };
        let p = spec.build();
        assert_eq!(p.host_count(), 8);
        assert_eq!(p.links().len(), 16);
        let back = PlatformSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(PlatformSpec::from_json("{ not json").is_err());
    }

    #[test]
    fn canonical_hash_survives_a_json_roundtrip() {
        let spec = flat_spec();
        // Formatting must not matter: pretty JSON, compact JSON, and the
        // in-memory original all hash identically.
        let pretty = PlatformSpec::from_json(&spec.to_json()).unwrap();
        let compact = PlatformSpec::from_json(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(spec.canonical_hash(), pretty.canonical_hash());
        assert_eq!(spec.canonical_hash(), compact.canonical_hash());
    }

    #[test]
    fn canonical_hash_changes_with_any_field() {
        let base = flat_spec();
        let mut seen = vec![base.canonical_hash()];
        let mut check = |label: &str, spec: PlatformSpec| {
            let h = spec.canonical_hash();
            assert!(
                !seen.contains(&h),
                "changing {label} did not change the hash"
            );
            seen.push(h);
        };
        let mut renamed = base.clone();
        renamed.name = "mini2".into();
        check("name", renamed);
        let SpecKind::Flat {
            nodes,
            host_speed,
            cores,
            cache_bytes,
            link_bandwidth,
            link_latency,
            backbone_bandwidth,
            backbone_latency,
        } = base.kind.clone()
        else {
            unreachable!()
        };
        let rebuild = |kind: SpecKind| PlatformSpec {
            name: base.name.clone(),
            kind,
        };
        check(
            "nodes",
            rebuild(SpecKind::Flat {
                nodes: nodes + 1,
                host_speed,
                cores,
                cache_bytes,
                link_bandwidth,
                link_latency,
                backbone_bandwidth,
                backbone_latency,
            }),
        );
        check(
            "host_speed",
            rebuild(SpecKind::Flat {
                nodes,
                host_speed: host_speed * 2.0,
                cores,
                cache_bytes,
                link_bandwidth,
                link_latency,
                backbone_bandwidth,
                backbone_latency,
            }),
        );
        check(
            "link_bandwidth",
            rebuild(SpecKind::Flat {
                nodes,
                host_speed,
                cores,
                cache_bytes,
                link_bandwidth: link_bandwidth + 1.0,
                link_latency,
                backbone_bandwidth,
                backbone_latency,
            }),
        );
        // A different topology family with overlapping parameters is a
        // different platform.
        check(
            "kind",
            rebuild(SpecKind::Direct {
                nodes,
                host_speed,
                cores,
                cache_bytes,
                link_bandwidth,
                link_latency,
            }),
        );
    }
}
