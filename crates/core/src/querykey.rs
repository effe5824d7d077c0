//! Canonical what-if query keys.
//!
//! A prediction is fully determined by *what trace*, *what platform*,
//! *what semantic configuration*, and *how many ranks* — nothing else.
//! [`QueryKey`] captures exactly that tuple as three 64-bit canonical
//! hashes plus the rank count, giving `titserved` (and any other
//! memoizing consumer) a well-defined identity for deduplicating
//! in-flight queries and memoizing completed ones:
//!
//! * **trace** — [`titrace::binfmt::content_checksum`]: the FNV-1a
//!   digest of the encoded action payload, identical to the checksum a
//!   `.titb` side-car carries in its header. Independent of file path,
//!   text formatting, and ingestion route.
//! * **platform** — [`platform::PlatformSpec::canonical_hash`]: a
//!   structural hash of the spec's value tree, invariant under JSON
//!   formatting.
//! * **config** — [`replay::ReplayConfig::canonical_hash`]: semantic
//!   fields only. Execution strategy (the thread count) is excluded
//!   because replay results are bit-identical across it — two queries
//!   differing only in strategy are the *same question* and share a
//!   memo entry.
//!
//! Keys render as `q-<trace>-<platform>-<config>-r<ranks>` (hashes in
//! fixed-width hex), a form that is stable across runs and safe to use
//! as a map key, log token, or cache file stem.

use platform::PlatformSpec;
use replay::ReplayConfig;
use titrace::{binfmt, Trace};

/// Canonical identity of one what-if query. See the module docs for
/// what each component hash covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryKey {
    /// Content checksum of the trace's encoded action payload.
    pub trace: u64,
    /// Structural hash of the platform spec.
    pub platform: u64,
    /// Semantic hash of the replay configuration.
    pub config: u64,
    /// Number of ranks the trace is replayed with.
    pub ranks: u32,
}

impl QueryKey {
    /// Builds a key from a decoded trace and the query's platform and
    /// configuration. `ranks` is taken from the trace itself.
    pub fn for_query(trace: &Trace, spec: &PlatformSpec, config: &ReplayConfig) -> Self {
        let (checksum, _) = binfmt::content_checksum(binfmt::trace_sources(trace))
            .expect("an in-memory action list never fails to read");
        Self {
            trace: checksum,
            platform: spec.canonical_hash(),
            config: config.canonical_hash(),
            ranks: trace.ranks(),
        }
    }

    /// Builds a key from an already-known trace checksum (e.g. read
    /// from a `.titb` header without decoding the payload).
    pub fn from_parts(trace: u64, spec: &PlatformSpec, config: &ReplayConfig, ranks: u32) -> Self {
        Self {
            trace,
            platform: spec.canonical_hash(),
            config: config.canonical_hash(),
            ranks,
        }
    }
}

impl std::fmt::Display for QueryKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "q-{:016x}-{:016x}-{:016x}-r{}",
            self.trace, self.platform, self.config, self.ranks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use titrace::{Action, Rank};

    fn sample_trace() -> Trace {
        let mut t = Trace::new(2);
        for r in 0..2 {
            t.push(Rank(r), Action::Init);
            t.push(Rank(r), Action::Compute { amount: 100.0 });
            t.push(Rank(r), Action::Finalize);
        }
        t
    }

    fn sample_spec() -> PlatformSpec {
        sample_spec_with_speed(1e9)
    }

    fn sample_spec_with_speed(host_speed: f64) -> PlatformSpec {
        PlatformSpec {
            name: "k".into(),
            kind: platform::spec::SpecKind::Flat {
                nodes: 2,
                host_speed,
                cores: 1,
                cache_bytes: 1 << 20,
                link_bandwidth: 1.25e8,
                link_latency: 2.5e-5,
                backbone_bandwidth: 1.25e9,
                backbone_latency: 5e-6,
            },
        }
    }

    #[test]
    fn key_is_stable_and_distinguishes_components() {
        let t = sample_trace();
        let spec = sample_spec();
        let cfg = ReplayConfig::improved(1e9);
        let k1 = QueryKey::for_query(&t, &spec, &cfg);
        let k2 = QueryKey::for_query(&t, &spec, &cfg);
        assert_eq!(k1, k2);

        let mut t2 = sample_trace();
        t2.push(Rank(0), Action::Compute { amount: 1.0 });
        assert_ne!(QueryKey::for_query(&t2, &spec, &cfg).trace, k1.trace);

        let spec2 = sample_spec_with_speed(2e9);
        assert_ne!(QueryKey::for_query(&t, &spec2, &cfg).platform, k1.platform);

        let cfg2 = ReplayConfig::improved(2e9);
        assert_ne!(QueryKey::for_query(&t, &spec2, &cfg2).config, k1.config);
    }

    #[test]
    fn display_form_is_fixed_width_and_roundtrips_components() {
        let k = QueryKey {
            trace: 0xdead_beef,
            platform: 1,
            config: u64::MAX,
            ranks: 16,
        };
        assert_eq!(
            k.to_string(),
            "q-00000000deadbeef-0000000000000001-ffffffffffffffff-r16"
        );
    }

    #[test]
    fn from_parts_matches_for_query() {
        let t = sample_trace();
        let spec = sample_spec();
        let cfg = ReplayConfig::improved(1e9);
        let whole = QueryKey::for_query(&t, &spec, &cfg);
        let (checksum, _) =
            titrace::binfmt::content_checksum(titrace::binfmt::trace_sources(&t)).unwrap();
        let parts = QueryKey::from_parts(checksum, &spec, &cfg, t.ranks());
        assert_eq!(whole, parts);
    }
}
