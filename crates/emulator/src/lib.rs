//! The emulated testbed.
//!
//! The paper measures real executions on two Grid'5000 clusters; this
//! crate provides the stand-in (see DESIGN.md, "Substitutions"): the
//! full SMPI-style runtime in its ground-truth configuration (eager copy
//! costs and MPI software overheads modeled, piece-wise network factors
//! on) executing a workload's op streams on a modeled cluster, with
//! cache-aware per-block instruction rates and, optionally,
//! instrumentation perturbation.
//!
//! Everything the paper *measures* comes from here:
//! * execution times of original and instrumented runs (Tables 1–2),
//! * the "real" times against which simulated times are compared
//!   (Figures 3, 6, 7),
//! * calibration runs (Section 3.4) via the per-rank compute-time
//!   accounting.

#![deny(missing_docs)]
#![deny(unsafe_code)]

use acquisition::{CompilerOpt, Instrumentation, InstrumentedHooks};
use platform::{HostId, Placement, Platform};
use simkernel::obs::RunReport;
use smpi::{prepare_smpi, SmpiConfig};
use workloads::lu::LuConfig;
use workloads::OpSource;

/// A modeled cluster plus a rank placement policy.
pub struct Testbed {
    /// The cluster model.
    pub platform: Platform,
    /// Where ranks go.
    pub placement: Placement,
}

/// An instrumented-vs-original overhead measurement (one row of
/// Tables 1–2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadRow {
    /// Original (uninstrumented) execution time, seconds.
    pub original: f64,
    /// Instrumented execution time, seconds.
    pub instrumented: f64,
}

impl OverheadRow {
    /// Overhead in percent: `(instrumented - original) / original`.
    pub fn overhead_percent(&self) -> f64 {
        (self.instrumented - self.original) / self.original * 100.0
    }
}

impl Testbed {
    /// The *bordereau* testbed (one rank per node, as in the paper's
    /// runs).
    pub fn bordereau() -> Testbed {
        Testbed {
            platform: platform::clusters::bordereau(),
            placement: Placement::OnePerNode,
        }
    }

    /// The *graphene* testbed.
    pub fn graphene() -> Testbed {
        Testbed {
            platform: platform::clusters::graphene(),
            placement: Placement::OnePerNode,
        }
    }

    /// A testbed around a custom platform.
    pub fn custom(platform: Platform, placement: Placement) -> Testbed {
        Testbed {
            platform,
            placement,
        }
    }

    /// Host assignment for `ranks` processes.
    ///
    /// # Errors
    /// Propagates placement capacity failures.
    pub fn hosts(&self, ranks: u32) -> Result<Vec<HostId>, String> {
        self.placement.assign(&self.platform, ranks)
    }

    /// Executes a workload (one op source per rank) under `mode` and
    /// `compiler`.
    ///
    /// # Errors
    /// Fails on placement errors or runtime deadlock.
    pub fn run(
        &self,
        sources: Vec<Box<dyn OpSource>>,
        mode: Instrumentation,
        compiler: CompilerOpt,
    ) -> Result<RunReport, String> {
        let hosts = self.hosts(sources.len() as u32)?;
        let hooks = InstrumentedHooks::new(&self.platform, &hosts, mode, compiler);
        let cfg = SmpiConfig::ground_truth();
        prepare_smpi(&self.platform, &hosts, sources, cfg, Box::new(hooks), false).run()
    }

    /// Executes an LU instance.
    ///
    /// # Errors
    /// See [`Testbed::run`].
    pub fn run_lu(
        &self,
        lu: &LuConfig,
        mode: Instrumentation,
        compiler: CompilerOpt,
    ) -> Result<RunReport, String> {
        self.run(lu.sources(), mode, compiler)
    }

    /// Measures one overhead row: the original run against an
    /// instrumented run of the same instance (Tables 1–2).
    ///
    /// # Errors
    /// See [`Testbed::run`].
    pub fn overhead_lu(
        &self,
        lu: &LuConfig,
        mode: Instrumentation,
        compiler: CompilerOpt,
    ) -> Result<OverheadRow, String> {
        let original = self.run_lu(lu, Instrumentation::None, compiler)?;
        let instrumented = self.run_lu(lu, mode, compiler)?;
        Ok(OverheadRow {
            original: original.time(),
            instrumented: instrumented.time(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::lu::LuClass;

    fn small_lu() -> LuConfig {
        LuConfig::new(LuClass::S, 4).with_steps(3)
    }

    #[test]
    fn bordereau_runs_lu() {
        let tb = Testbed::bordereau();
        let r = tb
            .run_lu(&small_lu(), Instrumentation::None, CompilerOpt::O0)
            .unwrap();
        assert!(r.time() > 0.0);
        assert_eq!(r.rank_times.len(), 4);
        assert!(r.compute_seconds.iter().all(|c| *c > 0.0));
    }

    #[test]
    fn instrumentation_slows_the_run() {
        let tb = Testbed::bordereau();
        let row = tb
            .overhead_lu(
                &small_lu(),
                Instrumentation::legacy_default(),
                CompilerOpt::O0,
            )
            .unwrap();
        assert!(
            row.overhead_percent() > 0.5,
            "fine instrumentation overhead {}%",
            row.overhead_percent()
        );
    }

    #[test]
    fn minimal_overhead_is_below_fine_overhead() {
        let tb = Testbed::graphene();
        let lu = small_lu();
        let fine = tb
            .overhead_lu(&lu, Instrumentation::legacy_default(), CompilerOpt::O0)
            .unwrap();
        let minimal = tb
            .overhead_lu(&lu, Instrumentation::Minimal, CompilerOpt::O3)
            .unwrap();
        assert!(
            minimal.overhead_percent() < fine.overhead_percent(),
            "minimal {}% !< fine {}%",
            minimal.overhead_percent(),
            fine.overhead_percent()
        );
    }

    #[test]
    fn o3_speeds_up_the_original_run() {
        let tb = Testbed::bordereau();
        let lu = small_lu();
        let o0 = tb
            .run_lu(&lu, Instrumentation::None, CompilerOpt::O0)
            .unwrap();
        let o3 = tb
            .run_lu(&lu, Instrumentation::None, CompilerOpt::O3)
            .unwrap();
        assert!(o3.time() < o0.time());
    }

    #[test]
    fn emulation_is_deterministic() {
        let tb = Testbed::bordereau();
        let lu = small_lu();
        let a = tb
            .run_lu(&lu, Instrumentation::Minimal, CompilerOpt::O3)
            .unwrap();
        let b = tb
            .run_lu(&lu, Instrumentation::Minimal, CompilerOpt::O3)
            .unwrap();
        assert_eq!(a.time(), b.time());
        assert_eq!(a.rank_times, b.rank_times);
    }

    #[test]
    fn placement_capacity_error_propagates() {
        let tb = Testbed::bordereau(); // 93 nodes
        let lu = LuConfig::new(LuClass::S, 128).with_steps(2);
        let err = tb
            .run_lu(&lu, Instrumentation::None, CompilerOpt::O0)
            .unwrap_err();
        assert!(err.contains("hosts"));
    }

    #[test]
    fn more_processes_run_faster_per_instance() {
        // Strong scaling holds at emulation level for a compute-heavy
        // small instance.
        let tb = Testbed::graphene();
        let t4 = tb
            .run_lu(
                &LuConfig::new(LuClass::W, 4).with_steps(3),
                Instrumentation::None,
                CompilerOpt::O0,
            )
            .unwrap()
            .time();
        let t16 = tb
            .run_lu(
                &LuConfig::new(LuClass::W, 16).with_steps(3),
                Instrumentation::None,
                CompilerOpt::O0,
            )
            .unwrap()
            .time();
        assert!(t16 < t4, "W-16 {t16} !< W-4 {t4}");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use workloads::lu::{LuClass, LuConfig};

    #[test]
    fn custom_testbed_with_packed_placement() {
        let platform = platform::topology::flat_cluster(&platform::topology::FlatClusterSpec {
            name: "fat".into(),
            nodes: 2,
            host_speed: 2e9,
            cores: 4,
            cache_bytes: 2 << 20,
            link_bandwidth: 1.25e8,
            link_latency: 15e-6,
            backbone_bandwidth: 1.25e9,
            backbone_latency: 3e-6,
        });
        let tb = Testbed::custom(platform, Placement::PackCores);
        let lu = LuConfig::new(LuClass::S, 8).with_steps(2);
        let packed = tb
            .run_lu(&lu, Instrumentation::None, CompilerOpt::O3)
            .unwrap();
        assert!(packed.time() > 0.0);
        // All 8 ranks fit on the 2 quad-core nodes.
        assert_eq!(tb.hosts(8).unwrap().iter().filter(|h| h.0 == 0).count(), 4);
    }

    #[test]
    fn message_statistics_scale_with_steps() {
        let tb = Testbed::graphene();
        let short = tb
            .run_lu(
                &LuConfig::new(LuClass::S, 4).with_steps(2),
                Instrumentation::None,
                CompilerOpt::O0,
            )
            .unwrap();
        let long = tb
            .run_lu(
                &LuConfig::new(LuClass::S, 4).with_steps(4),
                Instrumentation::None,
                CompilerOpt::O0,
            )
            .unwrap();
        assert!(long.metrics.messages > short.metrics.messages);
        assert!(long.time() > short.time());
    }

    #[test]
    fn overhead_row_percent_math() {
        let row = OverheadRow {
            original: 10.0,
            instrumented: 12.5,
        };
        assert!((row.overhead_percent() - 25.0).abs() < 1e-12);
    }
}
