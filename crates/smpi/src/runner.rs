//! Assembling and running a complete SMPI simulation.

use std::time::Instant;

use platform::{HostId, Platform};
use simkernel::obs::{ReplayProfile, RunReport, SpanLog};
use simkernel::{Kernel, Wake};
use workloads::OpSource;

use crate::actor::RankActor;
use crate::hooks::ExecHooks;
use crate::world::SmpiWorld;
use crate::SmpiConfig;

/// A fully assembled SMPI simulation that has not run yet: the kernel,
/// the world and one `RankActor` per rank. Produced by
/// [`prepare_smpi`] and run by [`SmpiRun::run`]. The island-parallel
/// replay engine restricts each island's links before the run.
pub struct SmpiRun<'p> {
    kernel: Kernel,
    world: SmpiWorld<'p>,
    ranks: Vec<RankActor>,
}

/// Assembles an SMPI simulation of `sources` (one op stream per rank)
/// placed on `hosts` of `platform`, under protocol `cfg` and local-cost
/// `hooks`: world, pre-sized kernel and one `RankActor` per source.
/// With `record_spans`, the run records a [`SpanLog`] over its own rank
/// ids `0..sources.len()` (`simkernel::obs::chrome_trace` and
/// `state_csv` export it).
pub fn prepare_smpi<'p>(
    platform: &'p Platform,
    hosts: &[HostId],
    sources: Vec<Box<dyn OpSource>>,
    cfg: SmpiConfig,
    hooks: Box<dyn ExecHooks>,
    record_spans: bool,
) -> SmpiRun<'p> {
    let ranks = sources.len();
    assert!(ranks > 0, "no ranks to run");
    assert_eq!(hosts.len(), ranks, "one host per rank required");
    let mut world = SmpiWorld::new(platform, hosts, cfg, hooks);
    world.spans = record_spans.then(|| SpanLog::new(ranks as u32));
    // Pre-size the kernel's hot collections from the workload shape (see
    // `simkernel::replay_sizing` for the heuristic).
    let (activities, events) = simkernel::replay_sizing(ranks);
    SmpiRun {
        kernel: Kernel::with_capacity(activities, events),
        world,
        ranks: (0..ranks as u32)
            .zip(sources)
            .map(|(r, s)| RankActor::new(r, s))
            .collect(),
    }
}

impl SmpiRun<'_> {
    /// Restricts the run's network to `links` (see
    /// [`netmodel::FlowNet::restrict_links`]): a partition-safety guard
    /// for partitioned replay.
    pub fn restrict_links(&mut self, links: &[platform::LinkId]) {
        self.world.net.restrict_links(links);
    }

    /// Runs the simulation to quiescence and reports it: metrics always,
    /// spans when recording is on, and a one-worker profile of the run's
    /// wall time. Every rank starts at t = 0, in rank order; then each
    /// kernel wake goes to the transport or to the rank it names.
    ///
    /// # Errors
    /// A deadlock (the blocked ranks, each with what it waits for), or a
    /// run that finished with protocol records alive — a message nobody
    /// received, a receive nobody matched, a request nobody waited for
    /// (see `SmpiWorld::check_drained`).
    pub fn run(self) -> Result<RunReport, String> {
        let started = Instant::now();
        let SmpiRun {
            mut kernel,
            mut world,
            mut ranks,
        } = self;
        for rank in &mut ranks {
            rank.resume(&mut kernel, &mut world, Wake::Start);
        }
        let transport = world.transport();
        while let Some((id, wake)) = kernel.next_wake() {
            if id == transport {
                world.on_transport_wake(&mut kernel, wake);
            } else {
                ranks[id.as_usize()].resume(&mut kernel, &mut world, wake);
            }
        }
        let (ids, what): (Vec<usize>, Vec<String>) = (ranks.iter().enumerate())
            .filter(|(_, r)| r.finish_time().is_never())
            .map(|(i, r)| (i, r.describe_block()))
            .unzip();
        if !ids.is_empty() {
            return Err(format!(
                "simulated execution deadlocked; blocked ranks: {ids:?}; {}",
                what.join(", ")
            ));
        }
        world.check_drained()?;
        let mut metrics = world.metrics;
        kernel.observe(&mut metrics);
        metrics.net = world.net.stats();
        Ok(RunReport::new(
            metrics,
            ranks.iter().map(|r| r.finish_time().as_secs()).collect(),
            world.compute_seconds,
            world.spans,
            ReplayProfile::sequential(started.elapsed().as_secs_f64(), ranks.len()),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::FixedRateHooks;
    use platform::topology::{flat_cluster, FlatClusterSpec};
    use workloads::{ComputeBlock, MpiOp, VecSource};

    /// What the runtime itself counts (as opposed to the kernel and the
    /// network model): messages, eager messages, bytes, collective
    /// participations and the match queues' high-water marks.
    pub(super) fn world_counts(r: &RunReport) -> [u64; 6] {
        let m = &r.metrics;
        let queues = [m.max_unexpected_depth, m.max_posted_depth];
        [
            m.messages,
            m.eager_messages,
            m.bytes,
            m.collectives,
            queues[0],
            queues[1],
        ]
    }

    pub(super) fn tiny_platform(nodes: u32) -> Platform {
        flat_cluster(&FlatClusterSpec {
            name: "t".into(),
            nodes,
            host_speed: 1e9,
            cores: 1,
            cache_bytes: 1 << 20,
            link_bandwidth: 1e8,
            link_latency: 10e-6,
            backbone_bandwidth: 1e9,
            backbone_latency: 0.0,
        })
    }

    fn hosts(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    pub(super) fn run(nodes: u32, progs: Vec<Vec<MpiOp>>, cfg: SmpiConfig) -> RunReport {
        let p = tiny_platform(nodes);
        let n = progs.len() as u32;
        let sources: Vec<Box<dyn workloads::OpSource>> = progs
            .into_iter()
            .map(|ops| Box::new(VecSource::new(ops)) as Box<dyn workloads::OpSource>)
            .collect();
        prepare_smpi(
            &p,
            &hosts(n),
            sources,
            cfg,
            Box::new(FixedRateHooks::uniform(1e9, n)),
            false,
        )
        .run()
        .expect("run failed")
    }

    fn cfg_no_copy() -> SmpiConfig {
        SmpiConfig {
            copy: None,
            factors: netmodel::PiecewiseFactors::raw(),
            ..SmpiConfig::ground_truth()
        }
    }

    #[test]
    fn compute_only() {
        let r = run(
            1,
            vec![vec![
                MpiOp::Init,
                MpiOp::Compute(ComputeBlock::plain(2e9)),
                MpiOp::Finalize,
            ]],
            cfg_no_copy(),
        );
        assert!((r.time() - 2.0).abs() < 1e-9, "{}", r.time());
        assert!((r.compute_seconds[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn eager_message_timing_is_latency_plus_transfer() {
        // 1000 bytes over 1e8 B/s with 20µs path latency (2 NIC hops at
        // 10µs; raw factors).
        let progs = vec![
            vec![MpiOp::Send {
                dst: 1,
                bytes: 1000,
            }],
            vec![MpiOp::Recv {
                src: 0,
                bytes: 1000,
            }],
        ];
        let r = run(2, progs, cfg_no_copy());
        let expect = 1000.0 / 1e8 + 20e-6;
        assert!(
            (r.rank_times[1] - expect).abs() < 1e-9,
            "recv done at {} expected {expect}",
            r.rank_times[1]
        );
        // Detached: the sender finished immediately (no copy cost here).
        assert!(r.rank_times[0] < 1e-12);
        assert_eq!(r.metrics.messages, 1);
        assert_eq!(r.metrics.eager_messages, 1);
    }

    #[test]
    fn eager_sender_pays_copy_when_modeled() {
        let mut cfg = cfg_no_copy();
        cfg.copy = Some(crate::CopyCost {
            base_seconds: 1e-6,
            bytes_per_second: 1e9,
        });
        let progs = vec![
            vec![MpiOp::Send {
                dst: 1,
                bytes: 1000,
            }],
            vec![MpiOp::Recv {
                src: 0,
                bytes: 1000,
            }],
        ];
        let r = run(2, progs, cfg);
        let copy = 1e-6 + 1000.0 / 1e9;
        assert!((r.rank_times[0] - copy).abs() < 1e-12);
    }

    #[test]
    fn late_receiver_of_eager_message_returns_instantly() {
        // Receiver computes 1s first; the 1000-byte message has long
        // arrived; its recv completes with no extra delay.
        let progs = vec![
            vec![MpiOp::Send {
                dst: 1,
                bytes: 1000,
            }],
            vec![
                MpiOp::Compute(ComputeBlock::plain(1e9)),
                MpiOp::Recv {
                    src: 0,
                    bytes: 1000,
                },
            ],
        ];
        let r = run(2, progs, cfg_no_copy());
        assert!((r.rank_times[1] - 1.0).abs() < 1e-9, "{}", r.rank_times[1]);
    }

    #[test]
    fn rendezvous_sender_blocks_for_late_receiver() {
        let bytes = 256 * 1024; // > threshold
        let progs = vec![
            vec![MpiOp::Send { dst: 1, bytes }],
            vec![
                MpiOp::Compute(ComputeBlock::plain(1e9)),
                MpiOp::Recv { src: 0, bytes },
            ],
        ];
        let r = run(2, progs, cfg_no_copy());
        let transfer = bytes as f64 / 1e8 + 20e-6;
        // Transfer starts at t=1 when the recv posts; sender completes at
        // arrival.
        assert!(
            (r.rank_times[0] - (1.0 + transfer)).abs() < 1e-9,
            "{} vs {}",
            r.rank_times[0],
            1.0 + transfer
        );
        assert_eq!(r.metrics.eager_messages, 0);
    }

    #[test]
    fn isend_wait_semantics() {
        let bytes = 256 * 1024;
        let progs = vec![
            vec![
                MpiOp::Isend { dst: 1, bytes },
                MpiOp::Compute(ComputeBlock::plain(5e8)),
                MpiOp::Wait,
            ],
            vec![MpiOp::Recv { src: 0, bytes }],
        ];
        let r = run(2, progs, cfg_no_copy());
        let transfer = bytes as f64 / 1e8 + 20e-6;
        // The transfer overlaps the sender's 0.5s of compute.
        assert!((r.rank_times[1] - transfer).abs() < 1e-9);
        assert!((r.rank_times[0] - 0.5f64.max(transfer)).abs() < 1e-9);
    }

    #[test]
    fn irecv_waitall_overlap() {
        let progs = vec![
            vec![
                MpiOp::Irecv { src: 1, bytes: 500 },
                MpiOp::Compute(ComputeBlock::plain(1e9)),
                MpiOp::WaitAll,
            ],
            vec![MpiOp::Send { dst: 0, bytes: 500 }],
        ];
        let r = run(2, progs, cfg_no_copy());
        // Message arrives way before the compute ends.
        assert!((r.rank_times[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn barrier_synchronizes() {
        let mk = |work: f64| {
            vec![
                MpiOp::Compute(ComputeBlock::plain(work)),
                MpiOp::Barrier,
                MpiOp::Finalize,
            ]
        };
        let r = run(4, vec![mk(1e9), mk(2e9), mk(5e8), mk(1e8)], cfg_no_copy());
        // Nobody leaves the barrier before the slowest rank (2s) enters.
        for t in &r.rank_times {
            assert!(*t >= 2.0, "rank finished at {t} before barrier release");
        }
        assert!(r.time() < 2.01, "barrier cost too high: {}", r.time());
    }

    #[test]
    fn allreduce_and_bcast_complete() {
        let prog = |r: u32| {
            vec![
                MpiOp::Init,
                MpiOp::Bcast { bytes: 40, root: 0 },
                MpiOp::Compute(ComputeBlock::plain((r as f64 + 1.0) * 1e8)),
                MpiOp::Allreduce { bytes: 40 },
                MpiOp::Finalize,
            ]
        };
        let r = run(8, (0..8).map(prog).collect(), cfg_no_copy());
        assert_eq!(r.metrics.collectives, 16);
        // All ranks leave the allreduce together (within latency slack).
        let min = r.rank_times.iter().copied().fold(f64::INFINITY, f64::min);
        let max = r.rank_times.iter().copied().fold(0.0, f64::max);
        assert!(max - min < 1e-3, "allreduce skew {}", max - min);
    }

    #[test]
    fn deterministic_across_runs() {
        let prog = |r: u32| {
            vec![
                MpiOp::Compute(ComputeBlock::plain((r as f64 + 1.0) * 1e7)),
                MpiOp::Allreduce { bytes: 8 },
            ]
        };
        let a = run(8, (0..8).map(prog).collect(), cfg_no_copy());
        let b = run(8, (0..8).map(prog).collect(), cfg_no_copy());
        assert_eq!(a.rank_times, b.rank_times);
        assert_eq!(a.metrics.events_processed, b.metrics.events_processed);
    }

    #[test]
    fn lu_small_instance_runs_clean() {
        use workloads::lu::{LuClass, LuConfig};
        let cfg = LuConfig::new(LuClass::S, 4).with_steps(3);
        let p = tiny_platform(4);
        let r = prepare_smpi(
            &p,
            &hosts(4),
            cfg.sources(),
            SmpiConfig::ground_truth(),
            Box::new(FixedRateHooks::uniform(1e9, 4)),
            false,
        )
        .run()
        .expect("LU S-4 failed");
        assert!(r.time() > 0.0);
        assert!(r.metrics.messages > 100);
        assert!(r.metrics.eager_messages > 0);
    }

    #[test]
    fn lu_multiple_grids_run_clean() {
        use workloads::lu::{LuClass, LuConfig};
        for procs in [2u32, 8, 16] {
            let cfg = LuConfig::new(LuClass::S, procs).with_steps(2);
            let p = tiny_platform(procs);
            let r = prepare_smpi(
                &p,
                &hosts(procs),
                cfg.sources(),
                SmpiConfig::ground_truth(),
                Box::new(FixedRateHooks::uniform(1e9, procs)),
                false,
            )
            .run()
            .unwrap_or_else(|e| panic!("LU S-{procs}: {e}"));
            assert!(r.time() > 0.0);
        }
    }

    #[test]
    fn faster_cpu_is_never_slower() {
        use workloads::lu::{LuClass, LuConfig};
        let cfg = LuConfig::new(LuClass::S, 4).with_steps(3);
        let p = tiny_platform(4);
        let run_at = |rate: f64| {
            prepare_smpi(
                &p,
                &hosts(4),
                cfg.sources(),
                SmpiConfig::ground_truth(),
                Box::new(FixedRateHooks::uniform(rate, 4)),
                false,
            )
            .run()
            .unwrap()
            .time()
        };
        assert!(run_at(2e9) <= run_at(1e9));
    }

    #[test]
    fn loopback_messages_bypass_network() {
        // Both ranks on the same host: transfer is a memory copy.
        let p = tiny_platform(1);
        let progs = vec![
            vec![MpiOp::Send {
                dst: 1,
                bytes: 1000,
            }],
            vec![MpiOp::Recv {
                src: 0,
                bytes: 1000,
            }],
        ];
        let sources: Vec<Box<dyn workloads::OpSource>> = progs
            .into_iter()
            .map(|ops| Box::new(VecSource::new(ops)) as Box<dyn workloads::OpSource>)
            .collect();
        let r = prepare_smpi(
            &p,
            &[HostId(0), HostId(0)],
            sources,
            cfg_no_copy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
            false,
        )
        .run()
        .unwrap();
        assert_eq!(r.metrics.net.flows_opened, 0);
        assert!(r.rank_times[1] < 1e-5, "{}", r.rank_times[1]);
    }

    #[test]
    fn traced_run_records_compute_and_wait() {
        use simkernel::obs::SpanKind;
        let p = tiny_platform(2);
        let progs = vec![
            vec![
                MpiOp::Compute(ComputeBlock::plain(1e9)),
                MpiOp::Send {
                    dst: 1,
                    bytes: 1000,
                },
            ],
            vec![MpiOp::Recv {
                src: 0,
                bytes: 1000,
            }],
        ];
        let sources: Vec<Box<dyn workloads::OpSource>> = progs
            .into_iter()
            .map(|ops| Box::new(VecSource::new(ops)) as Box<dyn workloads::OpSource>)
            .collect();
        let r = prepare_smpi(
            &p,
            &hosts(2),
            sources,
            cfg_no_copy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
            true,
        )
        .run()
        .unwrap();
        let spans = r.spans.as_ref().expect("spans recorded");
        // Rank 0 computed ~1s; rank 1 waited ~1s for the message.
        assert!((spans.total(0, SpanKind::Compute) - 1.0).abs() < 1e-9);
        assert!(spans.total(1, SpanKind::Recv) > 0.99);
        assert!(r.time() >= 1.0);
    }

    #[test]
    fn observed_run_reports_metrics_and_spans() {
        let p = tiny_platform(2);
        let progs = vec![
            vec![
                MpiOp::Compute(ComputeBlock::plain(1e9)),
                MpiOp::Send {
                    dst: 1,
                    bytes: 1000,
                },
            ],
            vec![MpiOp::Recv {
                src: 0,
                bytes: 1000,
            }],
        ];
        let sources: Vec<Box<dyn workloads::OpSource>> = progs
            .into_iter()
            .map(|ops| Box::new(VecSource::new(ops)) as Box<dyn workloads::OpSource>)
            .collect();
        let r = prepare_smpi(
            &p,
            &hosts(2),
            sources,
            cfg_no_copy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
            true,
        )
        .run()
        .unwrap();
        assert_eq!(r.metrics.engine, "smpi");
        assert_eq!(r.metrics.ranks, 2);
        let makespan = r.rank_times.iter().copied().fold(0.0, f64::max);
        assert_eq!(r.metrics.simulated_time_s.to_bits(), makespan.to_bits());
        assert_eq!(r.metrics.events_processed, r.metrics.fel.popped);
        assert_eq!(r.metrics.messages, 1);
        assert_eq!(r.metrics.eager_messages, 1);
        assert_eq!(r.metrics.rendezvous_messages, 0);
        assert_eq!(r.metrics.net.flows_opened, 1);
        assert_eq!(r.metrics.net.flows_closed, 1);
        let log = r.spans.as_ref().expect("spans recorded");
        assert_eq!(log.flows().len(), 1);
        // Closed: a flow's span ends where it opened until it closes.
        assert!(log.flows()[0].end > log.flows()[0].start);
        assert!(log.total(0, simkernel::obs::SpanKind::Compute) > 0.99);
        assert!(log.total(1, simkernel::obs::SpanKind::Recv) > 0.99);
        assert_eq!(r.metrics.recorder_counts.unwrap(), log.counts());
    }

    #[test]
    fn observed_run_without_spans_matches_plain_run() {
        let p = tiny_platform(2);
        let mk = || {
            let progs = vec![
                vec![MpiOp::Send {
                    dst: 1,
                    bytes: 1000,
                }],
                vec![MpiOp::Recv {
                    src: 0,
                    bytes: 1000,
                }],
            ];
            progs
                .into_iter()
                .map(|ops| Box::new(VecSource::new(ops)) as Box<dyn workloads::OpSource>)
                .collect::<Vec<_>>()
        };
        // The recorder must not perturb the run.
        let recorded = prepare_smpi(
            &p,
            &hosts(2),
            mk(),
            cfg_no_copy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
            true,
        )
        .run()
        .unwrap();
        let r = prepare_smpi(
            &p,
            &hosts(2),
            mk(),
            cfg_no_copy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
            false,
        )
        .run()
        .unwrap();
        assert_eq!(recorded.rank_times, r.rank_times);
        assert_eq!(
            recorded.metrics.events_processed,
            r.metrics.events_processed
        );
        assert!(r.spans.is_none());
        assert!(r.metrics.recorder_counts.is_none());
    }

    /// One replay of `progs` under `cfg` on a flat cluster, after `set`
    /// flips the world's test-only switches (`eager_collectives`,
    /// `eager_arrivals`).
    fn run_switched(
        progs: &[Vec<MpiOp>],
        cfg: SmpiConfig,
        set: impl FnOnce(&mut SmpiWorld),
    ) -> RunReport {
        let n = progs.len() as u32;
        let sources = progs
            .iter()
            .map(|ops| Box::new(VecSource::new(ops.clone())) as Box<dyn workloads::OpSource>)
            .collect();
        let hooks = Box::new(FixedRateHooks::uniform(1e9, n));
        let platform = tiny_platform(n);
        let mut run = prepare_smpi(&platform, &hosts(n), sources, cfg, hooks, false);
        set(&mut run.world);
        run.run().expect("schedule deadlocked")
    }

    /// [`run_switched`] under the replay configuration; with
    /// `eager_collectives`, collective flows take the per-flow path.
    fn run_schedule(progs: &[Vec<MpiOp>], eager_collectives: bool) -> RunReport {
        run_switched(progs, SmpiConfig::smpi_replay(), |w| {
            w.eager_collectives = eager_collectives;
        })
    }

    fn time_bits(r: &RunReport) -> Vec<u64> {
        r.rank_times.iter().map(|t| t.to_bits()).collect()
    }

    /// `(lazy, eager)`: `progs` with unobserved arrivals reserved, and
    /// with every arrival timer queued at flow drain.
    fn run_arrivals(progs: &[Vec<MpiOp>], cfg: SmpiConfig) -> (RunReport, RunReport) {
        let lazy = run_switched(progs, cfg.clone(), |_| {});
        let eager = run_switched(progs, cfg, |w| w.eager_arrivals = true);
        (lazy, eager)
    }

    /// One 1000-byte eager message whose receiver computes `instr`
    /// instructions (1 ns each) first. Raw factors: the flow drains at
    /// 10 µs, the 20 µs tail latency ends at 30 µs. Both paths end on
    /// the same bits, the receiver at `finish`, and the reserved path
    /// saves `saved` events.
    fn assert_late_receive(instr: f64, finish: f64, saved: u64) {
        let progs = vec![
            vec![MpiOp::Send {
                dst: 1,
                bytes: 1000,
            }],
            vec![
                MpiOp::Compute(ComputeBlock::plain(instr)),
                MpiOp::Recv {
                    src: 0,
                    bytes: 1000,
                },
            ],
        ];
        let (lazy, eager) = run_arrivals(&progs, cfg_no_copy());
        assert_eq!(time_bits(&lazy), time_bits(&eager));
        let got = lazy.rank_times[1];
        assert!((got - finish).abs() < 1e-12, "{got} vs {finish}");
        assert_eq!(
            eager.metrics.events_processed - lazy.metrics.events_processed,
            saved
        );
    }

    /// A receive posted before the flow drains makes the message
    /// observed at drain: the arrival is queued as before.
    #[test]
    fn receive_before_drain_queues_the_arrival() {
        assert_late_receive(5e3, 30e-6, 0);
    }

    /// A receive inside the tail latency arms the reserved arrival,
    /// which fires where the queued one would have: no event saved.
    #[test]
    fn receive_inside_the_tail_latency_arms_the_arrival() {
        assert_late_receive(20e3, 30e-6, 0);
    }

    /// A receive after the arrival instant finds the message arrived:
    /// the reserved timer is never queued, one event saved.
    #[test]
    fn receive_after_arrival_saves_the_arrival_event() {
        assert_late_receive(50e3, 50e-6, 1);
    }

    /// Hooks planning every compute as `work` units at `rate`.
    struct PlanHooks(f64, f64);

    impl ExecHooks for PlanHooks {
        fn plan_compute(&mut self, _: u32, _: &ComputeBlock) -> crate::hooks::ComputePlan {
            crate::hooks::ComputePlan {
                work: self.0,
                rate: self.1,
                extra_delay: 0.0,
            }
        }

        fn mpi_call_delay(&mut self, _: u32) -> f64 {
            0.0
        }
    }

    fn run_planned(work: f64, rate: f64) -> Result<RunReport, String> {
        let p = tiny_platform(1);
        let source = Box::new(VecSource::new(vec![MpiOp::Compute(ComputeBlock::plain(
            1.0,
        ))]));
        prepare_smpi(
            &p,
            &hosts(1),
            vec![source],
            cfg_no_copy(),
            Box::new(PlanHooks(work, rate)),
            false,
        )
        .run()
    }

    /// A compute burst is a timer, but its plan is checked as strictly
    /// as a kernel activity's: positive work that is infinite, or a
    /// rate that is negative or not finite, panics instead of becoming
    /// some finite duration. A zero rate never finishes: no timer, and
    /// the deadlock report names the compute.
    #[test]
    fn compute_plans_are_checked_and_a_zero_rate_blocks() {
        for (work, rate, what) in [
            (f64::INFINITY, 1e9, "invalid work"),
            (1e9, f64::NAN, "invalid rate"),
            (1e9, -1.0, "invalid rate"),
            (1e9, f64::INFINITY, "invalid rate"),
        ] {
            let panic = std::panic::catch_unwind(|| run_planned(work, rate)).unwrap_err();
            let text = panic.downcast_ref::<String>().expect("formatted panic");
            assert!(text.starts_with(what), "({work}, {rate}): {text}");
        }
        let err = run_planned(1e9, 0.0).unwrap_err();
        assert_eq!(
            err,
            "simulated execution deadlocked; blocked ranks: [0]; rank 0: compute"
        );
        assert_eq!(run_planned(2e9, 1e9).unwrap().rank_times, vec![2.0]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Differential: random collective schedules — every rank runs
        /// the same sequence of collectives (as MPI requires), sizes
        /// straddling the eager threshold, rank-skewed compute and a
        /// non-blocking application ring shift in between, so eager
        /// application flows meet batched collective ones — end on the
        /// same bits whether collective flows re-solve per flow or once
        /// per instant.
        #[test]
        fn batched_collectives_match_the_per_flow_path(
            ranks in 2u32..9,
            schedule in proptest::collection::vec((0u8..5, 8u32..20, 1e3f64..1e6, 6u32..18), 1..8),
        ) {
            let progs: Vec<Vec<MpiOp>> = (0..ranks)
                .map(|r| {
                    let mut ops = vec![MpiOp::Init];
                    for &(kind, log_bytes, compute, log_shift) in &schedule {
                        ops.push(MpiOp::Compute(ComputeBlock::plain(compute * (1.0 + r as f64))));
                        ops.push(MpiOp::Isend { dst: (r + 1) % ranks, bytes: 1 << log_shift });
                        let bytes = 1u64 << log_bytes;
                        ops.push(match kind {
                            0 => MpiOp::Allreduce { bytes },
                            1 => MpiOp::Bcast { bytes, root: 0 },
                            2 => MpiOp::Reduce { bytes, root: 0 },
                            3 => MpiOp::Alltoall { bytes },
                            _ => MpiOp::Barrier,
                        });
                        ops.push(MpiOp::Recv { src: (r + ranks - 1) % ranks, bytes: 1 << log_shift });
                        ops.push(MpiOp::Wait);
                    }
                    ops.push(MpiOp::Finalize);
                    ops
                })
                .collect();
            let per_flow = run_schedule(&progs, true);
            let batched = run_schedule(&progs, false);
            proptest::prop_assert_eq!(time_bits(&per_flow), time_bits(&batched));
            proptest::prop_assert_eq!(world_counts(&per_flow), world_counts(&batched));
        }

        /// Differential: random programs of eager point-to-point messages
        /// between up to 8 ranks. Each send and each receive (blocking,
        /// or an irecv waited for after more compute) follows
        /// rank-skewed compute, so receives land before a flow drains,
        /// inside its tail latency and after arrival. Reserving the
        /// arrivals nobody observes ends on the bits and counters of
        /// queueing every arrival, under both models, in no more events.
        /// Under MSG a transfer starts at its match, so nothing goes
        /// unobserved and the counts are equal.
        #[test]
        fn reserved_arrivals_match_queued_arrivals(
            ranks in 2u32..9,
            rounds in proptest::collection::vec(
                (0u32..8, 0u32..7, 3u32..16, 0.0f64..1e5, 0.0f64..1e5, 0u8..4),
                1..40,
            ),
        ) {
            let mut progs: Vec<Vec<MpiOp>> = vec![vec![MpiOp::Init]; ranks as usize];
            for &(src, hop, log_bytes, send_instr, recv_instr, kind) in &rounds {
                let src = src % ranks;
                let dst = (src + 1 + hop % (ranks - 1)) % ranks;
                let bytes = 1u64 << log_bytes;
                let send = &mut progs[src as usize];
                send.push(MpiOp::Compute(ComputeBlock::plain(send_instr)));
                if kind == 3 {
                    send.extend([MpiOp::Isend { dst, bytes }, MpiOp::Wait]);
                } else {
                    send.push(MpiOp::Send { dst, bytes });
                }
                let recv = &mut progs[dst as usize];
                recv.push(MpiOp::Compute(ComputeBlock::plain(recv_instr)));
                if kind == 1 {
                    recv.extend([
                        MpiOp::Irecv { src, bytes },
                        MpiOp::Compute(ComputeBlock::plain(send_instr)),
                        MpiOp::Wait,
                    ]);
                } else {
                    recv.push(MpiOp::Recv { src, bytes });
                }
            }
            for prog in &mut progs {
                prog.push(MpiOp::Finalize);
            }
            for cfg in [SmpiConfig::smpi_replay(), SmpiConfig::msg_legacy()] {
                let msg = cfg.model == crate::Model::Msg;
                let (lazy, eager) = run_arrivals(&progs, cfg);
                proptest::prop_assert_eq!(time_bits(&lazy), time_bits(&eager));
                proptest::prop_assert_eq!(world_counts(&lazy), world_counts(&eager));
                proptest::prop_assert!(lazy.metrics.events_processed <= eager.metrics.events_processed);
                if msg {
                    proptest::prop_assert_eq!(lazy.metrics.events_processed, eager.metrics.events_processed);
                }
            }
        }
    }

    #[test]
    fn unmatched_recv_deadlocks_with_report() {
        let p = tiny_platform(2);
        let progs = vec![
            vec![MpiOp::Recv { src: 1, bytes: 8 }],
            vec![MpiOp::Finalize],
        ];
        let sources: Vec<Box<dyn workloads::OpSource>> = progs
            .into_iter()
            .map(|ops| Box::new(VecSource::new(ops)) as Box<dyn workloads::OpSource>)
            .collect();
        let err = prepare_smpi(
            &p,
            &hosts(2),
            sources,
            cfg_no_copy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
            false,
        )
        .run()
        .unwrap_err();
        assert!(err.contains("deadlock"), "{err}");
        assert!(err.contains('0'), "{err}");
    }

    /// Independent ranks finish in the order of their work, each at its
    /// own instant; the makespan is the last of them.
    #[test]
    fn completion_order_follows_work() {
        let prog = |instr: f64| vec![MpiOp::Compute(ComputeBlock::plain(instr))];
        let r = run(3, vec![prog(3e9), prog(1e9), prog(2e9)], cfg_no_copy());
        assert_eq!(r.rank_times, vec![3.0, 1.0, 2.0]);
        assert_eq!(r.time(), 3.0);
    }

    /// A wake addressed to a rank whose op stream has run out is
    /// ignored: the rank stays finished at the instant it finished.
    #[test]
    fn wake_after_finish_is_ignored() {
        use simkernel::{ActorId, Duration, Kernel, Time, Wake};
        let p = tiny_platform(1);
        let hooks = Box::new(FixedRateHooks::uniform(1e9, 1));
        let mut world = SmpiWorld::new(&p, &hosts(1), cfg_no_copy(), hooks);
        let mut kernel = Kernel::new();
        let source = Box::new(VecSource::new(vec![MpiOp::Init, MpiOp::Finalize]));
        let mut rank = RankActor::new(0, source);
        rank.resume(&mut kernel, &mut world, Wake::Start);
        assert_eq!(rank.finish_time(), Time::ZERO);
        kernel.set_timer(ActorId(0), Duration::from_secs(1.0), 7);
        let (id, wake) = kernel.next_wake().unwrap();
        assert_eq!((id, kernel.now()), (ActorId(0), Time::from_secs(1.0)));
        rank.resume(&mut kernel, &mut world, wake);
        assert_eq!(rank.finish_time(), Time::ZERO);
    }

    /// Ranks that disagree on the number of collectives deadlock, and the
    /// report names the rank left waiting and its collective, under both
    /// models.
    #[test]
    fn deadlock_report_names_the_collective() {
        let allreduce = MpiOp::Allreduce { bytes: 8 };
        for cfg in [cfg_no_copy(), SmpiConfig::msg_legacy()] {
            let p = tiny_platform(2);
            let progs = [vec![allreduce, allreduce], vec![allreduce]];
            let sources: Vec<Box<dyn workloads::OpSource>> = progs
                .into_iter()
                .map(|ops| Box::new(VecSource::new(ops)) as Box<dyn workloads::OpSource>)
                .collect();
            let hooks = Box::new(FixedRateHooks::uniform(1e9, 2));
            let err = prepare_smpi(&p, &hosts(2), sources, cfg, hooks, false)
                .run()
                .unwrap_err();
            assert!(
                err.starts_with(
                    "simulated execution deadlocked; blocked ranks: [0]; rank 0: collective #1"
                ),
                "{err}"
            );
        }
    }

    /// A detached send nobody receives lets every rank finish; the run is
    /// still an error, in every build, naming what leaked and where.
    #[test]
    fn unmatched_send_is_reported() {
        let p = tiny_platform(3);
        let progs = vec![
            vec![MpiOp::Finalize],
            vec![MpiOp::Send { dst: 2, bytes: 8 }],
            vec![MpiOp::Finalize],
        ];
        let sources: Vec<Box<dyn workloads::OpSource>> = progs
            .into_iter()
            .map(|ops| Box::new(VecSource::new(ops)) as Box<dyn workloads::OpSource>)
            .collect();
        let err = prepare_smpi(
            &p,
            &hosts(3),
            sources,
            cfg_no_copy(),
            Box::new(FixedRateHooks::uniform(1e9, 3)),
            false,
        )
        .run()
        .unwrap_err();
        assert_eq!(
            err,
            "replay finished with unmatched records: 1 messages, 0 posts, 0 requests \
             (first unreceived message: rank 1 -> rank 2)"
        );
    }

    #[test]
    fn late_receiver_pays_full_transfer_after_matching() {
        // The defining difference of the MSG model: the receiver
        // computes 1s, then matches the deposited task, and the transfer
        // only starts THEN — costing the full latency + size/bw.
        let progs = vec![
            vec![MpiOp::Send {
                dst: 1,
                bytes: 1000,
            }],
            vec![
                MpiOp::Compute(ComputeBlock::plain(1e9)),
                MpiOp::Recv {
                    src: 0,
                    bytes: 1000,
                },
            ],
        ];
        let r = run(2, progs, SmpiConfig::msg_legacy());
        let transfer = 1000.0 / 1e8 + 1.9 * 20e-6;
        assert!(
            (r.rank_times[1] - (1.0 + transfer)).abs() < 1e-9,
            "{} vs {}",
            r.rank_times[1],
            1.0 + transfer
        );
        // The asynchronous sender left immediately.
        assert!(r.rank_times[0] < 1e-12);
        assert_eq!(r.metrics.eager_messages, 1);
    }

    #[test]
    fn early_receiver_starts_transfer_at_deposit() {
        let progs = vec![
            vec![
                MpiOp::Compute(ComputeBlock::plain(5e8)),
                MpiOp::Send {
                    dst: 1,
                    bytes: 1000,
                },
            ],
            vec![MpiOp::Recv {
                src: 0,
                bytes: 1000,
            }],
        ];
        let r = run(2, progs, SmpiConfig::msg_legacy());
        let transfer = 1000.0 / 1e8 + 1.9 * 20e-6;
        assert!((r.rank_times[1] - (0.5 + transfer)).abs() < 1e-9);
    }

    #[test]
    fn large_send_blocks_until_delivery() {
        let bytes = 128 * 1024;
        let progs = vec![
            vec![MpiOp::Send { dst: 1, bytes }],
            vec![
                MpiOp::Compute(ComputeBlock::plain(1e9)),
                MpiOp::Recv { src: 0, bytes },
            ],
        ];
        let r = run(2, progs, SmpiConfig::msg_legacy());
        let transfer = bytes as f64 / 1e8 + 1.9 * 20e-6;
        assert!(
            (r.rank_times[0] - (1.0 + transfer)).abs() < 1e-9,
            "{}",
            r.rank_times[0]
        );
        assert_eq!(r.metrics.eager_messages, 0);
    }

    #[test]
    fn monolithic_collective_synchronizes_and_charges_formula() {
        let mk = |work: f64| {
            vec![
                MpiOp::Compute(ComputeBlock::plain(work)),
                MpiOp::Allreduce { bytes: 40 },
            ]
        };
        let r = run(
            4,
            vec![mk(1e9), mk(2e9), mk(5e8), mk(1e8)],
            SmpiConfig::msg_legacy(),
        );
        // Release = slowest entry (2s) + allreduce formula.
        let m = crate::collectives::CollectiveModel {
            latency: 20e-6,
            bandwidth: 1e8,
        };
        let expect = 2.0 + m.allreduce(4, 40);
        for t in &r.rank_times {
            assert!((t - expect).abs() < 1e-9, "{t} vs {expect}");
        }
        // One collective, entered by four ranks.
        assert_eq!(r.metrics.collectives, 4);
    }

    #[test]
    fn isend_wait_tracks_delivery() {
        let progs = vec![
            vec![
                MpiOp::Isend {
                    dst: 1,
                    bytes: 1000,
                },
                MpiOp::Wait,
            ],
            vec![
                MpiOp::Compute(ComputeBlock::plain(1e9)),
                MpiOp::Recv {
                    src: 0,
                    bytes: 1000,
                },
            ],
        ];
        let r = run(2, progs, SmpiConfig::msg_legacy());
        // Delivery happens after the receiver matched at t=1.
        assert!(r.rank_times[0] > 1.0);
    }

    #[test]
    fn irecv_first_then_send_overlaps() {
        let progs = vec![
            vec![
                MpiOp::Irecv {
                    src: 1,
                    bytes: 1000,
                },
                MpiOp::Compute(ComputeBlock::plain(1e9)),
                MpiOp::WaitAll,
            ],
            vec![MpiOp::Send {
                dst: 0,
                bytes: 1000,
            }],
        ];
        let r = run(2, progs, SmpiConfig::msg_legacy());
        // Transfer started at deposit (t≈0) because the recv was pending.
        assert!((r.rank_times[0] - 1.0).abs() < 1e-6, "{}", r.rank_times[0]);
    }

    #[test]
    fn lu_small_instance_runs_clean_under_msg() {
        use workloads::lu::{LuClass, LuConfig};
        let cfg = LuConfig::new(LuClass::S, 4).with_steps(3);
        let p = tiny_platform(4);
        let r = prepare_smpi(
            &p,
            &hosts(4),
            cfg.sources(),
            SmpiConfig::msg_legacy(),
            Box::new(FixedRateHooks::uniform(1e9, 4)),
            false,
        )
        .run()
        .expect("LU under MSG failed");
        assert!(r.time() > 0.0);
        assert!(r.metrics.messages > 100);
    }

    #[test]
    fn msg_is_slower_than_smpi_on_pipelined_small_messages() {
        // The headline effect: on a wavefront of small messages the MSG
        // model accumulates per-message latency that the detached eager
        // model does not.
        use workloads::lu::{LuClass, LuConfig};
        let cfg = LuConfig::new(LuClass::S, 8).with_steps(4);
        let p = tiny_platform(8);
        let msg = prepare_smpi(
            &p,
            &hosts(8),
            cfg.sources(),
            SmpiConfig::msg_legacy(),
            Box::new(FixedRateHooks::uniform(1e9, 8)),
            false,
        )
        .run()
        .unwrap();
        let mut smpi_cfg = SmpiConfig::ground_truth();
        smpi_cfg.factors = netmodel::PiecewiseFactors::raw();
        smpi_cfg.copy = None;
        let sm = prepare_smpi(
            &p,
            &hosts(8),
            cfg.sources(),
            smpi_cfg,
            Box::new(FixedRateHooks::uniform(1e9, 8)),
            false,
        )
        .run()
        .unwrap();
        assert!(
            msg.time() > sm.time(),
            "MSG {} should exceed SMPI {}",
            msg.time(),
            sm.time()
        );
    }
}

/// The MSG configuration's determinism, error reports, collective
/// dispatch, latency factor and loopback path.
#[cfg(test)]
mod more_tests {
    use super::tests::{run, tiny_platform};
    use super::*;
    use crate::hooks::FixedRateHooks;
    use workloads::{ComputeBlock, MpiOp, VecSource};

    fn run_legacy(nodes: u32, progs: Vec<Vec<MpiOp>>) -> Result<RunReport, String> {
        let n = progs.len() as u32;
        let sources: Vec<Box<dyn OpSource>> = progs
            .into_iter()
            .map(|ops| Box::new(VecSource::new(ops)) as Box<dyn OpSource>)
            .collect();
        let platform = tiny_platform(nodes);
        let hosts: Vec<HostId> = (0..n).map(|r| HostId(r % nodes)).collect();
        prepare_smpi(
            &platform,
            &hosts,
            sources,
            SmpiConfig::msg_legacy(),
            Box::new(FixedRateHooks::uniform(1e9, n)),
            false,
        )
        .run()
    }

    #[test]
    fn msg_determinism() {
        let prog = |r: u32| {
            vec![
                MpiOp::Compute(ComputeBlock::plain((r as f64 + 1.0) * 1e7)),
                MpiOp::Allreduce { bytes: 8 },
                MpiOp::Barrier,
            ]
        };
        let a = run_legacy(6, (0..6).map(prog).collect()).expect("run failed");
        let b = run_legacy(6, (0..6).map(prog).collect()).expect("run failed");
        assert_eq!(a.rank_times, b.rank_times);
        assert_eq!(a.metrics.events_processed, b.metrics.events_processed);
        assert_eq!(
            super::tests::world_counts(&a),
            super::tests::world_counts(&b)
        );
    }

    #[test]
    fn observed_msg_run_without_spans_is_bit_identical() {
        let mk = || -> Vec<Box<dyn OpSource>> {
            vec![
                Box::new(VecSource::new(vec![MpiOp::Send {
                    dst: 1,
                    bytes: 1000,
                }])),
                Box::new(VecSource::new(vec![MpiOp::Recv {
                    src: 0,
                    bytes: 1000,
                }])),
            ]
        };
        let p = tiny_platform(2);
        let hosts: Vec<HostId> = (0..2).map(HostId).collect();
        // The recorder must not perturb the run.
        let recorded = prepare_smpi(
            &p,
            &hosts,
            mk(),
            SmpiConfig::msg_legacy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
            true,
        )
        .run()
        .unwrap();
        let r = prepare_smpi(
            &p,
            &hosts,
            mk(),
            SmpiConfig::msg_legacy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
            false,
        )
        .run()
        .unwrap();
        assert_eq!(recorded.rank_times, r.rank_times);
        assert_eq!(
            recorded.metrics.events_processed,
            r.metrics.events_processed
        );
        assert!(r.spans.is_none());
        assert!(r.metrics.recorder_counts.is_none());
    }

    #[test]
    fn observed_msg_run_charges_the_transfer_after_the_match() {
        use simkernel::obs::SpanKind;
        let p = tiny_platform(2);
        let hosts: Vec<HostId> = (0..2).map(HostId).collect();
        let sources: Vec<Box<dyn OpSource>> = vec![
            Box::new(VecSource::new(vec![
                MpiOp::Compute(ComputeBlock::plain(1e9)),
                MpiOp::Send {
                    dst: 1,
                    bytes: 1000,
                },
            ])),
            Box::new(VecSource::new(vec![MpiOp::Recv {
                src: 0,
                bytes: 1000,
            }])),
        ];
        let r = prepare_smpi(
            &p,
            &hosts,
            sources,
            SmpiConfig::msg_legacy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
            true,
        )
        .run()
        .unwrap();
        assert_eq!(r.metrics.engine, "msg");
        assert_eq!(r.metrics.ranks, 2);
        let makespan = r.rank_times.iter().copied().fold(0.0, f64::max);
        assert_eq!(r.metrics.simulated_time_s.to_bits(), makespan.to_bits());
        assert_eq!(r.metrics.messages, 1);
        assert_eq!(r.metrics.eager_messages, 1);
        assert_eq!(r.metrics.net.flows_opened, 1);
        assert_eq!(r.metrics.net.flows_closed, 1);
        let log = r.spans.as_ref().expect("spans recorded");
        assert_eq!(log.flows().len(), 1);
        // Closed: a flow's span ends where it opened until it closes.
        assert!(log.flows()[0].end > log.flows()[0].start);
        assert!(log.total(0, SpanKind::Compute) > 0.99);
        // The MSG receiver waits out the sender's compute AND the
        // transfer (start-at-match semantics).
        assert!(log.total(1, SpanKind::Recv) > 1.0);
    }

    #[test]
    fn every_collective_kind_dispatches() {
        let coll_ops = [
            MpiOp::Barrier,
            MpiOp::Bcast {
                bytes: 100,
                root: 1,
            },
            MpiOp::Reduce {
                bytes: 100,
                root: 0,
            },
            MpiOp::Allreduce { bytes: 100 },
            MpiOp::Alltoall { bytes: 100 },
            MpiOp::Gather {
                bytes: 100,
                root: 2,
            },
            MpiOp::Allgather { bytes: 100 },
        ];
        let prog = |_r: u32| coll_ops.to_vec();
        let r = run(4, (0..4).map(prog).collect(), SmpiConfig::msg_legacy());
        // Participations: every collective, entered by four ranks.
        assert_eq!(r.metrics.collectives, 4 * coll_ops.len() as u64);
        assert!(r.time() > 0.0);
    }

    #[test]
    fn msg_deadlock_reported_for_unmatched_recv() {
        let progs = vec![
            vec![MpiOp::Recv { src: 1, bytes: 8 }],
            vec![MpiOp::Finalize],
        ];
        let err = run_legacy(2, progs).unwrap_err();
        assert!(err.contains("deadlock"), "{err}");
    }

    /// An asynchronous send nobody receives lets every rank finish; the
    /// run is still an error, naming what leaked and where.
    #[test]
    fn msg_unmatched_send_is_reported() {
        let progs = vec![
            vec![MpiOp::Finalize],
            vec![MpiOp::Send { dst: 2, bytes: 8 }],
            vec![MpiOp::Finalize],
        ];
        let err = run_legacy(3, progs).unwrap_err();
        assert_eq!(
            err,
            "replay finished with unmatched records: 1 messages, 0 posts, 0 requests \
             (first unreceived message: rank 1 -> rank 2)"
        );
    }

    #[test]
    fn latency_multiplier_is_applied() {
        // Same program under raw factors (latency factor 1.0) vs the
        // legacy table's flat 1.9: the receive path's latency term scales
        // accordingly.
        let progs = || {
            vec![
                vec![MpiOp::Send { dst: 1, bytes: 100 }],
                vec![MpiOp::Recv { src: 0, bytes: 100 }],
            ]
        };
        let base = run(
            2,
            progs(),
            SmpiConfig {
                factors: netmodel::PiecewiseFactors::raw(),
                ..SmpiConfig::msg_legacy()
            },
        )
        .rank_times[1];
        let legacy = run(2, progs(), SmpiConfig::msg_legacy()).rank_times[1];
        let raw_lat = 20e-6;
        assert!(
            (legacy - base - 0.9 * raw_lat).abs() < 1e-9,
            "base {base}, legacy {legacy}"
        );
    }

    #[test]
    fn loopback_tasks_bypass_network_in_msg_too() {
        let progs = vec![
            vec![MpiOp::Send { dst: 1, bytes: 500 }],
            vec![MpiOp::Recv { src: 0, bytes: 500 }],
        ];
        let r = run_legacy(1, progs).unwrap();
        assert!(r.rank_times[1] < 1e-5, "{}", r.rank_times[1]);
    }
}
