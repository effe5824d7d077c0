//! Assembling and running a complete SMPI simulation.

use platform::{HostId, Platform};
use simkernel::obs::{Metrics, Recorder, RunObservation, SpanLog};
use simkernel::{ActorId, Sim, SimOutcome, SimStep, Time};
use workloads::OpSource;

use crate::actor::{RankActor, TransportActor};
use crate::hooks::ExecHooks;
use crate::world::{CrossArrival, CrossEnvelope, SmpiWorld, WorldStats};
use crate::SmpiConfig;

/// Outcome of one simulated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SmpiResult {
    /// Application makespan: the latest rank finish time, in seconds.
    pub total_time: f64,
    /// Per-rank finish times, seconds.
    pub rank_times: Vec<f64>,
    /// Per-rank seconds spent in compute (planned durations; calibration
    /// input).
    pub compute_seconds: Vec<f64>,
    /// Message/volume counters.
    pub stats: WorldStats,
    /// Kernel events processed (simulator performance metric).
    pub events: u64,
}

impl SmpiResult {
    /// Mean per-rank compute time.
    pub fn mean_compute_seconds(&self) -> f64 {
        self.compute_seconds.iter().sum::<f64>() / self.compute_seconds.len() as f64
    }
}

/// Runs `sources` (one op stream per rank) placed on `hosts` of
/// `platform`, under protocol `cfg` and local-cost `hooks`.
///
/// # Errors
/// Returns the list of blocked ranks if the execution deadlocks (which,
/// for validated traces, indicates a runtime bug rather than bad input).
pub fn run_smpi(
    platform: &Platform,
    hosts: &[HostId],
    sources: Vec<Box<dyn OpSource>>,
    cfg: SmpiConfig,
    hooks: Box<dyn ExecHooks>,
) -> Result<SmpiResult, String> {
    run_inner(platform, hosts, sources, cfg, hooks, None).map(|(r, _)| r)
}

/// Like [`run_smpi`], with per-rank timeline recording enabled; returns
/// the Gantt data alongside the result.
///
/// # Errors
/// See [`run_smpi`].
pub fn run_smpi_traced(
    platform: &Platform,
    hosts: &[HostId],
    sources: Vec<Box<dyn OpSource>>,
    cfg: SmpiConfig,
    hooks: Box<dyn ExecHooks>,
) -> Result<(SmpiResult, crate::timeline::Timeline), String> {
    run_smpi_observed(platform, hosts, sources, cfg, hooks, true).map(|(r, obs)| {
        let log = obs.spans.expect("span recording was enabled");
        (r, crate::timeline::Timeline::from_spans(&log))
    })
}

/// Like [`run_smpi`], returning the unified observation alongside the
/// result: the [`Metrics`] snapshot always, and the recorded
/// [`SpanLog`] when `record_spans` is set.
///
/// # Errors
/// See [`run_smpi`].
pub fn run_smpi_observed(
    platform: &Platform,
    hosts: &[HostId],
    sources: Vec<Box<dyn OpSource>>,
    cfg: SmpiConfig,
    hooks: Box<dyn ExecHooks>,
    record_spans: bool,
) -> Result<(SmpiResult, RunObservation), String> {
    let recorder: Option<Box<dyn Recorder>> =
        record_spans.then(|| Box::new(SpanLog::new(sources.len() as u32)) as Box<dyn Recorder>);
    run_inner(platform, hosts, sources, cfg, hooks, recorder)
}

fn run_inner(
    platform: &Platform,
    hosts: &[HostId],
    sources: Vec<Box<dyn OpSource>>,
    cfg: SmpiConfig,
    hooks: Box<dyn ExecHooks>,
    recorder: Option<Box<dyn Recorder>>,
) -> Result<(SmpiResult, RunObservation), String> {
    let mut run = prepare_smpi(platform, hosts, sources, cfg, hooks, recorder);
    run.advance(Time::NEVER);
    run.finalize()
}

/// A fully assembled SMPI simulation that has not run yet. Produced by
/// [`prepare_smpi`]; drivers that interleave several simulations window
/// by window (the parallel replay engine) call [`SmpiRun::advance`]
/// repeatedly, then [`SmpiRun::finalize`]. `prepare` + one
/// `advance(Time::NEVER)` + `finalize` is exactly [`run_smpi_observed`].
pub struct SmpiRun {
    sim: Sim<SmpiWorld>,
    ranks: usize,
    started: bool,
}

/// Assembles an SMPI simulation: world, pre-sized kernel, one
/// [`RankActor`] per source, and the transport daemon. The optional
/// `recorder` (e.g. a rank-mapped one for partitioned replay) receives
/// span/flow observations with *local* rank ids `0..sources.len()`.
pub fn prepare_smpi(
    platform: &Platform,
    hosts: &[HostId],
    sources: Vec<Box<dyn OpSource>>,
    cfg: SmpiConfig,
    hooks: Box<dyn ExecHooks>,
    recorder: Option<Box<dyn Recorder>>,
) -> SmpiRun {
    let ranks = sources.len();
    assert!(ranks > 0, "no ranks to run");
    assert_eq!(hosts.len(), ranks, "one host per rank required");
    let transport = ActorId(ranks as u32);
    let mut world = SmpiWorld::new(platform, hosts, cfg, hooks, transport);
    if let Some(recorder) = recorder {
        world.set_recorder(recorder);
    }
    // Pre-size the kernel's hot collections from the workload shape (see
    // `simkernel::replay_sizing` for the heuristic).
    let (activities, events) = simkernel::replay_sizing(ranks);
    let mut sim = Sim::with_capacity(world, activities, events);
    for (r, source) in sources.into_iter().enumerate() {
        let me = ActorId(r as u32);
        let id = sim.spawn(Box::new(RankActor::new(r as u32, me, source)));
        assert_eq!(id, me);
    }
    let t = sim.spawn_daemon(Box::new(TransportActor));
    assert_eq!(t, transport);
    SmpiRun {
        sim,
        ranks,
        started: false,
    }
}

/// Assembles one sub-shard of a windowed partitioned replay. The world
/// spans the *entire* coupled component — `hosts` has one entry per
/// component-global rank, so channel indices, route tables, and pair
/// factors are identical to the merged run's — but rank actors are
/// spawned only for the ranks with `local[r] == true`. `sources` holds
/// one op stream per local rank, in ascending global-rank order.
/// Traffic to/from non-local ranks goes through the cross-shard mailbox
/// (see [`SmpiRun::drain_cross_outbox`] and the inject methods); the
/// driver must exchange those records at conservative window barriers.
pub fn prepare_smpi_shard(
    platform: &Platform,
    hosts: &[HostId],
    local: Vec<bool>,
    sources: Vec<Box<dyn OpSource>>,
    cfg: SmpiConfig,
    hooks: Box<dyn ExecHooks>,
) -> SmpiRun {
    assert_eq!(hosts.len(), local.len(), "one locality flag per rank");
    let local_ranks: Vec<u32> = (0..local.len() as u32)
        .filter(|&r| local[r as usize])
        .collect();
    assert_eq!(
        sources.len(),
        local_ranks.len(),
        "one source per local rank"
    );
    assert!(!sources.is_empty(), "no local ranks in shard");
    let transport = ActorId(sources.len() as u32);
    let mut world = SmpiWorld::new(platform, hosts, cfg, hooks, transport);
    world.set_locality(local);
    let (activities, events) = simkernel::replay_sizing(sources.len());
    let mut sim = Sim::with_capacity(world, activities, events);
    for (i, (rank, source)) in local_ranks.iter().zip(sources).enumerate() {
        let me = ActorId(i as u32);
        let id = sim.spawn(Box::new(RankActor::new(*rank, me, source)));
        assert_eq!(id, me);
    }
    let t = sim.spawn_daemon(Box::new(TransportActor));
    assert_eq!(t, transport);
    SmpiRun {
        ranks: local_ranks.len(),
        sim,
        started: false,
    }
}

impl SmpiRun {
    /// Restricts the run's network to `links` (see
    /// [`netmodel::FlowNet::restrict_links`]): a partition-safety guard
    /// for partitioned replay.
    pub fn restrict_links(&mut self, links: &[platform::LinkId]) {
        self.sim.world.net.restrict_links(links);
    }

    /// Advances simulated time up to `horizon`. Returns `true` once the
    /// run has quiesced (finished or deadlocked — [`SmpiRun::finalize`]
    /// tells them apart); quiescence is terminal, so further calls are
    /// no-ops. The event order is identical for any horizon schedule.
    pub fn advance(&mut self, horizon: Time) -> bool {
        if !self.started {
            self.sim.start();
            self.started = true;
        }
        self.sim.step_until(horizon) == SimStep::Quiesced
    }

    /// Earliest instant at which this run still has work (pending event
    /// or ready actor), or `None` when it has quiesced. Starts the run
    /// on first call so the windowed driver can compute the first
    /// horizon. A superseded FEL entry may make this a lower bound —
    /// never an overestimate — so conservative horizons stay safe.
    pub fn next_pending_time(&mut self) -> Option<Time> {
        if !self.started {
            self.sim.start();
            self.started = true;
        }
        self.sim.kernel.next_pending_time()
    }

    /// Takes the cross-shard records produced since the last drain (see
    /// [`SmpiWorld::drain_cross_outbox`]).
    pub fn drain_cross_outbox(&mut self) -> (Vec<CrossEnvelope>, Vec<CrossArrival>) {
        self.sim.world.drain_cross_outbox()
    }

    /// Injects a peer shard's send-time envelope (see
    /// [`SmpiWorld::inject_cross_envelope`]).
    pub fn inject_cross_envelope(&mut self, env: &CrossEnvelope) {
        self.sim.world.inject_cross_envelope(env);
    }

    /// Injects a peer shard's arrival record (see
    /// [`SmpiWorld::inject_cross_arrival`]).
    pub fn inject_cross_arrival(&mut self, arr: &CrossArrival) {
        self.sim
            .world
            .inject_cross_arrival(&mut self.sim.kernel, arr);
    }

    /// Extracts the result and observation after the run has quiesced.
    ///
    /// # Errors
    /// See [`run_smpi`].
    pub fn finalize(mut self) -> Result<(SmpiResult, RunObservation), String> {
        let ranks = self.ranks;
        let sim = &mut self.sim;
        match sim.outcome() {
            SimOutcome::AllFinished => {}
            SimOutcome::Deadlock(blocked) => {
                return Err(format!(
                    "simulated execution deadlocked; blocked ranks: {:?}",
                    blocked.iter().map(|a| a.0).collect::<Vec<_>>()
                ));
            }
        }
        let rank_times: Vec<f64> = (0..ranks)
            .map(|r| sim.finish_time(ActorId(r as u32)).as_secs())
            .collect();
        let (live_msgs, live_posts, live_reqs) = sim.world.live_records();
        debug_assert_eq!(
            (live_msgs, live_posts, live_reqs),
            (0, 0, 0),
            "protocol records leaked"
        );
        let total_time = rank_times.iter().copied().fold(0.0, f64::max);
        let stats = sim.world.stats;
        let mut metrics = Metrics::new("smpi", ranks as u32);
        metrics.simulated_time_s = total_time;
        sim.kernel.observe(&mut metrics);
        metrics.messages = stats.messages;
        metrics.eager_messages = stats.eager_messages;
        metrics.rendezvous_messages = stats.messages - stats.eager_messages;
        metrics.bytes = stats.bytes;
        metrics.collectives = stats.collective_participations;
        metrics.max_unexpected_depth = stats.max_unexpected_depth;
        metrics.max_posted_depth = stats.max_posted_depth;
        let net = sim.world.net.stats();
        metrics.flows_created = net.flows_opened;
        metrics.flows_resolved = net.flows_closed;
        metrics.sharing_resolves = net.resolves;
        metrics.sharing_rate_updates = net.rate_updates;
        metrics.sharing_examined = net.examined;
        metrics.live_flow_hwm = net.live_flow_hwm;
        metrics.live_entity_hwm = net.live_entity_hwm;
        metrics.agg_formed = net.agg_formed;
        metrics.agg_members = net.agg_members;
        metrics.agg_splits = net.agg_splits;
        metrics.sharing_flushes = net.flush_batches;
        let spans = sim.world.recorder.take().and_then(|r| r.finish());
        metrics.recorder_counts = spans.as_ref().map(|l| l.counts());
        Ok((
            SmpiResult {
                total_time,
                rank_times,
                compute_seconds: sim.world.compute_seconds.clone(),
                stats,
                events: sim.kernel.events_processed(),
            },
            RunObservation { metrics, spans },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::FixedRateHooks;
    use platform::topology::{flat_cluster, FlatClusterSpec};
    use workloads::{ComputeBlock, MpiOp, VecSource};

    fn tiny_platform(nodes: u32) -> Platform {
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

    fn run(nodes: u32, progs: Vec<Vec<MpiOp>>, cfg: SmpiConfig) -> SmpiResult {
        let p = tiny_platform(nodes);
        let n = progs.len() as u32;
        let sources: Vec<Box<dyn workloads::OpSource>> = progs
            .into_iter()
            .map(|ops| Box::new(VecSource::new(ops)) as Box<dyn workloads::OpSource>)
            .collect();
        run_smpi(
            &p,
            &hosts(n),
            sources,
            cfg,
            Box::new(FixedRateHooks::uniform(1e9, n)),
        )
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
        assert!((r.total_time - 2.0).abs() < 1e-9, "{}", r.total_time);
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
        assert_eq!(r.stats.messages, 1);
        assert_eq!(r.stats.eager_messages, 1);
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
        assert_eq!(r.stats.eager_messages, 0);
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
        assert!(
            r.total_time < 2.01,
            "barrier cost too high: {}",
            r.total_time
        );
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
        assert_eq!(r.stats.collective_participations, 16);
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
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn lu_small_instance_runs_clean() {
        use workloads::lu::{LuClass, LuConfig};
        let cfg = LuConfig::new(LuClass::S, 4).with_steps(3);
        let p = tiny_platform(4);
        let r = run_smpi(
            &p,
            &hosts(4),
            cfg.sources(),
            SmpiConfig::ground_truth(),
            Box::new(FixedRateHooks::uniform(1e9, 4)),
        )
        .expect("LU S-4 failed");
        assert!(r.total_time > 0.0);
        assert!(r.stats.messages > 100);
        assert!(r.stats.eager_messages > 0);
    }

    #[test]
    fn lu_multiple_grids_run_clean() {
        use workloads::lu::{LuClass, LuConfig};
        for procs in [2u32, 8, 16] {
            let cfg = LuConfig::new(LuClass::S, procs).with_steps(2);
            let p = tiny_platform(procs);
            let r = run_smpi(
                &p,
                &hosts(procs),
                cfg.sources(),
                SmpiConfig::ground_truth(),
                Box::new(FixedRateHooks::uniform(1e9, procs)),
            )
            .unwrap_or_else(|e| panic!("LU S-{procs}: {e}"));
            assert!(r.total_time > 0.0);
        }
    }

    #[test]
    fn faster_cpu_is_never_slower() {
        use workloads::lu::{LuClass, LuConfig};
        let cfg = LuConfig::new(LuClass::S, 4).with_steps(3);
        let p = tiny_platform(4);
        let run_at = |rate: f64| {
            run_smpi(
                &p,
                &hosts(4),
                cfg.sources(),
                SmpiConfig::ground_truth(),
                Box::new(FixedRateHooks::uniform(rate, 4)),
            )
            .unwrap()
            .total_time
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
        let r = run_smpi(
            &p,
            &[HostId(0), HostId(0)],
            sources,
            cfg_no_copy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
        )
        .unwrap();
        assert_eq!(r.stats.flows, 0);
        assert!(r.rank_times[1] < 1e-5, "{}", r.rank_times[1]);
    }

    #[test]
    fn traced_run_records_compute_and_wait() {
        use crate::timeline::SegmentKind;
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
        let (r, timeline) = run_smpi_traced(
            &p,
            &hosts(2),
            sources,
            cfg_no_copy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
        )
        .unwrap();
        // Rank 0 computed ~1s; rank 1 waited ~1s for the message.
        assert!((timeline.total(0, SegmentKind::Compute) - 1.0).abs() < 1e-9);
        assert!(timeline.total(1, SegmentKind::Wait) > 0.99);
        let chart = timeline.render(40, r.total_time);
        assert!(chart.lines().count() == 2);
        assert!(chart.contains('#') && chart.contains('.'), "{chart}");
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
        let (r, obs) = run_smpi_observed(
            &p,
            &hosts(2),
            sources,
            cfg_no_copy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
            true,
        )
        .unwrap();
        assert_eq!(obs.metrics.engine, "smpi");
        assert_eq!(obs.metrics.ranks, 2);
        assert_eq!(
            obs.metrics.simulated_time_s.to_bits(),
            r.total_time.to_bits()
        );
        assert_eq!(obs.metrics.events_processed, r.events);
        assert_eq!(obs.metrics.messages, 1);
        assert_eq!(obs.metrics.eager_messages, 1);
        assert_eq!(obs.metrics.rendezvous_messages, 0);
        assert_eq!(obs.metrics.flows_created, 1);
        assert_eq!(obs.metrics.flows_resolved, 1);
        let log = obs.spans.expect("spans recorded");
        assert_eq!(log.open_flows(), 0);
        assert_eq!(log.flows().len(), 1);
        assert!(log.total(0, simkernel::obs::SpanKind::Compute) > 0.99);
        assert!(log.total(1, simkernel::obs::SpanKind::Recv) > 0.99);
        assert_eq!(obs.metrics.recorder_counts.unwrap(), log.counts());
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
        let plain = run_smpi(
            &p,
            &hosts(2),
            mk(),
            cfg_no_copy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
        )
        .unwrap();
        let (r, obs) = run_smpi_observed(
            &p,
            &hosts(2),
            mk(),
            cfg_no_copy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
            false,
        )
        .unwrap();
        assert_eq!(plain.rank_times, r.rank_times);
        assert_eq!(plain.events, r.events);
        assert!(obs.spans.is_none());
        assert!(obs.metrics.recorder_counts.is_none());
    }

    #[test]
    fn manual_two_shard_windowed_run_matches_merged() {
        use simkernel::Duration;
        // Ping-pong between two ranks on two hosts, replayed (a) merged
        // and (b) as two single-rank sub-shards driven by a hand-rolled
        // conservative window loop with cross-shard mailbox exchange.
        let p = tiny_platform(2);
        let prog = |r: u32| {
            if r == 0 {
                vec![
                    MpiOp::Send {
                        dst: 1,
                        bytes: 1000,
                    },
                    MpiOp::Recv { src: 1, bytes: 500 },
                ]
            } else {
                vec![
                    MpiOp::Recv {
                        src: 0,
                        bytes: 1000,
                    },
                    MpiOp::Compute(ComputeBlock::plain(1e6)),
                    MpiOp::Send { dst: 0, bytes: 500 },
                ]
            }
        };
        let src = |r: u32| Box::new(VecSource::new(prog(r))) as Box<dyn workloads::OpSource>;
        let merged = run_smpi(
            &p,
            &hosts(2),
            vec![src(0), src(1)],
            cfg_no_copy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
        )
        .expect("merged run failed");

        // Nominal route latency is 20µs (two 10µs NIC hops, raw
        // factors); the window must stay at or below half of it so
        // arrivals land strictly past every horizon they cross.
        let window = Duration::from_secs(10e-6);
        let mut shards: Vec<SmpiRun> = (0..2u32)
            .map(|s| {
                prepare_smpi_shard(
                    &p,
                    &hosts(2),
                    vec![s == 0, s == 1],
                    vec![src(s)],
                    cfg_no_copy(),
                    Box::new(FixedRateHooks::uniform(1e9, 2)),
                )
            })
            .collect();
        loop {
            let min = shards
                .iter_mut()
                .filter_map(|r| r.next_pending_time())
                .min();
            let Some(min) = min else { break };
            let horizon = min + window;
            for r in &mut shards {
                r.advance(horizon);
            }
            let mut envs = Vec::new();
            let mut arrs = Vec::new();
            for r in &mut shards {
                let (e, a) = r.drain_cross_outbox();
                envs.extend(e);
                arrs.extend(a);
            }
            for e in &envs {
                shards[e.dst as usize].inject_cross_envelope(e);
            }
            for a in &arrs {
                shards[a.dst as usize].inject_cross_arrival(a);
            }
        }
        let done: Vec<SmpiResult> = shards
            .into_iter()
            .map(|r| r.finalize().expect("shard deadlocked").0)
            .collect();
        assert_eq!(
            merged.rank_times[0].to_bits(),
            done[0].rank_times[0].to_bits()
        );
        assert_eq!(
            merged.rank_times[1].to_bits(),
            done[1].rank_times[0].to_bits()
        );
        // Event parity: a cross-shard message costs two queue events on
        // either path (merged: flow completion + tail timer; sharded:
        // sender-side flow completion + receiver-side arrival timer).
        assert_eq!(merged.events, done[0].events + done[1].events);
        // Messages are accounted on the sender shard only.
        assert_eq!(
            merged.stats.messages,
            done[0].stats.messages + done[1].stats.messages
        );
        assert_eq!(
            merged.stats.bytes,
            done[0].stats.bytes + done[1].stats.bytes
        );
        assert_eq!(
            merged.stats.flows,
            done[0].stats.flows + done[1].stats.flows
        );
    }

    /// One replay of `progs` on a flat cluster; `eager_collectives`
    /// flips the test-only switch that sends collective flows down the
    /// per-flow path.
    fn run_schedule(
        progs: &[Vec<MpiOp>],
        sharing: netmodel::SharingPolicy,
        eager_collectives: bool,
    ) -> SmpiResult {
        let n = progs.len() as u32;
        let sources = progs
            .iter()
            .map(|ops| Box::new(VecSource::new(ops.clone())) as Box<dyn workloads::OpSource>)
            .collect();
        let cfg = SmpiConfig {
            sharing,
            ..SmpiConfig::smpi_replay()
        };
        let hooks = Box::new(FixedRateHooks::uniform(1e9, n));
        let mut run = prepare_smpi(&tiny_platform(n), &hosts(n), sources, cfg, hooks, None);
        run.sim.world.eager_collectives = eager_collectives;
        run.advance(Time::NEVER);
        run.finalize().expect("schedule deadlocked").0
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Differential: random collective schedules — every rank runs
        /// the same sequence of collectives (as MPI requires), sizes
        /// straddling the eager threshold, rank-skewed compute and a
        /// non-blocking application ring shift in between, so eager
        /// application flows meet batched collective ones — end on the
        /// same bits whether collective flows re-solve per flow or once
        /// per instant, under every sharing policy.
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
            for sharing in [
                netmodel::SharingPolicy::Bottleneck,
                netmodel::SharingPolicy::MaxMin,
                netmodel::SharingPolicy::MaxMinFull,
            ] {
                let per_flow = run_schedule(&progs, sharing, true);
                let batched = run_schedule(&progs, sharing, false);
                let bits = |r: &SmpiResult| r.rank_times.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(bits(&per_flow), bits(&batched), "{:?}", sharing);
                proptest::prop_assert_eq!(per_flow.stats, batched.stats, "{:?}", sharing);
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
        let err = run_smpi(
            &p,
            &hosts(2),
            sources,
            cfg_no_copy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
        )
        .unwrap_err();
        assert!(err.contains("deadlock"), "{err}");
        assert!(err.contains('0'), "{err}");
    }
}
