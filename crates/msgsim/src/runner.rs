//! The MSG rank actor and run driver.
//!
//! The actor mirrors the old replay tool's action handlers: small sends
//! go through the asynchronous path (sender continues immediately), large
//! sends block until delivery, receives block on the mailbox, and
//! collectives synchronise all ranks around a monolithic delay.

use std::collections::VecDeque;

use platform::{HostId, Platform};
use simkernel::obs::{Metrics, Recorder, RunObservation, SpanKind, SpanLog};
use simkernel::{Actor, ActorId, Duration, Kernel, Sim, SimOutcome, SimStep, Status, Time, Wake};
use workloads::{MpiOp, OpSource};

use crate::world::{
    MsgRecvResult, MsgSendResult, MsgStats, MsgWorld, RecvId, ReqId, TaskId, COLL_RELEASE_KEY,
};
use crate::MsgConfig;

const DELAY_KEY: u64 = u64::MAX;

#[derive(Debug)]
enum Waiting {
    Ready,
    Delay,
    Compute(simkernel::ActivityId),
    Task(TaskId),
    Pending(RecvId),
    Reqs(Vec<ReqId>),
    Collective,
}

struct Staged {
    op: MpiOp,
    plan: Option<smpi::ComputePlan>,
}

/// Executes one rank's op stream under MSG semantics.
pub struct MsgRankActor {
    rank: u32,
    me: ActorId,
    source: Box<dyn OpSource>,
    pending: VecDeque<ReqId>,
    waiting: Waiting,
    staged: Option<Staged>,
    coll_index: usize,
    /// Instant at which the current blocking condition began (span
    /// recording).
    blocked_at: f64,
    /// Classification of the current blocking condition, captured when
    /// the block is entered.
    block_kind: SpanKind,
    /// The remote rank whose action will resolve the block, when known.
    block_peer: Option<u32>,
}

impl MsgRankActor {
    /// Creates the actor for `rank` (spawned as `ActorId(rank)`).
    pub fn new(rank: u32, me: ActorId, source: Box<dyn OpSource>) -> MsgRankActor {
        MsgRankActor {
            rank,
            me,
            source,
            pending: VecDeque::new(),
            waiting: Waiting::Ready,
            staged: None,
            coll_index: 0,
            blocked_at: 0.0,
            block_kind: SpanKind::Wait,
            block_peer: None,
        }
    }

    /// Notes what the rank is about to block on (consumed by
    /// `absorb_wake` when the condition resolves).
    fn note_block(&mut self, kind: SpanKind, peer: Option<u32>) {
        self.block_kind = kind;
        self.block_peer = peer;
    }

    fn absorb_wake(&mut self, world: &mut MsgWorld, now: f64, wake: Wake) {
        let was_blocked = !matches!(self.waiting, Waiting::Ready);
        match (&mut self.waiting, wake) {
            (Waiting::Ready, _) => {}
            (Waiting::Delay, Wake::Timer(DELAY_KEY)) => self.waiting = Waiting::Ready,
            (Waiting::Collective, Wake::Timer(COLL_RELEASE_KEY)) => {
                self.waiting = Waiting::Ready;
            }
            (Waiting::Compute(a), Wake::Activity(b)) if *a == b => {
                self.waiting = Waiting::Ready;
                self.staged = None;
            }
            (Waiting::Task(id), _) if world.task_done(*id) => {
                self.waiting = Waiting::Ready;
                self.staged = None;
            }
            (Waiting::Pending(id), _) if world.pending_recv_done(*id) => {
                self.waiting = Waiting::Ready;
                self.staged = None;
            }
            (Waiting::Reqs(reqs), _) => {
                let me = self.me;
                reqs.retain(|r| !world.take_req(*r, me));
                if reqs.is_empty() {
                    self.waiting = Waiting::Ready;
                    self.staged = None;
                }
            }
            _ => {}
        }
        if was_blocked && matches!(self.waiting, Waiting::Ready) {
            world.record_span(
                self.rank,
                self.blocked_at,
                now,
                self.block_kind,
                self.block_peer,
            );
        }
    }

    fn perform(&mut self, kernel: &mut Kernel, world: &mut MsgWorld, staged: Staged) {
        let Staged { op, plan } = staged;
        match op {
            MpiOp::Init | MpiOp::Finalize => {}
            MpiOp::Compute(_) => {
                let plan = plan.expect("compute staged without plan");
                world.account_compute(self.rank, plan.seconds());
                if plan.work > 0.0 {
                    let act = kernel.start_activity(plan.work, plan.rate);
                    kernel.subscribe(act, self.me);
                    self.waiting = Waiting::Compute(act);
                    self.note_block(SpanKind::Compute, None);
                    self.staged = Some(Staged {
                        op,
                        plan: Some(plan),
                    });
                }
            }
            MpiOp::Send { dst, bytes } => {
                // The old replay: async for small, blocking task-send for
                // large.
                let blocking = bytes >= world.cfg.async_threshold;
                let (res, _) = world.send(kernel, self.rank, dst, bytes, blocking, false, self.me);
                if let MsgSendResult::Wait(t) = res {
                    self.waiting = Waiting::Task(t);
                    self.note_block(SpanKind::Send, Some(dst));
                }
            }
            MpiOp::Isend { dst, bytes } => {
                let (_, req) = world.send(kernel, self.rank, dst, bytes, false, true, self.me);
                self.pending
                    .push_back(req.expect("tracked send has a request"));
            }
            MpiOp::Recv { src, bytes } => {
                let (res, _) = world.recv(kernel, self.rank, src, bytes, true, self.me);
                match res {
                    MsgRecvResult::WaitTask(t) => self.waiting = Waiting::Task(t),
                    MsgRecvResult::WaitPending(p) => self.waiting = Waiting::Pending(p),
                }
                self.note_block(SpanKind::Recv, Some(src));
            }
            MpiOp::Irecv { src, bytes } => {
                let (_, req) = world.recv(kernel, self.rank, src, bytes, false, self.me);
                self.pending
                    .push_back(req.expect("non-blocking recv has a request"));
            }
            MpiOp::Wait => {
                let req = self
                    .pending
                    .pop_front()
                    .unwrap_or_else(|| panic!("rank {}: wait with no pending request", self.rank));
                if !world.take_req(req, self.me) {
                    self.waiting = Waiting::Reqs(vec![req]);
                    self.note_block(SpanKind::Wait, None);
                }
            }
            MpiOp::WaitAll => {
                let me = self.me;
                let mut incomplete = Vec::new();
                while let Some(req) = self.pending.pop_front() {
                    if !world.take_req(req, me) {
                        incomplete.push(req);
                    }
                }
                if !incomplete.is_empty() {
                    self.waiting = Waiting::Reqs(incomplete);
                    self.note_block(SpanKind::Wait, None);
                }
            }
            collective => {
                let index = self.coll_index;
                self.coll_index += 1;
                if world.enter_collective(kernel, index, &collective) {
                    self.waiting = Waiting::Collective;
                    self.note_block(SpanKind::Collective, None);
                }
            }
        }
    }
}

impl Actor<MsgWorld> for MsgRankActor {
    fn resume(&mut self, kernel: &mut Kernel, world: &mut MsgWorld, wake: Wake) -> Status {
        self.absorb_wake(world, kernel.now().as_secs(), wake);
        loop {
            if !matches!(self.waiting, Waiting::Ready) {
                self.blocked_at = kernel.now().as_secs();
                return Status::Blocked;
            }
            if let Some(staged) = self.staged.take() {
                self.perform(kernel, world, staged);
                continue;
            }
            let Some(op) = self.source.next_op() else {
                return Status::Finished;
            };
            let plan = match &op {
                MpiOp::Compute(block) => Some(world.hooks.plan_compute(self.rank, block)),
                _ => None,
            };
            let delay = match &op {
                MpiOp::Compute(_) => plan.as_ref().map_or(0.0, |p| p.extra_delay),
                MpiOp::Init | MpiOp::Finalize => 0.0,
                _ => world.hooks.mpi_call_delay(self.rank),
            };
            if delay > 0.0 {
                kernel.set_timer(self.me, Duration::from_secs(delay), DELAY_KEY);
                self.staged = Some(Staged { op, plan });
                self.waiting = Waiting::Delay;
                self.note_block(SpanKind::Overhead, None);
                self.blocked_at = kernel.now().as_secs();
                return Status::Blocked;
            }
            self.staged = Some(Staged { op, plan });
        }
    }
}

/// The MSG transport daemon.
pub struct MsgTransportActor;

impl Actor<MsgWorld> for MsgTransportActor {
    fn resume(&mut self, kernel: &mut Kernel, world: &mut MsgWorld, wake: Wake) -> Status {
        world.on_transport_wake(kernel, wake);
        Status::Blocked
    }
}

/// Outcome of one MSG-simulated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct MsgResult {
    /// Application makespan, seconds.
    pub total_time: f64,
    /// Per-rank finish times.
    pub rank_times: Vec<f64>,
    /// Per-rank compute seconds.
    pub compute_seconds: Vec<f64>,
    /// Counters.
    pub stats: MsgStats,
    /// Kernel events processed.
    pub events: u64,
}

/// Runs `sources` on `hosts` under the MSG back-end.
///
/// # Errors
/// Returns the blocked ranks on deadlock.
pub fn run_msg(
    platform: &Platform,
    hosts: &[HostId],
    sources: Vec<Box<dyn OpSource>>,
    cfg: MsgConfig,
    hooks: Box<dyn smpi::ExecHooks>,
) -> Result<MsgResult, String> {
    run_inner(platform, hosts, sources, cfg, hooks, None).map(|(r, _)| r)
}

/// Like [`run_msg`], with per-rank span recording enabled; returns the
/// Gantt data (same structure the SMPI runner produces) alongside the
/// result.
///
/// # Errors
/// See [`run_msg`].
pub fn run_msg_traced(
    platform: &Platform,
    hosts: &[HostId],
    sources: Vec<Box<dyn OpSource>>,
    cfg: MsgConfig,
    hooks: Box<dyn smpi::ExecHooks>,
) -> Result<(MsgResult, smpi::Timeline), String> {
    run_msg_observed(platform, hosts, sources, cfg, hooks, true).map(|(r, obs)| {
        let log = obs.spans.expect("span recording was enabled");
        (r, smpi::Timeline::from_spans(&log))
    })
}

/// Like [`run_msg`], returning the unified observation alongside the
/// result: the [`Metrics`] snapshot always, and the recorded
/// [`SpanLog`] when `record_spans` is set.
///
/// # Errors
/// See [`run_msg`].
pub fn run_msg_observed(
    platform: &Platform,
    hosts: &[HostId],
    sources: Vec<Box<dyn OpSource>>,
    cfg: MsgConfig,
    hooks: Box<dyn smpi::ExecHooks>,
    record_spans: bool,
) -> Result<(MsgResult, RunObservation), String> {
    let recorder: Option<Box<dyn Recorder>> =
        record_spans.then(|| Box::new(SpanLog::new(sources.len() as u32)) as Box<dyn Recorder>);
    run_inner(platform, hosts, sources, cfg, hooks, recorder)
}

fn run_inner(
    platform: &Platform,
    hosts: &[HostId],
    sources: Vec<Box<dyn OpSource>>,
    cfg: MsgConfig,
    hooks: Box<dyn smpi::ExecHooks>,
    recorder: Option<Box<dyn Recorder>>,
) -> Result<(MsgResult, RunObservation), String> {
    let mut run = prepare_msg(platform, hosts, sources, cfg, hooks, recorder);
    run.advance(Time::NEVER);
    run.finalize()
}

/// A fully assembled MSG simulation that has not run yet; the msgsim
/// counterpart of [`smpi::runner::SmpiRun`], driven the same way by the
/// windowed parallel replay engine. `prepare` + one
/// `advance(Time::NEVER)` + `finalize` is exactly [`run_msg_observed`].
pub struct MsgRun {
    sim: Sim<MsgWorld>,
    ranks: usize,
    started: bool,
}

/// Assembles an MSG simulation: world, pre-sized kernel, one rank actor
/// per source, and the transport daemon. The optional `recorder`
/// receives observations with *local* rank ids `0..sources.len()`.
pub fn prepare_msg(
    platform: &Platform,
    hosts: &[HostId],
    sources: Vec<Box<dyn OpSource>>,
    cfg: MsgConfig,
    hooks: Box<dyn smpi::ExecHooks>,
    recorder: Option<Box<dyn Recorder>>,
) -> MsgRun {
    let ranks = sources.len();
    assert!(ranks > 0);
    assert_eq!(hosts.len(), ranks);
    let transport = ActorId(ranks as u32);
    let mut world = MsgWorld::new(platform, hosts, cfg, hooks, transport);
    if let Some(recorder) = recorder {
        world.set_recorder(recorder);
    }
    // Same pre-sizing heuristic as the SMPI runner (see
    // `simkernel::replay_sizing`).
    let (activities, events) = simkernel::replay_sizing(ranks);
    let mut sim = Sim::with_capacity(world, activities, events);
    for (r, source) in sources.into_iter().enumerate() {
        let me = ActorId(r as u32);
        let id = sim.spawn(Box::new(MsgRankActor::new(r as u32, me, source)));
        assert_eq!(id, me);
    }
    let t = sim.spawn_daemon(Box::new(MsgTransportActor));
    assert_eq!(t, transport);
    MsgRun {
        sim,
        ranks,
        started: false,
    }
}

impl MsgRun {
    /// Restricts the run's network to `links` (see
    /// [`netmodel::FlowNet::restrict_links`]).
    pub fn restrict_links(&mut self, links: &[platform::LinkId]) {
        self.sim.world.net.restrict_links(links);
    }

    /// Advances simulated time up to `horizon`; `true` once quiesced
    /// (terminal). The event order is identical for any horizon schedule.
    pub fn advance(&mut self, horizon: Time) -> bool {
        if !self.started {
            self.sim.start();
            self.started = true;
        }
        self.sim.step_until(horizon) == SimStep::Quiesced
    }

    /// Extracts the result and observation after the run has quiesced.
    ///
    /// # Errors
    /// See [`run_msg`].
    pub fn finalize(mut self) -> Result<(MsgResult, RunObservation), String> {
        let ranks = self.ranks;
        let sim = &mut self.sim;
        match sim.outcome() {
            SimOutcome::AllFinished => {}
            SimOutcome::Deadlock(blocked) => {
                return Err(format!(
                    "MSG execution deadlocked; blocked ranks: {:?}",
                    blocked.iter().map(|a| a.0).collect::<Vec<_>>()
                ));
            }
        }
        let rank_times: Vec<f64> = (0..ranks)
            .map(|r| sim.finish_time(ActorId(r as u32)).as_secs())
            .collect();
        let total_time = rank_times.iter().copied().fold(0.0, f64::max);
        let stats = sim.world.stats;
        let mut metrics = Metrics::new("msg", ranks as u32);
        metrics.simulated_time_s = total_time;
        sim.kernel.observe(&mut metrics);
        metrics.messages = stats.messages;
        // The MSG async threshold plays the protocol role the eager
        // threshold plays under SMPI; report it in the same column.
        metrics.eager_messages = stats.async_messages;
        metrics.rendezvous_messages = stats.messages - stats.async_messages;
        metrics.bytes = stats.bytes;
        metrics.collectives = stats.collectives;
        let net = sim.world.net.stats();
        metrics.flows_created = net.flows_opened;
        metrics.flows_resolved = net.flows_closed;
        metrics.sharing_resolves = net.resolves;
        metrics.sharing_rate_updates = net.rate_updates;
        metrics.sharing_examined = net.examined;
        metrics.sharing_flushes = net.flush_batches;
        metrics.live_flow_hwm = net.live_flow_hwm;
        metrics.live_entity_hwm = net.live_entity_hwm;
        metrics.agg_formed = net.agg_formed;
        metrics.agg_members = net.agg_members;
        metrics.agg_splits = net.agg_splits;
        let spans = sim.world.recorder.take().and_then(|r| r.finish());
        metrics.recorder_counts = spans.as_ref().map(|l| l.counts());
        Ok((
            MsgResult {
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
    use platform::topology::{flat_cluster, FlatClusterSpec};
    use smpi::FixedRateHooks;
    use workloads::{ComputeBlock, VecSource};

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

    fn run(nodes: u32, progs: Vec<Vec<MpiOp>>) -> MsgResult {
        let p = tiny_platform(nodes);
        let n = progs.len() as u32;
        let sources: Vec<Box<dyn OpSource>> = progs
            .into_iter()
            .map(|ops| Box::new(VecSource::new(ops)) as Box<dyn OpSource>)
            .collect();
        let hosts: Vec<HostId> = (0..n).map(HostId).collect();
        run_msg(
            &p,
            &hosts,
            sources,
            MsgConfig::legacy(),
            Box::new(FixedRateHooks::uniform(1e9, n)),
        )
        .expect("run failed")
    }

    #[test]
    fn late_receiver_pays_full_transfer_after_matching() {
        // The defining difference from the SMPI runtime: the receiver
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
        let r = run(2, progs);
        let transfer = 1000.0 / 1e8 + 1.9 * 20e-6;
        assert!(
            (r.rank_times[1] - (1.0 + transfer)).abs() < 1e-9,
            "{} vs {}",
            r.rank_times[1],
            1.0 + transfer
        );
        // The async sender left immediately.
        assert!(r.rank_times[0] < 1e-12);
        assert_eq!(r.stats.async_messages, 1);
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
        let r = run(2, progs);
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
        let r = run(2, progs);
        let transfer = bytes as f64 / 1e8 + 1.9 * 20e-6;
        assert!(
            (r.rank_times[0] - (1.0 + transfer)).abs() < 1e-9,
            "{}",
            r.rank_times[0]
        );
        assert_eq!(r.stats.async_messages, 0);
    }

    #[test]
    fn monolithic_collective_synchronizes_and_charges_formula() {
        let mk = |work: f64| {
            vec![
                MpiOp::Compute(ComputeBlock::plain(work)),
                MpiOp::Allreduce { bytes: 40 },
            ]
        };
        let r = run(4, vec![mk(1e9), mk(2e9), mk(5e8), mk(1e8)]);
        // Release = slowest entry (2s) + allreduce formula.
        let m = crate::CollectiveModel {
            latency: 20e-6,
            bandwidth: 1e8,
        };
        let expect = 2.0 + m.allreduce(4, 40);
        for t in &r.rank_times {
            assert!((t - expect).abs() < 1e-9, "{t} vs {expect}");
        }
        assert_eq!(r.stats.collectives, 1);
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
        let r = run(2, progs);
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
        let r = run(2, progs);
        // Transfer started at deposit (t≈0) because the recv was pending.
        assert!((r.rank_times[0] - 1.0).abs() < 1e-6, "{}", r.rank_times[0]);
    }

    #[test]
    fn lu_small_instance_runs_clean_under_msg() {
        use workloads::lu::{LuClass, LuConfig};
        let cfg = LuConfig::new(LuClass::S, 4).with_steps(3);
        let p = tiny_platform(4);
        let hosts: Vec<HostId> = (0..4).map(HostId).collect();
        let r = run_msg(
            &p,
            &hosts,
            cfg.sources(),
            MsgConfig::legacy(),
            Box::new(FixedRateHooks::uniform(1e9, 4)),
        )
        .expect("LU under MSG failed");
        assert!(r.total_time > 0.0);
        assert!(r.stats.messages > 100);
    }

    #[test]
    fn msg_is_slower_than_smpi_on_pipelined_small_messages() {
        // The headline effect: on a wavefront of small messages the MSG
        // model accumulates per-message latency that the detached eager
        // model does not.
        use workloads::lu::{LuClass, LuConfig};
        let cfg = LuConfig::new(LuClass::S, 8).with_steps(4);
        let p = tiny_platform(8);
        let hosts: Vec<HostId> = (0..8).map(HostId).collect();
        let msg = run_msg(
            &p,
            &hosts,
            cfg.sources(),
            MsgConfig::legacy(),
            Box::new(FixedRateHooks::uniform(1e9, 8)),
        )
        .unwrap();
        let mut smpi_cfg = smpi::SmpiConfig::ground_truth();
        smpi_cfg.factors = netmodel::PiecewiseFactors::raw();
        smpi_cfg.copy = None;
        let sm = smpi::run_smpi(
            &p,
            &hosts,
            cfg.sources(),
            smpi_cfg,
            Box::new(FixedRateHooks::uniform(1e9, 8)),
        )
        .unwrap();
        assert!(
            msg.total_time > sm.total_time,
            "MSG {} should exceed SMPI {}",
            msg.total_time,
            sm.total_time
        );
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use platform::topology::{flat_cluster, FlatClusterSpec};
    use smpi::FixedRateHooks;
    use workloads::{ComputeBlock, VecSource};

    fn tiny(nodes: u32) -> Platform {
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

    fn run(progs: Vec<Vec<MpiOp>>) -> MsgResult {
        let n = progs.len() as u32;
        let p = tiny(n);
        let hosts: Vec<HostId> = (0..n).map(HostId).collect();
        let sources: Vec<Box<dyn OpSource>> = progs
            .into_iter()
            .map(|ops| Box::new(VecSource::new(ops)) as Box<dyn OpSource>)
            .collect();
        run_msg(
            &p,
            &hosts,
            sources,
            MsgConfig::legacy(),
            Box::new(FixedRateHooks::uniform(1e9, n)),
        )
        .expect("run failed")
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
        let a = run((0..6).map(prog).collect());
        let b = run((0..6).map(prog).collect());
        assert_eq!(a.rank_times, b.rank_times);
        assert_eq!(a.stats, b.stats);
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
        let r = run((0..4).map(prog).collect());
        assert_eq!(r.stats.collectives, coll_ops.len() as u64);
        assert!(r.total_time > 0.0);
    }

    #[test]
    fn observed_msg_run_mirrors_smpi_observation_shape() {
        use simkernel::obs::SpanKind;
        let p = tiny(2);
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
        let (r, obs) = run_msg_observed(
            &p,
            &hosts,
            sources,
            MsgConfig::legacy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
            true,
        )
        .unwrap();
        assert_eq!(obs.metrics.engine, "msg");
        assert_eq!(obs.metrics.ranks, 2);
        assert_eq!(
            obs.metrics.simulated_time_s.to_bits(),
            r.total_time.to_bits()
        );
        assert_eq!(obs.metrics.messages, 1);
        assert_eq!(obs.metrics.eager_messages, 1);
        assert_eq!(obs.metrics.flows_created, 1);
        assert_eq!(obs.metrics.flows_resolved, 1);
        let log = obs.spans.expect("spans recorded");
        assert_eq!(log.open_flows(), 0);
        assert_eq!(log.flows().len(), 1);
        assert!(log.total(0, SpanKind::Compute) > 0.99);
        // The MSG receiver waits out the sender's compute AND the
        // transfer (start-at-match semantics).
        assert!(log.total(1, SpanKind::Recv) > 1.0);
    }

    #[test]
    fn traced_msg_run_renders_like_smpi() {
        let p = tiny(2);
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
        let (r, timeline) = run_msg_traced(
            &p,
            &hosts,
            sources,
            MsgConfig::legacy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
        )
        .unwrap();
        assert!((timeline.total(0, smpi::SegmentKind::Compute) - 1.0).abs() < 1e-9);
        assert!(timeline.total(1, smpi::SegmentKind::Wait) > 0.99);
        let chart = timeline.render(40, r.total_time);
        assert_eq!(chart.lines().count(), 2);
        assert!(chart.contains('#') && chart.contains('.'), "{chart}");
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
        let p = tiny(2);
        let hosts: Vec<HostId> = (0..2).map(HostId).collect();
        let plain = run_msg(
            &p,
            &hosts,
            mk(),
            MsgConfig::legacy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
        )
        .unwrap();
        let (r, obs) = run_msg_observed(
            &p,
            &hosts,
            mk(),
            MsgConfig::legacy(),
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
    fn msg_deadlock_reported_for_unmatched_recv() {
        let p = tiny(2);
        let hosts: Vec<HostId> = (0..2).map(HostId).collect();
        let progs: Vec<Box<dyn OpSource>> = vec![
            Box::new(VecSource::new(vec![MpiOp::Recv { src: 1, bytes: 8 }])),
            Box::new(VecSource::new(vec![MpiOp::Finalize])),
        ];
        let err = run_msg(
            &p,
            &hosts,
            progs,
            MsgConfig::legacy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
        )
        .unwrap_err();
        assert!(err.contains("deadlock"), "{err}");
    }

    #[test]
    fn latency_multiplier_is_applied() {
        // Same program under multiplier 1.0 vs legacy 1.9: the receive
        // path's latency term scales accordingly.
        let progs = || {
            vec![
                vec![MpiOp::Send { dst: 1, bytes: 100 }],
                vec![MpiOp::Recv { src: 0, bytes: 100 }],
            ]
        };
        let p = tiny(2);
        let hosts: Vec<HostId> = (0..2).map(HostId).collect();
        let run_with = |mult: f64| {
            let sources: Vec<Box<dyn OpSource>> = progs()
                .into_iter()
                .map(|ops| Box::new(VecSource::new(ops)) as Box<dyn OpSource>)
                .collect();
            let cfg = MsgConfig {
                latency_multiplier: mult,
                ..MsgConfig::legacy()
            };
            run_msg(
                &p,
                &hosts,
                sources,
                cfg,
                Box::new(FixedRateHooks::uniform(1e9, 2)),
            )
            .unwrap()
            .rank_times[1]
        };
        let base = run_with(1.0);
        let legacy = run_with(1.9);
        let raw_lat = 20e-6;
        assert!(
            (legacy - base - 0.9 * raw_lat).abs() < 1e-9,
            "base {base}, legacy {legacy}"
        );
    }

    #[test]
    fn loopback_tasks_bypass_network_in_msg_too() {
        let p = tiny(1);
        let sources: Vec<Box<dyn OpSource>> = vec![
            Box::new(VecSource::new(vec![MpiOp::Send { dst: 1, bytes: 500 }])),
            Box::new(VecSource::new(vec![MpiOp::Recv { src: 0, bytes: 500 }])),
        ];
        let r = run_msg(
            &p,
            &[HostId(0), HostId(0)],
            sources,
            MsgConfig::legacy(),
            Box::new(FixedRateHooks::uniform(1e9, 2)),
        )
        .unwrap();
        assert!(r.rank_times[1] < 1e-5, "{}", r.rank_times[1]);
    }
}
