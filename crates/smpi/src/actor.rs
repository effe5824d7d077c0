//! The per-rank executor.
//!
//! A `RankActor` walks its op stream run-to-block: each operation is
//! (1) optionally delayed by the hook-provided fixed cost (probe time,
//! eager copy), then (2) performed against the world, then (3) awaited if
//! it blocks. A collective runs as a point-to-point sub-program on the
//! collective channel, pulled an op at a time from an O(1)
//! `collectives::Schedule`, before the main stream resumes — or, under
//! [`crate::Model::Msg`], blocks the rank until the world's release
//! timer fires. The event loop in [`crate::runner`] resumes it
//! on every wake addressed to `ActorId(rank)`.

use std::collections::VecDeque;

use simkernel::obs::SpanKind;
use simkernel::{ActorId, Duration, Kernel, Time, Wake};
use workloads::{MpiOp, OpSource};

use crate::collectives::Schedule;
use crate::hooks::ComputePlan;
use crate::world::{
    MsgId, PostId, RecvResult, ReqId, SendResult, SmpiWorld, CH_APP, CH_COLL, COLL_RELEASE_KEY,
};

/// Timer key used for pre-op delays (distinct per actor, so no global
/// uniqueness needed).
const DELAY_KEY: u64 = u64::MAX;
/// Timer key ending a compute burst. Nothing re-rates a compute, so it
/// is a timer at `now + work / rate`, not a kernel activity.
const COMPUTE_KEY: u64 = u64::MAX - 2;

#[derive(Debug)]
enum Waiting {
    Ready,
    Delay,
    Compute,
    Msg(MsgId),
    Post(PostId),
    Reqs(Vec<ReqId>),
    Collective,
}

#[derive(Debug)]
struct Staged {
    op: MpiOp,
    channel: u8,
    plan: Option<ComputePlan>,
}

/// How long `work` units take at `rate` units per second; `None` at a
/// zero rate, which never finishes.
///
/// # Panics
/// Panics if `work` or `rate` is negative or non-finite, which
/// [`Duration::for_work`] alone would map to a finite duration.
fn compute_duration(work: f64, rate: f64) -> Option<Duration> {
    assert!(work.is_finite() && work >= 0.0, "invalid work: {work}");
    assert!(rate.is_finite() && rate >= 0.0, "invalid rate: {rate}");
    Duration::for_work(work, rate)
}

/// Executes one rank's op stream.
pub(crate) struct RankActor {
    rank: u32,
    /// Instant the op stream ran out; `Time::NEVER` while running.
    finish: Time,
    source: Box<dyn OpSource>,
    /// The collective sub-program running, if any.
    subops: Option<Schedule>,
    pending: [VecDeque<ReqId>; 2],
    waiting: Waiting,
    staged: Option<Staged>,
    /// Collectives entered so far.
    coll_index: usize,
    /// Instant at which the current blocking condition began (span
    /// recording).
    blocked_at: f64,
    /// Classification of the current blocking condition, captured when
    /// the block is entered (the staged op is consumed by then).
    block_kind: SpanKind,
    /// The remote rank whose action will resolve the block, when known.
    block_peer: Option<u32>,
}

impl RankActor {
    /// Creates the executor for `rank`; the kernel addresses its wakes
    /// to `ActorId(rank)`.
    pub fn new(rank: u32, source: Box<dyn OpSource>) -> RankActor {
        RankActor {
            rank,
            finish: Time::NEVER,
            source,
            subops: None,
            pending: [VecDeque::new(), VecDeque::new()],
            waiting: Waiting::Ready,
            staged: None,
            coll_index: 0,
            blocked_at: 0.0,
            block_kind: SpanKind::Wait,
            block_peer: None,
        }
    }

    fn me(&self) -> ActorId {
        ActorId(self.rank)
    }

    /// Simulated instant at which the op stream ran out, or
    /// `Time::NEVER` while the rank has not finished.
    pub(crate) fn finish_time(&self) -> Time {
        self.finish
    }

    /// What a rank that never finished is blocked on, e.g.
    /// `rank 0: send to 1` or `rank 0: collective #1` (0-based).
    pub(crate) fn describe_block(&self) -> String {
        let mut s = format!("rank {}: {}", self.rank, self.block_kind.label());
        if self.block_kind == SpanKind::Collective {
            s += &format!(" #{}", self.coll_index.saturating_sub(1));
        }
        match (self.block_kind, self.block_peer) {
            (SpanKind::Send, Some(p)) => s += &format!(" to {p}"),
            (SpanKind::Recv, Some(p)) => s += &format!(" from {p}"),
            (_, Some(p)) => s += &format!(" with {p}"),
            (_, None) => {}
        }
        s
    }

    /// Notes what the rank is about to block on (consumed by
    /// `absorb_wake` when the condition resolves). Two register stores;
    /// unconditional, like the old timeline classification.
    fn note_block(&mut self, kind: SpanKind, peer: Option<u32>) {
        self.block_kind = kind;
        self.block_peer = peer;
    }

    /// Wait-class span kind for `channel` (collective sub-programs are
    /// reported as collective time whatever the blocked primitive is).
    fn wait_kind(channel: u8, kind: SpanKind) -> SpanKind {
        if channel == CH_COLL {
            SpanKind::Collective
        } else {
            kind
        }
    }

    /// Re-evaluates the blocking condition after a wake-up, recording a
    /// span when one resolves.
    fn absorb_wake(&mut self, kernel: &Kernel, world: &mut SmpiWorld, wake: Wake) {
        let was_blocked = !matches!(self.waiting, Waiting::Ready);
        match (&mut self.waiting, wake) {
            (Waiting::Ready, _) => {}
            (Waiting::Delay, Wake::Timer(DELAY_KEY))
            | (Waiting::Collective, Wake::Timer(COLL_RELEASE_KEY)) => {
                self.waiting = Waiting::Ready;
            }
            (Waiting::Compute, Wake::Timer(COMPUTE_KEY)) => {
                self.waiting = Waiting::Ready;
                self.staged = None;
            }
            (Waiting::Msg(id), _) if world.msg_arrived(kernel, *id) => {
                self.waiting = Waiting::Ready;
                self.staged = None;
            }
            (Waiting::Post(id), _) if world.post_complete(*id) => {
                self.waiting = Waiting::Ready;
                self.staged = None;
            }
            (Waiting::Reqs(reqs), _) => {
                let me = ActorId(self.rank);
                reqs.retain(|r| !world.take_req(*r, me));
                if reqs.is_empty() {
                    self.waiting = Waiting::Ready;
                    self.staged = None;
                }
            }
            _ => {} // spurious wake for a superseded condition
        }
        if was_blocked && matches!(self.waiting, Waiting::Ready) {
            world.record_span(
                self.rank,
                self.blocked_at,
                kernel.now().as_secs(),
                self.block_kind,
                self.block_peer,
            );
        }
    }

    /// Fixed pre-delay of an op: instrumentation/MPI-call overhead plus,
    /// for eager sends, the sender-side memory copy.
    fn pre_delay(&mut self, world: &mut SmpiWorld, op: &MpiOp, plan: &Option<ComputePlan>) -> f64 {
        match op {
            MpiOp::Compute(_) => plan.as_ref().map_or(0.0, |p| p.extra_delay),
            MpiOp::Send { bytes, .. } | MpiOp::Isend { bytes, .. } => {
                let mut d = world.hooks.mpi_call_delay(self.rank);
                if world.cfg.is_eager(*bytes) {
                    if let Some(copy) = world.cfg.copy {
                        d += copy.seconds(*bytes);
                    }
                }
                d
            }
            MpiOp::Init | MpiOp::Finalize => 0.0,
            _ => world.hooks.mpi_call_delay(self.rank),
        }
    }

    fn perform(&mut self, kernel: &mut Kernel, world: &mut SmpiWorld, staged: Staged) {
        let Staged { op, channel, plan } = staged;
        match op {
            MpiOp::Init | MpiOp::Finalize => {}
            MpiOp::Compute(_) => {
                // Invariant: `fetch` plans every compute op it stages.
                let plan = plan.expect("compute staged without plan");
                world.account_compute(self.rank, plan.seconds());
                if plan.work > 0.0 {
                    // A zero rate never ends: the rank stays blocked on
                    // its compute, and a deadlock report names it.
                    if let Some(d) = compute_duration(plan.work, plan.rate) {
                        kernel.set_timer(self.me(), d, COMPUTE_KEY);
                    }
                    self.waiting = Waiting::Compute;
                    self.note_block(SpanKind::Compute, None);
                    self.staged = Some(Staged {
                        op,
                        channel,
                        plan: Some(plan),
                    });
                }
            }
            MpiOp::Send { dst, bytes } => {
                let (res, _) = world.send(kernel, self.rank, dst, bytes, channel, true, self.me());
                match res {
                    SendResult::Done => {}
                    SendResult::Wait(m) => {
                        self.waiting = Waiting::Msg(m);
                        self.note_block(Self::wait_kind(channel, SpanKind::Send), Some(dst));
                    }
                }
            }
            MpiOp::Isend { dst, bytes } => {
                let (_, req) = world.send(kernel, self.rank, dst, bytes, channel, false, self.me());
                // Invariant: a non-blocking `send` always returns its request.
                self.pending[channel as usize]
                    .push_back(req.expect("non-blocking send yields a request"));
            }
            MpiOp::Recv { src, bytes } => {
                let (res, _) = world.recv(kernel, self.rank, src, bytes, channel, true, self.me());
                match res {
                    RecvResult::Done => {}
                    RecvResult::WaitMsg(m) => {
                        self.waiting = Waiting::Msg(m);
                        self.note_block(Self::wait_kind(channel, SpanKind::Recv), Some(src));
                    }
                    RecvResult::WaitPost(p) => {
                        self.waiting = Waiting::Post(p);
                        self.note_block(Self::wait_kind(channel, SpanKind::Recv), Some(src));
                    }
                }
            }
            MpiOp::Irecv { src, bytes } => {
                let (_, req) = world.recv(kernel, self.rank, src, bytes, channel, false, self.me());
                // Invariant: a non-blocking `recv` always returns its request.
                self.pending[channel as usize]
                    .push_back(req.expect("non-blocking recv yields a request"));
            }
            MpiOp::Wait => {
                let req = self.pending[channel as usize]
                    .pop_front()
                    .unwrap_or_else(|| panic!("rank {}: wait with no pending request", self.rank));
                if !world.take_req(req, self.me()) {
                    self.waiting = Waiting::Reqs(vec![req]);
                    self.note_block(Self::wait_kind(channel, SpanKind::Wait), None);
                }
            }
            MpiOp::WaitAll => {
                let me = self.me();
                let mut incomplete: Vec<ReqId> = Vec::new();
                while let Some(req) = self.pending[channel as usize].pop_front() {
                    if !world.take_req(req, me) {
                        incomplete.push(req);
                    }
                }
                if !incomplete.is_empty() {
                    self.waiting = Waiting::Reqs(incomplete);
                    self.note_block(Self::wait_kind(channel, SpanKind::Wait), None);
                }
            }
            collective => {
                debug_assert!(
                    self.subops.is_none(),
                    "collective while a sub-program is active"
                );
                let op = world.enter_collective(kernel, self.rank, self.coll_index, collective);
                self.coll_index += 1;
                if let Some(op) = op {
                    self.subops = Schedule::new(&op, self.rank, world.ranks());
                    debug_assert!(self.subops.is_some(), "{op:?} has no schedule");
                } else {
                    self.waiting = Waiting::Collective;
                    self.note_block(SpanKind::Collective, None);
                }
            }
        }
    }

    fn fetch(&mut self, world: &mut SmpiWorld) -> Option<Staged> {
        if let Some(schedule) = &mut self.subops {
            if let Some(op) = schedule.next() {
                return Some(Staged {
                    op,
                    channel: CH_COLL,
                    plan: None,
                });
            }
            self.subops = None;
        }
        let op = self.source.next_op()?;
        let plan = match &op {
            MpiOp::Compute(block) => Some(world.hooks.plan_compute(self.rank, block)),
            _ => None,
        };
        Some(Staged {
            op,
            channel: CH_APP,
            plan,
        })
    }

    /// Advances the rank until it blocks or its op stream runs out,
    /// when it records its finish time. Wakes after that are ignored.
    pub(crate) fn resume(&mut self, kernel: &mut Kernel, world: &mut SmpiWorld, wake: Wake) {
        if !self.finish.is_never() {
            return;
        }
        self.absorb_wake(kernel, world, wake);
        loop {
            if !matches!(self.waiting, Waiting::Ready) {
                self.blocked_at = kernel.now().as_secs();
                return;
            }
            // A staged op whose pre-delay just elapsed executes now.
            if let Some(staged) = self.staged.take() {
                self.perform(kernel, world, staged);
                continue;
            }
            // Requests never waited for outlive the rank; the runner
            // reports them.
            let Some(staged) = self.fetch(world) else {
                self.finish = kernel.now();
                return;
            };
            let delay = self.pre_delay(world, &staged.op, &staged.plan);
            if delay > 0.0 {
                kernel.set_timer(self.me(), Duration::from_secs(delay), DELAY_KEY);
                self.staged = Some(staged);
                self.waiting = Waiting::Delay;
                self.note_block(SpanKind::Overhead, None);
                self.blocked_at = kernel.now().as_secs();
                return;
            }
            self.staged = Some(staged);
        }
    }
}
