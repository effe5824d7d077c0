//! Mailbox state and transfer handling of the MSG back-end.
//!
//! The decisive difference from the SMPI world: a task deposited in a
//! mailbox carries *no data in flight*. The transfer — full latency plus
//! size over shared bandwidth — starts only when the receiver matches the
//! task, exactly reproducing the old `MSG_task_send` / `MSG_task_receive`
//! behaviour the paper identifies as the source of its communication
//! inaccuracy.

use std::collections::VecDeque;

use netmodel::{FlowId, FlowNet};
use platform::{HostId, Platform};
use simkernel::obs::{Counter, SpanKind, SpanLog};
use simkernel::{ActorId, Duration, Kernel, Wake};
use smpi::pairs::PairTable;
use smpi::slab::{ActivityMap, Id, Slab, Waiters};
use smpi::world::{note_size_mismatch, CollectiveOrder};

use crate::{CollectiveModel, MsgConfig};

/// A task in a mailbox or in transfer.
#[derive(Debug)]
pub struct Task {
    src: u32,
    dst: u32,
    /// Slot of the `(src, dst)` pair in the world's [`PairTable`].
    pair: u32,
    bytes: u64,
    done: bool,
    flow: Option<FlowId>,
    /// Request handle of an asynchronous sender (tracked so `wait` can
    /// block on delivery when the trace asks for it).
    sender_req: Option<ReqId>,
    /// Request handle of a non-blocking receiver.
    recv_req: Option<ReqId>,
    /// Pending-recv record to retire at delivery.
    pending_recv: Option<RecvId>,
    waiters: Waiters,
}

/// A receive that arrived before any matching task.
#[derive(Debug)]
pub struct PendingRecv {
    bytes: u64,
    req: Option<ReqId>,
    waiter: Option<ActorId>,
    /// Filled when a task matches this pending receive.
    matched: Option<TaskId>,
}

/// A non-blocking request handle.
#[derive(Debug)]
pub struct Req {
    done: bool,
    waiter: Option<ActorId>,
}

/// Handle to a [`Task`].
pub type TaskId = Id<Task>;
/// Handle to a [`PendingRecv`].
pub type RecvId = Id<PendingRecv>;
/// Handle to a [`Req`].
pub type ReqId = Id<Req>;

/// Outcome of a send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgSendResult {
    /// Asynchronous deposit; sender continues.
    Deposited,
    /// Blocking send; wait for delivery of this task.
    Wait(TaskId),
}

/// Outcome of a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgRecvResult {
    /// Wait for the matched task's transfer.
    WaitTask(TaskId),
    /// No task deposited yet; wait for the pending-recv slot.
    WaitPending(RecvId),
}

/// Counters of one MSG run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MsgStats {
    /// Tasks deposited.
    pub messages: u64,
    /// Tasks below the async threshold.
    pub async_messages: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Monolithic collectives executed (occurrences, not participations).
    pub collectives: u64,
}

/// The FIFO queues of one `<src>_<dst>` mailbox.
#[derive(Debug, Default)]
struct Mailbox {
    /// Tasks deposited before any matching receive.
    tasks: VecDeque<TaskId>,
    /// Receives posted before any matching task.
    pending: VecDeque<RecvId>,
}

/// The MSG world over a platform borrowed for `'p`.
pub struct MsgWorld<'p> {
    /// Network state (raw factors).
    pub net: FlowNet,
    /// Configuration.
    pub cfg: MsgConfig,
    /// Compute-cost hooks (shared abstraction with the SMPI runtime).
    pub hooks: Box<dyn smpi::ExecHooks>,
    /// Run counters.
    pub stats: MsgStats,
    /// Per-rank compute seconds.
    pub compute_seconds: Vec<f64>,
    /// The span log when recording is on (see [`simkernel::obs`]). When
    /// `None`, every recording call site is a branch on this option and
    /// nothing else — the disabled path allocates nothing.
    pub spans: Option<SpanLog>,
    /// The first disagreement between matched ranks — a receive sized
    /// differently from its task, or a collective entered as different
    /// ops — which [`MsgWorld::check_drained`] reports.
    mismatch: Option<String>,
    ranks: u32,
    pairs: PairTable<'p, Mailbox>,
    tasks: Slab<Task>,
    recvs: Slab<PendingRecv>,
    reqs: Slab<Req>,
    flow_task: ActivityMap<TaskId>,
    colls: CollectiveOrder,
    /// Resolved when the first collective completes (see
    /// [`nominal_collective_model`]).
    coll_model: Option<CollectiveModel>,
    transport: ActorId,
}

impl<'p> MsgWorld<'p> {
    /// Builds the world; `transport` is the daemon receiving transfer
    /// events. Mailboxes and routes are built on each pair's first
    /// message, so this is O(ranks).
    pub fn new(
        platform: &'p Platform,
        hosts: &[HostId],
        cfg: MsgConfig,
        hooks: Box<dyn smpi::ExecHooks>,
        transport: ActorId,
    ) -> MsgWorld<'p> {
        let ranks = hosts.len() as u32;
        assert!(ranks > 0);
        let n = ranks as usize;
        MsgWorld {
            net: FlowNet::new(platform, netmodel::SharingPolicy::Bottleneck),
            cfg,
            hooks,
            stats: MsgStats::default(),
            compute_seconds: vec![0.0; n],
            spans: None,
            mismatch: None,
            ranks,
            pairs: PairTable::new(platform, hosts),
            // Pre-sized like the SMPI world: the per-rank in-flight bound
            // the runners give the kernel also bounds live protocol
            // records, so the steady state never regrows these.
            tasks: Slab::with_capacity(n * simkernel::IN_FLIGHT_PER_RANK),
            recvs: Slab::with_capacity(n * simkernel::IN_FLIGHT_PER_RANK),
            reqs: Slab::with_capacity(n * simkernel::IN_FLIGHT_PER_RANK),
            flow_task: ActivityMap::with_capacity(simkernel::replay_sizing(n).0),
            colls: CollectiveOrder::default(),
            coll_model: None,
            transport,
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> u32 {
        self.ranks
    }

    /// Records one simulated-time span, if recording is on.
    pub fn record_span(
        &mut self,
        rank: u32,
        start: f64,
        end: f64,
        kind: SpanKind,
        peer: Option<u32>,
    ) {
        if let Some(log) = self.spans.as_mut() {
            log.span(rank, start, end, kind, peer);
        }
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Deposits a task. `blocking` requests the old large-message
    /// behaviour (`MSG_task_send`): the sender waits for delivery.
    /// `track` creates a sender-side request handle (trace `isend`);
    /// untracked asynchronous sends are fire-and-forget, as in the old
    /// small-message path.
    #[allow(clippy::too_many_arguments)] // a protocol call carries its full envelope
    pub fn send(
        &mut self,
        kernel: &mut Kernel,
        src: u32,
        dst: u32,
        bytes: u64,
        blocking: bool,
        track: bool,
        actor: ActorId,
    ) -> (MsgSendResult, Option<ReqId>) {
        assert!(dst < self.ranks && src != dst);
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        if bytes < self.cfg.async_threshold {
            self.stats.async_messages += 1;
        }
        let pair = self.pairs.slot(src, dst);
        let task_id = self.tasks.insert(Task {
            src,
            dst,
            pair,
            bytes,
            done: false,
            flow: None,
            sender_req: None,
            recv_req: None,
            pending_recv: None,
            waiters: Waiters::new(),
        });
        // A pending receive starts the transfer immediately.
        let mailbox = &mut self.pairs[pair].queues;
        if let Some(recv_id) = mailbox.pending.pop_front() {
            let pr = self.recvs.expect_mut(recv_id);
            note_size_mismatch(&mut self.mismatch, src, dst, bytes, pr.bytes);
            pr.matched = Some(task_id);
            let (req, waiter) = (pr.req, pr.waiter);
            let t = self.tasks.expect_mut(task_id);
            t.recv_req = req;
            t.pending_recv = Some(recv_id);
            if let Some(w) = waiter {
                t.waiters.push(w);
            }
            self.start_transfer(kernel, task_id);
        } else {
            mailbox.tasks.push_back(task_id);
            if let Some(log) = self.spans.as_mut() {
                log.count(Counter::MailboxEnqueued, 1);
            }
        }
        if blocking {
            self.tasks.expect_mut(task_id).waiters.push(actor);
            (MsgSendResult::Wait(task_id), None)
        } else if track {
            let req = self.reqs.insert(Req {
                done: false,
                waiter: None,
            });
            self.tasks.expect_mut(task_id).sender_req = Some(req);
            (MsgSendResult::Deposited, Some(req))
        } else {
            (MsgSendResult::Deposited, None)
        }
    }

    /// Reads a mailbox; matching a deposited task *starts* the transfer
    /// (the MSG semantics).
    pub fn recv(
        &mut self,
        kernel: &mut Kernel,
        dst: u32,
        src: u32,
        bytes: u64,
        blocking: bool,
        actor: ActorId,
    ) -> (MsgRecvResult, Option<ReqId>) {
        assert!(src < self.ranks);
        let pair = self.pairs.slot(src, dst);
        let mailbox = &mut self.pairs[pair].queues;
        if let Some(task_id) = mailbox.tasks.pop_front() {
            let t = self.tasks.expect_mut(task_id);
            note_size_mismatch(&mut self.mismatch, src, dst, t.bytes, bytes);
            let req = if blocking {
                t.waiters.push(actor);
                None
            } else {
                let req = self.reqs.insert(Req {
                    done: false,
                    waiter: None,
                });
                self.tasks.expect_mut(task_id).recv_req = Some(req);
                Some(req)
            };
            self.start_transfer(kernel, task_id);
            (MsgRecvResult::WaitTask(task_id), req)
        } else {
            let recv_id = self.recvs.insert(PendingRecv {
                bytes,
                req: None,
                waiter: blocking.then_some(actor),
                matched: None,
            });
            mailbox.pending.push_back(recv_id);
            if let Some(log) = self.spans.as_mut() {
                log.count(Counter::PendingEnqueued, 1);
            }
            let req = if blocking {
                None
            } else {
                let req = self.reqs.insert(Req {
                    done: false,
                    waiter: None,
                });
                self.recvs.expect_mut(recv_id).req = Some(req);
                Some(req)
            };
            (MsgRecvResult::WaitPending(recv_id), req)
        }
    }

    // ------------------------------------------------------------------
    // Monolithic collectives
    // ------------------------------------------------------------------

    /// Registers `rank`'s arrival at its `index`-th collective, entered
    /// as `op`. When the last rank arrives, every participant is released
    /// after the closed-form duration of the op the first rank entered
    /// (see [`CollectiveOrder::enter`]). Returns `true` if the caller
    /// must block.
    pub fn enter_collective(
        &mut self,
        kernel: &mut Kernel,
        rank: u32,
        index: usize,
        op: workloads::MpiOp,
    ) -> bool {
        if self.ranks == 1 {
            return false;
        }
        let (op, last) = self
            .colls
            .enter(index, rank, op, self.ranks, &mut self.mismatch);
        if last {
            self.stats.collectives += 1;
            let pairs = &self.pairs;
            let model = self
                .coll_model
                .get_or_insert_with(|| nominal_collective_model(pairs.platform(), pairs.hosts()));
            let duration = model
                .duration(&op, self.ranks)
                .expect("non-collective entered collective sync");
            for r in 0..self.ranks {
                kernel.set_timer(ActorId(r), Duration::from_secs(duration), COLL_RELEASE_KEY);
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Queries (stale == complete)
    // ------------------------------------------------------------------

    /// Has this task been delivered?
    pub fn task_done(&self, id: TaskId) -> bool {
        self.tasks.get(id).is_none_or(|t| t.done)
    }

    /// Has this pending receive completed?
    pub fn pending_recv_done(&self, id: RecvId) -> bool {
        match self.recvs.get(id) {
            None => true,
            Some(pr) => pr.matched.is_some_and(|t| self.task_done(t)),
        }
    }

    /// Consumes a completed request, or registers `waiter` and returns
    /// `false`.
    pub fn take_req(&mut self, id: ReqId, waiter: ActorId) -> bool {
        match self.reqs.get_mut(id) {
            None => true,
            Some(r) if r.done => {
                self.reqs.remove(id);
                true
            }
            Some(r) => {
                r.waiter = Some(waiter);
                false
            }
        }
    }

    /// Records compute time.
    pub fn account_compute(&mut self, rank: u32, seconds: f64) {
        self.compute_seconds[rank as usize] += seconds;
    }

    // ------------------------------------------------------------------
    // Transport
    // ------------------------------------------------------------------

    /// Handles a transport wake (flow completion or latency expiry).
    pub fn on_transport_wake(&mut self, kernel: &mut Kernel, wake: Wake) {
        match wake {
            Wake::Activity(act) => {
                let Some(task_id) = self.flow_task.remove(act) else {
                    return;
                };
                let t = self.tasks.expect_mut(task_id);
                let flow = t.flow.take().expect("flow completion without flow");
                let (pair, bytes) = (t.pair, t.bytes);
                self.net.close(kernel, flow);
                if let Some(log) = self.spans.as_mut() {
                    log.flow_close(task_id.pack(), kernel.now().as_secs());
                }
                let lat = self.cfg.latency_multiplier
                    * self
                        .cfg
                        .factors
                        .effective_latency(bytes, self.pairs[pair].latency);
                kernel.set_timer(self.transport, Duration::from_secs(lat), task_id.pack());
            }
            Wake::Timer(key) => self.complete_delivery(kernel, Id::unpack(key)),
            Wake::Start | Wake::Signal(_) => {}
        }
    }

    fn start_transfer(&mut self, kernel: &mut Kernel, task_id: TaskId) {
        let t = self.tasks.expect(task_id);
        let (src, dst, bytes) = (t.src, t.dst, t.bytes);
        let pair = &self.pairs[t.pair];
        if pair.route.is_empty() {
            let d = self.cfg.loopback_latency + bytes as f64 / self.cfg.loopback_bandwidth;
            kernel.set_timer(self.transport, Duration::from_secs(d), task_id.pack());
            if let Some(log) = self.spans.as_mut() {
                log.count(Counter::LoopbackTransfers, 1);
            }
        } else {
            let cap = self.cfg.factors.effective_bandwidth(bytes, pair.bandwidth);
            let flow = self.net.open(kernel, &pair.route, bytes as f64, cap);
            let act = self.net.activity(flow);
            kernel.subscribe(act, self.transport);
            self.flow_task.insert(act, task_id);
            self.tasks.expect_mut(task_id).flow = Some(flow);
            if let Some(log) = self.spans.as_mut() {
                log.flow_open(task_id.pack(), src, dst, bytes, kernel.now().as_secs());
            }
        }
    }

    fn complete_delivery(&mut self, kernel: &mut Kernel, task_id: TaskId) {
        let t = self.tasks.expect_mut(task_id);
        t.done = true;
        let waiters = std::mem::take(&mut t.waiters);
        let sender_req = t.sender_req.take();
        let recv_req = t.recv_req.take();
        let pending_recv = t.pending_recv.take();
        // Inline waiter list: taking and draining it allocates nothing.
        waiters.for_each(|w| kernel.wake(w, Wake::Signal(task_id.pack())));
        for req in [sender_req, recv_req].into_iter().flatten() {
            if let Some(r) = self.reqs.get_mut(req) {
                r.done = true;
                if let Some(w) = r.waiter.take() {
                    kernel.wake(w, Wake::Signal(req.pack()));
                }
            }
        }
        if let Some(pr) = pending_recv {
            self.recvs.remove(pr);
        }
        self.tasks.remove(task_id);
    }

    /// Fails when matched ranks disagreed on a size or a collective, or
    /// records outlive the run: a task nobody received, a receive nobody
    /// matched, a request nobody waited for.
    ///
    /// # Errors
    /// The recorded mismatch, else the [`smpi::world::leak_report`] of
    /// the live records.
    pub fn check_drained(&self) -> Result<(), String> {
        if let Some(mismatch) = &self.mismatch {
            return Err(mismatch.clone());
        }
        let live = (self.tasks.len(), self.recvs.len(), self.reqs.len());
        if live == (0, 0, 0) {
            return Ok(());
        }
        let first = self.pairs.first_where(|m| !m.tasks.is_empty());
        Err(smpi::world::leak_report(live, first))
    }
}

/// Nominal collective-model parameters: the worst latency and the
/// tightest finite bandwidth over every ordered rank pair's route, folded
/// source-major through one reused route buffer (what the old
/// implementation read off the platform file).
fn nominal_collective_model(platform: &Platform, hosts: &[HostId]) -> CollectiveModel {
    let mut route = Vec::new();
    let (mut latency, mut bandwidth) = (0.0, f64::INFINITY);
    for &s in hosts {
        for &d in hosts {
            platform.route(s, d, &mut route);
            latency = f64::max(latency, platform.path_latency(&route));
            let b = platform.path_bandwidth(&route);
            if b.is_finite() {
                bandwidth = f64::min(bandwidth, b);
            }
        }
    }
    CollectiveModel {
        latency,
        bandwidth: bandwidth.min(1e12),
    }
}

/// Timer key signalling a collective release to a rank actor.
pub const COLL_RELEASE_KEY: u64 = u64::MAX - 1;
