//! Shared runtime state: message matching, protocol state machines, and
//! transport event handling.
//!
//! Message lifecycle (eager): the sender creates the message, the
//! transfer (a network flow, or a loopback timer for intra-host traffic)
//! starts immediately, and the sender continues — *detached* semantics.
//! When the flow drains, the route's protocol-corrected latency runs as a
//! tail timer; the message then *arrives*: any blocked receiver, matched
//! post, or linked request completes. A message nobody observes when its
//! flow drains (no waiter, request, matched post or committed receive:
//! an eager send whose receive is not posted yet) only *reserves* its
//! arrival timer. The receive that later takes it from the unexpected
//! queue finds it arrived if the reserved instant has passed, and arms
//! the timer otherwise, so it fires exactly where it would have.
//!
//! Message lifecycle (rendezvous): the sender publishes an envelope; the
//! transfer starts only when a matching receive is posted; the sender (or
//! its request) completes at arrival.
//!
//! The MSG configuration ([`crate::SmpiConfig::msg_legacy`]) is this
//! runtime under [`crate::Model::Msg`]: every message on the rendezvous
//! path (a mailbox task whose transfer the receiver's match starts),
//! sends under the eager threshold returning at once instead of waiting
//! for arrival, and collectives as closed-form timers.
//!
//! Matching is FIFO per `(source, destination, channel)`. Two channels
//! exist: application point-to-point traffic and collective-internal
//! traffic (real MPI separates these via communicators/tags, and without
//! the separation an eager application message racing ahead could be
//! swallowed by a collective's internal receive).
//!
//! Handle-staleness convention: records are recycled on completion, and
//! every query (`msg_arrived`, `post_complete`, `take_req`) treats a
//! stale handle as *complete* — a record that no longer exists has, by
//! construction, finished its protocol.

use std::collections::VecDeque;

use netmodel::{FlowId, FlowNet, FLUSH_KEY};
use platform::{HostId, Platform};
use simkernel::obs::{Counter, Metrics, SpanKind, SpanLog};
use simkernel::{ActorId, Duration, Kernel, Reserved, Wake};
use workloads::MpiOp;

use crate::collectives::{nominal_collective_model, CollectiveModel};
use crate::hooks::ExecHooks;
use crate::pairs::PairTable;
use crate::slab::{ActivityMap, Id, Slab, Waiters};
use crate::{Model, SmpiConfig};

/// Timer key releasing a rank from a closed-form collective.
pub(crate) const COLL_RELEASE_KEY: u64 = u64::MAX - 1;

/// Application point-to-point channel.
pub(crate) const CH_APP: u8 = 0;
/// Collective-internal channel.
pub(crate) const CH_COLL: u8 = 1;
const CHANNELS: usize = 2;

/// An in-flight or enveloped message.
#[derive(Debug)]
pub struct Msg {
    src: u32,
    dst: u32,
    /// Slot of the `(src, dst)` pair in the world's [`PairTable`].
    pair: u32,
    bytes: u64,
    /// The arrival timer fired. Read through [`Msg::has_arrived`].
    arrived: bool,
    /// The arrival timer reserved, not queued, when the flow drained with
    /// nobody observing the message; armed by the receive that takes it
    /// before that instant.
    unarmed_arrival: Option<Reserved>,
    /// Transfer started (eager always; rendezvous once matched).
    transferring: bool,
    /// Collective-internal traffic ([`CH_COLL`]): takes the network
    /// model's deferred path, so a P-flow collective phase is re-solved
    /// once per instant.
    coll: bool,
    flow: Option<FlowId>,
    matched_post: Option<PostId>,
    /// Set when a receive has directly committed to this message.
    delivered: bool,
    sender_req: Option<ReqId>,
    recv_req: Option<ReqId>,
    waiters: Waiters,
}

impl Msg {
    /// Whether the message has arrived: its arrival timer fired, or its
    /// reserved, unarmed arrival instant has passed.
    fn has_arrived(&self, kernel: &Kernel) -> bool {
        self.arrived || self.unarmed_arrival.is_some_and(|r| kernel.timer_fired(r))
    }

    /// Whether anything completes when the message arrives: a waiter, a
    /// request, a matched post or a committed receive.
    fn observed(&self) -> bool {
        !self.waiters.is_empty()
            || self.sender_req.is_some()
            || self.recv_req.is_some()
            || self.matched_post.is_some()
            || self.delivered
    }
}

/// A posted receive not yet matched (or matched, awaiting arrival).
#[derive(Debug)]
pub struct Post {
    bytes: u64,
    matched: Option<MsgId>,
    req: Option<ReqId>,
    waiter: Option<ActorId>,
}

/// A non-blocking request (isend/irecv handle).
#[derive(Debug)]
pub struct Req {
    done: bool,
    waiter: Option<ActorId>,
}

/// Handle to a [`Msg`].
pub(crate) type MsgId = Id<Msg>;
/// Handle to a [`Post`].
pub(crate) type PostId = Id<Post>;
/// Handle to a [`Req`].
pub(crate) type ReqId = Id<Req>;

/// Outcome of a blocking-send attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendResult {
    /// Sender may continue immediately (eager/detached).
    Done,
    /// Sender must wait for the message to arrive (rendezvous).
    Wait(MsgId),
}

/// Outcome of a blocking-receive attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvResult {
    /// Data already present.
    Done,
    /// Matched a message still in flight.
    WaitMsg(MsgId),
    /// No matching send yet; wait on the post.
    WaitPost(PostId),
}

/// The match queues of one `(src, dst)` pair, per channel.
#[derive(Debug, Default)]
struct MatchQueues {
    /// Messages sent before their receive was posted.
    unexpected: [VecDeque<MsgId>; CHANNELS],
    /// Receives posted before their message was sent.
    posted: [VecDeque<PostId>; CHANNELS],
}

/// The shared MPI world over a platform borrowed for `'p`. See the
/// [module documentation](self).
pub struct SmpiWorld<'p> {
    /// The network state.
    pub net: FlowNet,
    /// Protocol configuration.
    pub cfg: SmpiConfig,
    /// Local-cost hooks.
    pub hooks: Box<dyn ExecHooks>,
    /// The run's counters, counted where they happen: messages, bytes,
    /// collective participations and match-queue high-water marks (the
    /// runner adds the kernel's and the network's at the end).
    pub metrics: Metrics,
    /// Seconds each rank spent computing (planned durations; used by
    /// calibration).
    pub compute_seconds: Vec<f64>,
    /// The span log when recording is on (see [`simkernel::obs`]). When
    /// `None`, every recording call site is a branch on this option and
    /// nothing else — the disabled path allocates nothing.
    pub spans: Option<SpanLog>,
    /// The first disagreement between matched ranks — a receive sized
    /// differently from its send, or a collective entered as different
    /// ops — which [`SmpiWorld::check_drained`] reports.
    mismatch: Option<String>,
    collectives: CollectiveOrder,
    /// The closed-form collective model, resolved when the first
    /// collective completes under [`Model::Msg`].
    coll_model: Option<CollectiveModel>,
    ranks: u32,
    pairs: PairTable<'p, MatchQueues>,
    msgs: Slab<Msg>,
    posts: Slab<Post>,
    reqs: Slab<Req>,
    flow_msg: ActivityMap<MsgId>,
    /// Wake address of the transport: `ActorId(ranks)`, one past the
    /// ranks (see [`SmpiWorld::transport`]).
    transport: ActorId,
    /// Differential-test switch: collective flows take the eager
    /// per-flow path, the reference the batched one must reproduce.
    #[cfg(test)]
    pub(crate) eager_collectives: bool,
    /// Differential-test switch: every drained flow queues its arrival
    /// timer, observed or not, the reference the reserved path must
    /// reproduce.
    #[cfg(test)]
    pub(crate) eager_arrivals: bool,
}

/// Records a queue-depth high-water mark.
#[inline(always)]
fn track_depth(max: &mut u64, depth: usize) {
    *max = (*max).max(depth as u64);
}

impl<'p> SmpiWorld<'p> {
    /// Builds the world for `ranks` processes placed on `hosts` of
    /// `platform`. Per-pair state is built on each pair's first message,
    /// so this is O(ranks).
    pub fn new(
        platform: &'p Platform,
        hosts: &[HostId],
        cfg: SmpiConfig,
        hooks: Box<dyn ExecHooks>,
    ) -> SmpiWorld<'p> {
        let ranks = hosts.len() as u32;
        assert!(ranks > 0, "need at least one rank");
        let n = ranks as usize;
        let transport = ActorId(ranks);
        let mut net = FlowNet::new(platform, netmodel::SharingPolicy::Bottleneck);
        // Deferred collective batches flush off a zero-delay timer
        // delivered to the transport (see FLUSH_KEY).
        net.set_flush_actor(transport);
        SmpiWorld {
            net,
            metrics: Metrics::new(cfg.model.name(), ranks),
            cfg,
            hooks,
            compute_seconds: vec![0.0; n],
            spans: None,
            mismatch: None,
            collectives: CollectiveOrder::default(),
            coll_model: None,
            ranks,
            pairs: PairTable::new(platform, hosts),
            // Record slabs and the flow side table are pre-sized to the
            // same per-rank in-flight bound the runners use for the
            // kernel (see `simkernel::replay_sizing`), so the protocol
            // steady state never regrows them.
            msgs: Slab::with_capacity(n * simkernel::IN_FLIGHT_PER_RANK),
            posts: Slab::with_capacity(n * simkernel::IN_FLIGHT_PER_RANK),
            reqs: Slab::with_capacity(n * simkernel::IN_FLIGHT_PER_RANK),
            flow_msg: ActivityMap::with_capacity(simkernel::replay_sizing(n).0),
            transport,
            #[cfg(test)]
            eager_collectives: false,
            #[cfg(test)]
            eager_arrivals: false,
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> u32 {
        self.ranks
    }

    /// The address the kernel wakes for flow completions, arrival
    /// timers and sharing flushes, all handled by
    /// [`SmpiWorld::on_transport_wake`]. Rank `r` is `ActorId(r)`.
    pub(crate) fn transport(&self) -> ActorId {
        self.transport
    }

    // ------------------------------------------------------------------
    // Send / receive entry points (called by rank actors)
    // ------------------------------------------------------------------

    /// Executes the protocol side of a send. For non-blocking sends, a
    /// request handle is returned; for blocking sends at or above the
    /// eager threshold, the caller must wait on the returned message.
    #[allow(clippy::too_many_arguments)] // a protocol call carries its full envelope
    pub fn send(
        &mut self,
        kernel: &mut Kernel,
        src: u32,
        dst: u32,
        bytes: u64,
        ch: u8,
        blocking: bool,
        actor: ActorId,
    ) -> (SendResult, Option<ReqId>) {
        assert!(dst < self.ranks, "send to non-existent rank {dst}");
        assert_ne!(src, dst, "self-send reached the runtime");
        let eager = self.cfg.is_eager(bytes);
        let detached = self.cfg.is_detached(bytes);
        self.metrics.messages += 1;
        self.metrics.bytes += bytes;
        if detached {
            self.metrics.eager_messages += 1;
        } else {
            self.metrics.rendezvous_messages += 1;
        }
        let pair = self.pairs.slot(src, dst);
        let msg_id = self.msgs.insert(Msg {
            src,
            dst,
            pair,
            bytes,
            arrived: false,
            unarmed_arrival: None,
            transferring: false,
            coll: ch == CH_COLL,
            flow: None,
            matched_post: None,
            delivered: false,
            sender_req: None,
            recv_req: None,
            waiters: Waiters::new(),
        });
        // Try to match an already-posted receive.
        let queues = &mut self.pairs[pair].queues;
        let matched = queues.posted[ch as usize].pop_front();
        if let Some(post_id) = matched {
            let post = self.posts.expect_mut(post_id);
            let expected = post.bytes;
            post.matched = Some(msg_id);
            // A mailbox task holds its blocked receiver from the match on,
            // so arrival wakes it before a blocked sender; SMPI wakes the
            // matched post last. Each model keeps its own order: the
            // order of same-instant wakes moves event counts.
            let waiter = post.waiter.take_if(|_| self.cfg.model == Model::Msg);
            note_size_mismatch(&mut self.mismatch, src, dst, bytes, expected);
            let msg = self.msgs.expect_mut(msg_id);
            msg.matched_post = Some(post_id);
            if let Some(w) = waiter {
                msg.waiters.push(w);
            }
        } else {
            let unexpected = &mut queues.unexpected[ch as usize];
            unexpected.push_back(msg_id);
            track_depth(&mut self.metrics.max_unexpected_depth, unexpected.len());
            if let Some(log) = self.spans.as_mut() {
                log.count(Counter::UnexpectedEnqueued, 1);
            }
        }
        if eager || matched.is_some() {
            self.start_transfer(kernel, msg_id);
        }
        if eager {
            // Detached: the sender's buffer is reusable after the local
            // copy (charged by the caller); both Send and Isend complete
            // now.
            let req = (!blocking).then(|| {
                self.reqs.insert(Req {
                    done: true,
                    waiter: None,
                })
            });
            (SendResult::Done, req)
        } else if blocking && detached {
            // MSG's asynchronous small send: the sender leaves; the
            // transfer still waits for the match.
            (SendResult::Done, None)
        } else if blocking {
            self.msgs.expect_mut(msg_id).waiters.push(actor);
            (SendResult::Wait(msg_id), None)
        } else {
            let req = self.reqs.insert(Req {
                done: false,
                waiter: None,
            });
            self.msgs.expect_mut(msg_id).sender_req = Some(req);
            (SendResult::Done, Some(req))
        }
    }

    /// Executes the protocol side of a receive.
    #[allow(clippy::too_many_arguments)] // a protocol call carries its full envelope
    pub fn recv(
        &mut self,
        kernel: &mut Kernel,
        dst: u32,
        src: u32,
        bytes: u64,
        ch: u8,
        blocking: bool,
        actor: ActorId,
    ) -> (RecvResult, Option<ReqId>) {
        assert!(src < self.ranks, "recv from non-existent rank {src}");
        let pair = self.pairs.slot(src, dst);
        let queues = &mut self.pairs[pair].queues;
        if let Some(msg_id) = queues.unexpected[ch as usize].pop_front() {
            let msg = self.msgs.expect_mut(msg_id);
            note_size_mismatch(&mut self.mismatch, src, dst, msg.bytes, bytes);
            msg.delivered = true;
            if msg.has_arrived(kernel) {
                // Data already in memory: "the application only sees the
                // duration of a memory copy".
                self.retire_msg(msg_id);
                let req = (!blocking).then(|| {
                    self.reqs.insert(Req {
                        done: true,
                        waiter: None,
                    })
                });
                return (RecvResult::Done, req);
            }
            if let Some(r) = msg.unarmed_arrival.take() {
                kernel.arm_timer(r, self.transport, msg_id.pack());
            }
            let needs_start = !msg.transferring;
            if blocking {
                msg.waiters.push(actor);
            }
            if needs_start {
                self.start_transfer(kernel, msg_id);
            }
            if blocking {
                (RecvResult::WaitMsg(msg_id), None)
            } else {
                let req = self.reqs.insert(Req {
                    done: false,
                    waiter: None,
                });
                self.msgs.expect_mut(msg_id).recv_req = Some(req);
                (RecvResult::Done, Some(req))
            }
        } else {
            let post_id = self.posts.insert(Post {
                bytes,
                matched: None,
                req: None,
                waiter: blocking.then_some(actor),
            });
            let posted = &mut queues.posted[ch as usize];
            posted.push_back(post_id);
            track_depth(&mut self.metrics.max_posted_depth, posted.len());
            if let Some(log) = self.spans.as_mut() {
                log.count(Counter::PostedEnqueued, 1);
            }
            if blocking {
                (RecvResult::WaitPost(post_id), None)
            } else {
                let req = self.reqs.insert(Req {
                    done: false,
                    waiter: None,
                });
                self.posts.expect_mut(post_id).req = Some(req);
                (RecvResult::Done, Some(req))
            }
        }
    }

    // ------------------------------------------------------------------
    // Queries (stale handle == complete)
    // ------------------------------------------------------------------

    /// Has this message arrived (or been retired)?
    pub(crate) fn msg_arrived(&self, kernel: &Kernel, id: MsgId) -> bool {
        self.msgs.get(id).is_none_or(|m| m.has_arrived(kernel))
    }

    /// Has this post completed (matched message arrived)?
    pub(crate) fn post_complete(&self, id: PostId) -> bool {
        self.posts.get(id).is_none()
    }

    /// Consumes a completed request; returns `false` (and registers
    /// `waiter`) when it is still pending.
    pub(crate) fn take_req(&mut self, id: ReqId, waiter: ActorId) -> bool {
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

    /// Records compute time for calibration accounting.
    pub(crate) fn account_compute(&mut self, rank: u32, seconds: f64) {
        self.compute_seconds[rank as usize] += seconds;
    }

    /// Records a per-rank span when recording is enabled.
    pub(crate) fn record_span(
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

    /// Records `rank` entering its `index`-th collective as `op` (see
    /// `CollectiveOrder::enter`). Under [`Model::Smpi`] returns the op to
    /// expand; under [`Model::Msg`] returns `None` and the caller blocks
    /// until the last rank to enter releases every rank, after the
    /// closed-form duration, with a [`COLL_RELEASE_KEY`] timer.
    // Kept out of the rank actor's hot loop: collectives are rare next to
    // point-to-point ops.
    #[inline(never)]
    pub(crate) fn enter_collective(
        &mut self,
        kernel: &mut Kernel,
        rank: u32,
        index: usize,
        op: MpiOp,
    ) -> Option<MpiOp> {
        self.metrics.collectives += 1;
        let (op, last) = self
            .collectives
            .enter(index, rank, op, self.ranks, &mut self.mismatch);
        // A single rank has nothing to wait for: its expansion is empty.
        if self.cfg.model == Model::Smpi || self.ranks == 1 {
            return Some(op);
        }
        if last {
            let pairs = &self.pairs;
            let model = self
                .coll_model
                .get_or_insert_with(|| nominal_collective_model(pairs.platform(), pairs.hosts()));
            // Invariant: only collective ops reach `enter_collective`.
            let duration = model
                .duration(&op, self.ranks)
                .expect("non-collective entered a collective");
            for r in 0..self.ranks {
                kernel.set_timer(ActorId(r), Duration::from_secs(duration), COLL_RELEASE_KEY);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Transport (wakes addressed to `transport`)
    // ------------------------------------------------------------------

    /// Handles a transport wake: flow completion or arrival-latency
    /// expiry.
    pub(crate) fn on_transport_wake(&mut self, kernel: &mut Kernel, wake: Wake) {
        match wake {
            Wake::Activity(act) => {
                let Some(msg_id) = self.flow_msg.remove(act) else {
                    return; // flow of a retired message
                };
                let msg = self.msgs.expect_mut(msg_id);
                // Invariant: `flow_msg` maps only messages whose flow is open.
                let flow = msg.flow.take().expect("flow completion without flow");
                let (pair, bytes, coll) = (msg.pair, msg.bytes, msg.coll);
                let observed = msg.observed();
                if self.defers(coll) {
                    self.net.close_deferred(kernel, flow);
                } else {
                    self.net.close(kernel, flow);
                }
                if let Some(log) = self.spans.as_mut() {
                    log.flow_close(msg_id.pack(), kernel.now().as_secs());
                }
                // Tail latency: protocol-corrected route latency.
                let lat = self
                    .cfg
                    .factors
                    .effective_latency(bytes, self.pairs[pair].latency);
                let lat = Duration::from_secs(lat);
                if self.queues_arrival(observed) {
                    kernel.set_timer(self.transport, lat, msg_id.pack());
                } else {
                    self.msgs.expect_mut(msg_id).unarmed_arrival = Some(kernel.reserve_timer(lat));
                }
            }
            Wake::Timer(FLUSH_KEY) => {
                self.net.flush(kernel);
            }
            Wake::Timer(key) => {
                self.complete_arrival(kernel, Id::unpack(key));
            }
            Wake::Start | Wake::Signal(_) => {}
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Whether a transfer's sharing re-solve is batched to the end of
    /// the instant: collective-internal traffic, always.
    fn defers(&self, coll: bool) -> bool {
        #[cfg(test)]
        if self.eager_collectives {
            return false;
        }
        coll
    }

    /// Whether a drained flow queues its message's arrival timer: when
    /// anything observes the message, else it is only reserved.
    fn queues_arrival(&self, observed: bool) -> bool {
        #[cfg(test)]
        if self.eager_arrivals {
            return true;
        }
        observed
    }

    fn start_transfer(&mut self, kernel: &mut Kernel, msg_id: MsgId) {
        let msg = self.msgs.expect_mut(msg_id);
        msg.transferring = true;
        let (src, dst, bytes, coll) = (msg.src, msg.dst, msg.bytes, msg.coll);
        let pair = &self.pairs[msg.pair];
        if pair.route.is_empty() {
            // Intra-host: a memory copy.
            let d = self.cfg.loopback_latency + bytes as f64 / self.cfg.loopback_bandwidth;
            kernel.set_timer(self.transport, Duration::from_secs(d), msg_id.pack());
            if let Some(log) = self.spans.as_mut() {
                log.count(Counter::LoopbackTransfers, 1);
            }
        } else {
            let cap = self.cfg.factors.effective_bandwidth(bytes, pair.bandwidth);
            let flow = if self.defers(coll) {
                self.net
                    .open_deferred(kernel, &pair.route, bytes as f64, cap)
            } else {
                self.net.open(kernel, &pair.route, bytes as f64, cap)
            };
            let act = self.net.activity(flow);
            kernel.subscribe(act, self.transport);
            self.flow_msg.insert(act, msg_id);
            self.msgs.expect_mut(msg_id).flow = Some(flow);
            if let Some(log) = self.spans.as_mut() {
                log.flow_open(msg_id.pack(), src, dst, bytes, kernel.now().as_secs());
            }
        }
    }

    fn complete_arrival(&mut self, kernel: &mut Kernel, msg_id: MsgId) {
        let msg = self.msgs.expect_mut(msg_id);
        msg.arrived = true;
        let waiters = std::mem::take(&mut msg.waiters);
        let sender_req = msg.sender_req.take();
        let recv_req = msg.recv_req.take();
        let matched_post = msg.matched_post;
        let delivered = msg.delivered;
        // `Waiters` holds its (at most two) actors inline, so taking and
        // draining it allocates nothing.
        waiters.for_each(|w| kernel.wake(w, Wake::Signal(msg_id.pack())));
        if let Some(req) = sender_req {
            self.complete_req(kernel, req);
        }
        if let Some(req) = recv_req {
            self.complete_req(kernel, req);
        }
        // A `recv_req` means an irecv committed to the message.
        let mut receiver_committed = delivered || recv_req.is_some();
        if let Some(post_id) = matched_post {
            receiver_committed = true;
            if let Some(post) = self.posts.get_mut(post_id) {
                let req = post.req.take();
                let waiter = post.waiter.take();
                self.posts.remove(post_id);
                if let Some(req) = req {
                    self.complete_req(kernel, req);
                }
                if let Some(w) = waiter {
                    kernel.wake(w, Wake::Signal(0));
                }
            }
        }
        // Retire the message once the receiver side has committed to it;
        // otherwise it stays in the unexpected queue until a recv pops it.
        if receiver_committed {
            self.retire_msg(msg_id);
        }
    }

    fn complete_req(&mut self, kernel: &mut Kernel, id: ReqId) {
        if let Some(r) = self.reqs.get_mut(id) {
            r.done = true;
            if let Some(w) = r.waiter.take() {
                kernel.wake(w, Wake::Signal(id.pack()));
            }
        }
    }

    fn retire_msg(&mut self, id: MsgId) {
        self.msgs.remove(id);
    }

    /// Fails when matched ranks disagreed on a size or a collective, or
    /// protocol records outlive the run: a message nobody received, a
    /// receive nobody matched, a request nobody waited for.
    ///
    /// # Errors
    /// The recorded mismatch, else a report of the live records naming
    /// the first unreceived message's ranks.
    pub(crate) fn check_drained(&self) -> Result<(), String> {
        if let Some(mismatch) = &self.mismatch {
            return Err(mismatch.clone());
        }
        let live = (self.msgs.len(), self.posts.len(), self.reqs.len());
        if live == (0, 0, 0) {
            return Ok(());
        }
        let first = self
            .pairs
            .first_where(|q| q.unexpected.iter().any(|u| !u.is_empty()));
        Err(leak_report(live, first))
    }
}

/// The error for `(messages, posts, requests)` records alive at the end
/// of a run, naming the `(src, dst)` ranks of the first message still
/// waiting for its receive.
fn leak_report(
    (messages, posts, requests): (usize, usize, usize),
    first_unreceived: Option<(u32, u32)>,
) -> String {
    let mut report = format!(
        "replay finished with unmatched records: {messages} messages, {posts} posts, \
         {requests} requests"
    );
    if let Some((src, dst)) = first_unreceived {
        report += &format!(" (first unreceived message: rank {src} -> rank {dst})");
    }
    report
}

/// Records in `slot`, unless it already holds one, that `src` sent `sent`
/// bytes to a receive at `dst` that expects `expected`. The runtime then
/// carries on with the sender's size.
fn note_size_mismatch(slot: &mut Option<String>, src: u32, dst: u32, sent: u64, expected: u64) {
    if sent != expected && slot.is_none() {
        *slot = Some(format!(
            "message size mismatch: rank {src} sent {sent} bytes to rank {dst}, \
             which expects {expected}"
        ));
    }
}

/// The collectives entered but not yet entered by every rank, each with
/// the op and rank of its first arrival: every rank must enter the same
/// op as its `i`-th collective. Occurrences retire once all ranks have
/// arrived, so memory is bounded by how far the ranks drift apart.
#[derive(Debug, Default)]
struct CollectiveOrder {
    /// Occurrence index of `open[0]`.
    base: usize,
    /// `(op, first rank, arrivals)` per open occurrence.
    open: VecDeque<(MpiOp, u32, u32)>,
}

impl CollectiveOrder {
    /// Registers `rank` entering its `index`-th collective as `op`, of
    /// `ranks`. Returns the op to run — the first arrival's, so that a
    /// disagreeing rank still keeps step (the disagreement is noted in
    /// `mismatch` unless one is already there) — and whether `rank` was
    /// the last to arrive.
    fn enter(
        &mut self,
        index: usize,
        rank: u32,
        op: MpiOp,
        ranks: u32,
        mismatch: &mut Option<String>,
    ) -> (MpiOp, bool) {
        if index - self.base == self.open.len() {
            self.open.push_back((op, rank, 0));
        }
        let (first, first_rank, arrived) = &mut self.open[index - self.base];
        *arrived += 1;
        if *first != op && mismatch.is_none() {
            *mismatch = Some(format!(
                "collective mismatch: rank {rank} entered {op:?} as collective {index}, \
                 rank {first_rank} entered {first:?}"
            ));
        }
        let (first, last) = (*first, *arrived == ranks);
        if last {
            // Every rank entered all earlier occurrences first.
            debug_assert_eq!(index, self.base);
            self.open.pop_front();
            self.base += 1;
        }
        (first, last)
    }
}
