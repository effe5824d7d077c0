//! Shared runtime state: message matching, protocol state machines, and
//! transport event handling.
//!
//! Message lifecycle (eager): the sender creates the message, the
//! transfer (a network flow, or a loopback timer for intra-host traffic)
//! starts immediately, and the sender continues — *detached* semantics.
//! When the flow drains, the route's protocol-corrected latency runs as a
//! tail timer; the message then *arrives*: any blocked receiver, matched
//! post, or linked request completes.
//!
//! Message lifecycle (rendezvous): the sender publishes an envelope; the
//! transfer starts only when a matching receive is posted; the sender (or
//! its request) completes at arrival.
//!
//! Matching is FIFO per `(source, destination, channel)`. Two channels
//! exist: application point-to-point traffic and collective-internal
//! traffic (real MPI separates these via communicators/tags, and without
//! the separation an eager application message racing ahead could be
//! swallowed by a collective's internal receive).
//!
//! Handle-staleness convention: records are recycled on completion, and
//! every query (`msg_arrived`, `post_complete`, `req_done`) treats a
//! stale handle as *complete* — a record that no longer exists has, by
//! construction, finished its protocol.

use std::collections::VecDeque;

use netmodel::{FlowId, FlowNet, FLUSH_KEY};
use platform::{HostId, LinkId, Platform};
use simkernel::obs::{Counter, Recorder, SpanKind};
use simkernel::{ActorId, Duration, Kernel, Time, Wake};

use crate::hooks::ExecHooks;
use crate::slab::{ActivityMap, Id, Slab, Waiters};
use crate::SmpiConfig;

/// Application point-to-point channel.
pub const CH_APP: u8 = 0;
/// Collective-internal channel.
pub const CH_COLL: u8 = 1;
const CHANNELS: usize = 2;

/// An in-flight or enveloped message.
#[derive(Debug)]
pub struct Msg {
    src: u32,
    dst: u32,
    bytes: u64,
    arrived: bool,
    /// Transfer started (eager always; rendezvous once matched).
    transferring: bool,
    /// Collective-internal traffic ([`CH_COLL`]): takes the network
    /// model's deferred path, so a P-flow collective phase is re-solved
    /// once per instant and accounted as one live entity.
    coll: bool,
    flow: Option<FlowId>,
    matched_post: Option<PostId>,
    /// Set when a receive has directly committed to this message.
    delivered: bool,
    sender_req: Option<ReqId>,
    recv_req: Option<ReqId>,
    waiters: Waiters,
    /// Per-channel FIFO sequence number for cross-shard messages
    /// (windowed partitioned replay); 0 and unused for local traffic.
    cross_seq: u64,
}

/// Send-time record of a cross-shard message (windowed partitioned
/// replay): everything the receiver shard needs to replicate the merged
/// run's matching — the channel identity, the payload size, and the
/// per-channel FIFO sequence number assigned at send time. Envelopes are
/// exchanged at the window barrier following the send; a receive posted
/// later matches them in exactly the merged order because matching is
/// FIFO per channel and all of a channel's envelopes originate from one
/// sender rank (hence one shard, hence one ordered stream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossEnvelope {
    /// Sending rank (component-global id).
    pub src: u32,
    /// Receiving rank (component-global id).
    pub dst: u32,
    /// Channel ([`CH_APP`] or [`CH_COLL`]).
    pub ch: u8,
    /// Payload bytes.
    pub bytes: u64,
    /// Per-(src, dst, ch) FIFO sequence number.
    pub seq: u64,
}

/// Completion record of a cross-shard message: the *absolute* simulated
/// instant the merged run would deliver it, computed on the sender shard
/// with bit-identical arithmetic (flow completion time + the same
/// protocol-corrected tail latency) and shipped as a float, never
/// re-derived. The conservative window bound guarantees `at` lies
/// strictly beyond the horizon of the window that produced it, so the
/// receiver can always still schedule it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossArrival {
    /// Sending rank (component-global id).
    pub src: u32,
    /// Receiving rank (component-global id).
    pub dst: u32,
    /// Channel ([`CH_APP`] or [`CH_COLL`]).
    pub ch: u8,
    /// Sequence number pairing this arrival with its envelope.
    pub seq: u64,
    /// Absolute arrival instant.
    pub at: Time,
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
pub type MsgId = Id<Msg>;
/// Handle to a [`Post`].
pub type PostId = Id<Post>;
/// Handle to a [`Req`].
pub type ReqId = Id<Req>;

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

/// Aggregate counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Point-to-point messages created (including collective-internal).
    pub messages: u64,
    /// Messages that used the eager protocol.
    pub eager_messages: u64,
    /// Point-to-point payload bytes.
    pub bytes: u64,
    /// Network flows opened (excludes loopback).
    pub flows: u64,
    /// Collective operations executed (counted once per rank).
    pub collective_participations: u64,
    /// High-water depth of any per-channel unexpected-message queue.
    pub max_unexpected_depth: u64,
    /// High-water depth of any per-channel posted-receive queue.
    pub max_posted_depth: u64,
}

/// The shared MPI world. See the [module documentation](self).
pub struct SmpiWorld {
    /// The network state.
    pub net: FlowNet,
    /// Protocol configuration.
    pub cfg: SmpiConfig,
    /// Local-cost hooks.
    pub hooks: Box<dyn ExecHooks>,
    /// Run counters.
    pub stats: WorldStats,
    /// Seconds each rank spent computing (planned durations; used by
    /// calibration).
    pub compute_seconds: Vec<f64>,
    /// Optional observation sink (off by default; see [`simkernel::obs`]).
    /// When `None`, every recording call site is a branch on this option
    /// and nothing else — the disabled path allocates nothing.
    pub recorder: Option<Box<dyn Recorder>>,
    ranks: u32,
    routes: Vec<Vec<LinkId>>,
    pair_latency: Vec<f64>,
    pair_bandwidth: Vec<f64>,
    msgs: Slab<Msg>,
    posts: Slab<Post>,
    reqs: Slab<Req>,
    unexpected: Vec<VecDeque<MsgId>>,
    posted: Vec<VecDeque<PostId>>,
    flow_msg: ActivityMap<MsgId>,
    transport: ActorId,
    /// Rank locality for windowed partitioned replay: `local[r]` is
    /// false when rank `r` is simulated on another shard. Empty (the
    /// default) means every rank is local — the ordinary merged run.
    local: Vec<bool>,
    /// Per-channel send-side sequence counters for cross-shard FIFO
    /// pairing (allocated by [`SmpiWorld::set_locality`]).
    cross_seq: Vec<u64>,
    /// Outbound cross-shard records accumulated during the current
    /// window, drained at the barrier.
    outbox_env: Vec<CrossEnvelope>,
    outbox_arr: Vec<CrossArrival>,
    /// Receiver-side index from (channel, seq) to the ghost message an
    /// injected envelope created, consumed by the matching arrival.
    remote_pending: std::collections::HashMap<(usize, u64), MsgId>,
    /// Differential-test switch: collective flows take the eager
    /// per-flow path, the reference the batched one must reproduce.
    #[cfg(test)]
    pub(crate) eager_collectives: bool,
}

/// Initial capacity of each per-channel match queue. Unexpected/posted
/// queues are almost always depth ≤ 1 under trace replay (one
/// outstanding message per (src, dst, channel) at a time); a few slots
/// of slack mean the match path never regrows mid-replay.
const CHAN_DEPTH: usize = 4;

/// Records a queue-depth high-water mark.
#[inline(always)]
fn track_depth(max: &mut u64, depth: usize) {
    *max = (*max).max(depth as u64);
}

impl SmpiWorld {
    /// Builds the world for `ranks` processes placed on `hosts` of
    /// `platform`. `transport` is the daemon actor that will receive
    /// transfer events (spawned by the runner).
    pub fn new(
        platform: &Platform,
        hosts: &[HostId],
        cfg: SmpiConfig,
        hooks: Box<dyn ExecHooks>,
        transport: ActorId,
    ) -> SmpiWorld {
        let ranks = hosts.len() as u32;
        assert!(ranks > 0, "need at least one rank");
        let n = ranks as usize;
        let mut routes = Vec::with_capacity(n * n);
        let mut pair_latency = Vec::with_capacity(n * n);
        let mut pair_bandwidth = Vec::with_capacity(n * n);
        let mut scratch = Vec::new();
        for s in 0..n {
            for d in 0..n {
                platform.route(hosts[s], hosts[d], &mut scratch);
                routes.push(scratch.clone());
                pair_latency.push(platform.route_latency(hosts[s], hosts[d]));
                pair_bandwidth.push(platform.route_bandwidth(hosts[s], hosts[d]));
            }
        }
        let mut net = FlowNet::new(platform, cfg.sharing);
        // Deferred collective batches flush off a zero-delay timer
        // delivered to the transport daemon (see FLUSH_KEY).
        net.set_flush_actor(transport);
        SmpiWorld {
            net,
            cfg,
            hooks,
            stats: WorldStats::default(),
            compute_seconds: vec![0.0; n],
            recorder: None,
            ranks,
            routes,
            pair_latency,
            pair_bandwidth,
            // Record slabs and the flow side table are pre-sized to the
            // same per-rank in-flight bound the runners use for the
            // kernel (see `simkernel::replay_sizing`), so the protocol
            // steady state never regrows them.
            msgs: Slab::with_capacity(n * simkernel::IN_FLIGHT_PER_RANK),
            posts: Slab::with_capacity(n * simkernel::IN_FLIGHT_PER_RANK),
            reqs: Slab::with_capacity(n * simkernel::IN_FLIGHT_PER_RANK),
            unexpected: (0..n * n * CHANNELS)
                .map(|_| VecDeque::with_capacity(CHAN_DEPTH))
                .collect(),
            posted: (0..n * n * CHANNELS)
                .map(|_| VecDeque::with_capacity(CHAN_DEPTH))
                .collect(),
            flow_msg: ActivityMap::with_capacity(simkernel::replay_sizing(n).0),
            transport,
            local: Vec::new(),
            cross_seq: Vec::new(),
            outbox_env: Vec::new(),
            outbox_arr: Vec::new(),
            remote_pending: std::collections::HashMap::new(),
            #[cfg(test)]
            eager_collectives: false,
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> u32 {
        self.ranks
    }

    /// Marks this world as one sub-shard of a windowed partitioned run:
    /// ranks with `local[r] == false` live on other shards, and traffic
    /// to/from them goes through the cross-shard mailbox
    /// ([`SmpiWorld::drain_cross_outbox`] /
    /// [`SmpiWorld::inject_cross_envelope`] /
    /// [`SmpiWorld::inject_cross_arrival`]).
    pub fn set_locality(&mut self, local: Vec<bool>) {
        assert_eq!(local.len(), self.ranks as usize, "one flag per rank");
        self.local = local;
        self.cross_seq = vec![0; self.unexpected.len()];
    }

    fn is_remote(&self, rank: u32) -> bool {
        !self.local.is_empty() && !self.local[rank as usize]
    }

    /// Takes the cross-shard records produced since the last drain, in
    /// emission order (which, per channel, is send order — events are
    /// processed in nondecreasing simulated time).
    pub fn drain_cross_outbox(&mut self) -> (Vec<CrossEnvelope>, Vec<CrossArrival>) {
        (
            std::mem::take(&mut self.outbox_env),
            std::mem::take(&mut self.outbox_arr),
        )
    }

    /// Receiver-side half of a cross-shard send: creates the ghost
    /// message (already transferring — the flow runs on the sender
    /// shard) and matches it against the posted queue exactly as the
    /// merged run's `send` would. Counters and stats are *not* touched:
    /// the sender shard already accounted for this message.
    pub fn inject_cross_envelope(&mut self, env: &CrossEnvelope) {
        debug_assert!(!self.is_remote(env.dst), "envelope routed to wrong shard");
        let msg_id = self.msgs.insert(Msg {
            src: env.src,
            dst: env.dst,
            bytes: env.bytes,
            arrived: false,
            transferring: true,
            coll: env.ch == CH_COLL,
            flow: None,
            matched_post: None,
            delivered: false,
            sender_req: None,
            recv_req: None,
            waiters: Waiters::new(),
            cross_seq: env.seq,
        });
        let chan = self.chan(env.dst, env.src, env.ch);
        if let Some(post_id) = self.posted[chan].pop_front() {
            let post = self.posts.expect_mut(post_id);
            assert_eq!(
                post.bytes, env.bytes,
                "message size mismatch on channel {}->{}",
                env.src, env.dst
            );
            post.matched = Some(msg_id);
            self.msgs.expect_mut(msg_id).matched_post = Some(post_id);
        } else {
            self.unexpected[chan].push_back(msg_id);
        }
        self.remote_pending.insert((chan, env.seq), msg_id);
    }

    /// Receiver-side delivery of a cross-shard message: schedules the
    /// regular arrival timer at the sender-computed absolute instant.
    /// The envelope must have been injected first (same or an earlier
    /// barrier — envelopes are emitted at send time, arrivals at flow
    /// completion, so an arrival never precedes its envelope).
    pub fn inject_cross_arrival(&mut self, kernel: &mut Kernel, arr: &CrossArrival) {
        let chan = self.chan(arr.dst, arr.src, arr.ch);
        let msg_id = self
            .remote_pending
            .remove(&(chan, arr.seq))
            .expect("cross arrival without a preceding envelope");
        kernel.set_timer_at(self.transport, arr.at, msg_id.pack());
    }

    fn chan(&self, dst: u32, src: u32, ch: u8) -> usize {
        ((dst * self.ranks + src) as usize) * CHANNELS + ch as usize
    }

    fn pair(&self, src: u32, dst: u32) -> usize {
        (src * self.ranks + dst) as usize
    }

    // ------------------------------------------------------------------
    // Send / receive entry points (called by rank actors)
    // ------------------------------------------------------------------

    /// Executes the protocol side of a send. For non-blocking sends, a
    /// request handle is returned; for blocking rendezvous sends, the
    /// caller must wait on the returned message.
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
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        if eager {
            self.stats.eager_messages += 1;
        }
        let msg_id = self.msgs.insert(Msg {
            src,
            dst,
            bytes,
            arrived: false,
            transferring: false,
            coll: ch == CH_COLL,
            flow: None,
            matched_post: None,
            delivered: false,
            sender_req: None,
            recv_req: None,
            waiters: Waiters::new(),
            cross_seq: 0,
        });
        if self.is_remote(dst) {
            // Windowed partitioned replay: the receiver lives on another
            // shard. The flow is still simulated *here* (sender-side link
            // ownership — the partition certificate guarantees no other
            // shard touches these links), while matching is replicated on
            // the receiver shard from the envelope record. Only eager
            // traffic may cross shards (certificate), so the sender is
            // always detached and never observes the receiver.
            assert!(eager, "cross-shard rendezvous send {src}->{dst}");
            let chan = self.chan(dst, src, ch);
            let pair = self.pair(src, dst);
            assert!(
                !self.routes[pair].is_empty(),
                "cross-shard loopback {src}->{dst} (shards must be host-aligned)"
            );
            let seq = self.cross_seq[chan];
            self.cross_seq[chan] += 1;
            self.outbox_env.push(CrossEnvelope {
                src,
                dst,
                ch,
                bytes,
                seq,
            });
            self.msgs.expect_mut(msg_id).cross_seq = seq;
            self.start_transfer(kernel, msg_id);
            let req = (!blocking).then(|| {
                self.reqs.insert(Req {
                    done: true,
                    waiter: None,
                })
            });
            return (SendResult::Done, req);
        }
        // Try to match an already-posted receive.
        let chan = self.chan(dst, src, ch);
        let matched = self.posted[chan].pop_front();
        if let Some(post_id) = matched {
            let post = self.posts.expect_mut(post_id);
            assert_eq!(
                post.bytes, bytes,
                "message size mismatch on channel {src}->{dst}"
            );
            post.matched = Some(msg_id);
            self.msgs.expect_mut(msg_id).matched_post = Some(post_id);
        } else {
            self.unexpected[chan].push_back(msg_id);
            track_depth(
                &mut self.stats.max_unexpected_depth,
                self.unexpected[chan].len(),
            );
            if let Some(r) = self.recorder.as_mut() {
                r.count(Counter::UnexpectedEnqueued, 1);
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
        let chan = self.chan(dst, src, ch);
        if let Some(msg_id) = self.unexpected[chan].pop_front() {
            let msg = self.msgs.expect_mut(msg_id);
            assert_eq!(
                msg.bytes, bytes,
                "message size mismatch on channel {src}->{dst}"
            );
            msg.delivered = true;
            if msg.arrived {
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
            self.posted[chan].push_back(post_id);
            track_depth(&mut self.stats.max_posted_depth, self.posted[chan].len());
            if let Some(r) = self.recorder.as_mut() {
                r.count(Counter::PostedEnqueued, 1);
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
    pub fn msg_arrived(&self, id: MsgId) -> bool {
        self.msgs.get(id).is_none_or(|m| m.arrived)
    }

    /// Has this post completed (matched message arrived)?
    pub fn post_complete(&self, id: PostId) -> bool {
        self.posts.get(id).is_none()
    }

    /// Is this request complete? Does not consume the request.
    pub fn req_done(&self, id: ReqId) -> bool {
        self.reqs.get(id).is_none_or(|r| r.done)
    }

    /// Consumes a completed request; returns `false` (and registers
    /// `waiter`) when it is still pending.
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

    /// Records compute time for calibration accounting.
    pub fn account_compute(&mut self, rank: u32, seconds: f64) {
        self.compute_seconds[rank as usize] += seconds;
    }

    /// Installs an observation sink (span/flow/counter recording).
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Whether a recorder is installed (actors skip span classification
    /// entirely when not).
    pub fn recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Records a per-rank span when recording is enabled.
    pub fn record_span(
        &mut self,
        rank: u32,
        start: f64,
        end: f64,
        kind: SpanKind,
        peer: Option<u32>,
    ) {
        if let Some(r) = self.recorder.as_mut() {
            r.span(rank, start, end, kind, peer);
        }
    }

    /// Records one collective participation.
    pub fn account_collective(&mut self) {
        self.stats.collective_participations += 1;
    }

    // ------------------------------------------------------------------
    // Transport (called by the transport daemon actor)
    // ------------------------------------------------------------------

    /// Handles a transport wake: flow completion or arrival-latency
    /// expiry.
    pub fn on_transport_wake(&mut self, kernel: &mut Kernel, wake: Wake) {
        match wake {
            Wake::Activity(act) => {
                let Some(msg_id) = self.flow_msg.remove(act) else {
                    return; // flow of a retired message
                };
                let msg = self.msgs.expect_mut(msg_id);
                let flow = msg.flow.take().expect("flow completion without flow");
                let (src, dst, bytes, coll) = (msg.src, msg.dst, msg.bytes, msg.coll);
                let pair = self.pair(src, dst);
                if self.defers(coll) {
                    self.net.close_deferred(kernel, flow);
                } else {
                    self.net.close(kernel, flow);
                }
                if let Some(r) = self.recorder.as_mut() {
                    r.flow_close(msg_id.pack(), kernel.now().as_secs());
                }
                // Tail latency: protocol-corrected route latency.
                let lat = self
                    .cfg
                    .factors
                    .effective_latency(bytes, self.pair_latency[pair]);
                if self.is_remote(dst) {
                    // Sender shard of a cross-shard message: the arrival
                    // instant is exactly what the merged run's tail timer
                    // would compute (`now + lat`, same arithmetic) —
                    // ship it absolute and retire the local half. The
                    // receiver shard owns the rest of the lifecycle.
                    let at = kernel.now() + Duration::from_secs(lat);
                    let seq = self.msgs.expect(msg_id).cross_seq;
                    self.outbox_arr.push(CrossArrival {
                        src,
                        dst,
                        ch: if coll { CH_COLL } else { CH_APP },
                        seq,
                        at,
                    });
                    self.retire_msg(msg_id);
                } else {
                    kernel.set_timer(self.transport, Duration::from_secs(lat), msg_id.pack());
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

    fn start_transfer(&mut self, kernel: &mut Kernel, msg_id: MsgId) {
        let msg = self.msgs.expect_mut(msg_id);
        msg.transferring = true;
        let (src, dst, bytes, coll) = (msg.src, msg.dst, msg.bytes, msg.coll);
        let pair = self.pair(src, dst);
        if self.routes[pair].is_empty() {
            // Intra-host: a memory copy.
            let d = self.cfg.loopback_latency + bytes as f64 / self.cfg.loopback_bandwidth;
            kernel.set_timer(self.transport, Duration::from_secs(d), msg_id.pack());
            if let Some(r) = self.recorder.as_mut() {
                r.count(Counter::LoopbackTransfers, 1);
            }
        } else {
            let cap = self
                .cfg
                .factors
                .effective_bandwidth(bytes, self.pair_bandwidth[pair]);
            let route = std::mem::take(&mut self.routes[pair]);
            let flow = if self.defers(coll) {
                self.net.open_deferred(kernel, &route, bytes as f64, cap)
            } else {
                self.net.open(kernel, &route, bytes as f64, cap)
            };
            self.routes[pair] = route;
            let act = self.net.activity(flow);
            kernel.subscribe(act, self.transport);
            self.flow_msg.insert(act, flow_msg_value(msg_id));
            self.msgs.expect_mut(msg_id).flow = Some(flow);
            self.stats.flows += 1;
            if let Some(r) = self.recorder.as_mut() {
                r.flow_open(msg_id.pack(), src, dst, bytes, kernel.now().as_secs());
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
        let mut receiver_committed = delivered || recv_req_committed(recv_req);
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

    /// Live protocol records (diagnostics; must be 0 after a clean run).
    pub fn live_records(&self) -> (usize, usize, usize) {
        (self.msgs.len(), self.posts.len(), self.reqs.len())
    }
}

/// `recv_req` presence means an irecv committed to the message.
fn recv_req_committed(recv_req: Option<ReqId>) -> bool {
    recv_req.is_some()
}

/// Identity helper, kept separate for readability at the call site.
fn flow_msg_value(id: MsgId) -> MsgId {
    id
}
