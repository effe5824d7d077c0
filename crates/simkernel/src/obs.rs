//! Cross-engine observability: simulated-time span recording, a unified
//! metrics snapshot, trace exporters, and critical-path analysis.
//!
//! The paper validates its replay fixes by *looking at* executions —
//! Gantt charts, per-process distributions — not just end-to-end times.
//! This module gives every back-end the same vocabulary for doing so:
//!
//! * a [`Recorder`] trait the runtimes call at state transitions
//!   (zero-cost when no recorder is installed: worlds hold an
//!   `Option<Box<dyn Recorder>>` and skip the call when `None`);
//! * [`SpanLog`], the concrete recorder, storing per-rank simulated-time
//!   [`Span`]s and per-flow network activity;
//! * exporters: [`chrome_trace`] (Chrome/Perfetto JSON) and
//!   [`state_csv`] (flat state timeline);
//! * [`critical_path`], a backward walk over the recorded spans that
//!   reports the chain of actions determining the makespan plus a
//!   per-rank compute/communication breakdown;
//! * [`Metrics`], the unified counter snapshot (kernel, FEL profile,
//!   protocol, network sharing) every runner can fill;
//! * [`Manifest`], the per-run provenance record.
//!
//! Everything here is dependency-free: JSON is emitted by hand through
//! `f64`'s `Display` (shortest round-trip representation), so exports are
//! byte-deterministic whenever the underlying simulation is.

use crate::kernel::Kernel;
use crate::queue::FelProfile;

// ---------------------------------------------------------------------
// Spans and the recorder trait
// ---------------------------------------------------------------------

/// What a rank was doing during a recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Executing a compute block.
    Compute,
    /// Blocked in a send (rendezvous wait for the matching receive).
    Send,
    /// Blocked in a receive, waiting for data.
    Recv,
    /// Blocked in `wait`/`waitall` on outstanding requests.
    Wait,
    /// Blocked inside a collective (sub-program or monolithic sync).
    Collective,
    /// Fixed delays: MPI software overhead, probes, eager copies.
    Overhead,
}

/// Number of [`SpanKind`] variants (array-indexing helper).
pub const SPAN_KINDS: usize = 6;

impl SpanKind {
    /// Stable machine-readable label (used by every exporter).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::Send => "send",
            SpanKind::Recv => "recv",
            SpanKind::Wait => "wait",
            SpanKind::Collective => "collective",
            SpanKind::Overhead => "overhead",
        }
    }

    /// Dense index (inverse of the variant order).
    pub fn index(self) -> usize {
        match self {
            SpanKind::Compute => 0,
            SpanKind::Send => 1,
            SpanKind::Recv => 2,
            SpanKind::Wait => 3,
            SpanKind::Collective => 4,
            SpanKind::Overhead => 5,
        }
    }
}

/// One recorded per-rank interval of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Start instant, seconds.
    pub start: f64,
    /// End instant, seconds.
    pub end: f64,
    /// Activity classification.
    pub kind: SpanKind,
    /// The remote rank that resolved this blocking condition, when the
    /// runtime knows it (send/recv partner). Drives the critical-path
    /// walk's rank-to-rank jumps.
    pub peer: Option<u32>,
}

/// One network flow's lifetime (open to close, simulated seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpan {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Payload bytes.
    pub bytes: u64,
    /// Flow-open instant, seconds.
    pub start: f64,
    /// Flow-close instant, seconds (equals `start` until closed).
    pub end: f64,
}

/// Event counters a recorder accumulates alongside spans. These cover
/// signals that are otherwise invisible (the run metrics carry only
/// high-water marks of the match queues).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// smpi: messages queued as unexpected (send before recv).
    UnexpectedEnqueued,
    /// smpi: receives queued as posted (recv before send).
    PostedEnqueued,
    /// msgsim: tasks deposited into a mailbox before any receive.
    MailboxEnqueued,
    /// msgsim: receives pending before any matching deposit.
    PendingEnqueued,
    /// Intra-host transfers served by the loopback path (no flow).
    LoopbackTransfers,
}

/// Number of [`Counter`] variants.
pub const COUNTERS: usize = 5;

impl Counter {
    /// Dense index.
    pub fn index(self) -> usize {
        match self {
            Counter::UnexpectedEnqueued => 0,
            Counter::PostedEnqueued => 1,
            Counter::MailboxEnqueued => 2,
            Counter::PendingEnqueued => 3,
            Counter::LoopbackTransfers => 4,
        }
    }

    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Counter::UnexpectedEnqueued => "unexpected_enqueued",
            Counter::PostedEnqueued => "posted_enqueued",
            Counter::MailboxEnqueued => "mailbox_enqueued",
            Counter::PendingEnqueued => "pending_enqueued",
            Counter::LoopbackTransfers => "loopback_transfers",
        }
    }
}

/// All counter variants in index order (for iteration in exporters).
pub const COUNTER_LIST: [Counter; COUNTERS] = [
    Counter::UnexpectedEnqueued,
    Counter::PostedEnqueued,
    Counter::MailboxEnqueued,
    Counter::PendingEnqueued,
    Counter::LoopbackTransfers,
];

/// Sink for simulated-time observations. Runtimes call these methods at
/// state transitions; installing no recorder costs nothing (the call
/// sites check an `Option`).
pub trait Recorder {
    /// Records a closed per-rank interval. Zero-length intervals may be
    /// dropped by implementations.
    fn span(&mut self, rank: u32, start: f64, end: f64, kind: SpanKind, peer: Option<u32>);
    /// A network flow opened. `key` must be unique among open flows and
    /// match the later [`Recorder::flow_close`].
    fn flow_open(&mut self, key: u64, src: u32, dst: u32, bytes: u64, at: f64);
    /// The flow opened under `key` drained.
    fn flow_close(&mut self, key: u64, at: f64);
    /// Bumps an event counter.
    fn count(&mut self, counter: Counter, delta: u64);
    /// Consumes the recorder, yielding its span log if it kept one.
    fn finish(self: Box<Self>) -> Option<SpanLog>;
}

/// The standard recorder: per-rank span vectors plus flow lifetimes.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    per_rank: Vec<Vec<Span>>,
    flows: Vec<FlowSpan>,
    /// Open flows, `(key, index into flows)`. Small (bounded by in-flight
    /// transfers), so linear scans beat hashing and stay deterministic.
    open: Vec<(u64, u32)>,
    counts: [u64; COUNTERS],
}

impl SpanLog {
    /// Empty log for `ranks` processes.
    pub fn new(ranks: u32) -> SpanLog {
        SpanLog {
            per_rank: (0..ranks).map(|_| Vec::new()).collect(),
            flows: Vec::new(),
            open: Vec::new(),
            counts: [0; COUNTERS],
        }
    }

    /// Number of ranks.
    pub fn rank_count(&self) -> u32 {
        self.per_rank.len() as u32
    }

    /// The spans of one rank, in recording order (non-decreasing ends).
    pub fn rank(&self, rank: u32) -> &[Span] {
        &self.per_rank[rank as usize]
    }

    /// All flow lifetimes, in open order.
    pub fn flows(&self) -> &[FlowSpan] {
        &self.flows
    }

    /// Flows opened but never closed (must be 0 after a clean run).
    pub fn open_flows(&self) -> usize {
        self.open.len()
    }

    /// Total spans across all ranks.
    pub fn total_spans(&self) -> usize {
        self.per_rank.iter().map(Vec::len).sum()
    }

    /// Total seconds `rank` spent in `kind`.
    pub fn total(&self, rank: u32, kind: SpanKind) -> f64 {
        self.per_rank[rank as usize]
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Value of one event counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counts[c.index()]
    }

    /// All event counters, indexed by [`Counter::index`].
    pub fn counts(&self) -> [u64; COUNTERS] {
        self.counts
    }
}

/// What an observed run yields besides its engine result: the unified
/// metrics snapshot and, when span recording was requested, the span
/// log itself.
#[derive(Debug, Clone, Default)]
pub struct RunObservation {
    /// Unified counter snapshot.
    pub metrics: Metrics,
    /// Recorded spans (present iff a [`SpanLog`] recorder was installed).
    pub spans: Option<SpanLog>,
}

/// A [`Recorder`] adapter for partitioned replay: the wrapped engine
/// records with partition-local rank ids while the inner [`SpanLog`] is
/// sized for the global rank count; `map[local]` gives the global rank.
/// Flow keys pass through unchanged (each partition closes only flows it
/// opened, and the inner log is per-partition, so keys never collide).
#[derive(Debug)]
pub struct RankMappedRecorder {
    inner: SpanLog,
    map: Vec<u32>,
}

impl RankMappedRecorder {
    /// A recorder over `global_ranks` lanes; local rank `i` of the
    /// wrapped engine records into global lane `map[i]`.
    pub fn new(global_ranks: u32, map: Vec<u32>) -> RankMappedRecorder {
        RankMappedRecorder {
            inner: SpanLog::new(global_ranks),
            map,
        }
    }
}

impl Recorder for RankMappedRecorder {
    fn span(&mut self, rank: u32, start: f64, end: f64, kind: SpanKind, peer: Option<u32>) {
        let peer = peer.map(|p| self.map[p as usize]);
        Recorder::span(
            &mut self.inner,
            self.map[rank as usize],
            start,
            end,
            kind,
            peer,
        );
    }

    fn flow_open(&mut self, key: u64, src: u32, dst: u32, bytes: u64, at: f64) {
        self.inner.flow_open(
            key,
            self.map[src as usize],
            self.map[dst as usize],
            bytes,
            at,
        );
    }

    fn flow_close(&mut self, key: u64, at: f64) {
        self.inner.flow_close(key, at);
    }

    fn count(&mut self, counter: Counter, delta: u64) {
        self.inner.count(counter, delta);
    }

    fn finish(self: Box<Self>) -> Option<SpanLog> {
        Some(self.inner)
    }
}

/// Merges the per-partition span logs of a partitioned replay into one
/// global log. All parts must be sized for the global rank count (see
/// [`RankMappedRecorder`]) and each rank's lane must be populated by at
/// most one part (its owning partition). Flows are concatenated in part
/// order; the exporters order flow records canonically, so the merged
/// log exports byte-identically to a sequential run's log. Counters sum.
pub fn merge_span_logs(parts: Vec<SpanLog>) -> SpanLog {
    let mut parts = parts.into_iter();
    let mut merged = parts.next().expect("merge_span_logs needs >= 1 part");
    for mut part in parts {
        assert_eq!(
            merged.per_rank.len(),
            part.per_rank.len(),
            "span logs sized for different rank counts"
        );
        for (lane, other) in merged.per_rank.iter_mut().zip(part.per_rank.iter_mut()) {
            if !other.is_empty() {
                assert!(lane.is_empty(), "rank recorded by more than one partition");
                std::mem::swap(lane, other);
            }
        }
        merged.flows.append(&mut part.flows);
        merged.open.append(&mut part.open);
        for (c, d) in merged.counts.iter_mut().zip(part.counts.iter()) {
            *c += d;
        }
    }
    merged
}

impl Recorder for SpanLog {
    fn span(&mut self, rank: u32, start: f64, end: f64, kind: SpanKind, peer: Option<u32>) {
        if end > start {
            self.per_rank[rank as usize].push(Span {
                start,
                end,
                kind,
                peer,
            });
        }
    }

    fn flow_open(&mut self, key: u64, src: u32, dst: u32, bytes: u64, at: f64) {
        let index = self.flows.len() as u32;
        self.flows.push(FlowSpan {
            src,
            dst,
            bytes,
            start: at,
            end: at,
        });
        self.open.push((key, index));
    }

    fn flow_close(&mut self, key: u64, at: f64) {
        if let Some(pos) = self.open.iter().position(|(k, _)| *k == key) {
            let (_, index) = self.open.swap_remove(pos);
            self.flows[index as usize].end = at;
        }
    }

    fn count(&mut self, counter: Counter, delta: u64) {
        self.counts[counter.index()] += delta;
    }

    fn finish(self: Box<Self>) -> Option<SpanLog> {
        Some(*self)
    }
}

// ---------------------------------------------------------------------
// Unified metrics snapshot
// ---------------------------------------------------------------------

/// One run's counters, unified across engines: kernel event-core
/// figures, the FEL profile, protocol counters, and
/// network-sharing work. Produced by the `*_observed` runners; exported
/// with [`Metrics::to_json`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Back-end name (`"smpi"` or `"msg"`).
    pub engine: String,
    /// Number of ranks simulated.
    pub ranks: u32,
    /// Application makespan, seconds.
    pub simulated_time_s: f64,
    /// Kernel events processed.
    pub events_processed: u64,
    /// FEL hot-path counters; `compactions` are the purges triggered by
    /// lazy-cancellation pressure.
    pub fel: FelProfile,
    /// Point-to-point messages created.
    pub messages: u64,
    /// Messages using the eager/asynchronous protocol.
    pub eager_messages: u64,
    /// Messages using the rendezvous/blocking protocol.
    pub rendezvous_messages: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Collective operations (smpi: participations; msg: occurrences).
    pub collectives: u64,
    /// Network flows opened.
    pub flows_created: u64,
    /// Network flows closed.
    pub flows_resolved: u64,
    /// Bandwidth-sharing re-solves performed by the network model.
    pub sharing_resolves: u64,
    /// Flow-rate changes pushed to the kernel by the sharing solver.
    pub sharing_rate_updates: u64,
    /// Flows whose rate the sharing solver recomputed (changed or not).
    pub sharing_examined: u64,
    /// Deferred-batch flushes performed by the network model (0 when
    /// collective aggregation is off).
    pub sharing_flushes: u64,
    /// High-water mark of concurrently live flows.
    pub live_flow_hwm: u64,
    /// High-water mark of live *entities* — flows, minus the surplus
    /// members folded into aggregates. Equals `live_flow_hwm` when
    /// aggregation is off; the aggregation win is the gap between them.
    pub live_entity_hwm: u64,
    /// Aggregate entities formed from uniform deferred batches.
    pub agg_formed: u64,
    /// Total member flows folded into aggregates.
    pub agg_members: u64,
    /// Aggregates dissolved early by outside traffic touching a member.
    pub agg_splits: u64,
    /// High-water unexpected-queue depth (0 for the MSG back-end, which
    /// has no match queues).
    pub max_unexpected_depth: u64,
    /// High-water posted-queue depth (0 for the MSG back-end).
    pub max_posted_depth: u64,
    /// Recorder event counters, present when a span recorder ran.
    pub recorder_counts: Option<[u64; COUNTERS]>,
}

impl Metrics {
    /// Empty snapshot for `engine`/`ranks`.
    pub fn new(engine: &str, ranks: u32) -> Metrics {
        Metrics {
            engine: engine.to_string(),
            ranks,
            ..Metrics::default()
        }
    }

    /// Folds the kernel's own counters in (events and the FEL profile).
    /// See [`Kernel::observe`].
    pub fn fold_kernel(&mut self, kernel: &Kernel) {
        kernel.observe(self);
    }

    /// Serialises the snapshot as deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"engine\": {},\n", json_string(&self.engine)));
        out.push_str(&format!("  \"ranks\": {},\n", self.ranks));
        out.push_str(&format!(
            "  \"simulated_time_s\": {},\n",
            json_f64(self.simulated_time_s)
        ));
        out.push_str(&format!(
            "  \"kernel\": {{\"events_processed\": {}, \"queue_compactions\": {}}},\n",
            self.events_processed, self.fel.compactions
        ));
        out.push_str(&format!(
            "  \"fel_profile\": {{\"scheduled\": {}, \"superseded\": {}, \
             \"popped\": {}, \"stale_popped\": {}, \"fired\": {}, \"spills\": {}, \
             \"bucket_sorts\": {}, \"reseeds\": {}, \"compactions\": {}}},\n",
            self.fel.scheduled,
            self.fel.superseded,
            self.fel.popped,
            self.fel.stale_popped,
            self.fel.fired(),
            self.fel.spills,
            self.fel.bucket_sorts,
            self.fel.reseeds,
            self.fel.compactions
        ));
        out.push_str(&format!(
            "  \"replay\": {{\"messages\": {}, \"eager_messages\": {}, \
             \"rendezvous_messages\": {}, \"bytes\": {}, \"collectives\": {}}},\n",
            self.messages,
            self.eager_messages,
            self.rendezvous_messages,
            self.bytes,
            self.collectives
        ));
        out.push_str(&format!(
            "  \"network\": {{\"flows_created\": {}, \"flows_resolved\": {}, \
             \"sharing_resolves\": {}, \"sharing_rate_updates\": {}, \
             \"sharing_examined\": {}}},\n",
            self.flows_created,
            self.flows_resolved,
            self.sharing_resolves,
            self.sharing_rate_updates,
            self.sharing_examined
        ));
        out.push_str(&format!(
            "  \"aggregation\": {{\"sharing_flushes\": {}, \"live_flow_hwm\": {}, \
             \"live_entity_hwm\": {}, \"agg_formed\": {}, \"agg_members\": {}, \
             \"agg_splits\": {}}},\n",
            self.sharing_flushes,
            self.live_flow_hwm,
            self.live_entity_hwm,
            self.agg_formed,
            self.agg_members,
            self.agg_splits
        ));
        out.push_str(&format!(
            "  \"match_queues\": {{\"max_unexpected_depth\": {}, \
             \"max_posted_depth\": {}}},\n",
            self.max_unexpected_depth, self.max_posted_depth
        ));
        match &self.recorder_counts {
            Some(counts) => {
                out.push_str("  \"recorder\": {");
                for (i, c) in COUNTER_LIST.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{}\": {}", c.label(), counts[c.index()]));
                }
                out.push_str("}\n");
            }
            None => out.push_str("  \"recorder\": null\n"),
        }
        out.push('}');
        out
    }
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

/// Flow records in canonical export order: by start instant, then
/// source, destination, end, and size. A sequential replay logs flows in
/// global open order while a partitioned replay logs them grouped by
/// partition; both hold the same multiset, so exporting in canonical
/// order makes the artifacts byte-identical regardless of how the replay
/// was executed.
fn canonical_flows(log: &SpanLog) -> Vec<FlowSpan> {
    let mut flows = log.flows().to_vec();
    flows.sort_by(|a, b| {
        a.start
            .total_cmp(&b.start)
            .then_with(|| a.src.cmp(&b.src))
            .then_with(|| a.dst.cmp(&b.dst))
            .then_with(|| a.end.total_cmp(&b.end))
            .then_with(|| a.bytes.cmp(&b.bytes))
    });
    flows
}

/// Exports a span log as Chrome-trace JSON (loadable in Perfetto or
/// `chrome://tracing`). Rank spans become complete (`"X"`) events under
/// process 0 (one thread per rank); flow lifetimes live under process 1,
/// one lane per sending rank, in canonical `(start, src, dst)` order.
/// Timestamps are microseconds of simulated time. The output is
/// byte-deterministic for identical logs.
pub fn chrome_trace(log: &SpanLog) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"ranks\"}}",
    );
    out.push_str(
        ",\n{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"network\"}}",
    );
    for rank in 0..log.rank_count() {
        for s in log.rank(rank) {
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"rank\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\
                 \"ts\":{},\"dur\":{}",
                s.kind.label(),
                rank,
                json_f64(s.start * 1e6),
                json_f64((s.end - s.start) * 1e6)
            ));
            if let Some(p) = s.peer {
                out.push_str(&format!(",\"args\":{{\"peer\":{p}}}"));
            }
            out.push('}');
        }
    }
    for f in canonical_flows(log) {
        out.push_str(&format!(
            ",\n{{\"name\":\"flow {}->{}\",\"cat\":\"flow\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{\"src\":{},\"dst\":{},\"bytes\":{}}}}}",
            f.src,
            f.dst,
            f.src,
            json_f64(f.start * 1e6),
            json_f64((f.end - f.start) * 1e6),
            f.src,
            f.dst,
            f.bytes
        ));
    }
    out.push_str("\n]}");
    out
}

/// Exports a span log as a flat CSV state timeline:
/// `rank,start_s,end_s,state,peer,bytes`. Rank spans come first (empty
/// `bytes`), then flow rows (`state` = `flow`, `rank` = source, `peer` =
/// destination) in canonical `(start, src, dst)` order.
pub fn state_csv(log: &SpanLog) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("rank,start_s,end_s,state,peer,bytes\n");
    for rank in 0..log.rank_count() {
        for s in log.rank(rank) {
            let peer = s.peer.map(|p| p.to_string()).unwrap_or_default();
            out.push_str(&format!(
                "{},{},{},{},{},\n",
                rank,
                json_f64(s.start),
                json_f64(s.end),
                s.kind.label(),
                peer
            ));
        }
    }
    for f in canonical_flows(log) {
        out.push_str(&format!(
            "{},{},{},flow,{},{}\n",
            f.src,
            json_f64(f.start),
            json_f64(f.end),
            f.dst,
            f.bytes
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Critical path
// ---------------------------------------------------------------------

/// One link of the critical chain. Steps tile `[0, end_s]` in time order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStep {
    /// Rank the step is attributed to (for `comm` steps: the sender).
    pub rank: u32,
    /// Start instant, seconds.
    pub start_s: f64,
    /// End instant, seconds.
    pub end_s: f64,
    /// Step label: a [`SpanKind::label`], `"comm"` (in-flight transfer
    /// gating the receiver), or `"idle"` (untracked gap).
    pub kind: &'static str,
}

/// Per-rank decomposition of where simulated time went.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankBreakdown {
    /// Rank.
    pub rank: u32,
    /// Seconds per [`SpanKind`], indexed by [`SpanKind::index`].
    pub by_kind: [f64; SPAN_KINDS],
    /// Finish time minus tracked time (idle / untracked overhead).
    pub idle_s: f64,
    /// The rank's finish time, seconds.
    pub finish_s: f64,
}

/// Output of [`critical_path`].
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// The makespan the chain explains; bit-equal to
    /// `max(rank_times)` and therefore to the run's reported simulated
    /// time.
    pub end_s: f64,
    /// The makespan-determining chain, earliest step first.
    pub steps: Vec<PathStep>,
    /// Per-rank time decomposition.
    pub breakdown: Vec<RankBreakdown>,
}

impl CriticalPath {
    /// Serialises path and breakdown as deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        out.push_str(&format!("  \"end_s\": {},\n", json_f64(self.end_s)));
        out.push_str("  \"steps\": [\n");
        for (i, s) in self.steps.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rank\": {}, \"start_s\": {}, \"end_s\": {}, \"kind\": \"{}\"}}{}\n",
                s.rank,
                json_f64(s.start_s),
                json_f64(s.end_s),
                s.kind,
                if i + 1 < self.steps.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"breakdown\": [\n");
        for (i, b) in self.breakdown.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rank\": {}, \"compute_s\": {}, \"send_s\": {}, \"recv_s\": {}, \
                 \"wait_s\": {}, \"collective_s\": {}, \"overhead_s\": {}, \"idle_s\": {}, \
                 \"finish_s\": {}}}{}\n",
                b.rank,
                json_f64(b.by_kind[0]),
                json_f64(b.by_kind[1]),
                json_f64(b.by_kind[2]),
                json_f64(b.by_kind[3]),
                json_f64(b.by_kind[4]),
                json_f64(b.by_kind[5]),
                json_f64(b.idle_s),
                json_f64(b.finish_s),
                if i + 1 < self.breakdown.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}");
        out
    }
}

/// Walks the recorded spans backwards from the last rank to finish,
/// reporting the chain of actions that determines the makespan.
///
/// The walk sits at `(rank, t)` and asks what ended at `t`:
///
/// * a span of `rank` ending exactly at `t` whose blocking condition was
///   resolved by a known peer (a send/recv/collective partner) jumps the
///   walk to that peer at the same instant — the peer's history explains
///   the release;
/// * otherwise the covering span itself is the step and the walk moves to
///   its start;
/// * a gap before `t` right after a jump is attributed to the in-flight
///   transfer (`"comm"`); a gap with no preceding jump is `"idle"`.
///
/// At most one jump is taken per instant, so the walk always progresses
/// backwards and terminates. Steps tile `[0, end_s]`; `end_s` is computed
/// exactly as the runners compute the makespan, so it bit-matches the
/// reported simulated time.
pub fn critical_path(log: &SpanLog, rank_times: &[f64]) -> CriticalPath {
    assert_eq!(
        rank_times.len(),
        log.rank_count() as usize,
        "one finish time per recorded rank"
    );
    let end_s = rank_times.iter().copied().fold(0.0, f64::max);
    let breakdown = (0..log.rank_count())
        .map(|r| {
            let mut by_kind = [0.0; SPAN_KINDS];
            for s in log.rank(r) {
                by_kind[s.kind.index()] += s.end - s.start;
            }
            let tracked: f64 = by_kind.iter().sum();
            RankBreakdown {
                rank: r,
                by_kind,
                idle_s: (rank_times[r as usize] - tracked).max(0.0),
                finish_s: rank_times[r as usize],
            }
        })
        .collect();

    let mut steps: Vec<PathStep> = Vec::new();
    let mut rank = rank_times
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite finish times"))
        .map_or(0, |(i, _)| i);
    let mut t = end_s;
    let mut jumped = false;
    // Backstop: each iteration either consumes a span, closes a gap, or
    // takes the (single-per-instant) jump — bounded well below this.
    let guard = 2 * log.total_spans() + 2 * rank_times.len() + 16;
    while t > 0.0 && steps.len() < guard {
        let spans = log.rank(rank as u32);
        let i = spans.partition_point(|s| s.end <= t);
        if i == 0 {
            // No tracked activity before t on this rank.
            steps.push(PathStep {
                rank: rank as u32,
                start_s: 0.0,
                end_s: t,
                kind: if jumped { "comm" } else { "idle" },
            });
            break;
        }
        let s = spans[i - 1];
        if s.end < t {
            steps.push(PathStep {
                rank: rank as u32,
                start_s: s.end,
                end_s: t,
                kind: if jumped { "comm" } else { "idle" },
            });
            t = s.end;
            jumped = false;
            continue;
        }
        // A span ends exactly at t.
        if !jumped {
            if let Some(p) = s.peer {
                if p as usize != rank && (p as usize) < rank_times.len() {
                    rank = p as usize;
                    jumped = true;
                    continue;
                }
            }
        }
        steps.push(PathStep {
            rank: rank as u32,
            start_s: s.start,
            end_s: t,
            kind: s.kind.label(),
        });
        t = s.start;
        jumped = false;
    }
    steps.reverse();
    CriticalPath {
        end_s,
        steps,
        breakdown,
    }
}

// ---------------------------------------------------------------------
// Run manifest
// ---------------------------------------------------------------------

/// Per-run provenance record: what was replayed, how, and what came out.
/// The only place wall-clock time appears — trace and metrics exports
/// stay bit-deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Producing tool (name/version).
    pub tool: String,
    /// Platform description name.
    pub platform: String,
    /// Number of ranks replayed.
    pub ranks: u32,
    /// Input trace identity (path/size or shape).
    pub trace_signature: String,
    /// Flat key/value rendering of the replay configuration.
    pub config: Vec<(String, String)>,
    /// Reported simulated time, seconds.
    pub simulated_time_s: f64,
    /// Wall-clock seconds the replay took.
    pub wall_time_s: f64,
    /// Full counter snapshot.
    pub metrics: Metrics,
}

impl Manifest {
    /// Serialises the manifest as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        out.push_str(&format!("  \"tool\": {},\n", json_string(&self.tool)));
        out.push_str(&format!(
            "  \"platform\": {},\n",
            json_string(&self.platform)
        ));
        out.push_str(&format!("  \"ranks\": {},\n", self.ranks));
        out.push_str(&format!(
            "  \"trace_signature\": {},\n",
            json_string(&self.trace_signature)
        ));
        out.push_str("  \"config\": {");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json_string(k), json_string(v)));
        }
        out.push_str("},\n");
        out.push_str(&format!(
            "  \"simulated_time_s\": {},\n",
            json_f64(self.simulated_time_s)
        ));
        out.push_str(&format!(
            "  \"wall_time_s\": {},\n",
            json_f64(self.wall_time_s)
        ));
        let metrics = self.metrics.to_json();
        out.push_str("  \"metrics\": ");
        for (i, line) in metrics.lines().enumerate() {
            if i > 0 {
                out.push_str("\n  ");
            }
            out.push_str(line);
        }
        out.push_str("\n}");
        out
    }
}

// ---------------------------------------------------------------------
// JSON primitives
// ---------------------------------------------------------------------

/// Renders an `f64` as a JSON number. Rust's `Display` for floats is the
/// shortest decimal that round-trips (and never scientific notation), so
/// the output is both valid JSON and deterministic. Non-finite values
/// (which indicate a bug upstream) render as `null` to keep documents
/// parseable.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders a JSON string literal with minimal escaping.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        log: &mut SpanLog,
        rank: u32,
        start: f64,
        end: f64,
        kind: SpanKind,
        peer: Option<u32>,
    ) {
        Recorder::span(log, rank, start, end, kind, peer);
    }

    /// Recording the same run whole vs split across two rank-mapped
    /// partition recorders merges and exports byte-identically, even
    /// though the partitions log their flows in a different global
    /// interleaving than the sequential recorder.
    #[test]
    fn partition_merge_exports_match_sequential() {
        let mut seq = SpanLog::new(4);
        // Global open order interleaves the two pairs: (0->1), (2->3),
        // then a second (0->1).
        seq.flow_open(7, 0, 1, 100, 0.0);
        seq.flow_open(9, 2, 3, 200, 0.5);
        seq.flow_open(8, 0, 1, 50, 1.0);
        seq.flow_close(7, 2.0);
        seq.flow_close(9, 2.5);
        seq.flow_close(8, 3.0);
        record(&mut seq, 1, 0.0, 2.0, SpanKind::Recv, Some(0));
        record(&mut seq, 3, 0.5, 2.5, SpanKind::Recv, Some(2));
        record(&mut seq, 0, 0.0, 1.0, SpanKind::Compute, None);
        seq.count(Counter::UnexpectedEnqueued, 2);

        // Partition A owns global ranks {0, 1}, partition B owns {2, 3};
        // each records with local ids and its own flow-key space.
        let mut a = Box::new(RankMappedRecorder::new(4, vec![0, 1]));
        a.flow_open(1, 0, 1, 100, 0.0);
        a.flow_open(2, 0, 1, 50, 1.0);
        a.flow_close(1, 2.0);
        a.flow_close(2, 3.0);
        a.span(1, 0.0, 2.0, SpanKind::Recv, Some(0));
        a.span(0, 0.0, 1.0, SpanKind::Compute, None);
        a.count(Counter::UnexpectedEnqueued, 2);
        let mut b = Box::new(RankMappedRecorder::new(4, vec![2, 3]));
        b.flow_open(1, 0, 1, 200, 0.5);
        b.flow_close(1, 2.5);
        b.span(1, 0.5, 2.5, SpanKind::Recv, Some(0));

        let merged = merge_span_logs(vec![a.finish().unwrap(), b.finish().unwrap()]);
        assert_eq!(merged.rank_count(), 4);
        assert_eq!(merged.open_flows(), 0);
        assert_eq!(merged.counter(Counter::UnexpectedEnqueued), 2);
        assert_eq!(chrome_trace(&merged), chrome_trace(&seq));
        assert_eq!(state_csv(&merged), state_csv(&seq));
    }

    #[test]
    #[should_panic(expected = "more than one partition")]
    fn merge_rejects_overlapping_rank_lanes() {
        let mut a = SpanLog::new(2);
        record(&mut a, 0, 0.0, 1.0, SpanKind::Compute, None);
        let mut b = SpanLog::new(2);
        record(&mut b, 0, 0.0, 1.0, SpanKind::Compute, None);
        merge_span_logs(vec![a, b]);
    }

    /// A hand-built 3-rank exchange:
    /// rank 0 computes [0,1] then eagerly sends to rank 1 (arrival 1.4);
    /// rank 1 waits for it [0,1.4], computes [1.4,2.4], sends to rank 2
    /// (arrival 2.9); rank 2 waits the whole run [0,2.9].
    fn three_rank_log() -> (SpanLog, Vec<f64>) {
        let mut log = SpanLog::new(3);
        record(&mut log, 0, 0.0, 1.0, SpanKind::Compute, None);
        record(&mut log, 1, 0.0, 1.4, SpanKind::Recv, Some(0));
        record(&mut log, 1, 1.4, 2.4, SpanKind::Compute, None);
        record(&mut log, 2, 0.0, 2.9, SpanKind::Recv, Some(1));
        (log, vec![1.0, 2.4, 2.9])
    }

    #[test]
    fn critical_path_follows_peer_jumps() {
        let (log, times) = three_rank_log();
        let cp = critical_path(&log, &times);
        assert_eq!(cp.end_s, 2.9);
        let shape: Vec<(u32, &str)> = cp.steps.iter().map(|s| (s.rank, s.kind)).collect();
        assert_eq!(
            shape,
            vec![(0, "compute"), (0, "comm"), (1, "compute"), (1, "comm")],
            "{:?}",
            cp.steps
        );
        // Steps tile [0, end_s].
        assert_eq!(cp.steps.first().unwrap().start_s, 0.0);
        assert_eq!(cp.steps.last().unwrap().end_s, cp.end_s);
        for w in cp.steps.windows(2) {
            assert_eq!(w[0].end_s, w[1].start_s);
        }
        let total: f64 = cp.steps.iter().map(|s| s.end_s - s.start_s).sum();
        assert!((total - cp.end_s).abs() < 1e-12);
    }

    #[test]
    fn critical_path_breakdown_accounts_all_time() {
        let (log, times) = three_rank_log();
        let cp = critical_path(&log, &times);
        assert_eq!(cp.breakdown.len(), 3);
        let b1 = &cp.breakdown[1];
        assert!((b1.by_kind[SpanKind::Recv.index()] - 1.4).abs() < 1e-12);
        assert!((b1.by_kind[SpanKind::Compute.index()] - 1.0).abs() < 1e-12);
        assert!(b1.idle_s.abs() < 1e-12);
        for b in &cp.breakdown {
            let tracked: f64 = b.by_kind.iter().sum();
            assert!(tracked + b.idle_s <= b.finish_s + 1e-12);
        }
    }

    #[test]
    fn critical_path_without_spans_is_idle() {
        let log = SpanLog::new(2);
        let cp = critical_path(&log, &[0.0, 3.0]);
        assert_eq!(cp.end_s, 3.0);
        assert_eq!(cp.steps.len(), 1);
        assert_eq!(cp.steps[0].kind, "idle");
        assert_eq!(cp.steps[0].end_s, 3.0);
    }

    #[test]
    fn critical_path_end_is_exact_max_of_rank_times() {
        // Same fold the runners use for the makespan: bit-equality, not
        // approximate equality.
        let (log, times) = three_rank_log();
        let cp = critical_path(&log, &times);
        let makespan = times.iter().copied().fold(0.0, f64::max);
        assert_eq!(cp.end_s.to_bits(), makespan.to_bits());
    }

    #[test]
    fn self_peer_does_not_loop() {
        let mut log = SpanLog::new(1);
        record(&mut log, 0, 0.0, 1.0, SpanKind::Recv, Some(0));
        let cp = critical_path(&log, &[1.0]);
        assert_eq!(cp.steps.len(), 1);
        assert_eq!(cp.steps[0].kind, "recv");
    }

    #[test]
    fn mutual_peer_waits_terminate() {
        // Two ranks whose final waits end at the same instant pointing at
        // each other: the one-jump-per-instant rule breaks the cycle.
        let mut log = SpanLog::new(2);
        record(&mut log, 0, 0.0, 1.0, SpanKind::Recv, Some(1));
        record(&mut log, 1, 0.0, 1.0, SpanKind::Recv, Some(0));
        let cp = critical_path(&log, &[1.0, 1.0]);
        assert!(!cp.steps.is_empty());
        let total: f64 = cp.steps.iter().map(|s| s.end_s - s.start_s).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn span_log_drops_zero_length_and_tracks_flows() {
        let mut log = SpanLog::new(2);
        record(&mut log, 0, 0.5, 0.5, SpanKind::Wait, None);
        assert_eq!(log.total_spans(), 0);
        let boxed: &mut dyn Recorder = &mut log;
        boxed.flow_open(7, 0, 1, 4096, 0.25);
        assert_eq!(log.open_flows(), 1);
        let boxed: &mut dyn Recorder = &mut log;
        boxed.flow_close(7, 0.75);
        assert_eq!(log.open_flows(), 0);
        assert_eq!(log.flows().len(), 1);
        let f = log.flows()[0];
        assert_eq!((f.src, f.dst, f.bytes), (0, 1, 4096));
        assert!((f.end - f.start - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counters_accumulate() {
        let mut log = SpanLog::new(1);
        let r: &mut dyn Recorder = &mut log;
        r.count(Counter::UnexpectedEnqueued, 2);
        r.count(Counter::UnexpectedEnqueued, 1);
        r.count(Counter::LoopbackTransfers, 5);
        assert_eq!(log.counter(Counter::UnexpectedEnqueued), 3);
        assert_eq!(log.counter(Counter::LoopbackTransfers), 5);
        assert_eq!(log.counter(Counter::MailboxEnqueued), 0);
    }

    #[test]
    fn chrome_trace_shape() {
        let (log, _) = three_rank_log();
        let json = chrome_trace(&log);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"compute\""));
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"args\":{\"peer\":0}"));
        // Balanced braces/brackets (cheap structural sanity; full JSON
        // validation happens in CI with a real parser).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_trace_is_deterministic() {
        let (a, _) = three_rank_log();
        let (b, _) = three_rank_log();
        assert_eq!(chrome_trace(&a), chrome_trace(&b));
    }

    #[test]
    fn state_csv_shape() {
        let (mut log, _) = three_rank_log();
        {
            let r: &mut dyn Recorder = &mut log;
            r.flow_open(1, 0, 1, 1000, 1.0);
            r.flow_close(1, 1.4);
        }
        let csv = state_csv(&log);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("rank,start_s,end_s,state,peer,bytes"));
        assert_eq!(csv.lines().count(), 1 + log.total_spans() + 1);
        assert!(csv.contains("1,0,1.4,recv,0,"));
        assert!(csv.contains("0,1,1.4,flow,1,1000"));
    }

    #[test]
    fn metrics_json_carries_fel_and_match_queue_counts() {
        let mut m = Metrics::new("smpi", 4);
        m.fel.scheduled = 7;
        m.fel.compactions = 2;
        m.max_posted_depth = 3;
        let json = m.to_json();
        assert!(json.contains("\"queue_compactions\": 2}"));
        assert!(json.contains("\"fel_profile\": {\"scheduled\": 7,"));
        assert!(json.contains("\"compactions\": 2}"));
        assert!(json
            .contains("\"match_queues\": {\"max_unexpected_depth\": 0, \"max_posted_depth\": 3}"));
        assert!(json.contains("\"recorder\": null"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn manifest_json_embeds_metrics() {
        let man = Manifest {
            tool: "titreplay".into(),
            platform: "griffon \"test\"".into(),
            ranks: 8,
            trace_signature: "ranks=8 actions=100".into(),
            config: vec![("engine".into(), "smpi".into())],
            simulated_time_s: 1.5,
            wall_time_s: 0.01,
            metrics: Metrics::new("smpi", 8),
        };
        let json = man.to_json();
        assert!(json.contains("\\\"test\\\""), "escaping: {json}");
        assert!(json.contains("\"engine\": \"smpi\""));
        assert!(json.contains("\"simulated_time_s\": 1.5"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_f64_is_plain_decimal() {
        assert_eq!(json_f64(0.0), "0");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(1e-7), "0.0000001");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn span_kind_labels_are_distinct() {
        let labels: Vec<&str> = [
            SpanKind::Compute,
            SpanKind::Send,
            SpanKind::Recv,
            SpanKind::Wait,
            SpanKind::Collective,
            SpanKind::Overhead,
        ]
        .iter()
        .map(|k| k.label())
        .collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
