//! Cross-engine observability: the one report of a simulated run, its
//! span recording, metrics snapshot, trace exporters, critical-path
//! analysis and wall-clock profile.
//!
//! The paper validates its replay fixes by *looking at* executions —
//! Gantt charts, per-process distributions — not just end-to-end times.
//! This module gives every back-end the same vocabulary for doing so:
//!
//! * [`SpanLog`], which the runtimes record into at state transitions
//!   (zero-cost when recording is off: worlds hold an `Option<SpanLog>`
//!   and skip the call when `None`), storing per-rank simulated-time
//!   [`Span`]s and per-flow network activity;
//! * exporters: [`chrome_trace`] (Chrome/Perfetto JSON) and
//!   [`state_csv`] (flat state timeline);
//! * [`critical_path`], a backward walk over the recorded spans that
//!   reports the chain of actions determining the makespan plus a
//!   per-rank compute/communication breakdown;
//! * [`RunReport`], the outcome of every run — runtime, emulator and
//!   replay alike: [`Metrics`], the unified counter snapshot (kernel, FEL
//!   profile, protocol, and the network model's [`NetStats`]), per-rank
//!   times, the spans when recorded, and the [`ReplayProfile`] of where
//!   the host spent wall time;
//! * [`Manifest`], the per-run provenance record.
//!
//! Everything here is dependency-free: JSON is emitted by hand through
//! `f64`'s `Display` (shortest round-trip representation), so exports are
//! byte-deterministic whenever the underlying simulation is.

use crate::queue::FelProfile;

// ---------------------------------------------------------------------
// Spans and the span log
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
pub(crate) const SPAN_KINDS: usize = 6;

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

/// Event counters a span log accumulates alongside spans. These cover
/// signals that are otherwise invisible (the run metrics carry only
/// high-water marks of the match queues).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Messages queued as unexpected (send before recv).
    UnexpectedEnqueued,
    /// Receives queued as posted (recv before send).
    PostedEnqueued,
    /// Intra-host transfers served by the loopback path (no flow).
    LoopbackTransfers,
}

/// Number of [`Counter`] variants.
pub(crate) const COUNTERS: usize = 3;

impl Counter {
    /// Dense index.
    pub fn index(self) -> usize {
        match self {
            Counter::UnexpectedEnqueued => 0,
            Counter::PostedEnqueued => 1,
            Counter::LoopbackTransfers => 2,
        }
    }

    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Counter::UnexpectedEnqueued => "unexpected_enqueued",
            Counter::PostedEnqueued => "posted_enqueued",
            Counter::LoopbackTransfers => "loopback_transfers",
        }
    }
}

/// All counter variants in index order (for iteration in exporters).
pub(crate) const COUNTER_LIST: [Counter; COUNTERS] = [
    Counter::UnexpectedEnqueued,
    Counter::PostedEnqueued,
    Counter::LoopbackTransfers,
];

/// What a run records when span recording is on: per-rank span vectors
/// plus flow lifetimes and event counters.
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
    #[cfg(test)]
    pub(crate) fn open_flows(&self) -> usize {
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

    /// Records a closed per-rank interval; zero-length ones are dropped.
    pub fn span(&mut self, rank: u32, start: f64, end: f64, kind: SpanKind, peer: Option<u32>) {
        if end > start {
            self.per_rank[rank as usize].push(Span {
                start,
                end,
                kind,
                peer,
            });
        }
    }

    /// A network flow opened. `key` must be unique among open flows and
    /// match the later [`SpanLog::flow_close`].
    pub fn flow_open(&mut self, key: u64, src: u32, dst: u32, bytes: u64, at: f64) {
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

    /// The flow opened under `key` drained.
    pub fn flow_close(&mut self, key: u64, at: f64) {
        if let Some(pos) = self.open.iter().position(|(k, _)| *k == key) {
            let (_, index) = self.open.swap_remove(pos);
            self.flows[index as usize].end = at;
        }
    }

    /// Bumps an event counter.
    pub fn count(&mut self, counter: Counter, delta: u64) {
        self.counts[counter.index()] += delta;
    }

    /// Places the log of an island replayed on its own, recorded with
    /// island-local rank ids, into this log of the whole trace: local
    /// rank `i` — as a lane, a span's peer or a flow endpoint — becomes
    /// `ranks[i]`, and counters add. The exporters order flows
    /// canonically, so the placed log exports byte-identically to a
    /// sequential run's.
    ///
    /// # Panics
    /// If a rank's lane was already recorded by another island.
    pub fn place(&mut self, island: SpanLog, ranks: &[u32]) {
        let global = |local: u32| ranks[local as usize];
        for (local, mut spans) in island.per_rank.into_iter().enumerate() {
            if spans.is_empty() {
                continue;
            }
            let lane = &mut self.per_rank[ranks[local] as usize];
            assert!(lane.is_empty(), "rank recorded by more than one partition");
            for s in &mut spans {
                s.peer = s.peer.map(global);
            }
            *lane = spans;
        }
        let base = self.flows.len() as u32;
        self.flows
            .extend(island.flows.into_iter().map(|f| FlowSpan {
                src: global(f.src),
                dst: global(f.dst),
                ..f
            }));
        let open = island.open.into_iter().map(|(key, i)| (key, base + i));
        self.open.extend(open);
        for (c, d) in self.counts.iter_mut().zip(island.counts) {
            *c += d;
        }
    }
}

/// The outcome of one simulated run, and the only one: what the runtime
/// returns, what the emulator and a replay return, and what the
/// manifest, `--metrics`, the critical path and the profile render from.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Unified counter snapshot; `simulated_time_s` is the makespan.
    pub metrics: Metrics,
    /// Per-rank finish times, seconds.
    pub rank_times: Vec<f64>,
    /// Per-rank seconds spent computing (planned durations; calibration
    /// input).
    pub compute_seconds: Vec<f64>,
    /// Recorded spans (present iff span recording was on).
    pub spans: Option<SpanLog>,
    /// Where the host spent wall-clock time. Purely diagnostic: it never
    /// enters the metrics or the manifest, and no simulated output
    /// depends on it.
    pub profile: ReplayProfile,
}

impl RunReport {
    /// Assembles a report, filling the metrics fields that follow from
    /// the rest: the makespan, folded over `rank_times` in rank order
    /// (so every way of running a trace reports the same bits), and the
    /// span log's counters.
    pub fn new(
        mut metrics: Metrics,
        rank_times: Vec<f64>,
        compute_seconds: Vec<f64>,
        spans: Option<SpanLog>,
        profile: ReplayProfile,
    ) -> RunReport {
        metrics.simulated_time_s = rank_times.iter().copied().fold(0.0, f64::max);
        metrics.recorder_counts = spans.as_ref().map(SpanLog::counts);
        RunReport {
            metrics,
            rank_times,
            compute_seconds,
            spans,
            profile,
        }
    }

    /// Application makespan: the latest rank finish time, seconds.
    pub fn time(&self) -> f64 {
        self.metrics.simulated_time_s
    }

    /// The makespan-determining chain through the recorded spans.
    /// `None` when spans were not recorded.
    pub fn critical_path(&self) -> Option<CriticalPath> {
        self.spans
            .as_ref()
            .map(|log| critical_path(log, &self.rank_times))
    }
}

/// Always-on counters of the network model's sharing work, kept by
/// `netmodel::FlowNet` and carried whole in [`Metrics::net`]. Plain
/// integer increments on the open/close/re-solve paths — they cannot
/// perturb simulated times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Flows opened.
    pub flows_opened: u64,
    /// Flows closed.
    pub flows_closed: u64,
    /// Sharing re-solves: bottleneck neighbor recomputations or max-min
    /// component solves.
    pub resolves: u64,
    /// Rate changes pushed to the kernel (a flow's first rate included).
    pub rate_updates: u64,
    /// Flows whose rate a re-solve recomputed — the cost driver of the
    /// sharing layer; `rate_updates` of them came out different.
    pub examined: u64,
    /// High-water mark of concurrently live flows.
    pub live_flow_hwm: u64,
    /// Deferred (collective) batches flushed.
    pub flush_batches: u64,
}

// ---------------------------------------------------------------------
// Unified metrics snapshot
// ---------------------------------------------------------------------

/// One run's counters, unified across engines: kernel event-core
/// figures, the FEL profile, protocol counters, and network-sharing
/// work. Filled by the engines' runners; exported with
/// [`Metrics::to_json`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Back-end name (`"smpi"` or `"msg"`), the runtime model's own.
    pub engine: &'static str,
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
    /// Collective participations (one per rank per collective).
    pub collectives: u64,
    /// The network model's sharing counters.
    pub net: NetStats,
    /// High-water unexpected-queue depth.
    pub max_unexpected_depth: u64,
    /// High-water posted-queue depth.
    pub max_posted_depth: u64,
    /// Span-log event counters, present when spans were recorded.
    pub recorder_counts: Option<[u64; COUNTERS]>,
}

impl Metrics {
    /// Empty snapshot for `engine`/`ranks`.
    pub fn new(engine: &'static str, ranks: u32) -> Metrics {
        Metrics {
            engine,
            ranks,
            ..Metrics::default()
        }
    }

    /// Folds in the counters of a run over other ranks of the same
    /// replay (an island): counts add, high-water marks take the larger —
    /// each island runs its own network model and match queues. The
    /// engine is the island's; `ranks`, `simulated_time_s` and
    /// `recorder_counts` are left to the caller.
    pub fn merge(&mut self, other: &Metrics) {
        self.engine = other.engine;
        let (fel, net) = (&other.fel, &other.net);
        for (sum, add) in [
            (&mut self.events_processed, other.events_processed),
            (&mut self.fel.scheduled, fel.scheduled),
            (&mut self.fel.superseded, fel.superseded),
            (&mut self.fel.popped, fel.popped),
            (&mut self.fel.stale_popped, fel.stale_popped),
            (&mut self.fel.compactions, fel.compactions),
            (&mut self.messages, other.messages),
            (&mut self.eager_messages, other.eager_messages),
            (&mut self.rendezvous_messages, other.rendezvous_messages),
            (&mut self.bytes, other.bytes),
            (&mut self.collectives, other.collectives),
            (&mut self.net.flows_opened, net.flows_opened),
            (&mut self.net.flows_closed, net.flows_closed),
            (&mut self.net.resolves, net.resolves),
            (&mut self.net.rate_updates, net.rate_updates),
            (&mut self.net.examined, net.examined),
            (&mut self.net.flush_batches, net.flush_batches),
        ] {
            *sum += add;
        }
        for (mark, seen) in [
            (&mut self.net.live_flow_hwm, net.live_flow_hwm),
            (&mut self.max_unexpected_depth, other.max_unexpected_depth),
            (&mut self.max_posted_depth, other.max_posted_depth),
        ] {
            *mark = (*mark).max(seen);
        }
    }

    /// Serialises the snapshot as deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"engine\": {},\n", json_string(self.engine)));
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
             \"popped\": {}, \"stale_popped\": {}, \"fired\": {}, \"compactions\": {}}},\n",
            self.fel.scheduled,
            self.fel.superseded,
            self.fel.popped,
            self.fel.stale_popped,
            self.fel.fired(),
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
        let net = &self.net;
        out.push_str(&format!(
            "  \"network\": {{\"flows_created\": {}, \"flows_resolved\": {}, \
             \"sharing_resolves\": {}, \"sharing_rate_updates\": {}, \
             \"sharing_examined\": {}}},\n",
            net.flows_opened, net.flows_closed, net.resolves, net.rate_updates, net.examined
        ));
        // Every flow is its own entity; the key stays for titbench's reader.
        out.push_str(&format!(
            "  \"aggregation\": {{\"sharing_flushes\": {}, \"live_flow_hwm\": {}, \
             \"live_entity_hwm\": {}}},\n",
            net.flush_batches, net.live_flow_hwm, net.live_flow_hwm
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
    /// Input trace identity (path/size or shape).
    pub trace_signature: String,
    /// Flat key/value rendering of the replay configuration.
    pub config: Vec<(String, String)>,
    /// Wall-clock seconds the replay took.
    pub wall_time_s: f64,
    /// Full counter snapshot; the ranks and the simulated time are its.
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
        out.push_str(&format!("  \"ranks\": {},\n", self.metrics.ranks));
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
            json_f64(self.metrics.simulated_time_s)
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
// Wall-clock profile
// ---------------------------------------------------------------------
//
// Where the rest of this module answers "what did the *simulated*
// machine do", the profile answers "where did the *host* spend wall time
// while computing that answer": per-worker work time and the
// load-imbalance ratio across workers. None of it feeds back into
// simulated times, metrics, manifests, or exports.

/// Wall-time breakdown of one replay worker thread.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerProfile {
    /// Worker index (stable across runs; workers are spawned in
    /// assignment order).
    pub worker: usize,
    /// Islands this worker executed. The sequential path reports one
    /// pseudo-island.
    pub islands: usize,
    /// Global ranks this worker simulated.
    pub ranks: usize,
    /// Seconds spent doing simulation work: preparing engines and
    /// running them to their results.
    pub work_s: f64,
    /// Wall-clock seconds from worker start to worker exit.
    pub wall_s: f64,
}

/// Wall-clock profile of one run ([`RunReport::profile`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayProfile {
    /// Which execution path ran: `"sequential"` or `"islands"`.
    pub mode: &'static str,
    /// Wall-clock seconds of the whole run; for a replay, of the whole
    /// replay section (scan, partition, worker execution, merge).
    pub wall_s: f64,
    /// Per-worker breakdowns, in worker-index order.
    pub workers: Vec<WorkerProfile>,
    /// Seconds the replay waited for the thread decoding its text ahead
    /// of it (0 when no such thread ran: `.titb` and in-memory inputs,
    /// the island engine).
    pub decode_wait_s: f64,
    /// Times that thread parked with every rank's next batch decoded.
    pub decode_parks: u64,
}

impl ReplayProfile {
    /// A single-worker profile for the sequential path, where all wall
    /// time is work time.
    pub fn sequential(wall_s: f64, ranks: usize) -> Self {
        ReplayProfile {
            mode: "sequential",
            wall_s,
            workers: vec![WorkerProfile {
                worker: 0,
                islands: 1,
                ranks,
                work_s: wall_s,
                wall_s,
            }],
            decode_wait_s: 0.0,
            decode_parks: 0,
        }
    }

    /// Load-imbalance ratio: max worker work time over mean worker work
    /// time (1.0 = perfectly balanced; 1.0 for empty/idle runs).
    pub fn imbalance(&self) -> f64 {
        let n = self.workers.len();
        if n == 0 {
            return 1.0;
        }
        let total: f64 = self.workers.iter().map(|w| w.work_s).sum();
        let mean = total / n as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        let max = self.workers.iter().map(|w| w.work_s).fold(0.0, f64::max);
        max / mean
    }

    /// Deterministic-shape JSON rendering (field set and order are
    /// fixed; the wall-clock *values* are inherently run-dependent).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.workers.len() * 160);
        out.push_str("{\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        out.push_str(&format!("  \"wall_s\": {},\n", json_f64(self.wall_s)));
        out.push_str(&format!(
            "  \"imbalance\": {},\n",
            json_f64(self.imbalance())
        ));
        out.push_str(&format!(
            "  \"decode_wait_s\": {},\n",
            json_f64(self.decode_wait_s)
        ));
        out.push_str(&format!("  \"decode_parks\": {},\n", self.decode_parks));
        out.push_str("  \"workers\": [\n");
        for (i, w) in self.workers.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"worker\": {}, \"islands\": {}, \"ranks\": {}, \"work_s\": {}, \"wall_s\": {}}}{}\n",
                w.worker,
                w.islands,
                w.ranks,
                json_f64(w.work_s),
                json_f64(w.wall_s),
                if i + 1 < self.workers.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human-readable table for `titreplay inspect --profile`.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(256 + self.workers.len() * 96);
        out.push_str(&format!(
            "replay profile: mode={} wall={:.3}ms imbalance={:.2} decode_wait={:.3}ms decode_parks={}\n",
            self.mode,
            self.wall_s * 1e3,
            self.imbalance(),
            self.decode_wait_s * 1e3,
            self.decode_parks
        ));
        out.push_str("  worker  islands  ranks     work_ms     wall_ms\n");
        for w in &self.workers {
            out.push_str(&format!(
                "  {:>6}  {:>7}  {:>5}  {:>10.3}  {:>10.3}\n",
                w.worker,
                w.islands,
                w.ranks,
                w.work_s * 1e3,
                w.wall_s * 1e3,
            ));
        }
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
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders a JSON string literal with minimal escaping.
pub fn json_string(s: &str) -> String {
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

    /// Recording the same run whole vs as two islands, each with local
    /// rank ids and its own flow keys, then placed into global lanes,
    /// exports byte-identically, even though the islands log their flows
    /// in a different global interleaving than the sequential log.
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
        seq.span(1, 0.0, 2.0, SpanKind::Recv, Some(0));
        seq.span(3, 0.5, 2.5, SpanKind::Recv, Some(2));
        seq.span(0, 0.0, 1.0, SpanKind::Compute, None);
        seq.count(Counter::UnexpectedEnqueued, 2);

        // Island A holds global ranks {0, 1}, island B holds {2, 3}.
        let mut a = SpanLog::new(2);
        a.flow_open(1, 0, 1, 100, 0.0);
        a.flow_open(2, 0, 1, 50, 1.0);
        a.flow_close(1, 2.0);
        a.flow_close(2, 3.0);
        a.span(1, 0.0, 2.0, SpanKind::Recv, Some(0));
        a.span(0, 0.0, 1.0, SpanKind::Compute, None);
        a.count(Counter::UnexpectedEnqueued, 2);
        let mut b = SpanLog::new(2);
        b.flow_open(1, 0, 1, 200, 0.5);
        b.flow_close(1, 2.5);
        b.span(1, 0.5, 2.5, SpanKind::Recv, Some(0));

        let mut merged = SpanLog::new(4);
        merged.place(b, &[2, 3]);
        merged.place(a, &[0, 1]);
        assert_eq!(merged.open_flows(), 0);
        assert_eq!(merged.counter(Counter::UnexpectedEnqueued), 2);
        assert_eq!(
            merged.rank(3),
            seq.rank(3),
            "peer not mapped to its global rank"
        );
        assert_eq!(chrome_trace(&merged), chrome_trace(&seq));
        assert_eq!(state_csv(&merged), state_csv(&seq));
    }

    #[test]
    #[should_panic(expected = "more than one partition")]
    fn merge_rejects_overlapping_rank_lanes() {
        let mut a = SpanLog::new(1);
        a.span(0, 0.0, 1.0, SpanKind::Compute, None);
        let mut b = SpanLog::new(2);
        b.span(1, 0.0, 1.0, SpanKind::Compute, None);
        let mut merged = SpanLog::new(2);
        merged.place(a, &[1]);
        merged.place(b, &[0, 1]);
    }

    /// A hand-built 3-rank exchange:
    /// rank 0 computes [0,1] then eagerly sends to rank 1 (arrival 1.4);
    /// rank 1 waits for it [0,1.4], computes [1.4,2.4], sends to rank 2
    /// (arrival 2.9); rank 2 waits the whole run [0,2.9].
    fn three_rank_log() -> (SpanLog, Vec<f64>) {
        let mut log = SpanLog::new(3);
        log.span(0, 0.0, 1.0, SpanKind::Compute, None);
        log.span(1, 0.0, 1.4, SpanKind::Recv, Some(0));
        log.span(1, 1.4, 2.4, SpanKind::Compute, None);
        log.span(2, 0.0, 2.9, SpanKind::Recv, Some(1));
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
        log.span(0, 0.0, 1.0, SpanKind::Recv, Some(0));
        let cp = critical_path(&log, &[1.0]);
        assert_eq!(cp.steps.len(), 1);
        assert_eq!(cp.steps[0].kind, "recv");
    }

    #[test]
    fn mutual_peer_waits_terminate() {
        // Two ranks whose final waits end at the same instant pointing at
        // each other: the one-jump-per-instant rule breaks the cycle.
        let mut log = SpanLog::new(2);
        log.span(0, 0.0, 1.0, SpanKind::Recv, Some(1));
        log.span(1, 0.0, 1.0, SpanKind::Recv, Some(0));
        let cp = critical_path(&log, &[1.0, 1.0]);
        assert!(!cp.steps.is_empty());
        let total: f64 = cp.steps.iter().map(|s| s.end_s - s.start_s).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn span_log_drops_zero_length_and_tracks_flows() {
        let mut log = SpanLog::new(2);
        log.span(0, 0.5, 0.5, SpanKind::Wait, None);
        assert_eq!(log.total_spans(), 0);
        log.flow_open(7, 0, 1, 4096, 0.25);
        assert_eq!(log.open_flows(), 1);
        log.flow_close(7, 0.75);
        assert_eq!(log.open_flows(), 0);
        assert_eq!(log.flows().len(), 1);
        let f = log.flows()[0];
        assert_eq!((f.src, f.dst, f.bytes), (0, 1, 4096));
        assert!((f.end - f.start - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counters_accumulate() {
        let mut log = SpanLog::new(1);
        log.count(Counter::UnexpectedEnqueued, 2);
        log.count(Counter::UnexpectedEnqueued, 1);
        log.count(Counter::LoopbackTransfers, 5);
        assert_eq!(log.counter(Counter::UnexpectedEnqueued), 3);
        assert_eq!(log.counter(Counter::LoopbackTransfers), 5);
        assert_eq!(log.counter(Counter::PostedEnqueued), 0);
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
        log.flow_open(1, 0, 1, 1000, 1.0);
        log.flow_close(1, 1.4);
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
        m.fel.popped = 5;
        m.fel.stale_popped = 1;
        m.fel.compactions = 2;
        m.max_posted_depth = 3;
        let json = m.to_json();
        assert!(json.contains("\"queue_compactions\": 2}"));
        assert!(json.contains(
            "\"fel_profile\": {\"scheduled\": 7, \"superseded\": 0, \"popped\": 5, \
             \"stale_popped\": 1, \"fired\": 4, \"compactions\": 2},\n"
        ));
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
            trace_signature: "ranks=8 actions=100".into(),
            config: vec![("engine".into(), "smpi".into())],
            wall_time_s: 0.01,
            metrics: Metrics {
                simulated_time_s: 1.5,
                ..Metrics::new("smpi", 8)
            },
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

    fn worker(i: usize, work: f64) -> WorkerProfile {
        WorkerProfile {
            worker: i,
            islands: 1,
            ranks: 4,
            work_s: work,
            wall_s: work + 0.001,
        }
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        let p = ReplayProfile {
            mode: "islands",
            wall_s: 0.4,
            workers: vec![worker(0, 0.3), worker(1, 0.1)],
            decode_wait_s: 0.0,
            decode_parks: 0,
        };
        assert!((p.imbalance() - 1.5).abs() < 1e-12);
        assert_eq!(ReplayProfile::sequential(0.0, 2).imbalance(), 1.0);
    }

    #[test]
    fn json_shape_is_fixed() {
        let p = ReplayProfile {
            mode: "islands",
            wall_s: 0.25,
            workers: vec![worker(0, 0.2), worker(1, 0.21)],
            decode_wait_s: 0.0,
            decode_parks: 0,
        };
        let j = p.to_json();
        assert!(j.contains("\"mode\": \"islands\""));
        assert!(j.contains("\"wall_s\": 0.25"));
        assert!(j.contains("\"worker\": 0"));
        assert!(j.contains("\"worker\": 1"));
        assert!(j.contains("\"imbalance\":"));
        assert!(j.contains("\"decode_wait_s\": 0,"));
        assert!(j.contains("\"decode_parks\": 0,"));
        assert!(j.ends_with("]\n}\n"));
    }

    #[test]
    fn text_table_lists_every_worker() {
        let p = ReplayProfile {
            mode: "islands",
            wall_s: 0.4,
            workers: vec![worker(0, 0.3), worker(1, 0.1)],
            decode_wait_s: 0.0,
            decode_parks: 0,
        };
        let t = p.render_text();
        assert!(t.contains("mode=islands"));
        assert!(t.contains("work_ms"));
        assert_eq!(t.lines().count(), 4);
    }
}
