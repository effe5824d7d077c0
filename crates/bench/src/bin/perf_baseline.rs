//! Machine-readable performance baseline: times the replay back-ends,
//! the incremental-vs-full max-min sharing recomputation, and a small
//! experiment sweep, then writes `BENCH_replay.json` for CI and the
//! README's performance table.
//!
//! The "before" column is the full-recompute reference policy
//! ([`SharingPolicy::MaxMinFull`]) — the exact same solver invoked from
//! scratch on every flow open/close — so the speedup isolates the
//! incremental recomputation, not a model change: both columns produce
//! bit-identical simulated times.
//!
//! ```text
//! cargo run --release -p bench --bin perf_baseline -- [--out BENCH_replay.json]
//! ```

use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use bench::{accuracy_figure, perfwork, sweep, Options};
use tit_replay::acquisition::{acquire, CompilerOpt, Instrumentation};
use tit_replay::emulator::Testbed;
use tit_replay::netmodel::{FlowNet, SharingPolicy};
use tit_replay::platform::{HostId, Platform};
use tit_replay::prelude::*;
use tit_replay::simkernel::queue::{EventKind, EventQueue};
use tit_replay::simkernel::{FelImpl, FelProfile, Kernel, Time};

/// Counting wrapper around the system allocator. The steady-state rows
/// of the `fel` section report the number of heap allocations observed
/// across the second half of the churn workload — the zero-allocation
/// claim of the event core, measured rather than asserted.
mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub struct CountingAlloc;

    // SAFETY: pure delegation to `System`, plus a relaxed counter bump.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// Heap allocations observed so far (monotone, process-wide).
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// Top-level document written to `BENCH_replay.json`.
#[derive(Debug, Serialize)]
struct Baseline {
    /// Tool that produced the file.
    generated_by: String,
    /// Worker threads available to the sweep layer on the measuring host.
    host_parallelism: f64,
    /// Simulated events per second, per replay back-end.
    backends: Vec<BackendSpeed>,
    /// Incremental vs full-recompute max-min sharing, end to end.
    sharing: Vec<SharingSpeedup>,
    /// Conservative parallel replay: wall-clock speedup over thread
    /// counts, with bit-identical results asserted at every count.
    parallel: Vec<ParallelSpeedup>,
    /// Windowed PDES inside one coupled component: sub-shard counts,
    /// window-barrier rounds, mailbox traffic, and wall time per thread
    /// count, with bit-identical results asserted at every count.
    pdes: Vec<PdesRow>,
    /// Netmodel-level churn with per-cabinet sharing components.
    component_churn: Vec<ChurnSpeedup>,
    /// Trace ingestion throughput per path (text cold, `.titb` binary)
    /// on a P=64 LU trace.
    ingest: Vec<IngestSpeed>,
    /// Wall time per experiment cell of a small accuracy sweep.
    sweep_cells: Vec<SweepCell>,
    /// Heap-vs-ladder future event list: churn microbenchmark with
    /// hot-path counters plus end-to-end replay wall times.
    fel: FelSection,
    /// Recorder overhead: replay with the span recorder disabled vs
    /// enabled (the disabled column is the plain entry point).
    obs: Vec<ObsOverhead>,
    /// Wall-clock profiling overhead: the profiled entry point with
    /// profiling off vs on (the off column is the production path),
    /// with bit-identical results asserted per row.
    telemetry: Vec<TelemetryOverhead>,
    /// Replay-as-a-service throughput: an embedded `titserved` on
    /// loopback answering what-if queries cold, memoized, and under a
    /// concurrent identical burst (deduplicated to one execution).
    serve: ServeSection,
}

/// Events-per-second measurement of one back-end.
#[derive(Debug, Serialize)]
struct BackendSpeed {
    /// "Smpi" or "Msg".
    backend: String,
    /// Workload label.
    workload: String,
    /// Future-event-list implementation ("Heap" = before, "Ladder" =
    /// after; results are bit-identical, only wall time differs).
    fel: String,
    /// Kernel events simulated per replay.
    events: f64,
    /// Best-of-N wall time for one replay, seconds.
    wall_s: f64,
    /// `events / wall_s`.
    events_per_s: f64,
}

/// The heap-vs-ladder comparison rows.
#[derive(Debug, Serialize)]
struct FelSection {
    /// High-churn FEL microbenchmark (hold model plus supersede churn),
    /// one row per implementation.
    churn: Vec<FelChurn>,
    /// `heap ops/s` over `ladder ops/s` on the churn workload.
    churn_speedup: f64,
    /// End-to-end replay wall time per implementation on the
    /// halo-exchange churn workload.
    replay: Vec<FelReplay>,
}

/// One FEL implementation under the churn microbenchmark.
#[derive(Debug, Serialize)]
struct FelChurn {
    /// "Heap" or "Ladder".
    fel: String,
    /// Live events held in the queue throughout.
    live_events: f64,
    /// Hold operations performed (pop + re-push).
    hold_ops: f64,
    /// Best-of-N wall time, seconds.
    wall_s: f64,
    /// Queue operations (events scheduled + popped).
    fel_ops: f64,
    /// `fel_ops / wall_s`.
    fel_ops_per_s: f64,
    /// Hot-path counters (requires the `profile` feature, which this
    /// binary builds with).
    scheduled: f64,
    superseded: f64,
    fired: f64,
    stale_popped: f64,
    spills: f64,
    bucket_sorts: f64,
    reseeds: f64,
    compactions: f64,
    /// Heap allocations observed during the second half of the workload
    /// (the steady state) via the counting allocator. 0 = the hot path
    /// is allocation-free.
    steady_allocs: f64,
}

/// End-to-end replay wall time under one FEL implementation.
#[derive(Debug, Serialize)]
struct FelReplay {
    /// Workload label.
    workload: String,
    /// "Heap" or "Ladder".
    fel: String,
    /// Kernel events simulated.
    events: f64,
    /// Best-of-N wall time, seconds.
    wall_s: f64,
    /// `events / wall_s`.
    events_per_s: f64,
}

/// Replay wall time with the span recorder off vs on. The disabled
/// column *is* the plain replay path (every public entry point wraps
/// the observed runner with recording off), so the delta is the full
/// cost of structured tracing.
#[derive(Debug, Serialize)]
struct ObsOverhead {
    /// Workload label.
    workload: String,
    /// Best-of-N wall time with no recorder installed, seconds.
    disabled_wall_s: f64,
    /// Best-of-N wall time with the span recorder installed, seconds.
    enabled_wall_s: f64,
    /// `(enabled - disabled) / disabled * 100`.
    overhead_percent: f64,
    /// Spans recorded by the enabled run.
    spans: f64,
    /// Network flows recorded by the enabled run.
    flows: f64,
    /// Simulated makespan — bit-identical with and without the
    /// recorder, asserted when this row is measured.
    simulated_s: f64,
}

/// Replay wall time with per-worker wall-clock profiling off vs on,
/// through the same entry point (`replay_input_profiled`; the off
/// column *is* the production path — `replay_input_observed` forwards
/// here with profiling off), so the delta is the full cost of the
/// worker stopwatches.
#[derive(Debug, Serialize)]
struct TelemetryOverhead {
    /// Workload label.
    workload: String,
    /// Worker threads configured.
    threads: f64,
    /// Best-of-N wall time with profiling off, seconds.
    off_wall_s: f64,
    /// Best-of-N wall time with profiling on, seconds.
    on_wall_s: f64,
    /// `(on - off) / off * 100`.
    overhead_percent: f64,
    /// Worker rows in the profile of the enabled run.
    workers: f64,
    /// Max/mean work-time ratio across those workers.
    imbalance: f64,
    /// Simulated makespan — bit-identical with profiling on or off,
    /// asserted when this row is measured.
    simulated_s: f64,
}

/// End-to-end replay under the two exact-sharing policies.
#[derive(Debug, Serialize)]
struct SharingSpeedup {
    /// Workload label.
    workload: String,
    /// Full-recompute reference, seconds (the "before").
    before_full_s: f64,
    /// Incremental recomputation, seconds (the "after").
    after_incremental_s: f64,
    /// `before / after`.
    speedup: f64,
    /// Simulated makespan — identical under both policies by design.
    simulated_s: f64,
}

/// Parallel replay at one thread count.
#[derive(Debug, Serialize)]
struct ParallelSpeedup {
    /// Workload label.
    workload: String,
    /// Worker threads configured.
    threads: f64,
    /// Worker threads the engine actually ran: `min(threads, islands)`,
    /// degenerating to 1 (the sequential path) when either is 1. The
    /// speedup column should be judged against this, not `threads`.
    effective_threads: f64,
    /// Coupling islands the trace decomposes into (1 = the parallel
    /// path degenerates to the sequential replay).
    islands: f64,
    /// Best-of-N wall time, seconds.
    wall_s: f64,
    /// Wall time at threads=1 over this row's wall time.
    speedup: f64,
    /// Simulated makespan — bit-identical across thread counts by
    /// construction (asserted before the row is emitted).
    simulated_s: f64,
}

/// Windowed-PDES replay of one workload at one thread count. When the
/// sub-shard certificate holds (single coupled component, eager-only
/// cross traffic, exclusive link ownership) the engine shards the
/// component and the mailbox columns are live; when it does not (LU's
/// collectives, the allreduce backbone) the engine falls back and the
/// row records `shards: 1` with zero windows — the identity assertions
/// hold either way.
#[derive(Debug, Serialize)]
struct PdesRow {
    /// Workload label.
    workload: String,
    /// Worker threads configured.
    threads: f64,
    /// Sub-shards the windowed engine actually ran (1 = it fell back to
    /// the sequential or island path).
    shards: f64,
    /// Window-barrier rounds executed.
    windows: f64,
    /// Cross-shard eager envelopes forwarded through mailboxes.
    mailbox_envelopes: f64,
    /// Cross-shard payload arrivals forwarded through mailboxes.
    mailbox_arrivals: f64,
    /// Conservative lookahead of the certified plan, seconds (0 when
    /// the engine fell back).
    lookahead_s: f64,
    /// Effective window width, seconds (0 when the engine fell back).
    window_s: f64,
    /// Best-of-N wall time, seconds.
    wall_s: f64,
    /// Wall time at threads=1 over this row's wall time.
    speedup: f64,
    /// Simulated makespan — bit-identical across thread counts by
    /// construction (asserted before the row is emitted).
    simulated_s: f64,
}

/// Netmodel flow churn at a given live-flow count.
#[derive(Debug, Serialize)]
struct ChurnSpeedup {
    /// Live flows held open while churning.
    live_flows: f64,
    /// Open/close operations performed.
    operations: f64,
    /// Full-recompute wall time, seconds.
    before_full_s: f64,
    /// Incremental wall time, seconds.
    after_incremental_s: f64,
    /// `before / after`.
    speedup: f64,
}

/// Throughput of one ingestion path over the same trace.
#[derive(Debug, Serialize)]
struct IngestSpeed {
    /// Ingestion path: "text-cold" or "titb".
    path: String,
    /// Workload label.
    workload: String,
    /// On-disk bytes read by this path.
    bytes: f64,
    /// Actions decoded (identical across paths).
    actions: f64,
    /// Best-of-N wall time for one full load, seconds.
    wall_s: f64,
    /// `bytes / wall_s / 1e6`.
    mb_per_s: f64,
    /// `actions / wall_s` — the cross-format comparable rate.
    actions_per_s: f64,
    /// Process peak RSS (VmHWM) when this row was measured, MiB.
    /// Monotone over the process lifetime; 0 outside Linux.
    peak_rss_mb: f64,
}

/// Service-level query throughput against an embedded `titserved`.
///
/// Every number includes the full loopback HTTP round trip (connect,
/// request parse, response). The cold row is a single observation by
/// construction: repeating the query would hit the memo table, which is
/// exactly what the memoized row then measures.
#[derive(Debug, Serialize)]
struct ServeSection {
    /// Workload label.
    workload: String,
    /// Worker threads in the service replay pool.
    workers: f64,
    /// Wall time of the first query at a fresh key — parse, trace
    /// load, replay, manifest — seconds.
    cold_wall_s: f64,
    /// `1 / cold_wall_s`.
    cold_qps: f64,
    /// Repeats of the same query answered from the memo table.
    memo_queries: f64,
    /// Wall time for all memoized repeats, seconds.
    memo_wall_s: f64,
    /// `memo_queries / memo_wall_s`.
    memo_qps: f64,
    /// `memo_qps / cold_qps` — the win from never replaying twice.
    memo_speedup: f64,
    /// Concurrent identical queries fired at a key the service has
    /// never seen.
    dedup_clients: f64,
    /// Replays actually executed for that burst (asserted == 1).
    dedup_executions: f64,
    /// `dedup_clients / dedup_executions` — answers per replay.
    dedup_amplification: f64,
}

/// One cell of the experiment sweep.
#[derive(Debug, Serialize)]
struct SweepCell {
    /// Instance label ("B-8").
    instance: String,
    /// Wall time to predict this cell, seconds.
    wall_s: f64,
}

/// Best-of-`reps` wall time of `f`, in seconds.
fn time_best<T>(reps: u32, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn replay_cfg(engine: ReplayEngine, sharing: SharingPolicy) -> ReplayConfig {
    ReplayConfig {
        engine,
        sharing,
        // Pinned sequential; the `parallel` section opts in explicitly.
        threads: 1,
        ..ReplayConfig::improved(2e9)
    }
}

fn backend_speeds(platform: &Platform, trace: &Arc<Trace>, workload: &str) -> Vec<BackendSpeed> {
    let mut rows = Vec::new();
    for engine in [ReplayEngine::Smpi, ReplayEngine::Msg] {
        for fel in [FelImpl::Heap, FelImpl::Ladder] {
            let mut cfg = replay_cfg(engine, SharingPolicy::Bottleneck);
            cfg.fel = fel;
            let events = replay(platform, trace, &cfg).unwrap().events as f64;
            let wall_s = time_best(5, || replay(platform, trace, &cfg).unwrap());
            rows.push(BackendSpeed {
                backend: format!("{engine:?}"),
                workload: workload.into(),
                fel: format!("{fel:?}"),
                events,
                wall_s,
                events_per_s: events / wall_s,
            });
        }
    }
    rows
}

// ----------------------------------------------------------------------
// FEL churn microbenchmark (hold model + supersede churn)
// ----------------------------------------------------------------------

/// Live events held in the queue throughout the churn workload. Sized
/// like a large replay (P=8192 ranks × 8 in-flight activities): at this
/// depth the heap pays ~16 comparisons per pop while the ladder stays
/// O(1) amortized.
const HOLD_LIVE: u64 = 1 << 16;
/// Hold operations (pop + re-push) per run.
const HOLD_OPS: u64 = 1 << 20;
/// Every `DOOM_EVERY`-th hold op also pushes a doomed event that is
/// immediately superseded, driving the lazy-cancellation and compaction
/// machinery the replay runtimes exercise on every rate change.
const DOOM_EVERY: u64 = 4;

/// Deterministic xorshift64* stream (no external RNG dependency; the
/// workload must be identical across implementations and runs).
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Builds a queue holding `live` events at pseudo-random times.
fn hold_queue(fel: FelImpl, live: u64, rng: &mut u64) -> EventQueue {
    let mut q = EventQueue::with_capacity_fel(2 * live as usize, fel);
    for i in 0..live {
        let t = (next_rand(rng) % 1_000_000) as f64 * 1e-6;
        q.push(Time::from_secs(t), EventKind::Timer { actor: 0, key: i });
    }
    q
}

/// Runs hold operations `ops` on `q`: pop the minimum, push a successor a
/// pseudo-random increment later — the classic FEL "hold" access pattern
/// under which calendar/ladder queues beat binary heaps — with a doomed
/// (superseded) event mixed in every [`DOOM_EVERY`] ops. Doomed events
/// use `actor: 1` so pops can recognise and skip them, and compaction
/// can drop them, exactly as the kernel does for rescheduled activities.
fn hold_ops(q: &mut EventQueue, ops: std::ops::Range<u64>, rng: &mut u64) {
    for i in ops {
        let now;
        loop {
            let (t, kind) = q.pop().expect("hold queue never drains");
            if matches!(kind, EventKind::Timer { actor: 1, .. }) {
                q.note_stale_popped();
                continue;
            }
            // Increment on the scale of the event window, so successors
            // redistribute across the whole horizon (the standard hold
            // model) instead of piling up just ahead of `now`.
            let delta = 1e-6 * (1 + next_rand(rng) % 1_000_000) as f64;
            q.push(Time::from_secs(t.as_secs() + delta), kind);
            now = t.as_secs();
            break;
        }
        if i % DOOM_EVERY == 0 {
            // Superseded entries linger in the far future — exactly where
            // a rescheduled activity leaves its stale completion event —
            // until lazy compaction drops them.
            let delta = 1e-6 * (1_000_000 + next_rand(rng) % 1_000_000) as f64;
            q.push(
                Time::from_secs(now + delta),
                EventKind::Timer { actor: 1, key: i },
            );
            q.note_superseded();
        }
        if q.should_compact() {
            q.compact(|kind| !matches!(kind, EventKind::Timer { actor: 1, .. }));
        }
    }
}

/// Checks the profile-counter invariants the smoke gate relies on.
fn assert_counters_sane(fel: FelImpl, p: &FelProfile) {
    assert_eq!(
        p.popped,
        p.fired() + p.stale_popped,
        "{fel:?}: popped must split into fired + stale"
    );
    assert!(
        p.scheduled >= p.popped,
        "{fel:?}: popped more events than were ever scheduled"
    );
    assert!(
        p.superseded >= p.stale_popped,
        "{fel:?}: stale pops exceed superseded entries"
    );
    assert!(p.scheduled > 0 && p.popped > 0, "{fel:?}: counters dead");
    if fel == FelImpl::Ladder {
        assert!(p.bucket_sorts > 0, "ladder never sorted a bucket");
        assert!(p.reseeds > 0, "ladder never reseeded an epoch");
    }
}

/// One churn row: best-of-N wall time, then an uncounted run split in
/// half around an allocation snapshot — the second half is the steady
/// state and must not allocate for the ladder.
fn fel_churn_row(fel: FelImpl, live: u64, hold_ops_n: u64) -> FelChurn {
    let wall_s = time_best(3, || {
        let mut rng = 0x5eed_5eed_5eed_5eedu64;
        let mut q = hold_queue(fel, live, &mut rng);
        hold_ops(&mut q, 0..hold_ops_n, &mut rng);
        q
    });
    let mut rng = 0x5eed_5eed_5eed_5eedu64;
    let mut q = hold_queue(fel, live, &mut rng);
    hold_ops(&mut q, 0..hold_ops_n / 2, &mut rng);
    let before = alloc_counter::allocations();
    hold_ops(&mut q, hold_ops_n / 2..hold_ops_n, &mut rng);
    let steady_allocs = (alloc_counter::allocations() - before) as f64;
    let p = q.profile();
    assert_counters_sane(fel, &p);
    let fel_ops = (p.scheduled + p.popped) as f64;
    FelChurn {
        fel: format!("{fel:?}"),
        live_events: live as f64,
        hold_ops: hold_ops_n as f64,
        wall_s,
        fel_ops,
        fel_ops_per_s: fel_ops / wall_s,
        scheduled: p.scheduled as f64,
        superseded: p.superseded as f64,
        fired: p.fired() as f64,
        stale_popped: p.stale_popped as f64,
        spills: p.spills as f64,
        bucket_sorts: p.bucket_sorts as f64,
        reseeds: p.reseeds as f64,
        compactions: p.compactions as f64,
        steady_allocs,
    }
}

/// Times one workload across thread counts and asserts bit-identical
/// simulated times at every count. The >=2x speedup expectation at 4
/// threads only applies on hosts that can actually run 4 workers (and
/// to traces that decompose into more than one island); the identity
/// assertions are unconditional.
fn parallel_rows(
    platform: &Platform,
    trace: &Arc<Trace>,
    workload: &str,
    host: usize,
    rows: &mut Vec<ParallelSpeedup>,
) {
    use tit_replay::replay::partition;
    let islands = {
        let input = TraceInput::Memory(Arc::clone(trace));
        let sources = tit_replay::titrace::stream::open_sources(&input, trace.ranks()).unwrap();
        let scan = partition::scan_sources(sources).unwrap();
        let hosts = Placement::OnePerNode
            .assign(platform, trace.ranks())
            .unwrap();
        partition::partition_ranks(&scan, platform, &hosts)
            .islands
            .len()
    };
    let mut base: Option<(f64, u64)> = None;
    for threads in [1usize, 2, 4, 8] {
        let mut cfg = replay_cfg(ReplayEngine::Smpi, SharingPolicy::Bottleneck);
        cfg.threads = threads;
        let result = replay(platform, trace, &cfg).unwrap();
        let wall_s = time_best(3, || replay(platform, trace, &cfg).unwrap());
        let (base_wall, base_bits) = *base.get_or_insert((wall_s, result.time.to_bits()));
        assert_eq!(
            result.time.to_bits(),
            base_bits,
            "{workload}: parallel replay at {threads} threads diverged"
        );
        let effective = if threads <= 1 || islands <= 1 {
            1
        } else {
            threads.min(islands)
        };
        rows.push(ParallelSpeedup {
            workload: workload.into(),
            threads: threads as f64,
            effective_threads: effective as f64,
            islands: islands as f64,
            wall_s,
            speedup: base_wall / wall_s,
            simulated_s: result.time,
        });
    }
    if islands >= 4 && host >= 4 {
        let four = rows.iter().rfind(|r| r.threads == 4.0).unwrap();
        assert!(
            four.speedup >= 2.0,
            "{workload}: expected >=2x speedup at 4 threads, got {:.2}x",
            four.speedup
        );
    }
}

/// A non-blocking crossbar: every host pair gets a dedicated NIC-link
/// pair, so single-source-per-receiver traffic (rings) certifies a
/// sub-shard plan for the windowed engine.
fn xbar_platform(nodes: u32, link_latency: f64) -> Platform {
    use tit_replay::platform::topology::{direct_cluster, DirectClusterSpec};
    direct_cluster(&DirectClusterSpec {
        name: "xbar".into(),
        nodes,
        host_speed: 1e9,
        cores: 1,
        cache_bytes: 1 << 20,
        link_bandwidth: 1.25e8,
        link_latency,
    })
}

/// A coupled ring with relaxed synchronisation: each rank streams
/// `burst` eager messages to its ring successor per block (one source
/// per receiver, so the crossbar certificate holds), then waits for
/// the matching receives and computes a rank- and block-dependent
/// amount. The burst keeps events dense inside each conservative
/// window so the per-window work amortises the barrier cost; the
/// skewed compute keeps event times from tying across ranks.
fn pdes_ring_trace(ranks: u32, blocks: u32, burst: u32, bytes: u64) -> Trace {
    let mut trace = Trace::new(ranks);
    for r in 0..ranks {
        let next = Rank((r + 1) % ranks);
        let prev = Rank((r + ranks - 1) % ranks);
        let rank = Rank(r);
        trace.push(rank, Action::Init);
        for b in 0..blocks {
            for _ in 0..burst {
                trace.push(rank, Action::Irecv { src: prev, bytes });
                trace.push(rank, Action::Isend { dst: next, bytes });
            }
            trace.push(rank, Action::WaitAll);
            trace.push(
                rank,
                Action::Compute {
                    amount: 1e5 + (r as f64) * 1.7e3 + (b as f64) * 3.1e2,
                },
            );
        }
        trace.push(rank, Action::Finalize);
    }
    trace
}

/// Times one workload through the windowed-PDES entry point across
/// thread counts, asserting bit-identical simulated times at every
/// count. `expect_engaged` demands that the engine actually sharded the
/// component at threads >= 2 (set it for certified workloads only; LU
/// and allreduce fall back by design). The >=2x speedup expectation at
/// 4 threads only applies on hosts with >= 4 workers; the identity
/// assertions are unconditional.
fn pdes_rows(
    platform: &Platform,
    trace: &Arc<Trace>,
    workload: &str,
    host: usize,
    expect_engaged: bool,
    rows: &mut Vec<PdesRow>,
) {
    use tit_replay::replay::replay_observed;
    let mut base: Option<(f64, u64)> = None;
    for threads in [1usize, 2, 4, 8] {
        let mut cfg = replay_cfg(ReplayEngine::Smpi, SharingPolicy::Bottleneck);
        cfg.threads = threads;
        let report = replay_observed(platform, trace, &cfg, false).unwrap();
        let wall_s = time_best(3, || replay(platform, trace, &cfg).unwrap());
        let (base_wall, base_bits) = *base.get_or_insert((wall_s, report.result.time.to_bits()));
        assert_eq!(
            report.result.time.to_bits(),
            base_bits,
            "{workload}: windowed replay at {threads} threads diverged"
        );
        if threads > 1 && expect_engaged {
            assert!(
                report.pdes.is_some(),
                "{workload}: windowed engine failed to engage at {threads} threads"
            );
        }
        let p = report.pdes;
        rows.push(PdesRow {
            workload: workload.into(),
            threads: threads as f64,
            shards: p.map_or(1.0, |p| p.shards as f64),
            windows: p.map_or(0.0, |p| p.windows as f64),
            mailbox_envelopes: p.map_or(0.0, |p| p.mailbox_envelopes as f64),
            mailbox_arrivals: p.map_or(0.0, |p| p.mailbox_arrivals as f64),
            lookahead_s: p.map_or(0.0, |p| p.lookahead_s),
            window_s: p.map_or(0.0, |p| p.window_s),
            wall_s,
            speedup: base_wall / wall_s,
            simulated_s: report.result.time,
        });
    }
    if expect_engaged && host >= 4 {
        let four = rows
            .iter()
            .rfind(|r| r.workload == workload && r.threads == 4.0)
            .unwrap();
        assert!(
            four.speedup >= 2.0,
            "{workload}: expected >=2x windowed speedup at 4 threads, got {:.2}x",
            four.speedup
        );
    }
}

/// A flat switched cluster for the collective-dense aggregation rows:
/// one rank per node, every collective phase contending on the shared
/// backbone with P uniform flows.
fn agg_flat_platform(nodes: u32) -> Platform {
    use tit_replay::platform::spec::SpecKind;
    PlatformSpec {
        name: "agg-flat".into(),
        kind: SpecKind::Flat {
            nodes,
            host_speed: 2e9,
            cores: 1,
            cache_bytes: 1 << 20,
            link_bandwidth: 1.25e9,
            link_latency: 1e-5,
            backbone_bandwidth: 1e10,
            backbone_latency: 1e-6,
        },
    }
    .build()
}

/// The allreduce-heavy synthetic workload (`titrace-gen --workload
/// allreduce`): compute, then a P-wide allreduce, every iteration.
fn allreduce_trace(ranks: u32, iters: u32, bytes: u64) -> Trace {
    let mut trace = Trace::new(ranks);
    for r in 0..ranks {
        let rank = Rank(r);
        trace.push(rank, Action::Init);
        for _ in 0..iters {
            trace.push(rank, Action::Compute { amount: 1e5 });
            trace.push(rank, Action::Allreduce { bytes });
        }
        trace.push(rank, Action::Finalize);
    }
    trace
}

fn fel_section(showcase: &Platform, halo: &Arc<Trace>) -> FelSection {
    let churn: Vec<FelChurn> = [FelImpl::Heap, FelImpl::Ladder]
        .into_iter()
        .map(|fel| fel_churn_row(fel, HOLD_LIVE, HOLD_OPS))
        .collect();
    let churn_speedup = churn[0].wall_s / churn[1].wall_s;
    let replay_rows = [FelImpl::Heap, FelImpl::Ladder]
        .into_iter()
        .map(|fel| {
            let mut cfg = replay_cfg(ReplayEngine::Smpi, SharingPolicy::Bottleneck);
            cfg.fel = fel;
            let events = replay(showcase, halo, &cfg).unwrap().events as f64;
            let wall_s = time_best(3, || replay(showcase, halo, &cfg).unwrap());
            FelReplay {
                workload: "halo-exchange-p128-iters200".into(),
                fel: format!("{fel:?}"),
                events,
                wall_s,
                events_per_s: events / wall_s,
            }
        })
        .collect();
    FelSection {
        churn,
        churn_speedup,
        replay: replay_rows,
    }
}

fn obs_overhead(platform: &Platform, trace: &Arc<Trace>, workload: &str) -> ObsOverhead {
    use tit_replay::replay::replay_observed;
    let cfg = replay_cfg(ReplayEngine::Smpi, SharingPolicy::Bottleneck);
    let plain = replay(platform, trace, &cfg).unwrap();
    let enabled = replay_observed(platform, trace, &cfg, true).unwrap();
    assert_eq!(
        plain.time.to_bits(),
        enabled.result.time.to_bits(),
        "span recorder changed the simulated time"
    );
    let log = enabled.spans.as_ref().expect("recorder was enabled");
    let disabled_wall_s = time_best(5, || replay(platform, trace, &cfg).unwrap());
    let enabled_wall_s = time_best(5, || replay_observed(platform, trace, &cfg, true).unwrap());
    ObsOverhead {
        workload: workload.into(),
        disabled_wall_s,
        enabled_wall_s,
        overhead_percent: (enabled_wall_s - disabled_wall_s) / disabled_wall_s * 100.0,
        spans: log.total_spans() as f64,
        flows: log.flows().len() as f64,
        simulated_s: plain.time,
    }
}

fn telemetry_overhead(
    platform: &Platform,
    trace: &Arc<Trace>,
    workload: &str,
    threads: usize,
) -> TelemetryOverhead {
    use tit_replay::replay::replay_input_profiled;
    use tit_replay::titrace::TraceInput;
    let mut cfg = replay_cfg(ReplayEngine::Smpi, SharingPolicy::Bottleneck);
    cfg.threads = threads;
    let ranks = trace.ranks();
    let input = TraceInput::Memory(Arc::clone(trace));
    let off = replay_input_profiled(platform, &input, ranks, &cfg, false, false).unwrap();
    let on = replay_input_profiled(platform, &input, ranks, &cfg, false, true).unwrap();
    assert_eq!(
        off.result.time.to_bits(),
        on.result.time.to_bits(),
        "wall-clock profiling changed the simulated time"
    );
    assert_eq!(off.result, on.result, "profiling changed the replay result");
    assert_eq!(off.metrics, on.metrics, "profiling changed the metrics");
    let prof = on.profile.expect("profiled run carries a profile");
    let off_wall_s = time_best(5, || {
        replay_input_profiled(platform, &input, ranks, &cfg, false, false).unwrap()
    });
    let on_wall_s = time_best(5, || {
        replay_input_profiled(platform, &input, ranks, &cfg, false, true).unwrap()
    });
    TelemetryOverhead {
        workload: workload.into(),
        threads: threads as f64,
        off_wall_s,
        on_wall_s,
        overhead_percent: (on_wall_s - off_wall_s) / off_wall_s * 100.0,
        workers: prof.workers.len() as f64,
        imbalance: prof.imbalance(),
        simulated_s: off.result.time,
    }
}

fn sharing_speedup(platform: &Platform, trace: &Arc<Trace>, workload: &str) -> SharingSpeedup {
    let run = |sharing| {
        let cfg = replay_cfg(ReplayEngine::Smpi, sharing);
        let sim = replay(platform, trace, &cfg).unwrap().time;
        (time_best(3, || replay(platform, trace, &cfg).unwrap()), sim)
    };
    let (before_full_s, sim_full) = run(SharingPolicy::MaxMinFull);
    let (after_incremental_s, sim_inc) = run(SharingPolicy::MaxMin);
    assert_eq!(
        sim_full.to_bits(),
        sim_inc.to_bits(),
        "incremental sharing changed the simulated time"
    );
    SharingSpeedup {
        workload: workload.into(),
        before_full_s,
        after_incremental_s,
        speedup: before_full_s / after_incremental_s,
        simulated_s: sim_inc,
    }
}

/// Intra-cabinet flow churn on a 16-cabinet cluster: every route is
/// `up -> down` with no backbone, so live flows form one sharing
/// component per cabinet and incremental recomputation touches 1/16th
/// of what the full reference re-solves.
fn component_churn() -> Vec<ChurnSpeedup> {
    const CABINETS: u32 = perfwork::CABINETS;
    const PER_CAB: u32 = perfwork::PER_CAB;
    let platform = perfwork::showcase_platform();
    let churn = 2_000u64;
    let run = |policy, live: u64| {
        let mut k = Kernel::new();
        let mut net = FlowNet::new(&platform, policy);
        let mut route = Vec::new();
        let mut open = Vec::new();
        for i in 0..churn {
            let cab = (i % u64::from(CABINETS)) as u32;
            let s = cab * PER_CAB + (i % u64::from(PER_CAB)) as u32;
            let d = cab * PER_CAB + ((i * 3 + 1) % u64::from(PER_CAB)) as u32;
            if s != d {
                platform.route(HostId(s), HostId(d), &mut route);
                open.push(net.open(&mut k, &route, 1e6, 1e9));
            }
            if open.len() as u64 > live {
                let f = open.swap_remove((i % live) as usize);
                net.close(&mut k, f);
            }
        }
        for f in open {
            net.close(&mut k, f);
        }
    };
    [16u64, 64, 128]
        .into_iter()
        .map(|live| {
            let before_full_s = time_best(3, || run(SharingPolicy::MaxMinFull, live));
            let after_incremental_s = time_best(3, || run(SharingPolicy::MaxMin, live));
            ChurnSpeedup {
                live_flows: live as f64,
                operations: churn as f64,
                before_full_s,
                after_incremental_s,
                speedup: before_full_s / after_incremental_s,
            }
        })
        .collect()
}

/// The process's peak resident set (VmHWM) in MiB, 0 where
/// `/proc/self/status` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times the three ingestion paths over one P=64 LU trace and asserts
/// that all of them replay to the same simulated time, bit for bit.
fn ingest_speeds() -> Vec<IngestSpeed> {
    use tit_replay::titrace::{binfmt, files, stream};

    let lu = LuConfig::new(LuClass::B, 64).with_steps(10);
    let workload = format!("lu-{}-steps10", lu.label().to_lowercase());
    let trace = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace;
    let ranks = trace.ranks();
    let dir = std::env::temp_dir().join(format!("titr-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("ingest temp dir");
    let text_path = dir.join("lu.trace");
    files::write_merged(&trace, &text_path).expect("write text trace");
    let bin_path = dir.join("lu.titb");
    binfmt::write_file(&trace, &bin_path, None).expect("write binary trace");
    let text_bytes = std::fs::metadata(&text_path).map_or(0, |m| m.len()) as f64;
    let bin_bytes = std::fs::metadata(&bin_path).map_or(0, |m| m.len()) as f64;
    let actions = trace.len() as f64;

    let row = |path: String, bytes: f64, wall_s: f64| IngestSpeed {
        path,
        workload: workload.clone(),
        bytes,
        actions,
        wall_s,
        mb_per_s: bytes / wall_s / 1e6,
        actions_per_s: actions / wall_s,
        peak_rss_mb: peak_rss_mb(),
    };

    let mut rows = Vec::new();
    let cold = time_best(3, || stream::load_merged(&text_path, ranks).unwrap());
    rows.push(row("text-cold".into(), text_bytes, cold));
    let titb = time_best(3, || {
        let bytes = std::fs::read(&bin_path).unwrap();
        binfmt::decode(&bytes).unwrap()
    });
    rows.push(row("titb".into(), bin_bytes, titb));

    // The paths must be interchangeable: same trace, same replay, same
    // bits.
    let from_bin = binfmt::read_file(&bin_path).expect("read binary trace");
    assert_eq!(from_bin, trace, "binary round-trip changed the trace");
    let cfg = replay_cfg(ReplayEngine::Smpi, SharingPolicy::Bottleneck);
    let bordereau = tit_replay::platform::clusters::bordereau();
    let inputs = [
        tit_replay::titrace::TraceInput::Memory(Arc::new(trace)),
        tit_replay::titrace::TraceInput::MergedText(text_path),
        tit_replay::titrace::TraceInput::Binary(bin_path),
    ];
    let times: Vec<u64> = inputs
        .iter()
        .map(|input| {
            tit_replay::replay::replay_input(&bordereau, input, ranks, &cfg)
                .expect("ingest replay failed")
                .time
                .to_bits()
        })
        .collect();
    assert!(
        times.windows(2).all(|w| w[0] == w[1]),
        "ingestion paths disagree on the simulated time"
    );
    let _ = std::fs::remove_dir_all(&dir);
    rows
}

fn sweep_cells() -> Vec<SweepCell> {
    let opts = Options {
        steps: 5,
        json: false,
        seed: 42,
    };
    let testbed = Testbed::bordereau();
    let grid = [(LuClass::B, 8), (LuClass::B, 16), (LuClass::B, 32)];
    // Time each cell individually (workers may overlap them; the wall
    // time per cell is still what a scheduler needs for load balance).
    let timed = sweep::run(&grid, |_, &(class, procs)| {
        let t = Instant::now();
        let recs = accuracy_figure(
            "perf",
            &testbed,
            &[(class, procs)],
            Pipeline::improved(),
            &opts,
        );
        (recs[0].instance.clone(), t.elapsed().as_secs_f64())
    });
    timed
        .into_iter()
        .map(|(instance, wall_s)| SweepCell { instance, wall_s })
        .collect()
}

// ----------------------------------------------------------------------
// Replay-as-a-service throughput (embedded titserved over loopback)

/// Reads one numeric field out of the service's `/stats` body.
fn stats_field(addr: &str, key: &str) -> f64 {
    let resp = titserved::client::get(addr, "/stats").expect("stats request");
    let body = String::from_utf8(resp.body).expect("stats utf-8");
    let needle = format!("\"{key}\":");
    body.lines()
        .find_map(|l| l.trim().strip_prefix(needle.as_str()))
        .and_then(|v| v.trim().trim_end_matches(',').parse().ok())
        .unwrap_or_else(|| panic!("stats missing {key}: {body}"))
}

/// Boots a `titserved` on an ephemeral loopback port, serves `trace`
/// from a temp file, and measures the three service-level rates: the
/// cold first query, memoized repeats, and a concurrent identical burst
/// at a fresh key. Asserts the burst deduplicates to one execution with
/// byte-identical bodies before reporting it as amplification.
fn serve_section(
    trace: &Trace,
    workload: &str,
    workers: usize,
    memo_queries: usize,
    clients: usize,
) -> ServeSection {
    use tit_replay::platform::spec::{PlatformSpec, SpecKind};
    use tit_replay::titrace::files;
    use titserved::client;
    use titserved::server::{Server, ServerConfig};

    let ranks = trace.ranks();
    let dir = std::env::temp_dir().join(format!("titr-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("serve temp dir");
    let trace_path = dir.join("bench.trace");
    files::write_merged(trace, &trace_path).expect("write service trace");

    let spec = PlatformSpec {
        name: "bench-serve".into(),
        kind: SpecKind::Flat {
            nodes: ranks,
            host_speed: 1e9,
            cores: 1,
            cache_bytes: 1 << 20,
            link_bandwidth: 1.25e9,
            link_latency: 1.5e-5,
            backbone_bandwidth: 1.25e10,
            backbone_latency: 5e-6,
        },
    };
    // Access logging off: the benchmark drives thousands of requests
    // and the stderr lines are pure noise at that volume.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            sidecar: true,
            access_log: false,
        },
    )
    .expect("bind loopback");
    let addr = format!("127.0.0.1:{}", server.addr().port());
    let handle = std::thread::spawn(move || server.run());
    let body = |rate: f64| {
        format!(
            "{{\"trace\": \"{}\", \"ranks\": {ranks}, \"platform\": {}, \
             \"config\": {{\"rate\": {rate}, \"threads\": 1}}}}",
            trace_path.display(),
            spec.to_json()
        )
    };

    // Cold: first sight of this key — parse, trace load, replay,
    // manifest, all inside one round trip.
    let cold_body = body(2e9);
    let t = Instant::now();
    let first = client::predict(&addr, &cold_body).expect("cold predict");
    let cold_wall_s = t.elapsed().as_secs_f64();
    assert_eq!(
        first.status,
        200,
        "cold query failed: {}",
        String::from_utf8_lossy(&first.body)
    );

    // Memoized: the same key again and again, answered from the memo
    // table with the stored bytes and no replay.
    let t = Instant::now();
    for _ in 0..memo_queries {
        let r = client::predict(&addr, &cold_body).expect("memo predict");
        assert_eq!(r.status, 200);
        assert_eq!(r.body, first.body, "memo hit must return the stored bytes");
    }
    let memo_wall_s = t.elapsed().as_secs_f64();

    // Dedup: a concurrent burst at a key the service has never seen.
    // One client wins the slot and replays; everyone else blocks on the
    // in-flight entry and shares its bytes.
    let fresh_body = body(3e9);
    let exec_before = stats_field(&addr, "executions");
    let burst: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| s.spawn(|| client::predict(&addr, &fresh_body).expect("dedup predict")))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for r in &burst {
        assert_eq!(r.status, 200);
        assert_eq!(
            r.body, burst[0].body,
            "dedup responses must be byte-identical"
        );
    }
    let dedup_executions = stats_field(&addr, "executions") - exec_before;
    assert_eq!(
        dedup_executions, 1.0,
        "{clients} identical concurrent queries must run exactly one replay"
    );

    client::post(&addr, "/shutdown", "").expect("shutdown");
    handle.join().expect("join server").expect("server run");
    let _ = std::fs::remove_dir_all(&dir);

    let cold_qps = 1.0 / cold_wall_s;
    let memo_qps = memo_queries as f64 / memo_wall_s;
    ServeSection {
        workload: workload.into(),
        workers: workers as f64,
        cold_wall_s,
        cold_qps,
        memo_queries: memo_queries as f64,
        memo_wall_s,
        memo_qps,
        memo_speedup: memo_qps / cold_qps,
        dedup_clients: clients as f64,
        dedup_executions,
        dedup_amplification: clients as f64 / dedup_executions,
    }
}

fn usage() -> ! {
    eprintln!("usage: perf_baseline [--out <BENCH_replay.json>] [--smoke]");
    std::process::exit(2);
}

/// CI gate: a reduced churn run per FEL implementation, checking the
/// profile-counter invariants and that the ladder's steady state is
/// allocation-free. Writes nothing.
fn smoke() {
    // Scaled down so compaction (and with it the steady state) is
    // reached well inside the first half of the run.
    let (live, ops) = (HOLD_LIVE / 16, HOLD_OPS / 16);
    for fel in [FelImpl::Heap, FelImpl::Ladder] {
        let row = fel_churn_row(fel, live, ops);
        eprintln!(
            "smoke {:>6}: {:.0} fel-ops/s, {} steady-state allocs, \
             {} compactions",
            row.fel, row.fel_ops_per_s, row.steady_allocs, row.compactions
        );
        if fel == FelImpl::Ladder {
            assert_eq!(
                row.steady_allocs, 0.0,
                "ladder steady state allocated {} times",
                row.steady_allocs
            );
        }
    }
    obs_smoke();
    parallel_smoke();
    pdes_smoke();
    agg_smoke();
    reshare_smoke();
    serve_smoke();
    telemetry_smoke();
    println!(
        "PERF_SMOKE ok (counters sane, ladder steady state allocation-free, \
         disabled recorder cost-free, threads=1 dispatch cost-free, \
         parallel replay bit-identical, windowed PDES bit-identical and \
         dispatch cost-free on coupled workloads, collective \
         phases batched whole, eager re-shares re-rating the recorded \
         flows, service dedup single-execution \
         and memo faster than cold, wall-clock profiling bit-identical \
         and cost-free when off)"
    );
}

/// Telemetry gate: with profiling off, the profiled entry point must
/// stay within 1% of the plain observed entry point (it *is* that
/// function's implementation — the delta bounds measurement noise plus
/// the dormant stopwatch branches), and a profiled parallel run must
/// change no simulated bit while carrying a coherent per-worker
/// breakdown (each worker's timed sections fit inside its own wall
/// interval).
fn telemetry_smoke() {
    use tit_replay::replay::{replay_input_observed, replay_input_profiled};
    use tit_replay::titrace::TraceInput;
    let showcase = perfwork::showcase_platform();
    let halo = Arc::new(perfwork::halo_exchange_trace(32, 50, 1 << 18));
    let ranks = halo.ranks();
    let input = TraceInput::Memory(Arc::clone(&halo));

    let mut cfg = replay_cfg(ReplayEngine::Smpi, SharingPolicy::Bottleneck);
    cfg.threads = 4;
    let off = replay_input_profiled(&showcase, &input, ranks, &cfg, false, false).unwrap();
    let on = replay_input_profiled(&showcase, &input, ranks, &cfg, false, true).unwrap();
    assert!(
        off.profile.is_none(),
        "profiling off must not attach a profile"
    );
    assert_eq!(
        off.result.time.to_bits(),
        on.result.time.to_bits(),
        "wall-clock profiling changed the simulated time"
    );
    assert_eq!(off.result, on.result, "profiling changed the replay result");
    assert_eq!(off.metrics, on.metrics, "profiling changed the metrics");
    let prof = on.profile.expect("profiled run carries a profile");
    assert!(
        prof.workers.len() >= 2,
        "halo exchange should profile >= 2 workers, got {}",
        prof.workers.len()
    );
    for w in &prof.workers {
        let parts = w.work_s + w.barrier_s + w.mailbox_s;
        assert!(
            parts <= w.wall_s + 5e-3,
            "worker {}: timed sections ({parts:.6}s) exceed its wall interval ({:.6}s)",
            w.worker,
            w.wall_s
        );
    }
    eprintln!(
        "smoke    tel: {} workers (mode {}), imbalance {:.2}, bit-identical on/off",
        prof.workers.len(),
        prof.mode,
        prof.imbalance()
    );

    // Wall-time gate for the disabled path, sequential (the shape every
    // production replay takes when nobody asks for a profile).
    cfg.threads = 1;
    let plain_s = time_best(5, || {
        replay_input_observed(&showcase, &input, ranks, &cfg, false).unwrap()
    });
    let off_s = time_best(5, || {
        replay_input_profiled(&showcase, &input, ranks, &cfg, false, false).unwrap()
    });
    let slack = (plain_s * 0.01).max(1e-3);
    eprintln!("smoke    tel: churn replay plain {plain_s:.6}s, profiling off {off_s:.6}s");
    assert!(
        off_s <= plain_s + slack,
        "profiling-off path regressed the churn replay by more than 1%: \
         {off_s:.6}s vs {plain_s:.6}s"
    );
}

/// Service gate: an embedded `titserved` must collapse a concurrent
/// burst of identical queries into exactly one replay with
/// byte-identical bodies (asserted inside [`serve_section`]), and the
/// memoized repeat rate must beat the cold query rate.
fn serve_smoke() {
    let lu = LuConfig::new(LuClass::S, 8).with_steps(4);
    let trace = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace;
    let row = serve_section(&trace, "lu-s8-steps4", 2, 20, 6);
    eprintln!(
        "smoke  serve: cold {:.1} q/s, memoized {:.1} q/s ({:.0}x), \
         {}-client burst -> {} execution(s)",
        row.cold_qps, row.memo_qps, row.memo_speedup, row.dedup_clients, row.dedup_executions
    );
    assert!(
        row.memo_qps > row.cold_qps,
        "memoized repeats ({:.1} q/s) must beat the cold query ({:.1} q/s)",
        row.memo_qps,
        row.cold_qps
    );
}

/// Windowed-PDES gate: on a *coupled* workload (one island — the shape
/// the windowed engine exists for) the threads=1 entry point must stay
/// within 1% of the raw sequential runner (the sub-shard planner never
/// runs unless threads > 1), and the windowed replay at 4 threads must
/// actually engage, shard the component, and stay bit-identical to the
/// sequential result.
fn pdes_smoke() {
    use tit_replay::replay::{replay_observed, replay_sources_observed};
    use tit_replay::titrace::stream;
    let xbar = xbar_platform(8, 2e-4);
    let ring = Arc::new(pdes_ring_trace(8, 60, 8, 1 << 10));
    let input = TraceInput::Memory(Arc::clone(&ring));
    let cfg = replay_cfg(ReplayEngine::Smpi, SharingPolicy::Bottleneck);
    assert_eq!(cfg.threads, 1, "bench config must pin the sequential path");
    let raw_s = time_best(5, || {
        let sources = stream::open_sources(&input, ring.ranks()).unwrap();
        replay_sources_observed(&xbar, sources, &cfg, false).unwrap()
    });
    let dispatch_s = time_best(5, || replay(&xbar, &ring, &cfg).unwrap());
    let slack = (raw_s * 0.01).max(1e-3);
    eprintln!("smoke   pdes: raw sequential {raw_s:.6}s, threads=1 dispatch {dispatch_s:.6}s");
    assert!(
        dispatch_s <= raw_s + slack,
        "threads=1 replay of a coupled workload regressed the sequential \
         path by more than 1%: {dispatch_s:.6}s vs {raw_s:.6}s"
    );

    let base = replay_observed(&xbar, &ring, &cfg, false).unwrap();
    let mut cfg4 = cfg.clone();
    cfg4.threads = 4;
    let par = replay_observed(&xbar, &ring, &cfg4, false).unwrap();
    assert_eq!(
        base.result.time.to_bits(),
        par.result.time.to_bits(),
        "windowed replay at 4 threads diverged from the sequential result"
    );
    let stats = par
        .pdes
        .expect("windowed engine failed to engage on the coupled ring");
    assert_eq!(
        stats.shards, 4,
        "windowed engine did not shard the ring 4 ways"
    );
    assert!(stats.windows > 0 && stats.mailbox_envelopes > 0);
    eprintln!(
        "smoke   pdes: 4-thread windowed replay bit-identical \
         ({} shards, {} windows, {} cross envelopes, simulated {:.6}s)",
        stats.shards, stats.windows, stats.mailbox_envelopes, base.result.time
    );
}

/// Aggregation gate: on the collective-dense shape every phase must be
/// batched whole — each flow is rated exactly once (at the flush that
/// follows its open; its phase retires together, leaving nobody to
/// re-rate) and a phase's P flows count as one live entity.
fn agg_smoke() {
    use tit_replay::replay::replay_observed;
    let platform = agg_flat_platform(128);
    let trace = Arc::new(allreduce_trace(128, 3, 1 << 16));
    let cfg = replay_cfg(ReplayEngine::Smpi, SharingPolicy::Bottleneck);
    let m = replay_observed(&platform, &trace, &cfg, false)
        .unwrap()
        .metrics;
    assert_eq!(
        m.sharing_rate_updates, m.flows_created,
        "allreduce P=128: a collective flow was rated more than once"
    );
    assert_eq!(
        m.live_entity_hwm, 1,
        "allreduce P=128: phases not aggregated"
    );
    eprintln!(
        "smoke    agg: allreduce P=128, {} flows rated once each in {} re-solves, 1 live entity",
        m.flows_created, m.sharing_resolves
    );
}

/// Re-share gate: LU B-8 with default flags must push exactly these
/// rate changes, recompute exactly this many rates to find them, and
/// process exactly the events recorded at db39a09 — a change to *which*
/// neighbours an eager open or close examines or re-rates (as opposed
/// to how cheaply it finds them) trips here without a timing threshold.
fn reshare_smoke() {
    use tit_replay::replay::replay_observed;
    let lu = LuConfig::new(LuClass::B, 8).with_steps(4);
    let trace =
        Arc::new(acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 42).trace);
    let cfg = replay_cfg(ReplayEngine::Smpi, SharingPolicy::Bottleneck);
    let m = replay_observed(
        &tit_replay::platform::clusters::graphene(),
        &trace,
        &cfg,
        false,
    )
    .unwrap()
    .metrics;
    assert_eq!(
        (
            m.sharing_rate_updates,
            m.sharing_examined,
            m.events_processed
        ),
        (11_614, 14_832, 36_603),
        "LU B-8: the set of examined or re-rated flows moved"
    );
    eprintln!(
        "smoke  share: LU B-8, {} rate updates of {} examined in {} re-solves, {} events",
        m.sharing_rate_updates, m.sharing_examined, m.sharing_resolves, m.events_processed
    );
}

/// Parallel-replay gate: the threads=1 entry point must cost the same
/// as the raw sequential runner (the parallel dispatch short-circuits
/// before any scan work), and a multi-island replay at 4 threads must
/// be bit-identical to the sequential result.
fn parallel_smoke() {
    use tit_replay::replay::replay_sources_observed;
    use tit_replay::titrace::stream;
    let showcase = perfwork::showcase_platform();
    let halo = Arc::new(perfwork::halo_exchange_trace(32, 50, 1 << 18));
    let input = TraceInput::Memory(Arc::clone(&halo));
    let cfg = replay_cfg(ReplayEngine::Smpi, SharingPolicy::Bottleneck);
    assert_eq!(cfg.threads, 1, "bench config must pin the sequential path");
    let raw_s = time_best(5, || {
        let sources = stream::open_sources(&input, halo.ranks()).unwrap();
        replay_sources_observed(&showcase, sources, &cfg, false).unwrap()
    });
    let dispatch_s = time_best(5, || replay(&showcase, &halo, &cfg).unwrap());
    let slack = (raw_s * 0.01).max(1e-3);
    eprintln!("smoke    par: raw sequential {raw_s:.6}s, threads=1 dispatch {dispatch_s:.6}s");
    assert!(
        dispatch_s <= raw_s + slack,
        "threads=1 replay regressed the sequential path by more than 1%: \
         {dispatch_s:.6}s vs {raw_s:.6}s"
    );

    let base = replay(&showcase, &halo, &cfg).unwrap();
    let mut cfg4 = cfg.clone();
    cfg4.threads = 4;
    let par = replay(&showcase, &halo, &cfg4).unwrap();
    assert_eq!(
        base.time.to_bits(),
        par.time.to_bits(),
        "parallel replay at 4 threads diverged from the sequential result"
    );
    eprintln!(
        "smoke    par: 4-thread replay bit-identical (simulated {:.6}s)",
        base.time
    );
}

/// Observability gate: with no recorder installed, replay must be the
/// plain path — bit-identical simulated time, no workload-scaling heap
/// allocations, and wall time within 1% of the plain entry point on a
/// churn-heavy workload (the hold-model-style halo exchange that
/// dominates the FEL bench).
fn obs_smoke() {
    use tit_replay::replay::replay_observed;
    let bordereau = tit_replay::platform::clusters::bordereau();
    let cfg = replay_cfg(ReplayEngine::Smpi, SharingPolicy::Bottleneck);

    // Allocation check at two workload sizes: the observed entry point
    // may pay a small per-run constant over the plain one (the metrics
    // snapshot itself), but the difference must not grow with the
    // workload — that would mean the disabled path allocates per event.
    let mut deltas = Vec::new();
    for steps in [2u32, 8] {
        let lu = LuConfig::new(LuClass::S, 8).with_steps(steps);
        let trace =
            Arc::new(acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace);
        // Warm-up so the counted runs see steady-state behaviour only.
        let warm = replay(&bordereau, &trace, &cfg).unwrap().time;
        let before = alloc_counter::allocations();
        let plain = replay(&bordereau, &trace, &cfg).unwrap();
        let plain_allocs = alloc_counter::allocations() - before;
        let before = alloc_counter::allocations();
        let report = replay_observed(&bordereau, &trace, &cfg, false).unwrap();
        let observed_allocs = alloc_counter::allocations() - before;
        assert!(report.spans.is_none(), "disabled recorder produced spans");
        assert_eq!(
            plain.time.to_bits(),
            report.result.time.to_bits(),
            "observed (disabled) replay changed the simulated time"
        );
        assert_eq!(
            warm.to_bits(),
            plain.time.to_bits(),
            "replay not deterministic"
        );
        deltas.push(observed_allocs as i64 - plain_allocs as i64);
    }
    eprintln!(
        "smoke    obs: disabled-recorder alloc delta {} (steps=2) vs {} (steps=8)",
        deltas[0], deltas[1]
    );
    assert_eq!(
        deltas[0], deltas[1],
        "disabled-recorder allocation overhead scales with the workload \
         (want a per-run constant, i.e. zero steady-state allocations)"
    );

    // Wall-time check on the churn workload. Plain replay *is* the
    // observed runner with recording off, so this bounds measurement
    // noise plus any wrapper cost; a 1% band with a small absolute
    // floor keeps the gate meaningful without being timer-flaky.
    let halo = Arc::new(perfwork::halo_exchange_trace(32, 50, 1 << 18));
    let showcase = perfwork::showcase_platform();
    let plain_s = time_best(5, || replay(&showcase, &halo, &cfg).unwrap());
    let disabled_s = time_best(5, || {
        replay_observed(&showcase, &halo, &cfg, false).unwrap()
    });
    let slack = (plain_s * 0.01).max(1e-3);
    eprintln!("smoke    obs: churn replay plain {plain_s:.6}s, disabled recorder {disabled_s:.6}s");
    assert!(
        disabled_s <= plain_s + slack,
        "disabled-recorder path regressed the churn replay by more than 1%: \
         {disabled_s:.6}s vs {plain_s:.6}s"
    );
}

fn main() {
    let mut out_path = String::from("BENCH_replay.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => usage(),
            },
            "--smoke" => {
                smoke();
                return;
            }
            _ => usage(),
        }
    }

    // Captured before any measurement work: worker pools and allocator
    // pressure can shrink what `available_parallelism` reports later in
    // the run, which used to record `host_parallelism: 1` next to a
    // `parallel` section asserting >=2x speedups.
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    eprintln!("timing replay back-ends (LU S-16, bordereau)...");
    let lu = LuConfig::new(LuClass::S, 16).with_steps(10);
    let trace = Arc::new(acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace);
    let bordereau = tit_replay::platform::clusters::bordereau();
    let backends = backend_speeds(&bordereau, &trace, "lu-s16-steps10");

    eprintln!("timing sharing policies (halo exchange P=128; LU S-64, graphene)...");
    let showcase = perfwork::showcase_platform();
    let halo = Arc::new(perfwork::halo_exchange_trace(128, 200, 1 << 20));
    let big = LuConfig::new(LuClass::S, 64).with_steps(10);
    let big_trace =
        Arc::new(acquire(big.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace);
    let graphene = tit_replay::platform::clusters::graphene();
    let sharing = vec![
        sharing_speedup(&showcase, &halo, "halo-exchange-p128-iters200"),
        sharing_speedup(&graphene, &big_trace, "lu-s64-steps10-smpi"),
    ];

    eprintln!("timing parallel replay (halo exchange P=128; LU C-64, graphene)...");
    let mut parallel = Vec::new();
    parallel_rows(
        &showcase,
        &halo,
        "halo-exchange-p128-iters200",
        host_parallelism,
        &mut parallel,
    );
    let lu_c64 = LuConfig::new(LuClass::C, 64).with_steps(10);
    let lu_c64_trace = Arc::new(
        acquire(
            lu_c64.sources(),
            Instrumentation::Minimal,
            CompilerOpt::O3,
            1,
        )
        .trace,
    );
    parallel_rows(
        &graphene,
        &lu_c64_trace,
        "lu-c64-steps10",
        host_parallelism,
        &mut parallel,
    );

    let ar_platform = agg_flat_platform(128);
    let ar_trace = Arc::new(allreduce_trace(128, 50, 1 << 16));

    eprintln!("timing windowed PDES (coupled ring on crossbar; LU C-64; allreduce P=128)...");
    let xbar = xbar_platform(16, 2e-4);
    let ring = Arc::new(pdes_ring_trace(16, 300, 32, 1 << 10));
    let mut pdes = Vec::new();
    pdes_rows(
        &xbar,
        &ring,
        "coupled-ring-p16-blocks300-burst32",
        host_parallelism,
        true,
        &mut pdes,
    );
    pdes_rows(
        &graphene,
        &lu_c64_trace,
        "lu-c64-steps10",
        host_parallelism,
        false,
        &mut pdes,
    );
    pdes_rows(
        &ar_platform,
        &ar_trace,
        "allreduce-p128-iters50",
        host_parallelism,
        false,
        &mut pdes,
    );
    eprintln!("timing component churn (16-cabinet cluster)...");
    let churn = component_churn();

    eprintln!("timing trace ingestion paths (LU B-64)...");
    let ingest = ingest_speeds();

    eprintln!("timing sweep cells (accuracy figure, bordereau)...");
    let cells = sweep_cells();

    eprintln!("timing heap-vs-ladder FEL (churn microbench; halo replay)...");
    let fel = fel_section(&showcase, &halo);

    eprintln!("timing recorder overhead (LU S-16; halo exchange)...");
    let obs = vec![
        obs_overhead(&bordereau, &trace, "lu-s16-steps10"),
        obs_overhead(&showcase, &halo, "halo-exchange-p128-iters200"),
    ];

    eprintln!("timing wall-clock profiling overhead (halo exchange P=128)...");
    let telemetry = vec![
        telemetry_overhead(&showcase, &halo, "halo-exchange-p128-iters200", 1),
        telemetry_overhead(&showcase, &halo, "halo-exchange-p128-iters200", 4),
    ];

    eprintln!("timing the prediction service (LU B-8 over loopback)...");
    let serve_lu = LuConfig::new(LuClass::B, 8).with_steps(10);
    let serve_trace = acquire(
        serve_lu.sources(),
        Instrumentation::Minimal,
        CompilerOpt::O3,
        1,
    )
    .trace;
    let serve = serve_section(&serve_trace, "lu-b8-steps10", 4, 200, 8);

    let doc = Baseline {
        generated_by: "bench/perf_baseline".into(),
        host_parallelism: host_parallelism as f64,
        backends,
        sharing,
        parallel,
        pdes,
        component_churn: churn,
        ingest,
        sweep_cells: cells,
        fel,
        obs,
        telemetry,
        serve,
    };
    let json = serde_json::to_string_pretty(&doc).expect("baseline always serializes");
    std::fs::write(&out_path, json + "\n").expect("write baseline");
    eprintln!("wrote {out_path}");
}
