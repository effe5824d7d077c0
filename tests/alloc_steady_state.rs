//! Allocation gates: the two zero-steady-state-allocation claims of the
//! event core and the observability layer, the O(P) cost of building a
//! runtime world and of a whole replay's peak heap, and the
//! trace-length-independent memory of streaming a `.titb`, measured with
//! a counting global allocator this test binary owns. The counts are per
//! thread, so the tests do not disturb each other or the harness;
//! everything measured runs on the calling thread, but for the thread
//! that decodes text ahead of a replay, whose allocations are counted
//! apart by its name.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tit_replay::prelude::*;
use tit_replay::simkernel::queue::{EventKind, EventQueue};
use tit_replay::simkernel::Time;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation (or reallocation) of `size` bytes.
fn count(size: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    BYTES.with(|b| b.set(b.get() + size as u64));
    if WATCH_AHEAD.load(Ordering::Relaxed) && on_ahead_thread() {
        AHEAD_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// The name `titrace::ahead` gives its helper thread.
const AHEAD_THREAD: &str = "titrace-ahead";

/// Whether allocations on the helper thread are counted.
static WATCH_AHEAD: AtomicBool = AtomicBool::new(false);

/// Allocations (and reallocations) on the helper thread while watched.
static AHEAD_ALLOCS: AtomicU64 = AtomicU64::new(0);

const ROLE_UNKNOWN: u8 = 0;
const ROLE_RESOLVING: u8 = 1;
const ROLE_AHEAD: u8 = 2;
const ROLE_OTHER: u8 = 3;

thread_local! {
    /// Whether this thread is the helper, found from its name at its
    /// first watched allocation.
    static ROLE: Cell<u8> = const { Cell::new(ROLE_UNKNOWN) };
}

fn on_ahead_thread() -> bool {
    ROLE.with(|role| {
        if role.get() == ROLE_UNKNOWN {
            // An allocation made while asking for the name counts as
            // not the helper's.
            role.set(ROLE_RESOLVING);
            let ahead = std::thread::current().name() == Some(AHEAD_THREAD);
            role.set(if ahead { ROLE_AHEAD } else { ROLE_OTHER });
        }
        role.get() == ROLE_AHEAD
    })
}

/// Moves this thread's live heap bytes by `delta`, keeping the peak.
fn live(delta: i64) {
    let now = LIVE.with(|l| {
        l.set(l.get() + delta);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(now)));
}

struct CountingAlloc;

// SAFETY: pure delegation to `System`, plus bumps of const-initialised
// thread-local `Cell`s that have no destructor and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        live(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations (and reallocations) `f` performs on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Bytes requested from the heap (allocations plus reallocations' new
/// sizes) while `f` runs on this thread.
fn allocated_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// The peak of this thread's live heap bytes while `f` runs, above the
/// level at entry.
fn peak_live_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    (out, (PEAK.with(Cell::get) - before) as u64)
}

/// Deterministic xorshift64* stream.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Runs hold operations `ops` on `q`: pop the minimum, push a successor a
/// pseudo-random increment later (the classic FEL "hold" access pattern),
/// with a doomed event — pushed and immediately superseded, far in the
/// future, where a rescheduled activity leaves its stale completion —
/// mixed in every fourth op. Doomed events use `actor: 1` so pops can
/// recognise and skip them, as the kernel does.
fn hold_ops(q: &mut EventQueue, ops: std::ops::Range<u64>, rng: &mut u64) {
    let doomed = |kind: &EventKind| matches!(kind, EventKind::Timer { actor: 1, .. });
    for i in ops {
        let now = loop {
            let (t, kind) = q.pop().expect("hold queue never drains");
            if doomed(&kind) {
                q.note_stale_popped();
                continue;
            }
            let delta = 1e-6 * (1 + next_rand(rng) % 1_000_000) as f64;
            q.push(Time::from_secs(t.as_secs() + delta), kind);
            break t.as_secs();
        };
        if i % 4 == 0 {
            let delta = 1e-6 * (1_000_000 + next_rand(rng) % 1_000_000) as f64;
            q.push(
                Time::from_secs(now + delta),
                EventKind::Timer { actor: 1, key: i },
            );
            q.note_superseded();
        }
    }
}

/// A warmed-up event queue reuses its storage: the second half of a
/// hold-model churn (4096 live events, 65 536 hold ops, stale skips
/// included) performs no allocation at all.
#[test]
fn fel_steady_state_does_not_allocate() {
    let (live, ops) = (1u64 << 12, 1u64 << 16);
    let mut rng = 0x5eed_5eed_5eed_5eedu64;
    let mut q = EventQueue::with_capacity(2 * live as usize);
    for key in 0..live {
        let t = (next_rand(&mut rng) % 1_000_000) as f64 * 1e-6;
        q.push(Time::from_secs(t), EventKind::Timer { actor: 0, key });
    }
    hold_ops(&mut q, 0..ops / 2, &mut rng);
    let warm = q.profile();
    assert!(
        warm.stale_popped > 0,
        "warm-up must skip stale entries: {warm:?}"
    );
    let ((), steady) = allocations(|| hold_ops(&mut q, ops / 2..ops, &mut rng));
    assert_eq!(steady, 0, "event queue steady state allocated");
}

/// The replay entry with recording off may pay a per-run constant over
/// the bare engine it assembles (placement, cursors, op sources, the
/// profile), but the difference must not grow with the workload — that
/// would mean the op source or the disabled recorder allocates per event.
#[test]
fn disabled_recorder_allocation_overhead_is_a_per_run_constant() {
    use tit_replay::smpi::{prepare_smpi, FixedRateHooks, SmpiConfig};
    use tit_replay::workloads::{OpSource, VecSource};

    let platform = tit_replay::platform::clusters::bordereau();
    let cfg = ReplayConfig {
        threads: 1,
        ..ReplayConfig::improved(2e9)
    };
    let hosts = cfg.placement.assign(&platform, 8).unwrap();
    let deltas: Vec<i64> = [2u32, 8]
        .into_iter()
        .map(|steps| {
            let lu = LuConfig::new(LuClass::S, 8).with_steps(steps);
            let trace = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace;
            let sources: Vec<Box<dyn OpSource>> = trace
                .iter()
                .map(|(_, actions)| {
                    let ops = actions.iter().map(tit_replay::replay::action_to_op);
                    Box::new(VecSource::new(ops.collect())) as Box<dyn OpSource>
                })
                .collect();
            let hooks = Box::new(FixedRateHooks::uniform(cfg.rate, 8));
            let input = TraceInput::Memory(Arc::new(trace));
            // Warm-up so the counted runs see steady-state behaviour only.
            replay_input_observed(&platform, &input, 8, &cfg, false).unwrap();
            let (bare, bare_allocs) = allocations(|| {
                let smpi_cfg = SmpiConfig::smpi_replay();
                prepare_smpi(&platform, &hosts, sources, smpi_cfg, hooks, false)
                    .run()
                    .unwrap()
            });
            let (report, entry_allocs) =
                allocations(|| replay_input_observed(&platform, &input, 8, &cfg, false).unwrap());
            assert!(report.spans.is_none(), "disabled recorder produced spans");
            assert_eq!(bare.time().to_bits(), report.time().to_bits());
            entry_allocs as i64 - bare_allocs as i64
        })
        .collect();
    assert_eq!(
        deltas[0], deltas[1],
        "replay-entry allocation overhead scales with the workload"
    );
}

/// Building a world costs O(P) bytes, not O(P²): per-pair routes and
/// match queues are built on a pair's first message. The runtime is
/// assembled under both its replay configurations (SMPI and MSG) over
/// empty op sources on one 4096-host cluster at P = 1024 and P = 4096;
/// linear growth gives a byte ratio of 4, a P² table 16.
#[test]
fn world_build_allocates_linearly_in_the_rank_count() {
    use tit_replay::platform::HostId;
    use tit_replay::smpi::{prepare_smpi, FixedRateHooks, SmpiConfig};
    use tit_replay::workloads::{OpSource, VecSource};

    let platform = wide_cluster();
    let build = |ranks: u32| {
        let hosts: Vec<HostId> = (0..ranks).map(HostId).collect();
        let sources = || -> Vec<Box<dyn OpSource>> {
            (0..ranks)
                .map(|_| Box::new(VecSource::new(Vec::new())) as Box<dyn OpSource>)
                .collect()
        };
        let bytes = |cfg: SmpiConfig| {
            let (sources, hooks) = (sources(), Box::new(FixedRateHooks::uniform(1e9, ranks)));
            allocated_bytes(|| prepare_smpi(&platform, &hosts, sources, cfg, hooks, false)).1
        };
        (
            bytes(SmpiConfig::smpi_replay()),
            bytes(SmpiConfig::msg_legacy()),
        )
    };
    let (small, large) = (build(1024), build(4096));
    for (engine, small, large) in [("smpi", small.0, large.0), ("msg", small.1, large.1)] {
        let ratio = large as f64 / small as f64;
        assert!(
            ratio <= 5.0,
            "{engine} world build: {small} B at P = 1024, {large} B at P = 4096 (ratio {ratio:.2})"
        );
    }
}

/// A 4096-host flat cluster for the rank-count scaling tests.
fn wide_cluster() -> tit_replay::platform::Platform {
    use tit_replay::platform::topology::{flat_cluster, FlatClusterSpec};
    flat_cluster(&FlatClusterSpec {
        name: "wide".into(),
        nodes: 4096,
        host_speed: 1e9,
        cores: 1,
        cache_bytes: 1 << 20,
        link_bandwidth: 1e8,
        link_latency: 10e-6,
        backbone_bandwidth: 1e10,
        backbone_latency: 1e-6,
    })
}

/// A replay's run, not only its world build, is linear in the rank count:
/// the heap it adds over the built world peaks at O(P + pairs that talk).
/// A rank's collective sub-program is an O(1) schedule, never its
/// expanded op list (a ring allreduce's is 6(P − 1) ops), and the pair
/// index grows with the pairs that talk, never a dense row over all P
/// sources per destination. Two programs, each at P and 4P on one
/// 4096-host cluster: a ring allreduce (P = 64 vs 256) and an
/// isend/irecv ring shift (P = 256 vs 1024). Linear growth gives a peak
/// ratio of about 4, quadratic state about 16.
#[test]
fn replay_peak_heap_is_linear_in_the_rank_count() {
    use tit_replay::platform::HostId;
    use tit_replay::smpi::{prepare_smpi, FixedRateHooks, SmpiConfig};
    use tit_replay::workloads::{MpiOp, OpSource, VecSource};

    let platform = wide_cluster();
    let allreduce = |_: u32, _: u32| {
        vec![
            MpiOp::Init,
            MpiOp::Allreduce { bytes: 1 << 20 },
            MpiOp::Finalize,
        ]
    };
    let ring_shift = |r: u32, p: u32| {
        vec![
            MpiOp::Init,
            MpiOp::Irecv {
                src: (r + p - 1) % p,
                bytes: 4096,
            },
            MpiOp::Isend {
                dst: (r + 1) % p,
                bytes: 4096,
            },
            MpiOp::WaitAll,
            MpiOp::Finalize,
        ]
    };
    let peak = |ranks: u32, program: &dyn Fn(u32, u32) -> Vec<MpiOp>| {
        let hosts: Vec<HostId> = (0..ranks).map(HostId).collect();
        let sources: Vec<Box<dyn OpSource>> = (0..ranks)
            .map(|r| Box::new(VecSource::new(program(r, ranks))) as Box<dyn OpSource>)
            .collect();
        let hooks = Box::new(FixedRateHooks::uniform(1e9, ranks));
        let sim = prepare_smpi(
            &platform,
            &hosts,
            sources,
            SmpiConfig::smpi_replay(),
            hooks,
            false,
        );
        let (result, peak) = peak_live_bytes(|| sim.run().unwrap());
        assert!(result.time() > 0.0);
        peak
    };
    for (name, small_p, program) in [
        (
            "ring allreduce",
            64,
            &allreduce as &dyn Fn(u32, u32) -> Vec<MpiOp>,
        ),
        ("isend/irecv ring", 256, &ring_shift),
    ] {
        let (small, large) = (peak(small_p, program), peak(4 * small_p, program));
        let ratio = large as f64 / small as f64;
        assert!(
            ratio <= 6.0,
            "{name}: a run's peak heap over its world {small} B at P = {small_p}, \
             {large} B at P = {} (ratio {ratio:.2})",
            4 * small_p
        );
    }
}

/// Streaming a `.titb` holds one bounded window per rank, never the
/// file: opening LU S-16 and draining every rank's cursor peaks at the
/// same live heap (within 25 %) at 40 and 160 steps, though the file
/// and the action count grow fourfold.
#[test]
fn titb_streaming_memory_is_independent_of_trace_length() {
    use tit_replay::titrace::binfmt;

    let dir = std::env::temp_dir().join(format!("titr-alloc-titb-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let measure = |steps: u32| {
        let lu = LuConfig::new(LuClass::S, 16).with_steps(steps);
        let trace = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace;
        let path = dir.join(format!("lu-s16-{steps}.titb"));
        binfmt::write_file(&trace, &path, None).unwrap();
        let expected = trace.len() as u64;
        drop(trace);
        let (drained, peak) = peak_live_bytes(|| {
            let mut cursors = binfmt::open_cursors(&path, 16).unwrap();
            let mut n = 0u64;
            for cursor in &mut cursors {
                while cursor.next_action().unwrap().is_some() {
                    n += 1;
                }
            }
            n
        });
        assert_eq!(drained, expected);
        (std::fs::metadata(&path).unwrap().len(), peak)
    };
    let ((small_file, small), (large_file, large)) = (measure(40), measure(160));
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        large_file >= 3 * small_file,
        "{small_file} B vs {large_file} B"
    );
    let ratio = large as f64 / small as f64;
    assert!(
        (0.8..=1.25).contains(&ratio),
        "peak live heap {small} B at 40 steps ({small_file} B file), \
         {large} B at 160 steps ({large_file} B file): ratio {ratio:.2}"
    );
}

/// Streaming merged text holds its index buffer, the ranks' runs and one
/// bounded window per rank, never the file or its decoded actions:
/// opening LU S-16 text and draining every rank's cursor peaks at the
/// same live heap (within 25 %) at 40 and 160 steps, though the file and
/// the action count grow fourfold.
#[test]
fn text_streaming_memory_is_independent_of_trace_length() {
    use tit_replay::titrace::{files, stream};

    let dir = std::env::temp_dir().join(format!("titr-alloc-text-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let measure = |steps: u32| {
        let lu = LuConfig::new(LuClass::S, 16).with_steps(steps);
        let trace = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace;
        let path = dir.join(format!("lu-s16-{steps}.txt"));
        files::write_merged(&trace, &path).unwrap();
        let expected = trace.len() as u64;
        drop(trace);
        let (drained, peak) = peak_live_bytes(|| {
            let input = TraceInput::MergedText(path.clone());
            let mut cursors = stream::open_sources(&input, 16).unwrap();
            let mut n = 0u64;
            for cursor in &mut cursors {
                while cursor.next_action().unwrap().is_some() {
                    n += 1;
                }
            }
            n
        });
        assert_eq!(drained, expected);
        (std::fs::metadata(&path).unwrap().len(), peak)
    };
    let ((small_file, small), (large_file, large)) = (measure(40), measure(160));
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        large_file >= 3 * small_file,
        "{small_file} B vs {large_file} B"
    );
    let ratio = large as f64 / small as f64;
    assert!(
        (0.8..=1.25).contains(&ratio),
        "peak live heap {small} B at 40 steps ({small_file} B file), \
         {large} B at 160 steps ({large_file} B file): ratio {ratio:.2}"
    );
}

/// The thread decoding text ahead of a replay allocates nothing once it
/// has delivered its first batch: windows and hand-off batches are
/// allocated on the opening thread and recycled, so none of them lands
/// in that thread's glibc arena. LU S-16 text is drained a few actions
/// per rank in turn, as a replay pulls it, so every batch is refilled
/// many times over.
#[test]
fn the_decoding_thread_does_not_allocate_after_its_first_batch() {
    use tit_replay::titrace::{ahead, files};

    let dir = std::env::temp_dir().join(format!("titr-alloc-ahead-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let lu = LuConfig::new(LuClass::S, 16).with_steps(40);
    let trace = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace;
    let path = dir.join("lu-s16.txt");
    files::write_merged(&trace, &path).unwrap();
    let expected = trace.len() as u64;
    drop(trace);

    WATCH_AHEAD.store(true, Ordering::Relaxed);
    let (mut cursors, helper) = ahead::open(&TraceInput::MergedText(path), 16).unwrap();
    let mut drained = u64::from(cursors[0].next_action().unwrap().is_some());
    let first_batch = AHEAD_ALLOCS.load(Ordering::Relaxed);
    let mut open = vec![true; cursors.len()];
    while open.contains(&true) {
        for (r, cursor) in cursors.iter_mut().enumerate() {
            for _ in 0..5 {
                if !open[r] {
                    break;
                }
                match cursor.next_action().unwrap() {
                    Some(_) => drained += 1,
                    None => open[r] = false,
                }
            }
        }
    }
    drop(cursors);
    helper.finish();
    let after = AHEAD_ALLOCS.load(Ordering::Relaxed);
    WATCH_AHEAD.store(false, Ordering::Relaxed);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(drained, expected);
    assert_eq!(
        after - first_batch,
        0,
        "the decoding thread allocated {} times after its first batch ({first_batch} before)",
        after - first_batch
    );
}
