//! Allocation gates: the two zero-steady-state-allocation claims of the
//! event core and the observability layer, measured with a counting
//! global allocator this test binary owns. The count is per thread, so
//! the tests do not disturb each other or the harness; everything
//! measured runs on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use tit_replay::prelude::*;
use tit_replay::simkernel::queue::{EventKind, EventQueue};
use tit_replay::simkernel::Time;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: pure delegation to `System`, plus a bump of a const-initialised
// thread-local `Cell` that has no destructor and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
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

/// A warmed-up event queue recycles its buffers: the second half of a
/// hold-model churn (4096 live events, 65 536 hold ops, epoch turnover
/// and stale skips included) performs no allocation at all.
#[test]
fn ladder_steady_state_does_not_allocate() {
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
        warm.reseeds > 1 && warm.spills > 0 && warm.stale_popped > 0,
        "warm-up must turn the epoch over: {warm:?}"
    );
    let ((), steady) = allocations(|| hold_ops(&mut q, ops / 2..ops, &mut rng));
    assert!(q.profile().reseeds > warm.reseeds);
    assert_eq!(steady, 0, "ladder steady state allocated");
}

/// The observed entry point with recording off may pay a per-run constant
/// over the plain one (the metrics snapshot), but the difference must not
/// grow with the workload — that would mean the disabled recorder
/// allocates per event.
#[test]
fn disabled_recorder_allocation_overhead_is_a_per_run_constant() {
    let platform = tit_replay::platform::clusters::bordereau();
    let cfg = ReplayConfig {
        threads: 1,
        ..ReplayConfig::improved(2e9)
    };
    let deltas: Vec<i64> = [2u32, 8]
        .into_iter()
        .map(|steps| {
            let lu = LuConfig::new(LuClass::S, 8).with_steps(steps);
            let trace =
                Arc::new(acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace);
            // Warm-up so the counted runs see steady-state behaviour only.
            replay(&platform, &trace, &cfg).unwrap();
            let (plain, plain_allocs) = allocations(|| replay(&platform, &trace, &cfg).unwrap());
            let (report, observed_allocs) =
                allocations(|| replay_observed(&platform, &trace, &cfg, false).unwrap());
            assert!(report.spans.is_none(), "disabled recorder produced spans");
            assert_eq!(plain.time.to_bits(), report.result.time.to_bits());
            observed_allocs as i64 - plain_allocs as i64
        })
        .collect();
    assert_eq!(
        deltas[0], deltas[1],
        "disabled-recorder allocation overhead scales with the workload"
    );
}
