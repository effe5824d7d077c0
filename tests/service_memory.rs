//! Memory gate of the prediction service, measured with a counting
//! global allocator this test binary owns: the trace store keeps each
//! trace opened, not decoded, and an execution streams it through
//! bounded per-rank windows, so neither what the store retains nor the
//! peak of a replay grows with the trace's length. The counts are per
//! thread and everything measured runs on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tit_replay::prelude::*;
use tit_replay::titrace::binfmt;
use titserved::query::{self, TraceStore, WhatIfQuery};

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
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
        live(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        live(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// This thread's live heap bytes `f` leaves behind.
fn retained_bytes<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get) - before)
}

/// The peak of this thread's live heap bytes while `f` runs, above the
/// level at entry.
fn peak_live_bytes<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    (out, PEAK.with(Cell::get) - before)
}

/// Resolving LU S-16 `.titb` through the store and predicting it on a
/// 16-node cluster retains the same heap in the store and peaks at the
/// same heap during the execution (each within 25 %) at 40 and 160 steps,
/// though the file and the action count grow fourfold.
#[test]
fn store_and_execution_memory_are_independent_of_trace_length() {
    let dir = std::env::temp_dir().join(format!("titserved-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let measure = |steps: u32| {
        let lu = LuConfig::new(LuClass::S, 16).with_steps(steps);
        let trace = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace;
        let path = dir.join(format!("lu-s16-{steps}.titb"));
        binfmt::write_file(&trace, &path, None).unwrap();
        let actions = trace.len() as u64;
        drop(trace);
        let body = format!(
            "{{\"trace\": \"{}\", \"ranks\": 16, \"config\": {{\"rate\": 2e9, \"threads\": 1}}, \
             \"platform\": {{\"name\": \"mem\", \"kind\": {{\"Flat\": {{\"nodes\": 16, \
             \"host_speed\": 1e9, \"cores\": 1, \"cache_bytes\": 1048576, \
             \"link_bandwidth\": 1.25e8, \"link_latency\": 2.5e-5, \
             \"backbone_bandwidth\": 1.25e9, \"backbone_latency\": 5e-6}}}}}}}}",
            path.display()
        );
        let q = WhatIfQuery::parse(&body).unwrap();
        let store = TraceStore::new();
        let ((), retained) = retained_bytes(|| {
            store.resolve(&q.trace, q.ranks, true).unwrap();
        });
        // A store hit: the same opened handle.
        let resolved = store.resolve(&q.trace, q.ranks, true).unwrap();
        assert_eq!(resolved.checksum, header_checksum(&path));
        assert_eq!(resolved.trace.len(), actions);
        let (manifest, peak) = peak_live_bytes(|| query::execute(&q, &resolved).unwrap());
        assert!(manifest.contains("\"simulated_time_s\""), "{manifest}");
        (std::fs::metadata(&path).unwrap().len(), retained, peak)
    };
    let (small_file, small_store, small_peak) = measure(40);
    let (large_file, large_store, large_peak) = measure(160);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        large_file >= 3 * small_file,
        "{small_file} B vs {large_file} B"
    );
    for (what, small, large) in [
        ("store retains", small_store, large_store),
        ("execution peaks at", small_peak, large_peak),
    ] {
        let ratio = large as f64 / small as f64;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "the {what} {small} B at 40 steps ({small_file} B file), \
             {large} B at 160 steps ({large_file} B file): ratio {ratio:.2}"
        );
    }
}

/// The checksum a 16-rank `.titb` carries in its header.
fn header_checksum(path: &std::path::Path) -> u64 {
    binfmt::TitbFile::open(path, 16).unwrap().header().checksum
}
