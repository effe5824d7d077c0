//! Generating a trace holds chunks, not the trace: acquiring LU W-4
//! through the per-rank sources `titrace-gen` writes from, then packing
//! the text as `titreplay trace pack` does, peaks at the same live heap
//! at 3 and at 12 steps. The writers encode ranks on worker threads, so
//! the heap is counted process-wide by a global allocator this binary
//! owns; the binary holds one test, so nothing else allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tit_replay::acquisition::action_sources;
use tit_replay::prelude::*;
use tit_replay::titrace::{binfmt, files, stream};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

struct CountingAlloc;

// SAFETY: pure delegation to `System`; the counters are statistics and
// publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result and the peak live heap above the
/// level at entry.
fn peak_live_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(before))
}

#[test]
fn generating_and_packing_hold_chunks_not_the_trace() {
    let dir = std::env::temp_dir().join(format!("titr-gen-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let measure = |steps: u32| {
        let text = dir.join(format!("lu-a8-{steps}.trace"));
        let titb = dir.join(format!("lu-a8-{steps}.titb"));
        let lu = LuConfig::new(LuClass::A, 8).with_steps(steps);
        let (actions, peak) = peak_live_bytes(|| {
            let sources =
                action_sources(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1);
            let written = files::write_merged_sources(sources, &text)
                .unwrap()
                .unwrap();
            let input = TraceInput::MergedText(text.clone());
            let packed =
                binfmt::write_sources(stream::open_sources(&input, 8).unwrap(), &titb, None)
                    .unwrap()
                    .unwrap();
            assert_eq!(packed, written);
            written
        });
        let bytes = std::fs::metadata(&text).unwrap().len();
        (actions, bytes, peak)
    };
    let (short_actions, short_bytes, short) = measure(12);
    let (long_actions, long_bytes, long) = measure(48);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        long_actions >= 3 * short_actions,
        "{short_actions} then {long_actions} actions"
    );
    // The trace alone, decoded, would take 24 bytes an action.
    let grown = 24 * (long_actions - short_actions) as usize;
    assert!(
        long <= short + grown / 32,
        "generation and pack peak at {short} B for {short_actions} actions ({short_bytes} B of \
         text), then at {long} B for {long_actions} ({long_bytes} B)"
    );
}
