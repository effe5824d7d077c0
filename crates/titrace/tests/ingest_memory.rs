//! Memory bound of merged-text ingest, counted at the allocator — no
//! timing, no RSS sampling. `load_merged` must hold the decoded trace
//! plus a fixed buffer, never the file: reading the file whole (what it
//! did before the streaming decoder) fails the first test, and growing a
//! buffer to fit a line without a newline fails the second.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use titrace::files::FileError;
use titrace::stream;
use titrace::Action;

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

/// One measurement at a time: the counters are process-wide and the
/// test harness runs tests on parallel threads.
static WINDOW: Mutex<()> = Mutex::new(());

const MIB: usize = 1 << 20;

/// Runs `f` and returns its result, the peak live heap above the level
/// at entry, and the heap still live at exit above that level.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(before);
    let kept = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    (out, peak, kept)
}

fn temp_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("titrace-mem-{}-{name}", std::process::id()))
}

#[test]
fn loading_a_text_trace_holds_the_trace_and_a_buffer_not_the_file() {
    const RANKS: u32 = 32;
    const ITERS: usize = 2600;
    let path = temp_file("halo.trace");
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    for r in 0..RANKS {
        let (left, right) = ((r + RANKS - 1) % RANKS, (r + 1) % RANKS);
        writeln!(out, "p{r} init").unwrap();
        for _ in 0..ITERS {
            writeln!(out, "p{r} irecv p{left} 70000\np{r} irecv p{right} 70000").unwrap();
            writeln!(out, "p{r} isend p{right} 70000\np{r} isend p{left} 70000").unwrap();
            writeln!(out, "p{r} compute 100000\np{r} waitall").unwrap();
        }
        writeln!(out, "p{r} finalize").unwrap();
    }
    out.into_inner().unwrap().sync_all().unwrap();
    let file_bytes = std::fs::metadata(&path).unwrap().len() as usize;
    assert!(file_bytes >= 8 * MIB, "the file is only {file_bytes} bytes");

    let (trace, peak, kept) = measured(|| stream::load_merged(&path, RANKS).unwrap());
    std::fs::remove_file(&path).unwrap();

    let actions = trace.len();
    assert_eq!(actions, RANKS as usize * (6 * ITERS + 2));
    // What the trace keeps is its action lists, at most doubled by
    // amortised growth...
    let exact = actions * std::mem::size_of::<Action>();
    assert!(
        (exact..=2 * exact + MIB).contains(&kept),
        "kept {kept} for {exact}"
    );
    // ...and on top of that the decoder may hold its read buffer, which
    // is well below the file it would otherwise have read whole.
    assert!(
        peak <= kept + 2 * MIB,
        "peak {peak} exceeds trace {kept} + 2 MiB (file: {file_bytes} bytes)"
    );
}

#[test]
fn a_file_without_newlines_is_an_error_not_an_allocation() {
    let path = temp_file("no-newline.trace");
    std::fs::write(&path, vec![b'A'; MIB]).unwrap();
    let (result, peak, _) = measured(|| stream::load_merged(&path, 4));
    std::fs::remove_file(&path).unwrap();
    match result {
        Err(FileError::Parse(_, e)) => {
            assert_eq!(e.line, 1);
            assert_eq!(e.message, "line exceeds 65536 bytes");
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    assert!(peak < 2 * MIB, "peak live heap {peak}");
}
