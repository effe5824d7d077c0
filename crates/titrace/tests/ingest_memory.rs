//! Memory bound of trace ingest, counted at the allocator — no timing,
//! no RSS sampling. A merged-text `load_trace` must hold the decoded
//! trace plus a fixed buffer, never the file: reading the file whole
//! fails the first test, and growing a buffer to fit a line without a newline fails the
//! second. The third holds a whole-trace load of a `.titb` to the
//! decoded trace plus its windows, and the fourth holds `trace pack`'s
//! writer to the same peak at two trace lengths.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use titrace::files::FileError;
use titrace::{binfmt, stream};
use titrace::{Action, Rank, Trace, TraceInput};

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

/// One test at a time: the counters are process-wide and the test
/// harness runs tests on parallel threads, so each test holds this for
/// its whole run — setup and teardown allocate too.
static WINDOW: Mutex<()> = Mutex::new(());

fn alone() -> std::sync::MutexGuard<'static, ()> {
    WINDOW.lock().unwrap_or_else(|e| e.into_inner())
}

const MIB: usize = 1 << 20;

/// Runs `f` and returns its result, the peak live heap above the level
/// at entry, and the heap still live at exit above that level.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
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
    let _alone = alone();
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

    let input = TraceInput::MergedText(path.clone());
    let (trace, peak, kept) = measured(|| stream::load_trace(&input, RANKS).unwrap());
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
    let _alone = alone();
    let path = temp_file("no-newline.trace");
    std::fs::write(&path, vec![b'A'; MIB]).unwrap();
    let input = TraceInput::MergedText(path.clone());
    let (result, peak, _) = measured(|| stream::load_trace(&input, 4));
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

/// A whole-trace load of a `.titb` decodes through the replay's windowed
/// cursors: it peaks at the decoded trace plus the checksum pass's 64 KiB
/// buffer and one 16 KiB window, never the file.
#[test]
fn reading_a_titb_holds_the_trace_and_a_window_not_the_file() {
    let _alone = alone();
    const RANKS: u32 = 32;
    const ITERS: u64 = 2600;
    let mut trace = Trace::new(RANKS);
    for r in 0..RANKS {
        let (left, right) = (Rank((r + RANKS - 1) % RANKS), Rank((r + 1) % RANKS));
        trace.push(Rank(r), Action::Init);
        for i in 0..ITERS {
            let bytes = 70_000 + i;
            trace.push(Rank(r), Action::Irecv { src: left, bytes });
            trace.push(Rank(r), Action::Irecv { src: right, bytes });
            trace.push(Rank(r), Action::Isend { dst: right, bytes });
            trace.push(Rank(r), Action::Isend { dst: left, bytes });
            trace.push(Rank(r), Action::Compute { amount: 0.5 });
            trace.push(Rank(r), Action::WaitAll);
        }
        trace.push(Rank(r), Action::Finalize);
    }
    let path = temp_file("halo.titb");
    binfmt::write_file(&trace, &path, None).unwrap();
    let file_bytes = std::fs::metadata(&path).unwrap().len() as usize;
    assert!(file_bytes >= 2 * MIB, "the file is only {file_bytes} bytes");

    let input = TraceInput::Binary(path.clone());
    let (read, peak, kept) = measured(|| stream::load_trace(&input, RANKS).unwrap());
    std::fs::remove_file(&path).unwrap();
    assert_eq!(read, trace);
    assert!(
        peak <= kept + 128 * 1024,
        "peak {peak} exceeds trace {kept} + 128 KiB (file: {file_bytes} bytes)"
    );
}

/// Writes a rank-major halo-like text trace of `iters` iterations per
/// rank to `path`; returns its action count.
fn write_halo_text(path: &std::path::Path, ranks: u32, iters: usize) -> u64 {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).unwrap());
    for r in 0..ranks {
        let (left, right) = ((r + ranks - 1) % ranks, (r + 1) % ranks);
        writeln!(out, "p{r} init").unwrap();
        for i in 0..iters {
            writeln!(out, "p{r} irecv p{left} {i}\np{r} irecv p{right} {i}").unwrap();
            writeln!(out, "p{r} isend p{right} {i}\np{r} isend p{left} {i}").unwrap();
            writeln!(out, "p{r} compute 100000\np{r} waitall").unwrap();
        }
        writeln!(out, "p{r} finalize").unwrap();
    }
    out.into_inner().unwrap().sync_all().unwrap();
    u64::from(ranks) * (6 * iters as u64 + 2)
}

/// `trace pack` writes the `.titb` from the input's own per-rank cursors
/// (`write_sources(open_sources(..))`), so packing merged text peaks at
/// the same heap at two trace lengths 4x apart: the index pass's buffer,
/// then one window per rank. Loading the trace before writing it grows
/// with the trace.
#[test]
fn packing_a_text_trace_holds_windows_not_the_trace() {
    let _alone = alone();
    const RANKS: u32 = 8;
    let peaks = |iters: usize| {
        let text = temp_file(&format!("pack-{iters}.trace"));
        let out = temp_file(&format!("pack-{iters}.titb"));
        let actions = write_halo_text(&text, RANKS, iters);
        let input = TraceInput::MergedText(text.clone());
        let (written, streamed, _) = measured(|| {
            let sources = stream::open_sources(&input, RANKS).unwrap();
            binfmt::write_sources(sources, &out, None).unwrap().unwrap()
        });
        assert_eq!(written, actions);
        let ((), whole, _) = measured(|| {
            let trace = stream::load_trace(&input, RANKS).unwrap();
            binfmt::write_file(&trace, &out, None).unwrap();
        });
        std::fs::remove_file(&text).unwrap();
        std::fs::remove_file(&out).unwrap();
        (streamed, whole)
    };
    let (short, short_whole) = peaks(2000);
    let (long, long_whole) = peaks(8000);
    assert_eq!(
        short, long,
        "packing peaks at {short} B, then at {long} B 4x longer"
    );
    assert!(
        long_whole as f64 > 2.5 * short_whole as f64,
        "a whole-trace pack peaks at {short_whole} B, then at {long_whole} B 4x longer"
    );
}
