//! Shared infrastructure of the experiment harness.
//!
//! One binary per paper table/figure lives in `src/bin/`; this library
//! provides the common pieces: instance grids, option parsing, table
//! rendering, and the three experiment drivers (overhead tables,
//! instruction-discrepancy figures, accuracy figures).

#![deny(missing_docs)]
#![deny(unsafe_code)]

use tit_replay::acquisition::{mean_rank_counters, CompilerOpt, Instrumentation};
use tit_replay::emulator::Testbed;
use tit_replay::metrics::ExperimentRecord;
use tit_replay::prelude::*;
use tit_replay::simkernel::stats::Summary;

/// Default time-step count for harness runs. All reported quantities
/// (times, instruction counts) scale linearly in the step count, so a
/// reduced run reproduces the paper's *relative* numbers exactly while
/// absolute times are `steps/250` of the official instances; pass
/// `--full` for the official 250 steps.
pub const DEFAULT_STEPS: u32 = 25;

/// Runs of the counter experiments to average (the paper uses ten).
pub const COUNTER_RUNS: u32 = 10;

/// Harness options parsed from the command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// LU time steps per instance.
    pub steps: u32,
    /// Emit records as JSON instead of a text table.
    pub json: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Options {
    /// Parses `--steps N`, `--full`, `--json`, `--seed N` from argv.
    pub fn from_args() -> Options {
        let mut opts = Options {
            steps: DEFAULT_STEPS,
            json: false,
            seed: 42,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--steps" => {
                    let v = args.next().expect("--steps needs a value");
                    opts.steps = v.parse().expect("--steps needs an integer");
                }
                "--full" => opts.steps = 250,
                "--json" => opts.json = true,
                "--seed" => {
                    let v = args.next().expect("--seed needs a value");
                    opts.seed = v.parse().expect("--seed needs an integer");
                }
                "--help" | "-h" => {
                    eprintln!(
                        "options: [--steps N | --full] [--json] [--seed N]\n\
                         default: --steps {DEFAULT_STEPS} (all quantities scale linearly)"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown option `{other}`"),
            }
        }
        opts
    }

    /// An LU instance at this option set's step count.
    pub fn instance(&self, class: LuClass, procs: u32) -> LuConfig {
        LuConfig::new(class, procs).with_steps(self.steps)
    }
}

/// The paper's bordereau instance grid (Table 1, Figures 1/3/4/6).
pub fn bordereau_grid() -> Vec<(LuClass, u32)> {
    let mut v = Vec::new();
    for class in [LuClass::B, LuClass::C] {
        for procs in [8u32, 16, 32, 64] {
            v.push((class, procs));
        }
    }
    v
}

/// The paper's graphene instance grid (Table 2, Figures 2/5/7 — up to
/// 128 processes).
pub fn graphene_grid() -> Vec<(LuClass, u32)> {
    let mut v = Vec::new();
    for class in [LuClass::B, LuClass::C] {
        for procs in [8u32, 16, 32, 64, 128] {
            v.push((class, procs));
        }
    }
    v
}

/// Renders records as a fixed-width text table with the given value
/// columns, or JSON with `--json`.
pub fn emit(records: &[ExperimentRecord], columns: &[&str], opts: &Options) {
    if opts.json {
        println!("{}", ExperimentRecord::to_json(records));
        return;
    }
    print!("{:<10}{:<12}{:<10}", "exp", "cluster", "instance");
    for c in columns {
        print!("{c:>18}");
    }
    println!();
    let width = 32 + 18 * columns.len();
    println!("{}", "-".repeat(width));
    for r in records {
        print!("{:<10}{:<12}{:<10}", r.experiment, r.cluster, r.instance);
        for c in columns {
            match r.value(c) {
                Some(v) => print!("{v:>18.3}"),
                None => print!("{:>18}", "-"),
            }
        }
        println!();
    }
}

// ----------------------------------------------------------------------
// Parallel sweeps
// ----------------------------------------------------------------------

/// Parallel execution of independent experiment cells.
///
/// Every cell of an experiment grid (one `(class, procs)` instance) is an
/// independent simulation, so the drivers fan cells out over a scoped
/// worker pool. Results land in index-ordered slots and per-cell log
/// output is buffered and emitted in grid order, so a parallel sweep's
/// output is byte-identical to a sequential one — only the wall-clock
/// time changes.
pub mod sweep {
    use std::sync::Mutex;

    /// Chooses the worker count for `cells` work items: the
    /// `TITR_SWEEP_THREADS` environment variable when set (a value of 1
    /// forces sequential execution), otherwise the machine's available
    /// parallelism, never more than the number of cells.
    pub fn worker_count(cells: usize) -> usize {
        let workers = std::env::var("TITR_SWEEP_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        workers.min(cells).max(1)
    }

    /// Runs `f(i, &items[i])` for every item on [`worker_count`] workers
    /// and returns the outputs in item order.
    pub fn run<I, T, F>(items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        run_with_workers(items, worker_count(items.len()), f)
    }

    /// Like [`run`] with an explicit worker count. `workers <= 1`
    /// degenerates to a plain in-order loop; any other count yields the
    /// same output vector (slots are keyed by item index, and cells are
    /// independent), which the determinism tests verify.
    pub fn run_with_workers<I, T, F>(items: &[I], workers: usize, f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        if workers <= 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
        }
        let mut slots: Vec<Option<T>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        let slots = Mutex::new(slots);
        let next = Mutex::new(0usize);
        std::thread::scope(|s| {
            for _ in 0..workers.min(items.len()) {
                s.spawn(|| loop {
                    let i = {
                        let mut n = next.lock().expect("sweep counter poisoned");
                        let i = *n;
                        *n += 1;
                        i
                    };
                    let Some(item) = items.get(i) else { break };
                    let out = f(i, item);
                    slots.lock().expect("sweep slots poisoned")[i] = Some(out);
                });
            }
        });
        slots
            .into_inner()
            .expect("sweep slots poisoned")
            .into_iter()
            .map(|slot| slot.expect("worker exited before filling its slot"))
            .collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn parallel_output_matches_sequential() {
            let items: Vec<u64> = (0..37).collect();
            let f = |i: usize, x: &u64| (i as u64) * 1000 + x * x;
            let sequential = run_with_workers(&items, 1, f);
            for workers in [2, 4, 16] {
                assert_eq!(run_with_workers(&items, workers, f), sequential);
            }
        }

        #[test]
        fn slow_early_cells_do_not_reorder_results() {
            // Earlier cells sleep longer, so later cells finish first;
            // slot ordering must hide that entirely.
            let items: Vec<u64> = (0..8).collect();
            let out = run_with_workers(&items, 4, |i, x| {
                std::thread::sleep(std::time::Duration::from_millis(8 - i as u64));
                *x
            });
            assert_eq!(out, items);
        }

        #[test]
        fn worker_count_is_positive_and_capped() {
            assert_eq!(worker_count(0), 1);
            assert_eq!(worker_count(1), 1);
            assert!(worker_count(1000) >= 1);
        }
    }
}

/// Emits each cell's buffered log to stderr in grid order and unwraps
/// the records.
fn collect_cells(cells: Vec<(ExperimentRecord, String)>) -> Vec<ExperimentRecord> {
    cells
        .into_iter()
        .map(|(record, log)| {
            eprint!("{log}");
            record
        })
        .collect()
}

// ----------------------------------------------------------------------
// Experiment drivers
// ----------------------------------------------------------------------

/// Driver for Tables 1-2: original vs instrumented execution times, for
/// the legacy acquisition (TAU fine, `-O0`) and the modified one
/// (minimal, `-O3`).
pub fn overhead_table(
    experiment: &str,
    testbed: &Testbed,
    grid: &[(LuClass, u32)],
    opts: &Options,
) -> Vec<ExperimentRecord> {
    let cells = sweep::run(grid, |_, (class, procs)| {
        let lu = opts.instance(*class, *procs);
        let legacy = testbed
            .overhead_lu(&lu, Instrumentation::legacy_default(), CompilerOpt::O0)
            .unwrap_or_else(|e| panic!("{}: {e}", lu.label()));
        let modified = testbed
            .overhead_lu(&lu, Instrumentation::Minimal, CompilerOpt::O3)
            .unwrap_or_else(|e| panic!("{}: {e}", lu.label()));
        let record = ExperimentRecord::new(experiment, &testbed.platform.name, lu.label())
            .with("old_orig_s", legacy.original)
            .with("old_instr_s", legacy.instrumented)
            .with("old_overhead_pct", legacy.overhead_percent())
            .with("new_orig_s", modified.original)
            .with("new_instr_s", modified.instrumented)
            .with("new_overhead_pct", modified.overhead_percent());
        let log = format!(
            "  {}: old {:.2}s -> {:.2}s (+{:.1}%) | new {:.2}s -> {:.2}s (+{:.1}%)\n",
            lu.label(),
            legacy.original,
            legacy.instrumented,
            legacy.overhead_percent(),
            modified.original,
            modified.instrumented,
            modified.overhead_percent()
        );
        (record, log)
    });
    collect_cells(cells)
}

/// Driver for Figures 1/2/4/5: per-process distribution of the relative
/// difference of measured instruction counts between an instrumented
/// mode and the coarse reference.
pub fn counter_discrepancy_figure(
    experiment: &str,
    cluster: &str,
    grid: &[(LuClass, u32)],
    mode: Instrumentation,
    compiler: CompilerOpt,
    opts: &Options,
) -> Vec<ExperimentRecord> {
    let cells = sweep::run(grid, |_, (class, procs)| {
        let lu = opts.instance(*class, *procs);
        let coarse = mean_rank_counters(
            || lu.sources(),
            Instrumentation::Coarse,
            compiler,
            opts.seed,
            COUNTER_RUNS,
        );
        let instrumented = mean_rank_counters(
            || lu.sources(),
            mode,
            compiler,
            opts.seed.wrapping_add(0x5851F42D4C957F2D),
            COUNTER_RUNS,
        );
        let diffs: Vec<f64> = instrumented
            .iter()
            .zip(coarse.iter())
            .map(|(i, c)| (i - c) / c * 100.0)
            .collect();
        let s = Summary::of(&diffs).expect("non-empty rank set");
        let record = ExperimentRecord::new(experiment, cluster, lu.label())
            .with("min_pct", s.min)
            .with("q1_pct", s.q1)
            .with("median_pct", s.median)
            .with("q3_pct", s.q3)
            .with("max_pct", s.max)
            .with("mean_pct", s.mean);
        let log = format!("  {}: {}\n", lu.label(), s);
        (record, log)
    });
    collect_cells(cells)
}

/// Driver for Figures 3/6/7: relative error between emulated-real and
/// simulated execution times over the instance grid, under one pipeline.
pub fn accuracy_figure(
    experiment: &str,
    testbed: &Testbed,
    grid: &[(LuClass, u32)],
    pipeline: Pipeline,
    opts: &Options,
) -> Vec<ExperimentRecord> {
    // Calibration happens once, up front; only the per-instance
    // predictions fan out.
    let predictor = Predictor::new(testbed, pipeline, opts.seed).expect("calibration failed");
    let cells = sweep::run(grid, |_, (class, procs)| {
        let lu = opts.instance(*class, *procs);
        let p = predictor
            .predict(&lu, opts.seed.wrapping_add(u64::from(*procs)))
            .unwrap_or_else(|e| panic!("{}: {e}", lu.label()));
        let record = ExperimentRecord::new(experiment, &testbed.platform.name, lu.label())
            .with("real_s", p.real_seconds)
            .with("simulated_s", p.simulated_seconds)
            .with("rel_err_pct", p.relative_error_percent())
            .with("rate_ips", p.calibrated_rate);
        let log = format!(
            "  {}: real {:.2}s sim {:.2}s err {:+.1}%\n",
            lu.label(),
            p.real_seconds,
            p.simulated_seconds,
            p.relative_error_percent()
        );
        (record, log)
    });
    collect_cells(cells)
}
