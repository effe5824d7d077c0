//! `titbench` — the repository's benchmark: wall time from "trace file +
//! platform spec" to "manifest bytes", with a per-layer breakdown, over
//! seven named workloads. See `README.md` in this directory.
//!
//! ```text
//! titbench [--seed N] [--seconds S]            every workload, tables + results.json
//! titbench --aa                                the full set twice; exit 1 on disagreement
//! titbench --workload W [--trace 0|1] ...      one workload; last stdout line is JSON
//! titbench --write-expected                    regenerate expected.json (default seed)
//! ```
//!
//! End-to-end metrics come from the shipped binaries with tracing off;
//! per-layer metrics from a separate traced run inside this process.

mod calib;
mod manifest;
mod proc;
mod report;
mod serve;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use manifest::{Expected, Facts};
use proc::Bins;
use report::{
    compare_aa, contract_json, expected_json, print_end_to_end, print_errors, print_host,
    print_per_layer, report,
};
use serve::{ServeRun, Server};
use stats::Summary;
use traced::{CliReference, Traced};
use workloads::{Inputs, ReplayRun, Sample, Workload, SERVE_SWEEP, WORKLOADS};

/// Goldens checked in for this seed; any other seed skips them.
const DEFAULT_SEED: u64 = 1;
/// Default measuring time per workload (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 8.0;
/// Timed samples per workload, however short `--seconds` is.
const MIN_SAMPLES: usize = 5;
/// Steady samples needed before the unsteady ones are left out.
const MIN_STEADY: usize = 3;
/// Set-up is repeated at least this often and until 1.5 s have gone by
/// (at most `MAX_SETUPS` times): the quick ones need many repeats for a
/// steady median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;

/// End-to-end metrics: name, unit, regression bound (share of the
/// parent's median by which the metric may worsen). All lower-is-better.
/// The wall-time bound is as wide as the harness allows: on a restless
/// host the medians of two ten-run sets of one commit, taken half an
/// hour apart, differed by up to 14 % (see README, "Reference host
/// speed"); a tighter bound would reject changes for the weather.
const END_TO_END: &[(&str, &str, f64)] = &[
    ("e2e_wall_s", "s", 0.25),
    ("peak_rss_mb", "MiB", 0.10),
    ("setup_s", "s", 0.25),
];

/// `e2e_wall_s` before scaling to reference host speed: printed and
/// written to results.json for the record, never judged.
const RAW_WALL: &str = "e2e_wall_raw_s";

/// Counts that must repeat exactly between two runs of one commit.
const EXACT_COUNTS: &[&str] = &[
    "simkernel.events",
    "runtime.messages",
    "netmodel.flows",
    "titserved.executions",
];

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    write_expected: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: titbench [--workload <name>] [--seed <n>] [--seconds <s>] [--trace 0|1] \
         [--aa] [--write-expected]\nworkloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        aa: false,
        write_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => {
                args.workload = Some(workloads::find(&value()).unwrap_or_else(|| usage()));
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage());
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    usage();
                }
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--aa" => args.aa = true,
            "--write-expected" => args.write_expected = true,
            _ => usage(),
        }
    }
    args
}

/// Where the benchmark runs and what it runs against.
struct Session {
    root: PathBuf,
    bins: Bins,
    /// Generated inputs and manifests; removed when the run ends.
    work: PathBuf,
    /// `results.json` and the Chrome traces.
    out: PathBuf,
    seed: u64,
    expected: Option<Expected>,
    host_parallelism: usize,
}

impl Session {
    fn open(seed: u64, check_goldens: bool) -> Result<Session, String> {
        // The library reads these too; the traced run must see what the
        // scrubbed children see. Nothing else is running yet.
        for var in proc::SCRUBBED_ENV {
            std::env::remove_var(var);
        }
        let root = proc::repo_root()?;
        let bins = Bins::build(&root)?;
        let out = proc::target_dir(&root).join("titbench");
        let work = out.join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&work)
            .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        let expected = if check_goldens && seed == DEFAULT_SEED {
            Some(Expected::parse(include_str!("expected.json"))?)
        } else {
            None
        };
        if let Some(e) = &expected {
            if e.seed != DEFAULT_SEED {
                return Err(format!("expected.json was recorded with seed {}", e.seed));
            }
        }
        Ok(Session {
            root,
            bins,
            work,
            out,
            seed,
            expected,
            host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        })
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// One complete set-up of `inputs`: regenerate its files and, for the
/// service's trace, start `titserved` until it listens (then stop it,
/// untimed). Returns the seconds it took.
fn set_up(session: &Session, inputs: Inputs) -> Result<f64, String> {
    let started = Instant::now();
    inputs.generate(&session.bins, &session.work, session.seed)?;
    if inputs == Inputs::LuB16 {
        let server = Server::start(&session.bins)?;
        let s = started.elapsed().as_secs_f64();
        server.stop()?;
        return Ok(s);
    }
    Ok(started.elapsed().as_secs_f64())
}

/// Times at reference host speed, kept apart by whether the host held
/// its speed under them. The summary uses the steady ones alone when
/// there are enough, and everything otherwise, so a restless host gets
/// a noisier number rather than none.
#[derive(Default)]
struct Timings {
    steady: Vec<f64>,
    unsteady: Vec<f64>,
}

impl Timings {
    fn push(&mut self, raw_s: f64, scale: calib::Scale) {
        let list = if scale.steady {
            &mut self.steady
        } else {
            &mut self.unsteady
        };
        list.push(raw_s * scale.k);
    }

    fn len(&self) -> usize {
        self.steady.len() + self.unsteady.len()
    }

    fn summary(&self) -> Option<Summary> {
        if self.steady.len() >= MIN_STEADY {
            stats::summarize(&self.steady)
        } else {
            stats::summarize(&[self.steady.as_slice(), self.unsteady.as_slice()].concat())
        }
    }
}

/// `setup_s` of one input family: the set-up repeated, never cached,
/// each repeat scaled to reference host speed.
fn measure_set_up(session: &Session, inputs: Inputs) -> Result<Summary, String> {
    let started = Instant::now();
    let mut chain = calib::Chain::start();
    let mut timings = Timings::default();
    loop {
        let raw_s = set_up(session, inputs)?;
        timings.push(raw_s, chain.next_scale());
        let elapsed = started.elapsed().as_secs_f64();
        let enough = timings.steady.len() >= MIN_SETUPS && elapsed >= 1.5;
        let give_up = timings.len() >= MIN_SETUPS && elapsed >= 4.0;
        if enough || give_up || timings.len() >= MAX_SETUPS {
            break;
        }
    }
    Ok(timings.summary().expect("at least one set-up"))
}

enum Run<'a> {
    Replay(ReplayRun<'a>),
    Serve(ServeRun<'a>),
}

impl<'a> Run<'a> {
    fn prepare(session: &'a Session, w: &'static Workload) -> Result<Run<'a>, String> {
        let expected = session.expected.as_ref();
        if w.name == SERVE_SWEEP {
            ServeRun::prepare(w, &session.bins, &session.work, session.seed, expected)
                .map(Run::Serve)
        } else {
            ReplayRun::prepare(w, &session.bins, &session.work, expected).map(Run::Replay)
        }
    }

    fn sample(&mut self) -> Sample {
        match self {
            Run::Replay(r) => r.sample(),
            Run::Serve(r) => r.sample(),
        }
    }
}

/// Everything measured about one workload.
struct Outcome {
    workload: &'static Workload,
    setup: Summary,
    /// Timed samples scaled to reference host speed (`e2e_wall_s`).
    wall: Timings,
    /// The same samples as the clock read them.
    wall_raw_s: Vec<f64>,
    rss_mib: Vec<f64>,
    /// This process's own peak RSS when the last sample was spawned: a
    /// child's `ru_maxrss` starts from its parent's size, so this is the
    /// floor under `rss_mib`.
    rss_floor_mib: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    facts: Vec<Facts>,
    traced: Option<Traced>,
}

impl Outcome {
    fn new(workload: &'static Workload, setup: Summary) -> Outcome {
        Outcome {
            workload,
            setup,
            wall: Timings::default(),
            wall_raw_s: Vec::new(),
            rss_mib: Vec::new(),
            rss_floor_mib: 0.0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            facts: Vec::new(),
            traced: None,
        }
    }

    /// Folds in one sample; `scale` is `None` for the warm-up, which
    /// counts as an operation but not as a timing (as does any sample
    /// that failed).
    fn absorb(&mut self, s: Sample, scale: Option<calib::Scale>) {
        self.attempted += s.attempted;
        self.failed += s.failed;
        if let (Some(scale), true) = (scale, s.errors.is_empty()) {
            self.wall.push(s.wall_s, scale);
            self.wall_raw_s.push(s.wall_s);
            self.rss_mib.push(s.peak_rss_mib);
        }
        self.errors.extend(s.errors);
        if !s.facts.is_empty() {
            self.facts = s.facts;
        }
    }

    fn correct(&self) -> bool {
        self.errors.is_empty() && self.traced.as_ref().is_none_or(|t| t.errors.is_empty())
    }

    /// Per-layer metric `name` from the traced run; 0 without one.
    fn layer(&self, name: &str) -> f64 {
        self.traced.as_ref().map_or(0.0, |t| t.get(name))
    }

    fn end_to_end(&self, metric: &str) -> Option<Summary> {
        match metric {
            "e2e_wall_s" => self.wall.summary(),
            RAW_WALL => stats::summarize(&self.wall_raw_s),
            "peak_rss_mb" => stats::summarize(&self.rss_mib),
            "setup_s" => Some(self.setup),
            _ => None,
        }
    }
}

/// Untraced measuring: one warm-up sample per workload, then timed
/// rounds — one sample of every workload per round, so host drift
/// spreads evenly — until `seconds` per workload have gone by and every
/// workload has `MIN_SAMPLES`.
fn measure(runs: &mut [Run], outcomes: &mut [Outcome], seconds: f64) {
    for (run, out) in runs.iter_mut().zip(outcomes.iter_mut()) {
        out.absorb(run.sample(), None);
    }
    let budget = seconds * runs.len() as f64;
    let started = Instant::now();
    let mut chain = calib::Chain::start();
    let mut rounds = 0;
    loop {
        for (run, out) in runs.iter_mut().zip(outcomes.iter_mut()) {
            let sample = run.sample();
            out.absorb(sample, Some(chain.next_scale()));
        }
        rounds += 1;
        let steady = outcomes
            .iter()
            .map(|o| o.wall.steady.len())
            .min()
            .unwrap_or(0);
        let elapsed = started.elapsed().as_secs_f64();
        // A quarter as long again for a restless host or a failing
        // workload to fill its samples, then make do with what there is.
        let enough = elapsed >= budget && steady >= MIN_SAMPLES;
        if enough || (elapsed >= 1.25 * budget && rounds >= MIN_SAMPLES) {
            break;
        }
    }
    let floor = proc::own_peak_rss_mib();
    for out in outcomes {
        out.rss_floor_mib = floor;
    }
}

/// The traced run of one workload, after its untraced samples.
fn trace(session: &Session, run: &Run, out: &mut Outcome) {
    let traced = match run {
        Run::Serve(r) => traced::trace_serve(r, &session.work),
        Run::Replay(r) => match (out.facts.first(), out.wall.summary()) {
            (Some(&facts), Some(wall)) => {
                let cli = CliReference {
                    wall_s: wall.median,
                    facts,
                };
                traced::trace_replay(r.workload, &session.work, &cli, session.host_parallelism)
            }
            _ => Err("no successful untraced sample to mirror".into()),
        },
    };
    match traced {
        Ok(t) => {
            let path = session
                .out
                .join(format!("trace-{}.json", out.workload.name));
            if let Err(e) = std::fs::write(&path, spans::chrome_trace(&t.spans)) {
                out.errors
                    .push(format!("cannot write {}: {e}", path.display()));
            }
            out.attempted += t.attempted;
            out.failed += t.failed;
            out.traced = Some(t);
        }
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.errors.push(format!("traced run failed: {e}"));
        }
    }
}

/// One pass over a list of workloads: set up and measured untraced
/// first, traced afterwards. The two phases are separate calls because
/// every untraced sample of a session must come before any traced run:
/// the traced runs replay in this process and grow it, and a child's
/// `ru_maxrss` is never below its parent's size at spawn (nor are its
/// first page touches as cheap as after a large free).
struct Set<'a> {
    runs: Vec<Run<'a>>,
    outcomes: Vec<Outcome>,
}

impl<'a> Set<'a> {
    fn measure(
        session: &'a Session,
        selected: &[&'static Workload],
        seconds: f64,
    ) -> Result<Set<'a>, String> {
        let mut setups: Vec<(Inputs, Summary)> = Vec::new();
        for w in selected {
            if !setups.iter().any(|(i, _)| *i == w.inputs) {
                setups.push((w.inputs, measure_set_up(session, w.inputs)?));
            }
        }
        let mut runs = Vec::new();
        let mut outcomes = Vec::new();
        for w in selected {
            runs.push(Run::prepare(session, w)?);
            let setup = setups
                .iter()
                .find(|(i, _)| *i == w.inputs)
                .expect("set up")
                .1;
            outcomes.push(Outcome::new(w, setup));
        }
        measure(&mut runs, &mut outcomes, seconds);
        Ok(Set { runs, outcomes })
    }

    fn trace(mut self, session: &Session) -> Vec<Outcome> {
        for (run, out) in self.runs.iter().zip(self.outcomes.iter_mut()) {
            trace(session, run, out);
        }
        self.outcomes
    }
}

fn real_main() -> Result<bool, String> {
    let args = parse_args();
    let session = Session::open(args.seed, !args.write_expected)?;
    print_host(&session);

    if let Some(w) = args.workload {
        // Harness mode: one workload; the traced variant keeps its
        // untraced reference short.
        let seconds = if args.trace {
            args.seconds.min(3.0)
        } else {
            args.seconds
        };
        let set = Set::measure(&session, &[w], seconds)?;
        let outcomes = if args.trace {
            set.trace(&session)
        } else {
            set.outcomes
        };
        print_end_to_end(&outcomes, &session);
        if args.trace {
            print_per_layer(&outcomes);
        }
        print_errors(&outcomes);
        println!("{}", contract_json(&outcomes[0], args.trace));
        // Wrong outputs are reported in the JSON, not by the exit code.
        return Ok(true);
    }

    let all: Vec<&'static Workload> = WORKLOADS.iter().collect();
    for w in &all {
        println!("workload {:<16} {}", w.name, w.why);
    }
    let first = Set::measure(&session, &all, args.seconds)?;
    // `--aa`: the second set, in reverse order, before anything is traced.
    let second = if args.aa {
        let reversed: Vec<&'static Workload> = all.iter().rev().copied().collect();
        Some(Set::measure(&session, &reversed, args.seconds)?)
    } else {
        None
    };
    let first = first.trace(&session);
    let mut ok = !report(&first, &session);
    if args.write_expected {
        if session.seed != DEFAULT_SEED || !ok {
            return Err("expected.json is only written from a clean default-seed run".into());
        }
        let path = session.root.join(proc::BENCH_DIR).join("expected.json");
        std::fs::write(&path, expected_json(&first, session.seed))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    if let Some(second) = second {
        let mut second = second.trace(&session);
        second.reverse();
        ok &= !report(&second, &session);
        ok &= compare_aa(&first, &second);
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("titbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::num;
    use serde::Value;
    use traced::PER_LAYER;

    /// `BENCHMARK.json` at the repository root is what the harness
    /// reads; the names and bounds here are what the binary emits.
    #[test]
    fn names_units_and_bounds_match_benchmark_json() {
        let doc = manifest::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let list = |key: &str| -> Vec<Value> {
            match doc.get(key) {
                Some(Value::Array(items)) => items.clone(),
                other => panic!("BENCHMARK.json '{key}' is {other:?}"),
            }
        };
        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

        let names: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        for (entry, w) in list("workloads").iter().zip(WORKLOADS) {
            assert_eq!(text(entry, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let e2e: Vec<(String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                assert_eq!(text(m, "better"), "lower");
                (
                    text(m, "name"),
                    text(m, "unit"),
                    m.get("bound").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, f64)> = END_TO_END
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), *b))
            .collect();
        assert_eq!(e2e, ours);
        let layers: Vec<(String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect();
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(layers, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
        assert!(EXACT_COUNTS
            .iter()
            .all(|c| PER_LAYER.iter().any(|(n, _)| n == c)));
    }

    #[test]
    fn unsteady_timings_count_only_when_steady_ones_are_scarce() {
        let steady = calib::Scale {
            k: 1.0,
            steady: true,
        };
        let unsteady = calib::Scale {
            k: 2.0,
            steady: false,
        };
        let mut t = Timings::default();
        assert!(t.summary().is_none());
        t.push(5.0, unsteady);
        t.push(1.0, steady);
        t.push(1.0, steady);
        assert_eq!(t.summary().map(|s| (s.n, s.max)), Some((3, 10.0)));
        t.push(1.0, steady);
        assert_eq!(t.summary().map(|s| (s.n, s.max)), Some((3, 1.0)));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn contract_line_has_every_metric_and_only_finite_numbers() {
        let setup = stats::summarize(&[0.5, 0.7, 0.6]).unwrap();
        let mut out = Outcome::new(&WORKLOADS[0], setup);
        out.absorb(
            Sample {
                wall_s: 1.25,
                peak_rss_mib: 100.5,
                attempted: 1,
                ..Sample::default()
            },
            Some(calib::Scale {
                k: 0.5,
                steady: true,
            }),
        );
        let line = contract_json(&out, false);
        let v = manifest::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(1.0));
        let metrics = v.get("metrics").unwrap();
        assert_eq!(metrics.as_object().unwrap().len(), END_TO_END.len());
        let value = |m: &str| {
            metrics
                .get(m)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
        };
        assert_eq!(value("e2e_wall_s"), Some(0.625));
        assert_eq!(out.wall_raw_s, [1.25]);
        assert_eq!(value("peak_rss_mb"), Some(100.5));
        assert_eq!(value("setup_s"), Some(0.6));

        let mut failing = Sample {
            attempted: 1,
            ..Sample::default()
        };
        failing.fail("boom".into());
        out.absorb(
            failing,
            Some(calib::Scale {
                k: 1.0,
                steady: true,
            }),
        );
        assert!(!out.correct());
        assert_eq!((out.attempted, out.failed, out.wall.len()), (2, 1, 1));
        let traced = manifest::parse(&contract_json(&out, true)).unwrap();
        let metrics = traced.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(num(f64::NAN), "0");
    }
}
