//! `titreplay` — replay a time-independent trace file on a platform
//! description, mirroring the paper's `smpirun ... ./smpi_replay
//! trace_description` workflow.
//!
//! ```text
//! titreplay [replay] --platform platform.json --trace trace.txt --ranks 8 \
//!           --rate 2.05e9 [--engine smpi|msg] [--threads N] \
//!           [--validate] [--no-cache] \
//!           [--trace-out <out.json>] [--state-csv <out.csv>] \
//!           [--metrics <out.json>] [--manifest <out.json>] \
//!           [--critical-path [out.json]]
//! titreplay inspect --trace <trace.txt|.desc|.titb> --ranks 8 \
//!           [--platform platform.json] \
//!           [--profile [--threads N]] [--profile-json <out.json>] [--rate <instr/s>]
//! titreplay trace pack <trace.txt|trace.desc> <out.titb> --ranks 8
//! titreplay trace unpack <in.titb> <out.txt>
//! ```
//!
//! The trace argument may be merged text, a `.desc` description file, or
//! a packed `.titb` binary — the format is sniffed from the content.
//! Merged text replays keep a `.titb` side-car next to the source
//! (keyed on its size+mtime) so repeat replays skip the text parse;
//! `--no-cache` disables both reading and writing it. Prints the
//! simulated execution time. `trace pack` and `trace unpack` stream the
//! input through the per-rank cursors a replay reads, one rank at a time,
//! so they hold O(ranks · window) of the trace whatever its length
//! (16 KiB windows, less past 4 096 ranks).
//!
//! Observability flags: `--trace-out` writes a Chrome-trace (Perfetto)
//! JSON of per-rank simulated-time spans and network flows,
//! `--state-csv` the same data as a flat state timeline, `--metrics` the
//! unified counter snapshot, `--manifest` the run-provenance record, and
//! `--critical-path` reports the makespan-determining chain (with an
//! optional JSON output path). `titreplay inspect` summarises a trace —
//! ranks, action mix, volumes — without replaying it; with `--platform`
//! it also reports the parallel-replay partition (coupling islands,
//! lookahead bound, action balance).
//! `inspect --profile` additionally runs one parallel replay
//! (`--threads`, default >= 2; `--rate`, default 2e9) and prints the
//! wall-clock execution profile — per-worker work and wall time and the
//! load-imbalance ratio; `--profile-json` writes the same breakdown as
//! JSON. Profiling never changes simulated results (the profile holds
//! the only wall-clock figures).
//!
//! `--threads N` replays decoupled rank groups (coupling islands) on N
//! worker threads (default: `TITR_REPLAY_THREADS`, else 1); a trace that
//! forms one coupled component replays sequentially. Results are
//! bit-identical to the sequential replay at any thread count.

use std::path::Path;

use tit_replay::prelude::*;
use tit_replay::titrace::stream::{self, CacheOutcome};
use tit_replay::titrace::{binfmt, files, TraceInput, TraceStats};

struct Args {
    platform: String,
    trace: String,
    ranks: u32,
    rate: f64,
    engine: ReplayEngine,
    threads: Option<usize>,
    validate: bool,
    cache: bool,
    trace_out: Option<String>,
    state_csv: Option<String>,
    metrics: Option<String>,
    manifest: Option<String>,
    critical_path: bool,
    critical_path_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: titreplay [replay] --platform <platform.json> --trace <trace.txt|.desc|.titb> \
         --ranks <N> --rate <instr/s> [--engine smpi|msg] [--threads <N>] \
         [--validate] [--no-cache]\n\
         \x20          [--trace-out <chrome.json>] [--state-csv <states.csv>]\n\
         \x20          [--metrics <metrics.json>] [--manifest <manifest.json>]\n\
         \x20          [--critical-path [path.json]]\n\
         \x20      titreplay inspect --trace <trace.txt|.desc|.titb> --ranks <N> \
         [--platform <platform.json>]\n\
         \x20          [--profile [--threads <N>]] [--profile-json <out.json>] [--rate <instr/s>]\n\
         \x20      titreplay trace pack <in.txt|in.desc> <out.titb> --ranks <N>\n\
         \x20      titreplay trace unpack <in.titb> <out.txt>"
    );
    std::process::exit(2);
}

/// `flag`'s `value` parsed, if it parses and passes `valid`.
fn parse_flag<T: std::str::FromStr>(
    value: Option<&String>,
    valid: impl Fn(&T) -> bool,
) -> Option<T> {
    value.and_then(|v| v.parse().ok()).filter(valid)
}

/// `flag`'s `value` parsed and passing `valid`, else a usage error
/// (exit 2) that names the flag and what it `expects`.
fn flag_or_usage<T: std::str::FromStr>(
    flag: &str,
    expects: &str,
    value: Option<&String>,
    valid: impl Fn(&T) -> bool,
) -> T {
    parse_flag(value, valid).unwrap_or_else(|| {
        let got = value.map_or("nothing", String::as_str);
        eprintln!("titreplay: {flag} expects {expects}, got '{got}'");
        usage()
    })
}

/// Whether `rate` can time a compute: positive and finite.
fn valid_rate(rate: &f64) -> bool {
    rate.is_finite() && *rate > 0.0
}

/// `titreplay trace pack|unpack` — convert between the text and binary
/// trace formats. Both stream the input's per-rank cursors through the
/// writers' ordered per-rank pipeline (decoding and encoding on every
/// core, written in rank order), so they hold O(ranks · window) of the
/// trace plus a few chunks per core, never all of it.
fn trace_command(args: &[String]) -> ! {
    let sub = args.first().map(String::as_str);
    let (Some(input), Some(output)) = (args.get(1), args.get(2)) else {
        usage()
    };
    match sub {
        Some("pack") => {
            let mut ranks = None;
            let mut rest = args[3..].iter();
            while let Some(a) = rest.next() {
                match a.as_str() {
                    "--ranks" => ranks = rest.next().and_then(|v| v.parse().ok()),
                    _ => usage(),
                }
            }
            let Some(ranks) = ranks else { usage() };
            let src = TraceInput::detect(Path::new(input)).unwrap_or_else(|e| fail(&e.to_string()));
            let sources =
                stream::open_sources(&src, ranks).unwrap_or_else(|e| fail(&e.to_string()));
            // Record the source signature so the output doubles as a
            // valid side-car when written next to the text file.
            let sig = stream::source_signature(Path::new(input)).ok();
            let actions = binfmt::write_sources(sources, Path::new(output), sig)
                .unwrap_or_else(|e| fail(&format!("cannot write {output}: {e}")))
                .unwrap_or_else(|e| fail(&e.to_string()));
            let packed = std::fs::metadata(output).map_or(0, |m| m.len());
            eprintln!(
                "packed {input} -> {output} ({ranks} ranks, {actions} actions, {packed} bytes)"
            );
            std::process::exit(0);
        }
        Some("unpack") => {
            let titb = binfmt::TitbFile::open_any(Path::new(input))
                .unwrap_or_else(|e| fail(&e.to_string()));
            files::write_merged_sources(titb.cursors(), Path::new(output))
                .unwrap_or_else(|e| fail(&e.to_string()))
                .unwrap_or_else(|e| fail(&e.to_string()));
            let header = titb.header();
            eprintln!(
                "unpacked {input} -> {output} ({} ranks, {} actions)",
                header.ranks,
                header.total_actions()
            );
            std::process::exit(0);
        }
        _ => usage(),
    }
}

fn parse_args(argv: &[String]) -> Args {
    let mut platform = None;
    let mut trace = None;
    let mut ranks = None;
    let mut rate = None;
    let mut engine = ReplayEngine::Smpi;
    let mut threads = None;
    let mut validate = false;
    let mut cache = true;
    let mut trace_out = None;
    let mut state_csv = None;
    let mut metrics = None;
    let mut manifest = None;
    let mut critical_path = false;
    let mut critical_path_out = None;
    let mut args = argv.iter().peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--platform" => platform = args.next().cloned(),
            "--trace" => trace = args.next().cloned(),
            "--ranks" => {
                ranks = Some(flag_or_usage(
                    "--ranks",
                    "a rank count",
                    args.next(),
                    |_| true,
                ))
            }
            "--rate" => {
                rate = Some(flag_or_usage(
                    "--rate",
                    "a positive finite rate",
                    args.next(),
                    valid_rate,
                ));
            }
            "--engine" => match args.next().map(String::as_str) {
                Some("smpi") => engine = ReplayEngine::Smpi,
                Some("msg") => engine = ReplayEngine::Msg,
                _ => usage(),
            },
            "--threads" => {
                threads = Some(flag_or_usage(
                    "--threads",
                    "a thread count",
                    args.next(),
                    |_| true,
                ));
            }
            "--validate" => validate = true,
            "--no-cache" => cache = false,
            "--trace-out" => trace_out = args.next().cloned(),
            "--state-csv" => state_csv = args.next().cloned(),
            "--metrics" => metrics = args.next().cloned(),
            "--manifest" => manifest = args.next().cloned(),
            "--critical-path" => {
                critical_path = true;
                // Optional output path for the machine-readable chain.
                if let Some(next) = args.peek() {
                    if !next.starts_with("--") {
                        critical_path_out = args.next().cloned();
                    }
                }
            }
            _ => usage(),
        }
    }
    match (platform, trace, ranks, rate) {
        (Some(platform), Some(trace), Some(ranks), Some(rate)) => Args {
            platform,
            trace,
            ranks,
            rate,
            engine,
            threads,
            validate,
            cache,
            trace_out,
            state_csv,
            metrics,
            manifest,
            critical_path,
            critical_path_out,
        },
        _ => usage(),
    }
}

/// `titreplay inspect` — summarise a trace without replaying it. With
/// `--platform` it additionally reports the parallel-replay partition
/// quality: coupling islands (with per-island rank/action counts), the
/// conservative lookahead bound and action-count balance.
fn inspect_command(args: &[String]) -> ! {
    let mut trace_path = None;
    let mut ranks = None;
    let mut platform_path = None;
    let mut threads = None;
    let mut profile = false;
    let mut profile_json = None;
    let mut rate = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => trace_path = it.next().cloned(),
            "--ranks" => ranks = it.next().and_then(|v| v.parse().ok()),
            "--platform" => platform_path = it.next().cloned(),
            "--threads" => {
                threads = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| fail("--threads expects a thread count")),
                );
            }
            "--profile" => profile = true,
            "--profile-json" => {
                profile = true;
                profile_json = it.next().cloned();
                if profile_json.is_none() {
                    fail("--profile-json expects an output path");
                }
            }
            "--rate" => {
                rate = Some(
                    parse_flag(it.next(), valid_rate)
                        .unwrap_or_else(|| fail("--rate expects a positive finite rate")),
                );
            }
            _ => usage(),
        }
    }
    let (Some(trace_path), Some(ranks)) = (trace_path, ranks) else {
        usage()
    };
    if profile && platform_path.is_none() {
        fail("inspect --profile needs --platform (profiling runs one replay)");
    }
    if threads.is_some() && !profile {
        fail("inspect --threads needs --profile (only the profiled replay runs on threads)");
    }
    if rate.is_some() && !profile {
        fail("inspect --rate needs --profile (only the profiled replay uses a rate)");
    }
    let input = TraceInput::detect(Path::new(&trace_path)).unwrap_or_else(|e| fail(&e.to_string()));
    let sig = tit_replay::replay::trace_signature(&input, ranks);
    // Opened once: the summary, the partition scan and the profiled
    // replay all stream from it.
    let input = stream::open_input(&input, ranks).unwrap_or_else(|e| fail(&e.to_string()));
    let trace = stream::load_trace(&input, ranks).unwrap_or_else(|e| fail(&e.to_string()));
    let total = TraceStats::of(&trace).total();
    println!("trace_signature {sig}");
    println!("ranks {}", trace.ranks());
    println!("actions {}", total.actions);
    println!("sends {}", total.sends);
    println!("recvs {}", total.recvs);
    println!("waits {}", total.waits);
    println!("computes {}", total.compute_actions);
    println!("collectives {}", total.collectives);
    println!("payload_bytes {}", total.bytes_sent);
    println!("compute_instructions {:.0}", total.compute_instructions);
    let problems = tit_replay::titrace::validate::validate(&trace);
    drop(trace);
    println!("validation_issues {}", problems.len());
    if let Some(platform_path) = platform_path {
        use tit_replay::replay::partition;
        let spec_json = std::fs::read_to_string(&platform_path)
            .unwrap_or_else(|e| fail(&format!("cannot read {platform_path}: {e}")));
        let platform = PlatformSpec::from_json(&spec_json)
            .unwrap_or_else(|e| fail(&format!("bad platform spec: {e}")))
            .build();
        let sources = stream::open_sources(&input, ranks).unwrap_or_else(|e| fail(&e.to_string()));
        let scan = partition::scan_sources(sources).unwrap_or_else(|e| fail(&e));
        let hosts = Placement::OnePerNode
            .assign(&platform, ranks)
            .unwrap_or_else(|e| fail(&e));
        let part = partition::partition_ranks(&scan, &platform, &hosts);
        let report = partition::partition_report(&part, &platform, &hosts);
        println!("islands {}", report.islands);
        match report.lookahead_s {
            // A single island has no inter-island links to bound the
            // lookahead; parallel replay degenerates to sequential.
            None => println!("lookahead_s inf"),
            Some(l) => println!("lookahead_s {l:.9}"),
        }
        println!("island_actions_min {}", report.min_island_actions);
        println!("island_actions_max {}", report.max_island_actions);
        println!("island_balance {:.3}", report.balance_ratio());
        for (i, (r, a)) in report
            .island_ranks
            .iter()
            .zip(&report.island_actions)
            .enumerate()
        {
            println!("island {i} ranks {r} actions {a}");
        }
        if profile {
            // One replay at the requested (or inferred) thread count;
            // print its wall-clock profile. Wall-clock figures live only
            // in the profile, never in the simulated result.
            let run_threads = threads.unwrap_or_else(|| ReplayConfig::default_threads().max(2));
            let config = ReplayConfig {
                threads: run_threads,
                ..ReplayConfig::improved(rate.unwrap_or(2e9))
            };
            let report = replay_input_observed(&platform, &input, ranks, &config, false)
                .unwrap_or_else(|e| fail(&e));
            println!("profile_threads {run_threads}");
            println!("profile_simulated_time_s {:.9}", report.time());
            print!("{}", report.profile.render_text());
            if let Some(path) = &profile_json {
                write_or_fail(path, &report.profile.to_json());
            }
        }
    }
    std::process::exit(0);
}

fn write_or_fail(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
    eprintln!("wrote {path}");
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("trace") => trace_command(&argv[1..]),
        Some("inspect") => inspect_command(&argv[1..]),
        // `replay` is the default mode; the explicit token is accepted.
        Some("replay") => {
            argv.remove(0);
        }
        _ => {}
    }
    let args = parse_args(&argv);
    let spec_json = std::fs::read_to_string(&args.platform)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", args.platform)));
    let platform = PlatformSpec::from_json(&spec_json)
        .unwrap_or_else(|e| fail(&format!("bad platform spec: {e}")))
        .build();
    let input = TraceInput::detect(Path::new(&args.trace)).unwrap_or_else(|e| fail(&e.to_string()));
    // The manifest identifies the trace as given on the command line,
    // before any cache substitution.
    let signature = tit_replay::replay::trace_signature(&input, args.ranks);
    // Merged text goes through the binary side-car cache: a hit, or the
    // side-car a miss writes, streams like a `.titb`, and without the
    // cache the text streams itself; the other layouts stream as given.
    let input = match input {
        TraceInput::MergedText(path) => {
            let (input, outcome) = stream::open_merged_cached(&path, args.ranks, args.cache)
                .unwrap_or_else(|e| fail(&e.to_string()));
            match outcome {
                CacheOutcome::Hit => eprintln!("trace cache: hit ({})", path.display()),
                CacheOutcome::MissStored => {
                    eprintln!(
                        "trace cache: stored {}",
                        stream::sidecar_path(&path).display()
                    );
                }
                CacheOutcome::MissUncached => {}
            }
            input
        }
        other => other,
    };
    if args.validate {
        let trace = stream::load_trace(&input, args.ranks).unwrap_or_else(|e| fail(&e.to_string()));
        let problems = tit_replay::titrace::validate::validate(&trace);
        if !problems.is_empty() {
            eprintln!("trace validation found {} issue(s):", problems.len());
            for p in problems.iter().take(20) {
                eprintln!("  - {p}");
            }
            std::process::exit(1);
        }
        eprintln!("trace validation: ok");
    }
    let config = ReplayConfig {
        engine: args.engine,
        threads: args.threads.unwrap_or_else(ReplayConfig::default_threads),
        ..ReplayConfig::improved(args.rate)
    };
    let record_spans = args.trace_out.is_some() || args.state_csv.is_some() || args.critical_path;
    let started = std::time::Instant::now();
    let report = match replay_input_observed(&platform, &input, args.ranks, &config, record_spans) {
        Ok(report) => report,
        Err(e) => fail(&e),
    };
    let wall = started.elapsed().as_secs_f64();
    println!("simulated_time_s {:.9}", report.time());
    eprintln!(
        "({} messages, {} simulation events, makespan over {} ranks)",
        report.metrics.messages,
        report.metrics.events_processed,
        report.rank_times.len()
    );
    if let Some(log) = report.spans.as_ref() {
        if let Some(path) = &args.trace_out {
            write_or_fail(path, &chrome_trace(log));
        }
        if let Some(path) = &args.state_csv {
            write_or_fail(path, &state_csv(log));
        }
    }
    if args.critical_path {
        let path = report.critical_path().expect("spans were recorded");
        println!("critical_path_end_s {:.9}", path.end_s);
        eprintln!("critical path: {} steps", path.steps.len());
        for b in &path.breakdown {
            eprintln!(
                "  rank {:>3}: compute {:.6}s send {:.6}s recv {:.6}s wait {:.6}s \
                 collective {:.6}s overhead {:.6}s idle {:.6}s",
                b.rank,
                b.by_kind[0],
                b.by_kind[1],
                b.by_kind[2],
                b.by_kind[3],
                b.by_kind[4],
                b.by_kind[5],
                b.idle_s
            );
        }
        if let Some(out) = &args.critical_path_out {
            write_or_fail(out, &path.to_json());
        }
    }
    if let Some(path) = &args.metrics {
        write_or_fail(path, &report.metrics.to_json());
    }
    if let Some(path) = &args.manifest {
        let man = tit_replay::replay::manifest(&platform, &signature, &config, &report, wall);
        write_or_fail(path, &man.to_json());
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("titreplay: {msg}");
    std::process::exit(1);
}
