//! `titreplay` — replay a time-independent trace file on a platform
//! description, mirroring the paper's `smpirun ... ./smpi_replay
//! trace_description` workflow.
//!
//! ```text
//! titreplay [replay] --platform platform.json --trace trace.txt --ranks 8 \
//!           --rate 2.05e9 [--engine smpi|msg] [--threads N] [--window-s W] \
//!           [--validate] [--no-cache] \
//!           [--sharing bottleneck|maxmin|maxmin-full] \
//!           [--trace-out <out.json>] [--state-csv <out.csv>] \
//!           [--metrics <out.json>] [--manifest <out.json>] \
//!           [--critical-path [out.json]]
//! titreplay inspect --trace <trace.txt|.desc|.titb> --ranks 8 \
//!           [--platform platform.json] [--threads N] \
//!           [--profile] [--profile-json <out.json>] [--rate <instr/s>]
//! titreplay trace pack <trace.txt|trace.desc> <out.titb> --ranks 8
//! titreplay trace unpack <in.titb> <out.txt>
//! ```
//!
//! The trace argument may be merged text, a `.desc` description file, or
//! a packed `.titb` binary — the format is sniffed from the content.
//! Merged text replays keep a `.titb` side-car next to the source
//! (keyed on its size+mtime) so repeat replays skip the text parse;
//! `--no-cache` disables both reading and writing it. Prints the
//! simulated execution time.
//!
//! Observability flags: `--trace-out` writes a Chrome-trace (Perfetto)
//! JSON of per-rank simulated-time spans and network flows,
//! `--state-csv` the same data as a flat state timeline, `--metrics` the
//! unified counter snapshot, `--manifest` the run-provenance record, and
//! `--critical-path` reports the makespan-determining chain (with an
//! optional JSON output path). `titreplay inspect` summarises a trace —
//! ranks, action mix, volumes — without replaying it; with `--platform`
//! it also reports the parallel-replay partition (coupling islands,
//! lookahead bound, action balance). `inspect --profile` additionally
//! runs one parallel replay (`--threads`, default >= 2; `--rate`,
//! default 2e9) and prints the wall-clock execution profile — per-worker
//! work / barrier-wait / mailbox-stall breakdown and the load-imbalance
//! ratio; `--profile-json` writes the same breakdown as JSON. Profiling
//! never changes simulated results (the profile holds the only
//! wall-clock figures).
//!
//! `--threads N` replays decoupled rank groups — or, when the trace
//! certifies a sub-shard plan, one coupled component under the windowed
//! PDES engine — on N worker threads (default: `TITR_REPLAY_THREADS`,
//! else 1); results are bit-identical to the sequential replay at any
//! thread count. `--window-s W` caps the conservative window width in
//! simulated seconds (it can only tighten the certified safe bound;
//! rejected unless `--threads >= 2`).

use std::path::Path;
use std::sync::Arc;

use tit_replay::prelude::*;
use tit_replay::titrace::stream::{self, CacheOutcome};
use tit_replay::titrace::{binfmt, files, TraceInput};

struct Args {
    platform: String,
    trace: String,
    ranks: u32,
    rate: f64,
    engine: ReplayEngine,
    sharing: tit_replay::netmodel::SharingPolicy,
    threads: Option<usize>,
    window_s: Option<f64>,
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
         --ranks <N> --rate <instr/s> [--engine smpi|msg] [--threads <N>] [--window-s <W>] \
         [--sharing bottleneck|maxmin|maxmin-full] [--validate] [--no-cache]\n\
         \x20          [--trace-out <chrome.json>] [--state-csv <states.csv>]\n\
         \x20          [--metrics <metrics.json>] [--manifest <manifest.json>]\n\
         \x20          [--critical-path [path.json]]\n\
         \x20      titreplay inspect --trace <trace.txt|.desc|.titb> --ranks <N> \
         [--platform <platform.json>] [--threads <N>] [--no-cache]\n\
         \x20          [--profile] [--profile-json <out.json>] [--rate <instr/s>]\n\
         \x20      titreplay trace pack <in.txt|in.desc> <out.titb> --ranks <N>\n\
         \x20      titreplay trace unpack <in.titb> <out.txt>"
    );
    std::process::exit(2);
}

/// `titreplay trace pack|unpack` — convert between the text and binary
/// trace formats.
fn trace_command(args: &[String]) -> ! {
    let sub = args.first().map(String::as_str);
    match sub {
        Some("pack") => {
            let (Some(input), Some(output)) = (args.get(1), args.get(2)) else {
                usage()
            };
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
            let trace = stream::load_trace(&src, ranks).unwrap_or_else(|e| fail(&e.to_string()));
            // Record the source signature so the output doubles as a
            // valid side-car when written next to the text file.
            let sig = stream::source_signature(Path::new(input)).ok();
            binfmt::write_file(&trace, Path::new(output), sig)
                .unwrap_or_else(|e| fail(&format!("cannot write {output}: {e}")));
            let packed = std::fs::metadata(output).map_or(0, |m| m.len());
            eprintln!(
                "packed {input} -> {output} ({} ranks, {} actions, {packed} bytes)",
                trace.ranks(),
                trace.len()
            );
            std::process::exit(0);
        }
        Some("unpack") => {
            let (Some(input), Some(output)) = (args.get(1), args.get(2)) else {
                usage()
            };
            let trace =
                binfmt::read_file(Path::new(input)).unwrap_or_else(|e| fail(&e.to_string()));
            files::write_merged(&trace, Path::new(output)).unwrap_or_else(|e| fail(&e.to_string()));
            eprintln!(
                "unpacked {input} -> {output} ({} ranks, {} actions)",
                trace.ranks(),
                trace.len()
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
    let mut sharing = tit_replay::netmodel::SharingPolicy::Bottleneck;
    let mut threads = None;
    let mut window_s = None;
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
            "--ranks" => ranks = args.next().and_then(|v| v.parse().ok()),
            "--rate" => rate = args.next().and_then(|v| v.parse().ok()),
            "--engine" => match args.next().map(String::as_str) {
                Some("smpi") => engine = ReplayEngine::Smpi,
                Some("msg") => engine = ReplayEngine::Msg,
                _ => usage(),
            },
            "--sharing" => match args.next().map(String::as_str) {
                Some("bottleneck") => sharing = tit_replay::netmodel::SharingPolicy::Bottleneck,
                Some("maxmin") => sharing = tit_replay::netmodel::SharingPolicy::MaxMin,
                Some("maxmin-full") => sharing = tit_replay::netmodel::SharingPolicy::MaxMinFull,
                _ => usage(),
            },
            "--threads" => threads = args.next().and_then(|v| v.parse().ok()),
            "--window-s" => {
                // Validated here, at parse time: a window that is not a
                // positive finite number of simulated seconds can never
                // be a horizon increment, and silently clamping it would
                // hide the typo.
                let raw = args.next().unwrap_or_else(|| usage());
                let w: f64 = raw
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--window-s expects a number, got '{raw}'")));
                if !w.is_finite() || w <= 0.0 {
                    fail(&format!(
                        "--window-s must be a positive finite number of simulated seconds, got {raw}"
                    ));
                }
                window_s = Some(w);
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
    // A window without worker threads is a contradiction: the window
    // only paces the parallel engines. Rejected up front with the
    // effective thread count (flag or TITR_REPLAY_THREADS) considered.
    if window_s.is_some() && threads.unwrap_or_else(ReplayConfig::default_threads) <= 1 {
        fail("--window-s requires --threads >= 2 (or TITR_REPLAY_THREADS >= 2)");
    }
    match (platform, trace, ranks, rate) {
        (Some(platform), Some(trace), Some(ranks), Some(rate)) => Args {
            platform,
            trace,
            ranks,
            rate,
            engine,
            sharing,
            threads,
            window_s,
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
/// conservative lookahead bound, action-count balance, and — for a
/// single coupled component — whether the windowed-PDES engine would
/// engage at `--threads` workers, with the certified sub-shard plan or
/// the reason it fails.
fn inspect_command(args: &[String]) -> ! {
    let mut trace_path = None;
    let mut ranks = None;
    let mut platform_path = None;
    let mut threads = None;
    let mut profile = false;
    let mut profile_json = None;
    let mut rate = 2e9f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => trace_path = it.next().cloned(),
            "--ranks" => ranks = it.next().and_then(|v| v.parse().ok()),
            "--platform" => platform_path = it.next().cloned(),
            "--threads" => threads = it.next().and_then(|v| v.parse().ok()),
            "--profile" => profile = true,
            "--profile-json" => {
                profile = true;
                profile_json = it.next().cloned();
                if profile_json.is_none() {
                    fail("--profile-json expects an output path");
                }
            }
            "--rate" => {
                rate = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--rate expects a number"));
            }
            "--no-cache" => {}
            _ => usage(),
        }
    }
    let (Some(trace_path), Some(ranks)) = (trace_path, ranks) else {
        usage()
    };
    if profile && platform_path.is_none() {
        fail("inspect --profile needs --platform (profiling runs one replay)");
    }
    let input = TraceInput::detect(Path::new(&trace_path)).unwrap_or_else(|e| fail(&e.to_string()));
    let sig = tit_replay::replay::trace_signature(&input, ranks);
    let trace = stream::load_trace(&input, ranks).unwrap_or_else(|e| fail(&e.to_string()));
    let mut sends = 0u64;
    let mut recvs = 0u64;
    let mut computes = 0u64;
    let mut collectives = 0u64;
    let mut waits = 0u64;
    let mut bytes = 0u64;
    let mut instructions = 0.0f64;
    for r in 0..trace.ranks() {
        for a in trace.actions(tit_replay::titrace::Rank(r)) {
            use tit_replay::titrace::Action;
            match a {
                Action::Send { bytes: b, .. } | Action::Isend { bytes: b, .. } => {
                    sends += 1;
                    bytes += b;
                }
                Action::Recv { .. } | Action::Irecv { .. } => recvs += 1,
                Action::Compute { amount } => {
                    computes += 1;
                    instructions += amount;
                }
                Action::Wait | Action::WaitAll => waits += 1,
                Action::Init | Action::Finalize => {}
                _ => collectives += 1,
            }
        }
    }
    println!("trace_signature {sig}");
    println!("ranks {}", trace.ranks());
    println!("actions {}", trace.len());
    println!("sends {sends}");
    println!("recvs {recvs}");
    println!("waits {waits}");
    println!("computes {computes}");
    println!("collectives {collectives}");
    println!("payload_bytes {bytes}");
    println!("compute_instructions {instructions:.0}");
    let problems = tit_replay::titrace::validate::validate(&trace);
    println!("validation_issues {}", problems.len());
    if let Some(platform_path) = platform_path {
        use tit_replay::replay::partition;
        let spec_json = std::fs::read_to_string(&platform_path)
            .unwrap_or_else(|e| fail(&format!("cannot read {platform_path}: {e}")));
        let platform = PlatformSpec::from_json(&spec_json)
            .unwrap_or_else(|e| fail(&format!("bad platform spec: {e}")))
            .build();
        let input = TraceInput::Memory(Arc::new(trace));
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
        // One coupled component: report whether the windowed-PDES
        // engine could split it, and how.
        if report.islands == 1 {
            let threads = threads.unwrap_or_else(|| ReplayConfig::default_threads().max(2));
            let eager = tit_replay::smpi::SmpiConfig::smpi_replay();
            match partition::plan_subshards(&scan, &platform, &hosts, threads, |b| {
                eager.is_eager(b)
            }) {
                Ok(plan) => {
                    println!("subshards {}", plan.shards.len());
                    println!("subshard_lookahead_s {:.9}", plan.lookahead_s);
                    println!("subshard_balance {:.3}", plan.balance_ratio());
                    for (i, s) in plan.shards.iter().enumerate() {
                        println!(
                            "subshard {i} ranks {} actions {} links {}",
                            s.ranks.len(),
                            s.actions,
                            s.links.len()
                        );
                    }
                }
                Err(reason) => println!("subshards none ({reason})"),
            }
        }
        if profile {
            // One profiled replay at the requested (or inferred) thread
            // count. Wall-clock figures live only in the profile; the
            // simulated result is bit-identical to an unprofiled run.
            let run_threads = threads.unwrap_or_else(|| ReplayConfig::default_threads().max(2));
            let config = ReplayConfig {
                threads: run_threads,
                ..ReplayConfig::improved(rate)
            };
            let report = tit_replay::replay::replay_input_profiled(
                &platform, &input, ranks, &config, false, true,
            )
            .unwrap_or_else(|e| fail(&e));
            let prof = report.profile.expect("profiled run must carry a profile");
            println!("profile_threads {run_threads}");
            println!("profile_simulated_time_s {:.9}", report.result.time);
            print!("{}", prof.render_text());
            if let Some(path) = &profile_json {
                write_or_fail(path, &prof.to_json());
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
    // Merged text goes through the binary side-car cache; the other
    // layouts already stream (binary) or fan out in parallel (split).
    let input = match input {
        TraceInput::MergedText(path) => {
            let (trace, outcome) = stream::load_merged_cached(&path, args.ranks, args.cache)
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
            TraceInput::Memory(Arc::new(trace))
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
        sharing: args.sharing,
        threads: args.threads.unwrap_or_else(ReplayConfig::default_threads),
        window_s: args.window_s,
        ..ReplayConfig::improved(args.rate)
    };
    let record_spans = args.trace_out.is_some() || args.state_csv.is_some() || args.critical_path;
    let started = std::time::Instant::now();
    let report = match replay_input_observed(&platform, &input, args.ranks, &config, record_spans) {
        Ok(report) => report,
        Err(e) => fail(&e),
    };
    let wall = started.elapsed().as_secs_f64();
    let result = &report.result;
    println!("simulated_time_s {:.9}", result.time);
    eprintln!(
        "({} messages, {} simulation events, makespan over {} ranks)",
        result.messages,
        result.events,
        result.rank_times.len()
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
