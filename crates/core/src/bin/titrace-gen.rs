//! `titrace-gen` — acquire a time-independent trace of a synthetic NPB-LU
//! instance (or generate a synthetic halo-exchange trace) and write it
//! (and a matching platform spec) to disk, so the full file-based
//! workflow can be driven end to end:
//!
//! ```text
//! titrace-gen --class B --procs 8 --steps 25 --out trace.txt
//! titreplay --platform bordereau.json --trace trace.txt --ranks 8 --rate 1.9e9
//! ```
//!
//! `--workload halo` emits an intra-cabinet ring exchange (8 ranks per
//! cabinet, no collectives) on a cabinet-cluster platform: the ranks
//! decompose into one coupling island per cabinet, which is the shape
//! `titreplay --threads N` parallelises over.

use tit_replay::prelude::*;

/// Ranks per cabinet of the halo workload and its companion platform.
const HALO_PER_CABINET: u32 = 8;

/// An intra-cabinet ring exchange: every rank swaps `bytes` with both
/// ring neighbours inside its own cabinet each iteration, then computes.
/// No collectives and no inter-cabinet messages, so the trace decomposes
/// into one coupling island per cabinet.
fn halo_trace(ranks: u32, iters: u32, bytes: u64) -> Trace {
    let per = HALO_PER_CABINET;
    let mut trace = Trace::new(ranks);
    for r in 0..ranks {
        let cab = r / per;
        let right = Rank(cab * per + (r % per + 1) % per);
        let left = Rank(cab * per + (r % per + per - 1) % per);
        let rank = Rank(r);
        trace.push(rank, Action::Init);
        for _ in 0..iters {
            trace.push(rank, Action::Irecv { src: left, bytes });
            trace.push(rank, Action::Irecv { src: right, bytes });
            trace.push(rank, Action::Isend { dst: right, bytes });
            trace.push(rank, Action::Isend { dst: left, bytes });
            trace.push(rank, Action::WaitAll);
            trace.push(rank, Action::Compute { amount: 1e5 });
        }
        trace.push(rank, Action::Finalize);
    }
    trace
}

/// A collective-dense synthetic workload: every rank alternates a
/// compute block with an `MPI_Allreduce` of `bytes`, the shape that
/// stresses the network model with P simultaneous uniform flows per
/// phase — the worst case collective batching re-solves once per phase.
fn allreduce_trace(ranks: u32, iters: u32, bytes: u64) -> Trace {
    let mut trace = Trace::new(ranks);
    for r in 0..ranks {
        let rank = Rank(r);
        trace.push(rank, Action::Init);
        for _ in 0..iters {
            trace.push(rank, Action::Compute { amount: 1e5 });
            trace.push(rank, Action::Allreduce { bytes });
        }
        trace.push(rank, Action::Finalize);
    }
    trace
}

fn write_trace(trace: &Trace, out: &str, binary: bool) {
    let path = std::path::Path::new(out);
    let result = if binary {
        tit_replay::titrace::binfmt::write_file(trace, path, None)
    } else {
        tit_replay::titrace::files::write_merged(trace, path)
    };
    result.unwrap_or_else(|e| {
        // Leave no partial trace behind (the binary writer never leaves one).
        if !binary {
            let _ = std::fs::remove_file(path);
        }
        fail(&format!("cannot write {out}: {e}"))
    });
}

fn write_platform(out: &str, spec: &tit_replay::platform::PlatformSpec) {
    let spec_path = format!("{out}.platform.json");
    std::fs::write(&spec_path, spec.to_json())
        .unwrap_or_else(|e| fail(&format!("cannot write {spec_path}: {e}")));
    eprintln!("wrote {spec_path}");
}

fn fail(msg: &str) -> ! {
    eprintln!("titrace-gen: {msg}");
    std::process::exit(1);
}

/// The value after a flag, parsed, or a usage error.
fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

fn usage() -> ! {
    eprintln!(
        "usage: titrace-gen --class S|W|A|B|C|D --procs <2^k> [--steps N] \
         [--mode minimal|fine|coarse] [--opt O0|O3] [--seed N] [--binary] \
         [--workload lu|halo|allreduce] [--bytes N] --out <file>\n\
         --binary writes the compact .titb format instead of text;\n\
         --workload halo emits a per-cabinet ring exchange (procs = multiple of 8)\n\
         with --bytes per message (default 65536) over --steps iterations;\n\
         --workload allreduce emits a collective-dense compute/allreduce loop\n\
         (--bytes per allreduce, default 65536) over --steps iterations;\n\
         also writes <file>.platform.json with the matching platform model"
    );
    std::process::exit(2);
}

fn main() {
    let mut class = None;
    let mut procs: Option<u32> = None;
    let mut steps = None;
    let mut out = None;
    let mut seed = 42u64;
    let mut mode = Instrumentation::Minimal;
    let mut opt = CompilerOpt::O3;
    let mut binary = false;
    let mut workload = String::from("lu");
    let mut bytes = 65536u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--binary" => binary = true,
            "--class" => {
                class = Some(
                    args.next()
                        .and_then(|v| LuClass::parse(&v))
                        .unwrap_or_else(|| usage()),
                );
            }
            "--procs" => procs = Some(value(&mut args)),
            "--steps" => steps = Some(value(&mut args)),
            "--seed" => seed = value(&mut args),
            "--mode" => {
                mode = match args.next().as_deref() {
                    Some("minimal") => Instrumentation::Minimal,
                    Some("fine") => Instrumentation::legacy_default(),
                    Some("coarse") => Instrumentation::Coarse,
                    _ => usage(),
                }
            }
            "--opt" => {
                opt = match args.next().as_deref() {
                    Some("O0") => CompilerOpt::O0,
                    Some("O3") => CompilerOpt::O3,
                    _ => usage(),
                }
            }
            "--out" => out = args.next(),
            "--workload" => match args.next().as_deref() {
                Some("lu") => workload = "lu".into(),
                Some("halo") => workload = "halo".into(),
                Some("allreduce") => workload = "allreduce".into(),
                _ => usage(),
            },
            "--bytes" => bytes = value(&mut args),
            _ => usage(),
        }
    }
    if workload == "halo" {
        let (Some(procs), Some(out)) = (procs, out) else {
            usage()
        };
        if !procs.is_multiple_of(HALO_PER_CABINET) {
            eprintln!(
                "titrace-gen: halo workload needs procs to be a multiple of {HALO_PER_CABINET}"
            );
            std::process::exit(2);
        }
        let iters = steps.unwrap_or(50);
        let trace = halo_trace(procs, iters, bytes);
        write_trace(&trace, &out, binary);
        eprintln!(
            "wrote {} (halo exchange, {} ranks, {} iterations, {} B/message)",
            out, procs, iters, bytes
        );
        // One cabinet per ring so the islands match the cabinets.
        let spec = tit_replay::platform::PlatformSpec {
            name: "halo-cabinets".into(),
            kind: tit_replay::platform::spec::SpecKind::Cabinets {
                cabinets: procs / HALO_PER_CABINET,
                nodes_per_cabinet: HALO_PER_CABINET,
                host_speed: 2e9,
                cores: 1,
                cache_bytes: 1 << 20,
                link_bandwidth: 1.25e9,
                link_latency: 1e-5,
                cabinet_bandwidth: 1e10,
                cabinet_latency: 2e-6,
                backbone_bandwidth: 2.5e9,
                backbone_latency: 1e-6,
            },
        };
        write_platform(&out, &spec);
        return;
    }
    if workload == "allreduce" {
        let (Some(procs), Some(out)) = (procs, out) else {
            usage()
        };
        let iters = steps.unwrap_or(50);
        let trace = allreduce_trace(procs, iters, bytes);
        write_trace(&trace, &out, binary);
        eprintln!(
            "wrote {} (allreduce loop, {} ranks, {} iterations, {} B/allreduce)",
            out, procs, iters, bytes
        );
        // A flat cluster: every rank on its own node of one switched
        // segment, so each collective phase contends on shared links.
        let spec = tit_replay::platform::PlatformSpec {
            name: "allreduce-flat".into(),
            kind: tit_replay::platform::spec::SpecKind::Flat {
                nodes: procs,
                host_speed: 2e9,
                cores: 1,
                cache_bytes: 1 << 20,
                link_bandwidth: 1.25e9,
                link_latency: 1e-5,
                backbone_bandwidth: 1e10,
                backbone_latency: 1e-6,
            },
        };
        write_platform(&out, &spec);
        return;
    }
    let (Some(class), Some(procs), Some(out)) = (class, procs, out) else {
        usage()
    };
    let mut lu = LuConfig::new(class, procs);
    if let Some(steps) = steps {
        lu = lu.with_steps(steps);
    }
    eprintln!(
        "acquiring {} ({} steps) with {} instrumentation, {} build",
        lu.label(),
        lu.steps,
        mode.label(),
        opt
    );
    let acq = acquire(lu.sources(), mode, opt, seed);
    write_trace(&acq.trace, &out, binary);
    let stats = tit_replay::titrace::TraceStats::of(&acq.trace);
    eprintln!(
        "wrote {} ({} actions, {} messages, {:.3e} instr/rank)",
        out,
        acq.trace.len(),
        stats.total_messages(),
        stats.mean_instructions_per_rank()
    );
    // A companion platform spec so titreplay can run immediately.
    let spec = tit_replay::platform::PlatformSpec {
        name: "bordereau".into(),
        kind: tit_replay::platform::spec::SpecKind::Flat {
            nodes: 93,
            host_speed: tit_replay::platform::clusters::BORDEREAU_SPEED,
            cores: 4,
            cache_bytes: 1 << 20,
            link_bandwidth: 1.21e8,
            link_latency: 12e-6,
            backbone_bandwidth: 1.2e9,
            backbone_latency: 4e-6,
        },
    };
    write_platform(&out, &spec);
}
