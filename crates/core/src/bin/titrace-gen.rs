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
//!
//! No trace is built in memory: every rank is a source that generates
//! its actions as they are written, and the writers encode the ranks on
//! every core (`titrace::write::write_sources`,
//! `titrace::binfmt::write_sources`), so generation holds O(ranks) small
//! generators and a few chunks, whatever `--steps` is.

use std::sync::OnceLock;

use tit_replay::acquisition::action_sources;
use tit_replay::prelude::*;
use tit_replay::titrace::{binfmt, files};

/// Ranks per cabinet of the halo workload and its companion platform.
const HALO_PER_CABINET: u32 = 8;

/// The repeated part of a synthetic rank's program.
#[derive(Clone, Copy)]
enum Body {
    /// An intra-cabinet ring exchange: swap `bytes` with both ring
    /// neighbours, wait for all four requests, compute.
    Halo { left: Rank, right: Rank, bytes: u64 },
    /// A compute block, then an `MPI_Allreduce` of `bytes`.
    Allreduce { bytes: u64 },
}

impl Body {
    fn len(self) -> u64 {
        match self {
            Body::Halo { .. } => 6,
            Body::Allreduce { .. } => 2,
        }
    }

    fn action(self, i: u64) -> Action {
        let compute = Action::Compute { amount: 1e5 };
        match self {
            Body::Halo { left, right, bytes } => match i {
                0 => Action::Irecv { src: left, bytes },
                1 => Action::Irecv { src: right, bytes },
                2 => Action::Isend { dst: right, bytes },
                3 => Action::Isend { dst: left, bytes },
                4 => Action::WaitAll,
                _ => compute,
            },
            Body::Allreduce { bytes } => match i {
                0 => compute,
                _ => Action::Allreduce { bytes },
            },
        }
    }
}

/// One rank of a synthetic workload: `init`, `iters` passes of its body,
/// then `finalize`.
struct Looped {
    body: Body,
    /// Actions in the whole stream.
    len: u64,
    next: u64,
}

impl Looped {
    fn new(body: Body, iters: u32) -> Looped {
        Looped {
            body,
            len: 2 + body.len() * u64::from(iters),
            next: 0,
        }
    }
}

impl ActionSource for Looped {
    fn next_action(&mut self) -> Result<Option<Action>, SourceError> {
        let i = self.next;
        if i == self.len {
            return Ok(None);
        }
        self.next += 1;
        Ok(Some(match i {
            0 => Action::Init,
            i if i + 1 == self.len => Action::Finalize,
            i => self.body.action((i - 1) % self.body.len()),
        }))
    }
}

/// An intra-cabinet ring exchange: every rank swaps `bytes` with both
/// ring neighbours inside its own cabinet each iteration, then computes.
/// No collectives and no inter-cabinet messages, so the trace decomposes
/// into one coupling island per cabinet.
fn halo_sources(ranks: u32, iters: u32, bytes: u64) -> Vec<Looped> {
    let per = HALO_PER_CABINET;
    (0..ranks)
        .map(|r| {
            let cab = r / per;
            let right = Rank(cab * per + (r % per + 1) % per);
            let left = Rank(cab * per + (r % per + per - 1) % per);
            Looped::new(Body::Halo { left, right, bytes }, iters)
        })
        .collect()
}

/// A collective-dense synthetic workload: every rank alternates a
/// compute block with an `MPI_Allreduce` of `bytes`, the shape that
/// stresses the network model with P simultaneous uniform flows per
/// phase — the worst case collective batching re-solves once per phase.
fn allreduce_sources(ranks: u32, iters: u32, bytes: u64) -> Vec<Looped> {
    (0..ranks)
        .map(|_| Looped::new(Body::Allreduce { bytes }, iters))
        .collect()
}

/// What one rank's stream held: instructions, added in stream order, and
/// point-to-point sends.
type Tally = (f64, u64);

/// A rank's source that tallies what it yields into `slot` once it
/// ends, for the summary line.
struct Tallied<'a, S> {
    inner: S,
    tally: Tally,
    slot: &'a OnceLock<Tally>,
}

impl<S: ActionSource> ActionSource for Tallied<'_, S> {
    fn next_action(&mut self) -> Result<Option<Action>, SourceError> {
        let next = self.inner.next_action()?;
        match next {
            Some(Action::Compute { amount }) => self.tally.0 += amount,
            Some(Action::Send { .. } | Action::Isend { .. }) => self.tally.1 += 1,
            Some(_) => {}
            None => {
                let _ = self.slot.set(self.tally);
            }
        }
        Ok(next)
    }
}

/// Writes one source per rank to `out` as text or `.titb`; returns the
/// number of actions written. Nothing is left at `out` on failure.
fn write_trace<S: ActionSource>(sources: Vec<S>, out: &str, binary: bool) -> u64 {
    let path = std::path::Path::new(out);
    let written = if binary {
        binfmt::write_sources(sources, path, None)
    } else {
        files::write_merged_sources(sources, path)
    };
    match written {
        Ok(Ok(actions)) => actions,
        Ok(Err(e)) => fail(&format!("cannot write {out}: {e}")),
        Err(e) => fail(&format!("cannot write {out}: {e}")),
    }
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

/// A usage error (exit 2) that names `flag`, what it `expects`, and the
/// value it `got`.
fn bad_flag(flag: &str, expects: &str, got: Option<&str>) -> ! {
    let got = got.unwrap_or("nothing");
    eprintln!("titrace-gen: {flag} expects {expects}, got '{got}'");
    usage()
}

/// The value after `flag`, parsed, or a usage error naming the flag.
fn value<T: std::str::FromStr>(
    flag: &str,
    expects: &str,
    args: &mut impl Iterator<Item = String>,
) -> T {
    let v = args.next();
    match v.as_deref().map(str::parse) {
        Some(Ok(parsed)) => parsed,
        _ => bad_flag(flag, expects, v.as_deref()),
    }
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
                let v = args.next();
                let parsed = v.as_deref().and_then(LuClass::parse);
                let expects = "S, W, A, B, C or D";
                class = Some(parsed.unwrap_or_else(|| bad_flag("--class", expects, v.as_deref())));
            }
            "--procs" => procs = Some(value("--procs", "a rank count", &mut args)),
            "--steps" => steps = Some(value("--steps", "a step count", &mut args)),
            "--seed" => seed = value("--seed", "a seed", &mut args),
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
            "--bytes" => bytes = value("--bytes", "a byte count", &mut args),
            _ => usage(),
        }
    }
    // A trace no replay accepts is refused before anything is written:
    // no ranks, or an LU instance `LuConfig` cannot build.
    if procs == Some(0) {
        bad_flag("--procs", "at least one rank", Some("0"));
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
        write_trace(halo_sources(procs, iters, bytes), &out, binary);
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
        write_trace(allreduce_sources(procs, iters, bytes), &out, binary);
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
    if !procs.is_power_of_two() {
        bad_flag("--procs", "a power of two for LU", Some(&procs.to_string()));
    }
    if let Some(steps @ 0..=1) = steps {
        bad_flag("--steps", "at least 2 for LU", Some(&steps.to_string()));
    }
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
    let slots: Vec<OnceLock<Tally>> = (0..procs).map(|_| OnceLock::new()).collect();
    let sources = action_sources(lu.sources(), mode, opt, seed)
        .into_iter()
        .zip(&slots)
        .map(|(inner, slot)| Tallied {
            inner,
            tally: (0.0, 0),
            slot,
        })
        .collect();
    let actions = write_trace(sources, &out, binary);
    // Folded per rank, in rank order.
    let (instructions, messages) = slots
        .iter()
        .filter_map(OnceLock::get)
        .fold((0.0, 0), |(i, m), &(ri, rm)| (i + ri, m + rm));
    eprintln!(
        "wrote {} ({} actions, {} messages, {:.3e} instr/rank)",
        out,
        actions,
        messages,
        instructions / f64::from(procs)
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
