//! The traced run: one pass per workload that repeats the CLI's steps
//! through public library functions, with a span around each call.
//!
//! This is where the per-layer metrics come from. The end-to-end
//! numbers are measured separately, through the shipped binaries with
//! no tracing; the gap between the two is reported, not hidden. Layer
//! names are module names. Figures ending in `est_s` are *computed, not
//! measured*: an exact count from the manifest times the cost of an
//! isolated probe of that layer, because spans inside the engine are a
//! later change.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tit_replay::netmodel::{FlowNet, SharingPolicy};
use tit_replay::platform::{HostId, Platform, PlatformSpec};
use tit_replay::replay::{self, partition, replay_input_observed, ReplayConfig};
use tit_replay::simkernel::queue::{EventKind, EventQueue};
use tit_replay::simkernel::{Kernel, Time, IN_FLIGHT_PER_RANK};
use tit_replay::smpi::SmpiConfig;
use tit_replay::titrace::{binfmt, stream, TraceInput};
use titserved::query::{self, TraceStore, WhatIfQuery};

use crate::calib::{self, Scale};
use crate::manifest::{self, Facts};
use crate::serve::{Latencies, ServeRun, Server, CANDIDATES};
use crate::spans::{self_time_ns, Recorder, Span};
use crate::stats;
use crate::workloads::{
    splitmix, Engine, Sample, Workload, PARALLEL_FIGURE_ON, RATE, SPANS_OVERHEAD_ON,
};

/// Every per-layer metric with its unit, in report order. A workload a
/// metric does not apply to reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("platform.build_s", "s"),
    ("titrace.ingest_s", "s"),
    ("titrace.actions", "count"),
    ("titrace.input_bytes", "bytes"),
    ("titrace.actions_per_s", "1/s"),
    ("partition.plan_s", "s"),
    ("partition.islands", "count"),
    ("partition.certified", "count"),
    ("replay.run_s", "s"),
    ("replay.ns_per_action", "ns"),
    ("simkernel.events", "count"),
    ("runtime.messages", "count"),
    ("netmodel.flows", "count"),
    ("netmodel.sharing_resolves", "count"),
    ("netmodel.live_entity_hwm", "count"),
    ("simkernel.fel_ns_per_op", "ns"),
    ("netmodel.flow_ns", "ns"),
    ("simkernel.fel_est_s", "s"),
    ("netmodel.est_s", "s"),
    ("runtime.est_s", "s"),
    ("obs.manifest_s", "s"),
    ("obs.manifest_bytes", "bytes"),
    ("obs.spans_overhead_ratio", "ratio"),
    ("replay.parallel_t2_s", "s"),
    ("replay.parallel_t2_speedup", "ratio"),
    ("titserved.cold_query_ms", "ms"),
    ("titserved.memo_query_ms", "ms"),
    ("titserved.memo_query_p99_ms", "ms"),
    ("titserved.direct_execute_ms", "ms"),
    ("titserved.http_overhead_ms", "ms"),
    ("titserved.executions", "count"),
    ("titserved.memo_hits", "count"),
    ("titserved.memo_bytes", "bytes"),
    ("process.overhead_s", "s"),
    ("process.overhead_share", "ratio"),
    ("tracing.overhead_s", "s"),
];

/// Share of `e2e_wall_s` above which unexplained process time is flagged.
const OVERHEAD_FLAG_SHARE: f64 = 0.05;
/// Spread above which a thread-dependent layer figure is `unresolved`
/// (the end-to-end bound of `e2e_wall_s`).
const RESOLVE_BOUND: f64 = 0.10;

/// Result of one traced run.
#[derive(Default)]
pub struct Traced {
    values: Vec<(&'static str, f64)>,
    /// Remarks printed under the table (flags, `unresolved` marks).
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Traced {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.values.push((name, value));
    }

    /// Value of `name`, 0 when the workload does not exercise it.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }
}

/// What the untraced CLI did on the same inputs: the reference the
/// traced run must reproduce and is compared against.
pub struct CliReference {
    /// Median untraced `e2e_wall_s` (at reference host speed, like every
    /// time this module reports).
    pub wall_s: f64,
    pub facts: Facts,
}

/// Runs `f` as the span `name` between two calibration spins; returns
/// its result, its seconds at reference host speed, and the scale
/// factor that was applied.
fn scaled<T>(rec: &mut Recorder, name: &str, f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = calib::spin();
    let (out, raw_s) = rec.time(name, f);
    let k = Scale::between(before, calib::spin()).k;
    (out, raw_s * k, k)
}

/// Hold model on the future-event list at `live` pending events:
/// nanoseconds per hold operation (one pop plus one push), the queue
/// work one processed simulation event costs.
fn fel_probe(live: usize) -> f64 {
    const HOLDS: u64 = 2_000_000;
    // Increments on the scale of the event window, so successors spread
    // over the whole horizon (the standard hold model).
    let micros = |i: u64| 1e-6 * (1 + splitmix(0x5eed, i) % 1_000_000) as f64;
    let mut q = EventQueue::new();
    for key in 0..live as u64 {
        q.push(
            Time::from_secs(micros(key)),
            EventKind::Timer { actor: 0, key },
        );
    }
    let started = Instant::now();
    for i in 0..HOLDS {
        let (t, kind) = q.pop().expect("hold queue never drains");
        let delta = micros(live as u64 + i);
        q.push(Time::from_secs(t.as_secs() + delta), kind);
    }
    std::hint::black_box(&q);
    started.elapsed().as_nanos() as f64 / HOLDS as f64
}

/// Flow churn on the workload's platform at `live` concurrent flows:
/// nanoseconds per flow (one open plus one close, each re-sharing the
/// links it touches). `live` is the replay's mean sharing degree — rate
/// updates per re-share, from its manifest — not its high-water mark: at
/// the mark every flow would pay the rare worst case (LU C-64 peaks at
/// 64 live flows but re-rates ~10 per open or close). Partners are
/// `rank ^ {1,2,4}`, which stays inside a cabinet of eight like the halo
/// rings do.
fn flow_probe(platform: &Platform, hosts: &[HostId], live: usize) -> f64 {
    const FLOWS: usize = 100_000;
    let mut kernel = Kernel::new();
    let mut net = FlowNet::new(platform, SharingPolicy::Bottleneck);
    let mut route = Vec::new();
    let mut open = std::collections::VecDeque::with_capacity(live + 1);
    let started = Instant::now();
    for i in 0..FLOWS {
        let src = i % hosts.len();
        let dst = (src ^ (1 << ((i / hosts.len()) % 3))) % hosts.len();
        if src == dst {
            continue;
        }
        platform.route(hosts[src], hosts[dst], &mut route);
        open.push_back(net.open(&mut kernel, &route, 1e6, 1e9));
        if open.len() > live {
            let oldest = open.pop_front().expect("non-empty");
            net.close(&mut kernel, oldest);
        }
    }
    for flow in open {
        net.close(&mut kernel, flow);
    }
    std::hint::black_box(&net);
    started.elapsed().as_nanos() as f64 / FLOWS as f64
}

fn replay_config(w: &Workload, threads: usize) -> ReplayConfig {
    let mut config = match w.engine {
        Engine::Smpi => ReplayConfig::improved(RATE),
        Engine::Msg => ReplayConfig::legacy(RATE),
    };
    config.threads = threads;
    config
}

/// What the parallel engine would plan for `input`: the trace scan, the
/// island partition and, for one coupled island, the windowed-PDES
/// certificate. The CLI pays this inside `replay.run` whenever
/// `--threads >= 2`; here it runs once more on its own so it can be
/// timed. Returns (islands, certified).
fn plan(
    platform: &Platform,
    input: &TraceInput,
    ranks: u32,
    config: &ReplayConfig,
) -> Result<(usize, bool), String> {
    let sources = stream::open_sources(input, ranks).map_err(|e| e.to_string())?;
    let scan = partition::scan_sources(sources)?;
    let hosts = config.placement.assign(platform, ranks)?;
    let part = partition::partition_ranks(&scan, platform, &hosts);
    let certified = part.islands.len() == 1 && {
        let eager = SmpiConfig::smpi_replay();
        partition::plan_subshards(&scan, platform, &hosts, config.threads, |b| {
            eager.is_eager(b)
        })
        .is_ok()
    };
    Ok((part.islands.len(), certified))
}

/// One pass over the CLI's steps. Times are at reference host speed.
struct Mirror {
    platform: Platform,
    input: TraceInput,
    /// The manifest as written.
    json: String,
    /// Actions decoded during ingest (0 for `.titb`, which decodes lazily).
    actions: u64,
    build_s: f64,
    ingest_s: f64,
    run_s: f64,
    manifest_s: f64,
    mirror_s: f64,
    /// Σ top-level spans: the part of the mirror its children cover
    /// (the rest of it is span bookkeeping).
    top_level_s: f64,
    /// Whether the spins either side of the mirror agree.
    steady: bool,
}

/// The CLI's steps, in the CLI's order, between two calibration spins.
fn mirror(
    rec: &mut Recorder,
    w: &Workload,
    dir: &Path,
    config: &ReplayConfig,
) -> Result<Mirror, String> {
    let trace_path = w.trace_path(dir);
    w.warm_inputs(dir);
    let spin_before = calib::spin();
    let mirror = rec.enter("titreplay.mirror");
    let (platform, build_s) = rec.time("platform.build", || {
        let json = std::fs::read_to_string(w.platform_path(dir)).map_err(|e| e.to_string())?;
        let spec = PlatformSpec::from_json(&json).map_err(|e| e.to_string())?;
        Ok::<_, String>(spec.build())
    });
    let platform = platform.map_err(|e| format!("bad platform spec: {e}"))?;

    let ingest = rec.enter("titrace.ingest");
    let detected = TraceInput::detect(&trace_path).map_err(|e| e.to_string())?;
    let signature = replay::trace_signature(&detected, w.ranks);
    let mut actions = 0u64;
    let input = match detected {
        TraceInput::MergedText(path) => {
            let (trace, _) =
                stream::load_merged_cached(&path, w.ranks, w.cache).map_err(|e| e.to_string())?;
            actions = trace.len() as u64;
            TraceInput::Memory(Arc::new(trace))
        }
        other => other,
    };
    let ingest_s = rec.exit(ingest);

    let (report, run_s) = rec.time("replay.run", || {
        replay_input_observed(&platform, &input, w.ranks, config, false)
    });
    let report = report?;

    let manifest_path = dir.join(format!("manifest-{}-traced.json", w.name));
    let (json, manifest_s) = rec.time("obs.manifest", || {
        let json = replay::manifest(&platform, &signature, config, &report, run_s).to_json();
        std::fs::write(&manifest_path, &json).map(|()| json)
    });
    let json = json.map_err(|e| format!("cannot write {}: {e}", manifest_path.display()))?;
    let mirror_raw_s = rec.exit(mirror);
    let Scale { k, steady } = Scale::between(spin_before, calib::spin());
    let self_s = self_time_ns(rec.spans(), mirror.index()) as f64 / 1e9;
    Ok(Mirror {
        platform,
        input,
        json,
        actions,
        build_s: build_s * k,
        ingest_s: ingest_s * k,
        run_s: run_s * k,
        manifest_s: manifest_s * k,
        mirror_s: mirror_raw_s * k,
        top_level_s: (mirror_raw_s - self_s) * k,
        steady,
    })
}

/// Traced run of a replay workload over the files in `dir`.
pub fn trace_replay(
    w: &Workload,
    dir: &Path,
    cli: &CliReference,
    host_parallelism: usize,
) -> Result<Traced, String> {
    let mut out = Traced {
        attempted: 1,
        ..Traced::default()
    };
    let trace_path = w.trace_path(dir);
    let threads = w.threads.unwrap_or(1);
    let config = replay_config(w, threads);

    // The mirror is repeated (at most three times) until the host holds
    // one speed throughout it; otherwise its times cannot be scaled.
    let mut attempt = 1;
    let (mut rec, m) = loop {
        let mut rec = Recorder::new(attempt);
        let m = mirror(&mut rec, w, dir, &config)?;
        if m.steady || attempt == 3 {
            break (rec, m);
        }
        attempt += 1;
    };
    if !m.steady {
        out.notes.push(format!(
            "{}: the host changed speed during every traced run; its times are unresolved",
            w.name
        ));
    }
    let Mirror {
        platform,
        input,
        json,
        mut actions,
        build_s,
        ingest_s,
        run_s,
        manifest_s,
        mirror_s,
        top_level_s,
        ..
    } = m;

    let facts = Facts::of(&manifest::parse(&json)?)?;
    if facts.simulated_time_s.to_bits() != cli.facts.simulated_time_s.to_bits()
        || facts.messages != cli.facts.messages
    {
        out.fail(format!(
            "traced run no longer mirrors the CLI: simulated {} s / {} messages here, {} s / {} there",
            facts.simulated_time_s, facts.messages, cli.facts.simulated_time_s, cli.facts.messages
        ));
    }

    // --- isolated probes, outside the mirrored interval ---
    let probes = rec.enter("probes");
    if let TraceInput::Binary(path) = &input {
        // `.titb` cursors know their length without decoding.
        let cursors = binfmt::open_cursors(path, w.ranks).map_err(|e| e.to_string())?;
        actions = cursors.iter().filter_map(|c| c.remaining_hint()).sum();
    }
    let mut plan_s = 0.0;
    if threads >= 2 {
        let (planned, s, _) = scaled(&mut rec, "partition.plan", || {
            plan(&platform, &input, w.ranks, &config)
        });
        let (islands, certified) = planned?;
        plan_s = s;
        out.set("partition.plan_s", s);
        out.set("partition.islands", islands as f64);
        out.set("partition.certified", f64::from(u8::from(certified)));
    }
    let hosts = config.placement.assign(&platform, w.ranks)?;
    let (fel_ns, _, k) = scaled(&mut rec, "simkernel.fel_probe", || {
        fel_probe(w.ranks as usize * IN_FLIGHT_PER_RANK)
    });
    let fel_ns = fel_ns * k;
    let (flow_ns, _, k) = scaled(&mut rec, "netmodel.flow_probe", || {
        let degree = facts.sharing_rate_updates as f64 / facts.sharing_resolves.max(1) as f64;
        flow_probe(&platform, &hosts, degree.round().max(1.0) as usize)
    });
    let flow_ns = flow_ns * k;
    if w.name == SPANS_OVERHEAD_ON {
        let (with_spans, spans_s, _) = scaled(&mut rec, "replay.run+spans", || {
            replay_input_observed(&platform, &input, w.ranks, &config, true)
        });
        with_spans?;
        out.set("obs.spans_overhead_ratio", spans_s / run_s);
    }
    if w.name == PARALLEL_FIGURE_ON {
        parallel_figure(
            &mut rec,
            &mut out,
            w,
            &platform,
            &input,
            run_s,
            host_parallelism,
        )?;
    }
    rec.exit(probes);

    // --- the table ---
    let input_bytes = std::fs::metadata(&trace_path).map_or(0, |m| m.len());
    out.set("platform.build_s", build_s);
    out.set("titrace.ingest_s", ingest_s);
    out.set("titrace.actions", actions as f64);
    out.set("titrace.input_bytes", input_bytes as f64);
    out.set("titrace.actions_per_s", actions as f64 / ingest_s);
    out.set("replay.run_s", run_s);
    out.set("replay.ns_per_action", run_s * 1e9 / actions.max(1) as f64);
    out.set("simkernel.events", facts.events as f64);
    out.set("runtime.messages", facts.messages as f64);
    out.set("netmodel.flows", facts.flows as f64);
    out.set("netmodel.sharing_resolves", facts.sharing_resolves as f64);
    out.set("netmodel.live_entity_hwm", facts.live_entity_hwm as f64);
    out.set("simkernel.fel_ns_per_op", fel_ns);
    out.set("netmodel.flow_ns", flow_ns);
    let fel_est_s = facts.events as f64 * fel_ns / 1e9;
    let net_est_s = facts.flows as f64 * flow_ns / 1e9;
    out.set("simkernel.fel_est_s", fel_est_s);
    out.set("netmodel.est_s", net_est_s);
    out.set("runtime.est_s", run_s - plan_s - fel_est_s - net_est_s);
    out.set("obs.manifest_s", manifest_s);
    out.set("obs.manifest_bytes", json.len() as f64);

    let overhead_s = cli.wall_s - top_level_s;
    let share = overhead_s / cli.wall_s;
    out.set("process.overhead_s", overhead_s);
    out.set("process.overhead_share", share);
    out.set("tracing.overhead_s", mirror_s - cli.wall_s);
    if share.abs() > OVERHEAD_FLAG_SHARE {
        out.notes.push(format!(
            "{}: process.overhead_s is {:.1} % of e2e_wall_s (> {:.0} %): start-up, teardown or \
             drift between the CLI and its mirror",
            w.name,
            share * 100.0,
            OVERHEAD_FLAG_SHARE * 100.0
        ));
    }
    out.spans = rec.spans().to_vec();
    Ok(out)
}

/// `halo-p128.text` only: the same in-memory replay at 2 threads (16
/// islands on two workers) against 1 thread. A layer figure — it says
/// what the island engine does, never what a user's run costs.
fn parallel_figure(
    rec: &mut Recorder,
    out: &mut Traced,
    w: &Workload,
    platform: &Platform,
    input: &TraceInput,
    first_t1_s: f64,
    host_parallelism: usize,
) -> Result<(), String> {
    let t2 = replay_config(w, 2);
    let (planned, plan_s, _) = scaled(rec, "partition.plan", || {
        plan(platform, input, w.ranks, &t2)
    });
    let (islands, certified) = planned?;
    out.set("partition.plan_s", plan_s);
    out.set("partition.islands", islands as f64);
    out.set("partition.certified", f64::from(u8::from(certified)));
    if host_parallelism < 2 {
        out.notes.push(format!(
            "{}: replay.parallel_t2_* unresolved: 2 threads exceed host_parallelism {host_parallelism}",
            w.name
        ));
        return Ok(());
    }
    let t1 = replay_config(w, 1);
    let mut t1_s = vec![first_t1_s];
    let mut t2_s = Vec::new();
    for round in 0..5 {
        let (r, s, _) = scaled(rec, "replay.run.t2", || {
            replay_input_observed(platform, input, w.ranks, &t2, false)
        });
        r?;
        t2_s.push(s);
        if round < 2 {
            let (r, s, _) = scaled(rec, "replay.run.t1", || {
                replay_input_observed(platform, input, w.ranks, &t1, false)
            });
            r?;
            t1_s.push(s);
        }
    }
    let t2 = stats::summarize(&t2_s).expect("five samples");
    out.set("replay.parallel_t2_s", t2.median);
    out.set(
        "replay.parallel_t2_speedup",
        stats::median(&t1_s) / t2.median,
    );
    if t2.rel_spread() > RESOLVE_BOUND {
        out.notes.push(format!(
            "{}: replay.parallel_t2_* unresolved: spread {:.0} % of the median exceeds {:.0} % \
             (q1 {:.3} s, q3 {:.3} s, host_parallelism {host_parallelism})",
            w.name,
            t2.rel_spread() * 100.0,
            RESOLVE_BOUND * 100.0,
            t2.q1,
            t2.q3
        ));
    }
    Ok(())
}

/// Traced run of `serve.sweep`: every request is a span, `/stats` gives
/// the exact counts, and the same questions are executed once more
/// in-process (`query::execute`) to split HTTP cost from replay cost.
pub fn trace_serve(run: &ServeRun, dir: &Path) -> Result<Traced, String> {
    let mut out = Traced::default();
    let mut rec = Recorder::new(1);
    let mut lat = Latencies::default();
    let mut sample = Sample::default();

    let root = rec.enter("serve.sweep");
    let open = rec.enter("titserved.start");
    let server = Server::start(run.bins)?;
    rec.exit(open);
    let spin_before = calib::spin();
    let open = rec.enter("sweep");
    run.sweep(&server.addr, &mut sample, Some((&mut rec, &mut lat)));
    rec.exit(open);
    let k_sweep = Scale::between(spin_before, calib::spin()).k;
    let counts = run.counts(&server, &mut sample);
    let open = rec.enter("titserved.stop");
    if !server.stop()?.success {
        sample.errors.push("titserved exited with failure".into());
    }
    rec.exit(open);
    rec.exit(root);

    let probes = rec.enter("probes");
    let w = run.workload;
    let store = TraceStore::new();
    let trace_path = w.trace_path(dir);
    let (resolved, ingest_s, _) = scaled(&mut rec, "titrace.ingest", || {
        store.resolve(&trace_path.display().to_string(), w.ranks, true)
    });
    let resolved = resolved?;
    let mut direct_ms = Vec::new();
    let spin_before = calib::spin();
    for (i, body) in run.queries.iter().enumerate() {
        let q = WhatIfQuery::parse(body)?;
        let (json, s) = rec.time("titserved.direct_execute", || query::execute(&q, &resolved));
        direct_ms.push(s * 1e3);
        let facts = Facts::of(&manifest::parse(&json?)?)?;
        let want = &run.reference_facts[i];
        if facts.simulated_time_s.to_bits() != want.simulated_time_s.to_bits()
            || facts.messages != want.messages
        {
            sample.errors.push(format!(
                "traced run no longer mirrors the CLI: candidate {i} simulated {} s here, {} s there",
                facts.simulated_time_s, want.simulated_time_s
            ));
        }
    }
    let k_direct = Scale::between(spin_before, calib::spin()).k;
    rec.exit(probes);

    let sum = |f: fn(&Facts) -> u64| run.reference_facts.iter().map(f).sum::<u64>() as f64;
    let actions = resolved.trace.len() as f64;
    out.set("titrace.ingest_s", ingest_s);
    out.set("titrace.actions", actions);
    out.set(
        "titrace.input_bytes",
        std::fs::metadata(&trace_path).map_or(0, |m| m.len()) as f64,
    );
    out.set("titrace.actions_per_s", actions / ingest_s);
    out.set("simkernel.events", sum(|f| f.events));
    out.set("runtime.messages", sum(|f| f.messages));
    out.set("netmodel.flows", sum(|f| f.flows));
    out.set("netmodel.sharing_resolves", sum(|f| f.sharing_resolves));
    let cold = stats::median(&lat.cold_ms) * k_sweep;
    let direct = stats::median(&direct_ms) * k_direct;
    out.set("titserved.cold_query_ms", cold);
    out.set(
        "titserved.memo_query_ms",
        stats::median(&lat.memo_ms) * k_sweep,
    );
    out.set(
        "titserved.memo_query_p99_ms",
        stats::percentile(&lat.memo_ms, 99.0) * k_sweep,
    );
    out.set("titserved.direct_execute_ms", direct);
    out.set("titserved.http_overhead_ms", cold - direct);
    out.set("titserved.executions", counts.executions as f64);
    out.set("titserved.memo_hits", counts.memo_hits as f64);
    out.set("titserved.memo_bytes", counts.memo_bytes as f64);
    debug_assert_eq!(lat.cold_ms.len(), CANDIDATES);

    out.attempted = sample.attempted;
    out.failed = sample.failed;
    out.errors = sample.errors;
    out.spans = rec.spans().to_vec();
    Ok(out)
}
