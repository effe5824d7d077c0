//! Working with the trace format directly: write, parse, validate and
//! summarize time-independent traces, including a hand-written trace in
//! the paper's own text format.
//!
//! Run with: `cargo run --release --example trace_inspection`

use std::sync::Arc;

use tit_replay::prelude::*;
use tit_replay::titrace::{parse, stats::TraceStats, validate, write};

fn main() {
    // ------------------------------------------------------------------
    // A hand-written trace: a 3-rank ring with a final allreduce. The
    // text is exactly what the acquisition toolchain would emit.
    // ------------------------------------------------------------------
    let text = "\
p0 init
p0 compute 956140
p0 send p1 1240
p0 recv p2 1240
p0 allreduce 40
p0 finalize
p1 init
p1 compute 912002
p1 recv p0 1240
p1 send p2 1240
p1 allreduce 40
p1 finalize
p2 init
p2 compute 983113
p2 recv p1 1240
p2 send p0 1240
p2 allreduce 40
p2 finalize
";
    let trace = parse::parse_merged(text, 3).expect("parse failed");
    println!("parsed {} actions for {} ranks", trace.len(), trace.ranks());

    // Validate: matched channels, collective agreement, framing.
    let problems = validate::validate(&trace);
    println!("validation: {} issue(s)", problems.len());
    assert!(problems.is_empty());

    // Summarize.
    let stats = TraceStats::of(&trace);
    println!(
        "volumes: {:.2e} instructions total, {} messages, {} eager",
        stats.total_instructions(),
        stats.total_messages(),
        stats.total().eager_sends
    );

    // Round-trip: write and re-parse.
    let emitted = write::to_string(&trace);
    let back = parse::parse_merged(&emitted, 3).expect("round-trip failed");
    assert_eq!(back, trace);
    println!("round-trip: ok");

    // ------------------------------------------------------------------
    // Replay the hand-written trace on a tiny custom platform.
    // ------------------------------------------------------------------
    let spec = tit_replay::platform::PlatformSpec {
        name: "mini".into(),
        kind: tit_replay::platform::spec::SpecKind::Flat {
            nodes: 3,
            host_speed: 1e9,
            cores: 1,
            cache_bytes: 1 << 20,
            link_bandwidth: 1.25e8,
            link_latency: 20e-6,
            backbone_bandwidth: 1.25e9,
            backbone_latency: 5e-6,
        },
    };
    let platform = spec.build();
    let input = TraceInput::Memory(Arc::new(trace));
    let sim = replay_input_observed(&platform, &input, 3, &ReplayConfig::improved(1e9), false)
        .expect("replay failed");
    println!(
        "simulated on `{}`: {:.6}s ({} events)",
        platform.name,
        sim.time(),
        sim.metrics.events_processed
    );

    // ------------------------------------------------------------------
    // A corrupted trace is rejected with precise diagnostics.
    // ------------------------------------------------------------------
    let bad = "p0 send p1 100\np1 recv p0 999\n";
    let bad_trace = parse::parse_merged(bad, 2).expect("parse ok");
    let problems = validate::validate(&bad_trace);
    println!("\ncorrupted trace diagnostics:");
    for p in &problems {
        println!("  - {p}");
    }
    assert!(!problems.is_empty());
}
