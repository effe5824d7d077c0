//! End-to-end simulator performance: simulated events per second for
//! both replay back-ends and the emulated testbed (the paper's
//! "efficiency" axis as it applies to this implementation), plus the
//! cost of the exact max-min sharing policies at the largest configured
//! process count — incremental recomputation vs full recomputation.

use std::sync::Arc;

use bench::perfwork;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tit_replay::acquisition::{acquire, CompilerOpt, Instrumentation};
use tit_replay::emulator::Testbed;
use tit_replay::netmodel::SharingPolicy;
use tit_replay::prelude::*;

fn config(engine: ReplayEngine, sharing: SharingPolicy) -> ReplayConfig {
    ReplayConfig {
        engine,
        sharing,
        // Pinned sequential: these benches measure the single-thread
        // hot path regardless of the environment.
        threads: 1,
        ..ReplayConfig::improved(2e9)
    }
}

fn replay_speed(c: &mut Criterion) {
    let lu = LuConfig::new(LuClass::S, 16).with_steps(10);
    let trace = Arc::new(acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace);
    let platform = tit_replay::platform::clusters::bordereau();
    // Measure the event count once per engine for throughput reporting.
    let events = |engine| {
        replay(
            &platform,
            &trace,
            &config(engine, SharingPolicy::Bottleneck),
        )
        .unwrap()
        .events
    };
    let mut g = c.benchmark_group("replay_speed");
    g.sample_size(20);
    for engine in [ReplayEngine::Smpi, ReplayEngine::Msg] {
        g.throughput(Throughput::Elements(events(engine)));
        g.bench_with_input(
            BenchmarkId::new("engine", format!("{engine:?}")),
            &engine,
            |b, engine| {
                b.iter(|| {
                    replay(
                        &platform,
                        &trace,
                        &config(*engine, SharingPolicy::Bottleneck),
                    )
                    .unwrap()
                })
            },
        );
    }
    g.finish();

    // Exact max-min sharing at the largest configured process count
    // (P=128), on the showcase cabinet platform whose intra-cabinet
    // halo-exchange traffic splits into one sharing component per
    // cabinet: incremental recomputation only re-solves the component a
    // flow touches, the full-recompute reference re-solves every live
    // flow on every churn event. Same simulated times, bit for bit —
    // only the wall clock differs.
    let showcase = perfwork::showcase_platform();
    let halo = Arc::new(perfwork::halo_exchange_trace(128, 50, 1 << 20));
    let halo_events = replay(
        &showcase,
        &halo,
        &config(ReplayEngine::Smpi, SharingPolicy::MaxMin),
    )
    .unwrap()
    .events;
    let mut g = c.benchmark_group("replay_sharing");
    g.sample_size(10);
    g.throughput(Throughput::Elements(halo_events));
    for sharing in [SharingPolicy::MaxMinFull, SharingPolicy::MaxMin] {
        g.bench_with_input(
            BenchmarkId::new("halo_p128", format!("{sharing:?}")),
            &sharing,
            |b, sharing| {
                b.iter(|| replay(&showcase, &halo, &config(ReplayEngine::Smpi, *sharing)).unwrap())
            },
        );
    }
    g.finish();

    let mut g = c.benchmark_group("emulation_speed");
    g.sample_size(10);
    let tb = Testbed::bordereau();
    let ev = tb
        .run_lu(&lu, Instrumentation::None, CompilerOpt::O3)
        .unwrap()
        .events;
    g.throughput(Throughput::Elements(ev));
    g.bench_function("testbed_lu_s16", |b| {
        b.iter(|| {
            tb.run_lu(&lu, Instrumentation::None, CompilerOpt::O3)
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, replay_speed);
criterion_main!(benches);
