//! Collective batching is unconditional: `smpi` always defers a
//! collective phase's sharing re-solve to the end of its instant. The
//! differential gates against the eager per-flow path live where the
//! fork still exists (`netmodel`'s mixed eager/deferred proptest and
//! `smpi`'s test-only eager switch). What is pinned here is the result:
//! simulated-time bits, messages and bytes recorded from the last commit
//! that still had the per-flow path as its default (78bd05c, flag off),
//! plus what the batching buys — one re-solve per flushed instant, each
//! collective flow rated once — and, in the LU goldens, the sharing
//! counters (recorded at db39a09).

use std::sync::Arc;

use tit_replay::platform::spec::SpecKind;
use tit_replay::prelude::*;

/// A flat switched cluster: every rank on its own node, so each
/// collective phase puts P uniform flows through the shared backbone —
/// the shape batching re-solves once per instant instead of P times.
fn flat(nodes: u32) -> Platform {
    PlatformSpec {
        name: "agg-flat".into(),
        kind: SpecKind::Flat {
            nodes,
            host_speed: 2e9,
            cores: 1,
            cache_bytes: 1 << 20,
            link_bandwidth: 1.25e9,
            link_latency: 1e-5,
            backbone_bandwidth: 1e10,
            backbone_latency: 1e-6,
        },
    }
    .build()
}

fn cfg(engine: ReplayEngine, threads: usize) -> ReplayConfig {
    ReplayConfig {
        engine,
        threads,
        ..ReplayConfig::improved(2e9)
    }
}

/// A collective-dense loop: compute, then allreduce, every iteration.
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

/// What the per-flow path computed: simulated-time bits, messages, bytes.
struct Golden(u64, u64, u64);

fn assert_golden(m: &Metrics, golden: &Golden, what: &str) {
    assert_eq!(
        m.simulated_time_s.to_bits(),
        golden.0,
        "{what}: simulated time {} moved",
        m.simulated_time_s
    );
    assert_eq!(m.messages, golden.1, "{what}: messages");
    assert_eq!(m.bytes, golden.2, "{what}: bytes");
}

/// LU (p2p-dominated with interspersed collectives): application flows
/// re-solve eagerly next to batched collective ones. On both engines the
/// run lands on the bits and the counters recorded at db39a09 (messages
/// and bytes are the per-flow path's from 78bd05c). One counter is
/// younger: smpi `rate updates` was 14 835 while the bottleneck path
/// counted every flow it visited; it now counts pushes. The `rates
/// examined` column (recorded at 1ab30f8) pins *which* neighbours an open
/// or close visits, as opposed to how cheaply it finds them. The smpi
/// `events` cell is younger still: it was 36 603 while every drained
/// flow queued its arrival timer; an eager message nobody observes at
/// drain (its receive not posted yet) now only reserves that timer, and
/// 5 128 of them are received after their arrival instant, so their
/// event is never queued. No time bit or other counter moved.
#[test]
fn lu_b8_matches_the_goldens() {
    let lu = LuConfig::new(LuClass::B, 8).with_steps(4);
    let trace = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 42).trace;
    let input = TraceInput::Memory(Arc::new(trace));
    let platform = tit_replay::platform::clusters::graphene();
    // (engine, time bits, events, re-solves, rate updates, rates examined)
    let smpi = (ReplayEngine::Smpi, 8319, 26_637_400);
    let msg = (ReplayEngine::Msg, 8240, 26_634_240);
    for ((engine, messages, bytes), time, events, resolves, updates, examined) in [
        (smpi, 0x3ff2_a2e6_70ac_572a, 31_475, 16_594, 11_614, 14_832),
        (msg, 0x3ff4_611d_ca3d_72f9, 33_278, 16_480, 8450, 8450),
    ] {
        let what = format!("LU B-8 {engine:?}");
        let m = replay_input_observed(&platform, &input, 8, &cfg(engine, 1), false)
            .unwrap()
            .metrics;
        assert_golden(&m, &Golden(time, messages, bytes), &what);
        assert_eq!(m.events_processed, events, "{what}: events");
        assert_eq!(m.net.resolves, resolves, "{what}: re-solves");
        assert_eq!(m.net.rate_updates, updates, "{what}: rate updates");
        assert_eq!(m.net.examined, examined, "{what}: rates examined");
    }
}

/// The collective-dense shape, sequential and through the parallel
/// engine: the per-flow path's bits, with every phase batched whole —
/// every re-solve is a flush, every flow is examined and rated exactly
/// once, and the kernel processes a bounded number of events per message
/// instead of one rate change per (flow, neighbour) pair.
#[test]
fn allreduce_matches_the_per_flow_goldens_with_one_resolve_per_flush() {
    for (ranks, iters, golden) in [
        (16, 12, Golden(0x3f97_2876_d2d6_624f, 5760, 23_592_960)),
        (128, 3, Golden(0x3fa7_ef7d_9753_9b1f, 97_536, 49_938_432)),
    ] {
        let platform = flat(ranks);
        let input = TraceInput::Memory(Arc::new(allreduce_trace(ranks, iters, 1 << 16)));
        for threads in [1, 4] {
            let what = format!("allreduce P={ranks} threads={threads}");
            let config = cfg(ReplayEngine::Smpi, threads);
            let m = replay_input_observed(&platform, &input, ranks, &config, false)
                .unwrap()
                .metrics;
            assert_golden(&m, &golden, &what);
            let net = &m.net;
            assert_eq!(net.live_flow_hwm, u64::from(ranks), "{what}");
            assert_eq!(
                net.resolves, net.flush_batches,
                "{what}: a re-solve ran outside a flush"
            );
            assert_eq!(
                net.examined, net.flows_opened,
                "{what}: a collective flow was examined more than once"
            );
            assert_eq!(
                net.rate_updates, net.flows_opened,
                "{what}: a collective flow was rated more than once"
            );
            assert!(
                m.events_processed <= 3 * m.messages,
                "{what}: {} events for {} messages",
                m.events_processed,
                m.messages
            );
        }
    }
}
