//! Collective flow aggregation is unconditional: `smpi` always batches a
//! collective phase's sharing re-solve to the end of its instant. The
//! differential gates against the eager per-flow path live where the
//! fork still exists (`netmodel`'s mixed eager/deferred proptest and
//! `smpi`'s test-only eager switch). What is pinned here is the result:
//! simulated-time bits, messages and bytes recorded from the last commit
//! that still had the per-flow path as its default (78bd05c, flag off),
//! plus the reductions the batching exists for; the LU goldens also pin
//! the sharing counters under all three policies (recorded at db39a09).

use std::sync::Arc;

use tit_replay::platform::spec::SpecKind;
use tit_replay::prelude::*;

/// A flat switched cluster: every rank on its own node, so each
/// collective phase puts P uniform flows through the shared backbone —
/// the shape aggregation collapses to O(1).
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
/// re-solve eagerly next to batched collective ones. Under every sharing
/// policy, on both engines, the run lands on the bits and
/// the counters recorded at db39a09 — the last commit whose link tables
/// were in slab-swap order, which fed `flush_maxmin`'s seed choice and
/// `expand_component`'s discovery order. Messages and bytes are the
/// per-flow path's from 78bd05c; they do not depend on the policy. One
/// counter is younger: smpi/Bottleneck `rate updates` was 14 835 while
/// the bottleneck path counted every flow it visited; it now counts
/// pushes, like the max-min rows always did. The `rates examined` column
/// (recorded at 1ab30f8) pins *which* neighbours an open or close visits,
/// as opposed to how cheaply it finds them.
#[test]
fn lu_b8_matches_the_goldens_under_every_policy() {
    use tit_replay::netmodel::SharingPolicy::{Bottleneck, MaxMin, MaxMinFull};
    let lu = LuConfig::new(LuClass::B, 8).with_steps(4);
    let trace =
        Arc::new(acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 42).trace);
    let platform = tit_replay::platform::clusters::graphene();
    // (engine, policy, time bits, events, re-solves, rate updates, rates
    // examined)
    let smpi = (ReplayEngine::Smpi, 8319, 26_637_400);
    let msg = (ReplayEngine::Msg, 8240, 26_634_240);
    for ((engine, messages, bytes), sharing, time, events, resolves, updates, examined) in [
        (
            smpi,
            Bottleneck,
            0x3ff2_a2e6_70ac_572a,
            36_603,
            16_594,
            11_614,
            14_832,
        ),
        (
            smpi,
            MaxMin,
            0x3ff2_a2cf_a1f9_0239,
            33_340,
            11_453,
            8351,
            14_907,
        ),
        (
            smpi,
            MaxMinFull,
            0x3ff2_a2cf_a1f9_0239,
            33_340,
            14_217,
            8351,
            18_355,
        ),
        (
            msg,
            Bottleneck,
            0x3ff4_611d_ca3d_72f9,
            33_278,
            16_480,
            8450,
            8450,
        ),
        (msg, MaxMin, 0x3ff4_611d_ca3d_72f9, 33_278, 8345, 8450, 8450),
        (
            msg,
            MaxMinFull,
            0x3ff4_611d_ca3d_72f9,
            33_278,
            14_162,
            8450,
            14_358,
        ),
    ] {
        let what = format!("LU B-8 {engine:?} {sharing:?}");
        let config = ReplayConfig {
            sharing,
            ..cfg(engine, 1)
        };
        let m = replay_observed(&platform, &trace, &config, false)
            .unwrap()
            .metrics;
        assert_golden(&m, &Golden(time, messages, bytes), &what);
        assert_eq!(m.events_processed, events, "{what}: events");
        assert_eq!(m.sharing_resolves, resolves, "{what}: re-solves");
        assert_eq!(m.sharing_rate_updates, updates, "{what}: rate updates");
        assert_eq!(m.sharing_examined, examined, "{what}: rates examined");
    }
}

/// The collective-dense shape, sequential and through the parallel
/// engine: the per-flow path's bits, with every phase batched whole —
/// one live entity, no aggregate split by outside traffic, and the
/// kernel processing a bounded number of events per message instead of
/// one rate change per (flow, neighbour) pair.
#[test]
fn allreduce_matches_the_per_flow_goldens_with_o1_entities() {
    for (ranks, iters, golden) in [
        (16, 12, Golden(0x3f97_2876_d2d6_624f, 5760, 23_592_960)),
        (128, 3, Golden(0x3fa7_ef7d_9753_9b1f, 97_536, 49_938_432)),
    ] {
        let platform = flat(ranks);
        let trace = Arc::new(allreduce_trace(ranks, iters, 1 << 16));
        for threads in [1, 4] {
            let what = format!("allreduce P={ranks} threads={threads}");
            let config = cfg(ReplayEngine::Smpi, threads);
            let m = replay_observed(&platform, &trace, &config, false)
                .unwrap()
                .metrics;
            assert_golden(&m, &golden, &what);
            assert_eq!(m.live_flow_hwm, u64::from(ranks), "{what}");
            assert_eq!(m.live_entity_hwm, 1, "{what}: collapse should be total");
            assert_eq!(
                m.sharing_rate_updates, m.flows_created,
                "{what}: a collective flow was rated more than once"
            );
            assert_eq!(m.agg_splits, 0, "{what}");
            assert!(
                m.events_processed <= 3 * m.messages,
                "{what}: {} events for {} messages",
                m.events_processed,
                m.messages
            );
        }
    }
}
