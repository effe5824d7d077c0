//! Differential tests of the windowed-PDES engine: parallel replay
//! *inside* one coupled component. When the sub-shard certificate holds
//! (eager-only cross traffic, exclusive link ownership, positive
//! lookahead — see `replay::partition::plan_subshards`), the component
//! is replayed across threads through window-barrier mailboxes and must
//! stay bit-identical to the sequential replay; when it does not hold
//! (collectives, shared fabric), the engine must fall back and stay
//! byte-identical to the pre-existing paths, exports included.

use proptest::prelude::*;
use std::sync::Arc;

use tit_replay::platform::topology::{direct_cluster, DirectClusterSpec};
use tit_replay::prelude::*;
use tit_replay::replay::replay_observed;

/// A non-blocking crossbar: every route is a dedicated NIC-link pair,
/// so a ring trace certifies a sub-shard plan (no shared fabric links,
/// one sender per receiver link).
fn direct(nodes: u32) -> Platform {
    direct_cluster(&DirectClusterSpec {
        name: "xbar".into(),
        nodes,
        host_speed: 1e9,
        cores: 1,
        cache_bytes: 1 << 20,
        link_bandwidth: 1.25e8,
        link_latency: 1e-5,
    })
}

fn cfg(engine: ReplayEngine, threads: usize) -> ReplayConfig {
    ReplayConfig {
        engine,
        threads,
        ..ReplayConfig::improved(1e9)
    }
}

/// A fully coupled ring without collectives: every rank exchanges
/// `bytes` with both ring neighbours each iteration, then computes a
/// rank-dependent amount (so event times never tie across ranks).
fn ring_trace(ranks: u32, iters: u32, bytes: u64) -> Trace {
    let mut trace = Trace::new(ranks);
    for r in 0..ranks {
        let next = Rank((r + 1) % ranks);
        let prev = Rank((r + ranks - 1) % ranks);
        let rank = Rank(r);
        trace.push(rank, Action::Init);
        for i in 0..iters {
            trace.push(rank, Action::Irecv { src: prev, bytes });
            trace.push(rank, Action::Isend { dst: next, bytes });
            trace.push(rank, Action::WaitAll);
            trace.push(
                rank,
                Action::Compute {
                    amount: 1e5 + (r as f64) * 1.7e3 + (i as f64) * 3.1e2,
                },
            );
        }
        trace.push(rank, Action::Finalize);
    }
    trace
}

/// Asserts two reports are indistinguishable in everything the
/// execution path may not change: result bits, semantic metrics,
/// exports. (FEL restructuring counters and live-occupancy high-water
/// marks measure the data structures, not the simulation — same
/// exclusions as the island-parallel differential tests.)
fn assert_identical(base: &ReplayReport, other: &ReplayReport, what: &str) {
    assert_eq!(
        base.result.time.to_bits(),
        other.result.time.to_bits(),
        "{what}: simulated time differs"
    );
    let base_bits: Vec<u64> = base.result.rank_times.iter().map(|t| t.to_bits()).collect();
    let other_bits: Vec<u64> = other
        .result
        .rank_times
        .iter()
        .map(|t| t.to_bits())
        .collect();
    assert_eq!(base_bits, other_bits, "{what}: rank times differ");
    assert_eq!(base.result, other.result, "{what}: results differ");
    let mut other_metrics = other.metrics.clone();
    other_metrics.fel.spills = base.metrics.fel.spills;
    other_metrics.fel.bucket_sorts = base.metrics.fel.bucket_sorts;
    other_metrics.fel.reseeds = base.metrics.fel.reseeds;
    other_metrics.live_flow_hwm = base.metrics.live_flow_hwm;
    other_metrics.live_entity_hwm = base.metrics.live_entity_hwm;
    // Match-queue depth HWMs: the windowed engine
    // injects cross envelopes at the window boundary, not at their
    // simulated arrival instant, so an envelope can transiently sit
    // unexpected where the merged run matched it directly. The matching
    // *outcome* — which recv pairs with which send, and when — is
    // covered by the result/time/flow equality above.
    other_metrics.max_unexpected_depth = base.metrics.max_unexpected_depth;
    other_metrics.max_posted_depth = base.metrics.max_posted_depth;
    assert_eq!(base.metrics, other_metrics, "{what}: metrics differ");
    match (&base.spans, &other.spans) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(
                chrome_trace(a),
                chrome_trace(b),
                "{what}: chrome trace differs"
            );
            assert_eq!(state_csv(a), state_csv(b), "{what}: state csv differs");
        }
        _ => panic!("{what}: span presence differs"),
    }
}

/// The tentpole guarantee: a fully coupled ring — one island, which the
/// island engine could never parallelise — replays bit-identically
/// through the windowed sub-shard engine at any thread count, and the
/// engine really engages (the report carries PDES figures).
#[test]
fn coupled_ring_is_bit_identical_across_thread_counts() {
    let platform = direct(8);
    let trace = Arc::new(ring_trace(8, 12, 1 << 10));
    let base = replay_observed(&platform, &trace, &cfg(ReplayEngine::Smpi, 1), false).unwrap();
    assert!(base.result.time > 0.0);
    assert!(base.pdes.is_none(), "sequential path must not report PDES");
    for threads in [2, 4, 7] {
        let par =
            replay_observed(&platform, &trace, &cfg(ReplayEngine::Smpi, threads), false).unwrap();
        assert_identical(&base, &par, &format!("ring threads={threads}"));
        let pdes = par.pdes.expect("windowed engine should engage");
        assert_eq!(pdes.shards, threads.min(8));
        assert!(pdes.windows > 0, "no window rounds counted");
        assert!(pdes.mailbox_envelopes > 0, "no cross-shard envelopes");
        assert_eq!(
            pdes.mailbox_envelopes, pdes.mailbox_arrivals,
            "every envelope has exactly one arrival"
        );
        // Direct route: two 10µs NIC hops; the window is half of it.
        assert!((pdes.lookahead_s - 2e-5).abs() < 1e-12);
        assert!((pdes.window_s - 1e-5).abs() < 1e-12);
    }
}

/// Bit-identity holds under a user-tightened window (a wider user
/// window must be clamped to the safe half-lookahead, never widening
/// the horizon).
#[test]
fn windowed_ring_is_identical_across_windows() {
    let platform = direct(6);
    let trace = Arc::new(ring_trace(6, 8, 1 << 12));
    let base_cfg = cfg(ReplayEngine::Smpi, 1);
    let base = replay_observed(&platform, &trace, &base_cfg, false).unwrap();
    for window_s in [None, Some(1e-6), Some(10.0)] {
        let mut par_cfg = base_cfg.clone();
        par_cfg.threads = 3;
        par_cfg.window_s = window_s;
        let par = replay_observed(&platform, &trace, &par_cfg, false).unwrap();
        assert_identical(&base, &par, &format!("window={window_s:?}"));
        let pdes = par.pdes.expect("windowed engine should engage");
        assert!(
            pdes.window_s <= pdes.lookahead_s / 2.0 + 1e-18,
            "window {} exceeds safe bound {}",
            pdes.window_s,
            pdes.lookahead_s / 2.0
        );
    }
}

/// Span recording is a documented windowed-engine gate: the run must
/// fall back to the sequential path (identical, spans present, no PDES
/// figures).
#[test]
fn span_recording_falls_back_to_sequential() {
    let platform = direct(6);
    let trace = Arc::new(ring_trace(6, 4, 1 << 10));
    let base = replay_observed(&platform, &trace, &cfg(ReplayEngine::Smpi, 1), true).unwrap();
    let par = replay_observed(&platform, &trace, &cfg(ReplayEngine::Smpi, 4), true).unwrap();
    assert_identical(&base, &par, "spans threads=4");
    assert!(par.pdes.is_none(), "recording must disable the engine");
    assert!(par.spans.is_some());
}

/// A deadlocked shard must surface the failure (naming the shard)
/// instead of hanging the window barriers.
#[test]
fn windowed_deadlock_is_reported() {
    let platform = direct(4);
    let mut trace = Trace::new(4);
    for r in 0..4u32 {
        trace.push(Rank(r), Action::Init);
    }
    // A ring of sends so the certificate sees cross-shard traffic...
    for r in 0..4u32 {
        trace.push(
            Rank(r),
            Action::Isend {
                dst: Rank((r + 1) % 4),
                bytes: 64,
            },
        );
        trace.push(
            Rank(r),
            Action::Recv {
                src: Rank((r + 3) % 4),
                bytes: 64,
            },
        );
        trace.push(Rank(r), Action::Wait);
    }
    // ... and one receive nobody ever sends to.
    trace.push(
        Rank(2),
        Action::Recv {
            src: Rank(0),
            bytes: 64,
        },
    );
    for r in 0..4u32 {
        trace.push(Rank(r), Action::Finalize);
    }
    let err = replay_observed(
        &platform,
        &Arc::new(trace),
        &cfg(ReplayEngine::Smpi, 2),
        false,
    )
    .unwrap_err();
    assert!(err.contains("deadlock"), "unexpected error: {err}");
    assert!(err.contains("shard"), "should name the shard: {err}");
}

/// LU (collectives ⇒ certificate fails) must take the byte-identical
/// fallback at every thread count, on both engines — including the
/// observability exports and the critical path.
#[test]
fn lu_falls_back_identically_across_engines_threads() {
    let lu = LuConfig::new(LuClass::B, 8).with_steps(3);
    let trace =
        Arc::new(acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 42).trace);
    let platform = tit_replay::platform::clusters::graphene();
    for engine in [ReplayEngine::Smpi, ReplayEngine::Msg] {
        let base_cfg = cfg(engine, 1);
        let base = replay_observed(&platform, &trace, &base_cfg, true).unwrap();
        let base_cp = base.critical_path().expect("spans recorded");
        for threads in [2, 4, 7] {
            let mut par_cfg = base_cfg.clone();
            par_cfg.threads = threads;
            let par = replay_observed(&platform, &trace, &par_cfg, true).unwrap();
            assert_identical(&base, &par, &format!("LU {engine:?} t={threads}"));
            assert!(par.pdes.is_none(), "collectives must gate the engine");
            let par_cp = par.critical_path().expect("spans recorded");
            assert_eq!(
                format!("{base_cp:?}"),
                format!("{par_cp:?}"),
                "critical path differs"
            );
        }
    }
}

/// Allreduce at P=128: the same fallback guarantee for a pure
/// collective workload at scale.
#[test]
fn allreduce_128_falls_back_identically() {
    let ranks = 128u32;
    let mut trace = Trace::new(ranks);
    for r in 0..ranks {
        let rank = Rank(r);
        trace.push(rank, Action::Init);
        for i in 0..3 {
            trace.push(
                rank,
                Action::Compute {
                    amount: 1e5 + (r as f64) * 1.3e3 + (i as f64) * 7e2,
                },
            );
            trace.push(rank, Action::Allreduce { bytes: 1 << 10 });
        }
        trace.push(rank, Action::Finalize);
    }
    let trace = Arc::new(trace);
    let platform = tit_replay::platform::clusters::graphene();
    for engine in [ReplayEngine::Smpi, ReplayEngine::Msg] {
        let base_cfg = cfg(engine, 1);
        let base = replay_observed(&platform, &trace, &base_cfg, true).unwrap();
        for threads in [2, 4, 7] {
            let mut par_cfg = base_cfg.clone();
            par_cfg.threads = threads;
            let par = replay_observed(&platform, &trace, &par_cfg, true).unwrap();
            assert_identical(&base, &par, &format!("allreduce {engine:?} t={threads}"));
            assert!(par.pdes.is_none(), "collectives must gate the engine");
        }
    }
}

/// Strategy: a random coupled ring — rank count, iterations, per-size
/// eager messages, compute grain, and whether iterations use the
/// pre-posted (`Irecv`/`Isend`/`WaitAll`) or the send-first
/// (`Isend`/`Recv`/`Wait`) shape.
fn arb_ring() -> impl Strategy<Value = (u32, u32, u64, f64, bool)> {
    (4u32..9, 1u32..8, 6u32..16, 1e3f64..1e6, any::<bool>()).prop_map(
        |(ranks, iters, log_bytes, compute, preposted)| {
            (ranks, iters, 1u64 << log_bytes, compute, preposted)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random coupled rings with cross-shard traffic replay
    /// bit-identically through the windowed engine at threads 2, 4, 7.
    #[test]
    fn random_coupled_rings_replay_identically(
        (ranks, iters, bytes, compute, preposted) in arb_ring(),
    ) {
        let platform = direct(ranks);
        let mut trace = Trace::new(ranks);
        for r in 0..ranks {
            let next = Rank((r + 1) % ranks);
            let prev = Rank((r + ranks - 1) % ranks);
            let rank = Rank(r);
            trace.push(rank, Action::Init);
            for i in 0..iters {
                if preposted {
                    trace.push(rank, Action::Irecv { src: prev, bytes });
                    trace.push(rank, Action::Isend { dst: next, bytes });
                    trace.push(rank, Action::WaitAll);
                } else {
                    trace.push(rank, Action::Isend { dst: next, bytes });
                    trace.push(rank, Action::Recv { src: prev, bytes });
                    trace.push(rank, Action::Wait);
                }
                trace.push(rank, Action::Compute {
                    amount: compute * (1.0 + 0.13 * r as f64 + 0.017 * i as f64),
                });
            }
            trace.push(rank, Action::Finalize);
        }
        let trace = Arc::new(trace);
        let base = replay_observed(&platform, &trace, &cfg(ReplayEngine::Smpi, 1), false).unwrap();
        for threads in [2, 4, 7] {
            let par = replay_observed(
                &platform, &trace, &cfg(ReplayEngine::Smpi, threads), false,
            ).unwrap();
            assert_identical(&base, &par, &format!("random ring threads={threads}"));
            prop_assert!(par.pdes.is_some(), "windowed engine should engage");
        }
    }
}
