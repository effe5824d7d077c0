//! Differential tests of parallel replay: at any thread count a replay
//! must be *bit-identical* to the sequential one — simulated times,
//! per-rank times, unified metrics, and the byte-for-byte observability
//! exports.
//!
//! `--threads` parallelises across coupling islands only. A multi-island
//! trace runs the island engine; a trace that forms one coupled component
//! — a collective-free ring on a crossbar, LU, an allreduce — takes the
//! sequential path whatever `threads` says, including the rings the
//! sub-shard certificate of `replay::partition::plan_subshards` accepts
//! (a windowed engine that split such components lost to the sequential
//! replay wherever it engaged and was deleted — DESIGN.md "Parallel
//! replay").

use proptest::prelude::*;
use std::sync::Arc;

use tit_replay::platform::topology::{
    cabinet_cluster, direct_cluster, CabinetClusterSpec, DirectClusterSpec,
};
use tit_replay::prelude::*;

/// A cabinet cluster whose intra-cabinet traffic decomposes into one
/// coupling island per cabinet (intra-cabinet routes don't share
/// links; see `replay::partition`).
fn cabinets(cabs: u32, per: u32) -> Platform {
    cabinet_cluster(&CabinetClusterSpec {
        name: "c".into(),
        cabinets: cabs,
        nodes_per_cabinet: per,
        host_speed: 1e9,
        cores: 1,
        cache_bytes: 1 << 20,
        link_bandwidth: 1.25e9,
        link_latency: 1e-5,
        cabinet_bandwidth: 1e10,
        cabinet_latency: 2e-6,
        backbone_bandwidth: 1e11,
        backbone_latency: 1e-6,
    })
}

fn cfg(engine: ReplayEngine, threads: usize) -> ReplayConfig {
    ReplayConfig {
        engine,
        threads,
        ..ReplayConfig::improved(1e9)
    }
}

/// Intra-cabinet ring exchange: every rank swaps `bytes` with both
/// neighbours inside its own cabinet each iteration, then computes.
/// Deadlock-free (receives pre-posted) and multi-island by design.
fn halo_trace(cabs: u32, per: u32, iters: u32, bytes: u64) -> Trace {
    let ranks = cabs * per;
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

/// A non-blocking crossbar: every route is a dedicated NIC-link pair,
/// so a ring trace certifies a sub-shard plan (no shared fabric links,
/// one sender per receiver link) — the shape the deleted engine split.
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

/// Replays a whole in-memory trace through the one replay entry.
fn replay_memory(
    platform: &Platform,
    trace: &Arc<Trace>,
    config: &ReplayConfig,
    record_spans: bool,
) -> Result<RunReport, String> {
    let input = TraceInput::Memory(Arc::clone(trace));
    replay_input_observed(platform, &input, trace.ranks(), config, record_spans)
}

/// Asserts that `other` is indistinguishable from the sequential `base`:
/// identical result bits, identical metrics, byte-identical exports. A
/// coupled trace falls back to the sequential path itself, so every
/// metric must agree; when `other` ran the island engine, the live-flow
/// high-water mark, which measures one network model's occupancy rather
/// than the simulation, is exempt.
fn assert_identical(base: &RunReport, other: &RunReport, what: &str) {
    assert_eq!(
        base.time().to_bits(),
        other.time().to_bits(),
        "{what}: simulated time differs"
    );
    let base_bits: Vec<u64> = base.rank_times.iter().map(|t| t.to_bits()).collect();
    let other_bits: Vec<u64> = other.rank_times.iter().map(|t| t.to_bits()).collect();
    assert_eq!(base_bits, other_bits, "{what}: rank times differ");
    let counts = |r: &RunReport| (r.metrics.messages, r.metrics.events_processed);
    assert_eq!(counts(base), counts(other), "{what}: results differ");
    let mut other_metrics = other.metrics.clone();
    if other.profile.mode == "islands" {
        // Live-flow high-water marks are per-network-model figures: the
        // sequential replay sees every island's flows in one model while
        // the island engine folds per-island maxima. They measure
        // occupancy, not simulation semantics.
        other_metrics.net.live_flow_hwm = base.metrics.net.live_flow_hwm;
    }
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

/// The headline guarantee on a multi-island workload: both engines,
/// every thread count, full observability — indistinguishable from the
/// sequential replay.
#[test]
fn parallel_replay_is_bit_identical_across_thread_counts() {
    let platform = cabinets(4, 4);
    let trace = Arc::new(halo_trace(4, 4, 20, 1 << 10));
    for engine in [ReplayEngine::Smpi, ReplayEngine::Msg] {
        let base = replay_memory(&platform, &trace, &cfg(engine, 1), true).unwrap();
        assert!(base.time() > 0.0);
        for threads in [2, 4, 7] {
            let par = replay_memory(&platform, &trace, &cfg(engine, threads), true).unwrap();
            assert_identical(&base, &par, &format!("{engine:?} threads={threads}"));
        }
    }
}

/// Mixed eager/rendezvous traffic (the 64 KiB threshold) partitions
/// and merges identically.
#[test]
fn parallel_replay_handles_rendezvous_traffic() {
    let platform = cabinets(3, 4);
    let trace = Arc::new(halo_trace(3, 4, 6, 1 << 20));
    let base = replay_memory(&platform, &trace, &cfg(ReplayEngine::Smpi, 1), true).unwrap();
    let par = replay_memory(&platform, &trace, &cfg(ReplayEngine::Smpi, 4), true).unwrap();
    assert!(
        base.metrics.rendezvous_messages > 0,
        "trace should exercise rendezvous"
    );
    assert_identical(&base, &par, "rendezvous threads=4");
}

/// The wall-clock profile is observational only: every replay carries
/// one, the island engine's per-worker breakdown fits inside the measured
/// wall interval, and every simulated output bit matches the sequential
/// replay's.
#[test]
fn profiled_replay_is_consistent_and_changes_nothing() {
    let platform = cabinets(4, 4);
    let trace = Arc::new(halo_trace(4, 4, 10, 1 << 12));
    let seq = replay_memory(&platform, &trace, &cfg(ReplayEngine::Smpi, 1), true).unwrap();
    assert_eq!(seq.profile.mode, "sequential");
    assert_eq!(seq.profile.workers.len(), 1);
    let par = replay_memory(&platform, &trace, &cfg(ReplayEngine::Smpi, 4), true).unwrap();
    assert_identical(&seq, &par, "threads 1 vs 4");

    let prof = par.profile;
    assert_eq!(prof.mode, "islands");
    assert!(prof.wall_s > 0.0, "wall clock must have advanced");
    assert!(prof.workers.len() >= 2, "profile: {prof:?}");
    assert!(prof.imbalance() >= 1.0, "profile: {prof:?}");
    let ranks: usize = prof.workers.iter().map(|w| w.ranks).sum();
    assert_eq!(ranks, 16, "workers must cover every rank once");
    for w in &prof.workers {
        assert!(w.work_s > 0.0, "worker {} timed nothing", w.worker);
        assert!(
            w.work_s <= w.wall_s,
            "worker {}: work {} exceeds wall {}",
            w.worker,
            w.work_s,
            w.wall_s
        );
    }
}

/// A deadlocked partition reports the failure instead of hanging the
/// worker pool.
#[test]
fn parallel_replay_reports_partition_deadlock() {
    let platform = cabinets(2, 2);
    let mut trace = Trace::new(4);
    for r in 0..4u32 {
        trace.push(Rank(r), Action::Init);
    }
    // Cabinet 0 is fine; cabinet 1 has a receive nobody sends to.
    trace.push(
        Rank(0),
        Action::Send {
            dst: Rank(1),
            bytes: 64,
        },
    );
    trace.push(
        Rank(1),
        Action::Recv {
            src: Rank(0),
            bytes: 64,
        },
    );
    trace.push(
        Rank(2),
        Action::Recv {
            src: Rank(3),
            bytes: 64,
        },
    );
    for r in 0..4u32 {
        trace.push(Rank(r), Action::Finalize);
    }
    let err = replay_memory(
        &platform,
        &Arc::new(trace),
        &cfg(ReplayEngine::Smpi, 2),
        false,
    )
    .unwrap_err();
    assert!(err.contains("deadlock"), "unexpected error: {err}");
    assert!(
        err.contains("partition"),
        "should name the partition: {err}"
    );
}

/// LU end-to-end: collectives couple all ranks into one island, so any
/// thread count takes the sequential fallback — and must be
/// indistinguishable from it.
#[test]
fn lu_replay_is_identical_across_threads() {
    let lu = LuConfig::new(LuClass::B, 8).with_steps(4);
    let trace =
        Arc::new(acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 42).trace);
    let platform = tit_replay::platform::clusters::graphene();
    let base_cfg = cfg(ReplayEngine::Smpi, 1);
    let base = replay_memory(&platform, &trace, &base_cfg, true).unwrap();
    for threads in [2, 4] {
        let mut par_cfg = base_cfg.clone();
        par_cfg.threads = threads;
        let par = replay_memory(&platform, &trace, &par_cfg, true).unwrap();
        assert_identical(&base, &par, &format!("LU threads={threads}"));
    }
}

/// A fully coupled ring — one island, which the island engine cannot
/// parallelise, and which the sub-shard certificate accepts — replays at
/// any thread count exactly as at one.
#[test]
fn coupled_ring_is_bit_identical_across_thread_counts() {
    let platform = direct(8);
    let trace = Arc::new(ring_trace(8, 12, 1 << 10));
    let base = replay_memory(&platform, &trace, &cfg(ReplayEngine::Smpi, 1), false).unwrap();
    assert!(base.time() > 0.0);
    for threads in [2, 4, 7] {
        let par =
            replay_memory(&platform, &trace, &cfg(ReplayEngine::Smpi, threads), false).unwrap();
        assert_identical(&base, &par, &format!("ring threads={threads}"));
    }
}

/// With span recording on, the coupled ring's exports are byte-identical
/// at four threads too.
#[test]
fn span_recording_falls_back_to_sequential() {
    let platform = direct(6);
    let trace = Arc::new(ring_trace(6, 4, 1 << 10));
    let base = replay_memory(&platform, &trace, &cfg(ReplayEngine::Smpi, 1), true).unwrap();
    let par = replay_memory(&platform, &trace, &cfg(ReplayEngine::Smpi, 4), true).unwrap();
    assert_identical(&base, &par, "spans threads=4");
    assert!(par.spans.is_some());
}

/// A deadlocked coupled trace reports the same blocked ranks at two
/// threads as at one.
#[test]
fn coupled_deadlock_is_reported() {
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
    let trace = Arc::new(trace);
    let err = |threads| {
        replay_memory(&platform, &trace, &cfg(ReplayEngine::Smpi, threads), false).unwrap_err()
    };
    let seq = err(1);
    assert!(
        seq.contains("deadlock") && seq.contains("blocked ranks: [2]"),
        "unexpected error: {seq}"
    );
    assert_eq!(err(2), seq);
}

/// LU (collectives couple every rank) replays byte-identically at every
/// thread count, on both engines — including the observability exports
/// and the critical path.
#[test]
fn lu_falls_back_identically_across_engines_threads() {
    let lu = LuConfig::new(LuClass::B, 8).with_steps(3);
    let trace =
        Arc::new(acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 42).trace);
    let platform = tit_replay::platform::clusters::graphene();
    for engine in [ReplayEngine::Smpi, ReplayEngine::Msg] {
        let base_cfg = cfg(engine, 1);
        let base = replay_memory(&platform, &trace, &base_cfg, true).unwrap();
        let base_cp = base.critical_path().expect("spans recorded");
        for threads in [2, 4, 7] {
            let mut par_cfg = base_cfg.clone();
            par_cfg.threads = threads;
            let par = replay_memory(&platform, &trace, &par_cfg, true).unwrap();
            assert_identical(&base, &par, &format!("LU {engine:?} t={threads}"));
            let par_cp = par.critical_path().expect("spans recorded");
            assert_eq!(
                format!("{base_cp:?}"),
                format!("{par_cp:?}"),
                "critical path differs"
            );
        }
    }
}

/// Allreduce at P=128: the same guarantee for a pure collective workload
/// at scale.
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
        let base = replay_memory(&platform, &trace, &base_cfg, true).unwrap();
        for threads in [2, 4, 7] {
            let mut par_cfg = base_cfg.clone();
            par_cfg.threads = threads;
            let par = replay_memory(&platform, &trace, &par_cfg, true).unwrap();
            assert_identical(&base, &par, &format!("allreduce {engine:?} t={threads}"));
        }
    }
}

/// Strategy: a random multi-island workload — per-cabinet ring traffic
/// with randomised iteration counts, message sizes (straddling the
/// eager threshold), and compute grain.
fn arb_halo() -> impl Strategy<Value = (u32, u32, u32, u64, f64)> {
    (2u32..5, 2u32..5, 1u32..12, 6u32..22, 1e3f64..1e7).prop_map(
        |(cabs, per, iters, log_bytes, compute)| (cabs, per, iters, 1u64 << log_bytes, compute),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random multi-island traces replay bit-identically at threads
    /// 1, 2, 4 and 7, for both engines.
    #[test]
    fn random_traces_replay_identically_at_any_thread_count(
        (cabs, per, iters, bytes, compute) in arb_halo(),
        engine_pick in 0u8..2,
    ) {
        let platform = cabinets(cabs, per);
        let mut trace = halo_trace(cabs, per, iters, bytes);
        // Perturb the compute grain so runs differ across cases.
        for r in 0..trace.ranks() {
            trace.push(Rank(r), Action::Compute { amount: compute });
        }
        let trace = Arc::new(trace);
        let engine = [ReplayEngine::Smpi, ReplayEngine::Msg][engine_pick as usize];
        let base = replay_memory(&platform, &trace, &cfg(engine, 1), true).unwrap();
        for threads in [2, 4, 7] {
            let par = replay_memory(&platform, &trace, &cfg(engine, threads), true).unwrap();
            assert_identical(&base, &par, &format!("{engine:?} threads={threads}"));
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

    /// Random coupled rings replay bit-identically at threads 2, 4, 7.
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
        let base = replay_memory(&platform, &trace, &cfg(ReplayEngine::Smpi, 1), false).unwrap();
        for threads in [2, 4, 7] {
            let par = replay_memory(
                &platform, &trace, &cfg(ReplayEngine::Smpi, threads), false,
            ).unwrap();
            assert_identical(&base, &par, &format!("random ring threads={threads}"));
        }
    }
}
