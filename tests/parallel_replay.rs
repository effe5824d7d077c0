//! Differential tests of the conservative parallel replay engine: the
//! partitioned execution must be *bit-identical* to the sequential one
//! at any thread count — simulated times, per-rank times, unified
//! metrics, and the byte-for-byte observability exports.

use proptest::prelude::*;
use std::sync::Arc;

use tit_replay::platform::topology::{cabinet_cluster, CabinetClusterSpec};
use tit_replay::prelude::*;
use tit_replay::replay::{replay_observed, ReplayReport};

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

/// Asserts that two observed replays are indistinguishable: identical
/// result bits, identical metrics, byte-identical exports.
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
    // The ladder's restructuring counters (spills, bucket sorts,
    // reseeds) measure the *data structure*, not the simulation: one
    // merged FEL and N island FELs legitimately restructure at
    // different points. Every semantic counter must still match.
    let mut other_metrics = other.metrics.clone();
    other_metrics.fel.spills = base.metrics.fel.spills;
    other_metrics.fel.bucket_sorts = base.metrics.fel.bucket_sorts;
    other_metrics.fel.reseeds = base.metrics.fel.reseeds;
    // Live-flow high-water marks are per-network-model figures: the
    // sequential replay sees every island's flows in one model while the
    // parallel replay folds per-island maxima, so the marks legitimately
    // differ. They measure occupancy, not simulation semantics.
    other_metrics.live_flow_hwm = base.metrics.live_flow_hwm;
    other_metrics.live_entity_hwm = base.metrics.live_entity_hwm;
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
        let base = replay_observed(&platform, &trace, &cfg(engine, 1), true).unwrap();
        assert!(base.result.time > 0.0);
        for threads in [2, 4, 7] {
            let par = replay_observed(&platform, &trace, &cfg(engine, threads), true).unwrap();
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
    let base = replay_observed(&platform, &trace, &cfg(ReplayEngine::Smpi, 1), true).unwrap();
    let par = replay_observed(&platform, &trace, &cfg(ReplayEngine::Smpi, 4), true).unwrap();
    assert!(
        base.metrics.rendezvous_messages > 0,
        "trace should exercise rendezvous"
    );
    assert_identical(&base, &par, "rendezvous threads=4");
}

/// The windowed conservative schedule (a testing knob) is provably
/// identical to free-running workers; check it really is.
#[test]
fn windowed_execution_matches_free_running() {
    let platform = cabinets(4, 4);
    let trace = Arc::new(halo_trace(4, 4, 10, 1 << 12));
    let free = replay_observed(&platform, &trace, &cfg(ReplayEngine::Smpi, 4), true).unwrap();
    for window_s in [1e-5, 1e-3, 10.0] {
        let mut windowed_cfg = cfg(ReplayEngine::Smpi, 4);
        windowed_cfg.window_s = Some(window_s);
        let windowed = replay_observed(&platform, &trace, &windowed_cfg, true).unwrap();
        assert_identical(&free, &windowed, &format!("window {window_s}"));
    }
}

/// Wall-clock profiling is observational only: a profiled run carries
/// a per-worker breakdown whose components fit inside the measured
/// wall interval, and every simulated output bit matches the
/// unprofiled run.
#[test]
fn profiled_replay_is_consistent_and_changes_nothing() {
    use tit_replay::replay::replay_input_profiled;
    use tit_replay::titrace::TraceInput;

    let platform = cabinets(4, 4);
    let input = TraceInput::Memory(Arc::new(halo_trace(4, 4, 10, 1 << 12)));
    for window_s in [None, Some(1e-3)] {
        let mut config = cfg(ReplayEngine::Smpi, 4);
        config.window_s = window_s;
        let plain = replay_input_profiled(&platform, &input, 16, &config, true, false).unwrap();
        assert!(
            plain.profile.is_none(),
            "unprofiled run must not carry a profile"
        );
        let profiled = replay_input_profiled(&platform, &input, 16, &config, true, true).unwrap();
        assert_identical(&plain, &profiled, "profile on vs off");

        let prof = profiled.profile.expect("profiled run carries a profile");
        assert_eq!(prof.mode, "islands");
        assert!(prof.wall_s > 0.0, "wall clock must have advanced");
        assert!(prof.workers.len() >= 2, "profile: {prof:?}");
        assert!(prof.imbalance() >= 1.0, "profile: {prof:?}");
        if window_s.is_some() {
            assert!(prof.windows > 0, "window schedule must count rounds");
        }
        let ranks: usize = prof.workers.iter().map(|w| w.ranks).sum();
        assert_eq!(ranks, 16, "workers must cover every rank once");
        for w in &prof.workers {
            // The sections were timed inside the per-worker wall
            // interval, so work + wait must fit within it (small slack
            // for the uninstrumented loop glue between sections).
            let parts = w.work_s + w.barrier_s + w.mailbox_s;
            assert!(parts > 0.0, "worker {} timed nothing", w.worker);
            assert!(
                parts <= w.wall_s + 5e-3,
                "worker {}: work {} + barrier {} + mailbox {} exceeds wall {}",
                w.worker,
                w.work_s,
                w.barrier_s,
                w.mailbox_s,
                w.wall_s
            );
            assert!(w.advances > 0, "worker {} never advanced", w.worker);
        }
    }
}

/// A deadlocked partition reports the failure instead of hanging the
/// worker pool — including under a window barrier schedule.
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
    let trace = Arc::new(trace);
    for window_s in [None, Some(1e-4)] {
        let mut config = cfg(ReplayEngine::Smpi, 2);
        config.window_s = window_s;
        let err = replay_observed(&platform, &trace, &config, false).unwrap_err();
        assert!(err.contains("deadlock"), "unexpected error: {err}");
        assert!(
            err.contains("partition"),
            "should name the partition: {err}"
        );
    }
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
    let base = replay_observed(&platform, &trace, &base_cfg, true).unwrap();
    for threads in [2, 4] {
        let mut par_cfg = base_cfg.clone();
        par_cfg.threads = threads;
        let par = replay_observed(&platform, &trace, &par_cfg, true).unwrap();
        assert_identical(&base, &par, &format!("LU threads={threads}"));
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
        let base = replay_observed(&platform, &trace, &cfg(engine, 1), true).unwrap();
        for threads in [2, 4, 7] {
            let par = replay_observed(&platform, &trace, &cfg(engine, threads), true).unwrap();
            assert_identical(&base, &par, &format!("{engine:?} threads={threads}"));
        }
    }
}
