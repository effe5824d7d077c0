//! Cross-crate semantic checks of the two runtimes on hand-crafted
//! communication patterns — the MPI behaviours the paper's analysis
//! hinges on, asserted end-to-end through the public replay API.

use std::sync::Arc;

use tit_replay::prelude::*;
use tit_replay::titrace::Trace;

fn platform() -> Platform {
    PlatformSpec::from_json(
        r#"{
        "name": "sem",
        "kind": { "Flat": {
            "nodes": 8, "host_speed": 1.0e9, "cores": 1, "cache_bytes": 1048576,
            "link_bandwidth": 1.0e8, "link_latency": 1e-5,
            "backbone_bandwidth": 1.0e9, "backbone_latency": 0.0 } }
    }"#,
    )
    .unwrap()
    .build()
}

fn run(trace: Trace, engine: ReplayEngine) -> replay::ReplayResult {
    replay(
        &platform(),
        &Arc::new(trace),
        &ReplayConfig {
            engine,
            ..ReplayConfig::improved(1e9)
        },
    )
    .expect("replay failed")
}

/// The defining divergence (Section 3.3): a small message sent long
/// before the receive is posted is (nearly) free for the SMPI receiver
/// — the data is already in memory — while the MSG receiver pays the
/// full transfer after matching.
#[test]
fn late_receiver_semantics_differ_between_engines() {
    let mut t = Trace::new(2);
    t.push(
        Rank(0),
        Action::Send {
            dst: Rank(1),
            bytes: 1024,
        },
    );
    t.push(Rank(1), Action::Compute { amount: 1e9 }); // 1s of local work
    t.push(
        Rank(1),
        Action::Recv {
            src: Rank(0),
            bytes: 1024,
        },
    );
    let smpi = run(t.clone(), ReplayEngine::Smpi);
    let msg = run(t, ReplayEngine::Msg);
    // SMPI: the recv returns essentially at t=1.
    assert!(
        smpi.time < 1.0 + 1e-4,
        "SMPI late recv cost {}",
        smpi.time - 1.0
    );
    // MSG: the transfer starts at t=1 and costs latency + size/bandwidth.
    assert!(
        msg.time > 1.0 + 1e-5,
        "MSG late recv too cheap: {}",
        msg.time - 1.0
    );
    assert!(msg.time > smpi.time);
}

/// Rendezvous: both engines must serialize a large transfer after the
/// receive posts, and the sender blocks until completion.
#[test]
fn rendezvous_blocks_sender_on_both_engines() {
    let bytes = 256 * 1024;
    let mut t = Trace::new(2);
    t.push(
        Rank(0),
        Action::Send {
            dst: Rank(1),
            bytes,
        },
    );
    t.push(Rank(0), Action::Compute { amount: 1.0 }); // sender epilogue
    t.push(Rank(1), Action::Compute { amount: 5e8 });
    t.push(
        Rank(1),
        Action::Recv {
            src: Rank(0),
            bytes,
        },
    );
    let transfer = bytes as f64 / 1e8; // ≥ 2.6ms
    for engine in [ReplayEngine::Smpi, ReplayEngine::Msg] {
        let r = run(t.clone(), engine);
        assert!(
            r.rank_times[0] >= 0.5 + transfer * 0.9,
            "{engine:?}: sender unblocked too early at {}",
            r.rank_times[0]
        );
    }
}

/// Collective agreement: both engines synchronize every rank inside a
/// barrier (nobody exits before the last entry).
#[test]
fn barrier_synchronizes_on_both_engines() {
    let mut t = Trace::new(4);
    for r in 0..4u32 {
        t.push(
            Rank(r),
            Action::Compute {
                amount: (r as f64 + 1.0) * 2.5e8,
            },
        );
        t.push(Rank(r), Action::Barrier);
    }
    for engine in [ReplayEngine::Smpi, ReplayEngine::Msg] {
        let res = run(t.clone(), engine);
        let min = res.rank_times.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            min >= 1.0 - 1e-9,
            "{engine:?}: a rank left the barrier at {min}"
        );
    }
}

/// Wait/WaitAll honour request order: a wait resolves the *oldest*
/// pending request; the program below deadlocks if the runtime resolves
/// the newest instead (the second irecv's message never arrives before
/// the matching send, which happens after the wait).
#[test]
fn wait_resolves_oldest_request() {
    let mut t = Trace::new(2);
    t.push(
        Rank(0),
        Action::Irecv {
            src: Rank(1),
            bytes: 8,
        },
    );
    t.push(
        Rank(0),
        Action::Irecv {
            src: Rank(1),
            bytes: 16,
        },
    );
    t.push(Rank(0), Action::Wait); // must complete the 8-byte irecv
    t.push(
        Rank(0),
        Action::Send {
            dst: Rank(1),
            bytes: 4,
        },
    );
    t.push(Rank(0), Action::Wait); // completes the 16-byte irecv
    t.push(
        Rank(1),
        Action::Send {
            dst: Rank(0),
            bytes: 8,
        },
    );
    t.push(
        Rank(1),
        Action::Recv {
            src: Rank(0),
            bytes: 4,
        },
    );
    t.push(
        Rank(1),
        Action::Send {
            dst: Rank(0),
            bytes: 16,
        },
    );
    for engine in [ReplayEngine::Smpi, ReplayEngine::Msg] {
        let r = run(t.clone(), engine);
        assert!(r.time > 0.0, "{engine:?} completed");
    }
}

/// Contention: two simultaneous flows into the same receiver share its
/// downlink; the makespan must exceed a single transfer's time.
#[test]
fn incast_contention_is_modeled() {
    let bytes = 1_000_000; // rendezvous-sized payload
    let mut t = Trace::new(3);
    t.push(
        Rank(0),
        Action::Irecv {
            src: Rank(1),
            bytes,
        },
    );
    t.push(
        Rank(0),
        Action::Irecv {
            src: Rank(2),
            bytes,
        },
    );
    t.push(Rank(0), Action::WaitAll);
    t.push(
        Rank(1),
        Action::Send {
            dst: Rank(0),
            bytes,
        },
    );
    t.push(
        Rank(2),
        Action::Send {
            dst: Rank(0),
            bytes,
        },
    );
    let r = run(t, ReplayEngine::Smpi);
    let single = bytes as f64 / 1e8;
    assert!(
        r.time > 1.7 * single,
        "incast not contended: {} vs single {}",
        r.time,
        single
    );
}

/// An intentionally deadlocking trace is reported as an error, not a
/// hang or a panic.
#[test]
fn cyclic_rendezvous_deadlock_is_reported() {
    let bytes = 512 * 1024;
    let mut t = Trace::new(2);
    // Both send rendezvous-sized messages first: classic deadlock.
    t.push(
        Rank(0),
        Action::Send {
            dst: Rank(1),
            bytes,
        },
    );
    t.push(
        Rank(0),
        Action::Recv {
            src: Rank(1),
            bytes,
        },
    );
    t.push(
        Rank(1),
        Action::Send {
            dst: Rank(0),
            bytes,
        },
    );
    t.push(
        Rank(1),
        Action::Recv {
            src: Rank(0),
            bytes,
        },
    );
    let err = replay(&platform(), &Arc::new(t), &ReplayConfig::improved(1e9)).unwrap_err();
    assert!(err.contains("deadlock"), "{err}");
}

/// Placement matters: packing all ranks on one node turns every message
/// into a loopback copy and must be faster than crossing the switch for
/// a communication-heavy trace.
#[test]
fn packed_placement_uses_loopback() {
    let mut t = Trace::new(2);
    for _ in 0..200 {
        t.push(
            Rank(0),
            Action::Send {
                dst: Rank(1),
                bytes: 32 * 1024,
            },
        );
        t.push(
            Rank(1),
            Action::Recv {
                src: Rank(0),
                bytes: 32 * 1024,
            },
        );
        t.push(
            Rank(1),
            Action::Send {
                dst: Rank(0),
                bytes: 32 * 1024,
            },
        );
        t.push(
            Rank(0),
            Action::Recv {
                src: Rank(1),
                bytes: 32 * 1024,
            },
        );
    }
    let trace = Arc::new(t);
    let p = platform();
    let spread = replay(&p, &trace, &ReplayConfig::improved(1e9)).unwrap();
    // A dual-core node lets PackCores co-locate both ranks.
    let fat = PlatformSpec::from_json(
        r#"{
        "name": "fat",
        "kind": { "Flat": {
            "nodes": 2, "host_speed": 1.0e9, "cores": 2, "cache_bytes": 1048576,
            "link_bandwidth": 1.0e8, "link_latency": 1e-5,
            "backbone_bandwidth": 1.0e9, "backbone_latency": 0.0 } }
    }"#,
    )
    .unwrap()
    .build();
    let packed = replay(
        &fat,
        &trace,
        &ReplayConfig {
            placement: Placement::PackCores,
            ..ReplayConfig::improved(1e9)
        },
    )
    .unwrap();
    assert!(
        packed.time < spread.time,
        "loopback {} should beat network {}",
        packed.time,
        spread.time
    );
}

/// The fast bottleneck sharing model must stay close to the exact
/// max-min reference on a real workload (it may only *under*-allocate,
/// so replay times are never shorter).
#[test]
fn fast_sharing_model_bounds_the_exact_one() {
    use tit_replay::netmodel::SharingPolicy;
    use tit_replay::smpi::{run_smpi, FixedRateHooks, SmpiConfig};
    let lu = LuConfig::new(LuClass::S, 8).with_steps(3);
    let p = tit_replay::platform::clusters::graphene();
    let hosts: Vec<tit_replay::platform::HostId> =
        (0..8).map(tit_replay::platform::HostId).collect();
    let time_with = |policy| {
        let cfg = SmpiConfig {
            sharing: policy,
            ..SmpiConfig::ground_truth()
        };
        run_smpi(
            &p,
            &hosts,
            lu.sources(),
            cfg,
            Box::new(FixedRateHooks::uniform(2e9, 8)),
        )
        .unwrap()
        .total_time
    };
    let fast = time_with(SharingPolicy::Bottleneck);
    let exact = time_with(SharingPolicy::MaxMin);
    assert!(
        fast >= exact * (1.0 - 1e-9),
        "fast model allocated more than max-min allows: {fast} < {exact}"
    );
    let gap = (fast - exact) / exact;
    assert!(
        gap < 0.05,
        "fast-model divergence {:.2}% too large",
        gap * 100.0
    );
}
