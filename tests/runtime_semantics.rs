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

fn replay_on(
    platform: &Platform,
    trace: Trace,
    config: &ReplayConfig,
) -> Result<RunReport, String> {
    let ranks = trace.ranks();
    let input = TraceInput::Memory(Arc::new(trace));
    replay_input_observed(platform, &input, ranks, config, false)
}

fn run_on(platform: &Platform, trace: Trace, config: ReplayConfig) -> RunReport {
    replay_on(platform, trace, &config).expect("replay failed")
}

fn run(trace: Trace, engine: ReplayEngine) -> RunReport {
    let config = ReplayConfig {
        engine,
        ..ReplayConfig::improved(1e9)
    };
    run_on(&platform(), trace, config)
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
        smpi.time() < 1.0 + 1e-4,
        "SMPI late recv cost {}",
        smpi.time() - 1.0
    );
    // MSG: the transfer starts at t=1 and costs latency + size/bandwidth.
    assert!(
        msg.time() > 1.0 + 1e-5,
        "MSG late recv too cheap: {}",
        msg.time() - 1.0
    );
    assert!(msg.time() > smpi.time());
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
        assert!(r.time() > 0.0, "{engine:?} completed");
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
        r.time() > 1.7 * single,
        "incast not contended: {} vs single {}",
        r.time(),
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
    let err = replay_on(&platform(), t, &ReplayConfig::improved(1e9)).unwrap_err();
    assert!(err.contains("deadlock"), "{err}");
    assert!(
        err.ends_with("blocked ranks: [0, 1]; rank 0: send to 1, rank 1: send to 0"),
        "{err}"
    );
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
    let spread = run_on(&platform(), t.clone(), ReplayConfig::improved(1e9));
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
    let packed = run_on(
        &fat,
        t,
        ReplayConfig {
            placement: Placement::PackCores,
            ..ReplayConfig::improved(1e9)
        },
    );
    assert!(
        packed.time() < spread.time(),
        "loopback {} should beat network {}",
        packed.time(),
        spread.time()
    );
}

// ---------------------------------------------------------------------
// Closed-form goldens. Each expectation below is computed from the
// platform constants and the protocol factor rows, written out here as
// literals — no `netmodel`/`smpi` timing code is called to derive them,
// so a bug shared by the runtime and its differential suites still shows
// up. Tolerance: bit-equal where the test repeats the simulator's
// arithmetic order (flow end = start + bytes / (factor · bandwidth),
// arrival = flow end + latency factor · route latency); a closed form in
// a different order (k × hop) is held to ≤ 4 ulp.
// ---------------------------------------------------------------------

/// `platform()`'s route: NIC up (10 µs) + backbone (0 s) + NIC down
/// (10 µs); the NICs' 1e8 B/s is the bottleneck.
const FLAT_LAT: f64 = 1e-5 + 0.0 + 1e-5;
const FLAT_BW: f64 = 1.0e8;

/// `SmpiConfig::smpi_replay`'s piece-wise factor rows, as
/// `(max_bytes, bandwidth factor, latency factor)`, then the tail.
const GIGE_ROWS: [(u64, f64, f64); 4] = [
    (1420, 0.32, 2.6),
    (16 * 1024, 0.55, 2.6),
    (64 * 1024, 0.72, 2.0),
    (1024 * 1024, 0.88, 2.4),
];
const GIGE_TAIL: (f64, f64) = (0.96, 2.8);
/// SMPI's eager/rendezvous switch: eager strictly below.
const EAGER_THRESHOLD: u64 = 64 * 1024;
/// `SmpiConfig::msg_legacy`: full bandwidth, a flat 1.9 latency factor, and
/// asynchronous (non-blocking) senders strictly below 64 KiB.
const MSG_LAT_MULT: f64 = 1.9;
const MSG_ASYNC: u64 = 64 * 1024;

fn gige(bytes: u64) -> (f64, f64) {
    GIGE_ROWS
        .iter()
        .find(|(max, _, _)| bytes <= *max)
        .map_or(GIGE_TAIL, |&(_, bw, lat)| (bw, lat))
}

/// One transfer on an otherwise idle route: `(transfer, tail latency)`.
fn hop(bytes: u64, bw_factor: f64, bw: f64, lat_factor: f64, lat: f64) -> (f64, f64) {
    (bytes as f64 / (bw_factor * bw), lat_factor * lat)
}

fn ulps(a: f64, b: f64) -> u64 {
    (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
}

/// A ping-pong: rank 0 sends `bytes` to rank 1, which
/// answers with the same size.
fn ping_pong(bytes: u64) -> Trace {
    let mut t = Trace::new(2);
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
        Action::Recv {
            src: Rank(0),
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
    t
}

/// Every size that sits on a factor-row boundary (`max_bytes` and
/// `max_bytes + 1`) plus both sides of the eager threshold.
fn boundary_sizes() -> Vec<u64> {
    let mut sizes: Vec<u64> = GIGE_ROWS
        .iter()
        .flat_map(|&(max, _, _)| [max, max + 1])
        .chain([EAGER_THRESHOLD - 1, EAGER_THRESHOLD])
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

/// Asserts a ping-pong's per-rank finish times: the reply leaves when
/// the request arrives (`t1`) and lands at `t2`; a sender that blocks
/// until delivery (rendezvous / MSG task-send) finishes with its
/// message, a detached one as soon as it has sent.
fn assert_ping_pong(r: &RunReport, what: &str, x: f64, l: f64, blocking: bool) {
    let t1 = x + l;
    let t2 = (t1 + x) + l;
    let reply_sender = if blocking { t2 } else { t1 };
    assert_eq!(
        r.rank_times[0].to_bits(),
        t2.to_bits(),
        "{what}: rank 0 {} vs {t2}",
        r.rank_times[0]
    );
    assert_eq!(
        r.rank_times[1].to_bits(),
        reply_sender.to_bits(),
        "{what}: rank 1 {} vs {reply_sender}",
        r.rank_times[1]
    );
    assert_eq!(r.time().to_bits(), t2.to_bits(), "{what}");
}

/// Golden 1: SMPI ping-pong at every factor-row boundary and across the
/// rendezvous switch (the reply's sender blocks from 64 KiB up).
#[test]
fn smpi_ping_pong_matches_the_factor_rows() {
    for bytes in boundary_sizes() {
        let (bwf, latf) = gige(bytes);
        let (x, l) = hop(bytes, bwf, FLAT_BW, latf, FLAT_LAT);
        let r = run(ping_pong(bytes), ReplayEngine::Smpi);
        assert_ping_pong(
            &r,
            &format!("smpi {bytes} B"),
            x,
            l,
            bytes >= EAGER_THRESHOLD,
        );
    }
}

/// Golden 2: the same ping-pong under the legacy MSG engine — raw
/// bandwidth, the flat 1.9 latency factor, blocking task-sends from 64 KiB.
#[test]
fn msg_ping_pong_matches_the_raw_model() {
    for bytes in boundary_sizes() {
        let (x, l) = hop(bytes, 1.0, FLAT_BW, MSG_LAT_MULT * 1.0, FLAT_LAT);
        let r = run(ping_pong(bytes), ReplayEngine::Msg);
        assert_ping_pong(&r, &format!("msg {bytes} B"), x, l, bytes >= MSG_ASYNC);
    }
}

/// A non-blocking crossbar: route = sender NIC up + receiver NIC down,
/// so distinct sender/receiver pairs never share a link.
const XBAR_LAT: f64 = 1e-5 + 1e-5;
const XBAR_BW: f64 = 1.25e8;

fn crossbar(nodes: u32) -> Platform {
    PlatformSpec::from_json(&format!(
        r#"{{ "name": "xbar", "kind": {{ "Direct": {{
            "nodes": {nodes}, "host_speed": 1.0e9, "cores": 1, "cache_bytes": 1048576,
            "link_bandwidth": {XBAR_BW:e}, "link_latency": 1e-5 }} }} }}"#
    ))
    .unwrap()
    .build()
}

/// Every rank sends `bytes` to its right neighbour and receives from its
/// left one, all at t = 0.
fn ring_shift(ranks: u32, bytes: u64) -> Trace {
    let mut t = Trace::new(ranks);
    for r in 0..ranks {
        let rank = Rank(r);
        t.push(
            rank,
            Action::Isend {
                dst: Rank((r + 1) % ranks),
                bytes,
            },
        );
        t.push(
            rank,
            Action::Recv {
                src: Rank((r + ranks - 1) % ranks),
                bytes,
            },
        );
        t.push(rank, Action::Wait);
    }
    t
}

/// Golden 3: a ring shift on the crossbar under SMPI — P uncontended
/// transfers in parallel, so every rank finishes after exactly one hop,
/// eager or rendezvous.
#[test]
fn smpi_ring_shift_on_a_crossbar_is_one_hop() {
    let p = crossbar(8);
    for bytes in [1024u64, 256 * 1024] {
        let (bwf, latf) = gige(bytes);
        let (x, l) = hop(bytes, bwf, XBAR_BW, latf, XBAR_LAT);
        let r = run_on(&p, ring_shift(8, bytes), ReplayConfig::improved(1e9));
        for (rank, t) in r.rank_times.iter().enumerate() {
            assert_eq!(
                t.to_bits(),
                (x + l).to_bits(),
                "smpi ring {bytes} B rank {rank}: {t}"
            );
        }
    }
}

/// Golden 4: the same ring shift under MSG.
#[test]
fn msg_ring_shift_on_a_crossbar_is_one_hop() {
    let p = crossbar(8);
    for bytes in [1024u64, 256 * 1024] {
        let (x, l) = hop(bytes, 1.0, XBAR_BW, MSG_LAT_MULT * 1.0, XBAR_LAT);
        let r = run_on(&p, ring_shift(8, bytes), ReplayConfig::legacy(1e9));
        for (rank, t) in r.rank_times.iter().enumerate() {
            assert_eq!(
                t.to_bits(),
                (x + l).to_bits(),
                "msg ring {bytes} B rank {rank}: {t}"
            );
        }
    }
}

/// Golden 5: a binomial-tree broadcast from root 0 on uncontended
/// crossbar links. With rendezvous-size payloads every sender blocks
/// until its child has the data, so each tree level is one hop and the
/// makespan is ⌈log₂P⌉ hops.
#[test]
fn binomial_bcast_takes_ceil_log2_p_hops() {
    let bytes = 1024 * 1024;
    let (bwf, latf) = gige(bytes);
    let (x, l) = hop(bytes, bwf, XBAR_BW, latf, XBAR_LAT);
    for (ranks, levels) in [(2u32, 1u32), (5, 3), (8, 3)] {
        let mut t = Trace::new(ranks);
        for r in 0..ranks {
            t.push(
                Rank(r),
                Action::Bcast {
                    bytes,
                    root: Rank(0),
                },
            );
        }
        let r = run_on(&crossbar(ranks), t, ReplayConfig::improved(1e9));
        let chained = (0..levels).fold(0.0, |t: f64, _| (t + x) + l);
        assert_eq!(
            r.time().to_bits(),
            chained.to_bits(),
            "P={ranks}: {} vs {chained}",
            r.time()
        );
        // The root sends once per level, so it is on the critical path.
        assert_eq!(
            r.rank_times[0].to_bits(),
            chained.to_bits(),
            "P={ranks} root"
        );
        let closed = f64::from(levels) * (x + l);
        assert!(
            ulps(r.time(), closed) <= 4,
            "P={ranks}: {} vs {levels} × hop = {closed}",
            r.time()
        );
    }
}
