//! Property tests: randomly generated *matched* communication programs
//! must execute to completion (no deadlock, no record leaks) on the
//! runtime under both replay models, SMPI and the legacy MSG one, with
//! sane timings.
//!
//! Program generation builds matched send/recv pairs by construction:
//! every message appends an isend at the source and an irecv at the
//! destination (FIFO-safe per channel), non-blocking requests drain at
//! aligned WaitAll points, and collectives are inserted identically
//! across all ranks. The only blocking sends are small: eager under
//! SMPI, asynchronous under MSG, so neither model can block on them.

use proptest::prelude::*;

use platform::topology::{flat_cluster, FlatClusterSpec};
use platform::HostId;
use simkernel::obs::RunReport;
use smpi::{prepare_smpi, FixedRateHooks, SmpiConfig};
use workloads::{ComputeBlock, MpiOp, OpSource, VecSource};

#[derive(Debug, Clone)]
enum Event {
    Message {
        src: u8,
        dst: u8,
        bytes: u32,
        blocking_send: bool,
    },
    Compute {
        rank: u8,
        instr: u32,
    },
    Collective(u8),
}

fn arb_event(ranks: u8) -> impl Strategy<Value = Event> {
    prop_oneof![
        4 => (0..ranks, 0..ranks, 1u32..200_000, any::<bool>()).prop_map(
            |(src, dst, bytes, blocking_send)| Event::Message { src, dst, bytes, blocking_send },
        ),
        2 => (0..ranks, 1u32..1_000_000).prop_map(|(rank, instr)| Event::Compute { rank, instr }),
        1 => (0u8..5).prop_map(Event::Collective),
    ]
}

/// Lays events out into per-rank programs.
fn build_programs(ranks: u8, events: &[Event]) -> Vec<Vec<MpiOp>> {
    let mut progs: Vec<Vec<MpiOp>> = (0..ranks).map(|_| vec![MpiOp::Init]).collect();
    for e in events {
        match e {
            Event::Message {
                src,
                dst,
                bytes,
                blocking_send,
            } => {
                if src == dst {
                    continue;
                }
                let bytes = u64::from(*bytes);
                // Blocking rendezvous sends can legitimately deadlock in
                // arbitrary orders; real applications use isend there,
                // and so does the generator.
                if *blocking_send && bytes < 64 * 1024 {
                    progs[*src as usize].push(MpiOp::Send {
                        dst: u32::from(*dst),
                        bytes,
                    });
                } else {
                    progs[*src as usize].push(MpiOp::Isend {
                        dst: u32::from(*dst),
                        bytes,
                    });
                }
                progs[*dst as usize].push(MpiOp::Irecv {
                    src: u32::from(*src),
                    bytes,
                });
            }
            Event::Compute { rank, instr } => {
                progs[*rank as usize].push(MpiOp::Compute(ComputeBlock::plain(f64::from(*instr))));
            }
            Event::Collective(kind) => {
                let op = match kind % 5 {
                    0 => MpiOp::Barrier,
                    1 => MpiOp::Bcast { bytes: 64, root: 0 },
                    2 => MpiOp::Allreduce { bytes: 40 },
                    3 => MpiOp::Reduce {
                        bytes: 128,
                        root: u32::from(ranks - 1),
                    },
                    _ => MpiOp::Alltoall { bytes: 256 },
                };
                for p in progs.iter_mut() {
                    p.push(MpiOp::WaitAll);
                    p.push(op);
                }
            }
        }
    }
    for p in progs.iter_mut() {
        p.push(MpiOp::WaitAll);
        p.push(MpiOp::Finalize);
    }
    progs
}

fn mk_platform(n: u32, bw: f64, lat: f64) -> platform::Platform {
    flat_cluster(&FlatClusterSpec {
        name: "prop".into(),
        nodes: n,
        host_speed: 1e9,
        cores: 1,
        cache_bytes: 1 << 20,
        link_bandwidth: bw,
        link_latency: lat,
        backbone_bandwidth: 10.0 * bw,
        backbone_latency: lat / 10.0,
    })
}

fn run_on(platform: &platform::Platform, progs: Vec<Vec<MpiOp>>, cfg: SmpiConfig) -> RunReport {
    let n = progs.len() as u32;
    let hosts: Vec<HostId> = (0..n).map(HostId).collect();
    let sources: Vec<Box<dyn OpSource>> = progs
        .into_iter()
        .map(|ops| Box::new(VecSource::new(ops)) as Box<dyn OpSource>)
        .collect();
    prepare_smpi(
        platform,
        &hosts,
        sources,
        cfg,
        Box::new(FixedRateHooks::uniform(1e9, n)),
        false,
    )
    .run()
    .expect("random program deadlocked")
}

fn clamp_events(ranks: u8, events: Vec<Event>) -> Vec<Event> {
    events
        .into_iter()
        .map(|e| match e {
            Event::Message {
                src,
                dst,
                bytes,
                blocking_send,
            } => Event::Message {
                src: src % ranks,
                dst: dst % ranks,
                bytes,
                blocking_send,
            },
            Event::Compute { rank, instr } => Event::Compute {
                rank: rank % ranks,
                instr,
            },
            c => c,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Matched random programs complete under either model,
    /// deterministically, with sane finish times.
    #[test]
    fn random_matched_programs_complete(
        ranks in 2u8..6,
        raw in proptest::collection::vec(arb_event(6), 1..60),
    ) {
        let events = clamp_events(ranks, raw);
        let progs = build_programs(ranks, &events);
        let platform = mk_platform(u32::from(ranks), 1e8, 1e-5);
        // Makespan is at least the largest single compute demand.
        let mut max_compute = 0.0f64;
        for e in &events {
            if let Event::Compute { instr, .. } = e {
                max_compute = max_compute.max(f64::from(*instr) / 1e9);
            }
        }
        for cfg in [SmpiConfig::ground_truth(), SmpiConfig::msg_legacy()] {
            let a = run_on(&platform, progs.clone(), cfg.clone());
            let b = run_on(&platform, progs.clone(), cfg);
            prop_assert!(a.time().is_finite() && a.time() >= 0.0);
            prop_assert_eq!(a.rank_times.clone(), b.rank_times, "nondeterministic");
            prop_assert!(a.time() >= max_compute * 0.999);
        }
    }

    /// Scaling the network up (10x bandwidth, 1/10 latency) never slows
    /// a random program down.
    #[test]
    fn faster_network_is_never_slower(
        ranks in 2u8..5,
        raw in proptest::collection::vec(arb_event(5), 1..40),
    ) {
        let events = clamp_events(ranks, raw);
        let progs = build_programs(ranks, &events);
        let n = u32::from(ranks);
        let truth = SmpiConfig::ground_truth;
        let slow = run_on(&mk_platform(n, 1e8, 1e-5), progs.clone(), truth()).time();
        let fast = run_on(&mk_platform(n, 1e9, 1e-6), progs, truth()).time();
        prop_assert!(fast <= slow * (1.0 + 1e-9), "fast {fast} > slow {slow}");
    }
}
