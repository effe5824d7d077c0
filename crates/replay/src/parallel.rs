//! The conservative parallel replay engine.
//!
//! Execution model: the trace is scanned once ([`crate::partition`]) and
//! its ranks split into coupling islands — groups that exchange no
//! messages and share no network links. Each island is a complete,
//! self-contained simulation (its own kernel/FEL shard, slab-indexed
//! runtime state, match queues, and flow network restricted to the
//! island's links), so the conservative lookahead between islands is
//! unbounded and workers never exchange event messages. Islands are
//! assigned to `min(threads, islands)` workers by longest-processing-
//! time-first on the scanned action counts; each worker replays its
//! islands to quiescence (or, when a safety window is configured,
//! advances all of them window by window between barriers — the classic
//! windowed conservative-PDES schedule, kept as a testing knob because
//! the windowed and free-running schedules are provably identical here).
//!
//! Determinism argument: restricting the sequential replay's global
//! event sequence to one island's events preserves their relative order
//! (FEL ties break by insertion sequence, and cross-island events touch
//! disjoint state — different ranks, different match queues, different
//! links — so commuting them changes nothing). Each island simulation
//! therefore pops exactly the events the sequential replay pops for
//! those ranks, in the same order, producing bit-identical simulated
//! times. Results are merged in island-index order (never worker or
//! completion order), so the output is byte-identical across thread
//! counts — and identical to the sequential path, which the differential
//! tests assert.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use platform::{HostId, LinkId, Platform};
use simkernel::obs::{merge_span_logs, Metrics, RankMappedRecorder, Recorder, RunObservation};
use simkernel::Time;
use smpi::{CrossArrival, CrossEnvelope};
use titrace::{ActionSource, Rank, SourceError, TraceInput};
use workloads::{MpiOp, OpSource};

use simkernel::telemetry::Stopwatch;

use crate::partition::{
    island_links, partition_ranks, plan_subshards, scan_until_collective, CommScan, Island,
};
use crate::profile::{ReplayProfile, WorkerProfile};
use crate::{action_to_op, PdesStats, ReplayConfig, ReplayEngine, ReplayReport, ReplayResult};

/// Hands out a fresh set of per-rank cursors over one trace.
type OpenSources<'a> = dyn Fn() -> Result<Vec<Box<dyn ActionSource>>, String> + 'a;

/// Replays `input` under `config.threads` workers, falling back to the
/// sequential path when the trace yields a single island (e.g. any
/// workload with collectives) — the sequential path *is* the correct
/// degenerate schedule, and taking it keeps the single-island case
/// byte-for-byte the pre-existing code path.
///
/// # Errors
/// Fails on I/O/parse/decode errors, placement errors, or a deadlocked
/// replay.
pub(crate) fn replay_input_parallel(
    platform: &Platform,
    input: &TraceInput,
    ranks: u32,
    config: &ReplayConfig,
    record_spans: bool,
    profile: bool,
) -> Result<ReplayReport, String> {
    let run_sw = Stopwatch::start(profile);
    // The sources are opened twice (scan, then replay): decode merged
    // text, and read and verify a `.titb`, once up front.
    let open: Box<OpenSources> = match input {
        TraceInput::MergedText(_) => {
            let trace = titrace::stream::load_trace(input, ranks).map_err(|e| e.to_string())?;
            let trace = Arc::new(trace);
            Box::new(move || Ok(titrace::stream::memory_sources(&trace)))
        }
        TraceInput::Binary(path) => {
            let image = titrace::binfmt::Image::open(path, ranks).map_err(|e| e.to_string())?;
            Box::new(move || Ok(image.cursors()))
        }
        other => {
            Box::new(move || titrace::stream::open_sources(other, ranks).map_err(|e| e.to_string()))
        }
    };
    let scan = scan_until_collective(open()?)?;
    let hosts: Vec<HostId> = config.placement.assign(platform, ranks)?;
    let part = partition_ranks(&scan, platform, &hosts);
    if part.islands.len() <= 1 || config.threads <= 1 {
        // One coupled component. Before giving up on parallelism, try
        // the windowed conservative engine: if the trace/platform pair
        // certifies a sub-shard plan, the component itself is replayed
        // across threads — bit-identically. Any gate failure falls back
        // to the unchanged sequential path.
        if config.threads > 1 {
            if let Some(report) = try_replay_windowed(
                platform,
                &open,
                ranks,
                &scan,
                &hosts,
                config,
                record_spans,
                profile,
            )? {
                return Ok(report);
            }
        }
        let mut report = crate::replay_sources_observed(platform, open()?, config, record_spans)?;
        if profile {
            report.profile = Some(ReplayProfile::sequential(
                run_sw.elapsed_s(),
                ranks as usize,
            ));
        }
        return Ok(report);
    }

    // Longest-processing-time-first island assignment. Deterministic,
    // and irrelevant to the output: merging happens in island order.
    let workers = config.threads.min(part.islands.len());
    let mut order: Vec<usize> = (0..part.islands.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(part.islands[i].actions), i));
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); workers];
    let mut load = vec![0u64; workers];
    for i in order {
        let w = (0..workers).min_by_key(|&w| (load[w], w)).unwrap();
        assignment[w].push(i);
        load[w] += part.islands[i].actions.max(1);
    }

    // Distribute the per-rank cursors to their islands.
    let mut cursors: Vec<Option<Box<dyn ActionSource>>> = open()?.into_iter().map(Some).collect();
    let fault: Arc<Mutex<Option<(Rank, SourceError)>>> = Arc::new(Mutex::new(None));
    // `dyn OpSource` is not `Send`, so jobs carry the raw `ActionSource`
    // cursors (whose trait requires `Send`) and each worker wraps them
    // into op sources on its own thread.
    struct IslandJob {
        index: usize,
        ranks: Arc<Vec<u32>>,
        hosts: Vec<HostId>,
        links: Vec<LinkId>,
        cursors: Vec<Box<dyn ActionSource>>,
    }
    let mut jobs: Vec<Option<IslandJob>> = Vec::with_capacity(part.islands.len());
    for (index, island) in part.islands.iter().enumerate() {
        let island_ranks = Arc::new(island.ranks.clone());
        let island_cursors = island
            .ranks
            .iter()
            .map(|&r| cursors[r as usize].take().expect("rank in two islands"))
            .collect();
        jobs.push(Some(IslandJob {
            index,
            ranks: island_ranks,
            hosts: island.ranks.iter().map(|&r| hosts[r as usize]).collect(),
            links: island_links(platform, &hosts, island),
            cursors: island_cursors,
        }));
    }

    let total = part.islands.len();
    let window = config.window_s;
    let finished = AtomicUsize::new(0);
    let rounds = AtomicU64::new(0);
    let barrier = Barrier::new(workers);
    let results: Mutex<Vec<(usize, Result<IslandDone, String>)>> =
        Mutex::new(Vec::with_capacity(total));
    let profiles: Mutex<Vec<WorkerProfile>> = Mutex::new(Vec::with_capacity(workers));
    std::thread::scope(|s| {
        for (windex, worker_islands) in assignment.iter().enumerate() {
            let jobs_for_worker: Vec<IslandJob> = worker_islands
                .iter()
                .map(|&i| jobs[i].take().expect("island assigned twice"))
                .collect();
            let (finished, barrier, results) = (&finished, &barrier, &results);
            let (rounds, profiles) = (&rounds, &profiles);
            let fault = Arc::clone(&fault);
            s.spawn(move || {
                let wall = Stopwatch::start(profile);
                let mut work_s = 0.0f64;
                let mut barrier_s = 0.0f64;
                let mut advances = 0u64;
                struct WorkerRun {
                    index: usize,
                    ranks: Arc<Vec<u32>>,
                    done: bool,
                    run: EngineRun,
                }
                let prep = Stopwatch::start(profile);
                let mut runs: Vec<WorkerRun> = jobs_for_worker
                    .into_iter()
                    .map(|job| {
                        let recorder: Option<Box<dyn Recorder>> = record_spans.then(|| {
                            Box::new(RankMappedRecorder::new(ranks, job.ranks.to_vec()))
                                as Box<dyn Recorder>
                        });
                        let sources: Vec<Box<dyn OpSource>> = job
                            .cursors
                            .into_iter()
                            .zip(job.ranks.iter())
                            .map(|(inner, &r)| {
                                Box::new(PartitionOpSource {
                                    inner,
                                    rank: Rank(r),
                                    island_ranks: Arc::clone(&job.ranks),
                                    fault: Arc::clone(&fault),
                                }) as Box<dyn OpSource>
                            })
                            .collect();
                        let mut run =
                            prepare_island(platform, &job.hosts, sources, config, recorder);
                        run.restrict_links(&job.links);
                        WorkerRun {
                            index: job.index,
                            ranks: job.ranks,
                            done: false,
                            run,
                        }
                    })
                    .collect();
                work_s += prep.elapsed_s();
                match window {
                    None => {
                        // Unbounded lookahead: run each island straight
                        // to quiescence, no synchronization at all.
                        for r in &mut runs {
                            let sw = Stopwatch::start(profile);
                            r.run.advance(Time::NEVER);
                            work_s += sw.elapsed_s();
                            advances += 1;
                            r.done = true;
                        }
                    }
                    Some(w) => {
                        // Windowed conservative schedule: advance every
                        // island to the k-th barrier time, then wait for
                        // the other workers. The first barrier publishes
                        // this round's completions; the second keeps a
                        // fast worker's next-round updates from racing
                        // the termination check.
                        let mut k = 1u64;
                        loop {
                            let sw = Stopwatch::start(profile);
                            for r in &mut runs {
                                if r.done {
                                    continue;
                                }
                                advances += 1;
                                if r.run.advance(Time::from_secs(w * k as f64)) {
                                    r.done = true;
                                    finished.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                            work_s += sw.elapsed_s();
                            if windex == 0 {
                                rounds.fetch_add(1, Ordering::Relaxed);
                            }
                            let bw = Stopwatch::start(profile);
                            barrier.wait();
                            let all_done = finished.load(Ordering::SeqCst) == total;
                            barrier.wait();
                            barrier_s += bw.elapsed_s();
                            if all_done {
                                break;
                            }
                            k += 1;
                        }
                    }
                }
                let islands_run = runs.len();
                let ranks_run: usize = runs.iter().map(|r| r.ranks.len()).sum();
                let fin = Stopwatch::start(profile);
                for r in runs {
                    let (index, island_ranks) = (r.index, r.ranks);
                    let outcome = r.run.finalize().map_err(|e| {
                        // The engine reports partition-local rank ids;
                        // give the island's global ranks for context.
                        format!("partition {index} (global ranks {island_ranks:?}): {e}")
                    });
                    results
                        .lock()
                        .expect("results poisoned")
                        .push((index, outcome));
                }
                work_s += fin.elapsed_s();
                if profile {
                    profiles
                        .lock()
                        .expect("profiles poisoned")
                        .push(WorkerProfile {
                            worker: windex,
                            islands: islands_run,
                            ranks: ranks_run,
                            work_s,
                            barrier_s,
                            mailbox_s: 0.0,
                            wall_s: wall.elapsed_s(),
                            advances,
                        });
                }
            });
        }
    });

    // A cursor fault truncates its rank's stream; report the root cause
    // rather than the engine's secondary deadlock diagnosis.
    if let Some((rank, e)) = fault.lock().expect("fault slot poisoned").take() {
        return Err(format!("rank {rank} trace stream failed: {e}"));
    }
    let mut done = results.into_inner().expect("results poisoned");
    done.sort_by_key(|(i, _)| *i);
    let mut islands_done = Vec::with_capacity(total);
    for (_, outcome) in done {
        islands_done.push(outcome?);
    }
    let mut report = merge_islands(config, ranks, &part.islands, islands_done);
    if profile {
        let mut worker_profiles = profiles.into_inner().expect("profiles poisoned");
        worker_profiles.sort_by_key(|w| w.worker);
        report.profile = Some(ReplayProfile {
            mode: "islands",
            wall_s: run_sw.elapsed_s(),
            windows: rounds.into_inner(),
            workers: worker_profiles,
        });
    }
    Ok(report)
}

/// Windowed conservative replay of one fully coupled component, split
/// into sub-shards that exchange cross-shard traffic through mailboxes
/// at window barriers (the tentpole of the windowed-PDES engine; see
/// [`plan_subshards`] for the certificate that makes it exact).
///
/// Returns `Ok(None)` when the engine cannot run exactly — wrong
/// back-end, span recording requested (the rank-mapped recorder has no
/// cross-shard story yet), or the shard-plan certificate fails — so the
/// caller falls back to the sequential path. `Ok(Some(report))` is
/// bit-identical to that sequential path's report.
///
/// Execution model, per window round (3 barriers):
///
/// 1. every shard publishes its next pending event time (`+inf` when
///    quiesced) and waits;
/// 2. the leader folds the global minimum `m` and posts the horizon
///    `h = m + w`, where `w <= lookahead/2`; a global `+inf` minimum
///    means no shard has work *and* no cross traffic is in flight
///    (pending flows and arrival timers are events), i.e. termination;
/// 3. every shard advances to `h`, drains its cross-shard outbox into
///    the destination shards' inboxes, and waits;
/// 4. after the barrier each shard sorts its inbox deterministically
///    (envelopes by `(src, dst, ch, seq)`, arrivals by
///    `(at, src, dst, ch, seq)`) and injects — envelopes first, so an
///    arrival never beats its own envelope.
///
/// Safety of the horizon: any cross-shard send processed in this window
/// happened at `tf >= m`, and its arrival is `tf + lat` with
/// `lat >= lookahead` (protocol latency factors are `>= 1`), so the
/// arrival lands at or beyond `m + lookahead >= m + 2w > h` — strictly
/// past every horizon that could consume it too early.
#[allow(clippy::too_many_arguments)]
fn try_replay_windowed(
    platform: &Platform,
    open: &OpenSources,
    ranks: u32,
    scan: &CommScan,
    hosts: &[HostId],
    config: &ReplayConfig,
    record_spans: bool,
    profile: bool,
) -> Result<Option<ReplayReport>, String> {
    if config.engine != ReplayEngine::Smpi || record_spans {
        return Ok(None);
    }
    let run_sw = Stopwatch::start(profile);
    let smpi_cfg = smpi_config(config);
    let plan = match plan_subshards(scan, platform, hosts, config.threads, |b| {
        smpi_cfg.is_eager(b)
    }) {
        Ok(plan) => plan,
        Err(_) => return Ok(None),
    };
    // Half the certified lookahead keeps injected arrivals *strictly*
    // past the horizon (see the safety note above); a user window only
    // ever tightens it.
    let window = match config.window_s {
        Some(user) => user.min(plan.lookahead_s / 2.0),
        None => plan.lookahead_s / 2.0,
    };
    let nshards = plan.shards.len();
    let mut cursors: Vec<Option<Box<dyn ActionSource>>> = open()?.into_iter().map(Some).collect();
    let all_ranks: Arc<Vec<u32>> = Arc::new((0..ranks).collect());
    let fault: Arc<Mutex<Option<(Rank, SourceError)>>> = Arc::new(Mutex::new(None));

    // Shared round state. Published minima and the horizon travel as
    // f64 bit patterns (all values are non-negative or +inf, so decoding
    // and comparing as floats is exact).
    let mins: Vec<AtomicU64> = (0..nshards).map(|_| AtomicU64::new(0)).collect();
    let horizon = AtomicU64::new(0);
    let windows = AtomicU64::new(0);
    let mailbox_envelopes = AtomicU64::new(0);
    let mailbox_arrivals = AtomicU64::new(0);
    let barrier = Barrier::new(nshards);
    type Inbox = (Vec<CrossEnvelope>, Vec<CrossArrival>);
    let inboxes: Vec<Mutex<Inbox>> = (0..nshards)
        .map(|_| Mutex::new((Vec::new(), Vec::new())))
        .collect();
    let results: Mutex<Vec<(usize, Result<IslandDone, String>)>> =
        Mutex::new(Vec::with_capacity(nshards));
    let profiles: Mutex<Vec<WorkerProfile>> = Mutex::new(Vec::with_capacity(nshards));

    std::thread::scope(|s| {
        for (index, shard) in plan.shards.iter().enumerate() {
            let shard_cursors: Vec<Box<dyn ActionSource>> = shard
                .ranks
                .iter()
                .map(|&r| cursors[r as usize].take().expect("rank in two shards"))
                .collect();
            let (mins, horizon, windows, barrier, inboxes, results) =
                (&mins, &horizon, &windows, &barrier, &inboxes, &results);
            let profiles = &profiles;
            let (mailbox_envelopes, mailbox_arrivals) = (&mailbox_envelopes, &mailbox_arrivals);
            let (plan, smpi_cfg) = (&plan, &smpi_cfg);
            let fault = Arc::clone(&fault);
            let all_ranks = Arc::clone(&all_ranks);
            s.spawn(move || {
                let wall = Stopwatch::start(profile);
                let mut work_s = 0.0f64;
                let mut barrier_s = 0.0f64;
                let mut mailbox_s = 0.0f64;
                let mut advances = 0u64;
                let prep = Stopwatch::start(profile);
                // Peer ranks keep their global ids (the shard world
                // spans the whole component), so the identity remap of
                // `PartitionOpSource` only contributes fault parking.
                let sources: Vec<Box<dyn OpSource>> = shard_cursors
                    .into_iter()
                    .zip(shard.ranks.iter())
                    .map(|(inner, &r)| {
                        Box::new(PartitionOpSource {
                            inner,
                            rank: Rank(r),
                            island_ranks: Arc::clone(&all_ranks),
                            fault: Arc::clone(&fault),
                        }) as Box<dyn OpSource>
                    })
                    .collect();
                let local: Vec<bool> = (0..ranks)
                    .map(|r| plan.rank_shard[r as usize] == index as u32)
                    .collect();
                // Hooks over the full component (not the local subset):
                // byte-identical compute plans to the merged run's.
                let hooks = Box::new(smpi::FixedRateHooks::uniform(
                    config.rate,
                    hosts.len() as u32,
                ));
                let mut run = smpi::prepare_smpi_shard(
                    platform,
                    hosts,
                    local,
                    sources,
                    smpi_cfg.clone(),
                    hooks,
                );
                run.restrict_links(&shard.links);
                work_s += prep.elapsed_s();
                loop {
                    let next = run
                        .next_pending_time()
                        .map_or(f64::INFINITY, |t| t.as_secs());
                    mins[index].store(next.to_bits(), Ordering::SeqCst);
                    let bw = Stopwatch::start(profile);
                    barrier.wait();
                    barrier_s += bw.elapsed_s();
                    if index == 0 {
                        let m = mins
                            .iter()
                            .map(|a| f64::from_bits(a.load(Ordering::SeqCst)))
                            .fold(f64::INFINITY, f64::min);
                        let h = if m.is_finite() { m + window } else { m };
                        horizon.store(h.to_bits(), Ordering::SeqCst);
                        if h.is_finite() {
                            windows.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    let bw = Stopwatch::start(profile);
                    barrier.wait();
                    barrier_s += bw.elapsed_s();
                    let h = f64::from_bits(horizon.load(Ordering::SeqCst));
                    if !h.is_finite() {
                        break;
                    }
                    let sw = Stopwatch::start(profile);
                    run.advance(Time::from_secs(h));
                    work_s += sw.elapsed_s();
                    advances += 1;
                    let mb = Stopwatch::start(profile);
                    let (envs, arrs) = run.drain_cross_outbox();
                    mailbox_envelopes.fetch_add(envs.len() as u64, Ordering::SeqCst);
                    mailbox_arrivals.fetch_add(arrs.len() as u64, Ordering::SeqCst);
                    for e in envs {
                        let dst = plan.rank_shard[e.dst as usize] as usize;
                        inboxes[dst].lock().expect("inbox poisoned").0.push(e);
                    }
                    for a in arrs {
                        let dst = plan.rank_shard[a.dst as usize] as usize;
                        inboxes[dst].lock().expect("inbox poisoned").1.push(a);
                    }
                    mailbox_s += mb.elapsed_s();
                    let bw = Stopwatch::start(profile);
                    barrier.wait();
                    barrier_s += bw.elapsed_s();
                    let mb = Stopwatch::start(profile);
                    let (mut envs, mut arrs) =
                        std::mem::take(&mut *inboxes[index].lock().expect("inbox poisoned"));
                    // Deterministic injection order regardless of which
                    // peer shard drained first. Envelopes carry no time
                    // (their per-channel seq is the whole order);
                    // arrivals replay in global (time, sender) order,
                    // matching the merged kernel's tie-break for
                    // same-instant deliveries from distinct senders.
                    envs.sort_unstable_by_key(|e| (e.src, e.dst, e.ch, e.seq));
                    arrs.sort_unstable_by_key(|a| (a.at, a.src, a.dst, a.ch, a.seq));
                    for e in &envs {
                        run.inject_cross_envelope(e);
                    }
                    for a in &arrs {
                        run.inject_cross_arrival(a);
                    }
                    mailbox_s += mb.elapsed_s();
                }
                let fin = Stopwatch::start(profile);
                let outcome = run
                    .finalize()
                    .map(|(res, obs)| IslandDone {
                        rank_times: res.rank_times,
                        messages: res.stats.messages,
                        events: res.events,
                        obs,
                    })
                    .map_err(|e| format!("shard {index} (global ranks {:?}): {e}", shard.ranks));
                work_s += fin.elapsed_s();
                results
                    .lock()
                    .expect("results poisoned")
                    .push((index, outcome));
                if profile {
                    profiles
                        .lock()
                        .expect("profiles poisoned")
                        .push(WorkerProfile {
                            worker: index,
                            islands: 1,
                            ranks: shard.ranks.len(),
                            work_s,
                            barrier_s,
                            mailbox_s,
                            wall_s: wall.elapsed_s(),
                            advances,
                        });
                }
            });
        }
    });

    if let Some((rank, e)) = fault.lock().expect("fault slot poisoned").take() {
        return Err(format!("rank {rank} trace stream failed: {e}"));
    }
    let mut done = results.into_inner().expect("results poisoned");
    done.sort_by_key(|(i, _)| *i);
    let mut shards_done = Vec::with_capacity(nshards);
    for (_, outcome) in done {
        shards_done.push(outcome?);
    }
    // Sub-shards merge exactly like islands: scatter by member rank,
    // sum the counters, fold the high-water marks.
    let pseudo_islands: Vec<Island> = plan
        .shards
        .iter()
        .map(|s| Island {
            ranks: s.ranks.clone(),
            actions: s.actions,
        })
        .collect();
    let mut report = merge_islands(config, ranks, &pseudo_islands, shards_done);
    let window_rounds = windows.into_inner();
    report.pdes = Some(PdesStats {
        shards: nshards,
        windows: window_rounds,
        mailbox_envelopes: mailbox_envelopes.into_inner(),
        mailbox_arrivals: mailbox_arrivals.into_inner(),
        lookahead_s: plan.lookahead_s,
        window_s: window,
    });
    if profile {
        let mut worker_profiles = profiles.into_inner().expect("profiles poisoned");
        worker_profiles.sort_by_key(|w| w.worker);
        report.profile = Some(ReplayProfile {
            mode: "windowed",
            wall_s: run_sw.elapsed_s(),
            windows: window_rounds,
            workers: worker_profiles,
        });
    }
    Ok(Some(report))
}

/// What finishing one island yields before the deterministic merge.
struct IslandDone {
    /// Per-rank finish times, island-local order.
    rank_times: Vec<f64>,
    messages: u64,
    events: u64,
    obs: RunObservation,
}

/// One island's engine run, unified over the two back-ends.
enum EngineRun {
    Smpi(smpi::runner::SmpiRun),
    Msg(msgsim::runner::MsgRun),
}

impl EngineRun {
    fn restrict_links(&mut self, links: &[LinkId]) {
        match self {
            EngineRun::Smpi(r) => r.restrict_links(links),
            EngineRun::Msg(r) => r.restrict_links(links),
        }
    }

    fn advance(&mut self, horizon: Time) -> bool {
        match self {
            EngineRun::Smpi(r) => r.advance(horizon),
            EngineRun::Msg(r) => r.advance(horizon),
        }
    }

    fn finalize(self) -> Result<IslandDone, String> {
        match self {
            EngineRun::Smpi(r) => {
                let (res, obs) = r.finalize()?;
                Ok(IslandDone {
                    rank_times: res.rank_times,
                    messages: res.stats.messages,
                    events: res.events,
                    obs,
                })
            }
            EngineRun::Msg(r) => {
                let (res, obs) = r.finalize()?;
                Ok(IslandDone {
                    rank_times: res.rank_times,
                    messages: res.stats.messages,
                    events: res.events,
                    obs,
                })
            }
        }
    }
}

/// The SMPI protocol configuration the sequential [`crate::run_engine`]
/// would build for `config` — shared by the island and windowed paths so
/// all three construct byte-identical engines.
fn smpi_config(config: &ReplayConfig) -> smpi::SmpiConfig {
    let mut smpi_cfg = smpi::SmpiConfig::smpi_replay();
    smpi_cfg.copy = config.copy_model;
    smpi_cfg.sharing = config.sharing;
    smpi_cfg
}

/// Prepares one island's simulation with the same engine configuration
/// the sequential [`crate::run_engine`] would build.
fn prepare_island(
    platform: &Platform,
    hosts: &[HostId],
    sources: Vec<Box<dyn OpSource>>,
    config: &ReplayConfig,
    recorder: Option<Box<dyn Recorder>>,
) -> EngineRun {
    let hooks = Box::new(smpi::FixedRateHooks::uniform(
        config.rate,
        hosts.len() as u32,
    ));
    match config.engine {
        ReplayEngine::Smpi => EngineRun::Smpi(smpi::prepare_smpi(
            platform,
            hosts,
            sources,
            smpi_config(config),
            hooks,
            recorder,
        )),
        ReplayEngine::Msg => {
            let mut msg_cfg = msgsim::MsgConfig::legacy();
            msg_cfg.sharing = config.sharing;
            EngineRun::Msg(msgsim::prepare_msg(
                platform, hosts, sources, msg_cfg, hooks, recorder,
            ))
        }
    }
}

/// Merges per-island outcomes — always in island-index order, never
/// worker or completion order — into the exact report the sequential
/// path produces.
fn merge_islands(
    config: &ReplayConfig,
    ranks: u32,
    islands: &[Island],
    done: Vec<IslandDone>,
) -> ReplayReport {
    let mut rank_times = vec![0.0f64; ranks as usize];
    for (island, d) in islands.iter().zip(&done) {
        for (&r, &t) in island.ranks.iter().zip(&d.rank_times) {
            rank_times[r as usize] = t;
        }
    }
    // Same fold, in the same global rank order, as the sequential
    // runners — bit-identical total.
    let total_time = rank_times.iter().copied().fold(0.0, f64::max);
    let engine_name = match config.engine {
        ReplayEngine::Smpi => "smpi",
        ReplayEngine::Msg => "msg",
    };
    let mut metrics = Metrics::new(engine_name, ranks);
    metrics.simulated_time_s = total_time;
    let mut messages = 0u64;
    let mut events = 0u64;
    for d in &done {
        messages += d.messages;
        events += d.events;
        let m = &d.obs.metrics;
        metrics.events_processed += m.events_processed;
        metrics.fel.scheduled += m.fel.scheduled;
        metrics.fel.superseded += m.fel.superseded;
        metrics.fel.popped += m.fel.popped;
        metrics.fel.stale_popped += m.fel.stale_popped;
        metrics.fel.spills += m.fel.spills;
        metrics.fel.bucket_sorts += m.fel.bucket_sorts;
        metrics.fel.reseeds += m.fel.reseeds;
        metrics.fel.compactions += m.fel.compactions;
        metrics.messages += m.messages;
        metrics.eager_messages += m.eager_messages;
        metrics.rendezvous_messages += m.rendezvous_messages;
        metrics.bytes += m.bytes;
        metrics.collectives += m.collectives;
        metrics.flows_created += m.flows_created;
        metrics.flows_resolved += m.flows_resolved;
        metrics.sharing_resolves += m.sharing_resolves;
        metrics.sharing_rate_updates += m.sharing_rate_updates;
        metrics.sharing_examined += m.sharing_examined;
        metrics.sharing_flushes += m.sharing_flushes;
        // High-water marks are per-island maxima: islands run their own
        // network models, so the global figure is a fold, not a sum (and
        // legitimately differs from a sequential replay's, which sees all
        // islands' flows in one model).
        metrics.live_flow_hwm = metrics.live_flow_hwm.max(m.live_flow_hwm);
        metrics.live_entity_hwm = metrics.live_entity_hwm.max(m.live_entity_hwm);
        metrics.agg_formed += m.agg_formed;
        metrics.agg_members += m.agg_members;
        metrics.agg_splits += m.agg_splits;
        metrics.max_unexpected_depth = metrics.max_unexpected_depth.max(m.max_unexpected_depth);
        metrics.max_posted_depth = metrics.max_posted_depth.max(m.max_posted_depth);
    }
    let spans = {
        let logs: Vec<_> = done.into_iter().filter_map(|d| d.obs.spans).collect();
        if logs.is_empty() {
            None
        } else {
            Some(merge_span_logs(logs))
        }
    };
    metrics.recorder_counts = spans.as_ref().map(|l| l.counts());
    ReplayReport {
        result: ReplayResult {
            time: total_time,
            rank_times,
            messages,
            events,
        },
        metrics,
        spans,
        pdes: None,
        profile: None,
    }
}

/// An [`OpSource`] over one rank's [`ActionSource`] cursor that remaps
/// global peer ranks to the island-local ids the engine runs under.
/// Cursor faults park in the shared slot, exactly like the sequential
/// [`crate::StreamOpSource`].
struct PartitionOpSource {
    inner: Box<dyn ActionSource>,
    /// Global rank, for fault attribution.
    rank: Rank,
    /// The island's member ranks, ascending (global ids).
    island_ranks: Arc<Vec<u32>>,
    fault: Arc<Mutex<Option<(Rank, SourceError)>>>,
}

impl OpSource for PartitionOpSource {
    fn next_op(&mut self) -> Option<MpiOp> {
        match self.inner.next_action() {
            Ok(Some(a)) => Some(remap_op(action_to_op(&a), &self.island_ranks)),
            Ok(None) => None,
            Err(e) => {
                let mut slot = self.fault.lock().expect("fault slot poisoned");
                if slot.is_none() {
                    *slot = Some((self.rank, e));
                }
                None
            }
        }
    }
}

fn local_rank(island_ranks: &[u32], global: u32) -> u32 {
    island_ranks
        .binary_search(&global)
        .expect("peer rank outside its island — partitioning bug") as u32
}

/// Rewrites an op's peer ranks from global to island-local ids.
/// Collectives cannot appear here (any collective collapses the trace to
/// a single island, which takes the sequential path), but roots are
/// remapped anyway for defence in depth.
fn remap_op(op: MpiOp, island_ranks: &[u32]) -> MpiOp {
    match op {
        MpiOp::Send { dst, bytes } => MpiOp::Send {
            dst: local_rank(island_ranks, dst),
            bytes,
        },
        MpiOp::Isend { dst, bytes } => MpiOp::Isend {
            dst: local_rank(island_ranks, dst),
            bytes,
        },
        MpiOp::Recv { src, bytes } => MpiOp::Recv {
            src: local_rank(island_ranks, src),
            bytes,
        },
        MpiOp::Irecv { src, bytes } => MpiOp::Irecv {
            src: local_rank(island_ranks, src),
            bytes,
        },
        MpiOp::Bcast { bytes, root } => MpiOp::Bcast {
            bytes,
            root: local_rank(island_ranks, root),
        },
        MpiOp::Reduce { bytes, root } => MpiOp::Reduce {
            bytes,
            root: local_rank(island_ranks, root),
        },
        MpiOp::Gather { bytes, root } => MpiOp::Gather {
            bytes,
            root: local_rank(island_ranks, root),
        },
        other => other,
    }
}
