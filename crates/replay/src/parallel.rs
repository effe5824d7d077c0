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
//! islands to quiescence.
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

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use platform::{HostId, LinkId, Platform};
use simkernel::obs::{Metrics, ReplayProfile, RunReport, SpanLog, WorkerProfile};
use titrace::{ActionSource, TraceInput};

use crate::engine::{self, check_fault, FaultSlot, ReplayOps};
use crate::partition::{island_links, partition_ranks, scan_until_collective, Island};
use crate::ReplayConfig;

/// One island's share of the work, handed to a worker thread. `dyn
/// OpSource` is not `Send`, so a job carries the raw `ActionSource`
/// cursors (whose trait requires `Send`) and the worker wraps them on
/// its own thread.
struct IslandJob {
    index: usize,
    ranks: Arc<Vec<u32>>,
    hosts: Vec<HostId>,
    links: Vec<LinkId>,
    cursors: Vec<Box<dyn ActionSource>>,
}

/// Replays `input` under `config.threads` workers, falling back to the
/// sequential path when the trace yields a single island (e.g. any
/// workload with collectives) — the sequential path *is* the correct
/// degenerate schedule, so a coupled trace replays byte for byte as it
/// does at one thread. (Splitting one coupled component across threads
/// was tried and removed; DESIGN.md "Parallel replay" records why.)
/// `started` is when the replay began, for the profile's wall time.
///
/// # Errors
/// Fails on I/O/parse/decode errors, rejected actions, placement errors,
/// or a deadlocked or leaking island.
pub(crate) fn replay_islands(
    platform: &Platform,
    input: &TraceInput,
    ranks: u32,
    config: &ReplayConfig,
    record_spans: bool,
    started: Instant,
) -> Result<RunReport, String> {
    // Open the input once (index merged text, open and verify a `.titb`):
    // the scan and the replay then take cursor sets from the one handle.
    let input = titrace::stream::open_input(input, ranks).map_err(|e| e.to_string())?;
    let open = || titrace::stream::open_sources(&input, ranks).map_err(|e| e.to_string());
    let scan = scan_until_collective(open()?)?;
    let hosts: Vec<HostId> = config.placement.assign(platform, ranks)?;
    let part = partition_ranks(&scan, platform, &hosts);
    if part.islands.len() <= 1 {
        return crate::replay_sequential(platform, open()?, config, record_spans, started);
    }

    // Longest-processing-time-first island assignment, handing each
    // island its rank cursors. Deterministic, and irrelevant to the
    // output: merging happens in island order.
    let workers = config.threads.min(part.islands.len());
    let mut order: Vec<usize> = (0..part.islands.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(part.islands[i].actions), i));
    let mut cursors: Vec<Option<Box<dyn ActionSource>>> = open()?.into_iter().map(Some).collect();
    let mut assignment: Vec<Vec<IslandJob>> = (0..workers).map(|_| Vec::new()).collect();
    let mut load = vec![0u64; workers];
    for index in order {
        let island = &part.islands[index];
        // Invariant: `workers` >= 1 (two islands or more, and
        // `replay_input_observed` comes here only at `threads` >= 2).
        let w = (0..workers).min_by_key(|&w| (load[w], w)).unwrap();
        load[w] += island.actions.max(1);
        assignment[w].push(IslandJob {
            index,
            ranks: Arc::new(island.ranks.clone()),
            hosts: island.ranks.iter().map(|&r| hosts[r as usize]).collect(),
            links: island_links(platform, &hosts, island),
            // Invariant: the islands partition the ranks, so each cursor is
            // taken once.
            cursors: island
                .ranks
                .iter()
                .map(|&r| cursors[r as usize].take().expect("rank in two islands"))
                .collect(),
        });
    }

    let fault = FaultSlot::default();
    type Finished = Result<RunReport, String>;
    let results: Mutex<Vec<(usize, Finished)>> = Mutex::new(Vec::with_capacity(part.islands.len()));
    let profiles: Mutex<Vec<WorkerProfile>> = Mutex::new(Vec::with_capacity(workers));
    std::thread::scope(|s| {
        for (worker, jobs) in assignment.into_iter().enumerate() {
            let (results, profiles, fault) = (&results, &profiles, &fault);
            s.spawn(move || {
                let wall = Instant::now();
                let islands = jobs.len();
                let ranks_run = jobs.iter().map(|j| j.ranks.len()).sum();
                // Unbounded lookahead: run each island straight to
                // quiescence, no synchronization at all.
                let done: Vec<(usize, Finished)> = jobs
                    .into_iter()
                    .map(|job| {
                        let members = job.ranks.iter().copied();
                        let sources =
                            ReplayOps::wrap(job.cursors, members, ranks, Some(&job.ranks), fault);
                        let mut run =
                            engine::prepare(platform, &job.hosts, sources, config, record_spans);
                        run.restrict_links(&job.links);
                        // The engine reports island-local rank ids; give
                        // the island's global ranks for context.
                        let outcome = run.run().map_err(|e| {
                            format!(
                                "partition {} (global ranks {:?}): {e}",
                                job.index, job.ranks
                            )
                        });
                        (job.index, outcome)
                    })
                    .collect();
                let work_s = wall.elapsed().as_secs_f64();
                results
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend(done);
                profiles
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(WorkerProfile {
                        worker,
                        islands,
                        ranks: ranks_run,
                        work_s,
                        wall_s: wall.elapsed().as_secs_f64(),
                    });
            });
        }
    });

    check_fault(&fault)?;
    let mut done = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    done.sort_by_key(|(i, _)| *i);
    let done = done
        .into_iter()
        .map(|(_, outcome)| outcome)
        .collect::<Result<Vec<_>, String>>()?;
    let mut workers = profiles
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    workers.sort_by_key(|w| w.worker);
    let profile = ReplayProfile {
        mode: "islands",
        wall_s: started.elapsed().as_secs_f64(),
        workers,
        decode_wait_s: 0.0,
        decode_parks: 0,
    };
    Ok(merge_islands(ranks, &part.islands, done, profile))
}

/// Merges per-island reports — always in island-index order, never
/// worker or completion order — into the exact report the sequential
/// path produces: island-local ranks map back through `island.ranks`.
/// High-water marks fold per-island maxima (see [`Metrics::merge`]),
/// which legitimately differ from a sequential replay's, where one
/// network model sees every island's flows.
fn merge_islands(
    ranks: u32,
    islands: &[Island],
    done: Vec<RunReport>,
    profile: ReplayProfile,
) -> RunReport {
    let mut metrics = Metrics {
        ranks,
        ..Metrics::default()
    };
    let mut spans: Option<SpanLog> = None;
    let mut rank_times = vec![0.0f64; ranks as usize];
    let mut compute_seconds = vec![0.0f64; ranks as usize];
    for (island, part) in islands.iter().zip(done) {
        for (i, &r) in island.ranks.iter().enumerate() {
            rank_times[r as usize] = part.rank_times[i];
            compute_seconds[r as usize] = part.compute_seconds[i];
        }
        metrics.merge(&part.metrics);
        if let Some(log) = part.spans {
            let whole = spans.get_or_insert_with(|| SpanLog::new(ranks));
            whole.place(log, &island.ranks);
        }
    }
    RunReport::new(metrics, rank_times, compute_seconds, spans, profile)
}
