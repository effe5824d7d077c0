//! Replaying time-independent traces on simulated platforms.
//!
//! A replay turns a [`titrace::Trace`] back into per-rank op streams and
//! executes them on a simulated platform with a calibrated instruction
//! rate. Two back-ends are provided, matching the paper's before/after:
//!
//! * [`ReplayEngine::Msg`] — the first implementation: MSG mailbox
//!   semantics, asynchronous small sends, raw network model, monolithic
//!   collectives ([`msgsim`]);
//! * [`ReplayEngine::Smpi`] — the rewrite inside SMPI: detached eager
//!   sends, rendezvous for large messages, piece-wise linear network
//!   factors, collectives as point-to-point algorithms ([`smpi`]) — and
//!   the one acknowledged gap, the unmodeled eager memory-copy time.
//!
//! The user-facing workflow mirrors the paper's Section 3.3 `smpirun`
//! invocation: a platform description, a host list, one trace, one
//! calibrated rate — and a simulated execution time out.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod parallel;
pub mod partition;
pub mod profile;

use std::sync::{Arc, Mutex};

use calibrate::Calibration;
use platform::{HostId, Placement, Platform};
use simkernel::obs::{CriticalPath, Manifest, Metrics, RunObservation, SpanLog};
use smpi::FixedRateHooks;
use titrace::{Action, ActionSource, Rank, SourceError, Trace, TraceInput};
use workloads::{ComputeBlock, MpiOp, OpSource};

/// Which simulation back-end executes the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayEngine {
    /// The legacy MSG-based replay (first implementation).
    Msg,
    /// The improved SMPI-based replay.
    Smpi,
}

/// A replay request.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Back-end selection.
    pub engine: ReplayEngine,
    /// Calibrated instruction rate, instructions/second (uniform across
    /// ranks, as in the paper's homogeneous clusters).
    pub rate: f64,
    /// Rank placement on the platform.
    pub placement: Placement,
    /// Eager memory-copy model for the SMPI back-end — the paper's first
    /// future-work item ("implement the missing feature to model the
    /// time taken in sends and receives to copy data in memory in the
    /// eager mode of MPI"). `None` reproduces the paper's published
    /// behaviour; `Some` closes the Figures 6-7 underestimation.
    pub copy_model: Option<smpi::CopyCost>,
    /// Bandwidth-sharing policy of the network model, applied to either
    /// back-end. [`netmodel::SharingPolicy::Bottleneck`] reproduces the
    /// paper's published behaviour; the max-min policies trade speed for
    /// exact progressive-filling fairness.
    pub sharing: netmodel::SharingPolicy,
    /// Worker threads for the partitioned parallel replay engine
    /// (see [`partition`] / `parallel`). `1` (the default) runs the
    /// unchanged sequential path; `>= 2` partitions the ranks into
    /// coupling islands and replays islands concurrently. Results are
    /// bit-identical at any thread count. The constructors honour the
    /// `TITR_REPLAY_THREADS` environment variable (see
    /// [`ReplayConfig::default_threads`]).
    pub threads: usize,
    /// Simulated-seconds window between synchronization barriers of the
    /// parallel engine. `None` (the default) lets workers run their
    /// islands to quiescence in one step — safe because islands exchange
    /// no traffic, so the effective lookahead is unbounded. `Some(w)`
    /// forces windowed barrier stepping every `w` simulated seconds (a
    /// testing knob; results are identical either way).
    pub window_s: Option<f64>,
}

impl ReplayConfig {
    /// The thread count the constructors start from: the
    /// `TITR_REPLAY_THREADS` environment variable when set to a positive
    /// integer, else 1 (sequential). Mirrors the `TITR_SWEEP_THREADS`
    /// convention of the sweep/ingest layers, and lets CI rerun the
    /// whole replay suite under the parallel engine without code
    /// changes.
    pub fn default_threads() -> usize {
        std::env::var("TITR_REPLAY_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(1)
    }

    /// A stable 64-bit digest of the *semantic* configuration — the
    /// fields that shape the simulated result: engine, rate, placement,
    /// copy model, and sharing policy. The execution-strategy fields
    /// (`fel`, `threads`, `window_s`) are deliberately excluded: results
    /// are bit-identical across them (pinned by the differential
    /// suites), so two configs that differ only there are the *same*
    /// what-if question and must share a memo entry in the prediction
    /// service.
    ///
    /// The digest is FNV-1a over a canonical field rendering with floats
    /// taken as their IEEE-754 bit patterns, so it is stable across
    /// processes, architectures, and formatting changes — any semantic
    /// field change changes the hash.
    pub fn canonical_hash(&self) -> u64 {
        let mut fnv = titrace::binfmt::Fnv1a::new();
        let mut field = |name: &str, value: &[u8]| {
            fnv.update(name.as_bytes());
            fnv.update(b"=");
            fnv.update(value);
            fnv.update(b";");
        };
        field(
            "engine",
            match self.engine {
                ReplayEngine::Msg => b"msg",
                ReplayEngine::Smpi => b"smpi",
            },
        );
        field("rate", &self.rate.to_bits().to_le_bytes());
        field(
            "placement",
            match self.placement {
                Placement::OnePerNode => b"one-per-node".as_slice(),
                Placement::PackCores => b"pack-cores",
                Placement::RoundRobin => b"round-robin",
            },
        );
        match self.copy_model {
            None => field("copy", b"none"),
            Some(c) => {
                field("copy.base", &c.base_seconds.to_bits().to_le_bytes());
                field("copy.bps", &c.bytes_per_second.to_bits().to_le_bytes());
            }
        }
        field(
            "sharing",
            match self.sharing {
                netmodel::SharingPolicy::Bottleneck => b"bottleneck".as_slice(),
                netmodel::SharingPolicy::MaxMin => b"maxmin",
                netmodel::SharingPolicy::MaxMinFull => b"maxmin-full",
            },
        );
        fnv.digest()
    }

    /// Config for the legacy pipeline.
    pub fn legacy(rate: f64) -> ReplayConfig {
        ReplayConfig {
            engine: ReplayEngine::Msg,
            ..ReplayConfig::improved(rate)
        }
    }

    /// Config for the improved pipeline.
    pub fn improved(rate: f64) -> ReplayConfig {
        ReplayConfig {
            engine: ReplayEngine::Smpi,
            rate,
            placement: Placement::OnePerNode,
            copy_model: None,
            sharing: netmodel::SharingPolicy::Bottleneck,
            threads: ReplayConfig::default_threads(),
            window_s: None,
        }
    }

    /// Config for the improved pipeline *with* the eager copy model (the
    /// implemented future work). `copy` should come from a memcpy
    /// calibration of the target platform.
    pub fn improved_with_copy(rate: f64, copy: smpi::CopyCost) -> ReplayConfig {
        ReplayConfig {
            copy_model: Some(copy),
            ..ReplayConfig::improved(rate)
        }
    }

    /// Builds a config from a [`Calibration`] and the instance it will
    /// replay (the calibration decides the rate per instance).
    pub fn from_calibration(
        engine: ReplayEngine,
        calibration: &Calibration,
        instance: &workloads::lu::LuConfig,
    ) -> ReplayConfig {
        ReplayConfig {
            engine,
            ..ReplayConfig::improved(calibration.rate_for(instance))
        }
    }
}

/// Outcome of a replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayResult {
    /// Simulated execution time, seconds.
    pub time: f64,
    /// Per-rank simulated finish times.
    pub rank_times: Vec<f64>,
    /// Messages simulated.
    pub messages: u64,
    /// Simulation events processed (performance metric).
    pub events: u64,
}

/// Execution figures of the windowed-PDES engine (see
/// [`partition::plan_subshards`] and the `parallel` module). `None` on
/// every other path; the simulated results carry no trace of which path
/// ran — these numbers describe only *how* the identical answer was
/// computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdesStats {
    /// Sub-shards the coupled component was split into.
    pub shards: usize,
    /// Conservative window rounds executed.
    pub windows: u64,
    /// Cross-shard send-time envelopes exchanged through the mailboxes.
    pub mailbox_envelopes: u64,
    /// Cross-shard arrival records exchanged through the mailboxes.
    pub mailbox_arrivals: u64,
    /// Certified lookahead of the shard plan, seconds.
    pub lookahead_s: f64,
    /// Effective window width used per round, seconds.
    pub window_s: f64,
}

/// Outcome of an observed replay: the engine result plus the unified
/// observability payload (see [`simkernel::obs`]).
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The engine result, identical to what the plain entry points
    /// return.
    pub result: ReplayResult,
    /// Unified counter snapshot.
    pub metrics: Metrics,
    /// Recorded simulated-time spans (present iff span recording was
    /// requested).
    pub spans: Option<SpanLog>,
    /// Windowed-PDES execution figures when that engine ran the replay;
    /// `None` for the sequential and island-parallel paths.
    pub pdes: Option<PdesStats>,
    /// Wall-clock execution profile (present iff profiling was requested
    /// via [`replay_input_profiled`]). Purely diagnostic: simulated
    /// results carry no trace of whether it was collected.
    pub profile: Option<profile::ReplayProfile>,
}

impl ReplayReport {
    /// The makespan-determining chain through the recorded spans.
    /// `None` when spans were not recorded.
    pub fn critical_path(&self) -> Option<CriticalPath> {
        self.spans
            .as_ref()
            .map(|log| simkernel::obs::critical_path(log, &self.result.rank_times))
    }
}

/// An [`OpSource`] reading one rank of a shared trace.
pub struct TraceSource {
    trace: Arc<Trace>,
    rank: Rank,
    next: usize,
}

impl TraceSource {
    /// A source over `rank` of `trace`.
    pub fn new(trace: Arc<Trace>, rank: Rank) -> TraceSource {
        TraceSource {
            trace,
            rank,
            next: 0,
        }
    }
}

/// Maps one trace action to the equivalent runtime op.
pub fn action_to_op(action: &Action) -> MpiOp {
    match *action {
        Action::Init => MpiOp::Init,
        Action::Finalize => MpiOp::Finalize,
        Action::Compute { amount } => MpiOp::Compute(ComputeBlock {
            instructions: amount,
            fn_calls: 0.0,
            working_set: 0,
        }),
        Action::Send { dst, bytes } => MpiOp::Send { dst: dst.0, bytes },
        Action::Isend { dst, bytes } => MpiOp::Isend { dst: dst.0, bytes },
        Action::Recv { src, bytes } => MpiOp::Recv { src: src.0, bytes },
        Action::Irecv { src, bytes } => MpiOp::Irecv { src: src.0, bytes },
        Action::Wait => MpiOp::Wait,
        Action::WaitAll => MpiOp::WaitAll,
        Action::Barrier => MpiOp::Barrier,
        Action::Bcast { bytes, root } => MpiOp::Bcast {
            bytes,
            root: root.0,
        },
        Action::Reduce { bytes, root } => MpiOp::Reduce {
            bytes,
            root: root.0,
        },
        Action::Allreduce { bytes } => MpiOp::Allreduce { bytes },
        Action::Alltoall { bytes } => MpiOp::Alltoall { bytes },
        Action::Gather { bytes, root } => MpiOp::Gather {
            bytes,
            root: root.0,
        },
        Action::Allgather { bytes } => MpiOp::Allgather { bytes },
    }
}

impl OpSource for TraceSource {
    fn next_op(&mut self) -> Option<MpiOp> {
        let actions = self.trace.actions(self.rank);
        let action = actions.get(self.next)?;
        self.next += 1;
        Some(action_to_op(action))
    }
}

/// Builds per-rank sources over a shared trace.
pub fn trace_sources(trace: &Arc<Trace>) -> Vec<Box<dyn OpSource>> {
    (0..trace.ranks())
        .map(|r| Box::new(TraceSource::new(Arc::clone(trace), Rank(r))) as Box<dyn OpSource>)
        .collect()
}

/// An [`OpSource`] that pulls actions incrementally from an
/// [`ActionSource`] cursor (streamed from a split text file or a
/// `.titb` block), so the full per-rank action list never has to be
/// materialised. `OpSource::next_op` is infallible, so a cursor failure
/// (I/O error, parse error, corrupt block) is parked in a slot shared
/// with the other ranks and the stream ends; [`replay_sources`] checks
/// the slot and surfaces the first fault instead of the engine's
/// secondary deadlock diagnosis. An action naming a peer the trace does
/// not have is such a fault too: the engines index by peer rank.
pub struct StreamOpSource {
    inner: Box<dyn ActionSource>,
    rank: Rank,
    ranks: u32,
    fault: Arc<Mutex<Option<(Rank, SourceError)>>>,
}

impl OpSource for StreamOpSource {
    fn next_op(&mut self) -> Option<MpiOp> {
        let fault = match self.inner.next_action() {
            Ok(Some(a)) => match a {
                Action::Send { dst: peer, .. }
                | Action::Isend { dst: peer, .. }
                | Action::Recv { src: peer, .. }
                | Action::Irecv { src: peer, .. }
                    if peer.0 >= self.ranks =>
                {
                    SourceError::PeerOutOfRange {
                        peer,
                        ranks: self.ranks,
                    }
                }
                _ => return Some(action_to_op(&a)),
            },
            Ok(None) => return None,
            Err(e) => e,
        };
        let mut slot = self.fault.lock().expect("fault slot poisoned");
        if slot.is_none() {
            *slot = Some((self.rank, fault));
        }
        None
    }
}

/// Replays per-rank streaming action cursors (from
/// [`titrace::stream::open_sources`]) on `platform` under `config`.
/// Resident memory stays bounded by the cursors' read windows instead
/// of the whole trace.
///
/// # Errors
/// Fails on placement errors, a deadlocked replay, or a cursor fault
/// (I/O / parse / decode error discovered mid-replay).
pub fn replay_sources(
    platform: &Platform,
    action_sources: Vec<Box<dyn ActionSource>>,
    config: &ReplayConfig,
) -> Result<ReplayResult, String> {
    replay_sources_observed(platform, action_sources, config, false).map(|r| r.result)
}

/// Like [`replay_sources`], returning the unified observation (metrics
/// always, spans when `record_spans` is set) alongside the result.
///
/// Always runs the sequential engine regardless of `config.threads`:
/// the caller-provided cursors are single-use, and the parallel engine
/// needs a re-openable [`TraceInput`] for its scan pass — use
/// [`replay_input_observed`] (or [`replay_observed`]) for parallel
/// replay.
///
/// # Errors
/// See [`replay_sources`].
pub fn replay_sources_observed(
    platform: &Platform,
    action_sources: Vec<Box<dyn ActionSource>>,
    config: &ReplayConfig,
    record_spans: bool,
) -> Result<ReplayReport, String> {
    let ranks = action_sources.len() as u32;
    assert!(ranks > 0, "empty source list");
    let hosts: Vec<HostId> = config.placement.assign(platform, ranks)?;
    let fault: Arc<Mutex<Option<(Rank, SourceError)>>> = Arc::new(Mutex::new(None));
    let sources: Vec<Box<dyn OpSource>> = action_sources
        .into_iter()
        .enumerate()
        .map(|(r, inner)| {
            Box::new(StreamOpSource {
                inner,
                rank: Rank(r as u32),
                ranks,
                fault: Arc::clone(&fault),
            }) as Box<dyn OpSource>
        })
        .collect();
    let outcome = run_engine(platform, &hosts, sources, config, record_spans);
    // A cursor fault truncates its rank's stream, which the engine can
    // only see as early termination or deadlock — report the root cause.
    if let Some((rank, e)) = fault.lock().expect("fault slot poisoned").take() {
        return Err(format!("rank {rank} trace stream failed: {e}"));
    }
    outcome
}

/// Replays a trace directly from its on-disk (or in-memory) form,
/// choosing the streaming path that fits the layout: merged text is
/// decoded up front, split fragments and `.titb` blocks are streamed
/// per rank.
///
/// # Errors
/// Fails on I/O, parse, or decode errors, placement errors, or a
/// deadlocked replay.
pub fn replay_input(
    platform: &Platform,
    input: &TraceInput,
    ranks: u32,
    config: &ReplayConfig,
) -> Result<ReplayResult, String> {
    replay_input_observed(platform, input, ranks, config, false).map(|r| r.result)
}

/// Like [`replay_input`], returning the unified observation (metrics
/// always, spans when `record_spans` is set) alongside the result.
///
/// # Errors
/// See [`replay_input`].
pub fn replay_input_observed(
    platform: &Platform,
    input: &TraceInput,
    ranks: u32,
    config: &ReplayConfig,
    record_spans: bool,
) -> Result<ReplayReport, String> {
    replay_input_profiled(platform, input, ranks, config, record_spans, false)
}

/// Like [`replay_input_observed`], additionally measuring where the
/// host spends wall-clock time when `profile` is set: per-worker work /
/// barrier-wait / mailbox-stall breakdowns on
/// [`ReplayReport::profile`]. With `profile` false this is exactly
/// [`replay_input_observed`] — no host clock is read, and either way
/// every deterministic output (simulated times, metrics, spans,
/// manifests) is byte-identical to the unprofiled run.
///
/// # Errors
/// See [`replay_input`].
pub fn replay_input_profiled(
    platform: &Platform,
    input: &TraceInput,
    ranks: u32,
    config: &ReplayConfig,
    record_spans: bool,
    profile: bool,
) -> Result<ReplayReport, String> {
    if config.threads > 1 {
        return parallel::replay_input_parallel(
            platform,
            input,
            ranks,
            config,
            record_spans,
            profile,
        );
    }
    let sw = simkernel::telemetry::Stopwatch::start(profile);
    let sources = titrace::stream::open_sources(input, ranks).map_err(|e| e.to_string())?;
    let mut report = replay_sources_observed(platform, sources, config, record_spans)?;
    if profile {
        report.profile = Some(profile::ReplayProfile::sequential(
            sw.elapsed_s(),
            ranks as usize,
        ));
    }
    Ok(report)
}

fn run_engine(
    platform: &Platform,
    hosts: &[HostId],
    sources: Vec<Box<dyn OpSource>>,
    config: &ReplayConfig,
    record_spans: bool,
) -> Result<ReplayReport, String> {
    let (result, obs): (ReplayResult, RunObservation) = match config.engine {
        ReplayEngine::Smpi => {
            let mut smpi_cfg = smpi::SmpiConfig::smpi_replay();
            smpi_cfg.copy = config.copy_model;
            smpi_cfg.sharing = config.sharing;
            let (r, obs) = smpi::run_smpi_observed(
                platform,
                hosts,
                sources,
                smpi_cfg,
                hooks_for(config, hosts),
                record_spans,
            )?;
            (
                ReplayResult {
                    time: r.total_time,
                    rank_times: r.rank_times,
                    messages: r.stats.messages,
                    events: r.events,
                },
                obs,
            )
        }
        ReplayEngine::Msg => {
            let mut msg_cfg = msgsim::MsgConfig::legacy();
            msg_cfg.sharing = config.sharing;
            let (r, obs) = msgsim::run_msg_observed(
                platform,
                hosts,
                sources,
                msg_cfg,
                hooks_for(config, hosts),
                record_spans,
            )?;
            (
                ReplayResult {
                    time: r.total_time,
                    rank_times: r.rank_times,
                    messages: r.stats.messages,
                    events: r.events,
                },
                obs,
            )
        }
    };
    Ok(ReplayReport {
        result,
        metrics: obs.metrics,
        spans: obs.spans,
        pdes: None,
        profile: None,
    })
}

fn hooks_for(config: &ReplayConfig, hosts: &[HostId]) -> Box<FixedRateHooks> {
    Box::new(FixedRateHooks::uniform(config.rate, hosts.len() as u32))
}

/// Replays `trace` on `platform` under `config`.
///
/// # Errors
/// Fails on placement errors or a deadlocked replay (malformed trace).
pub fn replay(
    platform: &Platform,
    trace: &Arc<Trace>,
    config: &ReplayConfig,
) -> Result<ReplayResult, String> {
    replay_observed(platform, trace, config, false).map(|r| r.result)
}

/// Like [`replay`], returning the unified observation (metrics always,
/// spans when `record_spans` is set) alongside the result.
///
/// # Errors
/// See [`replay`].
pub fn replay_observed(
    platform: &Platform,
    trace: &Arc<Trace>,
    config: &ReplayConfig,
    record_spans: bool,
) -> Result<ReplayReport, String> {
    let ranks = trace.ranks();
    assert!(ranks > 0, "empty trace");
    if config.threads > 1 {
        let input = TraceInput::Memory(Arc::clone(trace));
        return parallel::replay_input_parallel(
            platform,
            &input,
            ranks,
            config,
            record_spans,
            false,
        );
    }
    let hosts: Vec<HostId> = config.placement.assign(platform, ranks)?;
    run_engine(platform, &hosts, trace_sources(trace), config, record_spans)
}

/// A compact, deterministic identity string for a trace input: its
/// storage form, origin, and size. Used in the run manifest to tie a
/// result to its input without hashing whole trace files.
pub fn trace_signature(input: &TraceInput, ranks: u32) -> String {
    match input {
        TraceInput::Memory(trace) => {
            let actions: usize = (0..trace.ranks())
                .map(|r| trace.actions(Rank(r)).len())
                .sum();
            format!("memory:{} ranks,{} actions", trace.ranks(), actions)
        }
        TraceInput::MergedText(p) | TraceInput::Description(p) | TraceInput::Binary(p) => {
            let kind = match input {
                TraceInput::MergedText(_) => "text",
                TraceInput::Description(_) => "split",
                _ => "titb",
            };
            let size = std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
            format!("{kind}:{}:{size} bytes,{ranks} ranks", p.display())
        }
    }
}

/// Flat key/value rendering of a [`ReplayConfig`] for the run manifest.
pub fn config_fields(config: &ReplayConfig) -> Vec<(String, String)> {
    vec![
        ("engine".into(), format!("{:?}", config.engine)),
        ("rate".into(), format!("{}", config.rate)),
        ("placement".into(), format!("{:?}", config.placement)),
        (
            "copy_model".into(),
            match config.copy_model {
                Some(c) => format!(
                    "base_seconds={} bytes_per_second={}",
                    c.base_seconds, c.bytes_per_second
                ),
                None => "none".into(),
            },
        ),
        ("sharing".into(), format!("{:?}", config.sharing)),
        ("threads".into(), format!("{}", config.threads)),
    ]
}

/// Assembles the run-manifest record for one observed replay.
/// `wall_time_s` is measured by the caller (the only non-deterministic
/// field; everything else is reproducible from the inputs).
pub fn manifest(
    platform: &Platform,
    signature: &str,
    config: &ReplayConfig,
    report: &ReplayReport,
    wall_time_s: f64,
) -> Manifest {
    Manifest {
        tool: concat!("titreplay ", env!("CARGO_PKG_VERSION")).to_string(),
        platform: platform.name.clone(),
        ranks: report.metrics.ranks,
        trace_signature: signature.to_string(),
        config: config_fields(config),
        simulated_time_s: report.result.time,
        wall_time_s,
        metrics: report.metrics.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acquisition::{acquire, CompilerOpt, Instrumentation};
    use emulator::Testbed;
    use workloads::lu::{LuClass, LuConfig};

    fn small_trace() -> Arc<Trace> {
        let lu = LuConfig::new(LuClass::S, 4).with_steps(3);
        Arc::new(acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace)
    }

    #[test]
    fn both_engines_replay_a_valid_trace() {
        let trace = small_trace();
        let p = platform::clusters::bordereau();
        for engine in [ReplayEngine::Msg, ReplayEngine::Smpi] {
            let cfg = ReplayConfig {
                engine,
                ..ReplayConfig::improved(2e9)
            };
            let r = replay(&p, &trace, &cfg).unwrap_or_else(|e| panic!("{engine:?}: {e}"));
            assert!(r.time > 0.0, "{engine:?}");
            assert_eq!(r.rank_times.len(), 4);
            assert!(r.messages > 0);
        }
    }

    #[test]
    fn msg_replay_is_slower_on_small_message_floods() {
        let trace = small_trace();
        let p = platform::clusters::bordereau();
        let msg = replay(&p, &trace, &ReplayConfig::legacy(2e9)).unwrap();
        let smpi = replay(&p, &trace, &ReplayConfig::improved(2e9)).unwrap();
        assert!(
            msg.time > smpi.time,
            "MSG {} !> SMPI {}",
            msg.time,
            smpi.time
        );
    }

    #[test]
    fn higher_rate_is_never_slower() {
        let trace = small_trace();
        let p = platform::clusters::graphene();
        let slow = replay(&p, &trace, &ReplayConfig::improved(1e9)).unwrap();
        let fast = replay(&p, &trace, &ReplayConfig::improved(4e9)).unwrap();
        assert!(fast.time <= slow.time);
    }

    #[test]
    fn replay_is_deterministic() {
        let trace = small_trace();
        let p = platform::clusters::bordereau();
        let cfg = ReplayConfig::improved(2e9);
        let a = replay(&p, &trace, &cfg).unwrap();
        let b = replay(&p, &trace, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn trace_acquired_on_one_cluster_replays_on_another() {
        // The decoupling headline: acquisition platform and replay
        // platform are independent.
        let trace = small_trace(); // acquisition is platform-free
        let bordereau = platform::clusters::bordereau();
        let graphene = platform::clusters::graphene();
        let cfg = ReplayConfig::improved(2e9);
        let tb = replay(&bordereau, &trace, &cfg).unwrap();
        let tg = replay(&graphene, &trace, &cfg).unwrap();
        assert!(tb.time > 0.0 && tg.time > 0.0);
        assert_ne!(tb.time, tg.time, "different networks, different times");
    }

    #[test]
    fn smpi_replay_tracks_ground_truth_closely_on_smallest_case() {
        // End-to-end accuracy smoke test: acquire with minimal
        // instrumentation, calibrate synthetically at the true rate, and
        // the improved replay should land within a few percent of the
        // uninstrumented emulated time.
        let lu = LuConfig::new(LuClass::S, 4).with_steps(5);
        let tb = Testbed::bordereau();
        let truth = tb
            .run_lu(&lu, Instrumentation::None, CompilerOpt::O3)
            .unwrap();
        let trace =
            Arc::new(acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace);
        // S-4 blocks are tiny: cache-resident, so the true rate is the
        // base speed.
        let rate = platform::clusters::BORDEREAU_SPEED;
        let sim = replay(&tb.platform, &trace, &ReplayConfig::improved(rate)).unwrap();
        let err = (sim.time - truth.time) / truth.time * 100.0;
        assert!(
            err.abs() < 15.0,
            "replay error {err}% (sim {} truth {})",
            sim.time,
            truth.time
        );
    }

    #[test]
    fn ingestion_paths_replay_bit_identically() {
        // The acceptance bar for the streaming subsystem: in-memory,
        // merged-text, split-description, and binary ingestion must all
        // produce the same simulated time to the last bit.
        let trace = small_trace();
        let dir = std::env::temp_dir().join(format!("replay-ingest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let merged = dir.join("lu.trace");
        titrace::files::write_merged(&trace, &merged).unwrap();
        let desc = titrace::files::write_split(&trace, &dir, "lu").unwrap();
        let bin = dir.join("lu.titb");
        titrace::binfmt::write_file(&trace, &bin, None).unwrap();
        let p = platform::clusters::bordereau();
        for engine in [ReplayEngine::Msg, ReplayEngine::Smpi] {
            let cfg = ReplayConfig {
                engine,
                ..ReplayConfig::improved(2e9)
            };
            let base = replay(&p, &trace, &cfg).unwrap();
            let inputs = [
                TraceInput::Memory(Arc::clone(&trace)),
                TraceInput::MergedText(merged.clone()),
                TraceInput::Description(desc.clone()),
                TraceInput::Binary(bin.clone()),
            ];
            for input in &inputs {
                let r = replay_input(&p, input, trace.ranks(), &cfg)
                    .unwrap_or_else(|e| panic!("{engine:?} {input:?}: {e}"));
                assert_eq!(
                    r.time.to_bits(),
                    base.time.to_bits(),
                    "{engine:?} {input:?}: {} != {}",
                    r.time,
                    base.time
                );
                assert_eq!(r, base, "{engine:?} {input:?}");
            }
        }
    }

    #[test]
    fn cursor_fault_is_surfaced_with_rank_and_cause() {
        // Corrupt one split fragment mid-stream: the engine sees a
        // truncated rank (deadlock), but the reported error must be the
        // root cause from the failing cursor — an unknown verb, or a line
        // over the decoder's bound (refused, not buffered).
        let trace = small_trace();
        let overlong = format!("#{}\n", "x".repeat(titrace::stream::MAX_LINE));
        for (bad_line, cause) in [
            ("p1 teleport 3\n", "unknown action verb `teleport`"),
            (overlong.as_str(), "line exceeds 65536 bytes"),
        ] {
            let dir = std::env::temp_dir().join(format!("replay-fault-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let desc = titrace::files::write_split(&trace, &dir, "lu").unwrap();
            let frag = dir.join("lu.rank1.trace");
            let mut text = std::fs::read_to_string(&frag).unwrap();
            let mid = text.len() / 2;
            let cut = text[..mid].rfind('\n').map_or(0, |i| i + 1);
            text.insert_str(cut, bad_line);
            std::fs::write(&frag, text).unwrap();
            let p = platform::clusters::bordereau();
            let err = replay_input(
                &p,
                &TraceInput::Description(desc),
                trace.ranks(),
                &ReplayConfig::improved(2e9),
            )
            .unwrap_err();
            assert!(
                err.starts_with("rank p1 trace stream failed: ")
                    && err.contains("lu.rank1.trace")
                    && err.ends_with(cause),
                "fault not surfaced: {err}"
            );
        }
    }

    /// An action of a trace *input* naming a rank the trace does not have
    /// is reported, not indexed with: on both engines, and at
    /// `threads >= 2` too, where the coupling scan stops at the
    /// collective and never sees it.
    #[test]
    fn out_of_range_peer_is_an_error_not_a_panic() {
        let mut trace = Trace::new(2);
        for r in [Rank(0), Rank(1)] {
            trace.push(r, Action::Init);
            trace.push(r, Action::Barrier);
        }
        trace.push(
            Rank(1),
            Action::Send {
                dst: Rank(9),
                bytes: 64,
            },
        );
        let input = TraceInput::Memory(Arc::new(trace));
        let p = platform::clusters::bordereau();
        for engine in [ReplayEngine::Smpi, ReplayEngine::Msg] {
            for threads in [1, 2] {
                let config = ReplayConfig {
                    engine,
                    threads,
                    ..ReplayConfig::improved(2e9)
                };
                let err = replay_input(&p, &input, 2, &config).unwrap_err();
                assert!(
                    err.contains("p1") && err.contains("peer p9 outside 0..2"),
                    "{engine:?} threads={threads}: {err}"
                );
            }
        }
    }

    #[test]
    fn canonical_hash_is_stable_and_ignores_execution_strategy() {
        let base = ReplayConfig::improved(2e9);
        // Deterministic across calls (and pinned across releases: the
        // memo keys of a long-running prediction server must not move).
        assert_eq!(base.canonical_hash(), base.canonical_hash());
        // Execution-strategy knobs never change the simulated result
        // (bit-identity is enforced by the differential suites), so they
        // must not change the hash either: the same question asked with
        // a different thread count or window shares the memo entry.
        let mut strategy = base.clone();
        strategy.threads = 7;
        strategy.window_s = Some(0.25);
        assert_eq!(base.canonical_hash(), strategy.canonical_hash());
    }

    #[test]
    fn canonical_hash_changes_with_every_semantic_field() {
        let base = ReplayConfig::improved(2e9);
        let mut variants: Vec<(&str, ReplayConfig)> = Vec::new();
        let mut v = base.clone();
        v.engine = ReplayEngine::Msg;
        variants.push(("engine", v));
        let mut v = base.clone();
        v.rate = 2e9 + 1.0;
        variants.push(("rate", v));
        let mut v = base.clone();
        v.placement = Placement::RoundRobin;
        variants.push(("placement", v));
        let mut v = base.clone();
        v.copy_model = Some(smpi::CopyCost {
            base_seconds: 1e-6,
            bytes_per_second: 1e9,
        });
        variants.push(("copy_model", v));
        let mut v = base.clone();
        v.sharing = netmodel::SharingPolicy::MaxMin;
        variants.push(("sharing", v));
        let mut seen = vec![base.canonical_hash()];
        for (field, variant) in &variants {
            let h = variant.canonical_hash();
            assert!(
                !seen.contains(&h),
                "changing {field} did not change the canonical hash"
            );
            seen.push(h);
        }
    }

    #[test]
    fn copy_model_fields_are_domain_separated_in_the_hash() {
        // Swapping the two copy-model floats must not collide.
        let mut a = ReplayConfig::improved(2e9);
        a.copy_model = Some(smpi::CopyCost {
            base_seconds: 1.0,
            bytes_per_second: 2.0,
        });
        let mut b = a.clone();
        b.copy_model = Some(smpi::CopyCost {
            base_seconds: 2.0,
            bytes_per_second: 1.0,
        });
        assert_ne!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn action_to_op_roundtrip_against_op_to_action() {
        use titrace::Rank;
        let actions = vec![
            Action::Init,
            Action::Compute { amount: 42.0 },
            Action::Send {
                dst: Rank(1),
                bytes: 10,
            },
            Action::Irecv {
                src: Rank(2),
                bytes: 11,
            },
            Action::Wait,
            Action::Allreduce { bytes: 8 },
            Action::Gather {
                bytes: 5,
                root: Rank(0),
            },
            Action::Finalize,
        ];
        for a in actions {
            let op = action_to_op(&a);
            assert_eq!(workloads::op_to_action(&op), a);
        }
    }
}

#[cfg(test)]
mod observability_tests {
    use super::*;
    use acquisition::{acquire, CompilerOpt, Instrumentation};
    use simkernel::obs::{chrome_trace, state_csv, SpanKind};
    use workloads::lu::{LuClass, LuConfig};

    fn lu_s8_trace() -> Arc<Trace> {
        let lu = LuConfig::new(LuClass::S, 8).with_steps(3);
        Arc::new(acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace)
    }

    fn cfg(engine: ReplayEngine) -> ReplayConfig {
        ReplayConfig {
            engine,
            ..ReplayConfig::improved(2e9)
        }
    }

    #[test]
    fn chrome_trace_is_byte_identical_across_runs() {
        let trace = lu_s8_trace();
        let p = platform::clusters::bordereau();
        for engine in [ReplayEngine::Msg, ReplayEngine::Smpi] {
            let mut exports = Vec::new();
            for _ in 0..2 {
                let report = replay_observed(&p, &trace, &cfg(engine), true).unwrap();
                let log = report.spans.as_ref().expect("spans recorded");
                exports.push(chrome_trace(log));
            }
            for e in &exports[1..] {
                assert_eq!(
                    *e, exports[0],
                    "{engine:?}: chrome-trace export not byte-identical"
                );
            }
        }
    }

    #[test]
    fn spans_balance_against_rank_finish_times() {
        // Invariant: each rank's recorded spans are chronological,
        // non-overlapping, within [0, finish]; every flow closed.
        let trace = lu_s8_trace();
        let p = platform::clusters::bordereau();
        for engine in [ReplayEngine::Msg, ReplayEngine::Smpi] {
            let report = replay_observed(&p, &trace, &cfg(engine), true).unwrap();
            let log = report.spans.as_ref().unwrap();
            assert_eq!(log.open_flows(), 0, "{engine:?}: flows left open");
            assert!(log.total_spans() > 0, "{engine:?}: nothing recorded");
            for rank in 0..log.rank_count() {
                let finish = report.result.rank_times[rank as usize];
                let mut cursor = 0.0;
                let mut tracked = 0.0;
                for s in log.rank(rank) {
                    assert!(
                        s.start >= cursor - 1e-12,
                        "{engine:?} rank {rank}: span at {} overlaps previous ending {cursor}",
                        s.start
                    );
                    assert!(s.end > s.start);
                    cursor = s.end;
                    tracked += s.end - s.start;
                }
                assert!(
                    cursor <= finish + 1e-9,
                    "{engine:?} rank {rank}: spans exceed finish {finish}"
                );
                assert!(
                    tracked <= finish + 1e-9,
                    "{engine:?} rank {rank}: tracked {tracked} exceeds finish {finish}"
                );
            }
            for f in log.flows() {
                assert!(f.end >= f.start, "flow ends before it starts");
            }
        }
    }

    #[test]
    fn critical_path_end_bit_matches_reported_time() {
        let trace = lu_s8_trace();
        let p = platform::clusters::bordereau();
        for engine in [ReplayEngine::Msg, ReplayEngine::Smpi] {
            let report = replay_observed(&p, &trace, &cfg(engine), true).unwrap();
            let path = report.critical_path().expect("spans recorded");
            assert_eq!(
                path.end_s.to_bits(),
                report.result.time.to_bits(),
                "{engine:?}: critical-path end {} != simulated time {}",
                path.end_s,
                report.result.time
            );
            assert!(!path.steps.is_empty());
            // Steps tile [0, end] back-to-back.
            let mut t = 0.0;
            for s in &path.steps {
                assert!((s.start_s - t).abs() < 1e-9, "gap at {t}");
                t = s.end_s;
            }
            assert!((t - path.end_s).abs() < 1e-12);
            assert_eq!(path.breakdown.len(), 8);
        }
    }

    #[test]
    fn observed_time_is_bit_identical_to_plain_replay() {
        // The recorder must not perturb simulation results.
        let trace = lu_s8_trace();
        let p = platform::clusters::bordereau();
        for engine in [ReplayEngine::Msg, ReplayEngine::Smpi] {
            let c = cfg(engine);
            let plain = replay(&p, &trace, &c).unwrap();
            let observed = replay_observed(&p, &trace, &c, true).unwrap();
            assert_eq!(
                plain.time.to_bits(),
                observed.result.time.to_bits(),
                "{engine:?}"
            );
            assert_eq!(plain.rank_times, observed.result.rank_times);
            assert_eq!(plain.events, observed.result.events);
        }
    }

    #[test]
    fn metrics_fold_replay_and_network_counters() {
        let trace = lu_s8_trace();
        let p = platform::clusters::bordereau();
        let report = replay_observed(&p, &trace, &cfg(ReplayEngine::Smpi), false).unwrap();
        let m = &report.metrics;
        assert_eq!(m.engine, "smpi");
        assert_eq!(m.ranks, 8);
        assert_eq!(m.messages, report.result.messages);
        assert_eq!(m.messages, m.eager_messages + m.rendezvous_messages);
        assert_eq!(m.events_processed, report.result.events);
        assert!(m.flows_created > 0);
        assert_eq!(m.flows_created, m.flows_resolved);
        assert!(m.sharing_resolves > 0);
        let json = m.to_json();
        assert!(json.contains("\"engine\": \"smpi\""));
        assert!(json.contains("\"network\""));
    }

    #[test]
    fn exporters_cover_all_recorded_state() {
        let trace = lu_s8_trace();
        let p = platform::clusters::bordereau();
        let report = replay_observed(&p, &trace, &cfg(ReplayEngine::Smpi), true).unwrap();
        let log = report.spans.as_ref().unwrap();
        let json = chrome_trace(log);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("compute"));
        let csv = state_csv(log);
        let lines = csv.lines().count();
        // Header + one row per span + one per flow.
        assert_eq!(lines, 1 + log.total_spans() + log.flows().len());
        // Every span kind that occurred appears in the CSV.
        for kind in [SpanKind::Compute, SpanKind::Send, SpanKind::Recv] {
            if (0..log.rank_count()).any(|r| log.total(r, kind) > 0.0) {
                assert!(csv.contains(kind.label()), "{} missing", kind.label());
            }
        }
    }

    #[test]
    fn manifest_embeds_config_and_signature() {
        let trace = lu_s8_trace();
        let p = platform::clusters::bordereau();
        let c = cfg(ReplayEngine::Smpi);
        let report = replay_observed(&p, &trace, &c, false).unwrap();
        let input = TraceInput::Memory(Arc::clone(&trace));
        let sig = trace_signature(&input, trace.ranks());
        assert!(sig.starts_with("memory:8 ranks"));
        let man = manifest(&p, &sig, &c, &report, 0.25);
        let json = man.to_json();
        assert!(json.contains("\"trace_signature\": \"memory:8 ranks"));
        assert!(json.contains("\"engine\": \"Smpi\""));
        assert!(json.contains("\"wall_time_s\": 0.25"));
        assert!(json.contains("\"metrics\": {"));
    }
}

#[cfg(test)]
mod copy_model_tests {
    use super::*;
    use acquisition::{acquire, CompilerOpt, Instrumentation};
    use emulator::Testbed;
    use workloads::lu::{LuClass, LuConfig};

    #[test]
    fn copy_model_raises_simulated_time() {
        let lu = LuConfig::new(LuClass::S, 8).with_steps(4);
        let trace = std::sync::Arc::new(
            acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace,
        );
        let p = platform::clusters::graphene();
        let plain = replay(&p, &trace, &ReplayConfig::improved(2e9)).unwrap();
        let copy = smpi::SmpiConfig::ground_truth().copy.unwrap();
        let with_copy = replay(&p, &trace, &ReplayConfig::improved_with_copy(2e9, copy)).unwrap();
        assert!(
            with_copy.time > plain.time,
            "copy model must add time: {} !> {}",
            with_copy.time,
            plain.time
        );
    }

    #[test]
    fn copy_model_closes_the_truth_gap_on_eager_floods() {
        // An eager-message-dominated workload where the copy is the only
        // mismatch: the trace has exact instruction counts and the
        // calibrated rate is the true base rate, so the remaining error
        // is the copy time — which the copy-modeling replay removes.
        let lu = LuConfig::new(LuClass::S, 8).with_steps(6);
        let tb = Testbed::graphene();
        let real = tb
            .run_lu(&lu, Instrumentation::None, CompilerOpt::O3)
            .unwrap();
        let trace = std::sync::Arc::new(
            acquire(lu.sources(), Instrumentation::Coarse, CompilerOpt::O3, 1).trace,
        );
        let rate = platform::clusters::GRAPHENE_SPEED;
        let err = |config: &ReplayConfig| {
            let sim = replay(&tb.platform, &trace, config).unwrap();
            ((sim.time - real.time) / real.time * 100.0).abs()
        };
        let without = err(&ReplayConfig::improved(rate));
        let copy = smpi::SmpiConfig::ground_truth().copy.unwrap();
        let with = err(&ReplayConfig::improved_with_copy(rate, copy));
        assert!(
            with < without,
            "copy modeling should reduce |error|: {with:.2}% !< {without:.2}%"
        );
    }

    #[test]
    fn from_calibration_selects_instance_rate() {
        use calibrate::{calibrate, CalibrationMethod};
        let tb = Testbed::bordereau();
        let cal = calibrate(
            &tb,
            CalibrationMethod::CacheAware,
            CompilerOpt::O3,
            &[workloads::lu::LuClass::B],
            Instrumentation::Coarse,
            1,
        )
        .unwrap();
        let spilling = LuConfig::new(LuClass::B, 8);
        let resident = LuConfig::new(LuClass::B, 64);
        let c_spill = ReplayConfig::from_calibration(ReplayEngine::Smpi, &cal, &spilling);
        let c_res = ReplayConfig::from_calibration(ReplayEngine::Smpi, &cal, &resident);
        assert!(c_spill.rate < c_res.rate);
        assert!(c_spill.copy_model.is_none());
    }
}
