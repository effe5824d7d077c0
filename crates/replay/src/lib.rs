//! Replaying time-independent traces on simulated platforms.
//!
//! A replay turns a [`titrace::Trace`] back into per-rank op streams and
//! executes them on a simulated platform with a calibrated instruction
//! rate. Two back-ends are provided, matching the paper's before/after.
//! Both are configurations of the one [`smpi`] runtime:
//!
//! * [`ReplayEngine::Msg`] — the first implementation
//!   ([`smpi::SmpiConfig::msg_legacy`]): every transfer starts at the
//!   receiver's match, asynchronous small sends, no per-size network
//!   factors but a flat latency factor, closed-form collectives;
//! * [`ReplayEngine::Smpi`] — the rewrite inside SMPI
//!   ([`smpi::SmpiConfig::smpi_replay`]): detached eager sends,
//!   rendezvous for large messages, piece-wise linear network factors,
//!   collectives as point-to-point algorithms — and the one acknowledged
//!   gap, the unmodeled eager memory-copy time.
//!
//! The user-facing workflow mirrors the paper's Section 3.3 `smpirun`
//! invocation: a platform description, a host list, one trace, one
//! calibrated rate — and a simulated execution time out.
//! [`replay_input_observed`] is that invocation, and the only way in.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod engine;
mod parallel;
pub mod partition;

use std::time::Instant;

use platform::{HostId, Placement, Platform};
use simkernel::obs::{Manifest, ReplayProfile, RunReport};
use titrace::{Action, ActionSource, Rank, TraceInput};
use workloads::{ComputeBlock, MpiOp};

use engine::{check_fault, FaultSlot, ReplayOps};

/// Which simulation back-end executes the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayEngine {
    /// The legacy MSG-based replay (first implementation).
    Msg,
    /// The improved SMPI-based replay.
    Smpi,
}

impl ReplayEngine {
    /// The `--engine` name, as reported in metrics.
    pub fn name(self) -> &'static str {
        match self {
            ReplayEngine::Msg => "msg",
            ReplayEngine::Smpi => "smpi",
        }
    }
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
    /// Worker threads for the partitioned parallel replay engine
    /// (see [`partition`] / `parallel`). `1` (the default) runs the
    /// unchanged sequential path; `>= 2` partitions the ranks into
    /// coupling islands and replays islands concurrently — a trace that
    /// forms one coupled component replays sequentially. Results are
    /// bit-identical at any thread count. The constructors honour the
    /// `TITR_REPLAY_THREADS` environment variable (see
    /// [`ReplayConfig::default_threads`]).
    pub threads: usize,
}

impl ReplayConfig {
    /// The thread count the constructors start from: the
    /// `TITR_REPLAY_THREADS` environment variable when set to a positive
    /// integer, else 1 (sequential). Mirrors the `TITR_SWEEP_THREADS`
    /// convention of the experiment sweeps, and lets CI rerun the
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
    /// fields that shape the simulated result: engine, rate, placement
    /// and copy model. The execution-strategy field `threads` is
    /// deliberately excluded: results are bit-identical
    /// across it (pinned by the differential suites), so two configs
    /// that differ only there are the *same* what-if question and must
    /// share a memo entry in the prediction service.
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
        field("engine", self.engine.name().as_bytes());
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
            threads: ReplayConfig::default_threads(),
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

/// Replays `ranks` ranks of `input` on `platform` under `config` — the
/// one replay entry. Every on-disk layout streams per rank — merged text
/// through its ranks' byte runs, split fragments whole, `.titb` through
/// its ranks' blocks — so resident memory stays bounded by the cursors'
/// read windows; an in-memory trace must have exactly `ranks` ranks.
/// `config.threads >= 2` replays coupling islands concurrently
/// (bit-identical results). The [`RunReport`] carries the metrics
/// always, the spans when `record_spans` is set, and the wall-clock
/// profile of the whole replay.
///
/// # Errors
/// Fails on I/O, parse, or decode errors, an action the runtimes cannot
/// execute (peer or root outside the trace, message to oneself, `wait`
/// with nothing outstanding, requests never waited for — naming the rank
/// and the action's index), placement errors, a deadlocked replay, or
/// one that ends with unmatched messages.
pub fn replay_input_observed(
    platform: &Platform,
    input: &TraceInput,
    ranks: u32,
    config: &ReplayConfig,
    record_spans: bool,
) -> Result<RunReport, String> {
    let started = Instant::now();
    if ranks == 0 {
        return Err("a replay needs at least one rank".into());
    }
    if let TraceInput::Memory(trace) = input {
        if trace.ranks() != ranks {
            return Err(format!(
                "the in-memory trace has {} ranks, not {ranks}",
                trace.ranks()
            ));
        }
    }
    if config.threads > 1 {
        return parallel::replay_islands(platform, input, ranks, config, record_spans, started);
    }
    // Text decoding is a third of a text replay: a helper thread does it
    // ahead of the replay (`titrace::ahead`), joined before the report
    // leaves, on success or error.
    let (sources, ahead) = titrace::ahead::open(input, ranks).map_err(|e| e.to_string())?;
    let report = replay_sequential(platform, sources, config, record_spans, started);
    let decode = ahead.finish();
    report.map(|mut report| {
        report.profile.decode_wait_s = decode.wait_s;
        report.profile.decode_parks = decode.parks;
        report
    })
}

/// The sequential replay: one engine over every rank, prepared and run
/// on the caller's thread.
fn replay_sequential(
    platform: &Platform,
    cursors: Vec<Box<dyn ActionSource>>,
    config: &ReplayConfig,
    record_spans: bool,
    started: Instant,
) -> Result<RunReport, String> {
    let ranks = cursors.len() as u32;
    let hosts: Vec<HostId> = config.placement.assign(platform, ranks)?;
    let fault = FaultSlot::default();
    let sources = ReplayOps::wrap(cursors, 0..ranks, ranks, None, &fault);
    let outcome = engine::prepare(platform, &hosts, sources, config, record_spans).run();
    check_fault(&fault)?;
    let mut report = outcome?;
    report.profile = ReplayProfile::sequential(started.elapsed().as_secs_f64(), ranks as usize);
    Ok(report)
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
        TraceInput::MergedText(p) => file_signature("text", p, ranks),
        TraceInput::Description(p) => file_signature("split", p, ranks),
        TraceInput::Binary(p) => file_signature("titb", p, ranks),
        TraceInput::OpenBinary(titb) => file_signature("titb", titb.path(), ranks),
        TraceInput::OpenText(text) => file_signature("text", text.path(), ranks),
    }
}

fn file_signature(kind: &str, path: &std::path::Path, ranks: u32) -> String {
    let size = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    format!("{kind}:{}:{size} bytes,{ranks} ranks", path.display())
}

/// Flat key/value rendering of a [`ReplayConfig`] for the run manifest.
pub(crate) fn config_fields(config: &ReplayConfig) -> Vec<(String, String)> {
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
    report: &RunReport,
    wall_time_s: f64,
) -> Manifest {
    Manifest {
        tool: concat!("titreplay ", env!("CARGO_PKG_VERSION")).to_string(),
        platform: platform.name.clone(),
        trace_signature: signature.to_string(),
        config: config_fields(config),
        wall_time_s,
        metrics: report.metrics.clone(),
    }
}

/// [`replay_input_observed`] over a whole in-memory trace.
#[cfg(test)]
fn replay_memory(
    platform: &Platform,
    trace: &std::sync::Arc<titrace::Trace>,
    config: &ReplayConfig,
    record_spans: bool,
) -> Result<RunReport, String> {
    let input = TraceInput::Memory(std::sync::Arc::clone(trace));
    replay_input_observed(platform, &input, trace.ranks(), config, record_spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acquisition::{acquire, CompilerOpt, Instrumentation};
    use emulator::Testbed;
    use std::sync::Arc;
    use titrace::Trace;
    use workloads::lu::{LuClass, LuConfig};

    /// What two replays are compared on: the makespan, the per-rank
    /// finish times, the messages and the kernel events.
    fn outcome(r: &RunReport) -> (f64, Vec<f64>, u64, u64) {
        let m = &r.metrics;
        (
            r.time(),
            r.rank_times.clone(),
            m.messages,
            m.events_processed,
        )
    }

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
            let r = replay_memory(&p, &trace, &cfg, false)
                .unwrap_or_else(|e| panic!("{engine:?}: {e}"));
            assert!(r.time() > 0.0, "{engine:?}");
            assert_eq!(r.rank_times.len(), 4);
            assert!(r.metrics.messages > 0);
        }
    }

    #[test]
    fn msg_replay_is_slower_on_small_message_floods() {
        let trace = small_trace();
        let p = platform::clusters::bordereau();
        let msg = replay_memory(&p, &trace, &ReplayConfig::legacy(2e9), false).unwrap();
        let smpi = replay_memory(&p, &trace, &ReplayConfig::improved(2e9), false).unwrap();
        assert!(
            msg.time() > smpi.time(),
            "MSG {} !> SMPI {}",
            msg.time(),
            smpi.time()
        );
    }

    #[test]
    fn higher_rate_is_never_slower() {
        let trace = small_trace();
        let p = platform::clusters::graphene();
        let slow = replay_memory(&p, &trace, &ReplayConfig::improved(1e9), false).unwrap();
        let fast = replay_memory(&p, &trace, &ReplayConfig::improved(4e9), false).unwrap();
        assert!(fast.time() <= slow.time());
    }

    #[test]
    fn replay_is_deterministic() {
        let trace = small_trace();
        let p = platform::clusters::bordereau();
        let cfg = ReplayConfig::improved(2e9);
        let a = replay_memory(&p, &trace, &cfg, false).unwrap();
        let b = replay_memory(&p, &trace, &cfg, false).unwrap();
        assert_eq!(outcome(&a), outcome(&b));
    }

    #[test]
    fn trace_acquired_on_one_cluster_replays_on_another() {
        // The decoupling headline: acquisition platform and replay
        // platform are independent.
        let trace = small_trace(); // acquisition is platform-free
        let bordereau = platform::clusters::bordereau();
        let graphene = platform::clusters::graphene();
        let cfg = ReplayConfig::improved(2e9);
        let tb = replay_memory(&bordereau, &trace, &cfg, false).unwrap();
        let tg = replay_memory(&graphene, &trace, &cfg, false).unwrap();
        assert!(tb.time() > 0.0 && tg.time() > 0.0);
        assert_ne!(tb.time(), tg.time(), "different networks, different times");
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
        let sim =
            replay_memory(&tb.platform, &trace, &ReplayConfig::improved(rate), false).unwrap();
        let err = (sim.time() - truth.time()) / truth.time() * 100.0;
        assert!(
            err.abs() < 15.0,
            "replay error {err}% (sim {} truth {})",
            sim.time(),
            truth.time()
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
            let base = replay_memory(&p, &trace, &cfg, false).unwrap();
            let inputs = [
                TraceInput::Memory(Arc::clone(&trace)),
                TraceInput::MergedText(merged.clone()),
                TraceInput::Description(desc.clone()),
                TraceInput::Binary(bin.clone()),
            ];
            for input in &inputs {
                let r = replay_input_observed(&p, input, trace.ranks(), &cfg, false)
                    .unwrap_or_else(|e| panic!("{engine:?} {input:?}: {e}"));
                assert_eq!(
                    r.time().to_bits(),
                    base.time().to_bits(),
                    "{engine:?} {input:?}: {} != {}",
                    r.time(),
                    base.time()
                );
                assert_eq!(outcome(&r), outcome(&base), "{engine:?} {input:?}");
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
            let err = replay_input_observed(
                &p,
                &TraceInput::Description(desc),
                trace.ranks(),
                &ReplayConfig::improved(2e9),
                false,
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
                let err = replay_input_observed(&p, &input, 2, &config, false).unwrap_err();
                assert!(
                    err.contains("p1") && err.contains("peer p9 outside 0..2"),
                    "{engine:?} threads={threads}: {err}"
                );
            }
        }
    }

    /// Traces the runtimes cannot execute are errors naming the rank —
    /// never a panic — on both engines, sequential and island path.
    #[test]
    fn hostile_traces_are_errors_naming_the_rank() {
        let cases = [
            (
                "p0 init\np0 wait\np1 init\n",
                "rank p0 trace stream failed: action 1 waits with no outstanding request",
            ),
            (
                "p0 bcast 8 p7\np1 bcast 8 p7\n",
                "trace stream failed: action 0 references peer p7 outside 0..2",
            ),
            (
                "p0 init\np0 send p0 8\np1 init\n",
                "rank p0 trace stream failed: action 1 addresses its own rank",
            ),
            (
                "p0 isend p1 8\np1 recv p0 8\n",
                "rank p0 trace stream failed: stream ends after 1 actions with 1 request(s) \
                 never waited for",
            ),
            (
                "p0 send p1 8\np1 init\n",
                "replay finished with unmatched records: 1 messages, 0 posts, 0 requests \
                 (first unreceived message: rank 0 -> rank 1)",
            ),
            (
                "p0 send p1 8\np1 recv p0 16\n",
                "message size mismatch: rank 0 sent 8 bytes to rank 1, which expects 16",
            ),
            (
                "p0 allreduce 8\np1 bcast 8 p0\n",
                "collective mismatch: rank 1 entered Bcast { bytes: 8, root: 0 } as collective \
                 0, rank 0 entered Allreduce { bytes: 8 }",
            ),
        ];
        let p = platform::clusters::bordereau();
        for (text, want) in cases {
            let trace = titrace::parse::parse_merged(text, 2).unwrap();
            let input = TraceInput::Memory(Arc::new(trace));
            for engine in [ReplayEngine::Smpi, ReplayEngine::Msg] {
                for threads in [1, 2] {
                    let config = ReplayConfig {
                        engine,
                        threads,
                        ..ReplayConfig::improved(2e9)
                    };
                    let err = replay_input_observed(&p, &input, 2, &config, false).unwrap_err();
                    assert!(err.contains(want), "{engine:?} threads={threads}: {err}");
                }
            }
        }
    }

    /// The leak report names the lowest `(dst, src)` pair with a message
    /// nobody received — not the first pair to communicate (`2 → 1`
    /// sends first) — on both engines, sequential and island path.
    #[test]
    fn leak_report_names_the_lowest_destination_first() {
        let text = "p0 init\np1 init\np2 send p1 8\np3 send p0 8\n";
        let trace = titrace::parse::parse_merged(text, 4).unwrap();
        let input = TraceInput::Memory(Arc::new(trace));
        let p = platform::clusters::bordereau();
        for engine in [ReplayEngine::Smpi, ReplayEngine::Msg] {
            for threads in [1, 2] {
                let config = ReplayConfig {
                    engine,
                    threads,
                    ..ReplayConfig::improved(2e9)
                };
                let err = replay_input_observed(&p, &input, 4, &config, false).unwrap_err();
                assert_eq!(
                    err,
                    "replay finished with unmatched records: 2 messages, 0 posts, 0 requests \
                     (first unreceived message: rank 3 -> rank 0)",
                    "{engine:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn memory_input_must_have_the_requested_rank_count() {
        let input = TraceInput::Memory(small_trace());
        let p = platform::clusters::bordereau();
        for threads in [1, 2] {
            let config = ReplayConfig {
                threads,
                ..ReplayConfig::improved(2e9)
            };
            let err = replay_input_observed(&p, &input, 8, &config, false).unwrap_err();
            assert_eq!(err, "the in-memory trace has 4 ranks, not 8");
            let err = replay_input_observed(&p, &input, 0, &config, false).unwrap_err();
            assert_eq!(err, "a replay needs at least one rank");
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
        // a different thread count shares the memo entry.
        let mut strategy = base.clone();
        strategy.threads = 7;
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
    use std::sync::Arc;
    use titrace::Trace;
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
                let report = replay_memory(&p, &trace, &cfg(engine), true).unwrap();
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
            let report = replay_memory(&p, &trace, &cfg(engine), true).unwrap();
            let log = report.spans.as_ref().unwrap();
            // A flow's span ends where it opened until it closes, and
            // every link has a positive latency.
            assert!(
                log.flows().iter().all(|f| f.end > f.start),
                "{engine:?}: flows left open"
            );
            assert!(log.total_spans() > 0, "{engine:?}: nothing recorded");
            for rank in 0..log.rank_count() {
                let finish = report.rank_times[rank as usize];
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
            let report = replay_memory(&p, &trace, &cfg(engine), true).unwrap();
            let path = report.critical_path().expect("spans recorded");
            assert_eq!(
                path.end_s.to_bits(),
                report.time().to_bits(),
                "{engine:?}: critical-path end {} != simulated time {}",
                path.end_s,
                report.time()
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
            let plain = replay_memory(&p, &trace, &c, false).unwrap();
            let observed = replay_memory(&p, &trace, &c, true).unwrap();
            assert_eq!(
                plain.time().to_bits(),
                observed.time().to_bits(),
                "{engine:?}"
            );
            assert_eq!(plain.rank_times, observed.rank_times);
            assert_eq!(
                plain.metrics.events_processed,
                observed.metrics.events_processed
            );
        }
    }

    #[test]
    fn metrics_fold_replay_and_network_counters() {
        let trace = lu_s8_trace();
        let p = platform::clusters::bordereau();
        let report = replay_memory(&p, &trace, &cfg(ReplayEngine::Smpi), false).unwrap();
        let m = &report.metrics;
        assert_eq!(m.engine, "smpi");
        assert_eq!(m.ranks, 8);
        assert!(m.messages > 0);
        assert_eq!(m.messages, m.eager_messages + m.rendezvous_messages);
        assert_eq!(m.events_processed, m.fel.popped);
        assert!(m.net.flows_opened > 0);
        assert_eq!(m.net.flows_opened, m.net.flows_closed);
        assert!(m.net.resolves > 0);
        let json = m.to_json();
        assert!(json.contains("\"engine\": \"smpi\""));
        assert!(json.contains("\"network\""));
    }

    #[test]
    fn exporters_cover_all_recorded_state() {
        let trace = lu_s8_trace();
        let p = platform::clusters::bordereau();
        let report = replay_memory(&p, &trace, &cfg(ReplayEngine::Smpi), true).unwrap();
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
        let report = replay_memory(&p, &trace, &c, false).unwrap();
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
        let plain = replay_memory(&p, &trace, &ReplayConfig::improved(2e9), false).unwrap();
        let copy = smpi::SmpiConfig::ground_truth().copy.unwrap();
        let with_copy = replay_memory(
            &p,
            &trace,
            &ReplayConfig {
                copy_model: Some(copy),
                ..ReplayConfig::improved(2e9)
            },
            false,
        )
        .unwrap();
        assert!(
            with_copy.time() > plain.time(),
            "copy model must add time: {} !> {}",
            with_copy.time(),
            plain.time()
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
            let sim = replay_memory(&tb.platform, &trace, config, false).unwrap();
            ((sim.time() - real.time()) / real.time() * 100.0).abs()
        };
        let without = err(&ReplayConfig::improved(rate));
        let copy = smpi::SmpiConfig::ground_truth().copy.unwrap();
        let with = err(&ReplayConfig {
            copy_model: Some(copy),
            ..ReplayConfig::improved(rate)
        });
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
        let c_spill = ReplayConfig::improved(cal.rate_for(&spilling));
        let c_res = ReplayConfig::improved(cal.rate_for(&resident));
        assert!(c_spill.rate < c_res.rate);
        assert!(c_spill.copy_model.is_none());
    }
}
