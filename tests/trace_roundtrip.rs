//! Property tests of the trace artifact across crate boundaries:
//! generator → acquisition → text/binary formats → parser → replay.

use proptest::prelude::*;
use std::sync::Arc;

use tit_replay::prelude::*;
use tit_replay::titrace::{binfmt, files, parse, stream, validate, write};

/// Strategy: a small LU instance configuration.
fn arb_lu() -> impl Strategy<Value = LuConfig> {
    (0u32..3, 2u32..6).prop_map(|(c, log_p)| {
        let class = [LuClass::S, LuClass::W, LuClass::A][c as usize];
        LuConfig::new(class, 1 << log_p).with_steps(2)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any acquired LU trace survives the text round-trip exactly and
    /// validates cleanly.
    #[test]
    fn acquired_trace_roundtrips(lu in arb_lu(), seed in 0u64..1000) {
        let acq = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, seed);
        prop_assert!(validate::is_valid(&acq.trace));
        let text = write::to_string(&acq.trace);
        let back = parse::parse_merged(&text, lu.procs).unwrap();
        prop_assert_eq!(back, acq.trace);
    }

    /// text ⇄ binary ⇄ Trace agree on any acquired trace: the binary
    /// encoding is lossless.
    #[test]
    fn acquired_trace_survives_binary_ingestion(lu in arb_lu(), seed in 0u64..1000) {
        let acq = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, seed);
        let from_bin = binfmt::decode(&binfmt::encode(&acq.trace)).unwrap();
        prop_assert_eq!(&from_bin, &acq.trace);
        prop_assert_eq!(write::to_string(&from_bin), write::to_string(&acq.trace));
    }

    /// Replay is bit-identical whether the trace is ingested from
    /// memory, merged text, a split description, or the binary format.
    #[test]
    fn replay_is_identical_across_ingestion_paths(lu in arb_lu(), seed in 0u64..1000) {
        let trace = Arc::new(
            acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, seed).trace,
        );
        let dir = std::env::temp_dir()
            .join(format!("titr-rt-{}-{seed}-{}", lu.label(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let merged = dir.join("lu.trace");
        files::write_merged(&trace, &merged).unwrap();
        let desc = files::write_split(&trace, &dir, "lu").unwrap();
        let bin = dir.join("lu.titb");
        binfmt::write_file(&trace, &bin, None).unwrap();
        let platform = tit_replay::platform::clusters::graphene();
        let cfg = ReplayConfig::improved(2e9);
        let base = replay(&platform, &trace, &cfg).unwrap();
        for input in [
            TraceInput::Memory(Arc::clone(&trace)),
            TraceInput::MergedText(merged),
            TraceInput::Description(desc),
            TraceInput::Binary(bin),
        ] {
            let r = replay_input(&platform, &input, trace.ranks(), &cfg).unwrap();
            prop_assert_eq!(r.time.to_bits(), base.time.to_bits(),
                "{:?}: {} != {}", input, r.time, base.time);
            prop_assert_eq!(&r.rank_times, &base.rank_times, "{:?}", input);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Replay of any valid LU trace terminates (no deadlock) on both
    /// engines, and higher calibrated rates never slow it down.
    #[test]
    fn replay_terminates_and_is_monotone(lu in arb_lu(), seed in 0u64..1000) {
        let trace = Arc::new(
            acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, seed).trace,
        );
        let platform = tit_replay::platform::clusters::graphene();
        for engine in [ReplayEngine::Msg, ReplayEngine::Smpi] {
            let at = |rate| ReplayConfig { engine, ..ReplayConfig::improved(rate) };
            let slow = replay(&platform, &trace, &at(1e9)).unwrap();
            let fast = replay(&platform, &trace, &at(4e9)).unwrap();
            prop_assert!(slow.time > 0.0);
            prop_assert!(fast.time <= slow.time * (1.0 + 1e-9),
                "{engine:?}: rate 4e9 slower ({} vs {})", fast.time, slow.time);
        }
    }

    /// Counter inflation is never negative in expectation: instrumented
    /// acquisitions measure at least the coarse volume (up to jitter).
    #[test]
    fn instrumented_counters_dominate_coarse(lu in arb_lu()) {
        let coarse = acquire(lu.sources(), Instrumentation::Coarse, CompilerOpt::O0, 1);
        for mode in [Instrumentation::Minimal, Instrumentation::legacy_default()] {
            let inst = acquire(lu.sources(), mode, CompilerOpt::O0, 1);
            let c: f64 = coarse.rank_counters.iter().sum();
            let i: f64 = inst.rank_counters.iter().sum();
            prop_assert!(i > c * 0.995, "{mode:?} measured less than coarse");
        }
    }

    /// The emulated time is invariant under re-runs (determinism) and
    /// strictly positive for any instance.
    #[test]
    fn emulation_determinism(lu in arb_lu()) {
        let tb = Testbed::graphene();
        let a = tb.run_lu(&lu, Instrumentation::None, CompilerOpt::O3).unwrap();
        let b = tb.run_lu(&lu, Instrumentation::None, CompilerOpt::O3).unwrap();
        prop_assert!(a.time > 0.0);
        prop_assert_eq!(a.time, b.time);
        prop_assert_eq!(a.rank_times, b.rank_times);
    }
}

/// `write_to` → streaming decode gives back every `compute` amount of
/// LU B-8 with the same bits: the decoder's fast path must round the
/// 17-digit mantissas exactly as `f64::from_str` does.
#[test]
fn lu_compute_amounts_survive_the_text_format_bit_for_bit() {
    let lu = LuConfig::new(LuClass::B, 8).with_steps(10);
    let trace = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace;
    let path = std::env::temp_dir().join(format!("titr-rt-bits-{}.trace", std::process::id()));
    let mut file = std::fs::File::create(&path).unwrap();
    write::write_to(&trace, &mut file).unwrap();
    drop(file);
    let back = stream::load_merged(&path, lu.procs).unwrap();
    std::fs::remove_file(&path).unwrap();
    let amounts = |t: &Trace| -> Vec<u64> {
        t.iter()
            .flat_map(|(_, actions)| actions)
            .filter_map(|a| match a {
                Action::Compute { amount } => Some(amount.to_bits()),
                _ => None,
            })
            .collect()
    };
    assert!(amounts(&trace).len() > 1000);
    assert_eq!(amounts(&back), amounts(&trace));
    assert_eq!(back, trace);
}
