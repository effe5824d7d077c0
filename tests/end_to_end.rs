//! End-to-end integration tests: full acquisition → calibration → replay
//! chains across crates, exercised through the public API only.

use std::sync::Arc;

use tit_replay::prelude::*;

fn small(class: LuClass, procs: u32) -> LuConfig {
    LuConfig::new(class, procs).with_steps(4)
}

#[test]
fn improved_pipeline_predicts_within_tolerance() {
    let testbed = Testbed::bordereau();
    let predictor = Predictor::new(&testbed, Pipeline::improved(), 1).unwrap();
    for (class, procs) in [(LuClass::S, 4), (LuClass::S, 16), (LuClass::W, 8)] {
        let p = predictor.predict(&small(class, procs), 2).unwrap();
        assert!(
            p.relative_error_percent().abs() < 20.0,
            "{}: {:+.1}%",
            p.instance,
            p.relative_error_percent()
        );
    }
}

#[test]
fn legacy_pipeline_runs_and_is_worse_at_scale() {
    let testbed = Testbed::bordereau();
    let legacy = Predictor::new(&testbed, Pipeline::legacy(), 1).unwrap();
    let improved = Predictor::new(&testbed, Pipeline::improved(), 1).unwrap();
    // At 16 ranks of a small class, the message flood dominates and the
    // legacy back-end overestimates clearly more.
    let inst = small(LuClass::S, 16);
    let l = legacy.predict(&inst, 3).unwrap();
    let i = improved.predict(&inst, 3).unwrap();
    assert!(
        l.relative_error_percent().abs() > i.relative_error_percent().abs(),
        "legacy {:+.1}% vs improved {:+.1}%",
        l.relative_error_percent(),
        i.relative_error_percent()
    );
}

#[test]
fn full_chain_is_deterministic() {
    let testbed = Testbed::graphene();
    let run = || {
        Predictor::new(&testbed, Pipeline::improved(), 9)
            .unwrap()
            .predict(&small(LuClass::S, 8), 4)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.real_seconds, b.real_seconds);
    assert_eq!(a.simulated_seconds, b.simulated_seconds);
}

#[test]
fn acquired_traces_are_structurally_valid_across_modes_and_sizes() {
    for procs in [4u32, 8, 32] {
        for mode in [Instrumentation::Minimal, Instrumentation::legacy_default()] {
            let lu = small(LuClass::S, procs);
            let acq = acquire(lu.sources(), mode, CompilerOpt::O3, 77);
            assert!(
                tit_replay::titrace::validate::validate(&acq.trace).is_empty(),
                "invalid trace for {} under {mode:?}",
                lu.label()
            );
        }
    }
}

#[test]
fn trace_file_roundtrip_preserves_replay_time() {
    // Serialize a trace to its text format, parse it back, and check the
    // replay outcome is bit-identical — the on-disk artifact carries
    // everything the simulator needs.
    let lu = small(LuClass::S, 8);
    let acq = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 5);
    let text = tit_replay::titrace::write::to_string(&acq.trace);
    let parsed = tit_replay::titrace::parse::parse_merged(&text, 8).unwrap();
    let platform = tit_replay::platform::clusters::graphene();
    let cfg = ReplayConfig::improved(2e9);
    let [a, b] = [acq.trace, parsed].map(|trace| {
        let input = TraceInput::Memory(Arc::new(trace));
        replay_input_observed(&platform, &input, 8, &cfg, false).unwrap()
    });
    assert_eq!(a.time(), b.time());
}

#[test]
fn per_rank_fragments_reassemble() {
    // Distributed acquisition: every rank writes its own fragment; the
    // merged trace replays identically.
    let lu = small(LuClass::S, 4);
    let acq = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 8);
    let dir = std::env::temp_dir().join(format!("titr-e2e-frag-{}", std::process::id()));
    let desc = tit_replay::titrace::files::write_split(&acq.trace, &dir, "lu").unwrap();
    let input = TraceInput::Description(desc);
    let reassembled = tit_replay::titrace::stream::load_trace(&input, 4).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(reassembled, acq.trace);
}

#[test]
fn calibration_rates_are_physical() {
    let testbed = Testbed::bordereau();
    let cal = calibrate(
        &testbed,
        CalibrationMethod::CacheAware,
        CompilerOpt::O3,
        &[LuClass::B, LuClass::C],
        Instrumentation::Coarse,
        3,
    )
    .unwrap();
    let base = tit_replay::platform::clusters::BORDEREAU_SPEED;
    assert!(cal.base_rate <= base * 1.02);
    assert!(cal.base_rate >= base * 0.5);
    for (class, rate) in &cal.class_rates {
        assert!(
            *rate <= cal.base_rate * 1.02,
            "{class} rate above cache-resident rate"
        );
        assert!(*rate >= base * 0.4);
    }
}

#[test]
fn platform_spec_json_drives_a_replay() {
    // The user-facing workflow: platform.json in, simulated time out.
    let json = r#"{
        "name": "from-json",
        "kind": { "Flat": {
            "nodes": 8, "host_speed": 2.0e9, "cores": 4, "cache_bytes": 2097152,
            "link_bandwidth": 1.25e8, "link_latency": 2e-5,
            "backbone_bandwidth": 1.25e9, "backbone_latency": 4e-6 } }
    }"#;
    let platform = PlatformSpec::from_json(json).unwrap().build();
    let lu = small(LuClass::S, 8);
    let trace = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace;
    let input = TraceInput::Memory(Arc::new(trace));
    let config = ReplayConfig::improved(2.0e9);
    let sim = replay_input_observed(&platform, &input, 8, &config, false).unwrap();
    assert!(sim.time() > 0.0);
}
