//! Cross-platform prediction: the framework's headline property.
//!
//! "This allows us to completely decouple the acquisition process from
//! the actual replay of the traces in a simulation context" — a trace
//! acquired on one cluster predicts execution on *another*. Here we
//! acquire LU B-32 once (conceptually on bordereau, but acquisition is
//! platform-free) and predict both clusters, comparing each prediction
//! with that cluster's emulated real time.
//!
//! Run with: `cargo run --release --example cross_platform_prediction`

use std::sync::Arc;

use tit_replay::prelude::*;

fn main() {
    let instance = LuConfig::new(LuClass::B, 32).with_steps(25);
    println!("instance: {}", instance.label());

    // One acquisition...
    let trace = acquire(
        instance.sources(),
        Instrumentation::Minimal,
        CompilerOpt::O3,
        11,
    )
    .trace;
    println!("acquired one trace: {} actions\n", trace.len());
    let input = TraceInput::Memory(Arc::new(trace));
    let predict = |platform: &Platform, config: &ReplayConfig| {
        replay_input_observed(platform, &input, instance.procs, config, false)
            .expect("replay failed")
    };

    // ...predicts any platform.
    for testbed in [Testbed::bordereau(), Testbed::graphene()] {
        let calibration = calibrate(
            &testbed,
            CalibrationMethod::CacheAware,
            CompilerOpt::O3,
            &[LuClass::B, LuClass::C],
            Instrumentation::Minimal,
            11,
        )
        .expect("calibration failed");
        let config = ReplayConfig::improved(calibration.rate_for(&instance));
        let sim = predict(&testbed.platform, &config);
        let real = testbed
            .run_lu(&instance, Instrumentation::None, CompilerOpt::O3)
            .expect("emulation failed");
        let err = (sim.time() - real.time()) / real.time() * 100.0;
        println!(
            "{:<12} predicted {:>7.3}s   real {:>7.3}s   error {:>+6.2}%",
            testbed.platform.name,
            sim.time(),
            real.time(),
            err
        );
        assert!(err.abs() < 20.0);
    }

    println!("\nThe same trace also answers what-if questions, e.g. a graphene");
    println!("with a 10x faster network:");
    let mut spec = tit_replay::platform::PlatformSpec {
        name: "graphene-10g".into(),
        kind: tit_replay::platform::spec::SpecKind::Cabinets {
            cabinets: 4,
            nodes_per_cabinet: 36,
            host_speed: tit_replay::platform::clusters::GRAPHENE_SPEED,
            cores: 4,
            cache_bytes: 4 << 20,
            link_bandwidth: 1.21e9, // 10x NIC
            link_latency: 5e-6,
            cabinet_bandwidth: 1.2e10,
            cabinet_latency: 2.5e-6,
            backbone_bandwidth: 2.4e10,
            backbone_latency: 2.5e-6,
        },
    };
    let fast = spec.build();
    let config = ReplayConfig::improved(tit_replay::platform::clusters::GRAPHENE_SPEED);
    let sim_fast = predict(&fast, &config);
    spec.name = "graphene-10g".into();
    println!("  predicted: {:.3}s", sim_fast.time());
}
