//! Quickstart: predict the execution time of an MPI application on a
//! cluster with the improved time-independent trace replay pipeline.
//!
//! The three framework steps are spelled out explicitly (acquire →
//! calibrate → replay); the [`tit_replay::Predictor`] wrapper does the
//! same in two calls.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;

use tit_replay::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // The application: NPB LU, class A on 8 processes (a short run).
    // ------------------------------------------------------------------
    let instance = LuConfig::new(LuClass::A, 8).with_steps(25);
    println!("instance: {} ({} steps)", instance.label(), instance.steps);

    // ------------------------------------------------------------------
    // The target platform: the emulated bordereau cluster. (In the
    // paper, this is the real machine; here the emulator stands in.)
    // ------------------------------------------------------------------
    let testbed = Testbed::bordereau();
    println!(
        "platform: {} ({} nodes)",
        testbed.platform.name,
        testbed.platform.host_count()
    );

    // ------------------------------------------------------------------
    // Step 1 — acquire a time-independent trace with the minimal
    // instrumentation on the -O3 build.
    // ------------------------------------------------------------------
    let acq = acquire(
        instance.sources(),
        Instrumentation::Minimal,
        CompilerOpt::O3,
        42,
    );
    let stats = titrace::TraceStats::of(&acq.trace);
    println!(
        "trace: {} actions, {} messages ({} eager), {:.2e} instructions/rank",
        acq.trace.len(),
        stats.total_messages(),
        stats.total().eager_sends,
        stats.mean_instructions_per_rank(),
    );
    // A snippet in the paper's own format:
    let mut text = Vec::new();
    titrace::write::write_rank_to(&acq.trace, Rank(0), &mut text).expect("write to memory");
    let text = String::from_utf8(text).expect("trace text is ASCII");
    println!("trace head (rank 0):");
    for line in text.lines().take(5) {
        println!("  {line}");
    }

    // ------------------------------------------------------------------
    // Step 2 — calibrate the platform's instruction rate (cache-aware).
    // ------------------------------------------------------------------
    let calibration = calibrate(
        &testbed,
        CalibrationMethod::CacheAware,
        CompilerOpt::O3,
        &[LuClass::B, LuClass::C],
        Instrumentation::Minimal,
        42,
    )
    .expect("calibration failed");
    println!(
        "calibration: A-4 rate {:.3e} instr/s, {} class rates",
        calibration.base_rate,
        calibration.class_rates.len()
    );

    // ------------------------------------------------------------------
    // Step 3 — replay the trace on the simulated platform.
    // ------------------------------------------------------------------
    let input = TraceInput::Memory(Arc::new(acq.trace));
    let config = ReplayConfig::improved(calibration.rate_for(&instance));
    let sim = replay_input_observed(&testbed.platform, &input, instance.procs, &config, false)
        .expect("replay failed");
    println!(
        "simulated time: {:.3}s ({} messages replayed)",
        sim.time(),
        sim.metrics.messages
    );

    // ------------------------------------------------------------------
    // Check against the emulated "real" execution.
    // ------------------------------------------------------------------
    let real = testbed
        .run_lu(&instance, Instrumentation::None, CompilerOpt::O3)
        .expect("emulation failed");
    let err = (sim.time() - real.time()) / real.time() * 100.0;
    println!("real time:      {:.3}s", real.time());
    println!("relative error: {err:+.2}%");
    assert!(err.abs() < 20.0, "prediction drifted: {err}%");
}
