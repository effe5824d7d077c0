//! Rendering execution timelines (Gantt charts) of a simulated run —
//! the kind of visual comparison the paper's companion evaluation used
//! to contrast real and simulated executions.
//!
//! Shows LU's pipelined wavefront structure: staircase compute/wait
//! patterns across the process grid.
//!
//! Run with: `cargo run --release --example gantt`

use tit_replay::acquisition::{CompilerOpt, Instrumentation, InstrumentedHooks};
use tit_replay::prelude::*;
use tit_replay::smpi::{run_smpi, SegmentKind, SmpiConfig, Timeline};

fn main() {
    let lu = LuConfig::new(LuClass::S, 8).with_steps(2);
    let testbed = Testbed::bordereau();
    let hosts = testbed.hosts(8).expect("placement");
    let hooks = InstrumentedHooks::new(
        &testbed.platform,
        &hosts,
        Instrumentation::None,
        CompilerOpt::O3,
    );
    let (result, obs) = run_smpi(
        &testbed.platform,
        &hosts,
        lu.sources(),
        SmpiConfig::ground_truth(),
        Box::new(hooks),
        true,
    )
    .expect("run failed");
    let timeline = Timeline::from_spans(&obs.spans.expect("spans recorded"));

    println!(
        "LU {} on {}: {:.4}s  (# = compute, . = wait, o = overhead)\n",
        lu.label(),
        testbed.platform.name,
        result.total_time
    );
    print!("{}", timeline.render(100, result.total_time));

    println!("\nper-rank breakdown:");
    println!(
        "{:<6}{:>12}{:>12}{:>12}{:>10}",
        "rank", "compute(s)", "wait(s)", "overhead(s)", "wait %"
    );
    for r in 0..8 {
        let c = timeline.total(r, SegmentKind::Compute);
        let w = timeline.total(r, SegmentKind::Wait);
        let o = timeline.total(r, SegmentKind::Overhead);
        println!(
            "p{r:<5}{c:>12.4}{w:>12.4}{o:>12.4}{:>9.1}%",
            w / (c + w + o) * 100.0
        );
    }
}
