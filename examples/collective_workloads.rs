//! Beyond LU: the replay framework on collective-dominated (CG-like) and
//! bulk-synchronous (stencil) workloads, and the contrast between the
//! legacy MSG back-end and the improved SMPI back-end on each.
//!
//! LU's failure mode (per-message error accumulating over a wavefront of
//! small messages) is specific to pipelined point-to-point codes; this
//! example shows how the two back-ends compare on workloads with other
//! communication signatures.
//!
//! Run with: `cargo run --release --example collective_workloads`

use std::sync::Arc;

use tit_replay::prelude::*;
use tit_replay::workloads::{cg::CgConfig, ft::FtConfig, stencil::StencilConfig};

fn main() {
    let testbed = Testbed::graphene();
    let rate = tit_replay::platform::clusters::GRAPHENE_SPEED;

    // ------------------------------------------------------------------
    // A CG-like solver: two tiny allreduces per iteration.
    // ------------------------------------------------------------------
    let cg = CgConfig {
        procs: 32,
        rows: 600_000,
        nnz_per_row: 27,
        iterations: 400,
    };
    println!("== CG-like (32 ranks, {} iterations) ==", cg.iterations);
    report(&testbed, cg.sources(), cg.sources(), rate);

    // ------------------------------------------------------------------
    // An FT-like 3D FFT: alltoall transposes of rendezvous-sized blocks.
    // ------------------------------------------------------------------
    let ft = FtConfig {
        procs: 16,
        n: 128,
        iterations: 12,
    };
    println!(
        "\n== FT-like (16 ranks, {} iterations, {} KiB per alltoall pair) ==",
        ft.iterations,
        ft.alltoall_bytes() / 1024
    );
    report(&testbed, ft.sources(), ft.sources(), rate);

    // ------------------------------------------------------------------
    // A 2D Jacobi stencil: bulk-synchronous halo exchange.
    // ------------------------------------------------------------------
    let st = StencilConfig {
        px: 8,
        py: 4,
        n: 4096,
        iterations: 300,
        check_every: 10,
    };
    println!("\n== stencil (8x4 ranks, {} iterations) ==", st.iterations);
    report(&testbed, st.sources(), st.sources(), rate);
}

/// Emulates the workload as ground truth, acquires a trace, replays with
/// both engines and prints the comparison.
fn report(
    testbed: &Testbed,
    truth_sources: Vec<Box<dyn tit_replay::workloads::OpSource>>,
    trace_sources: Vec<Box<dyn tit_replay::workloads::OpSource>>,
    rate: f64,
) {
    let real = testbed
        .run(truth_sources, Instrumentation::None, CompilerOpt::O3)
        .expect("emulation failed");
    let trace = acquire(trace_sources, Instrumentation::Minimal, CompilerOpt::O3, 5).trace;
    let ranks = trace.ranks();
    let input = TraceInput::Memory(Arc::new(trace));
    for (name, config) in [
        ("legacy/MSG", ReplayConfig::legacy(rate)),
        ("improved/SMPI", ReplayConfig::improved(rate)),
    ] {
        let sim = replay_input_observed(&testbed.platform, &input, ranks, &config, false)
            .expect("replay failed")
            .result;
        let err = (sim.time - real.time) / real.time * 100.0;
        println!(
            "  {name:<14} simulated {:>8.3}s   real {:>8.3}s   error {err:>+7.2}%",
            sim.time, real.time
        );
    }
}
