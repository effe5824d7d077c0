//! Capacity planning: the paper's motivating use case — "when a platform
//! is yet to be specified and purchased, simulations can be used to
//! determine a cost-effective hardware configuration appropriate for the
//! expected application workload."
//!
//! One trace of LU C-64 is acquired once, then replayed on a family of
//! *hypothetical* clusters (varying NIC bandwidth and CPU speed) to find
//! the cheapest configuration that meets a target execution time. No
//! re-acquisition is needed: the trace is time-independent.
//!
//! Run with: `cargo run --release --example capacity_planning`

use std::sync::Arc;

use tit_replay::platform::spec::{PlatformSpec, SpecKind};
use tit_replay::prelude::*;

fn main() {
    let instance = LuConfig::new(LuClass::C, 64).with_steps(20);
    println!("workload: {} ({} steps)", instance.label(), instance.steps);

    // Acquire once, from anywhere (acquisition is platform-independent).
    let trace = acquire(
        instance.sources(),
        Instrumentation::Minimal,
        CompilerOpt::O3,
        7,
    )
    .trace;
    let input = TraceInput::Memory(Arc::new(trace));

    // Candidate configurations: cpu speed (instr/s) × NIC bandwidth, with
    // a toy price model.
    let cpu_options = [(2.0e9, 1000.0), (3.0e9, 1400.0), (4.0e9, 1900.0)];
    let nic_options = [(1.25e8, 50.0), (2.5e8, 120.0), (1.25e9, 400.0)];
    let target_seconds = 2.3;

    println!(
        "\n{:<26}{:>12}{:>14}{:>12}",
        "configuration", "price/node", "predicted(s)", "meets it?"
    );
    let mut best: Option<(f64, String, f64)> = None;
    for (cpu, cpu_price) in cpu_options {
        for (nic, nic_price) in nic_options {
            let spec = PlatformSpec {
                name: format!("candidate-{:.0}GHz-{:.0}MBps", cpu / 1e9, nic / 1e6),
                kind: SpecKind::Flat {
                    nodes: 64,
                    host_speed: cpu,
                    cores: 4,
                    cache_bytes: 2 << 20,
                    link_bandwidth: nic,
                    link_latency: 15e-6,
                    backbone_bandwidth: 10.0 * nic,
                    backbone_latency: 4e-6,
                },
            };
            let platform = spec.build();
            // The candidate is hypothetical: no calibration run is
            // possible, so the quoted CPU speed is used as the rate (a
            // what-if study, exactly how the paper frames this use).
            let config = ReplayConfig::improved(cpu);
            let sim = replay_input_observed(&platform, &input, instance.procs, &config, false)
                .expect("replay failed");
            let price = 64.0 * (cpu_price + nic_price);
            let ok = sim.time() <= target_seconds;
            println!(
                "{:<26}{:>12.0}{:>14.3}{:>12}",
                spec.name,
                price,
                sim.time(),
                if ok { "yes" } else { "no" }
            );
            if ok && best.as_ref().is_none_or(|(p, _, _)| price < *p) {
                best = Some((price, spec.name.clone(), sim.time()));
            }
        }
    }
    match best {
        Some((price, name, t)) => {
            println!(
                "\ncheapest configuration meeting the target: {name} ({price:.0} units, {t:.3}s)"
            );
        }
        None => println!("\nno candidate meets the {target_seconds}s target"),
    }
}
