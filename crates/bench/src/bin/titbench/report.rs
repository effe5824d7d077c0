//! What the benchmark prints and writes: the two tables, the harness
//! line, `results.json`, `expected.json`, and the A/A comparison.

use std::path::Path;

use crate::manifest::json_string;
use crate::traced::PER_LAYER;
use crate::{Outcome, Session, END_TO_END, EXACT_COUNTS, RAW_WALL};

/// A finite JSON number with all its digits.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// `"name": {"value": v, "unit": "unit"}`, the shape the harness reads.
fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
        num(value)
    )
}

const PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

/// The harness line: the last line of stdout in single-workload mode.
pub fn contract_json(out: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = if trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| metric_json(name, out.layer(name), unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit, _)| {
                let median = out.end_to_end(name).map_or(0.0, |s| s.median);
                metric_json(name, median, unit)
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn git_commit(root: &Path) -> String {
    // Never look above the checkout: it may sit inside another repository.
    let ceiling = root.parent().unwrap_or(root);
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--short", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Online CPUs as the kernel lists them (`host_parallelism` is what this
/// process may actually use of them).
fn nproc(fallback: usize) -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or(fallback)
}

pub fn print_host(session: &Session) {
    println!(
        "titbench: host_parallelism {} nproc {} profile {} commit {} seed {}{}",
        session.host_parallelism,
        nproc(session.host_parallelism),
        PROFILE,
        git_commit(&session.root),
        session.seed,
        if session.expected.is_some() {
            ""
        } else {
            " (goldens skipped; cross-path identities only)"
        }
    );
}

pub fn print_end_to_end(outcomes: &[Outcome], session: &Session) {
    println!(
        "\nend-to-end (shipped binaries, tracing off; n timed samples after 1 warm-up; times \
         scaled to reference host speed, e2e_wall_raw_s as the clock read them)"
    );
    println!(
        "{:<16} {:<12} {:>5} {:>4} {:>10} {:>10} {:>10} {:>10}  ops_attempted/ops_failed",
        "workload", "metric", "unit", "n", "min", "q1", "median", "q3"
    );
    for out in outcomes {
        let rows = END_TO_END
            .iter()
            .map(|(m, u, _)| (*m, *u))
            .chain([(RAW_WALL, "s")]);
        for (metric, unit) in rows {
            let Some(s) = out.end_to_end(metric) else {
                println!(
                    "{:<16} {:<12} no successful sample",
                    out.workload.name, metric
                );
                continue;
            };
            println!(
                "{:<16} {:<12} {:>5} {:>4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}  {}/{}",
                out.workload.name,
                metric,
                unit,
                s.n,
                s.min,
                s.q1,
                s.median,
                s.q3,
                out.attempted,
                out.failed
            );
        }
        if out
            .workload
            .threads
            .is_some_and(|t| t > session.host_parallelism)
        {
            println!(
                "{:<16} unresolved: asks for {} threads on host_parallelism {}",
                out.workload.name,
                out.workload.threads.unwrap_or(1),
                session.host_parallelism
            );
        }
    }
    print_rss_floor(outcomes);
}

/// Says so when a workload's `peak_rss_mb` is no more than this
/// process's own peak while it sampled: the number is then titbench's
/// size, not the child's, and cannot show a change.
fn print_rss_floor(outcomes: &[Outcome]) {
    for out in outcomes {
        if let Some(rss) = out.end_to_end("peak_rss_mb") {
            if rss.median <= out.rss_floor_mib {
                println!(
                    "{:<16} peak_rss_mb unresolved: at the {:.1} MiB floor set by titbench's own size",
                    out.workload.name, out.rss_floor_mib
                );
            }
        }
    }
}

pub fn print_per_layer(outcomes: &[Outcome]) {
    println!("\nper-layer (one traced run per workload; *est_s are computed, not measured; 0 = not exercised)");
    print!("{:<28} {:>6}", "metric", "unit");
    for out in outcomes {
        print!(" {:>15}", out.workload.name);
    }
    println!();
    for (name, unit) in PER_LAYER {
        print!("{name:<28} {unit:>6}");
        for out in outcomes {
            let v = out.layer(name);
            if v != 0.0 && v.abs() < 1e4 && v.fract() != 0.0 {
                print!(" {v:>15.6}");
            } else {
                print!(" {v:>15.0}");
            }
        }
        println!();
    }
    for out in outcomes {
        for note in out.traced.iter().flat_map(|t| &t.notes) {
            println!("note: {note}");
        }
    }
}

pub fn print_errors(outcomes: &[Outcome]) -> bool {
    let mut any = false;
    for out in outcomes {
        let traced_errors = out.traced.iter().flat_map(|t| &t.errors);
        let mut seen: Vec<&String> = Vec::new();
        for e in out.errors.iter().chain(traced_errors) {
            // A broken check fails every sample the same way; say it once.
            if !seen.contains(&e) {
                println!("FAILED {}: {e}", out.workload.name);
                seen.push(e);
            }
            any = true;
        }
    }
    if !any {
        println!("\nevery output check passed; ops_failed 0");
    }
    any
}

fn results_json(outcomes: &[Outcome], session: &Session) -> String {
    let mut rows = Vec::new();
    for out in outcomes {
        let e2e: Vec<String> = END_TO_END
            .iter()
            .map(|(name, unit, bound)| (*name, *unit, Some(*bound)))
            .chain([(RAW_WALL, "s", None)])
            .filter_map(|(name, unit, bound)| {
                let s = out.end_to_end(name)?;
                let bound = bound.map_or(String::new(), |b| format!("\"bound\": {b}, "));
                Some(format!(
                    "\"{name}\": {{\"unit\": \"{unit}\", {bound}\"n\": {}, \"min\": {}, \
                     \"q1\": {}, \"median\": {}, \"q3\": {}}}",
                    s.n,
                    num(s.min),
                    num(s.q1),
                    num(s.median),
                    num(s.q3)
                ))
            })
            .collect();
        let layers: Vec<String> = PER_LAYER
            .iter()
            .map(|(name, unit)| metric_json(name, out.layer(name), unit))
            .collect();
        let notes: Vec<String> = out
            .traced
            .iter()
            .flat_map(|t| &t.notes)
            .chain(&out.errors)
            .map(|n| json_string(n))
            .collect();
        rows.push(format!(
            "    {}: {{\n      \"correct\": {}, \"ops_attempted\": {}, \"ops_failed\": {},\n      \
             \"end_to_end\": {{{}}},\n      \"per_layer\": {{{}}},\n      \"notes\": [{}]\n    }}",
            json_string(out.workload.name),
            out.correct(),
            out.attempted,
            out.failed,
            e2e.join(", "),
            layers.join(", "),
            notes.join(", ")
        ));
    }
    format!(
        "{{\n  \"host_parallelism\": {},\n  \"nproc\": {},\n  \"profile\": \"{}\",\n  \
         \"git_commit\": {},\n  \"seed\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        session.host_parallelism,
        nproc(session.host_parallelism),
        PROFILE,
        json_string(&git_commit(&session.root)),
        session.seed,
        rows.join(",\n")
    )
}

pub fn expected_json(outcomes: &[Outcome], seed: u64) -> String {
    let rows: Vec<String> = outcomes
        .iter()
        .map(|out| {
            let goldens: Vec<String> = out.facts.iter().map(|f| f.golden().to_json()).collect();
            format!(
                "    {}: [\n      {}\n    ]",
                json_string(out.workload.name),
                goldens.join(",\n      ")
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {seed},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        rows.join(",\n")
    )
}

/// Full report of one set; returns whether anything failed.
pub fn report(outcomes: &[Outcome], session: &Session) -> bool {
    print_end_to_end(outcomes, session);
    print_per_layer(outcomes);
    let failed = print_errors(outcomes);
    let path = session.out.join("results.json");
    match std::fs::write(&path, results_json(outcomes, session)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => println!("cannot write {}: {e}", path.display()),
    }
    failed
}

/// A/A comparison of two sets of one commit: every end-to-end median
/// must agree within its bound, every exact count exactly.
pub fn compare_aa(a: &[Outcome], b: &[Outcome]) -> bool {
    println!("\nA/A: relative difference of the medians (second set vs first) beside the bound");
    let mut agree = true;
    for (out_a, out_b) in a.iter().zip(b) {
        assert_eq!(out_a.workload.name, out_b.workload.name);
        for (metric, _, bound) in END_TO_END {
            let (Some(sa), Some(sb)) = (out_a.end_to_end(metric), out_b.end_to_end(metric)) else {
                println!("{:<16} {:<12} missing", out_a.workload.name, metric);
                agree = false;
                continue;
            };
            let diff = (sb.median - sa.median) / sa.median;
            let ok = diff.abs() <= *bound;
            agree &= ok;
            println!(
                "{:<16} {:<12} {:>+8.2} %  bound {:>4.0} %  {}",
                out_a.workload.name,
                metric,
                diff * 100.0,
                bound * 100.0,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
        for count in EXACT_COUNTS {
            if out_a.layer(count) != out_b.layer(count) {
                println!(
                    "{:<16} {:<22} {} vs {}  DISAGREE (must repeat exactly)",
                    out_a.workload.name,
                    count,
                    out_a.layer(count),
                    out_b.layer(count)
                );
                agree = false;
            }
        }
    }
    println!(
        "{}",
        if agree {
            "A/A: both sets agree within the bounds; exact counts repeat"
        } else {
            "A/A: the two sets DISAGREE"
        }
    );
    agree
}
