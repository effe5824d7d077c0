//! End-to-end checks of the observability surface: the `titreplay`
//! CLI's export flags, the `inspect` mode, and the prelude-level
//! observed-replay API.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use tit_replay::prelude::*;

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("titr-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes an LU S-8 trace (text) plus a platform spec, returning their
/// paths.
fn stage_inputs(dir: &std::path::Path) -> (PathBuf, PathBuf) {
    let lu = LuConfig::new(LuClass::S, 8).with_steps(3);
    let acq = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1);
    let trace_path = dir.join("lu.trace");
    tit_replay::titrace::files::write_merged(&acq.trace, &trace_path).unwrap();
    let spec = tit_replay::platform::PlatformSpec {
        name: "bordereau".into(),
        kind: tit_replay::platform::spec::SpecKind::Flat {
            nodes: 93,
            host_speed: tit_replay::platform::clusters::BORDEREAU_SPEED,
            cores: 4,
            cache_bytes: 1 << 20,
            link_bandwidth: 1.21e8,
            link_latency: 12e-6,
            backbone_bandwidth: 1.2e9,
            backbone_latency: 4e-6,
        },
    };
    let spec_path = dir.join("platform.json");
    std::fs::write(&spec_path, spec.to_json()).unwrap();
    (trace_path, spec_path)
}

fn titreplay() -> Command {
    Command::new(env!("CARGO_BIN_EXE_titreplay"))
}

fn stdout_field(stdout: &str, key: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key} ")))
        .unwrap_or_else(|| panic!("missing '{key}' in output:\n{stdout}"))
        .to_string()
}

#[test]
fn cli_replay_emits_observability_artifacts() {
    let dir = workdir("cli");
    let (trace, plat) = stage_inputs(&dir);
    let trace_out = dir.join("chrome.json");
    let csv_out = dir.join("states.csv");
    let metrics_out = dir.join("metrics.json");
    let manifest_out = dir.join("manifest.json");
    let cp_out = dir.join("critical_path.json");
    let output = titreplay()
        .args([
            "replay",
            "--platform",
            plat.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            "--ranks",
            "8",
            "--rate",
            "2e9",
            "--engine",
            "smpi",
            "--no-cache",
            "--trace-out",
            trace_out.to_str().unwrap(),
            "--state-csv",
            csv_out.to_str().unwrap(),
            "--metrics",
            metrics_out.to_str().unwrap(),
            "--manifest",
            manifest_out.to_str().unwrap(),
            "--critical-path",
            cp_out.to_str().unwrap(),
        ])
        .output()
        .expect("titreplay failed to launch");
    assert!(
        output.status.success(),
        "titreplay failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    // The critical path must end exactly at the reported simulated time
    // (same formatting, same value to the printed precision).
    let sim = stdout_field(&stdout, "simulated_time_s");
    let cp = stdout_field(&stdout, "critical_path_end_s");
    assert_eq!(sim, cp, "critical path end differs from simulated time");

    let chrome = std::fs::read_to_string(&trace_out).unwrap();
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("\"ph\":\"X\""));
    assert!(chrome.contains("compute"));
    let csv = std::fs::read_to_string(&csv_out).unwrap();
    assert!(csv.starts_with("rank,start_s,end_s,state,peer,bytes"));
    assert!(csv.lines().count() > 8);
    let metrics = std::fs::read_to_string(&metrics_out).unwrap();
    assert!(metrics.contains("\"engine\": \"smpi\""));
    assert!(metrics.contains("\"network\""));
    // The shipped binary carries real counts, not a "compiled out" marker.
    for gone in ["\"enabled\"", "\"tracked\"", "compiled out"] {
        assert!(!metrics.contains(gone), "{gone} in --metrics:\n{metrics}");
    }
    let json: serde::Value = serde_json::from_str(&metrics).unwrap();
    let count = |object: &str, key: &str| {
        let v = json.get(object).and_then(|o| o.get(key));
        v.and_then(serde::Value::as_f64)
            .unwrap_or_else(|| panic!("no count {object}.{key} in --metrics:\n{metrics}"))
    };
    let events = count("kernel", "events_processed");
    assert!(events > 0.0);
    assert!(count("fel_profile", "scheduled") >= events);
    // The kernel counts every pop as an event, stale skips included.
    assert_eq!(count("fel_profile", "popped"), events);
    assert!(count("fel_profile", "fired") <= events);
    assert!(count("match_queues", "max_posted_depth") >= 1.0);
    let manifest = std::fs::read_to_string(&manifest_out).unwrap();
    assert!(manifest.contains("\"trace_signature\""));
    assert!(manifest.contains("\"wall_time_s\""));
    assert!(manifest.contains("\"metrics\": {"));
    let cp_json = std::fs::read_to_string(&cp_out).unwrap();
    assert!(cp_json.contains("\"end_s\""));
    assert!(cp_json.contains("\"steps\""));
    assert!(cp_json.contains("\"breakdown\""));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_trace_export_is_stable_across_runs() {
    let dir = workdir("stable");
    let (trace, plat) = stage_inputs(&dir);
    let mut exports = Vec::new();
    for i in 0..2 {
        let out = dir.join(format!("chrome{i}.json"));
        let status = titreplay()
            .args([
                "--platform",
                plat.to_str().unwrap(),
                "--trace",
                trace.to_str().unwrap(),
                "--ranks",
                "8",
                "--rate",
                "2e9",
                "--no-cache",
                "--trace-out",
                out.to_str().unwrap(),
            ])
            .output()
            .expect("titreplay failed to launch");
        assert!(status.status.success());
        exports.push(std::fs::read(&out).unwrap());
    }
    assert_eq!(exports[0], exports[1], "chrome trace differs across runs");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_inspect_summarises_without_replaying() {
    let dir = workdir("inspect");
    let (trace, _plat) = stage_inputs(&dir);
    let output = titreplay()
        .args([
            "inspect",
            "--trace",
            trace.to_str().unwrap(),
            "--ranks",
            "8",
        ])
        .output()
        .expect("titreplay failed to launch");
    assert!(
        output.status.success(),
        "inspect failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert_eq!(stdout_field(&stdout, "ranks"), "8");
    assert!(stdout_field(&stdout, "actions").parse::<u64>().unwrap() > 100);
    assert!(stdout_field(&stdout, "sends").parse::<u64>().unwrap() > 0);
    assert!(
        stdout_field(&stdout, "payload_bytes")
            .parse::<u64>()
            .unwrap()
            > 0
    );
    assert_eq!(stdout_field(&stdout, "validation_issues"), "0");
    assert!(stdout_field(&stdout, "trace_signature").starts_with("text:"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn prelude_exposes_observed_replay() {
    let lu = LuConfig::new(LuClass::S, 4).with_steps(3);
    let trace = Arc::new(acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace);
    let p = tit_replay::platform::clusters::bordereau();
    let cfg = ReplayConfig::improved(2e9);
    let report: ReplayReport = replay_observed(&p, &trace, &cfg, true).unwrap();
    assert_eq!(report.metrics.engine, "smpi");
    let path: CriticalPath = report.critical_path().unwrap();
    assert_eq!(path.end_s.to_bits(), report.result.time.to_bits());
    let log = report.spans.as_ref().unwrap();
    assert!(!chrome_trace(log).is_empty());
    assert!(state_csv(log).lines().count() > 1);
    assert!(report.metrics.to_json().contains("\"simulated_time_s\""));
}
