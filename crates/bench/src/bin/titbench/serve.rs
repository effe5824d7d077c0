//! `serve.sweep`: a real `titserved` child, one closed-loop client.
//!
//! One sample starts a fresh server, asks K distinct platform
//! candidates (all misses: K replays), then repeats the same sweep
//! `MEMO_SWEEPS` times (all memo hits). The timed interval runs from
//! the first request sent to the last response received; server
//! start-up is set-up, not service time.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Stdio};
use std::time::Instant;

use serde::Value;
use titserved::client;

use crate::manifest::{self, Expected, Facts};
use crate::proc::{self, Bins, Exit};
use crate::spans::Recorder;
use crate::workloads::{self, Sample, Workload, RATE};

/// Distinct platform candidates per sweep.
pub const CANDIDATES: usize = 8;
/// Repeats of the sweep after the cold one; sized so the memoised half
/// takes about as long as the cold half.
pub const MEMO_SWEEPS: usize = 250;
/// Memo hits one sample must produce.
pub const MEMO_HITS: u64 = (CANDIDATES * MEMO_SWEEPS) as u64;

/// `json` with the number after `"key":` replaced by `value`; `None`
/// when the key is absent. Used to derive platform candidates from the
/// spec `titrace-gen` wrote without depending on its Rust type.
pub fn set_json_number(json: &str, key: &str, value: f64) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let start = rest.len() - rest.trim_start().len();
    let len = rest[start..]
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-')))
        .unwrap_or(rest.len() - start);
    (len > 0).then(|| format!("{}{}{}", &json[..at + start], value, &rest[start + len..]))
}

/// Candidate `index` of the sweep: the generated spec with its link
/// bandwidth redrawn from the seed within 50–200 % of the original.
/// Each candidate draws from its own eighth of that range, so the K
/// questions are always distinct (a repeat would be a memo hit where a
/// miss is expected); whole bytes/s so the text round-trips exactly.
fn candidate_spec(base: &str, seed: u64, index: usize) -> Result<String, String> {
    let v = manifest::parse(base)?;
    let original =
        find_number(&v, "link_bandwidth").ok_or("generated platform spec has no link_bandwidth")?;
    let draw = (workloads::splitmix(seed, 100 + index as u64) % 1_000_000) as f64 / 1e6;
    let share = (index as f64 + draw) / CANDIDATES as f64;
    let scaled = (original * (0.5 + 1.5 * share)).round();
    set_json_number(base, "link_bandwidth", scaled)
        .ok_or_else(|| "cannot rewrite link_bandwidth in the platform spec".to_string())
}

fn find_number(v: &Value, key: &str) -> Option<f64> {
    match v {
        Value::Object(pairs) => pairs.iter().find_map(|(k, v)| {
            if k == key {
                v.as_f64()
            } else {
                find_number(v, key)
            }
        }),
        _ => None,
    }
}

/// A running `titserved serve` child.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    /// Spawns `titserved serve --port 0 --workers 2` and waits for its
    /// `listening http://ADDR` line.
    pub fn start(bins: &Bins) -> Result<Server, String> {
        let mut cmd = proc::command(&bins.titserved);
        cmd.args(["serve", "--port", "0", "--workers", "2"])
            .stdout(Stdio::piped());
        let mut child = cmd.spawn().map_err(|e| format!("{cmd:?}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening http://")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server { child, addr }),
            (read, _) => {
                let _ = child.kill();
                let _ = proc::reap(child);
                Err(format!(
                    "titserved did not announce its address ({read:?}, '{line}')"
                ))
            }
        }
    }

    /// `GET /stats` as JSON.
    pub fn stats(&self) -> Result<Value, String> {
        let resp = client::get(&self.addr, "/stats").map_err(|e| format!("GET /stats: {e}"))?;
        manifest::parse(&String::from_utf8_lossy(&resp.body))
    }

    /// `POST /shutdown`, then reaps the child (killing it if the request
    /// could not be delivered, so no process outlives the benchmark).
    pub fn stop(mut self) -> Result<Exit, String> {
        if client::post(&self.addr, "/shutdown", "").is_err() {
            let _ = self.child.kill();
        }
        proc::reap(self.child).map_err(|e| format!("cannot reap titserved: {e}"))
    }
}

/// Per-request latencies of one traced sweep, in milliseconds.
#[derive(Debug, Default)]
pub struct Latencies {
    pub cold_ms: Vec<f64>,
    pub memo_ms: Vec<f64>,
}

/// What `/stats` said after a sweep.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerCounts {
    pub executions: u64,
    pub memo_hits: u64,
    pub memo_bytes: u64,
}

/// The serve workload with its trace on disk, its K questions written,
/// and the CLI's answer to each taken as the reference.
pub struct ServeRun<'a> {
    pub workload: &'static Workload,
    pub bins: &'a Bins,
    /// Request body per candidate.
    pub queries: Vec<String>,
    /// `titreplay --manifest` output per candidate.
    references: Vec<Value>,
    pub reference_facts: Vec<Facts>,
    /// The references disagree with `expected.json`: reported with every
    /// sample, since every answer is then wrong.
    golden_error: Option<String>,
}

impl<'a> ServeRun<'a> {
    pub fn prepare(
        workload: &'static Workload,
        bins: &'a Bins,
        dir: &Path,
        seed: u64,
        expected: Option<&Expected>,
    ) -> Result<ServeRun<'a>, String> {
        let base = std::fs::read_to_string(workload.platform_path(dir))
            .map_err(|e| format!("cannot read the generated platform spec: {e}"))?;
        let trace = workload.trace_path(dir);
        let mut run = ServeRun {
            workload,
            bins,
            queries: Vec::new(),
            references: Vec::new(),
            reference_facts: Vec::new(),
            golden_error: None,
        };
        for i in 0..CANDIDATES {
            let spec = candidate_spec(&base, seed, i)?;
            let spec_path: PathBuf = dir.join(format!("candidate-{i}.platform.json"));
            std::fs::write(&spec_path, &spec)
                .map_err(|e| format!("cannot write {}: {e}", spec_path.display()))?;
            // The same question through the CLI: same trace path string
            // (it is part of the manifest's trace signature), same rate.
            let out = dir.join(format!("candidate-{i}.manifest.json"));
            let mut cmd = workload.replay_command_on(bins, dir, &spec_path, &out);
            proc::run_ok(&mut cmd)?;
            let reference = workloads::read_manifest(&out)?;
            run.reference_facts.push(Facts::of(&reference)?);
            run.references.push(reference);
            run.queries.push(format!(
                "{{\"trace\": {}, \"ranks\": {}, \"platform\": {}, \"config\": {{\"rate\": {RATE}}}}}",
                manifest::json_string(&trace.display().to_string()),
                workload.ranks,
                spec.trim_end(),
            ));
        }
        run.golden_error =
            workloads::check_goldens(expected, workload.name, &run.reference_facts).err();
        Ok(run)
    }

    /// One request; checks status, cache disposition and body.
    fn ask(&self, addr: &str, index: usize, want: &str, s: &mut Sample) {
        s.attempted += 1;
        let resp = match client::predict(addr, &self.queries[index]) {
            Ok(resp) => resp,
            Err(e) => return s.fail(format!("candidate {index}: request failed: {e}")),
        };
        if resp.status != 200 {
            return s.fail(format!("candidate {index}: HTTP {}", resp.status));
        }
        let got = resp.headers.get("x-titserved-cache").map(String::as_str);
        if got != Some(want) {
            return s.fail(format!("candidate {index}: cache {got:?}, wanted {want}"));
        }
        let checked = manifest::parse(&String::from_utf8_lossy(&resp.body)).and_then(|body| {
            manifest::same_modulo(&body, &self.references[index], manifest::DROP_WALL)
                .map_err(|d| format!("body differs from titreplay --manifest at {d}"))
        });
        if let Err(e) = checked {
            s.fail(format!("candidate {index}: {e}"));
        }
    }

    /// The timed request stream against a running server. With a
    /// recorder every request is a span and its latency is kept; the
    /// untraced path reads the clock twice in total.
    pub fn sweep(
        &self,
        addr: &str,
        s: &mut Sample,
        mut traced: Option<(&mut Recorder, &mut Latencies)>,
    ) {
        let started = Instant::now();
        for round in 0..=MEMO_SWEEPS {
            let (want, span) = if round == 0 {
                ("miss", "titserved.cold_query")
            } else {
                ("hit", "titserved.memo_query")
            };
            for index in 0..CANDIDATES {
                match traced.as_mut() {
                    None => self.ask(addr, index, want, s),
                    Some((rec, lat)) => {
                        let open = rec.enter(span);
                        self.ask(addr, index, want, s);
                        let ms = rec.exit(open) * 1e3;
                        if round == 0 {
                            lat.cold_ms.push(ms);
                        } else {
                            lat.memo_ms.push(ms);
                        }
                    }
                }
            }
        }
        s.wall_s = started.elapsed().as_secs_f64();
    }

    /// Reads `/stats` and checks the sweep ran K replays and hit the
    /// memo for everything else.
    pub fn counts(&self, server: &Server, s: &mut Sample) -> ServerCounts {
        let count = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).map(|n| n as u64);
        let counts = server.stats().and_then(|v| {
            Ok(ServerCounts {
                executions: count(&v, "executions").ok_or("/stats has no executions")?,
                memo_hits: count(&v, "cache_hits").ok_or("/stats has no cache_hits")?,
                memo_bytes: count(&v, "memo_bytes").ok_or("/stats has no memo_bytes")?,
            })
        });
        match counts {
            Ok(c) if c.executions == CANDIDATES as u64 && c.memo_hits == MEMO_HITS => c,
            Ok(c) => {
                s.errors.push(format!(
                    "server ran {} replays and {} memo hits, wanted {CANDIDATES} and {MEMO_HITS}",
                    c.executions, c.memo_hits
                ));
                c
            }
            Err(e) => {
                s.errors.push(e);
                ServerCounts::default()
            }
        }
    }

    /// One untraced sample: fresh server, the sweep, shutdown. Peak RSS
    /// is the server's.
    pub fn sample(&mut self) -> Sample {
        let mut s = Sample::default();
        let server = match Server::start(self.bins) {
            Ok(server) => server,
            Err(e) => {
                s.attempted = 1;
                s.fail(e);
                return s;
            }
        };
        self.sweep(&server.addr, &mut s, None);
        self.counts(&server, &mut s);
        match server.stop() {
            Ok(exit) if exit.success => s.peak_rss_mib = exit.peak_rss_mib,
            Ok(_) => s.errors.push("titserved exited with failure".into()),
            Err(e) => s.errors.push(e),
        }
        s.facts = self.reference_facts.clone();
        s.errors.extend(self.golden_error.clone());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_json_number_replaces_only_that_value() {
        let json = "{\n  \"link_bandwidth\": 121000000,\n  \"link_latency\": 1.2e-5\n}";
        assert_eq!(
            set_json_number(json, "link_bandwidth", 5e8).unwrap(),
            "{\n  \"link_bandwidth\": 500000000,\n  \"link_latency\": 1.2e-5\n}"
        );
        assert_eq!(
            set_json_number(json, "link_latency", 0.5).unwrap(),
            "{\n  \"link_bandwidth\": 121000000,\n  \"link_latency\": 0.5\n}"
        );
        assert_eq!(set_json_number(json, "missing", 1.0), None);
        assert_eq!(set_json_number("{\"k\": \"text\"}", "k", 1.0), None);
    }

    #[test]
    fn candidates_depend_on_seed_and_index_only() {
        let base = "{\"kind\": {\"Flat\": {\"link_bandwidth\": 121000000, \"x\": 1}}}";
        let a = candidate_spec(base, 1, 0).unwrap();
        assert_eq!(a, candidate_spec(base, 1, 0).unwrap());
        assert_ne!(a, candidate_spec(base, 1, 1).unwrap());
        assert_ne!(a, candidate_spec(base, 2, 0).unwrap());
        let bw = find_number(&manifest::parse(&a).unwrap(), "link_bandwidth").unwrap();
        assert!((0.5 * 121e6..=2.0 * 121e6).contains(&bw) && bw.fract() == 0.0);
        assert!(candidate_spec("{}", 1, 0).is_err());
    }
}
