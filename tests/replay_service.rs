//! End-to-end tests for `titserved`: the service must answer a what-if
//! query with exactly the bytes a direct `titreplay --manifest` run
//! produces (modulo the wall-time line), deduplicate concurrent
//! identical queries into one execution, and serve memoized repeats
//! byte-identically without replaying.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use tit_replay::prelude::*;
use tit_replay::replay;
use tit_replay::titrace::{files, TraceInput};
use titserved::client;
use titserved::server::{Server, ServerConfig};

/// Writes a small LU trace as merged text and returns its path.
fn trace_file(dir: &Path) -> PathBuf {
    let lu = LuConfig::new(LuClass::S, 4).with_steps(3);
    let trace = acquire(lu.sources(), Instrumentation::Minimal, CompilerOpt::O3, 1).trace;
    let path = dir.join("lu.trace");
    files::write_merged(&trace, &path).unwrap();
    path
}

fn spec(host_speed: f64) -> PlatformSpec {
    PlatformSpec {
        name: "svc-test".into(),
        kind: tit_replay::platform::spec::SpecKind::Flat {
            nodes: 4,
            host_speed,
            cores: 2,
            cache_bytes: 1 << 20,
            link_bandwidth: 1.25e8,
            link_latency: 2.5e-5,
            backbone_bandwidth: 1.25e9,
            backbone_latency: 5e-6,
        },
    }
}

fn start_server(workers: usize) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            sidecar: true,
        },
    )
    .unwrap();
    let addr = format!("127.0.0.1:{}", server.addr().port());
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, handle)
}

fn query_body(trace: &Path, spec: &PlatformSpec, rate: f64) -> String {
    format!(
        "{{\"trace\": \"{}\", \"ranks\": 4, \"platform\": {}, \"config\": {{\"rate\": {rate}}}}}",
        trace.display(),
        spec.to_json()
    )
}

/// Drops the one non-deterministic manifest line.
fn without_wall_time(manifest: &str) -> String {
    manifest
        .lines()
        .filter(|l| !l.contains("\"wall_time_s\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The manifest a direct CLI run of the same inputs writes, assembled
/// through the identical library path `titreplay` uses.
fn cli_manifest(trace_path: &Path, spec: &PlatformSpec, rate: f64) -> String {
    let platform = spec.build();
    let input = TraceInput::detect(trace_path).unwrap();
    let signature = replay::trace_signature(&input, 4);
    let trace = tit_replay::titrace::stream::load_trace(&input, 4).unwrap();
    let input = TraceInput::Memory(Arc::new(trace));
    let config = ReplayConfig::improved(rate);
    let report = replay_input_observed(&platform, &input, 4, &config, false).unwrap();
    replay::manifest(&platform, &signature, &config, &report, 0.0).to_json()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("titserved-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Reads one sample's value out of a Prometheus text scrape.
fn metric_value(metrics: &str, series: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| {
            l.strip_prefix(series)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or_else(|| panic!("metrics missing series {series}:\n{metrics}"))
}

/// Asserts that `/stats` and `/metrics` report the same executions,
/// errors, memo hits and joins.
fn assert_stats_agree_with_metrics(addr: &str) {
    use serde::Value;
    let stats = String::from_utf8(client::get(addr, "/stats").unwrap().body).unwrap();
    let stats: Value = serde_json::from_str(&stats).unwrap();
    let metrics = String::from_utf8(client::get(addr, "/metrics").unwrap().body).unwrap();
    for (field, series) in [
        ("executions", "titserved_executions_total"),
        ("errors", "titserved_errors_total"),
        ("cache_hits", "titserved_cache_total{disposition=\"hit\"}"),
        ("joined", "titserved_cache_total{disposition=\"joined\"}"),
    ] {
        let counted = stats.get(field).and_then(Value::as_f64);
        assert_eq!(
            counted,
            Some(metric_value(&metrics, series)),
            "/stats {field} against /metrics {series}"
        );
    }
}

#[test]
fn concurrent_identical_queries_execute_once_and_byte_match_the_cli() {
    let dir = temp_dir("dedup");
    let trace = trace_file(&dir);
    let spec = spec(1e9);
    let (addr, handle) = start_server(4);
    let body = query_body(&trace, &spec, 2e9);

    // N identical queries in flight at once.
    const N: usize = 6;
    let responses: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N)
            .map(|_| s.spawn(|| client::predict(&addr, &body).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &responses {
        assert_eq!(r.status, 200, "body: {}", String::from_utf8_lossy(&r.body));
    }
    // All N bodies are byte-identical: one execution's bytes, shared.
    let first = &responses[0].body;
    for r in &responses[1..] {
        assert_eq!(&r.body, first);
    }
    assert_stats_agree_with_metrics(&addr);
    // Exactly one replay ran; the other N-1 joined or hit.
    let stats = client::get(&addr, "/stats").unwrap();
    let stats = String::from_utf8(stats.body).unwrap();
    assert!(stats.contains("\"executions\": 1"), "stats: {stats}");
    assert!(
        stats.contains(&format!("\"queries\": {N}")),
        "stats: {stats}"
    );
    // The two unbounded caches report their growth.
    assert!(stats.contains("\"uptime_s\":"), "stats: {stats}");
    assert!(stats.contains("\"memo_bytes\":"), "stats: {stats}");
    assert!(stats.contains("\"trace_cache_bytes\":"), "stats: {stats}");
    // Every response names the request that produced it.
    for r in &responses {
        assert!(
            r.headers.contains_key("x-titserved-request-id"),
            "missing request id header"
        );
    }

    // The Prometheus scrape tells the same story in valid
    // text-exposition shape.
    let scrape = client::get(&addr, "/metrics").unwrap();
    assert_eq!(scrape.status, 200);
    assert!(
        scrape
            .headers
            .get("content-type")
            .is_some_and(|c| c.starts_with("text/plain")),
        "metrics content type: {:?}",
        scrape.headers.get("content-type")
    );
    let metrics = String::from_utf8(scrape.body).unwrap();
    for header in [
        "# TYPE titserved_requests_total counter",
        "# TYPE titserved_request_duration_seconds histogram",
        "# TYPE titserved_cache_total counter",
        "# TYPE titserved_queue_depth gauge",
    ] {
        assert!(
            metrics.contains(header),
            "metrics missing {header}:\n{metrics}"
        );
    }
    // Every non-comment line is `series value` with a parseable value.
    for line in metrics.lines().filter(|l| !l.starts_with('#')) {
        let value = line.rsplit(' ').next().unwrap();
        assert!(value.parse::<f64>().is_ok(), "bad sample line: {line:?}");
    }
    let predict_series = "titserved_requests_total{endpoint=\"/predict\"}";
    assert_eq!(metric_value(&metrics, predict_series), N as f64);
    assert_eq!(metric_value(&metrics, "titserved_executions_total"), 1.0);
    assert_eq!(
        metric_value(&metrics, "titserved_cache_total{disposition=\"miss\"}"),
        1.0
    );
    let hits_before = metric_value(&metrics, "titserved_cache_total{disposition=\"hit\"}");
    let joined_before = metric_value(&metrics, "titserved_cache_total{disposition=\"joined\"}");
    assert_eq!(hits_before + joined_before, (N - 1) as f64);
    // The latency histogram saw all six predicts; cumulative buckets
    // close at the count.
    let lat_count = "titserved_request_duration_seconds_count{endpoint=\"/predict\"}";
    assert_eq!(metric_value(&metrics, lat_count), N as f64);
    assert_eq!(
        metric_value(
            &metrics,
            "titserved_request_duration_seconds_bucket{endpoint=\"/predict\",le=\"+Inf\"}"
        ),
        N as f64
    );

    // The response byte-matches a direct CLI-path manifest modulo the
    // wall-time line.
    let served = String::from_utf8(first.clone()).unwrap();
    let direct = cli_manifest(&trace, &spec, 2e9);
    assert_eq!(without_wall_time(&served), without_wall_time(&direct));

    // A repeat after completion is a memo hit: identical bytes
    // (including wall time — the stored execution's), no new run.
    let again = client::predict(&addr, &body).unwrap();
    assert_eq!(again.headers.get("x-titserved-cache").unwrap(), "hit");
    assert_eq!(&again.body, first);
    let stats = String::from_utf8(client::get(&addr, "/stats").unwrap().body).unwrap();
    assert!(stats.contains("\"executions\": 1"), "stats: {stats}");

    // Counters are monotone: the repeat advanced the predict counter
    // and the hit counter, nothing regressed.
    let metrics2 = String::from_utf8(client::get(&addr, "/metrics").unwrap().body).unwrap();
    assert_eq!(metric_value(&metrics2, predict_series), (N + 1) as f64);
    assert_eq!(metric_value(&metrics2, "titserved_executions_total"), 1.0);
    assert_eq!(
        metric_value(&metrics2, "titserved_cache_total{disposition=\"hit\"}"),
        hits_before + 1.0
    );
    for line in metrics.lines().filter(|l| !l.starts_with('#')) {
        let series = line.rsplit_once(' ').unwrap().0;
        if series.contains("_total")
            || series.contains("_bucket")
            || series.contains("_count")
            || series.contains("_sum")
        {
            let before = metric_value(&metrics, series);
            let after = metric_value(&metrics2, series);
            assert!(
                after >= before,
                "series {series} regressed: {before} -> {after}"
            );
        }
    }

    client::post(&addr, "/shutdown", "").unwrap();
    handle.join().unwrap();
}

#[test]
fn distinct_questions_run_distinct_replays_but_share_the_trace() {
    let dir = temp_dir("distinct");
    let trace = trace_file(&dir);
    let (addr, handle) = start_server(2);

    let fast = client::predict(&addr, &query_body(&trace, &spec(2e9), 2e9)).unwrap();
    let slow = client::predict(&addr, &query_body(&trace, &spec(5e8), 2e9)).unwrap();
    assert_eq!(fast.status, 200);
    assert_eq!(slow.status, 200);
    assert_ne!(
        fast.body, slow.body,
        "different platforms, different predictions"
    );

    let stats = String::from_utf8(client::get(&addr, "/stats").unwrap().body).unwrap();
    assert!(stats.contains("\"executions\": 2"), "stats: {stats}");
    // One decoded trace served both questions.
    assert!(
        stats.contains("\"trace_cache_entries\": 1"),
        "stats: {stats}"
    );
    assert!(stats.contains("\"memo_entries\": 2"), "stats: {stats}");

    client::post(&addr, "/shutdown", "").unwrap();
    handle.join().unwrap();
}

#[test]
fn inspect_healthz_and_errors() {
    let dir = temp_dir("aux");
    let trace = trace_file(&dir);
    let (addr, handle) = start_server(1);

    let health = client::get(&addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"ok\n");

    let inspect = client::post(
        &addr,
        "/inspect",
        &format!("{{\"trace\": \"{}\", \"ranks\": 4}}", trace.display()),
    )
    .unwrap();
    assert_eq!(inspect.status, 200);
    let body = String::from_utf8(inspect.body).unwrap();
    assert!(body.contains("\"ranks\": 4"), "inspect: {body}");
    assert!(body.contains("\"content_checksum\""), "inspect: {body}");

    let bad = client::predict(&addr, "{not json").unwrap();
    assert_eq!(bad.status, 400);
    // Retired knobs are not questions one can ask two ways (and memoise
    // under two keys): collective batching and the PDES window are as
    // unknown as any typo, and so is the sharing policy, even naming the
    // bottleneck model that is now the only one.
    for (field, error) in [
        (
            "\"batch_collectives\": true",
            "unknown config field 'batch_collectives'",
        ),
        ("\"window_s\": 0.001", "unknown config field 'window_s'"),
        (
            "\"sharing\": \"bottleneck\"",
            "unknown config field 'sharing'",
        ),
    ] {
        let stale = client::predict(
            &addr,
            &query_body(&trace, &spec(1e9), 2e9)
                .replace("{\"rate\"", &format!("{{{field}, \"rate\"")),
        )
        .unwrap();
        assert_eq!(stale.status, 400, "{field}");
        let body = String::from_utf8(stale.body).unwrap();
        assert!(body.contains(error), "stale {field}: {body}");
    }
    let missing = client::predict(
        &addr,
        &query_body(Path::new("/nonexistent/x.trace"), &spec(1e9), 2e9),
    )
    .unwrap();
    assert_eq!(missing.status, 422);
    let nowhere = client::get(&addr, "/nope").unwrap();
    assert_eq!(nowhere.status, 404);

    client::post(&addr, "/shutdown", "").unwrap();
    handle.join().unwrap();
}

/// Fail closed on a trace the runtimes cannot execute: the replay is an
/// error, not a panic on the connection thread, so the failed execution
/// releases its worker permit and memo slot — a repeat gets the error
/// again instead of joining a slot nobody will ever publish, and the
/// service keeps answering.
#[test]
fn hostile_traces_fail_every_time_and_the_service_keeps_answering() {
    let dir = temp_dir("hostile");
    let wait = dir.join("wait.trace");
    std::fs::write(&wait, "p0 init\np0 wait\np1 init\np2 init\np3 init\n").unwrap();
    let size = dir.join("size.trace");
    std::fs::write(&size, "p0 send p1 8\np1 recv p0 16\np2 init\np3 init\n").unwrap();
    let good = trace_file(&dir);
    let (addr, handle) = start_server(1);
    let predict = |trace: &Path| predict_within(&addr, &query_body(trace, &spec(1e9), 2e9));
    for (hostile, want) in [
        (
            &wait,
            "rank p0 trace stream failed: action 1 waits with no outstanding request",
        ),
        (
            &size,
            "message size mismatch: rank 0 sent 8 bytes to rank 1, which expects 16",
        ),
    ] {
        for attempt in 0..2 {
            let refused = predict(hostile);
            let body = String::from_utf8(refused.body).unwrap();
            assert_eq!(refused.status, 500, "attempt {attempt}: {body}");
            assert!(body.contains(want), "attempt {attempt}: {body}");
        }
    }
    assert_eq!(predict(&good).status, 200);
    client::post(&addr, "/shutdown", "").unwrap();
    handle.join().unwrap();
}

/// Posts `body` to `/predict`; a hang surfaces as a read error after 30 s
/// instead of a stuck test.
fn predict_within(addr: &str, body: &str) -> titserved::http::Response {
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Duration;

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "POST /predict HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    titserved::http::read_response(&stream).expect("no response within the read timeout")
}

/// Fail closed on platforms no cluster can be: a spec with no nodes, no
/// cores, no speed, no or negative bandwidth, or a negative latency is
/// refused with 400 naming the field, every time, before any replay runs
/// — so even a one-worker service goes on answering a valid question.
#[test]
fn hostile_platforms_are_refused_and_the_service_keeps_answering() {
    use tit_replay::platform::spec::SpecKind;

    let dir = temp_dir("hostile-platform");
    let trace = trace_file(&dir);
    let (addr, handle) = start_server(1);
    let hostile = |field: &str, value: f64| {
        let mut spec = spec(1e9);
        let SpecKind::Flat {
            nodes,
            host_speed,
            cores,
            link_bandwidth,
            link_latency,
            backbone_bandwidth,
            ..
        } = &mut spec.kind
        else {
            unreachable!()
        };
        match field {
            "nodes" => *nodes = value as u32,
            "host_speed" => *host_speed = value,
            "cores" => *cores = value as u32,
            "link_bandwidth" => *link_bandwidth = value,
            "link_latency" => *link_latency = value,
            "backbone_bandwidth" => *backbone_bandwidth = value,
            other => unreachable!("{other}"),
        }
        spec
    };
    for (field, value) in [
        ("nodes", 0.0),
        ("host_speed", 0.0),
        ("cores", 0.0),
        ("link_bandwidth", 0.0),
        ("link_bandwidth", -1.0),
        ("link_latency", -1.0),
        ("backbone_bandwidth", 0.0),
    ] {
        let body = query_body(&trace, &hostile(field, value), 2e9);
        for attempt in 0..2 {
            let refused = predict_within(&addr, &body);
            let text = String::from_utf8(refused.body).unwrap();
            assert_eq!(
                refused.status, 400,
                "{field} = {value}, attempt {attempt}: {text}"
            );
            assert!(
                text.contains("bad platform spec") && text.contains(&format!("`{field}`")),
                "{field} = {value}, attempt {attempt}: {text}"
            );
        }
    }
    let valid = predict_within(&addr, &query_body(&trace, &spec(1e9), 2e9));
    assert_eq!(
        valid.status,
        200,
        "{}",
        String::from_utf8_lossy(&valid.body)
    );
    assert_eq!(
        valid.headers.get("x-titserved-cache").map(String::as_str),
        Some("miss")
    );
    client::post(&addr, "/shutdown", "").unwrap();
    handle.join().unwrap();
}

/// Fail closed on what a stranger can send: a request head that never
/// ends is answered 400 after a bounded read and the connection closed,
/// a client that connects and says nothing is dropped once the socket
/// timeout passes, and the service keeps answering throughout.
#[test]
fn endless_heads_and_idle_clients_are_cut_off() {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let (addr, handle) = start_server(1);
    let connect = || {
        let stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
    };

    let mut flood = connect();
    // The server stops reading long before 1 MiB; once it has closed,
    // the rest of the write fails, which is the point.
    let _ = flood.write_all(&vec![b'A'; 1 << 20]);
    let refused = titserved::http::read_response(&flood).unwrap();
    assert_eq!(refused.status, 400);
    let body = String::from_utf8(refused.body).unwrap();
    assert!(body.contains("request head too large"), "flood: {body}");
    let mut rest = Vec::new();
    let closed = flood.read_to_end(&mut rest);
    assert!(
        matches!(closed, Ok(0) | Err(_)),
        "connection left open after the refusal: {closed:?}"
    );

    let mut idle = connect();
    let since = Instant::now();
    let mut reply = Vec::new();
    // Ends when the server hangs up; the client's own 30 s timeout would
    // surface as an error instead.
    idle.read_to_end(&mut reply).unwrap();
    assert!(since.elapsed() < Duration::from_secs(20));
    assert!(reply.starts_with(b"HTTP/1.1 400"), "idle: {reply:?}");

    let health = client::get(&addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    client::post(&addr, "/shutdown", "").unwrap();
    handle.join().unwrap();
}

/// A trace path holding a control character, a quote or a backslash is
/// answered 422 by `/predict` and by `/inspect` with a valid JSON body
/// whose error names that exact path.
#[test]
fn error_bodies_are_json_naming_the_exact_path() {
    use serde::Value;
    use tit_replay::simkernel::obs::json_string;

    let (addr, handle) = start_server(1);
    let platform = spec(1e9).to_json();
    for path in [
        "/no/such\tdir.txt",
        "/no/such\ndir.txt",
        "/no/\"such\\dir.txt",
    ] {
        let trace = json_string(path);
        let predict = format!(
            "{{\"trace\": {trace}, \"ranks\": 4, \"platform\": {platform}, \
             \"config\": {{\"rate\": 2e9}}}}"
        );
        let inspect = format!("{{\"trace\": {trace}, \"ranks\": 4}}");
        for (endpoint, body) in [("/predict", predict), ("/inspect", inspect)] {
            let refused = client::post(&addr, endpoint, &body).unwrap();
            let text = String::from_utf8(refused.body).unwrap();
            assert_eq!(refused.status, 422, "{endpoint} {path:?}: {text:?}");
            // JSON allows no raw control character inside a string; the
            // only ones in the body are the three lines' breaks.
            assert!(
                text.lines().count() == 3 && !text.bytes().any(|b| b < 0x20 && b != b'\n'),
                "{endpoint} {path:?}: {text:?}"
            );
            let parsed: Value = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("{endpoint} {path:?}: {e}: {text:?}"));
            let error = parsed.get("error").and_then(Value::as_str).unwrap();
            assert!(error.contains(path), "{endpoint} {path:?}: {error:?}");
        }
    }
    client::post(&addr, "/shutdown", "").unwrap();
    handle.join().unwrap();
}

/// `POST /shutdown` is answered before the binary exits: twenty fresh
/// servers, one at a time, each reply `200 shutting down` and exit 0.
#[test]
fn the_binary_answers_shutdown_before_it_exits() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    for attempt in 0..20 {
        let mut child = Command::new(env!("CARGO_BIN_EXE_titserved"))
            .args(["serve", "--port", "0", "--workers", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        let addr = line
            .trim()
            .strip_prefix("listening http://")
            .map(str::to_string);
        let reply = addr.as_deref().map(|addr| {
            assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
            client::post(addr, "/shutdown", "")
        });
        if !matches!(reply, Some(Ok(_))) {
            let _ = child.kill();
        }
        let exit = child.wait().unwrap();
        let reply = reply
            .unwrap_or_else(|| panic!("attempt {attempt}: no address in {line:?}"))
            .unwrap_or_else(|e| panic!("attempt {attempt}: no reply to /shutdown: {e}"));
        assert_eq!(
            (reply.status, String::from_utf8_lossy(&reply.body).as_ref()),
            (200, "shutting down\n"),
            "attempt {attempt}"
        );
        assert!(exit.success(), "attempt {attempt}: {exit}");
    }
}
