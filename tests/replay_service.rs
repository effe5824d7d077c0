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
            access_log: false,
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
    // Collective batching is no longer a question one can ask two ways
    // (and memoise under two keys): a switch for it is as unknown as
    // any typo.
    let stale = client::predict(
        &addr,
        &query_body(&trace, &spec(1e9), 2e9)
            .replace("{\"rate\"", "{\"batch_collectives\": true, \"rate\""),
    )
    .unwrap();
    assert_eq!(stale.status, 400);
    let body = String::from_utf8(stale.body).unwrap();
    assert!(
        body.contains("unknown config field 'batch_collectives'"),
        "stale field: {body}"
    );
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
