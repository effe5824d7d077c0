//! The prediction server: dedup, memoization, bounded workers, stats.
//!
//! Request lifecycle for `/predict`:
//!
//! 1. parse the query, resolve the trace through the shared
//!    [`TraceStore`] (the trace opened once, as `titreplay` opens it);
//! 2. form the canonical [`QueryKey`] and consult the memo table:
//!    * **Ready** — serve the stored body (`x-titserved-cache: hit`),
//!      no replay runs;
//!    * **Pending** — an identical query is already executing; block on
//!      its condvar and serve the same bytes (`joined`) — N concurrent
//!      identical queries cost exactly one execution;
//!    * **vacant** — insert a Pending slot, take a worker permit from
//!      the bounded pool, replay, publish the body (`miss`).
//! 3. failed executions — a panicking one included — *remove* the
//!    Pending slot so a later retry is possible; only successful bodies
//!    are memoized.
//!
//! The memo stores the exact response bytes (`Arc<String>`), so a hit
//! is byte-identical to the miss that populated it — pinned by the
//! integration tests and the CI smoke.

use std::any::Any;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use tit_replay::querykey::QueryKey;
use tit_replay::simkernel::obs::{json_f64, json_string};

use crate::http;
use crate::query::{self, TraceStore, WhatIfQuery};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrent replay executions (the bounded worker pool).
    pub workers: usize,
    /// Whether merged-text loads may read/write `.titb` side-cars.
    pub sidecar: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            sidecar: true,
        }
    }
}

/// Locks `m`, recovering the data of a lock whose holder panicked: every
/// critical section here leaves its data consistent, and an execution's
/// panic is caught and answered like any replay error.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

enum MemoSlot {
    Ready(Arc<String>),
    Pending(Arc<InFlight>),
}

#[derive(Default)]
struct InFlight {
    done: Mutex<Option<Result<Arc<String>, String>>>,
    cv: Condvar,
}

impl InFlight {
    fn publish(&self, result: Result<Arc<String>, String>) {
        *lock(&self.done) = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<String>, String> {
        let mut done = lock(&self.done);
        loop {
            if let Some(result) = done.as_ref() {
                return result.clone();
            }
            done = self.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Counting semaphore bounding concurrent replay executions.
struct Pool {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Pool {
    fn new(permits: usize) -> Pool {
        Pool {
            permits: Mutex::new(permits.max(1)),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut p = lock(&self.permits);
        while *p == 0 {
            p = self.cv.wait(p).unwrap_or_else(PoisonError::into_inner);
        }
        *p -= 1;
    }

    fn release(&self) {
        *lock(&self.permits) += 1;
        self.cv.notify_one();
    }
}

/// The routes counted apart, in `/metrics` order; the first three also
/// time their requests.
#[derive(Clone, Copy)]
enum Endpoint {
    Predict,
    Inspect,
    Stats,
    Metrics,
    Healthz,
    Other,
}

/// The `endpoint` label of each [`Endpoint`], in declaration order.
const ENDPOINTS: [&str; 6] = [
    "/predict", "/inspect", "/stats", "/metrics", "/healthz", "other",
];

impl Endpoint {
    fn of(method: &str, path: &str) -> Endpoint {
        match (method, path) {
            ("POST", "/predict") => Endpoint::Predict,
            ("POST", "/inspect") => Endpoint::Inspect,
            ("GET", "/stats") => Endpoint::Stats,
            ("GET", "/metrics") => Endpoint::Metrics,
            ("GET", "/healthz") => Endpoint::Healthz,
            _ => Endpoint::Other,
        }
    }
}

/// Latency bucket upper bounds in seconds: 500 µs .. 10 s, roughly
/// geometric, so that both a memo hit (~1 ms) and a cold replay of a
/// large trace (seconds) land inside the range.
const LATENCY_BUCKETS_S: [f64; 14] = [
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// A fixed-bucket histogram of request wall times: one count per bound
/// plus the `+Inf` overflow, and the sum in integer nanoseconds (there
/// is no atomic f64 add). The count is the buckets' total.
#[derive(Default)]
struct Latency {
    buckets: [AtomicU64; LATENCY_BUCKETS_S.len() + 1],
    sum_ns: AtomicU64,
}

impl Latency {
    /// Records one request of `seconds`; a negative or non-finite value
    /// counts as zero. A value on a bound falls in that bound's bucket.
    fn observe(&self, seconds: f64) {
        let s = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        };
        let idx = LATENCY_BUCKETS_S.partition_point(|b| *b < s);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add((s * 1e9) as u64, Ordering::Relaxed);
    }
}

/// The service's counters, all lock-free. Each event advances exactly
/// one of them, and `/stats` and `/metrics` both render from here.
#[derive(Default)]
struct Stats {
    /// Requests received, by [`Endpoint`]; `/predict`'s is the `/stats`
    /// `queries` count (parse errors included).
    requests: [AtomicU64; ENDPOINTS.len()],
    /// Served from the memo table without waiting.
    cache_hits: AtomicU64,
    /// Deduplicated onto an identical in-flight execution.
    joined: AtomicU64,
    /// Queries that took a vacant memo slot and so will execute.
    misses: AtomicU64,
    /// Replay executions actually run (a miss once it holds a permit).
    executions: AtomicU64,
    /// Requests answered with an error status.
    errors: AtomicU64,
    /// Predict requests currently inside the handler.
    in_flight: AtomicU64,
    /// Executions waiting for a worker permit.
    queue_depth: AtomicU64,
    /// Workers currently replaying.
    workers_busy: AtomicU64,
    /// Wall time of the first three endpoints' requests.
    latency: [Latency; 3],
}

impl Stats {
    fn request(&self, endpoint: Endpoint) {
        self.requests[endpoint as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request's answer: its latency and, from 400 on, an error.
    fn answered(&self, endpoint: Endpoint, status: u16, elapsed_s: f64) {
        if let Some(latency) = self.latency.get(endpoint as usize) {
            latency.observe(elapsed_s);
        }
        if status >= 400 {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// Shared server state: memo table, trace store, pool, stats.
struct ServerState {
    config: ServerConfig,
    store: TraceStore,
    memo: Mutex<HashMap<QueryKey, MemoSlot>>,
    pool: Pool,
    stats: Stats,
    started: Instant,
    next_request_id: AtomicU64,
    shutdown: AtomicBool,
}

impl ServerState {
    fn new(config: ServerConfig) -> ServerState {
        let pool = Pool::new(config.workers);
        ServerState {
            config,
            store: TraceStore::new(),
            memo: Mutex::new(HashMap::new()),
            pool,
            stats: Stats::default(),
            started: Instant::now(),
            next_request_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Handles one `/predict` body; returns (status, cache-disposition,
    /// response body). `request_id` travels into worker-pool execution
    /// so a replay failure is logged with the request that triggered it.
    fn predict(&self, body: &[u8], request_id: u64) -> (u16, &'static str, String) {
        let parsed = std::str::from_utf8(body)
            .map_err(|_| "body is not UTF-8".to_string())
            .and_then(WhatIfQuery::parse);
        let q = match parsed {
            Ok(q) => q,
            Err(e) => return (400, "none", error_body(&e)),
        };
        let resolved = match self.store.resolve(&q.trace, q.ranks, self.config.sidecar) {
            Ok(r) => r,
            Err(e) => return (422, "none", error_body(&e)),
        };
        let key = query::query_key(&q, &resolved);
        enum Role {
            Hit(Arc<String>),
            Join(Arc<InFlight>),
            Run(Arc<InFlight>),
        }
        let role = {
            let mut memo = lock(&self.memo);
            match memo.get(&key) {
                Some(MemoSlot::Ready(body)) => Role::Hit(Arc::clone(body)),
                Some(MemoSlot::Pending(inflight)) => Role::Join(Arc::clone(inflight)),
                None => {
                    let inflight = Arc::new(InFlight::default());
                    memo.insert(key, MemoSlot::Pending(Arc::clone(&inflight)));
                    Role::Run(inflight)
                }
            }
        };
        match role {
            Role::Hit(body) => {
                self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                (200, "hit", body.as_ref().clone())
            }
            Role::Join(inflight) => {
                self.stats.joined.fetch_add(1, Ordering::Relaxed);
                match inflight.wait() {
                    Ok(body) => (200, "joined", body.as_ref().clone()),
                    Err(e) => (500, "joined", error_body(&e)),
                }
            }
            Role::Run(inflight) => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                self.execute_slot(key, &inflight, request_id, || query::execute(&q, &resolved))
            }
        }
    }

    /// Runs the execution that owns the `Pending` memo slot `key` under a
    /// worker permit, memoizes a success, and publishes the outcome to
    /// the joiners of `inflight`. A panicking `run` fails like a replay
    /// error, with 500: the permit and the busy count are released, the
    /// slot removed and the error published, so a retry executes afresh
    /// and the pool keeps serving.
    fn execute_slot(
        &self,
        key: QueryKey,
        inflight: &InFlight,
        request_id: u64,
        run: impl FnOnce() -> Result<String, String>,
    ) -> (u16, &'static str, String) {
        self.stats.queue_depth.fetch_add(1, Ordering::Relaxed);
        self.pool.acquire();
        self.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.stats.workers_busy.fetch_add(1, Ordering::Relaxed);
        self.stats.executions.fetch_add(1, Ordering::Relaxed);
        let result = panic::catch_unwind(AssertUnwindSafe(run))
            .unwrap_or_else(|payload| {
                Err(format!(
                    "replay execution panicked: {}",
                    panic_text(&*payload)
                ))
            })
            .map(Arc::new);
        if let Err(e) = &result {
            // Attribute the failure to the request that ran it — the
            // joined waiters see the same error body, but the log names
            // the execution's originator.
            eprintln!("titserved: rid={request_id} replay execution failed: {e}");
        }
        self.stats.workers_busy.fetch_sub(1, Ordering::Relaxed);
        self.pool.release();
        let mut memo = lock(&self.memo);
        match &result {
            // Only successes are memoized; a failure clears the slot so
            // the query can be retried.
            Ok(body) => {
                memo.insert(key, MemoSlot::Ready(Arc::clone(body)));
            }
            Err(_) => {
                memo.remove(&key);
            }
        }
        drop(memo);
        inflight.publish(result.clone());
        match result {
            Ok(body) => (200, "miss", body.as_ref().clone()),
            Err(e) => (500, "miss", error_body(&e)),
        }
    }

    /// Renders `/stats` as JSON. The counter fields are deterministic
    /// under a deterministic request sequence; `uptime_s` and the
    /// two byte sizes are the only wall-clock/host-side figures: the
    /// memo's bodies and what the trace store's open handles hold (their
    /// block tables and run indices), which make the two unbounded
    /// caches' growth visible.
    fn stats_body(&self) -> String {
        let s = &self.stats;
        let queries = load(&s.requests[Endpoint::Predict as usize]);
        let hits = load(&s.cache_hits);
        let joined = load(&s.joined);
        let served_without_replay = hits + joined;
        let hit_rate = if queries == 0 {
            0.0
        } else {
            served_without_replay as f64 / queries as f64
        };
        let (memo_entries, memo_bytes) = {
            let memo = lock(&self.memo);
            let bytes: u64 = memo
                .values()
                .map(|slot| match slot {
                    MemoSlot::Ready(body) => body.len() as u64,
                    MemoSlot::Pending(_) => 0,
                })
                .sum();
            (memo.len(), bytes)
        };
        format!(
            "{{\n  \"queries\": {queries},\n  \"cache_hits\": {hits},\n  \"joined\": {joined},\n  \
             \"executions\": {},\n  \"errors\": {},\n  \"hit_rate\": {hit_rate:.6},\n  \
             \"in_flight\": {},\n  \"queue_depth\": {},\n  \"workers\": {},\n  \
             \"workers_busy\": {},\n  \"memo_entries\": {memo_entries},\n  \
             \"trace_cache_entries\": {},\n  \"uptime_s\": {:.3},\n  \
             \"memo_bytes\": {memo_bytes},\n  \"trace_cache_bytes\": {}\n}}",
            load(&s.executions),
            load(&s.errors),
            load(&s.in_flight),
            load(&s.queue_depth),
            self.config.workers,
            load(&s.workers_busy),
            self.store.len(),
            self.started.elapsed().as_secs_f64(),
            self.store.held_bytes(),
        )
    }

    /// Renders `/metrics` in the Prometheus text exposition format
    /// (version 0.0.4) from the same [`Stats`] as `/stats`: `# HELP` and
    /// `# TYPE` once per family, and for each histogram cumulative
    /// `_bucket` series with an `le` label, then `_sum` and `_count`.
    fn metrics_body(&self) -> String {
        fn family(out: &mut String, name: &str, kind: &str, help: &str) {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        }
        let s = &self.stats;
        let mut out = String::with_capacity(8192);
        const REQ: &str = "titserved_requests_total";
        family(&mut out, REQ, "counter", "Requests received, by endpoint.");
        for (endpoint, n) in ENDPOINTS.iter().zip(&s.requests) {
            out.push_str(&format!("{REQ}{{endpoint=\"{endpoint}\"}} {}\n", load(n)));
        }
        const LAT: &str = "titserved_request_duration_seconds";
        let help = "Wall-clock request latency, by endpoint.";
        family(&mut out, LAT, "histogram", help);
        for (endpoint, latency) in ENDPOINTS.iter().zip(&s.latency) {
            let bounds = LATENCY_BUCKETS_S.iter().map(|b| json_f64(*b));
            let mut count = 0;
            for (le, n) in bounds.chain(["+Inf".into()]).zip(&latency.buckets) {
                count += load(n);
                out.push_str(&format!(
                    "{LAT}_bucket{{endpoint=\"{endpoint}\",le=\"{le}\"}} {count}\n"
                ));
            }
            let sum_s = json_f64(load(&latency.sum_ns) as f64 / 1e9);
            out.push_str(&format!("{LAT}_sum{{endpoint=\"{endpoint}\"}} {sum_s}\n"));
            out.push_str(&format!("{LAT}_count{{endpoint=\"{endpoint}\"}} {count}\n"));
        }
        const CACHE: &str = "titserved_cache_total";
        let help = "Predict cache dispositions (miss = replay executed).";
        family(&mut out, CACHE, "counter", help);
        for (disposition, n) in [
            ("hit", &s.cache_hits),
            ("miss", &s.misses),
            ("joined", &s.joined),
        ] {
            out.push_str(&format!(
                "{CACHE}{{disposition=\"{disposition}\"}} {}\n",
                load(n)
            ));
        }
        for (name, kind, help, value) in [
            (
                "titserved_executions_total",
                "counter",
                "Replay executions actually run.",
                load(&s.executions),
            ),
            (
                "titserved_errors_total",
                "counter",
                "Requests answered with status >= 400.",
                load(&s.errors),
            ),
            (
                "titserved_queue_depth",
                "gauge",
                "Executions waiting for a worker permit.",
                load(&s.queue_depth),
            ),
            (
                "titserved_in_flight",
                "gauge",
                "Predict requests currently inside the handler.",
                load(&s.in_flight),
            ),
            (
                "titserved_workers_busy",
                "gauge",
                "Workers currently replaying.",
                load(&s.workers_busy),
            ),
        ] {
            family(&mut out, name, kind, help);
            out.push_str(&format!("{name} {value}\n"));
        }
        out
    }
}

/// The message a panic was raised with, when it is text.
fn panic_text(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-text panic payload")
}

fn error_body(msg: &str) -> String {
    format!("{{\n  \"error\": {}\n}}", json_string(msg))
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            addr: listener.local_addr()?,
            listener,
            state: Arc::new(ServerState::new(config)),
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accept loop: one thread per connection, until `/shutdown`.
    /// Blocks the calling thread; returns after a clean shutdown.
    pub fn run(self) -> io::Result<()> {
        let addr = self.addr;
        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || handle_connection(&state, stream, addr));
        }
        Ok(())
    }
}

/// How long one socket read or write may stall before the connection is
/// dropped, so an idle or stuck client cannot pin its thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

fn handle_connection(state: &Arc<ServerState>, mut stream: TcpStream, addr: SocketAddr) {
    if stream.set_read_timeout(Some(IO_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(IO_TIMEOUT)).is_err()
    {
        return;
    }
    let request = match http::read_request(&mut stream) {
        Ok(Some(r)) => r,
        Ok(None) => return,
        Err(e) => {
            let _ = http::write_response(
                &mut stream,
                400,
                "application/json",
                &[],
                error_body(&e.to_string()).as_bytes(),
            );
            return;
        }
    };
    let rid = state.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
    let started = Instant::now();
    let (method, path) = (request.method.as_str(), request.path.as_str());
    let endpoint = Endpoint::of(method, path);
    state.stats.request(endpoint);
    let shutdown = matches!((method, path), ("POST" | "GET", "/shutdown"));
    let (status, cache, body): (u16, &str, String) = match endpoint {
        Endpoint::Healthz => (200, "none", "ok\n".to_string()),
        Endpoint::Stats => (200, "none", state.stats_body()),
        Endpoint::Metrics => (200, "none", state.metrics_body()),
        Endpoint::Predict => {
            state.stats.in_flight.fetch_add(1, Ordering::Relaxed);
            let out = state.predict(&request.body, rid);
            state.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
            out
        }
        Endpoint::Inspect => {
            let parsed = std::str::from_utf8(&request.body)
                .map_err(|_| "body is not UTF-8".to_string())
                .and_then(inspect_request);
            match parsed {
                Ok((trace, ranks)) => {
                    match query::inspect(&trace, ranks, &state.store, state.config.sidecar) {
                        Ok(body) => (200, "none", body),
                        Err(e) => (422, "none", error_body(&e)),
                    }
                }
                Err(e) => (400, "none", error_body(&e)),
            }
        }
        Endpoint::Other if shutdown => (200, "none", "shutting down\n".to_string()),
        Endpoint::Other if matches!(method, "POST" | "GET") => {
            (404, "none", error_body("no such endpoint"))
        }
        Endpoint::Other => (405, "none", error_body("method not allowed")),
    };
    let elapsed_s = started.elapsed().as_secs_f64();
    state.stats.answered(endpoint, status, elapsed_s);
    let rid_header = rid.to_string();
    let mut headers: Vec<(&str, &str)> = vec![("x-titserved-request-id", rid_header.as_str())];
    if cache != "none" {
        headers.push(("x-titserved-cache", cache));
    }
    let content_type = if path == "/metrics" {
        "text/plain; version=0.0.4"
    } else {
        "application/json"
    };
    let _ = http::write_response(&mut stream, status, content_type, &headers, body.as_bytes());
    // Structured single-line access log: one line per request.
    eprintln!(
        "titserved: rid={rid} method={method} path={path} status={status} cache={cache} bytes={} dur_ms={:.3}",
        body.len(),
        elapsed_s * 1e3
    );
    if shutdown {
        // Only now, with the reply written, wake the accept loop with a
        // self-connection so `run` observes the flag and returns: the
        // binary exits as soon as it does.
        state.shutdown.store(true, Ordering::SeqCst);
        drop(stream);
        let _ = TcpStream::connect(addr);
    }
}

/// Parses an `/inspect` body: `{"trace": "...", "ranks": N}`.
fn inspect_request(body: &str) -> Result<(String, u32), String> {
    use serde::Value;
    let v: Value = serde_json::from_str(body).map_err(|e| format!("bad inspect JSON: {e}"))?;
    let trace = v
        .get("trace")
        .and_then(Value::as_str)
        .ok_or("inspect needs a 'trace' path string")?
        .to_string();
    let ranks = v
        .get("ranks")
        .and_then(Value::as_f64)
        .filter(|r| *r >= 1.0 && r.fract() == 0.0)
        .ok_or("inspect needs an integer 'ranks' >= 1")? as u32;
    Ok((trace, ranks))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_execution_releases_its_permit_and_its_slot() {
        let state = ServerState::new(ServerConfig {
            workers: 1,
            sidecar: false,
        });
        let key = QueryKey {
            trace: 1,
            platform: 2,
            config: 3,
            ranks: 4,
        };
        let inflight = Arc::new(InFlight::default());
        let slot = MemoSlot::Pending(Arc::clone(&inflight));
        lock(&state.memo).insert(key, slot);
        let joiner = {
            let inflight = Arc::clone(&inflight);
            std::thread::spawn(move || inflight.wait())
        };
        let (status, cache, body) = state.execute_slot(key, &inflight, 7, || panic!("boom"));
        assert_eq!((status, cache), (500, "miss"));
        assert!(body.contains("replay execution panicked: boom"), "{body}");
        assert_eq!(*state.pool.permits.lock().unwrap(), 1);
        assert_eq!(state.stats.workers_busy.load(Ordering::Relaxed), 0);
        assert!(state.memo.lock().unwrap().is_empty());
        let joined = joiner.join().unwrap().unwrap_err();
        assert!(joined.contains("boom"), "{joined}");

        // The retry takes the released permit and is memoized.
        let retry = Arc::new(InFlight::default());
        let (status, _, body) = state.execute_slot(key, &retry, 8, || Ok("{}".into()));
        assert_eq!((status, body.as_str()), (200, "{}"));
        assert!(matches!(
            state.memo.lock().unwrap().get(&key),
            Some(MemoSlot::Ready(_))
        ));
        assert_eq!(state.stats.executions.load(Ordering::Relaxed), 2);
    }

    /// `/metrics` renders a fixed sequence of events byte for byte as
    /// `tests/golden/metrics.prom`: every route, error statuses, each
    /// cache disposition, non-zero gauges, and latencies below the first
    /// bucket, on a bound (buckets are `le`), past the last one and
    /// negative (clamped to zero).
    #[test]
    fn metrics_body_is_pinned() {
        let state = ServerState::new(ServerConfig::default());
        let s = &state.stats;
        for (route, status, elapsed_s) in [
            (("POST", "/predict"), 200, 0.0001),
            (("POST", "/predict"), 200, 0.005),
            (("POST", "/predict"), 500, 12.5),
            (("POST", "/predict"), 400, -1.0),
            (("POST", "/inspect"), 200, 0.03),
            (("POST", "/inspect"), 422, 0.25),
            (("GET", "/stats"), 200, 0.0005),
            (("GET", "/metrics"), 200, 0.002),
            (("GET", "/healthz"), 200, 0.001),
            (("GET", "/nope"), 404, 0.001),
            (("PUT", "/predict"), 405, 0.001),
            (("POST", "/shutdown"), 200, 0.001),
        ] {
            let endpoint = Endpoint::of(route.0, route.1);
            s.request(endpoint);
            s.answered(endpoint, status, elapsed_s);
        }
        s.misses.fetch_add(2, Ordering::Relaxed);
        s.executions.fetch_add(1, Ordering::Relaxed);
        s.cache_hits.fetch_add(2, Ordering::Relaxed);
        s.joined.fetch_add(1, Ordering::Relaxed);
        s.in_flight.store(3, Ordering::Relaxed);
        s.queue_depth.store(2, Ordering::Relaxed);
        s.workers_busy.store(1, Ordering::Relaxed);
        let golden = include_str!("../../../tests/golden/metrics.prom");
        assert_eq!(state.metrics_body(), golden);
    }
}
