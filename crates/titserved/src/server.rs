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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tit_replay::querykey::QueryKey;

use crate::http;
use crate::query::{self, TraceStore, WhatIfQuery};
use crate::telemetry::{Counter, Gauge, Histogram, Registry, LATENCY_BUCKETS_S};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrent replay executions (the bounded worker pool).
    pub workers: usize,
    /// Whether merged-text loads may read/write `.titb` side-cars.
    pub sidecar: bool,
    /// Whether to emit the structured single-line access log on stderr
    /// (one line per request: id, method, path, status, cache
    /// disposition, bytes, wall duration).
    pub access_log: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            sidecar: true,
            access_log: true,
        }
    }
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
        *self.done.lock().unwrap() = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<String>, String> {
        let mut done = self.done.lock().unwrap();
        while done.is_none() {
            done = self.cv.wait(done).unwrap();
        }
        done.clone().unwrap()
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
        let mut p = self.permits.lock().unwrap();
        while *p == 0 {
            p = self.cv.wait(p).unwrap();
        }
        *p -= 1;
    }

    fn release(&self) {
        *self.permits.lock().unwrap() += 1;
        self.cv.notify_one();
    }
}

/// Monotonic service counters, all lock-free.
#[derive(Default)]
pub struct Stats {
    /// `/predict` requests accepted (parse errors included).
    pub queries: AtomicU64,
    /// Served from the memo table without waiting.
    pub cache_hits: AtomicU64,
    /// Deduplicated onto an identical in-flight execution.
    pub joined: AtomicU64,
    /// Replay executions actually run.
    pub executions: AtomicU64,
    /// Requests answered with an error status.
    pub errors: AtomicU64,
    /// Predict requests currently inside the handler.
    pub in_flight: AtomicUsize,
    /// Executions waiting for a worker permit.
    pub queue_depth: AtomicUsize,
    /// Workers currently replaying.
    pub workers_busy: AtomicUsize,
}

/// Wall-clock telemetry of the running service: per-endpoint request
/// counters and latency histograms, cache-disposition counters, and
/// pool-level gauges, all registered in one Prometheus-text
/// [`Registry`]. Counters are advanced at the same sites as the
/// matching [`Stats`] fields; gauges are snapshot from [`Stats`] at
/// scrape time so the hot path pays no double bookkeeping.
struct Telemetry {
    registry: Registry,
    req_predict: Arc<Counter>,
    req_inspect: Arc<Counter>,
    req_stats: Arc<Counter>,
    req_metrics: Arc<Counter>,
    req_healthz: Arc<Counter>,
    req_other: Arc<Counter>,
    lat_predict: Arc<Histogram>,
    lat_inspect: Arc<Histogram>,
    lat_stats: Arc<Histogram>,
    cache_hit: Arc<Counter>,
    cache_miss: Arc<Counter>,
    cache_joined: Arc<Counter>,
    executions: Arc<Counter>,
    errors: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    in_flight: Arc<Gauge>,
    workers_busy: Arc<Gauge>,
}

impl Telemetry {
    fn new() -> Telemetry {
        let mut r = Registry::new();
        const REQ: &str = "titserved_requests_total";
        const REQ_HELP: &str = "Requests received, by endpoint.";
        const LAT: &str = "titserved_request_duration_seconds";
        const LAT_HELP: &str = "Wall-clock request latency, by endpoint.";
        const CACHE: &str = "titserved_cache_total";
        const CACHE_HELP: &str = "Predict cache dispositions (miss = replay executed).";
        Telemetry {
            req_predict: r.counter_with(REQ, Some("endpoint=\"/predict\""), REQ_HELP),
            req_inspect: r.counter_with(REQ, Some("endpoint=\"/inspect\""), REQ_HELP),
            req_stats: r.counter_with(REQ, Some("endpoint=\"/stats\""), REQ_HELP),
            req_metrics: r.counter_with(REQ, Some("endpoint=\"/metrics\""), REQ_HELP),
            req_healthz: r.counter_with(REQ, Some("endpoint=\"/healthz\""), REQ_HELP),
            req_other: r.counter_with(REQ, Some("endpoint=\"other\""), REQ_HELP),
            lat_predict: r.histogram_with(
                LAT,
                Some("endpoint=\"/predict\""),
                LAT_HELP,
                &LATENCY_BUCKETS_S,
            ),
            lat_inspect: r.histogram_with(
                LAT,
                Some("endpoint=\"/inspect\""),
                LAT_HELP,
                &LATENCY_BUCKETS_S,
            ),
            lat_stats: r.histogram_with(
                LAT,
                Some("endpoint=\"/stats\""),
                LAT_HELP,
                &LATENCY_BUCKETS_S,
            ),
            cache_hit: r.counter_with(CACHE, Some("disposition=\"hit\""), CACHE_HELP),
            cache_miss: r.counter_with(CACHE, Some("disposition=\"miss\""), CACHE_HELP),
            cache_joined: r.counter_with(CACHE, Some("disposition=\"joined\""), CACHE_HELP),
            executions: r.counter(
                "titserved_executions_total",
                "Replay executions actually run.",
            ),
            errors: r.counter(
                "titserved_errors_total",
                "Requests answered with status >= 400.",
            ),
            queue_depth: r.gauge(
                "titserved_queue_depth",
                "Executions waiting for a worker permit.",
            ),
            in_flight: r.gauge(
                "titserved_in_flight",
                "Predict requests currently inside the handler.",
            ),
            workers_busy: r.gauge("titserved_workers_busy", "Workers currently replaying."),
            registry: r,
        }
    }
}

/// Shared server state: memo table, trace store, pool, stats.
pub struct ServerState {
    config: ServerConfig,
    store: TraceStore,
    memo: Mutex<HashMap<QueryKey, MemoSlot>>,
    pool: Pool,
    /// Public so callers embedding the server can export the counters.
    pub stats: Stats,
    telemetry: Telemetry,
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
            telemetry: Telemetry::new(),
            started: Instant::now(),
            next_request_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Handles one `/predict` body; returns (status, cache-disposition,
    /// response body). `request_id` travels into worker-pool execution
    /// so a replay failure is logged with the request that triggered it.
    fn predict(&self, body: &[u8], request_id: u64) -> (u16, &'static str, String) {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
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
            let mut memo = self.memo.lock().unwrap();
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
                self.telemetry.cache_hit.inc();
                (200, "hit", body.as_ref().clone())
            }
            Role::Join(inflight) => {
                self.stats.joined.fetch_add(1, Ordering::Relaxed);
                self.telemetry.cache_joined.inc();
                match inflight.wait() {
                    Ok(body) => (200, "joined", body.as_ref().clone()),
                    Err(e) => (500, "joined", error_body(&e)),
                }
            }
            Role::Run(inflight) => {
                self.telemetry.cache_miss.inc();
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
        self.telemetry.executions.inc();
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
        let mut memo = self.memo.lock().unwrap();
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
        let queries = self.stats.queries.load(Ordering::Relaxed);
        let hits = self.stats.cache_hits.load(Ordering::Relaxed);
        let joined = self.stats.joined.load(Ordering::Relaxed);
        let served_without_replay = hits + joined;
        let hit_rate = if queries == 0 {
            0.0
        } else {
            served_without_replay as f64 / queries as f64
        };
        let (memo_entries, memo_bytes) = {
            let memo = self.memo.lock().unwrap();
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
            self.stats.executions.load(Ordering::Relaxed),
            self.stats.errors.load(Ordering::Relaxed),
            self.stats.in_flight.load(Ordering::Relaxed),
            self.stats.queue_depth.load(Ordering::Relaxed),
            self.config.workers,
            self.stats.workers_busy.load(Ordering::Relaxed),
            self.store.len(),
            self.started.elapsed().as_secs_f64(),
            self.store.held_bytes(),
        )
    }

    /// Renders `/metrics` in the Prometheus text exposition format.
    /// Gauges are snapshot from [`Stats`] here, at scrape time.
    fn metrics_body(&self) -> String {
        let t = &self.telemetry;
        t.queue_depth
            .set(self.stats.queue_depth.load(Ordering::Relaxed) as i64);
        t.in_flight
            .set(self.stats.in_flight.load(Ordering::Relaxed) as i64);
        t.workers_busy
            .set(self.stats.workers_busy.load(Ordering::Relaxed) as i64);
        t.registry.render_prometheus()
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
    format!(
        "{{\n  \"error\": \"{}\"\n}}",
        msg.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', " ")
    )
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            state: Arc::new(ServerState::new(config)),
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// Shared state handle (stats inspection from embedding code).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Accept loop: one thread per connection, until `/shutdown`.
    /// Blocks the calling thread; returns after a clean shutdown.
    pub fn run(self) -> io::Result<()> {
        let addr = self.addr();
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
    let t = &state.telemetry;
    let route = (request.method.as_str(), request.path.as_str());
    match route {
        ("POST", "/predict") => t.req_predict.inc(),
        ("POST", "/inspect") => t.req_inspect.inc(),
        ("GET", "/stats") => t.req_stats.inc(),
        ("GET", "/metrics") => t.req_metrics.inc(),
        ("GET", "/healthz") => t.req_healthz.inc(),
        _ => t.req_other.inc(),
    }
    let (status, cache, body): (u16, &str, String) = match route {
        ("GET", "/healthz") => (200, "none", "ok\n".to_string()),
        ("GET", "/stats") => (200, "none", state.stats_body()),
        ("GET", "/metrics") => (200, "none", state.metrics_body()),
        ("POST", "/predict") => {
            state.stats.in_flight.fetch_add(1, Ordering::Relaxed);
            let out = state.predict(&request.body, rid);
            state.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
            out
        }
        ("POST", "/inspect") => {
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
        ("POST", "/shutdown") | ("GET", "/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop with a self-connection so `run`
            // observes the flag and returns.
            let _ = TcpStream::connect(addr);
            (200, "none", "shutting down\n".to_string())
        }
        ("POST" | "GET", _) => (404, "none", error_body("no such endpoint")),
        _ => (405, "none", error_body("method not allowed")),
    };
    let elapsed_s = started.elapsed().as_secs_f64();
    match route {
        ("POST", "/predict") => t.lat_predict.observe(elapsed_s),
        ("POST", "/inspect") => t.lat_inspect.observe(elapsed_s),
        ("GET", "/stats") => t.lat_stats.observe(elapsed_s),
        _ => {}
    }
    if status >= 400 {
        state.stats.errors.fetch_add(1, Ordering::Relaxed);
        t.errors.inc();
    }
    let rid_header = rid.to_string();
    let mut headers: Vec<(&str, &str)> = vec![("x-titserved-request-id", rid_header.as_str())];
    if cache != "none" {
        headers.push(("x-titserved-cache", cache));
    }
    let content_type = if request.path == "/metrics" {
        "text/plain; version=0.0.4"
    } else {
        "application/json"
    };
    let _ = http::write_response(&mut stream, status, content_type, &headers, body.as_bytes());
    if state.config.access_log {
        // Structured single-line access log: one line per request.
        eprintln!(
            "titserved: rid={rid} method={} path={} status={status} cache={cache} bytes={} dur_ms={:.3}",
            request.method,
            request.path,
            body.len(),
            elapsed_s * 1e3
        );
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
            access_log: false,
        });
        let key = QueryKey {
            trace: 1,
            platform: 2,
            config: 3,
            ranks: 4,
        };
        let inflight = Arc::new(InFlight::default());
        let slot = MemoSlot::Pending(Arc::clone(&inflight));
        state.memo.lock().unwrap().insert(key, slot);
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
}
