//! Runtime (wall-clock) telemetry primitives: counters, gauges, and
//! fixed-bucket histograms behind an atomics-based registry.
//!
//! This module is the *runtime* counterpart of `simkernel::obs`: where `obs`
//! records what happened in **simulated** time (spans, protocol counters,
//! critical paths — all deterministic), `telemetry` records what the host
//! spends **wall-clock** time and resources on (request latencies, barrier
//! waits, queue depths). The two never mix: nothing in this module feeds
//! back into simulated times, metrics snapshots, manifests, or exports, so
//! every deterministic output stays byte-identical whether telemetry is
//! collected or not.
//!
//! Design discipline (mirrors `obs`):
//!
//! * **No dependencies** — plain `std::sync::atomic` plus hand-written
//!   Prometheus text rendering.
//! * **Zero cost when disabled** — instrumentation sites hold an
//!   `Option` of a metric handle.
//! * **Lock-free hot path** — recording is a relaxed atomic add; only
//!   registration (done once at startup) allocates.
//!
//! Rendering follows the Prometheus text exposition format (version
//! 0.0.4): `# HELP` / `# TYPE` headers per family, cumulative `_bucket`
//! series with an `le` label, plus `_sum` and `_count` for histograms.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous level (queue depth, in-flight requests), set from a
/// snapshot at scrape time.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the level outright.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Default latency bucket upper bounds in seconds: 500µs .. 10s, roughly
/// geometric, chosen so that both a memoized cache hit (~1ms) and a cold
/// replay of a large trace (seconds) land in the interior of the range.
pub const LATENCY_BUCKETS_S: [f64; 14] = [
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// Fixed-bucket histogram of wall-clock durations (seconds).
///
/// Bucket bounds are fixed at construction; observation is one relaxed
/// atomic add per bucket touched plus count and sum. The sum is kept in
/// integer nanoseconds (there is no portable atomic f64 add) and converted
/// to seconds at render time.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One slot per bound plus the implicit `+Inf` overflow slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with the given upper bounds (must be finite,
    /// strictly increasing, non-empty).
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records one observation of `seconds` of wall time. Negative or
    /// non-finite values are clamped to zero.
    pub fn observe(&self, seconds: f64) {
        let s = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        };
        let idx = self.bounds.partition_point(|b| *b < s);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add((s * 1e9) as u64, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations in seconds.
    pub fn sum_s(&self) -> f64 {
        self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Cumulative bucket counts in bound order, ending with the `+Inf`
    /// bucket (== `count()`).
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.buckets
            .iter()
            .map(|b| {
                acc += b.load(Ordering::Relaxed);
                acc
            })
            .collect()
    }
}

/// Kind tag for rendering.
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    /// Family name without labels, e.g. `titserved_requests_total`.
    name: &'static str,
    /// Optional label set rendered inside `{...}`, e.g. `endpoint="/predict"`.
    labels: Option<&'static str>,
    help: &'static str,
    metric: Metric,
}

/// A named collection of metrics rendered in registration order.
///
/// The registry is built once at startup (registration allocates and takes
/// `&mut self`), then shared behind an `Arc`; recording through the handed
/// out `Arc<Counter>` / `Arc<Gauge>` / `Arc<Histogram>` handles is
/// lock-free. `# HELP`/`# TYPE` headers are emitted once per family, on
/// the first entry of that name, so registering several labelled series
/// under one family renders a single well-formed group.
#[derive(Default)]
pub struct Registry {
    entries: Vec<Entry>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers and returns an unlabelled counter.
    pub fn counter(&mut self, name: &'static str, help: &'static str) -> Arc<Counter> {
        self.counter_with(name, None, help)
    }

    /// Registers and returns a counter carrying a fixed label set
    /// (e.g. `endpoint="/predict"`).
    pub fn counter_with(
        &mut self,
        name: &'static str,
        labels: Option<&'static str>,
        help: &'static str,
    ) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.entries.push(Entry {
            name,
            labels,
            help,
            metric: Metric::Counter(Arc::clone(&c)),
        });
        c
    }

    /// Registers and returns an unlabelled gauge.
    pub fn gauge(&mut self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.entries.push(Entry {
            name,
            labels: None,
            help,
            metric: Metric::Gauge(Arc::clone(&g)),
        });
        g
    }

    /// Registers and returns a histogram with the given bucket bounds,
    /// carrying an optional fixed label set.
    pub fn histogram_with(
        &mut self,
        name: &'static str,
        labels: Option<&'static str>,
        help: &'static str,
        bounds: &[f64],
    ) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new(bounds));
        self.entries.push(Entry {
            name,
            labels,
            help,
            metric: Metric::Histogram(Arc::clone(&h)),
        });
        h
    }

    /// Renders every registered metric in the Prometheus text exposition
    /// format (content type `text/plain; version=0.0.4`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 96);
        let mut seen: Vec<&'static str> = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            if !seen.contains(&e.name) {
                seen.push(e.name);
                let kind = match e.metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                out.push_str(&format!(
                    "# HELP {} {}\n# TYPE {} {}\n",
                    e.name, e.help, e.name, kind
                ));
            }
            match &e.metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("{} {}\n", series(e.name, e.labels, None), c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("{} {}\n", series(e.name, e.labels, None), g.get()));
                }
                Metric::Histogram(h) => {
                    let cum = h.cumulative();
                    for (i, bound) in h.bounds.iter().enumerate() {
                        out.push_str(&format!(
                            "{} {}\n",
                            series(
                                &format!("{}_bucket", e.name),
                                e.labels,
                                Some(&format!("le=\"{}\"", fmt_f64(*bound)))
                            ),
                            cum[i]
                        ));
                    }
                    out.push_str(&format!(
                        "{} {}\n",
                        series(&format!("{}_bucket", e.name), e.labels, Some("le=\"+Inf\"")),
                        cum[h.bounds.len()]
                    ));
                    out.push_str(&format!(
                        "{} {}\n",
                        series(&format!("{}_sum", e.name), e.labels, None),
                        fmt_f64(h.sum_s())
                    ));
                    out.push_str(&format!(
                        "{} {}\n",
                        series(&format!("{}_count", e.name), e.labels, None),
                        h.count()
                    ));
                }
            }
        }
        out
    }
}

/// Renders `name{labels,extra}` with either, both, or neither label part.
fn series(name: &str, labels: Option<&str>, extra: Option<&str>) -> String {
    match (labels, extra) {
        (None, None) => name.to_string(),
        (Some(l), None) => format!("{name}{{{l}}}"),
        (None, Some(x)) => format!("{name}{{{x}}}"),
        (Some(l), Some(x)) => format!("{name}{{{l},{x}}}"),
    }
}

/// Plain decimal float rendering (no exponent for the magnitudes used
/// here); mirrors the discipline of `obs::json_f64`.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "NaN".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        return format!("{}", v.trunc());
    }
    let s = format!("{v}");
    if s.contains('e') {
        format!("{v:.9}")
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        assert_eq!(g.get(), 0);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_le() {
        let h = Histogram::new(&[0.01, 0.1, 1.0]);
        h.observe(0.005); // -> first bucket
        h.observe(0.01); // boundary counts as le
        h.observe(0.5); // -> third bucket
        h.observe(50.0); // -> +Inf
        h.observe(-1.0); // clamped to 0 -> first bucket
        assert_eq!(h.count(), 5);
        assert_eq!(h.cumulative(), vec![3, 3, 4, 5]);
        let sum = h.sum_s();
        assert!((sum - 50.515).abs() < 1e-6, "sum {sum}");
    }

    #[test]
    fn prometheus_rendering_shape() {
        let mut reg = Registry::new();
        let c = reg.counter_with(
            "t_requests_total",
            Some("endpoint=\"/predict\""),
            "Requests served.",
        );
        let c2 = reg.counter_with(
            "t_requests_total",
            Some("endpoint=\"/stats\""),
            "Requests served.",
        );
        let g = reg.gauge("t_in_flight", "In-flight requests.");
        let h = reg.histogram_with("t_latency_seconds", None, "Request latency.", &[0.001, 0.1]);
        c.add(3);
        c2.inc();
        g.set(2);
        h.observe(0.0005);
        h.observe(5.0);
        let text = reg.render_prometheus();
        // One header per family even with two labelled series.
        assert_eq!(text.matches("# TYPE t_requests_total counter").count(), 1);
        assert!(text.contains("t_requests_total{endpoint=\"/predict\"} 3\n"));
        assert!(text.contains("t_requests_total{endpoint=\"/stats\"} 1\n"));
        assert!(text.contains("# TYPE t_in_flight gauge\n"));
        assert!(text.contains("t_in_flight 2\n"));
        assert!(text.contains("# TYPE t_latency_seconds histogram\n"));
        assert!(text.contains("t_latency_seconds_bucket{le=\"0.001\"} 1\n"));
        assert!(text.contains("t_latency_seconds_bucket{le=\"0.1\"} 1\n"));
        assert!(text.contains("t_latency_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("t_latency_seconds_count 2\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparsable sample value in {line:?}"
            );
            assert!(parts.next().is_some());
        }
    }

    #[test]
    fn fmt_f64_plain_decimal() {
        assert_eq!(fmt_f64(0.005), "0.005");
        assert_eq!(fmt_f64(1.0), "1");
        assert_eq!(fmt_f64(10.0), "10");
        assert_eq!(fmt_f64(0.0005), "0.0005");
        assert!(!fmt_f64(1e-7).contains('e'));
    }
}
