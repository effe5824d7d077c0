//! Wall-clock profiling of replay execution.
//!
//! Where [`simkernel::obs`] answers "what did the *simulated* machine
//! do", this module answers "where did the *host* spend wall time while
//! computing that answer": per-worker work time and the load-imbalance
//! ratio across workers. Every replay carries one — the sequential path
//! reads the clock twice, an island worker three times — and none of it
//! feeds back into simulated times, metrics, manifests, or exports.

use simkernel::obs::json_f64;

/// Wall-time breakdown of one replay worker thread.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerProfile {
    /// Worker index (stable across runs; workers are spawned in
    /// assignment order).
    pub worker: usize,
    /// Islands this worker executed. The sequential path reports one
    /// pseudo-island.
    pub islands: usize,
    /// Global ranks this worker simulated.
    pub ranks: usize,
    /// Seconds spent doing simulation work: preparing engines and
    /// running them to their results.
    pub work_s: f64,
    /// Wall-clock seconds from worker start to worker exit.
    pub wall_s: f64,
}

/// Wall-clock profile of one replay run ([`crate::ReplayReport::profile`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayProfile {
    /// Which execution path ran: `"sequential"` or `"islands"`.
    pub mode: &'static str,
    /// Wall-clock seconds of the whole replay section (scan, partition,
    /// worker execution, merge).
    pub wall_s: f64,
    /// Per-worker breakdowns, in worker-index order.
    pub workers: Vec<WorkerProfile>,
    /// Seconds the replay waited for the thread decoding its text ahead
    /// of it (0 when no such thread ran: `.titb` and in-memory inputs,
    /// the island engine).
    pub decode_wait_s: f64,
    /// Times that thread parked with every rank's next batch decoded.
    pub decode_parks: u64,
}

impl ReplayProfile {
    /// A single-worker profile for the sequential path, where all wall
    /// time is work time.
    pub fn sequential(wall_s: f64, ranks: usize) -> Self {
        ReplayProfile {
            mode: "sequential",
            wall_s,
            workers: vec![WorkerProfile {
                worker: 0,
                islands: 1,
                ranks,
                work_s: wall_s,
                wall_s,
            }],
            decode_wait_s: 0.0,
            decode_parks: 0,
        }
    }

    /// Load-imbalance ratio: max worker work time over mean worker work
    /// time (1.0 = perfectly balanced; 1.0 for empty/idle runs).
    pub fn imbalance(&self) -> f64 {
        let n = self.workers.len();
        if n == 0 {
            return 1.0;
        }
        let total: f64 = self.workers.iter().map(|w| w.work_s).sum();
        let mean = total / n as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        let max = self.workers.iter().map(|w| w.work_s).fold(0.0, f64::max);
        max / mean
    }

    /// Deterministic-shape JSON rendering (field set and order are
    /// fixed; the wall-clock *values* are inherently run-dependent).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.workers.len() * 160);
        out.push_str("{\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        out.push_str(&format!("  \"wall_s\": {},\n", json_f64(self.wall_s)));
        out.push_str(&format!(
            "  \"imbalance\": {},\n",
            json_f64(self.imbalance())
        ));
        out.push_str(&format!(
            "  \"decode_wait_s\": {},\n",
            json_f64(self.decode_wait_s)
        ));
        out.push_str(&format!("  \"decode_parks\": {},\n", self.decode_parks));
        out.push_str("  \"workers\": [\n");
        for (i, w) in self.workers.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"worker\": {}, \"islands\": {}, \"ranks\": {}, \"work_s\": {}, \"wall_s\": {}}}{}\n",
                w.worker,
                w.islands,
                w.ranks,
                json_f64(w.work_s),
                json_f64(w.wall_s),
                if i + 1 < self.workers.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human-readable table for `titreplay inspect --profile`.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(256 + self.workers.len() * 96);
        out.push_str(&format!(
            "replay profile: mode={} wall={:.3}ms imbalance={:.2} decode_wait={:.3}ms decode_parks={}\n",
            self.mode,
            self.wall_s * 1e3,
            self.imbalance(),
            self.decode_wait_s * 1e3,
            self.decode_parks
        ));
        out.push_str("  worker  islands  ranks     work_ms     wall_ms\n");
        for w in &self.workers {
            out.push_str(&format!(
                "  {:>6}  {:>7}  {:>5}  {:>10.3}  {:>10.3}\n",
                w.worker,
                w.islands,
                w.ranks,
                w.work_s * 1e3,
                w.wall_s * 1e3,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(i: usize, work: f64) -> WorkerProfile {
        WorkerProfile {
            worker: i,
            islands: 1,
            ranks: 4,
            work_s: work,
            wall_s: work + 0.001,
        }
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        let p = ReplayProfile {
            mode: "islands",
            wall_s: 0.4,
            workers: vec![worker(0, 0.3), worker(1, 0.1)],
            decode_wait_s: 0.0,
            decode_parks: 0,
        };
        assert!((p.imbalance() - 1.5).abs() < 1e-12);
        assert_eq!(ReplayProfile::sequential(0.0, 2).imbalance(), 1.0);
    }

    #[test]
    fn json_shape_is_fixed() {
        let p = ReplayProfile {
            mode: "islands",
            wall_s: 0.25,
            workers: vec![worker(0, 0.2), worker(1, 0.21)],
            decode_wait_s: 0.0,
            decode_parks: 0,
        };
        let j = p.to_json();
        assert!(j.contains("\"mode\": \"islands\""));
        assert!(j.contains("\"wall_s\": 0.25"));
        assert!(j.contains("\"worker\": 0"));
        assert!(j.contains("\"worker\": 1"));
        assert!(j.contains("\"imbalance\":"));
        assert!(j.contains("\"decode_wait_s\": 0,"));
        assert!(j.contains("\"decode_parks\": 0,"));
        assert!(j.ends_with("]\n}\n"));
    }

    #[test]
    fn text_table_lists_every_worker() {
        let p = ReplayProfile {
            mode: "islands",
            wall_s: 0.4,
            workers: vec![worker(0, 0.3), worker(1, 0.1)],
            decode_wait_s: 0.0,
            decode_parks: 0,
        };
        let t = p.render_text();
        assert!(t.contains("mode=islands"));
        assert!(t.contains("work_ms"));
        assert_eq!(t.lines().count(), 4);
    }
}
