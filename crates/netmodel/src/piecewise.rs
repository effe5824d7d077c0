//! Piece-wise linear protocol correction factors, after SMPI.
//!
//! Flow-level models are calibrated against MPI point-to-point benchmarks:
//! the achieved bandwidth and effective latency of a message depend on its
//! size (protocol switches, TCP windowing, per-packet costs). SMPI models
//! this with per-size-range multiplicative factors on the nominal link
//! latency and bandwidth; the paper credits this "tuned piece-wise linear
//! network model" for much of the accuracy improvement of the new replay
//! back-end.
//!
//! The default table below is fitted to GigE/TCP clusters of the era
//! (steeper bandwidth penalty for small messages, growing effective
//! latency for large ones). The emulated testbed and the improved replay
//! engine share it; the legacy MSG back-end deliberately ignores it (no
//! per-size rows, only a flat fitted latency factor), reproducing the old
//! implementation's modeling error.

/// One row of the factor table: applies to messages of size `<= max_bytes`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorRange {
    /// Upper bound (inclusive) of the message-size range, in bytes.
    pub max_bytes: u64,
    /// Multiplier on nominal bandwidth (0 < f <= 1).
    pub bandwidth_factor: f64,
    /// Multiplier on nominal latency (f >= 1).
    pub latency_factor: f64,
}

/// A piece-wise linear factor table, ordered by `max_bytes`.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseFactors {
    ranges: Vec<FactorRange>,
    /// Factors for messages larger than every range bound.
    tail: (f64, f64),
}

impl PiecewiseFactors {
    /// Builds a table from ranges (must be sorted by `max_bytes`,
    /// strictly increasing) and the asymptotic `(bandwidth, latency)`
    /// factors for larger messages.
    pub fn new(ranges: Vec<FactorRange>, tail: (f64, f64)) -> PiecewiseFactors {
        for w in ranges.windows(2) {
            assert!(
                w[0].max_bytes < w[1].max_bytes,
                "factor ranges must be strictly increasing"
            );
        }
        for r in &ranges {
            assert!(
                r.bandwidth_factor > 0.0 && r.bandwidth_factor <= 1.0,
                "bandwidth factor out of (0,1]: {}",
                r.bandwidth_factor
            );
            assert!(r.latency_factor >= 1.0, "latency factor below 1");
        }
        assert!(tail.0 > 0.0 && tail.0 <= 1.0 && tail.1 >= 1.0);
        PiecewiseFactors { ranges, tail }
    }

    /// The identity table: no protocol correction.
    pub fn raw() -> PiecewiseFactors {
        PiecewiseFactors {
            ranges: Vec::new(),
            tail: (1.0, 1.0),
        }
    }

    /// Default factors for a GigE/TCP commodity cluster.
    pub fn gige_tcp() -> PiecewiseFactors {
        PiecewiseFactors::new(
            vec![
                FactorRange {
                    max_bytes: 1420, // one MTU payload
                    bandwidth_factor: 0.32,
                    latency_factor: 2.6,
                },
                FactorRange {
                    max_bytes: 16 * 1024,
                    bandwidth_factor: 0.55,
                    latency_factor: 2.6,
                },
                FactorRange {
                    max_bytes: 64 * 1024,
                    bandwidth_factor: 0.72,
                    latency_factor: 2.0,
                },
                FactorRange {
                    max_bytes: 1024 * 1024,
                    bandwidth_factor: 0.88,
                    latency_factor: 2.4,
                },
            ],
            (0.96, 2.8),
        )
    }

    /// `(bandwidth_factor, latency_factor)` applicable to a message of
    /// `bytes`.
    pub fn factors(&self, bytes: u64) -> (f64, f64) {
        for r in &self.ranges {
            if bytes <= r.max_bytes {
                return (r.bandwidth_factor, r.latency_factor);
            }
        }
        self.tail
    }

    /// Effective bandwidth (bytes/s) for a `bytes`-sized message over a
    /// route of nominal bottleneck `nominal_bw`.
    pub fn effective_bandwidth(&self, bytes: u64, nominal_bw: f64) -> f64 {
        self.factors(bytes).0 * nominal_bw
    }

    /// Effective latency (s) for a `bytes`-sized message over a route of
    /// nominal latency `nominal_lat`.
    pub fn effective_latency(&self, bytes: u64, nominal_lat: f64) -> f64 {
        self.factors(bytes).1 * nominal_lat
    }
}

impl Default for PiecewiseFactors {
    fn default() -> Self {
        PiecewiseFactors::gige_tcp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_is_identity() {
        let f = PiecewiseFactors::raw();
        assert_eq!(f.factors(1), (1.0, 1.0));
        assert_eq!(f.factors(u64::MAX), (1.0, 1.0));
        assert_eq!(f.effective_bandwidth(100, 5e8), 5e8);
        assert_eq!(f.effective_latency(100, 1e-5), 1e-5);
    }

    #[test]
    fn default_table_lookup() {
        let f = PiecewiseFactors::gige_tcp();
        assert_eq!(f.factors(100).0, 0.32);
        assert_eq!(f.factors(1420).0, 0.32);
        assert_eq!(f.factors(1421).0, 0.55);
        assert_eq!(f.factors(64 * 1024).0, 0.72);
        assert_eq!(f.factors(10 * 1024 * 1024), (0.96, 2.8));
    }

    #[test]
    fn bandwidth_factor_monotone_in_size() {
        let f = PiecewiseFactors::gige_tcp();
        let sizes = [1u64, 1420, 4096, 32768, 65536, 1 << 20, 1 << 24];
        let mut last = 0.0;
        for s in sizes {
            let bw = f.factors(s).0;
            assert!(bw >= last, "bandwidth factor dropped at size {s}");
            last = bw;
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_ranges_rejected() {
        let _ = PiecewiseFactors::new(
            vec![
                FactorRange {
                    max_bytes: 100,
                    bandwidth_factor: 0.5,
                    latency_factor: 1.0,
                },
                FactorRange {
                    max_bytes: 100,
                    bandwidth_factor: 0.6,
                    latency_factor: 1.0,
                },
            ],
            (1.0, 1.0),
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth factor")]
    fn invalid_factor_rejected() {
        let _ = PiecewiseFactors::new(
            vec![FactorRange {
                max_bytes: 100,
                bandwidth_factor: 1.5,
                latency_factor: 1.0,
            }],
            (1.0, 1.0),
        );
    }
}
