//! Small statistics helpers used by the experiment harness: per-sample
//! summaries (min/quartiles/max, mean, standard deviation) as reported in
//! the paper's per-process distribution figures.

use std::fmt;

/// Five-number summary plus mean/stddev of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Smallest observation.
    pub min: f64,
    /// First quartile (linear interpolation).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl Summary {
    /// Summarises a sample. Returns `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        let var = sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / sorted.len() as f64;
        Some(Summary {
            count: sorted.len(),
            min: sorted[0],
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            max: *sorted.last().expect("non-empty"),
            mean,
            stddev: var.sqrt(),
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={:.3} q1={:.3} med={:.3} q3={:.3} max={:.3} mean={:.3}±{:.3}",
            self.count, self.min, self.q1, self.median, self.q3, self.max, self.mean, self.stddev
        )
    }
}

/// Linear-interpolation quantile of a **sorted** sample, `q` in `[0, 1]`.
pub(crate) fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.mean, 3.0);
        assert!((s.stddev - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_of_singleton() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.min, 7.0);
        assert_eq!(s.q1, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    fn quantile_interpolates() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&sorted, 0.0), 10.0);
        assert_eq!(quantile(&sorted, 1.0), 40.0);
        assert_eq!(quantile(&sorted, 0.5), 25.0);
        assert!((quantile(&sorted, 1.0 / 3.0) - 20.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The five-number summary is ordered and bounded by the sample.
        #[test]
        fn summary_is_ordered(values in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let s = Summary::of(&values).unwrap();
            prop_assert!(s.min <= s.q1);
            prop_assert!(s.q1 <= s.median);
            prop_assert!(s.median <= s.q3);
            prop_assert!(s.q3 <= s.max);
            prop_assert!(s.mean >= s.min && s.mean <= s.max);
        }

        /// Quantile is monotone in q.
        #[test]
        fn quantile_monotone(mut values in proptest::collection::vec(-1e6f64..1e6, 2..50),
                             qa in 0.0f64..1.0, qb in 0.0f64..1.0) {
            values.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
            prop_assert!(quantile(&values, lo) <= quantile(&values, hi) + 1e-9);
        }
    }
}
