//! Order statistics over timed samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (exclusive method), because that is what judges this benchmark's
//! run-to-run spread; the median is the ordinary middle value.

/// Five-number summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Interquartile distance as a share of the median.
    pub fn rel_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Middle value (mean of the two middle values for even `n`).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `i`-th of `n` exclusive-method cut points of sorted `v`
/// (`v.len() >= 2`).
fn cut_point(v: &[f64], i: usize, n: usize) -> f64 {
    let m = v.len();
    let j = (i * (m + 1) / n).clamp(1, m - 1);
    let delta = (i * (m + 1)) as f64 - (j * n) as f64;
    (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
}

/// Summary of `values`; a single sample is its own quartiles.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    let (&min, &max) = (v.first()?, v.last()?);
    let (q1, q3) = if v.len() < 2 {
        (min, max)
    } else {
        (cut_point(&v, 1, 4), cut_point(&v, 3, 4))
    };
    Some(Summary {
        n: v.len(),
        min,
        q1,
        median: median(&v),
        q3,
        max,
    })
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert_eq!((s.n, s.min, s.max), (5, 1.0, 16.0));
        assert_eq!(s.rel_spread(), (12.0 - 1.5) / 4.0);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
    }

    #[test]
    fn single_sample_and_empty() {
        let s = summarize(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
        assert_eq!(s.rel_spread(), 0.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }
}
