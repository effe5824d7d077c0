//! Deterministic pseudo-random number generation for simulation jitter.
//!
//! The kernel itself never uses randomness; this generator exists for the
//! layers that model measurement noise (hardware counter jitter, per-rank
//! variability). It is a small, self-contained xoshiro256**-style generator
//! seeded through SplitMix64, so results are bit-reproducible across
//! platforms and independent of any external crate's version.

/// Deterministic RNG (xoshiro256**).
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> DetRng {
        let mut sm = seed;
        DetRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent stream for a sub-component (e.g. one rank).
    /// Streams derived with different `stream` values are statistically
    /// independent of each other and of the parent.
    pub fn derive(&self, stream: u64) -> DetRng {
        let mut sm = self.s[0] ^ stream.wrapping_mul(0xA24BAED4963EE407);
        DetRng::new(splitmix64(&mut sm))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // 53 mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n` must be positive.
    #[inline]
    #[cfg(test)]
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift rejection-free mapping; bias is negligible for the
        // n values used in simulation (≪ 2^32).
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Standard normal draw (Box–Muller; one value per call, the pair's
    /// second value is discarded to keep the call sequence simple and
    /// deterministic).
    pub(crate) fn normal(&mut self) -> f64 {
        loop {
            let u1 = self.uniform();
            if u1 > 1e-300 {
                let u2 = self.uniform();
                return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            }
        }
    }

    /// A multiplicative jitter factor `exp(sigma * N(0,1))`, clamped to
    /// `[1/(1+5σ), 1+5σ]` so pathological tails cannot destabilise
    /// calibration-sensitive models.
    pub fn lognormal_jitter(&mut self, sigma: f64) -> f64 {
        if sigma == 0.0 {
            return 1.0;
        }
        let f = (sigma * self.normal()).exp();
        let hi = 1.0 + 5.0 * sigma;
        f.clamp(1.0 / hi, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derived_streams_are_deterministic_and_distinct() {
        let root = DetRng::new(7);
        let mut s1 = root.derive(0);
        let mut s1b = root.derive(0);
        let mut s2 = root.derive(1);
        assert_eq!(s1.next_u64(), s1b.next_u64());
        assert_ne!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = DetRng::new(3);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut r = DetRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn below_is_in_range() {
        let mut r = DetRng::new(5);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = DetRng::new(9);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn lognormal_jitter_is_clamped_and_centered() {
        let mut r = DetRng::new(13);
        let sigma = 0.02;
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let f = r.lognormal_jitter(sigma);
            assert!(f >= 1.0 / (1.0 + 5.0 * sigma) && f <= 1.0 + 5.0 * sigma);
            sum += f;
        }
        let mean: f64 = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.005, "mean = {mean}");
        assert_eq!(r.lognormal_jitter(0.0), 1.0);
    }
}
