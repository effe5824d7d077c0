//! Host-speed calibration.
//!
//! The sandboxes this benchmark runs in do not run at one speed. Each
//! virtual processor switches between two states about 28 % apart (a
//! fixed arithmetic loop reads 37 ms, then 47 ms, then 37 ms again),
//! sometimes both processors together for tens of seconds, sometimes
//! each on its own every few seconds — more than any regression bound
//! either way. A raw wall time therefore says which state the run
//! landed in, not how fast the code is. So every timed operation is
//! bracketed by a fixed spin kernel run on *every* processor at once
//! (the child may run on any of them, and usually not on the one its
//! parent sits on), and its time is scaled to what it would have been on
//! a host that runs the kernel in [`REFERENCE_S`]. When the spins around
//! an operation disagree — across processors or across time — the speed
//! it ran at is unknown, and its time is set aside. In the calm state of
//! this host the scaled replay times repeat to ~2 % between runs where
//! the raw times spread by ~25 %. Raw times are reported beside the
//! scaled ones.

use std::time::Instant;

/// Spin time of the reference host; the scale factor is 1 on a host
/// that matches it.
pub const REFERENCE_S: f64 = 0.040;

const STEPS: u64 = 20_000_000;

/// Most processors a spin covers; beyond this the kernel runs on a
/// sample of them.
const MAX_SPINNERS: usize = 8;

/// Largest disagreement among the spins around an operation for its
/// time to be trusted. The scale factor is only right when every
/// processor ran at one speed throughout; a state change shows as spins
/// that differ, and scales such a sample by up to 20 % wrong.
pub const STEADY_WITHIN: f64 = 0.06;

/// Runs the calibration kernel — a dependent multiply/add/shift chain,
/// no memory traffic — and returns the seconds it took.
fn kernel() -> f64 {
    let started = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..STEPS {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        x ^= x >> 29;
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64()
}

/// Kernel times measured on all processors at once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spin {
    pub fastest: f64,
    pub slowest: f64,
    pub mean: f64,
}

impl Spin {
    fn of(times: &[f64]) -> Spin {
        Spin {
            fastest: times.iter().copied().fold(f64::INFINITY, f64::min),
            slowest: times.iter().copied().fold(0.0, f64::max),
            mean: times.iter().sum::<f64>() / times.len() as f64,
        }
    }
}

/// One kernel run per processor, concurrently.
pub fn spin() -> Spin {
    let processors = std::thread::available_parallelism().map_or(1, |n| n.get());
    let times: Vec<f64> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..processors.min(MAX_SPINNERS))
            .map(|_| scope.spawn(kernel))
            .collect();
        let mut times = vec![kernel()];
        times.extend(others.into_iter().map(|h| h.join().expect("spin thread")));
        times
    });
    Spin::of(&times)
}

/// How to read the time of an operation that ran between two spins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Factor to reference host speed.
    pub k: f64,
    /// Whether every processor held one speed while the operation ran,
    /// as far as the spins can tell.
    pub steady: bool,
}

impl Scale {
    pub fn between(before: Spin, after: Spin) -> Scale {
        let fastest = before.fastest.min(after.fastest);
        let slowest = before.slowest.max(after.slowest);
        Scale {
            k: REFERENCE_S / ((before.mean + after.mean) / 2.0),
            steady: slowest - fastest <= STEADY_WITHIN * fastest,
        }
    }
}

/// Spins shared between consecutive operations: `c0 op1 c1 op2 c2 …`,
/// each operation scaled by the spins on either side of it.
pub struct Chain {
    last: Spin,
}

impl Chain {
    pub fn start() -> Chain {
        Chain { last: spin() }
    }

    /// Spins again; returns how to read whatever ran since the previous
    /// call (or since `start`).
    pub fn next_scale(&mut self) -> Scale {
        let now = spin();
        let scale = Scale::between(self.last, now);
        self.last = now;
        scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(s: f64) -> Spin {
        Spin::of(&[s, s])
    }

    #[test]
    fn scale_is_one_at_reference_speed_and_shrinks_slow_host_times() {
        assert_eq!(Scale::between(flat(REFERENCE_S), flat(REFERENCE_S)).k, 1.0);
        // A host half as fast takes twice as long for everything.
        let slow = flat(2.0 * REFERENCE_S);
        assert_eq!(Scale::between(slow, slow).k, 0.5);
        assert_eq!(Scale::between(flat(0.03), flat(0.05)).k, 1.0);
    }

    #[test]
    fn steady_needs_agreement_across_time_and_across_processors() {
        assert!(Scale::between(flat(0.040), flat(0.042)).steady);
        assert!(Scale::between(flat(0.042), flat(0.040)).steady);
        // The speed changed while the operation ran.
        assert!(!Scale::between(flat(0.038), flat(0.047)).steady);
        assert!(!Scale::between(flat(0.047), flat(0.038)).steady);
        // One processor was slow all along: which one did the child use?
        let split = Spin::of(&[0.03125, 0.0625]);
        assert_eq!(
            (split.fastest, split.slowest, split.mean),
            (0.03125, 0.0625, 0.046875)
        );
        assert!(!Scale::between(split, split).steady);
    }

    #[test]
    fn chain_scales_by_the_spins_on_either_side() {
        let mut chain = Chain { last: flat(0.03) };
        let s = chain.next_scale();
        assert!(chain.last.fastest > 0.0 && chain.last.fastest <= chain.last.slowest);
        assert_eq!(s, Scale::between(flat(0.03), chain.last));
    }
}
