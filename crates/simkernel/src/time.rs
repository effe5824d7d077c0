//! Simulated time and durations.
//!
//! Both types wrap a finite, non-negative `f64` number of seconds. The
//! wrappers exist to (a) make simulated time impossible to confuse with
//! other floating point quantities (bytes, rates, instruction counts) and
//! (b) provide a total order so times can live in ordered collections.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant on the simulated clock, in seconds since the start
/// of the simulation.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Time(f64);

/// A span of simulated time, in seconds. Always finite and non-negative.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Duration(f64);

impl Time {
    /// The simulation epoch.
    pub const ZERO: Time = Time(0.0);

    /// A time later than every completion the kernel can schedule; used as
    /// a sentinel for "never".
    pub const NEVER: Time = Time(f64::MAX);

    /// Builds a time from seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative, NaN, or infinite.
    #[inline]
    pub fn from_secs(secs: f64) -> Time {
        assert!(secs.is_finite() && secs >= 0.0, "invalid Time: {secs}");
        Time(secs)
    }

    /// The number of seconds since the simulation epoch.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// `true` when this is the [`Time::NEVER`] sentinel.
    #[inline]
    pub fn is_never(self) -> bool {
        self.0 == f64::MAX
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `earlier` is later than `self`; a
    /// non-negative duration is returned in release builds by clamping, as
    /// tiny negative residues can appear after long floating-point event
    /// chains.
    #[inline]
    pub(crate) fn since(self, earlier: Time) -> Duration {
        debug_assert!(
            self.0 >= earlier.0 - 1e-9 * earlier.0.abs().max(1.0),
            "time went backwards: {} -> {}",
            earlier.0,
            self.0
        );
        Duration((self.0 - earlier.0).max(0.0))
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Duration {
    /// The empty duration.
    pub const ZERO: Duration = Duration(0.0);

    /// Builds a duration from seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative, NaN, or infinite.
    #[inline]
    pub fn from_secs(secs: f64) -> Duration {
        assert!(secs.is_finite() && secs >= 0.0, "invalid Duration: {secs}");
        Duration(secs)
    }

    /// The number of seconds in this duration.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Amount of `work` units processed over this duration at `rate`
    /// units per second.
    #[inline]
    pub(crate) fn work_at(self, rate: f64) -> f64 {
        self.0 * rate
    }

    /// Duration needed to process `work` units at `rate` units/second.
    /// Returns `None` when the rate is zero or non-positive (the work will
    /// never finish at that rate).
    #[inline]
    pub fn for_work(work: f64, rate: f64) -> Option<Duration> {
        if rate > 0.0 {
            Some(Duration((work / rate).max(0.0)))
        } else {
            None
        }
    }
}

impl Eq for Time {}

impl PartialOrd for Time {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Safe: construction guarantees the payload is never NaN.
        self.0.partial_cmp(&other.0).expect("Time is never NaN")
    }
}

impl Eq for Duration {}

impl PartialOrd for Duration {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Duration {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("Duration is never NaN")
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        if self.is_never() {
            Time::NEVER
        } else {
            Time(self.0 + rhs.0)
        }
    }
}

impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        self.since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: f64) -> Duration {
        Duration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: f64) -> Duration {
        Duration::from_secs(self.0 / rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_never() {
            write!(f, "Time(NEVER)")
        } else {
            write!(f, "Time({:.9}s)", self.0)
        }
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Duration({:.9}s)", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Time::from_secs(1.5);
        assert_eq!(t.as_secs(), 1.5);
        let d = Duration::from_secs(0.25);
        assert_eq!(d.as_secs(), 0.25);
        assert_eq!(Time::ZERO.as_secs(), 0.0);
        assert!(Time::NEVER.is_never());
        assert!(!t.is_never());
    }

    #[test]
    #[should_panic(expected = "invalid Time")]
    fn negative_time_rejected() {
        let _ = Time::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid Time")]
    fn nan_time_rejected() {
        let _ = Time::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid Duration")]
    fn infinite_duration_rejected() {
        let _ = Duration::from_secs(f64::INFINITY);
    }

    #[test]
    fn ordering_is_total() {
        let a = Time::from_secs(1.0);
        let b = Time::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(Time::NEVER > b);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_secs(1.0) + Duration::from_secs(0.5);
        assert_eq!(t.as_secs(), 1.5);
        let d = t - Time::from_secs(1.0);
        assert!((d.as_secs() - 0.5).abs() < 1e-12);
        assert_eq!((Duration::from_secs(2.0) * 3.0).as_secs(), 6.0);
        assert_eq!((Duration::from_secs(6.0) / 3.0).as_secs(), 2.0);
        // Saturating subtraction of durations.
        assert_eq!(
            (Duration::from_secs(1.0) - Duration::from_secs(2.0)).as_secs(),
            0.0
        );
    }

    #[test]
    fn never_is_absorbing_under_addition() {
        assert!((Time::NEVER + Duration::from_secs(1.0)).is_never());
    }

    #[test]
    fn work_rate_roundtrip() {
        let d = Duration::for_work(100.0, 25.0).unwrap();
        assert_eq!(d.as_secs(), 4.0);
        assert_eq!(d.work_at(25.0), 100.0);
        assert!(Duration::for_work(1.0, 0.0).is_none());
        assert!(Duration::for_work(1.0, -5.0).is_none());
    }

    #[test]
    fn since_clamps_tiny_negative_residue() {
        let a = Time::from_secs(1.0);
        let b = Time::from_secs(1.0 - 1e-13);
        assert_eq!(b.since(a).as_secs(), 0.0);
    }
}
