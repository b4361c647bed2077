//! Virtual simulation time.
//!
//! Time is measured in integer milliseconds from the start of the
//! simulation. Using integers (rather than `f64`) keeps event ordering
//! exact and the whole simulation bit-for-bit deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in milliseconds since simulation start.
///
/// `SimTime` is also used for durations (the arithmetic is the same); the
/// paper's task durations range from sub-second (Spark) to minutes
/// (Hadoop), so millisecond resolution is comfortably fine-grained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero — the start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time (used as an "infinitely far" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// The raw millisecond count.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// This time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Saturating subtraction: `self - other`, or zero if `other > self`.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Multiply a duration by a scalar (used for scaling workloads).
    pub fn scale(self, factor: f64) -> SimTime {
        debug_assert!(factor >= 0.0 && factor.is_finite());
        SimTime((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime underflow: {self} - {rhs}");
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000 && self.0.is_multiple_of(100) {
            write!(f, "{:.1}s", self.as_secs_f64())
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let t = SimTime::from_millis(2500);
        assert_eq!(t.as_millis(), 2500);
        assert_eq!(t.as_secs_f64(), 2.5);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(100);
        let b = SimTime::from_millis(40);
        assert_eq!(a + b, SimTime::from_millis(140));
        assert_eq!(a - b, SimTime::from_millis(60));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_millis(140));
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(
            SimTime::from_millis(100).scale(0.5),
            SimTime::from_millis(50)
        );
        assert_eq!(SimTime::from_millis(3).scale(0.5), SimTime::from_millis(2));
        // 1.5 rounds to 2
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_millis(5) < SimTime::from_millis(6));
        assert_eq!(format!("{}", SimTime::from_millis(7)), "7ms");
        assert_eq!(format!("{}", SimTime::from_millis(3000)), "3.0s");
    }
}
