//! Virtual timestamps.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// From seconds.
    pub fn from_secs_f64(secs: f64) -> SimTime {
        SimTime(emlio_util::secs_to_nanos(secs))
    }

    /// As seconds.
    pub fn as_secs_f64(self) -> f64 {
        emlio_util::nanos_to_secs(self.0)
    }

    /// Nanosecond value.
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Saturating difference.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, nanos: u64) -> SimTime {
        SimTime(self.0.saturating_add(nanos))
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, nanos: u64) {
        self.0 = self.0.saturating_add(nanos);
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, d: Duration) -> SimTime {
        self + (d.as_nanos().min(u64::MAX as u128) as u64)
    }
}

impl Sub for SimTime {
    type Output = Duration;
    fn sub(self, other: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime(100);
        let b = a + 50u64;
        assert_eq!(b, SimTime(150));
        assert_eq!(b - a, Duration::from_nanos(50));
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        let c = a + Duration::from_nanos(7);
        assert_eq!(c.nanos(), 107);
    }

    #[test]
    fn ordering() {
        assert!(SimTime(1) < SimTime(2));
        assert_eq!(SimTime::ZERO, SimTime(0));
    }
}
