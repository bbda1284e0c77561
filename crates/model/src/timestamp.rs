use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use mobipriv_geo::Seconds;

/// An instant in time, stored as whole seconds since the Unix epoch.
///
/// Whole-second resolution matches the sampling granularity of every
/// mobility dataset this toolkit targets, keeps ordering exact and makes
/// the strictly-increasing invariant of [`Trace`](crate::Trace)
/// well-defined.
///
/// ```
/// use mobipriv_model::Timestamp;
/// use mobipriv_geo::Seconds;
///
/// let t0 = Timestamp::new(1_000);
/// let t1 = t0 + Seconds::new(90.0);
/// assert_eq!(t1.get(), 1_090);
/// assert_eq!((t1 - t0).get(), 90.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Timestamp(i64);

impl Timestamp {
    /// Creates a timestamp from seconds since the Unix epoch.
    pub const fn new(seconds: i64) -> Self {
        Timestamp(seconds)
    }

    /// Seconds since the Unix epoch.
    pub const fn get(self) -> i64 {
        self.0
    }

    /// The midpoint between two instants (rounded toward the earlier one).
    pub fn midpoint(self, other: Timestamp) -> Timestamp {
        Timestamp(self.0 + (other.0 - self.0) / 2)
    }

    /// Seconds elapsed since `earlier` (negative if `self` is earlier).
    pub fn since(self, earlier: Timestamp) -> Seconds {
        Seconds::new((self.0 - earlier.0) as f64)
    }
}

impl Add<Seconds> for Timestamp {
    type Output = Timestamp;
    /// Adds a duration, rounding to the nearest whole second.
    fn add(self, rhs: Seconds) -> Timestamp {
        Timestamp(self.0 + rhs.get().round() as i64)
    }
}

impl AddAssign<Seconds> for Timestamp {
    fn add_assign(&mut self, rhs: Seconds) {
        *self = *self + rhs;
    }
}

impl Sub for Timestamp {
    type Output = Seconds;
    fn sub(self, rhs: Timestamp) -> Seconds {
        self.since(rhs)
    }
}

impl Sub<Seconds> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Seconds) -> Timestamp {
        Timestamp(self.0 - rhs.get().round() as i64)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<i64> for Timestamp {
    fn from(seconds: i64) -> Self {
        Timestamp(seconds)
    }
}

impl From<Timestamp> for i64 {
    fn from(t: Timestamp) -> i64 {
        t.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Timestamp::new(100);
        assert_eq!((t + Seconds::new(50.0)).get(), 150);
        assert_eq!((t - Seconds::new(50.0)).get(), 50);
        assert_eq!((Timestamp::new(150) - t).get(), 50.0);
        assert_eq!((t - Timestamp::new(150)).get(), -50.0);
    }

    #[test]
    fn add_rounds_fractional_seconds() {
        let t = Timestamp::new(0);
        assert_eq!((t + Seconds::new(1.4)).get(), 1);
        assert_eq!((t + Seconds::new(1.6)).get(), 2);
    }

    #[test]
    fn add_assign() {
        let mut t = Timestamp::new(10);
        t += Seconds::new(5.0);
        assert_eq!(t.get(), 15);
    }

    #[test]
    fn midpoint_rounds_toward_earlier() {
        assert_eq!(Timestamp::new(0).midpoint(Timestamp::new(10)).get(), 5);
        assert_eq!(Timestamp::new(0).midpoint(Timestamp::new(5)).get(), 2);
        assert_eq!(Timestamp::new(10).midpoint(Timestamp::new(0)).get(), 5);
    }

    #[test]
    fn ordering_and_display() {
        assert!(Timestamp::new(1) < Timestamp::new(2));
        assert_eq!(Timestamp::new(42).to_string(), "t42");
    }
}
