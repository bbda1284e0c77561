use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit_newtype {
    ($(#[$doc:meta])* $name:ident, $suffix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw `f64` value.
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the underlying `f64` value.
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of two values.
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of two values.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns `true` when the value is finite (neither NaN nor ±∞).
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.3}{}", self.0, $suffix)
            }
        }

        impl From<f64> for $name {
            fn from(value: f64) -> Self {
                Self(value)
            }
        }

        impl From<$name> for f64 {
            fn from(value: $name) -> f64 {
                value.0
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }
    };
}

unit_newtype!(
    /// A distance in meters.
    ///
    /// ```
    /// use mobipriv_geo::Meters;
    /// let total = Meters::new(100.0) + Meters::new(50.0);
    /// assert_eq!(total.get(), 150.0);
    /// ```
    Meters,
    "m"
);

unit_newtype!(
    /// A duration in seconds. Durations may be negative when they represent
    /// a signed difference between two instants.
    ///
    /// ```
    /// use mobipriv_geo::Seconds;
    /// assert_eq!((Seconds::new(90.0) / Seconds::new(30.0)), 3.0);
    /// ```
    Seconds,
    "s"
);

unit_newtype!(
    /// A speed in meters per second.
    ///
    /// ```
    /// use mobipriv_geo::{Meters, MetersPerSecond, Seconds};
    /// let v = Meters::new(100.0) / Seconds::new(20.0);
    /// assert_eq!(v, MetersPerSecond::new(5.0));
    /// ```
    MetersPerSecond,
    "m/s"
);

impl Div<Seconds> for Meters {
    type Output = MetersPerSecond;
    fn div(self, rhs: Seconds) -> MetersPerSecond {
        MetersPerSecond::new(self.get() / rhs.get())
    }
}

impl Mul<Seconds> for MetersPerSecond {
    type Output = Meters;
    fn mul(self, rhs: Seconds) -> Meters {
        Meters::new(self.get() * rhs.get())
    }
}

impl Seconds {
    /// Builds a duration from whole minutes.
    pub fn from_minutes(minutes: f64) -> Self {
        Seconds::new(minutes * 60.0)
    }

    /// Builds a duration from whole hours.
    pub fn from_hours(hours: f64) -> Self {
        Seconds::new(hours * 3_600.0)
    }
}

impl Meters {
    /// Builds a distance from kilometers.
    pub fn from_km(km: f64) -> Self {
        Meters::new(km * 1_000.0)
    }
}

impl MetersPerSecond {
    /// Builds a speed from kilometers per hour.
    pub fn from_kmh(kmh: f64) -> Self {
        MetersPerSecond::new(kmh / 3.6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Meters::new(10.0);
        let b = Meters::new(4.0);
        assert_eq!((a + b).get(), 14.0);
        assert_eq!((a - b).get(), 6.0);
        assert_eq!((a * 2.0).get(), 20.0);
        assert_eq!((a / 2.0).get(), 5.0);
        assert_eq!(a / b, 2.5);
        assert_eq!((-a).get(), -10.0);
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut d = Meters::new(1.0);
        d += Meters::new(2.0);
        assert_eq!(d.get(), 3.0);
        d -= Meters::new(0.5);
        assert_eq!(d.get(), 2.5);
    }

    #[test]
    fn speed_from_distance_over_time() {
        let v = Meters::new(90.0) / Seconds::new(30.0);
        assert_eq!(v.get(), 3.0);
        let d = v * Seconds::new(10.0);
        assert_eq!(d, Meters::new(30.0));
    }

    #[test]
    fn convenience_constructors() {
        assert_eq!(Meters::from_km(1.5).get(), 1_500.0);
        assert_eq!(Seconds::from_minutes(2.0).get(), 120.0);
        assert_eq!(Seconds::from_hours(1.0).get(), 3_600.0);
        assert!((MetersPerSecond::from_kmh(36.0).get() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Meters = (1..=4).map(|i| Meters::new(i as f64)).sum();
        assert_eq!(total.get(), 10.0);
    }

    #[test]
    fn min_max_abs() {
        let a = Meters::new(-3.0);
        let b = Meters::new(2.0);
        assert_eq!(a.abs().get(), 3.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_includes_suffix() {
        assert_eq!(Meters::new(1.5).to_string(), "1.500m");
        assert_eq!(Seconds::new(2.0).to_string(), "2.000s");
        assert_eq!(MetersPerSecond::new(3.0).to_string(), "3.000m/s");
    }
}
