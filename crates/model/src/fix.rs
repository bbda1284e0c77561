use std::fmt;

use mobipriv_geo::{LatLng, Meters, MetersPerSecond, Seconds};

use crate::Timestamp;

/// One GPS sample: a position and the instant it was recorded.
///
/// ```
/// use mobipriv_model::{Fix, Timestamp};
/// use mobipriv_geo::LatLng;
/// # fn main() -> Result<(), mobipriv_geo::GeoError> {
/// let fix = Fix::new(LatLng::new(45.76, 4.84)?, Timestamp::new(1_000));
/// assert_eq!(fix.time.get(), 1_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fix {
    /// Recorded position.
    pub position: LatLng,
    /// Instant of the sample.
    pub time: Timestamp,
}

impl Fix {
    /// Creates a fix.
    pub const fn new(position: LatLng, time: Timestamp) -> Self {
        Fix { position, time }
    }

    /// Great-circle distance between the positions of two fixes.
    pub fn distance_to(&self, other: &Fix) -> Meters {
        self.position.haversine_distance(other.position)
    }

    /// Signed elapsed time from `self` to `other`.
    pub fn time_to(&self, other: &Fix) -> Seconds {
        other.time - self.time
    }

    /// Average speed needed to move from `self` to `other`.
    ///
    /// Returns `None` when the fixes are simultaneous (speed undefined).
    pub fn speed_to(&self, other: &Fix) -> Option<MetersPerSecond> {
        let dt = self.time_to(other);
        if dt.get() == 0.0 {
            return None;
        }
        Some(self.distance_to(other) / dt.abs())
    }

    /// The fix obtained by linear (local-frame) interpolation between two
    /// fixes at instant `t`, clamped to `[self.time, other.time]`.
    pub fn interpolate_at(&self, other: &Fix, t: Timestamp) -> Fix {
        let span = (other.time - self.time).get();
        if span <= 0.0 {
            return Fix::new(self.position, t);
        }
        let f = ((t - self.time).get() / span).clamp(0.0, 1.0);
        Fix::new(self.position.interpolate(other.position, f), t)
    }
}

impl fmt::Display for Fix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.position, self.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fix(lat: f64, lng: f64, t: i64) -> Fix {
        Fix::new(LatLng::new(lat, lng).unwrap(), Timestamp::new(t))
    }

    #[test]
    fn distance_and_time() {
        let a = fix(0.0, 0.0, 0);
        let b = fix(0.0, 1.0, 3_600);
        assert!((a.distance_to(&b).get() - 111_195.0).abs() < 150.0);
        assert_eq!(a.time_to(&b).get(), 3_600.0);
        assert_eq!(b.time_to(&a).get(), -3_600.0);
    }

    #[test]
    fn speed_requires_elapsed_time() {
        let a = fix(0.0, 0.0, 0);
        let b = fix(0.0, 0.001, 100);
        let v = a.speed_to(&b).unwrap();
        assert!(v.get() > 0.0);
        let simultaneous = fix(0.0, 0.001, 0);
        assert!(a.speed_to(&simultaneous).is_none());
    }

    #[test]
    fn speed_is_positive_backwards_in_time() {
        let a = fix(0.0, 0.0, 100);
        let b = fix(0.0, 0.001, 0);
        assert!(a.speed_to(&b).unwrap().get() > 0.0);
    }

    #[test]
    fn interpolate_midpoint() {
        let a = fix(45.0, 5.0, 0);
        let b = fix(45.001, 5.001, 100);
        let m = a.interpolate_at(&b, Timestamp::new(50));
        assert_eq!(m.time.get(), 50);
        let da = a.position.haversine_distance(m.position).get();
        let db = m.position.haversine_distance(b.position).get();
        assert!((da - db).abs() < 0.1);
    }

    #[test]
    fn interpolate_clamps_outside_interval() {
        let a = fix(45.0, 5.0, 0);
        let b = fix(45.001, 5.001, 100);
        assert_eq!(
            a.interpolate_at(&b, Timestamp::new(-10)).position,
            a.position
        );
        assert_eq!(
            a.interpolate_at(&b, Timestamp::new(500)).position,
            b.position
        );
    }

    #[test]
    fn interpolate_simultaneous_fixes_stays_put() {
        let a = fix(45.0, 5.0, 50);
        let b = fix(45.001, 5.001, 50);
        let m = a.interpolate_at(&b, Timestamp::new(50));
        assert_eq!(m.position, a.position);
    }
}
