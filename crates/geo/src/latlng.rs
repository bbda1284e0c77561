use std::fmt;

use crate::{GeoError, Meters};

/// Mean Earth radius in meters (IUGG).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A validated WGS-84 geographic coordinate.
///
/// Both components are guaranteed finite, with latitude in `[-90, 90]`
/// degrees and longitude in `[-180, 180]` degrees.
///
/// ```
/// use mobipriv_geo::LatLng;
/// # fn main() -> Result<(), mobipriv_geo::GeoError> {
/// let lyon = LatLng::new(45.7640, 4.8357)?;
/// assert!(LatLng::new(120.0, 0.0).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatLng {
    lat: f64,
    lng: f64,
}

impl LatLng {
    /// Creates a coordinate from latitude and longitude in degrees.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidLatitude`] or
    /// [`GeoError::InvalidLongitude`] when a component is not finite or out
    /// of range.
    pub fn new(lat: f64, lng: f64) -> Result<Self, GeoError> {
        if !lat.is_finite() || !(-90.0..=90.0).contains(&lat) {
            return Err(GeoError::InvalidLatitude(lat));
        }
        if !lng.is_finite() || !(-180.0..=180.0).contains(&lng) {
            return Err(GeoError::InvalidLongitude(lng));
        }
        Ok(LatLng { lat, lng })
    }

    /// Creates a coordinate, clamping latitude to `[-90, 90]` and wrapping
    /// longitude into `[-180, 180]`.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::NotFinite`] if either component is NaN or ±∞.
    pub fn new_clamped(lat: f64, lng: f64) -> Result<Self, GeoError> {
        if !lat.is_finite() {
            return Err(GeoError::NotFinite {
                what: "latitude",
                value: lat,
            });
        }
        if !lng.is_finite() {
            return Err(GeoError::NotFinite {
                what: "longitude",
                value: lng,
            });
        }
        let lat = lat.clamp(-90.0, 90.0);
        // Only wrap when actually out of range: the add/rem/sub dance
        // perturbs the last ulp of in-range values.
        let lng = if (-180.0..=180.0).contains(&lng) {
            lng
        } else {
            let wrapped = (lng + 180.0).rem_euclid(360.0) - 180.0;
            if wrapped == -180.0 {
                180.0
            } else {
                wrapped
            }
        };
        Ok(LatLng { lat, lng })
    }

    /// Latitude in degrees, in `[-90, 90]`.
    pub fn lat(self) -> f64 {
        self.lat
    }

    /// Longitude in degrees, in `[-180, 180]`.
    pub fn lng(self) -> f64 {
        self.lng
    }

    /// Latitude in radians.
    pub fn lat_rad(self) -> f64 {
        self.lat.to_radians()
    }

    /// Longitude in radians.
    pub fn lng_rad(self) -> f64 {
        self.lng.to_radians()
    }

    /// Great-circle distance to `other` using the haversine formula.
    ///
    /// Accurate to ~0.5 % (spherical Earth model), numerically stable for
    /// both antipodal and very close points.
    ///
    /// ```
    /// use mobipriv_geo::LatLng;
    /// # fn main() -> Result<(), mobipriv_geo::GeoError> {
    /// let a = LatLng::new(0.0, 0.0)?;
    /// let b = LatLng::new(0.0, 1.0)?;
    /// assert!((a.haversine_distance(b).get() - 111_195.0).abs() < 100.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn haversine_distance(self, other: LatLng) -> Meters {
        let (phi1, phi2) = (self.lat_rad(), other.lat_rad());
        let dphi = phi2 - phi1;
        let dlambda = other.lng_rad() - self.lng_rad();
        let a =
            (dphi / 2.0).sin().powi(2) + phi1.cos() * phi2.cos() * (dlambda / 2.0).sin().powi(2);
        let c = 2.0 * a.sqrt().asin().min(std::f64::consts::PI);
        Meters::new(EARTH_RADIUS_M * c)
    }

    /// Initial bearing (forward azimuth) from `self` to `other`, in degrees
    /// clockwise from north, in `[0, 360)`.
    pub fn bearing_to(self, other: LatLng) -> f64 {
        let (phi1, phi2) = (self.lat_rad(), other.lat_rad());
        let dlambda = other.lng_rad() - self.lng_rad();
        let y = dlambda.sin() * phi2.cos();
        let x = phi1.cos() * phi2.sin() - phi1.sin() * phi2.cos() * dlambda.cos();
        (y.atan2(x).to_degrees() + 360.0) % 360.0
    }

    /// The destination point reached by travelling `distance` along the
    /// great circle with initial `bearing_deg` (degrees clockwise from
    /// north).
    pub fn destination(self, bearing_deg: f64, distance: Meters) -> LatLng {
        let delta = distance.get() / EARTH_RADIUS_M;
        let theta = bearing_deg.to_radians();
        let phi1 = self.lat_rad();
        let lambda1 = self.lng_rad();
        let phi2 = (phi1.sin() * delta.cos() + phi1.cos() * delta.sin() * theta.cos()).asin();
        let lambda2 = lambda1
            + (theta.sin() * delta.sin() * phi1.cos()).atan2(delta.cos() - phi1.sin() * phi2.sin());
        // asin/atan2 keep us in range; wrap longitude for safety.
        LatLng::new_clamped(phi2.to_degrees(), lambda2.to_degrees())
            .expect("destination from finite inputs is finite")
    }

    /// Linear interpolation between `self` (`f = 0`) and `other` (`f = 1`)
    /// through the local tangent plane at `self`.
    ///
    /// For the sub-100 km spans that occur within a mobility trace the
    /// deviation from the true great-circle midpoint is negligible
    /// (centimeters at kilometre scale), while staying cheap and exact at
    /// the endpoints.
    pub fn interpolate(self, other: LatLng, f: f64) -> LatLng {
        if f <= 0.0 {
            return self;
        }
        if f >= 1.0 {
            return other;
        }
        // Anchor the frame halfway in latitude so the scale factor
        // cos(lat) treats both endpoints symmetrically.
        let anchor = LatLng::new_clamped((self.lat + other.lat) / 2.0, self.lng)
            .expect("mean of valid latitudes is valid");
        let frame = crate::LocalFrame::new(anchor);
        let a = frame.project(self);
        let b = frame.project(other);
        frame.unproject(a.lerp(b, f))
    }

    /// The midpoint between `self` and `other` (see [`interpolate`]).
    ///
    /// [`interpolate`]: LatLng::interpolate
    pub fn midpoint(self, other: LatLng) -> LatLng {
        self.interpolate(other, 0.5)
    }
}

impl fmt::Display for LatLng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lat, self.lng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ll(lat: f64, lng: f64) -> LatLng {
        LatLng::new(lat, lng).unwrap()
    }

    #[test]
    fn new_validates_ranges() {
        assert!(LatLng::new(90.0, 180.0).is_ok());
        assert!(LatLng::new(-90.0, -180.0).is_ok());
        assert!(matches!(
            LatLng::new(90.1, 0.0),
            Err(GeoError::InvalidLatitude(_))
        ));
        assert!(matches!(
            LatLng::new(0.0, 180.1),
            Err(GeoError::InvalidLongitude(_))
        ));
        assert!(LatLng::new(f64::NAN, 0.0).is_err());
        assert!(LatLng::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn new_clamped_wraps_longitude() {
        let p = LatLng::new_clamped(95.0, 190.0).unwrap();
        assert_eq!(p.lat(), 90.0);
        assert!((p.lng() - -170.0).abs() < 1e-9);
        // In-range values (including the ±180 boundary) pass through
        // bit-exact.
        let q = LatLng::new_clamped(0.0, -180.0).unwrap();
        assert_eq!(q.lng(), -180.0);
        let r = LatLng::new_clamped(0.0, -540.0).unwrap();
        assert_eq!(r.lng(), 180.0); // out-of-range wrap avoids -180
        assert!(LatLng::new_clamped(f64::NAN, 0.0).is_err());
    }

    #[test]
    fn haversine_known_distances() {
        // One degree of longitude at the equator ≈ 111.195 km.
        let d = ll(0.0, 0.0).haversine_distance(ll(0.0, 1.0));
        assert!((d.get() - 111_195.0).abs() < 150.0, "{d}");
        // Lyon -> Paris ≈ 391.5 km.
        let d = ll(45.7640, 4.8357).haversine_distance(ll(48.8566, 2.3522));
        assert!((d.get() - 391_500.0).abs() < 2_000.0, "{d}");
    }

    #[test]
    fn haversine_is_symmetric_and_zero_on_self() {
        let a = ll(45.0, 5.0);
        let b = ll(46.0, 6.0);
        assert_eq!(a.haversine_distance(b), b.haversine_distance(a));
        assert_eq!(a.haversine_distance(a).get(), 0.0);
    }

    #[test]
    fn haversine_antipodal_is_half_circumference() {
        let d = ll(0.0, 0.0).haversine_distance(ll(0.0, 180.0));
        let half = std::f64::consts::PI * EARTH_RADIUS_M;
        assert!((d.get() - half).abs() < 1.0);
    }

    #[test]
    fn bearing_cardinal_directions() {
        let origin = ll(0.0, 0.0);
        assert!((origin.bearing_to(ll(1.0, 0.0)) - 0.0).abs() < 1e-6); // north
        assert!((origin.bearing_to(ll(0.0, 1.0)) - 90.0).abs() < 1e-6); // east
        assert!((origin.bearing_to(ll(-1.0, 0.0)) - 180.0).abs() < 1e-6); // south
        assert!((origin.bearing_to(ll(0.0, -1.0)) - 270.0).abs() < 1e-6); // west
    }

    #[test]
    fn destination_round_trips_distance_and_bearing() {
        let start = ll(45.0, 5.0);
        for bearing in [0.0, 37.0, 90.0, 123.0, 270.0, 359.0] {
            let dest = start.destination(bearing, Meters::new(5_000.0));
            let d = start.haversine_distance(dest);
            assert!((d.get() - 5_000.0).abs() < 0.5, "bearing {bearing}: {d}");
            let b = start.bearing_to(dest);
            let diff = (b - bearing).abs().min(360.0 - (b - bearing).abs());
            assert!(diff < 0.01, "bearing {bearing} vs {b}");
        }
    }

    #[test]
    fn interpolate_endpoints_and_midpoint() {
        let a = ll(45.0, 5.0);
        let b = ll(45.01, 5.01);
        assert_eq!(a.interpolate(b, 0.0), a);
        assert_eq!(a.interpolate(b, 1.0), b);
        let mid = a.midpoint(b);
        let da = a.haversine_distance(mid).get();
        let db = mid.haversine_distance(b).get();
        // Equirectangular lerp vs spherical geodesic: tiny mismatch allowed.
        assert!((da - db).abs() < 0.1, "{da} vs {db}");
    }

    #[test]
    fn interpolate_clamps_out_of_range_fractions() {
        let a = ll(45.0, 5.0);
        let b = ll(45.01, 5.01);
        assert_eq!(a.interpolate(b, -0.5), a);
        assert_eq!(a.interpolate(b, 1.5), b);
    }

    #[test]
    fn display_has_six_decimals() {
        assert_eq!(ll(1.0, 2.0).to_string(), "(1.000000, 2.000000)");
    }
}
