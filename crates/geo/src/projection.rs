use crate::{LatLng, Point, EARTH_RADIUS_M};

/// An equirectangular local tangent-plane projection.
///
/// The frame is anchored at an `origin` coordinate; [`project`] maps a
/// [`LatLng`] to east/north offsets in meters and [`unproject`] maps back.
/// Within the ~100 km extent of a metropolitan mobility dataset the
/// round-trip error is far below GPS accuracy, which makes this the right
/// tool for every planar computation in the toolkit.
///
/// [`project`]: LocalFrame::project
/// [`unproject`]: LocalFrame::unproject
///
/// ```
/// use mobipriv_geo::{LatLng, LocalFrame};
/// # fn main() -> Result<(), mobipriv_geo::GeoError> {
/// let origin = LatLng::new(45.76, 4.84)?;
/// let frame = LocalFrame::new(origin);
/// let p = frame.project(LatLng::new(45.77, 4.85)?);
/// let back = frame.unproject(p);
/// assert!(origin.haversine_distance(back).get() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalFrame {
    origin: LatLng,
    cos_lat: f64,
}

impl LocalFrame {
    /// Creates a frame anchored at `origin`.
    pub fn new(origin: LatLng) -> Self {
        LocalFrame {
            origin,
            cos_lat: origin.lat_rad().cos(),
        }
    }

    /// The anchor coordinate of the frame.
    pub fn origin(&self) -> LatLng {
        self.origin
    }

    /// Projects a geographic coordinate into the frame (meters east/north
    /// of the origin).
    pub fn project(&self, ll: LatLng) -> Point {
        let dlat = ll.lat_rad() - self.origin.lat_rad();
        let mut dlng = ll.lng_rad() - self.origin.lng_rad();
        // Cross-antimeridian safety: take the short way around.
        if dlng > std::f64::consts::PI {
            dlng -= 2.0 * std::f64::consts::PI;
        } else if dlng < -std::f64::consts::PI {
            dlng += 2.0 * std::f64::consts::PI;
        }
        Point::new(EARTH_RADIUS_M * dlng * self.cos_lat, EARTH_RADIUS_M * dlat)
    }

    /// Maps a planar point back to a geographic coordinate.
    ///
    /// Latitude is clamped and longitude wrapped, so any finite planar
    /// point yields a valid coordinate.
    pub fn unproject(&self, p: Point) -> LatLng {
        let lat = self.origin.lat() + (p.y / EARTH_RADIUS_M).to_degrees();
        let lng = self.origin.lng() + (p.x / (EARTH_RADIUS_M * self.cos_lat)).to_degrees();
        LatLng::new_clamped(lat, lng).expect("finite planar point unprojects to finite coords")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ll(lat: f64, lng: f64) -> LatLng {
        LatLng::new(lat, lng).unwrap()
    }

    #[test]
    fn origin_projects_to_zero() {
        let f = LocalFrame::new(ll(45.0, 5.0));
        let p = f.project(ll(45.0, 5.0));
        assert_eq!(p, Point::ORIGIN);
        assert_eq!(f.origin(), ll(45.0, 5.0));
    }

    #[test]
    fn axes_point_east_and_north() {
        let f = LocalFrame::new(ll(45.0, 5.0));
        let north = f.project(ll(45.01, 5.0));
        assert!(north.y > 0.0 && north.x.abs() < 1e-6);
        let east = f.project(ll(45.0, 5.01));
        assert!(east.x > 0.0 && east.y.abs() < 1e-6);
    }

    #[test]
    fn round_trip_is_sub_millimeter_locally() {
        let f = LocalFrame::new(ll(45.76, 4.84));
        for (lat, lng) in [(45.76, 4.84), (45.80, 4.90), (45.70, 4.78), (45.761, 4.841)] {
            let orig = ll(lat, lng);
            let back = f.unproject(f.project(orig));
            let err = orig.haversine_distance(back).get();
            assert!(err < 1e-3, "round trip error {err} m at ({lat}, {lng})");
        }
    }

    #[test]
    fn projected_distance_close_to_haversine() {
        let f = LocalFrame::new(ll(45.76, 4.84));
        let a = ll(45.76, 4.84);
        let b = ll(45.79, 4.88);
        let planar = f.project(a).distance(f.project(b)).get();
        let sphere = a.haversine_distance(b).get();
        assert!(
            (planar - sphere).abs() / sphere < 1e-3,
            "planar {planar} vs sphere {sphere}"
        );
    }

    #[test]
    fn antimeridian_takes_short_way() {
        let f = LocalFrame::new(ll(0.0, 179.9));
        let p = f.project(ll(0.0, -179.9));
        // 0.2 degrees of longitude at the equator ≈ 22.2 km east, not 40 000 km west.
        assert!(p.x > 0.0, "expected positive (east) x, got {p}");
        assert!(p.x < 30_000.0);
    }

    #[test]
    fn unproject_clamps_extreme_points() {
        let f = LocalFrame::new(ll(89.0, 0.0));
        // 1 000 km north of 89°N would overshoot the pole; must stay valid.
        let p = f.unproject(Point::new(0.0, 1_000_000.0));
        assert!(p.lat() <= 90.0);
    }
}
