use crate::{GeoError, LatLng, Meters, Point};

/// An axis-aligned geographic bounding box (degrees).
///
/// ```
/// use mobipriv_geo::{BoundingBox, LatLng};
/// # fn main() -> Result<(), mobipriv_geo::GeoError> {
/// let mut bb = BoundingBox::empty();
/// bb.extend(LatLng::new(45.0, 4.0)?);
/// bb.extend(LatLng::new(46.0, 5.0)?);
/// assert!(bb.contains(LatLng::new(45.5, 4.5)?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    min_lat: f64,
    max_lat: f64,
    min_lng: f64,
    max_lng: f64,
}

impl BoundingBox {
    /// Creates an empty box that contains nothing; extend it with
    /// [`extend`](BoundingBox::extend).
    pub fn empty() -> Self {
        BoundingBox {
            min_lat: f64::INFINITY,
            max_lat: f64::NEG_INFINITY,
            min_lng: f64::INFINITY,
            max_lng: f64::NEG_INFINITY,
        }
    }

    /// Builds the tight box around an iterator of coordinates.
    pub fn of<I: IntoIterator<Item = LatLng>>(coords: I) -> Self {
        let mut bb = BoundingBox::empty();
        for c in coords {
            bb.extend(c);
        }
        bb
    }

    /// Returns `true` when no point has been added.
    pub fn is_empty(&self) -> bool {
        self.min_lat > self.max_lat
    }

    /// Grows the box to include `p`.
    pub fn extend(&mut self, p: LatLng) {
        self.min_lat = self.min_lat.min(p.lat());
        self.max_lat = self.max_lat.max(p.lat());
        self.min_lng = self.min_lng.min(p.lng());
        self.max_lng = self.max_lng.max(p.lng());
    }

    /// Returns `true` when `p` lies inside (inclusive).
    pub fn contains(&self, p: LatLng) -> bool {
        !self.is_empty()
            && p.lat() >= self.min_lat
            && p.lat() <= self.max_lat
            && p.lng() >= self.min_lng
            && p.lng() <= self.max_lng
    }

    /// The center of the box.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::EmptyGeometry`] on an empty box.
    pub fn center(&self) -> Result<LatLng, GeoError> {
        if self.is_empty() {
            return Err(GeoError::EmptyGeometry("bounding box center"));
        }
        LatLng::new_clamped(
            (self.min_lat + self.max_lat) / 2.0,
            (self.min_lng + self.max_lng) / 2.0,
        )
    }

    /// South-west corner.
    pub fn south_west(&self) -> Result<LatLng, GeoError> {
        if self.is_empty() {
            return Err(GeoError::EmptyGeometry("bounding box corner"));
        }
        LatLng::new_clamped(self.min_lat, self.min_lng)
    }

    /// North-east corner.
    pub fn north_east(&self) -> Result<LatLng, GeoError> {
        if self.is_empty() {
            return Err(GeoError::EmptyGeometry("bounding box corner"));
        }
        LatLng::new_clamped(self.max_lat, self.max_lng)
    }

    /// The diagonal length of the box.
    pub fn diagonal(&self) -> Result<Meters, GeoError> {
        Ok(self.south_west()?.haversine_distance(self.north_east()?))
    }
}

impl Default for BoundingBox {
    fn default() -> Self {
        BoundingBox::empty()
    }
}

/// An axis-aligned planar rectangle in a local frame (meters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners (any order).
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Builds the tight rectangle around an iterator of points.
    /// Returns `None` for an empty iterator.
    pub fn of<I: IntoIterator<Item = Point>>(points: I) -> Option<Self> {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut r = Rect::new(first, first);
        for p in iter {
            r.min.x = r.min.x.min(p.x);
            r.min.y = r.min.y.min(p.y);
            r.max.x = r.max.x.max(p.x);
            r.max.y = r.max.y.max(p.y);
        }
        Some(r)
    }

    /// A square of side `side` centred at `center`.
    pub fn centered(center: Point, side: f64) -> Self {
        let half = side.abs() / 2.0;
        Rect::new(
            Point::new(center.x - half, center.y - half),
            Point::new(center.x + half, center.y + half),
        )
    }

    /// Minimum corner (south-west).
    pub fn min(&self) -> Point {
        self.min
    }

    /// Maximum corner (north-east).
    pub fn max(&self) -> Point {
        self.max
    }

    /// Center of the rectangle.
    pub fn center(&self) -> Point {
        (self.min + self.max) / 2.0
    }

    /// Width (east-west extent) in meters.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (north-south extent) in meters.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area in square meters.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Returns `true` when `p` lies inside (inclusive).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Returns `true` when the rectangles overlap (inclusive).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
    }

    /// Grows the rectangle by `margin` meters on every side.
    pub fn inflated(&self, margin: f64) -> Rect {
        Rect::new(
            Point::new(self.min.x - margin, self.min.y - margin),
            Point::new(self.max.x + margin, self.max.y + margin),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ll(lat: f64, lng: f64) -> LatLng {
        LatLng::new(lat, lng).unwrap()
    }

    #[test]
    fn empty_box_contains_nothing() {
        let bb = BoundingBox::empty();
        assert!(bb.is_empty());
        assert!(!bb.contains(ll(0.0, 0.0)));
        assert!(bb.center().is_err());
        assert!(bb.diagonal().is_err());
    }

    #[test]
    fn extend_and_contains() {
        let bb = BoundingBox::of([ll(45.0, 4.0), ll(46.0, 5.0)]);
        assert!(bb.contains(ll(45.5, 4.5)));
        assert!(bb.contains(ll(45.0, 4.0))); // inclusive
        assert!(!bb.contains(ll(44.9, 4.5)));
        assert_eq!(bb.center().unwrap(), ll(45.5, 4.5));
        assert_eq!(bb.south_west().unwrap(), ll(45.0, 4.0));
        assert_eq!(bb.north_east().unwrap(), ll(46.0, 5.0));
        assert!(bb.diagonal().unwrap().get() > 100_000.0);
    }

    #[test]
    fn single_point_box() {
        let bb = BoundingBox::of([ll(45.0, 4.0)]);
        assert!(!bb.is_empty());
        assert!(bb.contains(ll(45.0, 4.0)));
        assert_eq!(bb.diagonal().unwrap().get(), 0.0);
    }

    #[test]
    fn rect_corner_order_is_normalized() {
        let r = Rect::new(Point::new(10.0, 20.0), Point::new(-5.0, 0.0));
        assert_eq!(r.min(), Point::new(-5.0, 0.0));
        assert_eq!(r.max(), Point::new(10.0, 20.0));
        assert_eq!(r.width(), 15.0);
        assert_eq!(r.height(), 20.0);
        assert_eq!(r.area(), 300.0);
    }

    #[test]
    fn rect_contains_and_intersects() {
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        assert!(r.contains(Point::new(5.0, 5.0)));
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(!r.contains(Point::new(10.1, 5.0)));
        let other = Rect::new(Point::new(9.0, 9.0), Point::new(20.0, 20.0));
        assert!(r.intersects(&other));
        let far = Rect::new(Point::new(11.0, 11.0), Point::new(12.0, 12.0));
        assert!(!r.intersects(&far));
    }

    #[test]
    fn rect_of_points_and_none_on_empty() {
        assert!(Rect::of(std::iter::empty()).is_none());
        let r = Rect::of([Point::new(1.0, 2.0), Point::new(-1.0, 4.0)]).unwrap();
        assert_eq!(r.min(), Point::new(-1.0, 2.0));
        assert_eq!(r.max(), Point::new(1.0, 4.0));
    }

    #[test]
    fn rect_centered_and_inflated() {
        let r = Rect::centered(Point::new(5.0, 5.0), 4.0);
        assert_eq!(r.min(), Point::new(3.0, 3.0));
        assert_eq!(r.max(), Point::new(7.0, 7.0));
        let g = r.inflated(1.0);
        assert_eq!(g.min(), Point::new(2.0, 2.0));
        assert_eq!(g.width(), 6.0);
        assert_eq!(r.center(), Point::new(5.0, 5.0));
    }
}
