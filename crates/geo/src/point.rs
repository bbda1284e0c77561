use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::Meters;

/// A planar point (or vector) in a local metric frame.
///
/// `x` points east and `y` points north, both in meters relative to the
/// origin of a [`LocalFrame`](crate::LocalFrame). `Point` doubles as a 2-D
/// vector: the usual component-wise operators are provided.
///
/// ```
/// use mobipriv_geo::Point;
/// let a = Point::new(3.0, 4.0);
/// assert_eq!(a.norm(), 5.0);
/// assert_eq!((a * 2.0).x, 6.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East offset in meters.
    pub x: f64,
    /// North offset in meters.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from east/north offsets in meters.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Point) -> Meters {
        Meters::new((self - other).norm())
    }

    /// Squared Euclidean distance to `other` (cheaper than
    /// [`distance`](Point::distance) when only comparisons are needed).
    pub fn distance_sq(self, other: Point) -> f64 {
        let d = self - other;
        d.x * d.x + d.y * d.y
    }

    /// Euclidean norm of the vector.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Dot product.
    pub fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (signed area of the parallelogram).
    pub fn cross(self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Linear interpolation: `self` at `f = 0`, `other` at `f = 1`
    /// (both endpoints exact). `f` outside `[0, 1]` extrapolates.
    pub fn lerp(self, other: Point, f: f64) -> Point {
        if f == 1.0 {
            return other;
        }
        self + (other - self) * f
    }

    /// The unit vector in the same direction, or `None` for the zero
    /// vector.
    pub fn normalized(self) -> Option<Point> {
        let n = self.norm();
        if n > 0.0 {
            Some(self / n)
        } else {
            None
        }
    }

    /// Heading of the vector in degrees clockwise from north, in
    /// `[0, 360)`. Returns `None` for the zero vector.
    pub fn heading(self) -> Option<f64> {
        if self.x == 0.0 && self.y == 0.0 {
            return None;
        }
        Some((self.x.atan2(self.y).to_degrees() + 360.0) % 360.0)
    }

    /// Returns `true` when both components are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Rotates the vector by `angle_rad` radians counter-clockwise.
    pub fn rotated(self, angle_rad: f64) -> Point {
        let (s, c) = angle_rad.sin_cos();
        Point::new(self.x * c - self.y * s, self.x * s + self.y * c)
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point {
    fn add_assign(&mut self, rhs: Point) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Point {
    fn sub_assign(&mut self, rhs: Point) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Neg for Point {
    type Output = Point;
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(a - b, Point::new(-2.0, 3.0));
        assert_eq!(-a, Point::new(-1.0, -2.0));
        assert_eq!(a * 3.0, Point::new(3.0, 6.0));
        assert_eq!(b / 2.0, Point::new(1.5, -0.5));
        let mut c = a;
        c += b;
        assert_eq!(c, Point::new(4.0, 1.0));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn norms_and_distances() {
        let a = Point::new(3.0, 4.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(Point::ORIGIN.distance(a).get(), 5.0);
        assert_eq!(Point::ORIGIN.distance_sq(a), 25.0);
    }

    #[test]
    fn dot_and_cross() {
        let a = Point::new(1.0, 0.0);
        let b = Point::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
    }

    #[test]
    fn lerp_endpoints_and_extrapolation() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(5.0, 10.0));
        assert_eq!(a.lerp(b, 2.0), Point::new(20.0, 40.0));
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Point::ORIGIN.normalized().is_none());
        let n = Point::new(0.0, 5.0).normalized().unwrap();
        assert!((n.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn heading_matches_compass() {
        assert_eq!(Point::new(0.0, 1.0).heading(), Some(0.0)); // north
        assert_eq!(Point::new(1.0, 0.0).heading(), Some(90.0)); // east
        assert_eq!(Point::new(0.0, -1.0).heading(), Some(180.0)); // south
        assert_eq!(Point::new(-1.0, 0.0).heading(), Some(270.0)); // west
        assert_eq!(Point::ORIGIN.heading(), None);
    }

    #[test]
    fn rotation_quarter_turn() {
        let a = Point::new(1.0, 0.0).rotated(std::f64::consts::FRAC_PI_2);
        assert!((a.x - 0.0).abs() < 1e-12);
        assert!((a.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn finite_check() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }
}
