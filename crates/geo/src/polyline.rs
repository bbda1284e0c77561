use crate::{GeoError, Meters, Point};

/// A point sampled on a polyline, as returned by
/// [`Polyline::point_at`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSample {
    /// The sampled location.
    pub point: Point,
    /// Index of the segment `[vertex i, vertex i+1]` the sample lies on.
    pub segment: usize,
    /// Fraction along that segment in `[0, 1]`.
    pub fraction: f64,
}

/// An ordered sequence of planar vertices with cumulative-length queries.
///
/// `Polyline` is the geometric backbone of the speed-smoothing mechanism:
/// it answers "where am I after `d` meters of travel?" in `O(log n)` and
/// supports uniform re-sampling by distance.
///
/// Zero-length segments (repeated vertices, i.e. a stationary user) are
/// legal and handled throughout.
///
/// ```
/// use mobipriv_geo::{Point, Polyline};
/// # fn main() -> Result<(), mobipriv_geo::GeoError> {
/// let line = Polyline::new(vec![
///     Point::new(0.0, 0.0),
///     Point::new(100.0, 0.0),
///     Point::new(100.0, 100.0),
/// ])?;
/// assert_eq!(line.length().get(), 200.0);
/// let mid = line.point_at(mobipriv_geo::Meters::new(150.0));
/// assert_eq!(mid.point, Point::new(100.0, 50.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline {
    vertices: Vec<Point>,
    /// `cumulative[i]` = path length from vertex 0 to vertex i.
    cumulative: Vec<f64>,
}

impl Polyline {
    /// Creates a polyline from its vertices.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::EmptyGeometry`] when `vertices` is empty and
    /// [`GeoError::NotFinite`] when any coordinate is NaN or infinite.
    pub fn new(vertices: Vec<Point>) -> Result<Self, GeoError> {
        if vertices.is_empty() {
            return Err(GeoError::EmptyGeometry("polyline"));
        }
        for v in &vertices {
            if !v.is_finite() {
                return Err(GeoError::NotFinite {
                    what: "polyline vertex",
                    value: if v.x.is_finite() { v.y } else { v.x },
                });
            }
        }
        let mut cumulative = Vec::with_capacity(vertices.len());
        let mut acc = 0.0;
        cumulative.push(0.0);
        for w in vertices.windows(2) {
            acc += w[0].distance(w[1]).get();
            cumulative.push(acc);
        }
        Ok(Polyline {
            vertices,
            cumulative,
        })
    }

    /// The vertices of the polyline.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    // A polyline is never empty by construction (`Polyline::new` rejects
    // empty vertex lists), so there is no `is_empty` to pair with.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Returns `true` when the polyline has a single vertex.
    /// (A `Polyline` is never truly empty; see [`Polyline::new`].)
    pub fn is_degenerate(&self) -> bool {
        self.vertices.len() < 2 || self.length().get() == 0.0
    }

    /// Total path length.
    pub fn length(&self) -> Meters {
        Meters::new(*self.cumulative.last().expect("non-empty by invariant"))
    }

    /// Path length from vertex 0 up to vertex `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn cumulative_at(&self, i: usize) -> Meters {
        Meters::new(self.cumulative[i])
    }

    /// The location after travelling `distance` along the path.
    ///
    /// Distances are clamped to `[0, length]`, so the first/last vertex is
    /// returned for out-of-range inputs.
    pub fn point_at(&self, distance: Meters) -> PathSample {
        let d = distance.get().clamp(0.0, self.length().get());
        if self.vertices.len() == 1 {
            return PathSample {
                point: self.vertices[0],
                segment: 0,
                fraction: 0.0,
            };
        }
        // Find the first vertex with cumulative >= d.
        let idx = match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&d).expect("finite lengths"))
        {
            Ok(i) => i,
            Err(i) => i,
        };
        if idx == 0 {
            return PathSample {
                point: self.vertices[0],
                segment: 0,
                fraction: 0.0,
            };
        }
        let seg = idx - 1;
        let seg_start = self.cumulative[seg];
        let seg_len = self.cumulative[idx] - seg_start;
        let fraction = if seg_len > 0.0 {
            (d - seg_start) / seg_len
        } else {
            0.0
        };
        PathSample {
            point: self.vertices[seg].lerp(self.vertices[seg + 1], fraction),
            segment: seg,
            fraction,
        }
    }

    /// Re-samples the path at a uniform spatial `interval`, always
    /// including the first and last vertex.
    ///
    /// The returned points are `interval` meters of *travelled path*
    /// apart, except the final hop which may be shorter. For a degenerate
    /// (zero-length) polyline the single location is returned once.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::NonPositive`] when `interval` is not strictly
    /// positive and finite.
    pub fn resample_by_distance(&self, interval: Meters) -> Result<Vec<Point>, GeoError> {
        let step = interval.get();
        if !step.is_finite() || step <= 0.0 {
            return Err(GeoError::NonPositive {
                what: "resampling interval",
                value: step,
            });
        }
        let total = self.length().get();
        if total == 0.0 {
            return Ok(vec![self.vertices[0]]);
        }
        let mut out = Vec::with_capacity((total / step) as usize + 2);
        let mut d = 0.0;
        while d < total {
            out.push(self.point_at(Meters::new(d)).point);
            d += step;
        }
        out.push(*self.vertices.last().expect("non-empty"));
        Ok(out)
    }

    /// The closest point of the path to `query`, together with its
    /// travelled distance from the start.
    pub fn nearest_point(&self, query: Point) -> (Point, Meters) {
        if self.vertices.len() == 1 {
            return (self.vertices[0], Meters::new(0.0));
        }
        let mut best = (self.vertices[0], 0.0, f64::INFINITY);
        for (i, w) in self.vertices.windows(2).enumerate() {
            let (p, t) = project_on_segment(query, w[0], w[1]);
            let d_sq = p.distance_sq(query);
            if d_sq < best.2 {
                let seg_len = self.cumulative[i + 1] - self.cumulative[i];
                best = (p, self.cumulative[i] + t * seg_len, d_sq);
            }
        }
        (best.0, Meters::new(best.1))
    }

    /// Distance from `query` to the nearest point of the path.
    pub fn distance_to(&self, query: Point) -> Meters {
        let (p, _) = self.nearest_point(query);
        p.distance(query)
    }

    /// Douglas–Peucker simplification: the subset of vertices such that
    /// no removed vertex lies farther than `tolerance` from the
    /// simplified path. Endpoints are always kept.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::NonPositive`] when `tolerance` is not
    /// strictly positive and finite.
    pub fn simplified(&self, tolerance: Meters) -> Result<Polyline, GeoError> {
        let tol = tolerance.get();
        if !tol.is_finite() || tol <= 0.0 {
            return Err(GeoError::NonPositive {
                what: "simplification tolerance",
                value: tol,
            });
        }
        if self.vertices.len() <= 2 {
            return Ok(self.clone());
        }
        let mut keep = vec![false; self.vertices.len()];
        keep[0] = true;
        *keep.last_mut().expect("non-empty") = true;
        // Iterative stack-based recursion over (start, end) spans.
        let mut stack = vec![(0usize, self.vertices.len() - 1)];
        while let Some((start, end)) = stack.pop() {
            if end <= start + 1 {
                continue;
            }
            let (a, b) = (self.vertices[start], self.vertices[end]);
            let mut worst = (0.0f64, start);
            for i in start + 1..end {
                let (proj, _) = project_on_segment(self.vertices[i], a, b);
                let d = proj.distance(self.vertices[i]).get();
                if d > worst.0 {
                    worst = (d, i);
                }
            }
            if worst.0 > tol {
                keep[worst.1] = true;
                stack.push((start, worst.1));
                stack.push((worst.1, end));
            }
        }
        Polyline::new(
            self.vertices
                .iter()
                .zip(&keep)
                .filter(|(_, k)| **k)
                .map(|(v, _)| *v)
                .collect(),
        )
    }
}

/// Projects `q` onto segment `[a, b]`; returns the projected point and the
/// clamped parameter `t ∈ [0, 1]`.
fn project_on_segment(q: Point, a: Point, b: Point) -> (Point, f64) {
    let ab = b - a;
    let len_sq = ab.dot(ab);
    if len_sq == 0.0 {
        return (a, 0.0);
    }
    let t = ((q - a).dot(ab) / len_sq).clamp(0.0, 1.0);
    (a.lerp(b, t), t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Polyline {
        Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 100.0),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_empty_and_non_finite() {
        assert!(matches!(
            Polyline::new(vec![]),
            Err(GeoError::EmptyGeometry(_))
        ));
        assert!(Polyline::new(vec![Point::new(f64::NAN, 0.0)]).is_err());
        assert!(Polyline::new(vec![Point::new(0.0, f64::INFINITY)]).is_err());
    }

    #[test]
    fn length_and_cumulative() {
        let line = l_shape();
        assert_eq!(line.length().get(), 200.0);
        assert_eq!(line.cumulative_at(0).get(), 0.0);
        assert_eq!(line.cumulative_at(1).get(), 100.0);
        assert_eq!(line.cumulative_at(2).get(), 200.0);
    }

    #[test]
    fn point_at_interpolates_and_clamps() {
        let line = l_shape();
        assert_eq!(
            line.point_at(Meters::new(50.0)).point,
            Point::new(50.0, 0.0)
        );
        assert_eq!(
            line.point_at(Meters::new(150.0)).point,
            Point::new(100.0, 50.0)
        );
        assert_eq!(
            line.point_at(Meters::new(-10.0)).point,
            Point::new(0.0, 0.0)
        );
        assert_eq!(
            line.point_at(Meters::new(999.0)).point,
            Point::new(100.0, 100.0)
        );
    }

    #[test]
    fn point_at_vertex_boundaries() {
        let line = l_shape();
        assert_eq!(line.point_at(Meters::new(0.0)).point, Point::new(0.0, 0.0));
        assert_eq!(
            line.point_at(Meters::new(100.0)).point,
            Point::new(100.0, 0.0)
        );
        assert_eq!(
            line.point_at(Meters::new(200.0)).point,
            Point::new(100.0, 100.0)
        );
    }

    #[test]
    fn single_vertex_polyline() {
        let line = Polyline::new(vec![Point::new(5.0, 5.0)]).unwrap();
        assert!(line.is_degenerate());
        assert_eq!(line.length().get(), 0.0);
        assert_eq!(line.point_at(Meters::new(10.0)).point, Point::new(5.0, 5.0));
        let pts = line.resample_by_distance(Meters::new(10.0)).unwrap();
        assert_eq!(pts, vec![Point::new(5.0, 5.0)]);
    }

    #[test]
    fn repeated_vertices_are_legal() {
        let line = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
        ])
        .unwrap();
        assert_eq!(line.length().get(), 10.0);
        assert_eq!(line.point_at(Meters::new(5.0)).point, Point::new(5.0, 0.0));
    }

    #[test]
    fn all_identical_vertices_resample_to_one_point() {
        let line = Polyline::new(vec![Point::new(1.0, 1.0); 5]).unwrap();
        let pts = line.resample_by_distance(Meters::new(3.0)).unwrap();
        assert_eq!(pts, vec![Point::new(1.0, 1.0)]);
    }

    #[test]
    fn resample_uniform_spacing() {
        let line = l_shape();
        let pts = line.resample_by_distance(Meters::new(25.0)).unwrap();
        // 0, 25, ..., 175, plus the final vertex.
        assert_eq!(pts.len(), 9);
        assert_eq!(pts[0], Point::new(0.0, 0.0));
        assert_eq!(*pts.last().unwrap(), Point::new(100.0, 100.0));
        for w in pts.windows(2).take(pts.len() - 2) {
            let d = w[0].distance(w[1]).get();
            assert!((d - 25.0).abs() < 1e-9, "spacing {d}");
        }
    }

    #[test]
    fn resample_rejects_bad_interval() {
        let line = l_shape();
        assert!(line.resample_by_distance(Meters::new(0.0)).is_err());
        assert!(line.resample_by_distance(Meters::new(-1.0)).is_err());
        assert!(line.resample_by_distance(Meters::new(f64::NAN)).is_err());
    }

    #[test]
    fn resample_interval_longer_than_path() {
        let line = l_shape();
        let pts = line.resample_by_distance(Meters::new(1_000.0)).unwrap();
        assert_eq!(pts, vec![Point::new(0.0, 0.0), Point::new(100.0, 100.0)]);
    }

    #[test]
    fn nearest_point_on_segment_interior() {
        let line = l_shape();
        let (p, d) = line.nearest_point(Point::new(50.0, 30.0));
        assert_eq!(p, Point::new(50.0, 0.0));
        assert_eq!(d.get(), 50.0);
        assert_eq!(line.distance_to(Point::new(50.0, 30.0)).get(), 30.0);
    }

    #[test]
    fn nearest_point_clamps_to_endpoints() {
        let line = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)]).unwrap();
        let (p, d) = line.nearest_point(Point::new(-5.0, 5.0));
        assert_eq!(p, Point::new(0.0, 0.0));
        assert_eq!(d.get(), 0.0);
        let (p, d) = line.nearest_point(Point::new(20.0, 0.0));
        assert_eq!(p, Point::new(10.0, 0.0));
        assert_eq!(d.get(), 10.0);
    }

    #[test]
    fn simplify_removes_collinear_vertices() {
        let line = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.1), // 0.1 m off the straight line
            Point::new(100.0, 0.0),
            Point::new(100.0, 100.0),
        ])
        .unwrap();
        let simple = line.simplified(Meters::new(1.0)).unwrap();
        assert_eq!(simple.len(), 3);
        assert_eq!(simple.vertices()[1], Point::new(100.0, 0.0));
    }

    #[test]
    fn simplify_keeps_significant_corners() {
        let line = l_shape();
        let simple = line.simplified(Meters::new(5.0)).unwrap();
        assert_eq!(simple.vertices(), line.vertices());
    }

    #[test]
    fn simplify_error_is_bounded_by_tolerance() {
        // A zig-zag with 10 m amplitude simplified at 15 m collapses to
        // the endpoints; every removed vertex is within the tolerance.
        let vertices: Vec<Point> = (0..20)
            .map(|i| Point::new(i as f64 * 50.0, if i % 2 == 0 { 0.0 } else { 10.0 }))
            .collect();
        let line = Polyline::new(vertices.clone()).unwrap();
        let simple = line.simplified(Meters::new(15.0)).unwrap();
        assert!(simple.len() < line.len());
        for v in &vertices {
            assert!(simple.distance_to(*v).get() <= 15.0 + 1e-9);
        }
    }

    #[test]
    fn simplify_preserves_endpoints_and_validates() {
        let line = l_shape();
        let simple = line.simplified(Meters::new(1_000.0)).unwrap();
        assert_eq!(simple.vertices()[0], *line.vertices().first().unwrap());
        assert_eq!(
            *simple.vertices().last().unwrap(),
            *line.vertices().last().unwrap()
        );
        assert!(line.simplified(Meters::new(0.0)).is_err());
        assert!(line.simplified(Meters::new(f64::NAN)).is_err());
        // Degenerate lines pass through unchanged.
        let point = Polyline::new(vec![Point::new(1.0, 1.0)]).unwrap();
        assert_eq!(point.simplified(Meters::new(5.0)).unwrap().len(), 1);
    }

    #[test]
    fn path_sample_reports_segment_and_fraction() {
        let line = l_shape();
        let s = line.point_at(Meters::new(150.0));
        assert_eq!(s.segment, 1);
        assert!((s.fraction - 0.5).abs() < 1e-12);
    }
}
