//! Property-based tests on the geometric substrate.

use mobipriv::geo::{GridIndex, LatLng, LocalFrame, Meters, Point, Polyline, Rect};
use proptest::prelude::*;

fn arb_latlng() -> impl Strategy<Value = LatLng> {
    // Stay away from the poles where equirectangular frames degrade.
    (-75.0f64..75.0, -179.0f64..179.0)
        .prop_map(|(lat, lng)| LatLng::new(lat, lng).expect("in range"))
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((-5_000.0f64..5_000.0, -5_000.0f64..5_000.0), 1..max)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

/// Points snapped to a coarse lattice: distance ties become frequent,
/// so the nearest-query tie-breaking is actually exercised.
fn arb_lattice_points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((-20i32..20, -20i32..20), 1..max).prop_map(|v| {
        v.into_iter()
            .map(|(x, y)| Point::new(x as f64 * 100.0, y as f64 * 100.0))
            .collect()
    })
}

/// Brute-force reference for the nearest-item queries: the admissible
/// item minimizing `(hypot distance, insertion index)`, with the same
/// inclusive `distance_sq ≤ radius²` boundary rule as the grid.
fn brute_nearest(points: &[Point], q: Point, radius: f64) -> Option<usize> {
    points
        .iter()
        .enumerate()
        .filter(|(_, p)| !radius.is_finite() || p.distance_sq(q) <= radius.max(0.0).powi(2))
        .map(|(i, p)| (p.distance(q).get(), i))
        .min_by(|a, b| a.partial_cmp(b).expect("finite distances"))
        .map(|(_, i)| i)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Haversine is a metric-ish distance: symmetric, zero on self,
    /// triangle inequality (up to float slack).
    #[test]
    fn haversine_metric_properties(a in arb_latlng(), b in arb_latlng(), c in arb_latlng()) {
        let ab = a.haversine_distance(b).get();
        let ba = b.haversine_distance(a).get();
        prop_assert!((ab - ba).abs() < 1e-6);
        prop_assert_eq!(a.haversine_distance(a).get(), 0.0);
        let ac = a.haversine_distance(c).get();
        let cb = c.haversine_distance(b).get();
        prop_assert!(ab <= ac + cb + 1e-6);
    }

    /// destination() then haversine_distance() round-trips the distance
    /// and bearing.
    #[test]
    fn destination_round_trip(
        start in arb_latlng(),
        bearing in 0.0f64..360.0,
        dist in 1.0f64..50_000.0,
    ) {
        let end = start.destination(bearing, Meters::new(dist));
        let measured = start.haversine_distance(end).get();
        prop_assert!((measured - dist).abs() < dist * 1e-3 + 0.5,
            "asked {dist}, got {measured}");
    }

    /// Local frames round-trip within centimeters for points within
    /// ~20 km of the origin.
    #[test]
    fn frame_round_trip(origin in arb_latlng(), x in -20_000.0f64..20_000.0, y in -20_000.0f64..20_000.0) {
        let frame = LocalFrame::new(origin);
        let p = Point::new(x, y);
        let back = frame.project(frame.unproject(p));
        prop_assert!(back.distance(p).get() < 0.05, "drift {}", back.distance(p).get());
    }

    /// Polyline resampling: uniform spacing (except the final hop),
    /// endpoints preserved, every sample on the path.
    #[test]
    fn resample_by_distance_properties(points in arb_points(20), step in 10.0f64..500.0) {
        let line = Polyline::new(points).unwrap();
        let samples = line.resample_by_distance(Meters::new(step)).unwrap();
        prop_assert!(!samples.is_empty());
        prop_assert_eq!(samples[0], line.vertices()[0]);
        prop_assert_eq!(*samples.last().unwrap(), *line.vertices().last().unwrap());
        // Along-path spacing is `step`; the euclidean gap between
        // consecutive samples can only shrink where the path folds back
        // on itself, never grow.
        if samples.len() > 2 {
            for w in samples.windows(2).take(samples.len() - 2) {
                let d = w[0].distance(w[1]).get();
                prop_assert!(d <= step + 1e-6, "spacing {d} vs {step}");
            }
        }
        // Sample count matches the arithmetic of the sweep.
        let total = line.length().get();
        if total > 0.0 {
            let expected = (total / step).ceil() as usize + 1;
            prop_assert!(
                samples.len() == expected || samples.len() == expected + 1,
                "count {} vs expected {expected}", samples.len()
            );
        }
        for s in &samples {
            prop_assert!(line.distance_to(*s).get() < 1e-6);
        }
    }

    /// point_at is monotone in travelled distance and clamps at the ends.
    #[test]
    fn point_at_monotone(points in arb_points(15), d1 in 0.0f64..10_000.0, d2 in 0.0f64..10_000.0) {
        let line = Polyline::new(points).unwrap();
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let a = line.point_at(Meters::new(lo));
        let b = line.point_at(Meters::new(hi));
        // Travelled distance to the sample is monotone.
        prop_assert!(line.cumulative_at(a.segment).get() <= line.cumulative_at(b.segment).get() + 1e-9);
        let total = line.length();
        let end = line.point_at(Meters::new(total.get() + 1.0)).point;
        prop_assert_eq!(end, *line.vertices().last().unwrap());
    }

    /// GridIndex radius queries agree exactly with brute force.
    #[test]
    fn grid_index_matches_brute_force(
        points in arb_points(60),
        qx in -5_000.0f64..5_000.0,
        qy in -5_000.0f64..5_000.0,
        radius in 1.0f64..2_000.0,
        cell in 10.0f64..1_000.0,
    ) {
        let mut index = GridIndex::new(cell).unwrap();
        for (i, p) in points.iter().enumerate() {
            index.insert(*p, i);
        }
        let q = Point::new(qx, qy);
        let mut via_index: Vec<usize> = index.neighbours_within(q, radius).copied().collect();
        via_index.sort_unstable();
        let mut brute: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(q).get() <= radius)
            .map(|(i, _)| i)
            .collect();
        brute.sort_unstable();
        prop_assert_eq!(via_index, brute);
    }

    /// GridIndex::nearest_neighbour agrees with a brute-force linear
    /// scan, including the earliest-inserted tie-break, for arbitrary
    /// point sets and cell sizes.
    #[test]
    fn grid_nearest_neighbour_matches_brute_force(
        points in arb_points(60),
        qx in -6_000.0f64..6_000.0,
        qy in -6_000.0f64..6_000.0,
        cell in 10.0f64..1_000.0,
    ) {
        let mut index = GridIndex::new(cell).unwrap();
        for (i, p) in points.iter().enumerate() {
            index.insert(*p, i);
        }
        let q = Point::new(qx, qy);
        let got = index.nearest_neighbour(q).map(|(_, &i)| i);
        prop_assert_eq!(got, brute_nearest(&points, q, f64::INFINITY));
    }

    /// Same agreement on lattice points, where exact distance ties are
    /// common rather than measure-zero.
    #[test]
    fn grid_nearest_neighbour_matches_brute_force_on_ties(
        points in arb_lattice_points(50),
        qx in -20i32..20,
        qy in -20i32..20,
        cell in 10.0f64..500.0,
    ) {
        let mut index = GridIndex::new(cell).unwrap();
        for (i, p) in points.iter().enumerate() {
            index.insert(*p, i);
        }
        let q = Point::new(qx as f64 * 100.0, qy as f64 * 100.0);
        let got = index.nearest_neighbour(q).map(|(_, &i)| i);
        prop_assert_eq!(got, brute_nearest(&points, q, f64::INFINITY));
    }

    /// GridIndex::nearest_within agrees with a brute-force linear scan
    /// for arbitrary radii and cell sizes, including the inclusive
    /// boundary rule.
    #[test]
    fn grid_nearest_within_matches_brute_force(
        points in arb_points(60),
        qx in -6_000.0f64..6_000.0,
        qy in -6_000.0f64..6_000.0,
        radius in 1.0f64..3_000.0,
        cell in 10.0f64..1_000.0,
    ) {
        let mut index = GridIndex::new(cell).unwrap();
        for (i, p) in points.iter().enumerate() {
            index.insert(*p, i);
        }
        let q = Point::new(qx, qy);
        let got = index.nearest_within(q, radius).map(|(_, &i)| i);
        prop_assert_eq!(got, brute_nearest(&points, q, radius));
    }

    /// nearest_within_by with an index key reproduces a sequential
    /// filtered scan's `(distance, index)` minimum exactly.
    #[test]
    fn grid_nearest_within_by_matches_filtered_scan(
        points in arb_lattice_points(50),
        qx in -20i32..20,
        qy in -20i32..20,
        radius in 50.0f64..3_000.0,
        cell in 10.0f64..500.0,
        keep_mod in 1usize..4,
    ) {
        let mut index = GridIndex::new(cell).unwrap();
        for (i, p) in points.iter().enumerate() {
            index.insert(*p, i);
        }
        let q = Point::new(qx as f64 * 100.0, qy as f64 * 100.0);
        let admit = |i: usize| i.is_multiple_of(keep_mod);
        let got = index
            .nearest_within_by(q, radius, |_, _, &i| admit(i).then_some(i))
            .map(|(_, &i)| i);
        let brute = points
            .iter()
            .enumerate()
            .filter(|(i, p)| admit(*i) && p.distance_sq(q) <= radius * radius)
            .map(|(i, p)| (p.distance(q).get(), i))
            .min_by(|a, b| a.partial_cmp(b).expect("finite distances"))
            .map(|(_, i)| i);
        prop_assert_eq!(got, brute);
    }

    /// Removal leaves the index agreeing with brute force over the
    /// surviving points.
    #[test]
    fn grid_nearest_after_removals_matches_brute_force(
        points in arb_lattice_points(40),
        remove_mod in 2usize..5,
        qx in -20i32..20,
        qy in -20i32..20,
        cell in 10.0f64..500.0,
    ) {
        let mut index = GridIndex::new(cell).unwrap();
        for (i, p) in points.iter().enumerate() {
            index.insert(*p, i);
        }
        for (i, p) in points.iter().enumerate() {
            if i % remove_mod == 0 {
                prop_assert!(index.remove(*p, &i));
            }
        }
        let q = Point::new(qx as f64 * 100.0, qy as f64 * 100.0);
        let got = index.nearest_neighbour(q).map(|(_, &i)| i);
        let survivors: Vec<(usize, Point)> = points
            .iter()
            .enumerate()
            .filter(|(i, _)| i % remove_mod != 0)
            .map(|(i, p)| (i, *p))
            .collect();
        let brute = survivors
            .iter()
            .map(|&(i, p)| (p.distance(q).get(), i))
            .min_by(|a, b| a.partial_cmp(b).expect("finite distances"))
            .map(|(_, i)| i);
        prop_assert_eq!(got, brute);
    }

    /// FootprintIndex::candidates returns exactly the footprints a
    /// linear rectangle-intersection scan finds.
    #[test]
    fn footprint_candidates_match_brute_force(
        rects in proptest::collection::vec(
            (-5_000.0f64..5_000.0, -5_000.0f64..5_000.0, 0.0f64..2_000.0, 0.0f64..2_000.0),
            1..40,
        ),
        qx in -6_000.0f64..6_000.0,
        qy in -6_000.0f64..6_000.0,
        qw in 0.0f64..4_000.0,
        qh in 0.0f64..4_000.0,
        cell in 10.0f64..2_000.0,
    ) {
        let rects: Vec<Rect> = rects
            .into_iter()
            .map(|(x, y, w, h)| Rect::new(Point::new(x, y), Point::new(x + w, y + h)))
            .collect();
        let mut index = mobipriv::geo::FootprintIndex::new(cell).unwrap();
        for (i, r) in rects.iter().enumerate() {
            index.insert(*r, i);
        }
        let query = Rect::new(Point::new(qx, qy), Point::new(qx + qw, qy + qh));
        let got = index.candidates(query);
        let brute: Vec<usize> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&query))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, brute);
    }

    /// Interpolation between coordinates stays between them.
    #[test]
    fn latlng_interpolate_bounded(a in arb_latlng(), f in 0.0f64..1.0) {
        // Pick b near a (mobility-scale spans).
        let b = a.destination(37.0, Meters::new(5_000.0));
        let mid = a.interpolate(b, f);
        let total = a.haversine_distance(b).get();
        let da = a.haversine_distance(mid).get();
        let db = mid.haversine_distance(b).get();
        prop_assert!(da + db <= total + 1.0, "{da} + {db} vs {total}");
    }
}
