use mobipriv_geo::{LatLng, LocalFrame, Meters, Point, Seconds};
use mobipriv_model::{Timestamp, Trace};

/// Parameters of stay-point detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StayPointConfig {
    /// Roaming radius: how far the user may wander while still counting
    /// as "staying" (meters). 100 m is the customary setting on GPS data.
    pub max_radius_m: f64,
    /// Minimum time spent inside the radius to call it a stay.
    pub min_dwell: Seconds,
}

impl Default for StayPointConfig {
    fn default() -> Self {
        StayPointConfig {
            max_radius_m: 100.0,
            min_dwell: Seconds::from_minutes(15.0),
        }
    }
}

/// A detected stay: the user remained within the roaming radius from
/// `arrival` to `departure`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StayPoint {
    /// Mean position of the fixes comprising the stay.
    pub centroid: LatLng,
    /// First fix instant of the stay.
    pub arrival: Timestamp,
    /// Last fix instant of the stay.
    pub departure: Timestamp,
    /// Number of fixes merged into the stay.
    pub fix_count: usize,
}

impl StayPoint {
    /// Duration of the stay.
    pub fn dwell(&self) -> Seconds {
        self.departure - self.arrival
    }
}

/// Detects stay points in one trace (Li et al. 2008, as used by the
/// Gambs et al. POI attack).
///
/// Scanning left to right, a stay starts at fix `i` and extends while
/// every subsequent fix remains within `max_radius_m` of fix `i`; if the
/// accumulated time reaches `min_dwell` the window becomes a stay point
/// (centroid = mean of member positions) and scanning resumes after it.
///
/// The *raison d'être* of the paper's speed-smoothing mechanism is that
/// on its output this function finds (almost) nothing: at constant speed
/// the time spent inside any radius-`r` disc is `≈ 2r / v`, independent
/// of where the user actually stopped.
pub fn detect_stay_points(trace: &Trace, config: &StayPointConfig) -> Vec<StayPoint> {
    let fixes = trace.fixes();
    let mut out = Vec::new();
    if fixes.is_empty() {
        return out;
    }
    let frame = LocalFrame::new(fixes[0].position);
    let planar: Vec<Point> = fixes.iter().map(|f| frame.project(f.position)).collect();
    let radius = Meters::new(config.max_radius_m.max(0.0));
    let mut i = 0;
    while i < fixes.len() {
        // Extend j while fix j stays within the radius of anchor i.
        let mut j = i;
        while j + 1 < fixes.len() && planar[i].distance(planar[j + 1]).get() <= radius.get() {
            j += 1;
        }
        let dwell = fixes[j].time - fixes[i].time;
        if j > i && dwell.get() >= config.min_dwell.get() {
            let n = (j - i + 1) as f64;
            let centroid_planar = planar[i..=j].iter().fold(Point::ORIGIN, |acc, p| acc + *p) / n;
            out.push(StayPoint {
                centroid: frame.unproject(centroid_planar),
                arrival: fixes[i].time,
                departure: fixes[j].time,
                fix_count: j - i + 1,
            });
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// [`detect_stay_points`] over a precomputed planar projection of the
/// trace — `planar[k]` must equal the trace's own-frame projection of
/// fix `k`, which is exactly what
/// [`DatasetColumns::trace_planar`](mobipriv_model::DatasetColumns::trace_planar)
/// caches — with the radius comparisons pruned through
/// [`within_radius`].
///
/// Output is bit-identical to [`detect_stay_points`]: the projection is
/// the same values read instead of recomputed, and the pruned
/// comparison settles exactly the same way the exact one does.
pub fn detect_stay_points_planar(
    trace: &Trace,
    planar: &[Point],
    config: &StayPointConfig,
) -> Vec<StayPoint> {
    let fixes = trace.fixes();
    let mut out = Vec::new();
    if fixes.is_empty() {
        return out;
    }
    debug_assert_eq!(planar.len(), fixes.len());
    let frame = LocalFrame::new(fixes[0].position);
    let radius = Meters::new(config.max_radius_m.max(0.0));
    let mut i = 0;
    while i < fixes.len() {
        // Extend j while fix j stays within the radius of anchor i.
        let mut j = i;
        while j + 1 < fixes.len() && within_radius(planar[i], planar[j + 1], radius.get()) {
            j += 1;
        }
        let dwell = fixes[j].time - fixes[i].time;
        if j > i && dwell.get() >= config.min_dwell.get() {
            let n = (j - i + 1) as f64;
            let centroid_planar = planar[i..=j].iter().fold(Point::ORIGIN, |acc, p| acc + *p) / n;
            out.push(StayPoint {
                centroid: frame.unproject(centroid_planar),
                arrival: fixes[i].time,
                departure: fixes[j].time,
                fix_count: j - i + 1,
            });
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// Decides `a.distance(b) <= radius` without the `hypot` call whenever
/// a cheap bound already settles it: an axis gap beyond the radius
/// proves the distance exceeds it (`d ≥ max(|dx|, |dy|)`), a 1-norm
/// within the radius proves it does not (`d ≤ |dx| + |dy|`). The
/// `1e-12` relative + `1e-9` absolute slack keeps both shortcuts clear
/// of the exact comparison's few-ulp rounding, so boundary pairs fall
/// through to the very same `distance` call — the decision is
/// bit-identical to the unpruned comparison.
fn within_radius(a: Point, b: Point, radius: f64) -> bool {
    let dx = (a.x - b.x).abs();
    let dy = (a.y - b.y).abs();
    let hi = radius * (1.0 + 1e-12) + 1e-9;
    if dx > hi || dy > hi {
        return false;
    }
    let lo = radius * (1.0 - 1e-12) - 1e-9;
    if dx + dy <= lo {
        return true;
    }
    a.distance(b).get() <= radius
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_model::{Fix, UserId};

    fn fix(lat: f64, lng: f64, t: i64) -> Fix {
        Fix::new(LatLng::new(lat, lng).unwrap(), Timestamp::new(t))
    }

    /// A trace that: moves, dwells 30 min near (45.001, 5), moves on.
    fn trace_with_one_stop() -> Trace {
        let mut fixes = Vec::new();
        // Transit: 10 fixes heading north, 30 s apart, ~33 m hops.
        for i in 0..10 {
            fixes.push(fix(45.0 + 0.0003 * i as f64, 5.0, i * 30));
        }
        // Stop: 30 min of jittered fixes near (45.0027, 5.0). Jitter ≈ ±5 m.
        let stop_start = 300;
        for k in 0..60 {
            let jit = if k % 2 == 0 { 0.00004 } else { -0.00004 };
            fixes.push(fix(45.0027 + jit, 5.0 + jit, stop_start + k * 30));
        }
        // Transit again.
        let resume = stop_start + 60 * 30;
        for i in 0..10 {
            fixes.push(fix(45.0027 + 0.0003 * (i + 1) as f64, 5.0, resume + i * 30));
        }
        Trace::new(UserId::new(1), fixes).unwrap()
    }

    #[test]
    fn finds_the_single_stop() {
        let trace = trace_with_one_stop();
        let sps = detect_stay_points(&trace, &StayPointConfig::default());
        assert_eq!(sps.len(), 1, "{sps:?}");
        let sp = &sps[0];
        assert!(sp.dwell().get() >= 1_500.0, "dwell {}", sp.dwell());
        let expected = LatLng::new(45.0027, 5.0).unwrap();
        let err = sp.centroid.haversine_distance(expected).get();
        assert!(err < 20.0, "centroid off by {err} m");
        assert!(sp.fix_count >= 50);
    }

    #[test]
    fn constant_motion_has_no_stay_points() {
        // 1 m/s steady northbound, fixes every 30 s for an hour.
        let fixes = (0..120)
            .map(|i| fix(45.0 + 0.00027 * i as f64, 5.0, i * 30))
            .collect();
        let trace = Trace::new(UserId::new(1), fixes).unwrap();
        let sps = detect_stay_points(&trace, &StayPointConfig::default());
        assert!(sps.is_empty(), "{sps:?}");
    }

    #[test]
    fn short_pause_below_min_dwell_is_ignored() {
        let mut fixes = Vec::new();
        for i in 0..5 {
            fixes.push(fix(45.0 + 0.0005 * i as f64, 5.0, i * 30));
        }
        // 5-minute pause only.
        for k in 0..10 {
            fixes.push(fix(45.0025, 5.0, 150 + k * 30));
        }
        for i in 0..5 {
            fixes.push(fix(45.0025 + 0.0005 * (i + 1) as f64, 5.0, 450 + i * 30));
        }
        let trace = Trace::new(UserId::new(1), fixes).unwrap();
        let sps = detect_stay_points(&trace, &StayPointConfig::default());
        assert!(sps.is_empty());
    }

    #[test]
    fn two_separate_stops_both_found() {
        let mut fixes = Vec::new();
        let mut t = 0;
        // Stop 1 at (45.0, 5.0) for 20 min.
        for _ in 0..40 {
            fixes.push(fix(45.0, 5.0, t));
            t += 30;
        }
        // Transit 2 km north over ~16 min.
        for i in 1..=32 {
            fixes.push(fix(45.0 + 0.00056 * i as f64, 5.0, t));
            t += 30;
        }
        // Stop 2 for 20 min.
        let lat2 = 45.0 + 0.00056 * 32.0;
        for _ in 0..40 {
            fixes.push(fix(lat2, 5.0, t));
            t += 30;
        }
        let trace = Trace::new(UserId::new(1), fixes).unwrap();
        let sps = detect_stay_points(&trace, &StayPointConfig::default());
        assert_eq!(sps.len(), 2, "{sps:?}");
        assert!(sps[0].arrival < sps[1].arrival);
    }

    #[test]
    fn single_fix_trace_has_no_stay_points() {
        let trace = Trace::new(UserId::new(1), vec![fix(45.0, 5.0, 0)]).unwrap();
        assert!(detect_stay_points(&trace, &StayPointConfig::default()).is_empty());
    }

    #[test]
    fn whole_trace_stationary_is_one_stay_point() {
        let fixes = (0..100).map(|i| fix(45.0, 5.0, i * 60)).collect();
        let trace = Trace::new(UserId::new(1), fixes).unwrap();
        let sps = detect_stay_points(&trace, &StayPointConfig::default());
        assert_eq!(sps.len(), 1);
        assert_eq!(sps[0].fix_count, 100);
        assert_eq!(sps[0].arrival.get(), 0);
        assert_eq!(sps[0].departure.get(), 99 * 60);
    }

    #[test]
    fn zero_min_dwell_accepts_any_pair() {
        let fixes = vec![fix(45.0, 5.0, 0), fix(45.0, 5.0, 30), fix(45.1, 5.0, 60)];
        let trace = Trace::new(UserId::new(1), fixes).unwrap();
        let cfg = StayPointConfig {
            max_radius_m: 100.0,
            min_dwell: Seconds::new(0.0),
        };
        let sps = detect_stay_points(&trace, &cfg);
        assert_eq!(sps.len(), 1);
        assert_eq!(sps[0].fix_count, 2);
    }

    #[test]
    fn planar_variant_matches_exactly_including_boundary_hops() {
        // Hops straddling the 100 m radius from several directions, so
        // both cheap shortcuts of `within_radius` and the exact
        // fall-through all fire.
        let mut fixes = Vec::new();
        for i in 0..40 {
            let (dlat, dlng) = match i % 4 {
                0 => (0.0, 0.0),
                1 => (0.00089, 0.0),             // ~99 m north: inside
                2 => (0.0, 0.00127),             // ~100 m east: boundary
                _ => (0.0009 * i as f64, 0.001), // far: outside
            };
            fixes.push(fix(45.0 + dlat, 5.0 + dlng, i * 120));
        }
        let trace = Trace::new(UserId::new(1), fixes).unwrap();
        for radius in [50.0, 100.0, 250.0] {
            let cfg = StayPointConfig {
                max_radius_m: radius,
                min_dwell: Seconds::new(0.0),
            };
            let frame = LocalFrame::new(trace.first().position);
            let planar: Vec<Point> = trace
                .fixes()
                .iter()
                .map(|f| frame.project(f.position))
                .collect();
            assert_eq!(
                detect_stay_points_planar(&trace, &planar, &cfg),
                detect_stay_points(&trace, &cfg),
                "radius {radius}"
            );
        }
    }
}
