//! Spatial distortion: how far published geometry strays from the truth.

use std::collections::BTreeMap;

use mobipriv_geo::{LocalFrame, Point, Polyline};
use mobipriv_model::{Dataset, Trace, UserId};

/// Summary statistics of a distortion sample (meters).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DistortionSummary {
    /// Number of published points measured.
    pub count: usize,
    /// Mean distortion.
    pub mean: f64,
    /// Median distortion.
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl DistortionSummary {
    /// Builds the summary from raw per-point distances.
    pub fn from_samples(mut samples: Vec<f64>) -> DistortionSummary {
        if samples.is_empty() {
            return DistortionSummary::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        DistortionSummary {
            count,
            mean,
            median: percentile(&samples, 0.5),
            p95: percentile(&samples, 0.95),
            max: *samples.last().expect("non-empty"),
        }
    }
}

/// The `q`-th percentile of an ascending-sorted sample (nearest-rank).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[idx - 1]
}

/// Distance from every published fix to the *path* of the same user's
/// original traces (time-agnostic, matching the paper's "spatial
/// accuracy" notion — speed smoothing distorts time on purpose, so
/// time-aligned comparison would be meaningless).
///
/// Published traces whose user has no original trace are skipped (they
/// cannot be scored). For identifier-swapping mechanisms use
/// [`dataset_distortion_anonymous`] instead: after a swap a label's
/// fixes legitimately belong to another user's path, which this
/// per-label matching would misreport as spatial error.
pub fn dataset_distortion(original: &Dataset, published: &Dataset) -> DistortionSummary {
    distortion_impl(original, published, true)
}

/// Like [`dataset_distortion`] but label-agnostic: each published fix is
/// scored against the nearest original path of *any* user. This is the
/// correct reading for mechanisms that permute identifiers ("the second
/// step only swaps user identifiers but does not alter the location").
pub fn dataset_distortion_anonymous(original: &Dataset, published: &Dataset) -> DistortionSummary {
    distortion_impl(original, published, false)
}

fn distortion_impl(original: &Dataset, published: &Dataset, per_user: bool) -> DistortionSummary {
    let frame = match original.local_frame() {
        Ok(f) => f,
        Err(_) => return DistortionSummary::default(),
    };
    // One polyline per original trace, grouped by user (or pooled under
    // a single key for the anonymous variant).
    let pool = UserId::new(u64::MAX);
    let mut paths: BTreeMap<UserId, Vec<Polyline>> = BTreeMap::new();
    for trace in original.traces() {
        let key = if per_user { trace.user() } else { pool };
        paths
            .entry(key)
            .or_default()
            .push(trace.to_polyline(&frame));
    }
    let mut samples = Vec::new();
    for trace in published.traces() {
        let key = if per_user { trace.user() } else { pool };
        let Some(user_paths) = paths.get(&key) else {
            continue;
        };
        for fix in trace.fixes() {
            let p = frame.project(fix.position);
            let d = user_paths
                .iter()
                .map(|line| line.distance_to(p).get())
                .fold(f64::INFINITY, f64::min);
            if d.is_finite() {
                samples.push(d);
            }
        }
    }
    DistortionSummary::from_samples(samples)
}

/// Symmetric Hausdorff distance between two traces' geometries, in the
/// given frame.
pub fn hausdorff(frame: &LocalFrame, a: &Trace, b: &Trace) -> f64 {
    let pa: Vec<Point> = a
        .fixes()
        .iter()
        .map(|f| frame.project(f.position))
        .collect();
    let pb: Vec<Point> = b
        .fixes()
        .iter()
        .map(|f| frame.project(f.position))
        .collect();
    directed_hausdorff(&pa, &pb).max(directed_hausdorff(&pb, &pa))
}

fn directed_hausdorff(from: &[Point], to: &[Point]) -> f64 {
    from.iter()
        .map(|p| {
            to.iter()
                .map(|q| p.distance(*q).get())
                .fold(f64::INFINITY, f64::min)
        })
        .fold(0.0, f64::max)
}

/// Discrete Fréchet distance between two traces' point sequences —
/// order-aware (unlike Hausdorff), so it penalizes re-orderings of the
/// path.
pub fn discrete_frechet(frame: &LocalFrame, a: &Trace, b: &Trace) -> f64 {
    let pa: Vec<Point> = a
        .fixes()
        .iter()
        .map(|f| frame.project(f.position))
        .collect();
    let pb: Vec<Point> = b
        .fixes()
        .iter()
        .map(|f| frame.project(f.position))
        .collect();
    let m = pb.len();
    // Dynamic program over the coupling lattice, one row at a time.
    let mut prev = vec![f64::INFINITY; m];
    let mut cur = vec![f64::INFINITY; m];
    for (i, pai) in pa.iter().enumerate() {
        for (j, pbj) in pb.iter().enumerate() {
            let d = pai.distance(*pbj).get();
            let best_prev = if i == 0 && j == 0 {
                0.0
            } else {
                let mut b = f64::INFINITY;
                if i > 0 {
                    b = b.min(prev[j]);
                }
                if j > 0 {
                    b = b.min(cur[j - 1]);
                }
                if i > 0 && j > 0 {
                    b = b.min(prev[j - 1]);
                }
                b
            };
            cur[j] = d.max(best_prev);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_geo::LatLng;
    use mobipriv_model::{Fix, Timestamp};

    fn frame() -> LocalFrame {
        LocalFrame::new(LatLng::new(45.0, 5.0).unwrap())
    }

    fn trace_from_points(user: u64, pts: &[(f64, f64)]) -> Trace {
        let f = frame();
        let fixes = pts
            .iter()
            .enumerate()
            .map(|(i, (x, y))| {
                Fix::new(
                    f.unproject(Point::new(*x, *y)),
                    Timestamp::new(i as i64 * 10),
                )
            })
            .collect();
        Trace::new(UserId::new(user), fixes).unwrap()
    }

    #[test]
    fn identical_datasets_zero_distortion() {
        let t = trace_from_points(1, &[(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)]);
        let d = Dataset::from_traces(vec![t]);
        let s = dataset_distortion(&d, &d);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.count, 3);
    }

    #[test]
    fn offset_trace_measures_the_offset() {
        let orig = trace_from_points(1, &[(0.0, 0.0), (1_000.0, 0.0)]);
        let shifted = trace_from_points(1, &[(0.0, 50.0), (1_000.0, 50.0)]);
        let s = dataset_distortion(
            &Dataset::from_traces(vec![orig]),
            &Dataset::from_traces(vec![shifted]),
        );
        assert!((s.mean - 50.0).abs() < 1.0, "{s:?}");
        assert!((s.max - 50.0).abs() < 1.0);
    }

    #[test]
    fn distortion_is_time_agnostic() {
        // Same geometry, totally different timestamps: zero distortion.
        let orig = trace_from_points(1, &[(0.0, 0.0), (500.0, 0.0), (1_000.0, 0.0)]);
        let f = frame();
        let fixes = vec![
            Fix::new(f.unproject(Point::new(250.0, 0.0)), Timestamp::new(99_000)),
            Fix::new(f.unproject(Point::new(750.0, 0.0)), Timestamp::new(99_600)),
        ];
        let retimed = Trace::new(UserId::new(1), fixes).unwrap();
        let s = dataset_distortion(
            &Dataset::from_traces(vec![orig]),
            &Dataset::from_traces(vec![retimed]),
        );
        assert!(s.max < 0.5, "{s:?}");
    }

    #[test]
    fn unknown_users_are_skipped() {
        let orig = trace_from_points(1, &[(0.0, 0.0), (100.0, 0.0)]);
        let other = trace_from_points(9, &[(0.0, 0.0), (100.0, 0.0)]);
        let s = dataset_distortion(
            &Dataset::from_traces(vec![orig]),
            &Dataset::from_traces(vec![other]),
        );
        assert_eq!(s.count, 0);
    }

    #[test]
    fn anonymous_variant_ignores_labels() {
        let orig = trace_from_points(1, &[(0.0, 0.0), (100.0, 0.0)]);
        let relabelled = trace_from_points(9, &[(0.0, 0.0), (100.0, 0.0)]);
        let s = dataset_distortion_anonymous(
            &Dataset::from_traces(vec![orig]),
            &Dataset::from_traces(vec![relabelled]),
        );
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn anonymous_variant_matches_nearest_of_any_user() {
        let a = trace_from_points(1, &[(0.0, 0.0), (1_000.0, 0.0)]);
        let b = trace_from_points(2, &[(0.0, 500.0), (1_000.0, 500.0)]);
        // Published under label 1 but geometrically on user 2's path.
        let published = trace_from_points(1, &[(500.0, 500.0)]);
        let per_user = dataset_distortion(
            &Dataset::from_traces(vec![a.clone(), b.clone()]),
            &Dataset::from_traces(vec![published.clone()]),
        );
        let anon = dataset_distortion_anonymous(
            &Dataset::from_traces(vec![a, b]),
            &Dataset::from_traces(vec![published]),
        );
        assert!((per_user.max - 500.0).abs() < 1.0);
        assert!(anon.max < 1.0);
    }

    #[test]
    fn empty_datasets() {
        let s = dataset_distortion(&Dataset::new(), &Dataset::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn summary_statistics_are_consistent() {
        let s = DistortionSummary::from_samples(vec![1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 22.0).abs() < 1e-9);
        assert_eq!(s.p95, 100.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.5), 20.0);
        assert_eq!(percentile(&v, 0.95), 40.0);
        assert_eq!(percentile(&v, 0.01), 10.0);
    }

    #[test]
    fn hausdorff_of_identical_is_zero() {
        let a = trace_from_points(1, &[(0.0, 0.0), (100.0, 0.0)]);
        assert_eq!(hausdorff(&frame(), &a, &a), 0.0);
    }

    #[test]
    fn hausdorff_captures_worst_point() {
        let a = trace_from_points(1, &[(0.0, 0.0), (100.0, 0.0)]);
        let b = trace_from_points(1, &[(0.0, 0.0), (100.0, 300.0)]);
        assert!((hausdorff(&frame(), &a, &b) - 300.0).abs() < 1.0);
    }

    #[test]
    fn frechet_at_least_hausdorff() {
        let a = trace_from_points(1, &[(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)]);
        let b = trace_from_points(1, &[(0.0, 20.0), (100.0, -20.0), (200.0, 20.0)]);
        let f = frame();
        assert!(discrete_frechet(&f, &a, &b) >= hausdorff(&f, &a, &b) - 1e-9);
    }

    #[test]
    fn frechet_penalizes_reversal() {
        let a = trace_from_points(1, &[(0.0, 0.0), (1_000.0, 0.0)]);
        let reversed = trace_from_points(1, &[(1_000.0, 0.0), (0.0, 0.0)]);
        // Same point set: Hausdorff 0, Fréchet large.
        let f = frame();
        assert!(hausdorff(&f, &a, &reversed) < 1e-9);
        assert!(discrete_frechet(&f, &a, &reversed) >= 999.0);
    }

    #[test]
    fn frechet_single_point_traces() {
        let a = trace_from_points(1, &[(0.0, 0.0)]);
        let b = trace_from_points(1, &[(30.0, 40.0)]);
        assert!((discrete_frechet(&frame(), &a, &b) - 50.0).abs() < 1e-9);
    }
}
