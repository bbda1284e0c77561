//! Spatio-temporal range-query workload: the classic analyst utility
//! test. A query asks "how many published points fall within radius `r`
//! of location `c` during time window `w`?" and the metric is the
//! relative error between raw and published answers.

use rand::Rng;

use mobipriv_geo::{LocalFrame, Point, Seconds};
use mobipriv_model::{Dataset, Timestamp};

/// A disc-shaped spatio-temporal counting query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeQuery {
    /// Center of the disc (frame coordinates, meters).
    pub center: Point,
    /// Radius of the disc, meters.
    pub radius_m: f64,
    /// Window start.
    pub from: Timestamp,
    /// Window end (inclusive).
    pub to: Timestamp,
}

impl RangeQuery {
    /// Counts the fixes of `dataset` matching the query.
    pub fn count(&self, frame: &LocalFrame, dataset: &Dataset) -> usize {
        dataset
            .traces()
            .iter()
            .flat_map(|t| t.fixes())
            .filter(|f| {
                f.time >= self.from
                    && f.time <= self.to
                    && frame.project(f.position).distance(self.center).get() <= self.radius_m
            })
            .count()
    }
}

/// Outcome of a range-query error evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryErrorReport {
    /// Number of queries evaluated.
    pub queries: usize,
    /// Mean relative error `|raw − published| / max(raw, sanity)` over
    /// queries with a non-trivial raw answer.
    pub mean_relative_error: f64,
    /// Median relative error.
    pub median_relative_error: f64,
}

/// Generates `n` random queries centred on raw data points (so queries
/// hit populated regions, as an analyst's would), evaluates them on both
/// datasets and reports the relative error distribution.
///
/// `sanity` guards the denominator: queries whose raw count is below it
/// are skipped (relative error on near-empty answers is noise).
pub fn query_error<R: Rng + ?Sized>(
    raw: &Dataset,
    published: &Dataset,
    n: usize,
    radius_m: f64,
    window: Seconds,
    rng: &mut R,
) -> QueryErrorReport {
    let frame = match raw.local_frame() {
        Ok(f) => f,
        Err(_) => return QueryErrorReport::default(),
    };
    let all_fixes: Vec<(Point, Timestamp)> = raw
        .traces()
        .iter()
        .flat_map(|t| t.fixes())
        .map(|f| (frame.project(f.position), f.time))
        .collect();
    if all_fixes.is_empty() {
        return QueryErrorReport::default();
    }
    let sanity = 5usize;
    let mut errors = Vec::new();
    let mut evaluated = 0usize;
    for _ in 0..n {
        let (anchor, t) = all_fixes[rng.gen_range(0..all_fixes.len())];
        let query = RangeQuery {
            center: anchor,
            radius_m,
            from: t,
            to: t + window,
        };
        let raw_count = query.count(&frame, raw);
        if raw_count < sanity {
            continue;
        }
        evaluated += 1;
        let pub_count = query.count(&frame, published);
        errors.push((raw_count as f64 - pub_count as f64).abs() / raw_count as f64);
    }
    if errors.is_empty() {
        return QueryErrorReport {
            queries: evaluated,
            ..QueryErrorReport::default()
        };
    }
    errors.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    QueryErrorReport {
        queries: evaluated,
        mean_relative_error: errors.iter().sum::<f64>() / errors.len() as f64,
        median_relative_error: errors[errors.len() / 2],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_geo::LatLng;
    use mobipriv_model::{Fix, Trace, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset(n: usize) -> Dataset {
        let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
        let fixes = (0..n)
            .map(|i| {
                Fix::new(
                    frame.unproject(Point::new(i as f64 * 10.0, 0.0)),
                    Timestamp::new(i as i64 * 10),
                )
            })
            .collect();
        Dataset::from_traces(vec![Trace::new(UserId::new(1), fixes).unwrap()])
    }

    #[test]
    fn query_counts_spatial_and_temporal_bounds() {
        let d = dataset(100);
        let frame = d.local_frame().unwrap();
        let q = RangeQuery {
            center: frame.project(d.traces()[0].fixes()[0].position),
            radius_m: 45.0,
            from: Timestamp::new(0),
            to: Timestamp::new(20),
        };
        // Points at x=0,10,20,30,40 are within 45 m of x=0... but the
        // frame centers on the bbox middle; use distances relative to
        // the anchor point itself: indices 0..=4 spatially, 0..=2 by
        // time.
        assert_eq!(q.count(&frame, &d), 3);
    }

    #[test]
    fn identical_datasets_zero_error() {
        let d = dataset(200);
        let mut rng = StdRng::seed_from_u64(1);
        let r = query_error(&d, &d, 50, 100.0, Seconds::new(300.0), &mut rng);
        assert!(r.queries > 0);
        assert_eq!(r.mean_relative_error, 0.0);
    }

    #[test]
    fn empty_published_full_error() {
        let d = dataset(200);
        let mut rng = StdRng::seed_from_u64(2);
        let r = query_error(
            &d,
            &Dataset::new(),
            50,
            100.0,
            Seconds::new(300.0),
            &mut rng,
        );
        assert!(r.queries > 0);
        assert!((r.mean_relative_error - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_raw_no_queries() {
        let d = dataset(10);
        let mut rng = StdRng::seed_from_u64(3);
        let r = query_error(
            &Dataset::new(),
            &d,
            50,
            100.0,
            Seconds::new(300.0),
            &mut rng,
        );
        assert_eq!(r.queries, 0);
    }

    #[test]
    fn sparse_raw_answers_are_skipped() {
        // 3 points: every query has raw count < sanity threshold 5.
        let d = dataset(3);
        let mut rng = StdRng::seed_from_u64(4);
        let r = query_error(&d, &d, 20, 15.0, Seconds::new(10.0), &mut rng);
        assert_eq!(r.queries, 0);
    }
}
