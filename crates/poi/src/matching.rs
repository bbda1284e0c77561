use mobipriv_geo::LatLng;

/// The outcome of matching extracted POIs against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchReport {
    /// Number of ground-truth POIs.
    pub truth_count: usize,
    /// Number of extracted POIs.
    pub extracted_count: usize,
    /// Number of one-to-one matches within the tolerance.
    pub matched: usize,
    /// `matched / extracted_count` (1.0 when nothing was extracted).
    pub precision: f64,
    /// `matched / truth_count` (1.0 when there was nothing to find).
    pub recall: f64,
    /// Harmonic mean of precision and recall (0.0 when both are 0).
    pub f1: f64,
    /// Mean distance of the matched pairs, meters (0.0 when none).
    pub mean_error_m: f64,
}

/// Greedily matches `extracted` POI positions to `truth` positions:
/// candidate pairs within `tolerance_m` are taken closest-first, each
/// side used at most once.
///
/// This is the scoring step of the POI-retrieval experiments (T1, T6):
/// *recall* is how many true POIs the attacker recovered, *precision*
/// how many of its guesses were real.
pub fn match_pois(truth: &[LatLng], extracted: &[LatLng], tolerance_m: f64) -> MatchReport {
    let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
    for (ti, t) in truth.iter().enumerate() {
        for (ei, e) in extracted.iter().enumerate() {
            let d = t.haversine_distance(*e).get();
            if d <= tolerance_m {
                pairs.push((d, ti, ei));
            }
        }
    }
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
    let mut truth_used = vec![false; truth.len()];
    let mut extracted_used = vec![false; extracted.len()];
    let mut matched = 0usize;
    let mut error_sum = 0.0;
    for (d, ti, ei) in pairs {
        if !truth_used[ti] && !extracted_used[ei] {
            truth_used[ti] = true;
            extracted_used[ei] = true;
            matched += 1;
            error_sum += d;
        }
    }
    let precision = if extracted.is_empty() {
        1.0
    } else {
        matched as f64 / extracted.len() as f64
    };
    let recall = if truth.is_empty() {
        1.0
    } else {
        matched as f64 / truth.len() as f64
    };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    MatchReport {
        truth_count: truth.len(),
        extracted_count: extracted.len(),
        matched,
        precision,
        recall,
        f1,
        mean_error_m: if matched > 0 {
            error_sum / matched as f64
        } else {
            0.0
        },
    }
}

impl MatchReport {
    /// Pools several per-user reports into one dataset-level report
    /// (micro-average: counts are summed before rates are recomputed).
    pub fn aggregate<'a, I: IntoIterator<Item = &'a MatchReport>>(reports: I) -> MatchReport {
        let mut truth_count = 0;
        let mut extracted_count = 0;
        let mut matched = 0;
        let mut error_weighted = 0.0;
        for r in reports {
            truth_count += r.truth_count;
            extracted_count += r.extracted_count;
            matched += r.matched;
            error_weighted += r.mean_error_m * r.matched as f64;
        }
        let precision = if extracted_count == 0 {
            1.0
        } else {
            matched as f64 / extracted_count as f64
        };
        let recall = if truth_count == 0 {
            1.0
        } else {
            matched as f64 / truth_count as f64
        };
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        MatchReport {
            truth_count,
            extracted_count,
            matched,
            precision,
            recall,
            f1,
            mean_error_m: if matched > 0 {
                error_weighted / matched as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ll(lat: f64, lng: f64) -> LatLng {
        LatLng::new(lat, lng).unwrap()
    }

    #[test]
    fn perfect_match() {
        let truth = vec![ll(45.0, 5.0), ll(45.01, 5.0)];
        let report = match_pois(&truth, &truth.clone(), 100.0);
        assert_eq!(report.matched, 2);
        assert_eq!(report.precision, 1.0);
        assert_eq!(report.recall, 1.0);
        assert_eq!(report.f1, 1.0);
        assert_eq!(report.mean_error_m, 0.0);
    }

    #[test]
    fn miss_everything() {
        let truth = vec![ll(45.0, 5.0)];
        let extracted = vec![ll(46.0, 5.0)];
        let report = match_pois(&truth, &extracted, 100.0);
        assert_eq!(report.matched, 0);
        assert_eq!(report.precision, 0.0);
        assert_eq!(report.recall, 0.0);
        assert_eq!(report.f1, 0.0);
    }

    #[test]
    fn one_to_one_matching_no_double_count() {
        // Two extracted points near one truth point: only one may match.
        let truth = vec![ll(45.0, 5.0)];
        let extracted = vec![ll(45.0001, 5.0), ll(45.0002, 5.0)];
        let report = match_pois(&truth, &extracted, 100.0);
        assert_eq!(report.matched, 1);
        assert_eq!(report.recall, 1.0);
        assert_eq!(report.precision, 0.5);
    }

    #[test]
    fn closest_pair_wins() {
        // truth A close to extracted X; truth B close to both but X is
        // taken by A-X being the closest overall pair.
        let truth = vec![ll(45.0, 5.0), ll(45.0005, 5.0)];
        let extracted = vec![ll(45.00001, 5.0)];
        let report = match_pois(&truth, &extracted, 100.0);
        assert_eq!(report.matched, 1);
        assert!(report.mean_error_m < 3.0);
    }

    #[test]
    fn empty_sides_define_rates_sensibly() {
        let nothing: Vec<LatLng> = vec![];
        let some = vec![ll(45.0, 5.0)];
        // Nothing to find, nothing claimed: perfect.
        let r = match_pois(&nothing, &nothing, 100.0);
        assert_eq!((r.precision, r.recall), (1.0, 1.0));
        // Nothing to find, one claim: precision 0.
        let r = match_pois(&nothing, &some, 100.0);
        assert_eq!(r.precision, 0.0);
        assert_eq!(r.recall, 1.0);
        // One to find, nothing claimed: recall 0, precision vacuous 1.
        let r = match_pois(&some, &nothing, 100.0);
        assert_eq!(r.precision, 1.0);
        assert_eq!(r.recall, 0.0);
    }

    #[test]
    fn aggregate_micro_averages() {
        let a = match_pois(&[ll(45.0, 5.0)], &[ll(45.0, 5.0)], 100.0);
        let b = match_pois(&[ll(45.0, 5.0)], &[ll(46.0, 5.0)], 100.0);
        let agg = MatchReport::aggregate([&a, &b]);
        assert_eq!(agg.truth_count, 2);
        assert_eq!(agg.extracted_count, 2);
        assert_eq!(agg.matched, 1);
        assert_eq!(agg.precision, 0.5);
        assert_eq!(agg.recall, 0.5);
    }

    #[test]
    fn tolerance_boundary_inclusive() {
        let truth = vec![ll(45.0, 5.0)];
        // ~111 m north.
        let extracted = vec![ll(45.001, 5.0)];
        let within = match_pois(&truth, &extracted, 112.0);
        assert_eq!(within.matched, 1);
        let outside = match_pois(&truth, &extracted, 100.0);
        assert_eq!(outside.matched, 0);
    }
}
