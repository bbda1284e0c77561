//! Distribution-level trip statistics: does the published dataset still
//! "look like" the raw one to an analyst studying trip lengths,
//! durations or speeds?

use mobipriv_model::Dataset;

/// Summary of one scalar distribution over traces.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DistributionSummary {
    /// Number of traces sampled.
    pub count: usize,
    /// Mean value.
    pub mean: f64,
    /// Median value.
    pub median: f64,
}

impl DistributionSummary {
    fn from(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return DistributionSummary::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        DistributionSummary {
            count: samples.len(),
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            median: samples[samples.len() / 2],
        }
    }
}

/// Comparison of raw vs published trip statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TripReport {
    /// Trip path length (meters), raw.
    pub raw_length: DistributionSummary,
    /// Trip path length (meters), published.
    pub published_length: DistributionSummary,
    /// Trip duration (seconds), raw.
    pub raw_duration: DistributionSummary,
    /// Trip duration (seconds), published.
    pub published_duration: DistributionSummary,
    /// Two-sample KS distance between the length distributions.
    pub length_ks: f64,
    /// Two-sample KS distance between the duration distributions.
    pub duration_ks: f64,
}

/// Computes trip statistics for both datasets.
pub fn trip_report(raw: &Dataset, published: &Dataset) -> TripReport {
    let raw_lengths: Vec<f64> = raw.traces().iter().map(|t| t.path_length().get()).collect();
    let pub_lengths: Vec<f64> = published
        .traces()
        .iter()
        .map(|t| t.path_length().get())
        .collect();
    let raw_durations: Vec<f64> = raw.traces().iter().map(|t| t.duration().get()).collect();
    let pub_durations: Vec<f64> = published
        .traces()
        .iter()
        .map(|t| t.duration().get())
        .collect();
    TripReport {
        length_ks: ks_distance(&raw_lengths, &pub_lengths),
        duration_ks: ks_distance(&raw_durations, &pub_durations),
        raw_length: DistributionSummary::from(raw_lengths),
        published_length: DistributionSummary::from(pub_lengths),
        raw_duration: DistributionSummary::from(raw_durations),
        published_duration: DistributionSummary::from(pub_durations),
    }
}

/// Two-sample Kolmogorov–Smirnov statistic: the maximum gap between the
/// empirical CDFs (0 = identical, 1 = fully separated). Either side
/// empty yields 1.0 unless both are empty (0.0).
pub fn ks_distance(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    if a.is_empty() || b.is_empty() {
        return 1.0;
    }
    let mut sa: Vec<f64> = a.to_vec();
    let mut sb: Vec<f64> = b.to_vec();
    sa.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
    sb.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
    let (mut i, mut j) = (0usize, 0usize);
    let mut max_gap = 0.0f64;
    while i < sa.len() && j < sb.len() {
        // Advance both sides through the current value so ties move the
        // two empirical CDFs together.
        let v = sa[i].min(sb[j]);
        while i < sa.len() && sa[i] == v {
            i += 1;
        }
        while j < sb.len() && sb[j] == v {
            j += 1;
        }
        let fa = i as f64 / sa.len() as f64;
        let fb = j as f64 / sb.len() as f64;
        max_gap = max_gap.max((fa - fb).abs());
    }
    max_gap.max(1.0 - i as f64 / sa.len() as f64).max(
        // Whichever side is exhausted, the other's remaining mass gaps.
        1.0 - j as f64 / sb.len() as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_geo::{LatLng, LocalFrame, Point};
    use mobipriv_model::{Fix, Timestamp, Trace, UserId};

    fn trace_of_length(user: u64, meters: f64) -> Trace {
        let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
        let fixes = vec![
            Fix::new(frame.unproject(Point::new(0.0, 0.0)), Timestamp::new(0)),
            Fix::new(
                frame.unproject(Point::new(meters, 0.0)),
                Timestamp::new(600),
            ),
        ];
        Trace::new(UserId::new(user), fixes).unwrap()
    }

    #[test]
    fn identical_distributions_ks_zero() {
        let a = vec![1.0, 2.0, 3.0];
        assert_eq!(ks_distance(&a, &a), 0.0);
    }

    #[test]
    fn separated_distributions_ks_one() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![10.0, 20.0];
        assert_eq!(ks_distance(&a, &b), 1.0);
    }

    #[test]
    fn interleaved_distributions_partial_ks() {
        let a = vec![1.0, 3.0, 5.0, 7.0];
        let b = vec![2.0, 4.0, 6.0, 8.0];
        let d = ks_distance(&a, &b);
        assert!(d > 0.0 && d < 0.5, "{d}");
    }

    #[test]
    fn empty_side_conventions() {
        assert_eq!(ks_distance(&[], &[]), 0.0);
        assert_eq!(ks_distance(&[1.0], &[]), 1.0);
        assert_eq!(ks_distance(&[], &[1.0]), 1.0);
    }

    #[test]
    fn trip_report_on_identical_data() {
        let d = Dataset::from_traces(vec![
            trace_of_length(1, 1_000.0),
            trace_of_length(2, 2_000.0),
        ]);
        let r = trip_report(&d, &d);
        assert_eq!(r.length_ks, 0.0);
        assert_eq!(r.duration_ks, 0.0);
        assert_eq!(r.raw_length.count, 2);
        assert!((r.raw_length.mean - 1_500.0).abs() < 1.0);
    }

    #[test]
    fn trip_report_detects_shrunken_trips() {
        let raw = Dataset::from_traces(vec![
            trace_of_length(1, 1_000.0),
            trace_of_length(2, 2_000.0),
        ]);
        let published =
            Dataset::from_traces(vec![trace_of_length(1, 100.0), trace_of_length(2, 150.0)]);
        let r = trip_report(&raw, &published);
        assert_eq!(r.length_ks, 1.0);
        assert!(r.published_length.mean < r.raw_length.mean);
    }
}
