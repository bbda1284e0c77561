use rand::Rng;

use mobipriv_geo::{LocalFrame, Point, Seconds};
use mobipriv_model::{Fix, ModelError, Trace, TraceBuilder};

use crate::randutil::normal;

/// The GPS receiver model: how the continuous ground-truth movement is
/// turned into the discrete, noisy fixes of a published trace.
#[derive(Debug, Clone, PartialEq)]
pub struct GpsConfig {
    /// Sampling interval between fixes.
    pub sample_interval: Seconds,
    /// Standard deviation of the horizontal position error, meters
    /// (applied independently on the east and north axes).
    pub noise_std_m: f64,
    /// Probability that any individual sample is lost.
    pub dropout: f64,
}

impl Default for GpsConfig {
    fn default() -> Self {
        GpsConfig {
            sample_interval: Seconds::new(30.0),
            noise_std_m: 4.0,
            dropout: 0.03,
        }
    }
}

/// Samples a noisy GPS trace from a ground-truth `truth` trace.
///
/// Positions are linearly interpolated on the truth at every
/// `sample_interval`, perturbed by Gaussian noise in a local tangent
/// frame, and dropped with probability `dropout` (the first and last
/// samples are never dropped, so the observation window is preserved).
///
/// # Errors
///
/// Returns [`ModelError::Geo`] when `sample_interval` is below one second
/// and [`ModelError::EmptyTrace`] if every sample was dropped (cannot
/// happen given first/last are kept, but kept for API honesty).
pub fn sample_trace<R: Rng + ?Sized>(
    truth: &Trace,
    config: &GpsConfig,
    rng: &mut R,
) -> Result<Trace, ModelError> {
    if !config.sample_interval.is_finite() || config.sample_interval.get() < 1.0 {
        return Err(ModelError::Geo(mobipriv_geo::GeoError::NonPositive {
            what: "gps sample interval (>= 1s)",
            value: config.sample_interval.get(),
        }));
    }
    let frame = LocalFrame::new(truth.first().position);
    let mut builder = TraceBuilder::new(truth.user());
    let start = truth.start_time();
    let end = truth.end_time();
    let mut t = start;
    while t <= end {
        let is_boundary = t == start || t == end;
        if is_boundary || config.dropout <= 0.0 || !rng.gen_bool(config.dropout.clamp(0.0, 1.0)) {
            let true_pos = frame.project(truth.position_at(t));
            let noisy = true_pos
                + Point::new(
                    normal(rng, 0.0, config.noise_std_m),
                    normal(rng, 0.0, config.noise_std_m),
                );
            builder.push_lenient(Fix::new(frame.unproject(noisy), t));
        }
        if t == end {
            break;
        }
        let next = t + config.sample_interval;
        // Always sample the exact end instant last.
        t = if next > end { end } else { next };
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_geo::LatLng;
    use mobipriv_model::{Timestamp, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn truth() -> Trace {
        // 10 minutes heading north at ~1.85 m/s.
        let fixes = (0..11)
            .map(|i| {
                Fix::new(
                    LatLng::new(45.0 + 0.0001 * i as f64, 5.0).unwrap(),
                    Timestamp::new(i * 60),
                )
            })
            .collect();
        Trace::new(UserId::new(1), fixes).unwrap()
    }

    #[test]
    fn sampling_interval_is_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = GpsConfig {
            sample_interval: Seconds::new(30.0),
            noise_std_m: 0.0,
            dropout: 0.0,
        };
        let trace = sample_trace(&truth(), &cfg, &mut rng).unwrap();
        assert_eq!(trace.len(), 21); // 600 s / 30 s + 1
        for (a, b) in trace.hops() {
            assert_eq!((b.time - a.time).get(), 30.0);
        }
    }

    #[test]
    fn zero_noise_lies_on_truth() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = GpsConfig {
            sample_interval: Seconds::new(45.0),
            noise_std_m: 0.0,
            dropout: 0.0,
        };
        let t = truth();
        let trace = sample_trace(&t, &cfg, &mut rng).unwrap();
        for f in trace.fixes() {
            let d = f.position.haversine_distance(t.position_at(f.time));
            assert!(d.get() < 0.01, "deviation {d}");
        }
    }

    #[test]
    fn noise_scatter_matches_sigma() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = GpsConfig {
            sample_interval: Seconds::new(1.0),
            noise_std_m: 5.0,
            dropout: 0.0,
        };
        let t = truth();
        let trace = sample_trace(&t, &cfg, &mut rng).unwrap();
        let errors: Vec<f64> = trace
            .fixes()
            .iter()
            .map(|f| f.position.haversine_distance(t.position_at(f.time)).get())
            .collect();
        let mean_err = errors.iter().sum::<f64>() / errors.len() as f64;
        // Mean of a Rayleigh(σ=5) is σ√(π/2) ≈ 6.27.
        assert!((mean_err - 6.27).abs() < 1.0, "mean error {mean_err}");
    }

    #[test]
    fn dropout_removes_interior_samples_only() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = GpsConfig {
            sample_interval: Seconds::new(10.0),
            noise_std_m: 0.0,
            dropout: 0.5,
        };
        let t = truth();
        let trace = sample_trace(&t, &cfg, &mut rng).unwrap();
        assert!(trace.len() < 61);
        assert_eq!(trace.start_time(), t.start_time());
        assert_eq!(trace.end_time(), t.end_time());
    }

    #[test]
    fn end_instant_is_sampled_even_off_grid() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = GpsConfig {
            sample_interval: Seconds::new(37.0), // 600 not divisible by 37
            noise_std_m: 0.0,
            dropout: 0.0,
        };
        let t = truth();
        let trace = sample_trace(&t, &cfg, &mut rng).unwrap();
        assert_eq!(trace.end_time(), t.end_time());
    }

    #[test]
    fn rejects_sub_second_interval() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = GpsConfig {
            sample_interval: Seconds::new(0.5),
            noise_std_m: 0.0,
            dropout: 0.0,
        };
        assert!(sample_trace(&truth(), &cfg, &mut rng).is_err());
    }

    #[test]
    fn single_fix_truth_yields_single_fix_trace() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = Trace::new(
            UserId::new(1),
            vec![Fix::new(LatLng::new(45.0, 5.0).unwrap(), Timestamp::new(7))],
        )
        .unwrap();
        let trace = sample_trace(&t, &GpsConfig::default(), &mut rng).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.start_time().get(), 7);
    }
}
