use crate::{CoreError, Mechanism, MixZoneConfig, MixZones, Promesse, Stage};

/// The paper's complete publication pipeline: speed smoothing followed
/// by mix-zone swapping (Fig. 1a → 1b → 1c).
///
/// Its plan is a per-trace [`Promesse`] stage, which fans out across
/// cores, then a [`MixZones`] dataset stage, whose
/// [`SwapReport`](crate::SwapReport) is the run's report. Mix-zones are
/// detected **on the smoothed data** — they exist wherever smoothed
/// trajectories still cross, which the paper's design guarantees
/// because smoothing preserves the path geometry.
///
/// ```
/// use mobipriv_core::{Mechanism, MixZoneConfig, Pipeline};
/// # fn main() -> Result<(), mobipriv_core::CoreError> {
/// let pipeline = Pipeline::new(100.0, MixZoneConfig::default())?;
/// assert!(pipeline.name().contains("promesse"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    smoothing: Promesse,
    swapping: MixZones,
}

impl Pipeline {
    /// Creates the pipeline from the smoothing interval `alpha_m` and
    /// the mix-zone configuration.
    ///
    /// # Errors
    ///
    /// Propagates the constituent mechanisms' validation errors.
    pub fn new(alpha_m: f64, mixzones: MixZoneConfig) -> Result<Self, CoreError> {
        Ok(Pipeline {
            smoothing: Promesse::new(alpha_m)?,
            swapping: MixZones::new(mixzones)?,
        })
    }

    /// The smoothing stage.
    pub fn smoothing(&self) -> &Promesse {
        &self.smoothing
    }

    /// The swapping stage.
    pub fn swapping(&self) -> &MixZones {
        &self.swapping
    }
}

impl Mechanism for Pipeline {
    fn name(&self) -> String {
        format!("{}+{}", self.smoothing.name(), self.swapping.name())
    }

    fn stages(&self) -> Vec<Stage<'_>> {
        vec![
            Stage::PerTrace(&self.smoothing),
            Stage::Dataset(&self.swapping),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CancelToken, Engine, Report};
    use mobipriv_geo::{LatLng, LocalFrame, Point};
    use mobipriv_model::{Dataset, Fix, Timestamp, Trace, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two users with a stop each, crossing at the origin.
    fn crossing_with_stops() -> Dataset {
        let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
        let make = |user: u64, horizontal: bool| {
            let mut fixes = Vec::new();
            let mut t = 0i64;
            // 20-minute stop at d = -1000.
            for _ in 0..40 {
                let p = if horizontal {
                    Point::new(-1_000.0, 0.0)
                } else {
                    Point::new(0.0, -1_000.0)
                };
                fixes.push(Fix::new(frame.unproject(p), Timestamp::new(t)));
                t += 30;
            }
            // Cross the origin at 5 m/s: 2000 m in 400 s.
            for i in 1..=80 {
                let d = -1_000.0 + 25.0 * i as f64;
                let p = if horizontal {
                    Point::new(d, 0.0)
                } else {
                    Point::new(0.0, d)
                };
                fixes.push(Fix::new(frame.unproject(p), Timestamp::new(t)));
                t += 5;
            }
            // 20-minute stop at d = +1000.
            for _ in 0..40 {
                let p = if horizontal {
                    Point::new(1_000.0, 0.0)
                } else {
                    Point::new(0.0, 1_000.0)
                };
                fixes.push(Fix::new(frame.unproject(p), Timestamp::new(t)));
                t += 30;
            }
            Trace::new(UserId::new(user), fixes).unwrap()
        };
        Dataset::from_traces(vec![make(1, true), make(2, false)])
    }

    #[test]
    fn pipeline_runs_both_stages() {
        let d = crossing_with_stops();
        let pipeline = Pipeline::new(100.0, MixZoneConfig::default()).unwrap();
        let run = Engine::sequential().run(&pipeline, &d, 3, &CancelToken::none());
        let Ok((out, Report::Swap(report))) = run else {
            panic!("the pipeline reports its swaps: {run:?}");
        };
        // Smoothing happened: published traces have near-constant speed.
        for t in out.traces() {
            let speeds: Vec<f64> = t.hop_speeds().iter().map(|v| v.get()).collect();
            if speeds.len() < 3 {
                continue;
            }
            let mean = speeds.iter().sum::<f64>() / speeds.len() as f64;
            for v in speeds.iter().take(speeds.len() - 2) {
                assert!((v - mean).abs() / mean < 0.5, "speed {v} vs {mean}");
            }
        }
        // The crossing still exists after smoothing, so a zone forms.
        assert!(!report.zones.is_empty(), "no zone after smoothing");
    }

    #[test]
    fn pipeline_name_mentions_both() {
        let p = Pipeline::new(50.0, MixZoneConfig::default()).unwrap();
        assert!(p.name().contains("promesse"));
        assert!(p.name().contains("mixzones"));
        assert_eq!(p.smoothing().alpha().get(), 50.0);
        assert_eq!(p.swapping().config().min_members, 2);
    }

    #[test]
    fn invalid_parts_fail_construction() {
        assert!(Pipeline::new(-1.0, MixZoneConfig::default()).is_err());
        assert!(Pipeline::new(
            100.0,
            MixZoneConfig {
                radius_m: 0.0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn plan_equals_smoothing_then_swapping() {
        let d = crossing_with_stops();
        let pipeline = Pipeline::new(100.0, MixZoneConfig::default()).unwrap();
        let smoothed = d.filter_map(|t| pipeline.smoothing().smooth_trace(t));
        let engine = Engine::parallel().with_threads(2);
        let never = CancelToken::none();
        for seed in [0, 5, 1_000_003] {
            let mut rng = StdRng::seed_from_u64(seed);
            let (swapped, report) = pipeline.swapping().protect_with_report(&smoothed, &mut rng);
            let run = engine.run(&pipeline, &d, seed, &never);
            assert_eq!(run, Ok((swapped, Report::Swap(report))), "seed {seed}");
        }
    }
}
