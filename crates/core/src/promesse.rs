use rand::RngCore;

use mobipriv_geo::{LocalFrame, Meters, Seconds};
use mobipriv_model::{Fix, Trace, TraceBuilder};

use crate::error::require_positive;
use crate::{CoreError, Mechanism, Stage, TraceKernel};

/// Speed smoothing — the paper's first (and main) mechanism, later named
/// *Promesse* by its authors.
///
/// A raw GPS trace betrays the user's stops: wherever she dwells, fixes
/// pile up into a dense cluster. Instead of blurring *where* the points
/// are (what location-perturbation mechanisms do), Promesse changes
/// *when* they are: the trace's polyline is re-sampled every `alpha`
/// meters of travelled path and the resulting points are re-timestamped
/// at a uniform interval covering the original duration. Published
/// speed is constant, so no sub-sequence of the output looks like a
/// stop — while the published *geometry* deviates from the true path by
/// at most `alpha/2` plus GPS noise.
///
/// With endpoint trimming enabled (the default, matching the authors'
/// tool), `alpha/2` meters of path are removed at both ends so the
/// first/last published points do not pinpoint the origin/destination
/// (typically the user's home).
///
/// # Suppression
///
/// Traces whose usable path is shorter than `alpha` cannot carry even
/// two points one interval apart and are suppressed (a user who never
/// left home publishes nothing — there is no way to hide a single POI by
/// smoothing speed).
///
/// # Example
///
/// ```
/// use mobipriv_core::Promesse;
/// # fn main() -> Result<(), mobipriv_core::CoreError> {
/// let mechanism = Promesse::new(100.0)?; // α = 100 m
/// assert!(Promesse::new(-3.0).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Promesse {
    alpha_m: f64,
    trim: bool,
}

impl Promesse {
    /// Creates a smoother with spatial interval `alpha_m` (meters) and
    /// endpoint trimming enabled.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] unless `alpha_m` is
    /// strictly positive and finite.
    pub fn new(alpha_m: f64) -> Result<Self, CoreError> {
        Ok(Promesse {
            alpha_m: require_positive("alpha", alpha_m)?,
            trim: true,
        })
    }

    /// Disables (or re-enables) the `alpha/2` endpoint trimming.
    pub fn with_trim(mut self, trim: bool) -> Self {
        self.trim = trim;
        self
    }

    /// The configured spatial interval, meters.
    pub fn alpha(&self) -> Meters {
        Meters::new(self.alpha_m)
    }

    /// Whether endpoint trimming is enabled.
    pub fn trims_endpoints(&self) -> bool {
        self.trim
    }

    /// Smooths one trace; `None` when the trace is suppressed (usable
    /// path shorter than `alpha`).
    pub fn smooth_trace(&self, trace: &Trace) -> Option<Trace> {
        let frame = LocalFrame::new(trace.first().position);
        let line = trace.to_polyline(&frame);
        let total = line.length().get();
        let (from, to) = if self.trim {
            (self.alpha_m / 2.0, total - self.alpha_m / 2.0)
        } else {
            (0.0, total)
        };
        if to - from < self.alpha_m {
            return None;
        }
        // Uniform spatial sampling of [from, to].
        let mut distances = Vec::new();
        let mut d = from;
        while d <= to + 1e-9 {
            distances.push(d.min(to));
            d += self.alpha_m;
        }
        if *distances.last().expect("non-empty") < to - 1e-9 {
            distances.push(to);
        }
        let m = distances.len();
        if m < 2 {
            return None;
        }
        // Uniform re-timestamping over the original duration.
        let t0 = trace.start_time();
        let duration = trace.duration().get();
        let dt = duration / (m - 1) as f64;
        if dt < 1.0 {
            // Degenerate: more points than seconds. Thin the sampling so
            // whole-second timestamps stay strictly increasing.
            return self.smooth_sparse(trace, &line, &frame, from, to, duration);
        }
        let mut builder = TraceBuilder::new(trace.user());
        for (i, dist) in distances.iter().enumerate() {
            let p = line.point_at(Meters::new(*dist)).point;
            let t = t0 + Seconds::new(dt * i as f64);
            builder.push_lenient(Fix::new(frame.unproject(p), t));
        }
        builder.build().ok()
    }

    /// Fallback for traces whose duration (seconds) is smaller than the
    /// number of spatial samples: emit one point per second instead.
    fn smooth_sparse(
        &self,
        trace: &Trace,
        line: &mobipriv_geo::Polyline,
        frame: &LocalFrame,
        from: f64,
        to: f64,
        duration: f64,
    ) -> Option<Trace> {
        let m = (duration.floor() as usize).max(2);
        let step = (to - from) / (m - 1) as f64;
        let dt = duration / (m - 1) as f64;
        let mut builder = TraceBuilder::new(trace.user());
        for i in 0..m {
            let p = line.point_at(Meters::new(from + step * i as f64)).point;
            let t = trace.start_time() + Seconds::new(dt * i as f64);
            builder.push_lenient(Fix::new(frame.unproject(p), t));
        }
        builder.build().ok()
    }
}

impl Mechanism for Promesse {
    fn name(&self) -> String {
        format!("promesse(α={}m)", self.alpha_m)
    }

    fn stages(&self) -> Vec<Stage<'_>> {
        vec![Stage::PerTrace(self)]
    }
}

impl TraceKernel for Promesse {
    fn protect_trace(&self, trace: &Trace, _seed: u64, _rng: &mut dyn RngCore) -> Option<Trace> {
        self.smooth_trace(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_geo::LatLng;
    use mobipriv_model::{Dataset, Timestamp, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fix(lat: f64, lng: f64, t: i64) -> Fix {
        Fix::new(LatLng::new(lat, lng).unwrap(), Timestamp::new(t))
    }

    /// ~4.4 km of northbound travel with a 30-minute stop in the middle.
    fn trace_with_stop() -> Trace {
        let mut fixes = Vec::new();
        let mut t = 0;
        for i in 0..40 {
            fixes.push(fix(45.0 + 0.0005 * i as f64, 5.0, t));
            t += 30;
        }
        let stop_lat = 45.0 + 0.0005 * 39.0;
        for _ in 0..60 {
            t += 30;
            fixes.push(fix(stop_lat, 5.0, t));
        }
        for i in 1..=40 {
            t += 30;
            fixes.push(fix(stop_lat + 0.0005 * i as f64, 5.0, t));
        }
        Trace::new(UserId::new(1), fixes).unwrap()
    }

    #[test]
    fn rejects_bad_alpha() {
        assert!(Promesse::new(0.0).is_err());
        assert!(Promesse::new(-5.0).is_err());
        assert!(Promesse::new(f64::NAN).is_err());
        assert!(Promesse::new(f64::INFINITY).is_err());
    }

    #[test]
    fn output_has_uniform_spacing() {
        let mech = Promesse::new(100.0).unwrap();
        let out = mech.smooth_trace(&trace_with_stop()).unwrap();
        let frame = LocalFrame::new(out.first().position);
        let pts: Vec<_> = out
            .fixes()
            .iter()
            .map(|f| frame.project(f.position))
            .collect();
        // All hops except possibly the last equal α.
        for w in pts.windows(2).take(pts.len().saturating_sub(2)) {
            let d = w[0].distance(w[1]).get();
            assert!((d - 100.0).abs() < 0.5, "hop {d}");
        }
    }

    #[test]
    fn output_has_uniform_time_steps() {
        let mech = Promesse::new(100.0).unwrap();
        let input = trace_with_stop();
        let out = mech.smooth_trace(&input).unwrap();
        let steps: Vec<f64> = out.hops().map(|(a, b)| (b.time - a.time).get()).collect();
        let first = steps[0];
        for s in &steps {
            // Whole-second rounding allows ±1 s wobble.
            assert!((s - first).abs() <= 1.0, "step {s} vs {first}");
        }
    }

    #[test]
    fn duration_is_preserved() {
        let mech = Promesse::new(100.0).unwrap();
        let input = trace_with_stop();
        let out = mech.smooth_trace(&input).unwrap();
        assert_eq!(out.start_time(), input.start_time());
        let diff = (out.duration().get() - input.duration().get()).abs();
        assert!(diff <= (out.len() as f64), "duration drift {diff}");
    }

    #[test]
    fn speed_is_constant() {
        let mech = Promesse::new(100.0).unwrap();
        let out = mech.smooth_trace(&trace_with_stop()).unwrap();
        let speeds: Vec<f64> = out.hop_speeds().iter().map(|v| v.get()).collect();
        let mean = speeds.iter().sum::<f64>() / speeds.len() as f64;
        for (i, v) in speeds.iter().enumerate().take(speeds.len() - 1) {
            assert!(
                (v - mean).abs() / mean < 0.1,
                "hop {i}: speed {v} vs mean {mean}"
            );
        }
    }

    #[test]
    fn endpoints_are_trimmed_by_half_alpha() {
        let mech = Promesse::new(200.0).unwrap();
        let input = trace_with_stop();
        let out = mech.smooth_trace(&input).unwrap();
        let d_start = input
            .first()
            .position
            .haversine_distance(out.first().position)
            .get();
        assert!((d_start - 100.0).abs() < 2.0, "start trim {d_start}");
        let d_end = input
            .last()
            .position
            .haversine_distance(out.last().position)
            .get();
        assert!((d_end - 100.0).abs() < 2.0, "end trim {d_end}");
    }

    #[test]
    fn no_trim_keeps_endpoints() {
        let mech = Promesse::new(100.0).unwrap().with_trim(false);
        let input = trace_with_stop();
        let out = mech.smooth_trace(&input).unwrap();
        let d_start = input
            .first()
            .position
            .haversine_distance(out.first().position)
            .get();
        assert!(d_start < 1.0, "{d_start}");
        let d_end = input
            .last()
            .position
            .haversine_distance(out.last().position)
            .get();
        assert!(d_end < 1.0, "{d_end}");
    }

    #[test]
    fn output_geometry_stays_on_path() {
        let mech = Promesse::new(100.0).unwrap();
        let input = trace_with_stop();
        let frame = LocalFrame::new(input.first().position);
        let line = input.to_polyline(&frame);
        let out = mech.smooth_trace(&input).unwrap();
        for f in out.fixes() {
            let d = line.distance_to(frame.project(f.position)).get();
            assert!(d < 1.0, "point {d} m off the original path");
        }
    }

    #[test]
    fn stationary_trace_is_suppressed() {
        let fixes = (0..100).map(|i| fix(45.0, 5.0, i * 60)).collect();
        let t = Trace::new(UserId::new(1), fixes).unwrap();
        let mech = Promesse::new(100.0).unwrap();
        assert!(mech.smooth_trace(&t).is_none());
    }

    #[test]
    fn short_walk_is_suppressed() {
        // 150 m of path, α = 200 m (usable after trim: -50 m).
        let fixes = (0..6)
            .map(|i| fix(45.0 + 0.00027 * i as f64, 5.0, i * 60))
            .collect();
        let t = Trace::new(UserId::new(1), fixes).unwrap();
        let mech = Promesse::new(200.0).unwrap();
        assert!(mech.smooth_trace(&t).is_none());
    }

    #[test]
    fn single_fix_trace_is_suppressed() {
        let t = Trace::new(UserId::new(1), vec![fix(45.0, 5.0, 0)]).unwrap();
        let mech = Promesse::new(50.0).unwrap();
        assert!(mech.smooth_trace(&t).is_none());
    }

    #[test]
    fn protect_applies_per_trace_and_keeps_users() {
        let mech = Promesse::new(100.0).unwrap();
        let stationary = Trace::new(
            UserId::new(9),
            (0..10).map(|i| fix(45.1, 5.1, i * 60)).collect(),
        )
        .unwrap();
        let d = Dataset::from_traces(vec![trace_with_stop(), stationary]);
        let mut rng = StdRng::seed_from_u64(0);
        let out = mech.protect(&d, &mut rng);
        assert_eq!(out.len(), 1, "stationary trace suppressed");
        assert_eq!(out.traces()[0].user(), UserId::new(1));
    }

    #[test]
    fn fast_dense_trace_thins_to_second_resolution() {
        // 1 km covered in 20 s with α=10 m would want 100 points in 20
        // s; the sparse fallback must keep timestamps strictly
        // increasing.
        let fixes = (0..=20)
            .map(|i| fix(45.0 + 0.00045 * i as f64, 5.0, i))
            .collect();
        let t = Trace::new(UserId::new(1), fixes).unwrap();
        let mech = Promesse::new(10.0).unwrap();
        let out = mech.smooth_trace(&t).unwrap();
        assert!(out.len() >= 2);
        for (a, b) in out.hops() {
            assert!(b.time > a.time);
        }
    }

    #[test]
    fn name_mentions_alpha() {
        assert!(Promesse::new(42.0).unwrap().name().contains("42"));
    }

    #[test]
    fn hides_the_stop_from_stay_point_logic() {
        // The smoothed trace must not linger anywhere: max time within
        // any 100 m window should be far below the 30-minute stop.
        let mech = Promesse::new(100.0).unwrap();
        let out = mech.smooth_trace(&trace_with_stop()).unwrap();
        let frame = LocalFrame::new(out.first().position);
        let pts: Vec<_> = out
            .fixes()
            .iter()
            .map(|f| (frame.project(f.position), f.time))
            .collect();
        let mut max_window = 0.0_f64;
        for i in 0..pts.len() {
            let mut j = i;
            while j + 1 < pts.len() && pts[i].0.distance(pts[j + 1].0).get() <= 100.0 {
                j += 1;
            }
            max_window = max_window.max((pts[j].1 - pts[i].1).get());
        }
        // Stop dwell was 1800 s; smoothed trace must spread it out.
        assert!(
            max_window < 600.0,
            "still lingers {max_window}s in a window"
        );
    }
}
