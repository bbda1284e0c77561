use rand::{Rng, RngCore};

use mobipriv_geo::{LocalFrame, Point};
use mobipriv_model::Trace;

use crate::error::require_positive;
use crate::{CoreError, Mechanism, Stage, TraceKernel};

/// How the privacy budget is spent across the points of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseBudget {
    /// Every point is perturbed with the full `ε` (the usual evaluation
    /// setting; composition across points is left to the analyst).
    PerPoint,
    /// The trace's budget is split evenly: each of the `n` points is
    /// perturbed with `ε / n`, guaranteeing `ε`-geo-indistinguishability
    /// for the trace as a whole (much noisier).
    PerTrace,
}

/// Geo-indistinguishability baseline: the planar Laplace mechanism of
/// Andrés et al. (CCS'13).
///
/// Each point is displaced by a random vector whose angle is uniform and
/// whose radius follows the polar Laplace distribution with parameter
/// `ε` (in 1/meters): `P(R ≤ r) = 1 − (1 + εr)·e^{−εr}`. The expected
/// displacement is `2/ε`.
///
/// The paper's related-work section argues this mechanism cannot protect
/// mobility datasets: even under strong noise, POIs remain extractable
/// (≥ 60 % in the authors' MOST'14 study) because a dwell cluster stays
/// a cluster after i.i.d. noise. Experiment T1 reproduces that shape.
///
/// ```
/// use mobipriv_core::{GeoInd, NoiseBudget};
/// # fn main() -> Result<(), mobipriv_core::CoreError> {
/// // ε = 0.01 /m ⇒ E[noise] = 200 m
/// let mech = GeoInd::new(0.01)?;
/// assert_eq!(mech.budget(), NoiseBudget::PerPoint);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GeoInd {
    epsilon: f64,
    budget: NoiseBudget,
}

impl GeoInd {
    /// Creates the mechanism with privacy parameter `epsilon` (1/meters)
    /// and per-point budgeting.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] unless `epsilon` is
    /// strictly positive and finite.
    pub fn new(epsilon: f64) -> Result<Self, CoreError> {
        Ok(GeoInd {
            epsilon: require_positive("epsilon", epsilon)?,
            budget: NoiseBudget::PerPoint,
        })
    }

    /// Selects the budgeting strategy.
    pub fn with_budget(mut self, budget: NoiseBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The privacy parameter, 1/meters.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The budgeting strategy.
    pub fn budget(&self) -> NoiseBudget {
        self.budget
    }

    /// Samples one planar Laplace displacement for parameter `eps`.
    pub fn sample_noise(eps: f64, rng: &mut dyn RngCore) -> Point {
        let theta = rng.gen_range(0.0..std::f64::consts::TAU);
        let r = sample_polar_laplace_radius(eps, rng);
        Point::new(theta.cos(), theta.sin()) * r
    }
}

/// Inverse-CDF sampling of the polar Laplace radius:
/// `r = −(1/ε)·(W₋₁((u−1)/e) + 1)` for `u ~ U(0,1)`.
fn sample_polar_laplace_radius(eps: f64, rng: &mut dyn RngCore) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -(lambert_w_minus1((u - 1.0) / std::f64::consts::E) + 1.0) / eps
}

/// The secondary real branch `W₋₁` of the Lambert W function, defined on
/// `[-1/e, 0)` with values in `(-∞, -1]`.
///
/// Initial guess from the series around the branch point / asymptotic
/// log expansion, refined with Halley iterations to ~1e-12.
pub(crate) fn lambert_w_minus1(x: f64) -> f64 {
    assert!(
        (-(1.0 / std::f64::consts::E)..0.0).contains(&x) || x == -(1.0 / std::f64::consts::E),
        "W₋₁ defined on [-1/e, 0), got {x}"
    );
    // Branch point.
    let branch = -(1.0 / std::f64::consts::E);
    if (x - branch).abs() < 1e-16 {
        return -1.0;
    }
    // Initial guess.
    let mut w = if x > -0.1 {
        // Near 0⁻: W₋₁(x) ≈ ln(−x) − ln(−ln(−x)).
        let l1 = (-x).ln();
        let l2 = (-l1).ln();
        l1 - l2
    } else {
        // Near the branch point: series in p = −sqrt(2(1 + e·x)).
        let p = -(2.0 * (1.0 + std::f64::consts::E * x)).sqrt();
        -1.0 + p - p * p / 3.0 + 11.0 * p * p * p / 72.0
    };
    // Halley refinement.
    for _ in 0..64 {
        let ew = w.exp();
        let f = w * ew - x;
        if f.abs() < 1e-14 * x.abs().max(1e-300) {
            break;
        }
        let w1 = w + 1.0;
        let delta = f / (ew * w1 - (w + 2.0) * f / (2.0 * w1));
        w -= delta;
        if delta.abs() < 1e-13 * (1.0 + w.abs()) {
            break;
        }
    }
    w
}

impl Mechanism for GeoInd {
    fn name(&self) -> String {
        match self.budget {
            NoiseBudget::PerPoint => format!("geoind(ε={})", self.epsilon),
            NoiseBudget::PerTrace => format!("geoind(ε={}/trace)", self.epsilon),
        }
    }

    fn stages(&self) -> Vec<Stage<'_>> {
        vec![Stage::PerTrace(self)]
    }
}

impl TraceKernel for GeoInd {
    /// Perturbs every position of the trace, drawing noise from `rng`.
    fn protect_trace(&self, trace: &Trace, _seed: u64, rng: &mut dyn RngCore) -> Option<Trace> {
        let eps = match self.budget {
            NoiseBudget::PerPoint => self.epsilon,
            NoiseBudget::PerTrace => self.epsilon / trace.len() as f64,
        };
        Some(trace.map_positions(|pos| {
            let frame = LocalFrame::new(pos);
            frame.unproject(GeoInd::sample_noise(eps, rng))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_geo::LatLng;
    use mobipriv_model::{Dataset, Fix, Timestamp, Trace, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_epsilon() {
        assert!(GeoInd::new(0.0).is_err());
        assert!(GeoInd::new(-0.1).is_err());
        assert!(GeoInd::new(f64::NAN).is_err());
    }

    #[test]
    fn lambert_w_known_values() {
        // W₋₁(−1/e) = −1.
        assert!((lambert_w_minus1(-(1.0 / std::f64::consts::E)) - -1.0).abs() < 1e-9);
        // W₋₁(−0.1) ≈ −3.577152063957297.
        assert!((lambert_w_minus1(-0.1) - -3.577152063957297).abs() < 1e-9);
        // W₋₁(−0.2) ≈ −2.542641357773526.
        assert!((lambert_w_minus1(-0.2) - -2.542641357773526).abs() < 1e-9);
        // Identity: W(x)·e^{W(x)} = x.
        for &x in &[-0.3678, -0.25, -0.05, -1e-4, -1e-8] {
            let w = lambert_w_minus1(x);
            assert!(
                (w * w.exp() - x).abs() < 1e-10 * x.abs().max(1e-12),
                "x={x}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "defined on")]
    fn lambert_w_rejects_out_of_domain() {
        lambert_w_minus1(0.5);
    }

    #[test]
    fn noise_radius_matches_analytic_cdf() {
        let eps = 0.01; // E[R] = 200 m
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let mut radii: Vec<f64> = (0..n)
            .map(|_| GeoInd::sample_noise(eps, &mut rng).norm())
            .collect();
        radii.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = radii.iter().sum::<f64>() / n as f64;
        assert!((mean - 200.0).abs() < 5.0, "mean {mean}");
        // KS-style check at a few quantiles: F(r) = 1 − (1+εr)e^{−εr}.
        for q in [0.25, 0.5, 0.75, 0.9] {
            let r = radii[(q * n as f64) as usize];
            let f = 1.0 - (1.0 + eps * r) * (-eps * r).exp();
            assert!((f - q).abs() < 0.02, "q={q}: F(r)={f}");
        }
    }

    #[test]
    fn noise_angle_is_uniformish() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut quad = [0usize; 4];
        for _ in 0..4_000 {
            let p = GeoInd::sample_noise(0.01, &mut rng);
            let q = match (p.x >= 0.0, p.y >= 0.0) {
                (true, true) => 0,
                (false, true) => 1,
                (false, false) => 2,
                (true, false) => 3,
            };
            quad[q] += 1;
        }
        for count in quad {
            assert!((800..1200).contains(&count), "quadrant count {count}");
        }
    }

    fn straight_trace(user: u64) -> Trace {
        let fixes = (0..50)
            .map(|i| {
                Fix::new(
                    LatLng::new(45.0 + 1e-4 * i as f64, 5.0).unwrap(),
                    Timestamp::new(i * 30),
                )
            })
            .collect();
        Trace::new(UserId::new(user), fixes).unwrap()
    }

    #[test]
    fn protect_keeps_structure_perturbs_positions() {
        let mech = GeoInd::new(0.05).unwrap(); // E = 40 m
        let d = Dataset::from_traces(vec![straight_trace(1), straight_trace(2)]);
        let mut rng = StdRng::seed_from_u64(9);
        let out = mech.protect(&d, &mut rng);
        assert_eq!(out.len(), 2);
        assert_eq!(out.total_fixes(), d.total_fixes());
        let mut displacement_sum = 0.0;
        for (a, b) in d.traces().iter().zip(out.traces()) {
            assert_eq!(a.user(), b.user());
            for (fa, fb) in a.fixes().iter().zip(b.fixes()) {
                assert_eq!(fa.time, fb.time);
                displacement_sum += fa.position.haversine_distance(fb.position).get();
            }
        }
        let mean = displacement_sum / d.total_fixes() as f64;
        assert!((mean - 40.0).abs() < 8.0, "mean displacement {mean}");
    }

    #[test]
    fn per_trace_budget_is_much_noisier() {
        let d = Dataset::from_traces(vec![straight_trace(1)]);
        let mut rng = StdRng::seed_from_u64(10);
        let per_point = GeoInd::new(0.05).unwrap().protect(&d, &mut rng);
        let per_trace = GeoInd::new(0.05)
            .unwrap()
            .with_budget(NoiseBudget::PerTrace)
            .protect(&d, &mut rng);
        let mean_err = |out: &Dataset| {
            d.traces()[0]
                .fixes()
                .iter()
                .zip(out.traces()[0].fixes())
                .map(|(a, b)| a.position.haversine_distance(b.position).get())
                .sum::<f64>()
                / d.total_fixes() as f64
        };
        // 50 points ⇒ per-trace noise is ~50× larger in expectation.
        assert!(mean_err(&per_trace) > 10.0 * mean_err(&per_point));
    }

    #[test]
    fn name_shows_budget() {
        assert!(GeoInd::new(0.01).unwrap().name().contains("0.01"));
        assert!(GeoInd::new(0.01)
            .unwrap()
            .with_budget(NoiseBudget::PerTrace)
            .name()
            .contains("trace"));
    }
}
