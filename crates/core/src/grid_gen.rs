use std::collections::HashMap;

use rand::RngCore;

use mobipriv_geo::{LatLng, Point, Seconds};
use mobipriv_model::{Dataset, Fix, Timestamp, TraceBuilder};

use crate::error::require_positive;
use crate::{CoreError, DatasetStage, Mechanism, Report, Stage};

/// Naive generalization baseline: snap every position to the center of a
/// `cell_m × cell_m` grid cell, optionally rounding timestamps to a
/// multiple of `time_round`.
///
/// This is the "simple anonymization technique" the paper's abstract
/// warns about: cheap, deterministic, and weak — dwell clusters collapse
/// onto a cell center but remain clusters, so POIs survive with an error
/// bounded by the cell diagonal.
///
/// ```
/// use mobipriv_core::GridGeneralization;
/// # fn main() -> Result<(), mobipriv_core::CoreError> {
/// let mech = GridGeneralization::new(250.0)?;
/// assert!(GridGeneralization::new(0.0).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridGeneralization {
    cell_m: f64,
    time_round: Option<Seconds>,
}

impl GridGeneralization {
    /// Creates the mechanism with the given cell side (meters), no time
    /// rounding.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] unless `cell_m` is
    /// strictly positive and finite.
    pub fn new(cell_m: f64) -> Result<Self, CoreError> {
        Ok(GridGeneralization {
            cell_m: require_positive("cell size", cell_m)?,
            time_round: None,
        })
    }

    /// Additionally rounds timestamps to multiples of `granularity`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] unless `granularity` is at
    /// least one second.
    pub fn with_time_rounding(mut self, granularity: Seconds) -> Result<Self, CoreError> {
        if !granularity.is_finite() || granularity.get() < 1.0 {
            return Err(CoreError::InvalidParameter {
                what: "time granularity",
                value: granularity.get(),
            });
        }
        self.time_round = Some(granularity);
        Ok(self)
    }

    /// The configured cell side, meters.
    pub fn cell_size(&self) -> f64 {
        self.cell_m
    }

    /// The published point is the center of the cell containing the true
    /// point.
    fn snap(&self, p: Point) -> Point {
        let s = self.cell_m;
        Point::new(((p.x / s).floor() + 0.5) * s, ((p.y / s).floor() + 0.5) * s)
    }

    /// Reference implementation: every fix is projected through the
    /// frame individually and every snapped center unprojected anew.
    /// Kept public for the equivalence tests against the memoized
    /// columnar [`run`](DatasetStage::run).
    pub fn protect_naive(&self, dataset: &Dataset) -> Dataset {
        let frame = match dataset.local_frame() {
            Ok(f) => f,
            Err(_) => return Dataset::new(),
        };
        dataset.filter_map(|trace| {
            let mut builder = TraceBuilder::new(trace.user());
            for fix in trace.fixes() {
                let snapped = self.snap(frame.project(fix.position));
                let time = match self.time_round {
                    Some(g) => {
                        let g = g.get() as i64;
                        Timestamp::new((fix.time.get().div_euclid(g)) * g)
                    }
                    None => fix.time,
                };
                builder.push_lenient(Fix::new(frame.unproject(snapped), time));
            }
            builder.build().ok()
        })
    }
}

impl Mechanism for GridGeneralization {
    fn name(&self) -> String {
        match self.time_round {
            Some(g) => format!("grid({}m,{}s)", self.cell_m, g.get()),
            None => format!("grid({}m)", self.cell_m),
        }
    }

    fn stages(&self) -> Vec<Stage<'_>> {
        vec![Stage::Dataset(self)]
    }
}

impl DatasetStage for GridGeneralization {
    /// Reads positions straight from the dataset's cached
    /// [`columns`](Dataset::columns) — the canonical projection is
    /// computed once per dataset, not once per protect call — and
    /// memoizes the unprojection of every snapped cell center seen so
    /// far, keyed on the center's exact bit pattern: the dwell clusters
    /// this mechanism collapses revisit the same cells across fixes and
    /// traces, so the spherical trig runs once per distinct *cell*
    /// instead of once per fix. Bit-identical to
    /// [`protect_naive`](GridGeneralization::protect_naive) (`unproject` is
    /// deterministic and the memo key is exact `Point` equality).
    fn run(&self, dataset: &Dataset, _rng: &mut dyn RngCore) -> (Dataset, Report) {
        let cols = dataset.columns();
        let Some(frame) = cols.frame() else {
            return (Dataset::new(), Report::None);
        };
        let (x, y, time) = (cols.x(), cols.y(), cols.time());
        let granularity = self.time_round.map(|g| g.get() as i64);
        // Two-level memo: the last cell catches the within-dwell runs
        // without hashing; the map catches revisits of a cell across
        // runs and traces.
        let mut last: Option<(Point, LatLng)> = None;
        let mut memo: HashMap<(u64, u64), LatLng> = HashMap::new();
        let mut traces = Vec::with_capacity(cols.trace_count());
        for idx in 0..cols.trace_count() {
            let mut builder = TraceBuilder::with_capacity(cols.user(idx), cols.span(idx).len());
            for i in cols.span(idx) {
                let snapped = self.snap(Point::new(x[i], y[i]));
                let position = match last {
                    Some((p, ll)) if p == snapped => ll,
                    _ => {
                        let ll = *memo
                            .entry((snapped.x.to_bits(), snapped.y.to_bits()))
                            .or_insert_with(|| frame.unproject(snapped));
                        last = Some((snapped, ll));
                        ll
                    }
                };
                let t = match granularity {
                    Some(g) => Timestamp::new(time[i].div_euclid(g) * g),
                    None => Timestamp::new(time[i]),
                };
                builder.push_lenient(Fix::new(position, t));
            }
            if let Ok(trace) = builder.build() {
                traces.push(trace);
            }
        }
        (Dataset::from_traces(traces), Report::None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_geo::LatLng;
    use mobipriv_model::{Trace, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset() -> Dataset {
        let fixes = (0..20)
            .map(|i| {
                Fix::new(
                    LatLng::new(45.0 + 3e-4 * i as f64, 5.0).unwrap(),
                    Timestamp::new(i * 37),
                )
            })
            .collect();
        Dataset::from_traces(vec![Trace::new(UserId::new(1), fixes).unwrap()])
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(GridGeneralization::new(-1.0).is_err());
        assert!(GridGeneralization::new(100.0)
            .unwrap()
            .with_time_rounding(Seconds::new(0.5))
            .is_err());
    }

    #[test]
    fn snapped_points_form_few_distinct_positions() {
        let mech = GridGeneralization::new(500.0).unwrap();
        let d = dataset();
        let mut rng = StdRng::seed_from_u64(0);
        let out = mech.protect(&d, &mut rng);
        let mut distinct: Vec<(i64, i64)> = out.traces()[0]
            .fixes()
            .iter()
            .map(|f| {
                (
                    (f.position.lat() * 1e6) as i64,
                    (f.position.lng() * 1e6) as i64,
                )
            })
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        // 20 points over ~630 m with 500 m cells: at most 3 cells.
        assert!(distinct.len() <= 3, "{} distinct cells", distinct.len());
    }

    #[test]
    fn displacement_bounded_by_half_diagonal() {
        let mech = GridGeneralization::new(300.0).unwrap();
        let d = dataset();
        let mut rng = StdRng::seed_from_u64(0);
        let out = mech.protect(&d, &mut rng);
        let bound = 300.0 * std::f64::consts::SQRT_2 / 2.0 + 1.0;
        for (a, b) in d.traces()[0].fixes().iter().zip(out.traces()[0].fixes()) {
            let err = a.position.haversine_distance(b.position).get();
            assert!(err <= bound, "displacement {err}");
        }
    }

    #[test]
    fn time_rounding_floors_to_multiple() {
        let mech = GridGeneralization::new(5_000.0)
            .unwrap()
            .with_time_rounding(Seconds::new(100.0))
            .unwrap();
        let d = dataset();
        let mut rng = StdRng::seed_from_u64(0);
        let out = mech.protect(&d, &mut rng);
        for f in out.traces()[0].fixes() {
            assert_eq!(f.time.get() % 100, 0);
        }
        // Coarse time + coarse space can merge fixes; count shrinks.
        assert!(out.total_fixes() <= d.total_fixes());
    }

    #[test]
    fn columnar_protect_matches_naive_bit_for_bit() {
        let d = dataset();
        for mech in [
            GridGeneralization::new(250.0).unwrap(),
            GridGeneralization::new(500.0)
                .unwrap()
                .with_time_rounding(Seconds::new(100.0))
                .unwrap(),
        ] {
            let mut rng = StdRng::seed_from_u64(0);
            assert_eq!(mech.protect(&d, &mut rng), mech.protect_naive(&d));
        }
    }

    #[test]
    fn determinism() {
        let mech = GridGeneralization::new(250.0).unwrap();
        let d = dataset();
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(999);
        assert_eq!(mech.protect(&d, &mut r1), mech.protect(&d, &mut r2));
    }

    #[test]
    fn empty_dataset() {
        let mech = GridGeneralization::new(250.0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(mech.protect(&Dataset::new(), &mut rng).is_empty());
    }
}
