use mobipriv_geo::{GeoError, LatLng, LocalFrame, Meters, MetersPerSecond, Polyline, Seconds};

use crate::{Fix, ModelError, Timestamp, UserId};

/// The time-ordered sequence of fixes recorded for one user.
///
/// # Invariants
///
/// * at least one fix;
/// * timestamps strictly increasing.
///
/// Both are enforced by every constructor, so downstream algorithms can
/// rely on them without re-checking.
///
/// ```
/// use mobipriv_model::{Fix, Timestamp, Trace, UserId};
/// use mobipriv_geo::LatLng;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = Trace::new(
///     UserId::new(1),
///     vec![
///         Fix::new(LatLng::new(45.0, 5.0)?, Timestamp::new(0)),
///         Fix::new(LatLng::new(45.001, 5.0)?, Timestamp::new(30)),
///     ],
/// )?;
/// assert!(trace.path_length().get() > 100.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    user: UserId,
    fixes: Vec<Fix>,
}

impl Trace {
    /// Creates a trace after validating the invariants.
    ///
    /// # Errors
    ///
    /// * [`ModelError::EmptyTrace`] when `fixes` is empty;
    /// * [`ModelError::UnorderedFixes`] when timestamps are not strictly
    ///   increasing.
    pub fn new(user: UserId, fixes: Vec<Fix>) -> Result<Self, ModelError> {
        if fixes.is_empty() {
            return Err(ModelError::EmptyTrace);
        }
        for (i, w) in fixes.windows(2).enumerate() {
            if w[1].time <= w[0].time {
                return Err(ModelError::UnorderedFixes { index: i + 1 });
            }
        }
        Ok(Trace { user, fixes })
    }

    /// Creates a trace from fixes in any order: sorts by time and keeps
    /// the *first* fix of any group sharing a timestamp.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyTrace`] when `fixes` is empty.
    pub fn from_unsorted(user: UserId, mut fixes: Vec<Fix>) -> Result<Self, ModelError> {
        if fixes.is_empty() {
            return Err(ModelError::EmptyTrace);
        }
        fixes.sort_by_key(|f| f.time);
        fixes.dedup_by_key(|f| f.time);
        Trace::new(user, fixes)
    }

    /// The user (or pseudonym) this trace is published under.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Returns a copy of the trace relabelled with `user` (used by
    /// identifier swapping).
    pub fn with_user(&self, user: UserId) -> Trace {
        Trace {
            user,
            fixes: self.fixes.clone(),
        }
    }

    /// Relabels the trace in place.
    pub fn set_user(&mut self, user: UserId) {
        self.user = user;
    }

    /// The fixes, in time order.
    pub fn fixes(&self) -> &[Fix] {
        &self.fixes
    }

    /// Consumes the trace, returning its fixes.
    pub fn into_fixes(self) -> Vec<Fix> {
        self.fixes
    }

    /// Number of fixes.
    pub fn len(&self) -> usize {
        self.fixes.len()
    }

    /// Always `false` (a trace holds at least one fix); provided for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// First fix.
    pub fn first(&self) -> &Fix {
        self.fixes.first().expect("non-empty by invariant")
    }

    /// Last fix.
    pub fn last(&self) -> &Fix {
        self.fixes.last().expect("non-empty by invariant")
    }

    /// Instant of the first fix.
    pub fn start_time(&self) -> Timestamp {
        self.first().time
    }

    /// Instant of the last fix.
    pub fn end_time(&self) -> Timestamp {
        self.last().time
    }

    /// Elapsed time between first and last fix.
    pub fn duration(&self) -> Seconds {
        self.end_time() - self.start_time()
    }

    /// Total travelled path length (sum of great-circle hop distances).
    pub fn path_length(&self) -> Meters {
        self.fixes.windows(2).map(|w| w[0].distance_to(&w[1])).sum()
    }

    /// Mean speed over the whole trace, or `None` for a single-fix trace.
    pub fn mean_speed(&self) -> Option<MetersPerSecond> {
        let d = self.duration();
        if d.get() <= 0.0 {
            return None;
        }
        Some(self.path_length() / d)
    }

    /// Per-hop speeds (`len() - 1` values).
    pub fn hop_speeds(&self) -> Vec<MetersPerSecond> {
        self.fixes
            .windows(2)
            .map(|w| w[0].speed_to(&w[1]).expect("strictly increasing times"))
            .collect()
    }

    /// The interpolated position at instant `t`, clamped to the trace's
    /// time span.
    pub fn position_at(&self, t: Timestamp) -> LatLng {
        if t <= self.start_time() {
            return self.first().position;
        }
        if t >= self.end_time() {
            return self.last().position;
        }
        // Binary search for the fix interval containing t.
        let idx = match self.fixes.binary_search_by_key(&t, |f| f.time) {
            Ok(i) => return self.fixes[i].position,
            Err(i) => i,
        };
        let a = &self.fixes[idx - 1];
        let b = &self.fixes[idx];
        a.interpolate_at(b, t).position
    }

    /// Re-samples the trace at a uniform time `interval`, starting at the
    /// first fix; the last fix is always included.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Geo`] wrapping
    /// [`GeoError::NonPositive`] when `interval` is not at least one
    /// second.
    pub fn resample_by_time(&self, interval: Seconds) -> Result<Trace, ModelError> {
        if !interval.is_finite() || interval.get() < 1.0 {
            return Err(ModelError::Geo(GeoError::NonPositive {
                what: "time resampling interval (>= 1s)",
                value: interval.get(),
            }));
        }
        let mut fixes = Vec::new();
        let mut t = self.start_time();
        while t < self.end_time() {
            fixes.push(Fix::new(self.position_at(t), t));
            t += interval;
        }
        fixes.push(*self.last());
        Trace::new(self.user, fixes)
    }

    /// Splits the trace wherever the time gap between consecutive fixes
    /// exceeds `max_gap`. Each resulting trace keeps the original user id.
    pub fn split_by_gap(&self, max_gap: Seconds) -> Vec<Trace> {
        let mut out = Vec::new();
        let mut current: Vec<Fix> = Vec::new();
        for fix in &self.fixes {
            if let Some(prev) = current.last() {
                if (fix.time - prev.time).get() > max_gap.get() {
                    out.push(Trace {
                        user: self.user,
                        fixes: std::mem::take(&mut current),
                    });
                }
            }
            current.push(*fix);
        }
        if !current.is_empty() {
            out.push(Trace {
                user: self.user,
                fixes: current,
            });
        }
        out
    }

    /// The fixes whose timestamps fall within `[from, to]` (inclusive), as
    /// a new trace; `None` when the window is empty.
    pub fn clipped(&self, from: Timestamp, to: Timestamp) -> Option<Trace> {
        let fixes: Vec<Fix> = self
            .fixes
            .iter()
            .filter(|f| f.time >= from && f.time <= to)
            .copied()
            .collect();
        if fixes.is_empty() {
            None
        } else {
            Some(Trace {
                user: self.user,
                fixes,
            })
        }
    }

    /// Applies `f` to every position, keeping user and timestamps.
    ///
    /// This is the natural shape of per-point perturbation mechanisms
    /// (e.g. planar Laplace noise).
    pub fn map_positions<F: FnMut(LatLng) -> LatLng>(&self, mut f: F) -> Trace {
        Trace {
            user: self.user,
            fixes: self
                .fixes
                .iter()
                .map(|fix| Fix::new(f(fix.position), fix.time))
                .collect(),
        }
    }

    /// Projects the trace into `frame` as a planar [`Polyline`].
    pub fn to_polyline(&self, frame: &LocalFrame) -> Polyline {
        Polyline::new(
            self.fixes
                .iter()
                .map(|f| frame.project(f.position))
                .collect(),
        )
        .expect("trace is non-empty and coordinates are finite")
    }

    /// Iterates over consecutive fix pairs (the "hops" of the trace).
    pub fn hops(&self) -> impl Iterator<Item = (&Fix, &Fix)> {
        self.fixes.windows(2).map(|w| (&w[0], &w[1]))
    }

    /// Douglas–Peucker simplification: drops fixes whose removal moves
    /// the path geometry by at most `tolerance`, keeping the original
    /// timestamps of the surviving fixes. First and last fix always
    /// survive.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Geo`] when `tolerance` is not strictly
    /// positive and finite.
    pub fn simplified(&self, tolerance: Meters) -> Result<Trace, ModelError> {
        if self.fixes.len() <= 2 {
            // Still validate the argument for a consistent contract.
            if !tolerance.is_finite() || tolerance.get() <= 0.0 {
                return Err(ModelError::Geo(GeoError::NonPositive {
                    what: "simplification tolerance",
                    value: tolerance.get(),
                }));
            }
            return Ok(self.clone());
        }
        let frame = LocalFrame::new(self.first().position);
        let line = self.to_polyline(&frame);
        let simple = line.simplified(tolerance)?;
        // Map surviving vertices back to their fixes by index walk:
        // simplified vertices appear in order and are a subset of the
        // original vertex sequence.
        let mut fixes = Vec::with_capacity(simple.len());
        let mut i = 0usize;
        for v in simple.vertices() {
            while i < self.fixes.len() {
                let p = frame.project(self.fixes[i].position);
                i += 1;
                if p.distance(*v).get() < 1e-9 {
                    fixes.push(self.fixes[i - 1]);
                    break;
                }
            }
        }
        Trace::new(self.user, fixes)
    }
}

/// Incremental, validating constructor for [`Trace`].
///
/// ```
/// use mobipriv_model::{Fix, Timestamp, TraceBuilder, UserId};
/// use mobipriv_geo::LatLng;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut builder = TraceBuilder::new(UserId::new(1));
/// builder.push(Fix::new(LatLng::new(45.0, 5.0)?, Timestamp::new(0)))?;
/// builder.push(Fix::new(LatLng::new(45.001, 5.0)?, Timestamp::new(10)))?;
/// let trace = builder.build()?;
/// assert_eq!(trace.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    user: UserId,
    fixes: Vec<Fix>,
}

impl TraceBuilder {
    /// Starts an empty builder for `user`.
    pub fn new(user: UserId) -> Self {
        TraceBuilder {
            user,
            fixes: Vec::new(),
        }
    }

    /// Starts an empty builder for `user` with room for `capacity`
    /// fixes, for callers that know the output size up front.
    pub fn with_capacity(user: UserId, capacity: usize) -> Self {
        TraceBuilder {
            user,
            fixes: Vec::with_capacity(capacity),
        }
    }

    /// Appends a fix.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnorderedFixes`] when `fix` is not strictly
    /// after the previous one.
    pub fn push(&mut self, fix: Fix) -> Result<&mut Self, ModelError> {
        if let Some(last) = self.fixes.last() {
            if fix.time <= last.time {
                return Err(ModelError::UnorderedFixes {
                    index: self.fixes.len(),
                });
            }
        }
        self.fixes.push(fix);
        Ok(self)
    }

    /// Appends a fix only if it is strictly after the previous one,
    /// silently dropping it otherwise. Returns whether it was kept.
    pub fn push_lenient(&mut self, fix: Fix) -> bool {
        match self.fixes.last() {
            Some(last) if fix.time <= last.time => false,
            _ => {
                self.fixes.push(fix);
                true
            }
        }
    }

    /// Number of fixes accumulated so far.
    pub fn len(&self) -> usize {
        self.fixes.len()
    }

    /// Returns `true` when no fix has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.fixes.is_empty()
    }

    /// Finalizes the trace.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyTrace`] when nothing was pushed.
    pub fn build(self) -> Result<Trace, ModelError> {
        Trace::new(self.user, self.fixes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ll(lat: f64, lng: f64) -> LatLng {
        LatLng::new(lat, lng).unwrap()
    }

    fn fix(lat: f64, lng: f64, t: i64) -> Fix {
        Fix::new(ll(lat, lng), Timestamp::new(t))
    }

    fn straight_trace() -> Trace {
        // Heading north at ~11 m per 10 s hop.
        let fixes = (0..11)
            .map(|i| fix(45.0 + 0.0001 * i as f64, 5.0, i * 10))
            .collect();
        Trace::new(UserId::new(1), fixes).unwrap()
    }

    #[test]
    fn new_enforces_invariants() {
        assert!(matches!(
            Trace::new(UserId::new(1), vec![]),
            Err(ModelError::EmptyTrace)
        ));
        let out_of_order = vec![fix(45.0, 5.0, 10), fix(45.0, 5.0, 5)];
        assert!(matches!(
            Trace::new(UserId::new(1), out_of_order),
            Err(ModelError::UnorderedFixes { index: 1 })
        ));
        let duplicate_time = vec![fix(45.0, 5.0, 10), fix(45.0, 5.1, 10)];
        assert!(Trace::new(UserId::new(1), duplicate_time).is_err());
    }

    #[test]
    fn from_unsorted_sorts_and_dedups() {
        let fixes = vec![fix(45.0, 5.2, 20), fix(45.0, 5.0, 0), fix(45.0, 5.1, 0)];
        let t = Trace::from_unsorted(UserId::new(1), fixes).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.start_time().get(), 0);
        // First fix with t=0 wins after the sort (stable).
        assert_eq!(t.first().position.lng(), 5.0);
    }

    #[test]
    fn duration_length_speed() {
        let t = straight_trace();
        assert_eq!(t.duration().get(), 100.0);
        let len = t.path_length().get();
        assert!((len - 111.2).abs() < 1.0, "{len}");
        let v = t.mean_speed().unwrap().get();
        assert!((v - 1.112).abs() < 0.01, "{v}");
        assert_eq!(t.hop_speeds().len(), 10);
    }

    #[test]
    fn single_fix_trace() {
        let t = Trace::new(UserId::new(1), vec![fix(45.0, 5.0, 0)]).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.duration().get(), 0.0);
        assert_eq!(t.path_length().get(), 0.0);
        assert!(t.mean_speed().is_none());
        assert!(t.hop_speeds().is_empty());
        assert_eq!(t.position_at(Timestamp::new(999)), t.first().position);
    }

    #[test]
    fn position_at_interpolates() {
        let t = straight_trace();
        // Exactly on a fix:
        assert_eq!(t.position_at(Timestamp::new(10)), t.fixes()[1].position);
        // Between fixes 0 and 1:
        let p = t.position_at(Timestamp::new(5));
        assert!(p.lat() > 45.0 && p.lat() < 45.0001);
        // Clamped:
        assert_eq!(t.position_at(Timestamp::new(-5)), t.first().position);
        assert_eq!(t.position_at(Timestamp::new(500)), t.last().position);
    }

    #[test]
    fn resample_by_time_uniform() {
        let t = straight_trace();
        let r = t.resample_by_time(Seconds::new(25.0)).unwrap();
        let times: Vec<i64> = r.fixes().iter().map(|f| f.time.get()).collect();
        assert_eq!(times, vec![0, 25, 50, 75, 100]);
        assert!(t.resample_by_time(Seconds::new(0.0)).is_err());
    }

    #[test]
    fn split_by_gap() {
        let fixes = vec![
            fix(45.0, 5.0, 0),
            fix(45.0, 5.0, 10),
            fix(45.0, 5.0, 500), // 490 s gap
            fix(45.0, 5.0, 510),
        ];
        let t = Trace::new(UserId::new(1), fixes).unwrap();
        let parts = t.split_by_gap(Seconds::new(60.0));
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 2);
        assert_eq!(parts[1].len(), 2);
        assert_eq!(parts[1].user(), UserId::new(1));
        // No gap: single part.
        assert_eq!(t.split_by_gap(Seconds::new(1_000.0)).len(), 1);
    }

    #[test]
    fn clipped_window() {
        let t = straight_trace();
        let c = t.clipped(Timestamp::new(20), Timestamp::new(50)).unwrap();
        assert_eq!(c.len(), 4); // fixes at 20, 30, 40, 50
        assert!(t
            .clipped(Timestamp::new(1_000), Timestamp::new(2_000))
            .is_none());
    }

    #[test]
    fn map_positions_keeps_times() {
        let t = straight_trace();
        let shifted = t.map_positions(|p| LatLng::new(p.lat(), p.lng() + 0.001).unwrap());
        assert_eq!(shifted.len(), t.len());
        for (a, b) in t.fixes().iter().zip(shifted.fixes()) {
            assert_eq!(a.time, b.time);
            assert!((b.position.lng() - a.position.lng() - 0.001).abs() < 1e-12);
        }
    }

    #[test]
    fn relabelling() {
        let t = straight_trace();
        let relabelled = t.with_user(UserId::new(9));
        assert_eq!(relabelled.user(), UserId::new(9));
        assert_eq!(relabelled.fixes(), t.fixes());
        let mut m = t.clone();
        m.set_user(UserId::new(5));
        assert_eq!(m.user(), UserId::new(5));
    }

    #[test]
    fn to_polyline_length_matches() {
        let t = straight_trace();
        let frame = LocalFrame::new(t.first().position);
        let line = t.to_polyline(&frame);
        assert!((line.length().get() - t.path_length().get()).abs() < 0.01);
    }

    #[test]
    fn hops_iterator() {
        let t = straight_trace();
        assert_eq!(t.hops().count(), 10);
    }

    #[test]
    fn simplified_drops_collinear_keeps_corners() {
        // North leg, corner, east leg: interior collinear fixes vanish.
        let mut fixes = Vec::new();
        for i in 0..10 {
            fixes.push(fix(45.0 + 0.0002 * i as f64, 5.0, i * 30));
        }
        for i in 1..10 {
            fixes.push(fix(45.0018, 5.0 + 0.0002 * i as f64, 270 + i * 30));
        }
        let t = Trace::new(UserId::new(1), fixes).unwrap();
        let s = t.simplified(mobipriv_geo::Meters::new(5.0)).unwrap();
        assert!(s.len() <= 4, "kept {} fixes", s.len());
        assert_eq!(s.first(), t.first());
        assert_eq!(s.last(), t.last());
        // Timestamps of survivors are original timestamps.
        for f in s.fixes() {
            assert!(t.fixes().contains(f));
        }
        // The corner survives.
        let corner = LatLng::new(45.0018, 5.0).unwrap();
        assert!(s
            .fixes()
            .iter()
            .any(|f| f.position.haversine_distance(corner).get() < 10.0));
    }

    #[test]
    fn simplified_validates_tolerance_and_passes_tiny_traces() {
        let t = Trace::new(
            UserId::new(1),
            vec![fix(45.0, 5.0, 0), fix(45.001, 5.0, 60)],
        )
        .unwrap();
        assert!(t.simplified(mobipriv_geo::Meters::new(0.0)).is_err());
        let s = t.simplified(mobipriv_geo::Meters::new(10.0)).unwrap();
        assert_eq!(s, t);
    }

    #[test]
    fn builder_validates() {
        let mut b = TraceBuilder::new(UserId::new(2));
        assert!(b.is_empty());
        b.push(fix(45.0, 5.0, 0)).unwrap();
        assert!(b.push(fix(45.0, 5.0, 0)).is_err());
        b.push(fix(45.0, 5.0, 1)).unwrap();
        assert_eq!(b.len(), 2);
        assert!(b.build().unwrap().len() == 2);
        assert!(matches!(
            TraceBuilder::new(UserId::new(2)).build(),
            Err(ModelError::EmptyTrace)
        ));
    }

    #[test]
    fn builder_lenient_drops_stale_fixes() {
        let mut b = TraceBuilder::new(UserId::new(2));
        assert!(b.push_lenient(fix(45.0, 5.0, 10)));
        assert!(!b.push_lenient(fix(45.0, 5.0, 10)));
        assert!(!b.push_lenient(fix(45.0, 5.0, 5)));
        assert!(b.push_lenient(fix(45.0, 5.0, 11)));
        assert_eq!(b.len(), 2);
    }
}
