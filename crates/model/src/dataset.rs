use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use mobipriv_geo::{BoundingBox, GeoError, LocalFrame, Seconds};

use crate::{DatasetColumns, Timestamp, Trace, UserId};

/// A collection of traces — the unit of publication.
///
/// A dataset may hold several traces per user (e.g. one per day); traces
/// are kept in insertion order.
///
/// ```
/// use mobipriv_model::{Dataset, Fix, Timestamp, Trace, UserId};
/// use mobipriv_geo::LatLng;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = Trace::new(
///     UserId::new(1),
///     vec![Fix::new(LatLng::new(45.0, 5.0)?, Timestamp::new(0))],
/// )?;
/// let dataset: Dataset = [trace].into_iter().collect();
/// assert_eq!(dataset.len(), 1);
/// assert_eq!(dataset.total_fixes(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct Dataset {
    traces: Vec<Trace>,
    /// Lazily built struct-of-arrays mirror (see [`DatasetColumns`]).
    /// Shared by clones via `Arc`; reset by every mutation.
    columns: OnceLock<Arc<DatasetColumns>>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Creates a dataset from traces.
    pub fn from_traces(traces: Vec<Trace>) -> Self {
        Dataset {
            traces,
            columns: OnceLock::new(),
        }
    }

    /// Appends a trace.
    pub fn push(&mut self, trace: Trace) {
        self.columns = OnceLock::new();
        self.traces.push(trace);
    }

    /// The columnar struct-of-arrays mirror of this dataset, built on
    /// first access and cached (clones share the cache; mutation
    /// through [`push`](Dataset::push), [`traces_mut`](Dataset::traces_mut)
    /// or [`Extend`] resets it). This is where the per-dataset
    /// projection into the canonical [`local_frame`](Dataset::local_frame)
    /// happens exactly once.
    pub fn columns(&self) -> &DatasetColumns {
        self.columns
            .get_or_init(|| Arc::new(DatasetColumns::build(self)))
    }

    /// The traces in insertion order.
    pub fn traces(&self) -> &[Trace] {
        &self.traces
    }

    /// Mutable access to the traces (invariants are per-trace and cannot
    /// be violated through this slice). Drops the cached columns.
    pub fn traces_mut(&mut self) -> &mut [Trace] {
        self.columns = OnceLock::new();
        &mut self.traces
    }

    /// Consumes the dataset, returning its traces.
    pub fn into_traces(self) -> Vec<Trace> {
        self.traces
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Returns `true` when the dataset holds no trace.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Total number of fixes across all traces.
    pub fn total_fixes(&self) -> usize {
        self.traces.iter().map(Trace::len).sum()
    }

    /// The distinct user ids present, in ascending order.
    pub fn users(&self) -> Vec<UserId> {
        let mut ids: Vec<UserId> = self.traces.iter().map(Trace::user).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Groups traces by user id (ascending user order, traces in
    /// insertion order within each group).
    pub fn by_user(&self) -> BTreeMap<UserId, Vec<&Trace>> {
        let mut map: BTreeMap<UserId, Vec<&Trace>> = BTreeMap::new();
        for t in &self.traces {
            map.entry(t.user()).or_default().push(t);
        }
        map
    }

    /// The traces of one user, in insertion order.
    pub fn traces_of(&self, user: UserId) -> Vec<&Trace> {
        self.traces.iter().filter(|t| t.user() == user).collect()
    }

    /// The tight geographic bounding box of every fix.
    pub fn bounding_box(&self) -> BoundingBox {
        BoundingBox::of(
            self.traces
                .iter()
                .flat_map(|t| t.fixes().iter().map(|f| f.position)),
        )
    }

    /// A local planar frame anchored at the dataset's bounding-box
    /// center — the canonical frame every algorithm in the toolkit uses
    /// for this dataset.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::EmptyGeometry`] for an empty dataset.
    pub fn local_frame(&self) -> Result<LocalFrame, GeoError> {
        Ok(LocalFrame::new(self.bounding_box().center()?))
    }

    /// Earliest and latest timestamps in the dataset, or `None` when
    /// empty.
    pub fn time_span(&self) -> Option<(Timestamp, Timestamp)> {
        let start = self.traces.iter().map(Trace::start_time).min()?;
        let end = self.traces.iter().map(Trace::end_time).max()?;
        Some((start, end))
    }

    /// Total observed duration (max end − min start), or zero when empty.
    pub fn duration(&self) -> Seconds {
        match self.time_span() {
            Some((a, b)) => b - a,
            None => Seconds::new(0.0),
        }
    }

    /// Splits the dataset at an instant: traces starting strictly before
    /// `cut` go left, the rest right. The canonical train/test split of
    /// the re-identification experiments.
    pub fn partition_by_time(&self, cut: Timestamp) -> (Dataset, Dataset) {
        let mut before = Dataset::new();
        let mut after = Dataset::new();
        for trace in &self.traces {
            if trace.start_time() < cut {
                before.push(trace.clone());
            } else {
                after.push(trace.clone());
            }
        }
        (before, after)
    }

    /// Applies `f` to every trace, producing a new dataset (the shape of
    /// every per-trace protection mechanism).
    pub fn map<F: FnMut(&Trace) -> Trace>(&self, f: F) -> Dataset {
        Dataset::from_traces(self.traces.iter().map(f).collect())
    }

    /// Applies `f` to every trace, keeping only the `Some` results (the
    /// shape of mechanisms that may suppress whole traces).
    pub fn filter_map<F: FnMut(&Trace) -> Option<Trace>>(&self, f: F) -> Dataset {
        Dataset::from_traces(self.traces.iter().filter_map(f).collect())
    }

    /// Iterates over the traces.
    pub fn iter(&self) -> std::slice::Iter<'_, Trace> {
        self.traces.iter()
    }
}

// The column cache is derived state: identity, equality, ordering and
// debugging all see only the traces. Clones share the already-built
// cache (it is immutable behind an `Arc`), and every mutating method
// resets it.

impl Clone for Dataset {
    fn clone(&self) -> Self {
        Dataset {
            traces: self.traces.clone(),
            columns: self.columns.clone(),
        }
    }
}

impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.traces == other.traces
    }
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset")
            .field("traces", &self.traces)
            .finish()
    }
}

impl FromIterator<Trace> for Dataset {
    fn from_iter<I: IntoIterator<Item = Trace>>(iter: I) -> Self {
        Dataset::from_traces(iter.into_iter().collect())
    }
}

impl Extend<Trace> for Dataset {
    fn extend<I: IntoIterator<Item = Trace>>(&mut self, iter: I) {
        self.columns = OnceLock::new();
        self.traces.extend(iter);
    }
}

impl IntoIterator for Dataset {
    type Item = Trace;
    type IntoIter = std::vec::IntoIter<Trace>;
    fn into_iter(self) -> Self::IntoIter {
        self.traces.into_iter()
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a Trace;
    type IntoIter = std::slice::Iter<'a, Trace>;
    fn into_iter(self) -> Self::IntoIter {
        self.traces.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fix;
    use mobipriv_geo::LatLng;

    fn fix(lat: f64, lng: f64, t: i64) -> Fix {
        Fix::new(LatLng::new(lat, lng).unwrap(), Timestamp::new(t))
    }

    fn trace(user: u64, start: i64) -> Trace {
        Trace::new(
            UserId::new(user),
            vec![fix(45.0, 5.0, start), fix(45.01, 5.01, start + 100)],
        )
        .unwrap()
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::new();
        assert!(d.is_empty());
        assert_eq!(d.total_fixes(), 0);
        assert!(d.users().is_empty());
        assert!(d.time_span().is_none());
        assert_eq!(d.duration().get(), 0.0);
        assert!(d.local_frame().is_err());
        assert!(d.bounding_box().is_empty());
    }

    #[test]
    fn users_sorted_and_deduped() {
        let d = Dataset::from_traces(vec![trace(3, 0), trace(1, 0), trace(3, 200)]);
        assert_eq!(d.users(), vec![UserId::new(1), UserId::new(3)]);
        assert_eq!(d.traces_of(UserId::new(3)).len(), 2);
        assert_eq!(d.by_user().len(), 2);
        assert_eq!(d.by_user()[&UserId::new(3)].len(), 2);
    }

    #[test]
    fn time_span_and_duration() {
        let d = Dataset::from_traces(vec![trace(1, 0), trace(2, 500)]);
        let (a, b) = d.time_span().unwrap();
        assert_eq!(a.get(), 0);
        assert_eq!(b.get(), 600);
        assert_eq!(d.duration().get(), 600.0);
    }

    #[test]
    fn map_preserves_count_filter_map_drops() {
        let d = Dataset::from_traces(vec![trace(1, 0), trace(2, 0)]);
        let mapped = d.map(|t| t.with_user(UserId::new(9)));
        assert_eq!(mapped.len(), 2);
        assert_eq!(mapped.users(), vec![UserId::new(9)]);
        let filtered = d.filter_map(|t| {
            if t.user() == UserId::new(1) {
                Some(t.clone())
            } else {
                None
            }
        });
        assert_eq!(filtered.len(), 1);
    }

    #[test]
    fn collect_and_extend() {
        let mut d: Dataset = vec![trace(1, 0)].into_iter().collect();
        d.extend(vec![trace(2, 0)]);
        assert_eq!(d.len(), 2);
        let total: usize = (&d).into_iter().map(Trace::len).sum();
        assert_eq!(total, d.total_fixes());
        let back: Vec<Trace> = d.into_iter().collect();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn partition_by_time_splits_on_start() {
        let d = Dataset::from_traces(vec![trace(1, 0), trace(2, 500), trace(3, 1_000)]);
        let (before, after) = d.partition_by_time(Timestamp::new(500));
        assert_eq!(before.len(), 1);
        assert_eq!(after.len(), 2); // start == cut goes right
        assert_eq!(before.traces()[0].user(), UserId::new(1));
        let (none, all) = d.partition_by_time(Timestamp::new(-1));
        assert!(none.is_empty());
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn local_frame_centered_on_bbox() {
        let d = Dataset::from_traces(vec![trace(1, 0)]);
        let frame = d.local_frame().unwrap();
        let c = d.bounding_box().center().unwrap();
        assert_eq!(frame.origin(), c);
    }
}
