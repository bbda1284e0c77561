use rand::RngCore;

use mobipriv_geo::{FootprintIndex, Point, Rect, Seconds};
use mobipriv_model::{Dataset, Fix, Timestamp, TraceBuilder};

use crate::error::require_positive;
use crate::{CoreError, DatasetStage, Mechanism, Report, Stage};

/// Wait4Me-style (k, δ)-anonymity baseline (Abul, Bonchi, Nanni 2010).
///
/// Guarantee shape: every published trace moves, at every published
/// instant, within `δ/2` of its cluster's centroid trajectory — so any
/// two co-clustered users stay within `δ` of each other and each
/// published point is indistinguishable among `k` users. Traces that
/// cannot be clustered with `k − 1` others are suppressed (the "trash"
/// set of the original tool).
///
/// The algorithm follows the published system's structure:
///
/// 1. time-align every trace on an absolute grid (`resample` interval);
/// 2. greedy clustering: repeatedly pick the longest unassigned trace as
///    pivot and attach its `k − 1` nearest unassigned neighbours by
///    synchronized Euclidean distance, provided they are within
///    `cluster_radius_m` and share enough of the pivot's time span;
/// 3. spatial editing ("space translation"): pull each member point
///    toward the per-instant cluster centroid until it is within `δ/2`.
///
/// The paper's related work notes this preserves utility on synthetic
/// data but struggles on real-life (sparse, heterogeneous) data —
/// experiment T7 reproduces exactly that contrast.
///
/// ```
/// use mobipriv_core::KDelta;
/// # fn main() -> Result<(), mobipriv_core::CoreError> {
/// let mech = KDelta::new(2, 500.0)?;
/// assert!(KDelta::new(1, 500.0).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KDelta {
    k: usize,
    delta_m: f64,
    resample: Seconds,
    cluster_radius_m: f64,
    min_overlap: f64,
}

/// Outcome statistics of a [`KDelta`] run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KDeltaReport {
    /// Number of clusters formed.
    pub clusters: usize,
    /// Traces published (edited).
    pub published_traces: usize,
    /// Traces suppressed (could not be k-anonymized).
    pub suppressed_traces: usize,
}

impl KDeltaReport {
    /// Fraction of input traces that were suppressed.
    pub fn suppression_ratio(&self) -> f64 {
        let total = self.published_traces + self.suppressed_traces;
        if total == 0 {
            0.0
        } else {
            self.suppressed_traces as f64 / total as f64
        }
    }
}

impl KDelta {
    /// Creates the mechanism with anonymity set size `k` and proximity
    /// bound `delta_m` (meters). Matching radius defaults to `4·δ` and
    /// the alignment grid to 60 s.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::KTooSmall`] when `k < 2` and
    /// [`CoreError::InvalidParameter`] for a non-positive `delta_m`.
    pub fn new(k: usize, delta_m: f64) -> Result<Self, CoreError> {
        if k < 2 {
            return Err(CoreError::KTooSmall(k));
        }
        let delta_m = require_positive("delta", delta_m)?;
        Ok(KDelta {
            k,
            delta_m,
            resample: Seconds::new(60.0),
            cluster_radius_m: delta_m * 4.0,
            min_overlap: 0.5,
        })
    }

    /// Overrides the time-alignment grid interval.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when below one second.
    pub fn with_resample(mut self, interval: Seconds) -> Result<Self, CoreError> {
        if !interval.is_finite() || interval.get() < 1.0 {
            return Err(CoreError::InvalidParameter {
                what: "resample interval",
                value: interval.get(),
            });
        }
        self.resample = interval;
        Ok(self)
    }

    /// Overrides the candidate matching radius.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for non-positive values.
    pub fn with_cluster_radius(mut self, radius_m: f64) -> Result<Self, CoreError> {
        self.cluster_radius_m = require_positive("cluster radius", radius_m)?;
        Ok(self)
    }

    /// Anonymity set size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Proximity bound δ, meters.
    pub fn delta(&self) -> f64 {
        self.delta_m
    }

    /// Runs the mechanism and returns the protected dataset with its
    /// report.
    ///
    /// Candidate generation is pruned through per-time-chunk
    /// [`FootprintIndex`]es over trace-segment bounding boxes: a trace
    /// within `cluster_radius_m` synchronized distance of the pivot has
    /// a slot — hence a same-chunk segment — within that radius, so
    /// each pivot only scores the traces its chunk queries return, and
    /// the per-candidate slot sweep aborts early once the partial sum
    /// provably exceeds the radius. The output is bit-identical to
    /// [`protect_with_report_naive`] (candidates sort by
    /// `(distance, trace index)`, exactly the order the stable
    /// brute-force sort produced).
    ///
    /// [`protect_with_report_naive`]: KDelta::protect_with_report_naive
    pub fn protect_with_report(&self, dataset: &Dataset) -> (Dataset, KDeltaReport) {
        self.protect_inner(dataset, true)
    }

    /// Brute-force reference implementation: scans every unassigned
    /// trace per pivot (`O(n²·L)` synchronized-distance evaluations)
    /// instead of querying the footprint index. Kept public for the
    /// indexed≡naive equivalence tests and the `mobipriv-bench-perf`
    /// before/after comparison.
    pub fn protect_with_report_naive(&self, dataset: &Dataset) -> (Dataset, KDeltaReport) {
        self.protect_inner(dataset, false)
    }

    fn protect_inner(&self, dataset: &Dataset, indexed: bool) -> (Dataset, KDeltaReport) {
        // Frame reuse only: the aggregation works on resampled
        // (interpolated) positions, so the per-fix projection columns do
        // not apply — but the canonical frame itself is shared.
        let Some(frame) = dataset.columns().frame().copied() else {
            return (Dataset::new(), KDeltaReport::default());
        };
        // 1. Align on the absolute grid.
        let grid = self.resample.get() as i64;
        let aligned: Vec<AlignedTrace> = dataset
            .traces()
            .iter()
            .map(|t| {
                let first_slot = t.start_time().get().div_euclid(grid) + 1;
                let last_slot = t.end_time().get().div_euclid(grid);
                let positions: Vec<Point> = (first_slot..=last_slot)
                    .map(|s| frame.project(t.position_at(Timestamp::new(s * grid))))
                    .collect();
                AlignedTrace {
                    first_slot,
                    positions,
                }
            })
            .collect();

        // 2. Greedy clustering.
        let n = aligned.len();
        let mut unassigned: Vec<usize> = (0..n).collect();
        // Longest first: long traces make the best pivots.
        unassigned.sort_by_key(|&i| std::cmp::Reverse(aligned[i].positions.len()));
        let mut assigned = vec![false; n];
        // Spatio-temporal prefilter: a candidate within
        // `cluster_radius_m` mean synchronized distance has at least one
        // slot within that radius of the pivot. Grouping slots into
        // fixed chunks of the absolute grid, that slot falls in the
        // *same* chunk for both traces — so bucketing each trace's
        // per-chunk bounding box in a per-chunk [`FootprintIndex`]
        // (cells sized by the radius) and querying the pivot's chunks
        // inflated by the radius can never miss a qualifying candidate,
        // while skipping both time-disjoint and spatially-far traces.
        // Whole-trace boxes would not prune: a day of commuting sweeps
        // most of a city.
        let mut chunked =
            indexed.then(|| ChunkedFootprints::build(&aligned, self.cluster_radius_m));
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        let mut trash: Vec<usize> = Vec::new();
        // Dedup stamp for the multi-cell, multi-chunk footprint visits:
        // stamp[j] holds the last pivot that already scored trace j.
        let mut stamp = vec![usize::MAX; n];
        for &pivot in &unassigned {
            if assigned[pivot] {
                continue;
            }
            let mut candidates: Vec<(f64, usize)> = Vec::new();
            match &chunked {
                Some(fp) => {
                    fp.for_each_candidate(pivot, |j| {
                        if j == pivot || assigned[j] || stamp[j] == pivot {
                            return;
                        }
                        stamp[j] = pivot;
                        let (a, b) = (&aligned[pivot], &aligned[j]);
                        let lo = a.first_slot.max(b.first_slot);
                        let hi = a.last_slot().min(b.last_slot());
                        if hi < lo {
                            return; // no common slots
                        }
                        let overlap = (hi - lo + 1) as f64;
                        let shorter = a.positions.len().min(b.positions.len()) as f64;
                        if shorter == 0.0 || overlap / shorter < self.min_overlap {
                            return;
                        }
                        // Conservative radius cutoff on the *sum*; the
                        // tiny slack keeps boundary candidates on the
                        // exact-comparison path below.
                        let cutoff = self.cluster_radius_m * overlap * (1.0 + 1e-9) + 1e-6;
                        if fp.sum_lower_bound(pivot, j, lo, hi) > cutoff {
                            return; // provably beyond the radius
                        }
                        if let Some(d) =
                            bounded_mean_sweep(a, b, lo, hi, cutoff, self.cluster_radius_m)
                        {
                            candidates.push((d, j));
                        }
                    });
                }
                None => {
                    candidates.extend(
                        (0..n)
                            .filter(|&j| j != pivot && !assigned[j])
                            .filter_map(|j| {
                                sync_distance(&aligned[pivot], &aligned[j], self.min_overlap)
                                    .map(|d| (d, j))
                            })
                            .filter(|(d, _)| *d <= self.cluster_radius_m),
                    );
                }
            }
            // The explicit index tie-break reproduces the stable
            // brute-force sort over an ascending-index candidate list.
            candidates.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("finite distances")
                    .then(a.1.cmp(&b.1))
            });
            if candidates.len() >= self.k - 1 {
                let mut cluster = vec![pivot];
                cluster.extend(candidates.iter().take(self.k - 1).map(|(_, j)| *j));
                for &m in &cluster {
                    assigned[m] = true;
                    if let Some(fp) = chunked.as_mut() {
                        fp.remove(m);
                    }
                }
                clusters.push(cluster);
            } else {
                assigned[pivot] = true;
                if let Some(fp) = chunked.as_mut() {
                    fp.remove(pivot);
                }
                trash.push(pivot);
            }
        }

        // 3. Spatial editing toward per-slot centroids.
        let mut out = Dataset::new();
        for cluster in &clusters {
            // Slot range covered by any member.
            let lo = cluster
                .iter()
                .map(|&i| aligned[i].first_slot)
                .min()
                .expect("non-empty cluster");
            let hi = cluster
                .iter()
                .map(|&i| aligned[i].last_slot())
                .max()
                .expect("non-empty cluster");
            // Per-slot centroid over the members present at that slot.
            let mut centroids: Vec<Option<Point>> = Vec::with_capacity((hi - lo + 1) as usize);
            for slot in lo..=hi {
                let members: Vec<Point> = cluster
                    .iter()
                    .filter_map(|&i| aligned[i].at(slot))
                    .collect();
                if members.is_empty() {
                    centroids.push(None);
                } else {
                    let c =
                        members.iter().fold(Point::ORIGIN, |a, p| a + *p) / members.len() as f64;
                    centroids.push(Some(c));
                }
            }
            for &i in cluster {
                let trace = &dataset.traces()[i];
                let mut builder = TraceBuilder::new(trace.user());
                for (offset, p) in aligned[i].positions.iter().enumerate() {
                    let slot = aligned[i].first_slot + offset as i64;
                    let centroid = centroids[(slot - lo) as usize]
                        .expect("member present implies centroid exists");
                    let edited = pull_within(*p, centroid, self.delta_m / 2.0);
                    builder.push_lenient(Fix::new(
                        frame.unproject(edited),
                        Timestamp::new(slot * grid),
                    ));
                }
                if let Ok(t) = builder.build() {
                    out.push(t);
                }
            }
        }
        let report = KDeltaReport {
            clusters: clusters.len(),
            published_traces: out.len(),
            suppressed_traces: dataset.len() - out.len(),
        };
        (out, report)
    }
}

/// Slots per prefilter chunk: 4 alignment slots (4 minutes on the
/// default 60 s grid) keeps each chunk's bounding box tight even for
/// vehicular traces, which is what gives the footprint prefilter its
/// selectivity.
const CHUNK_SLOTS: i64 = 4;

/// The spatio-temporal candidate prefilter: one [`FootprintIndex`] per
/// chunk of the absolute time grid, each holding the bounding boxes of
/// the trace segments falling in that chunk.
struct ChunkedFootprints {
    /// Cells sized by the cluster radius.
    radius: f64,
    /// chunk time index → footprint grid over that chunk's segments.
    grids: std::collections::HashMap<i64, FootprintIndex<usize>>,
    /// Per trace: its (chunk index, segment bounding box) list, kept to
    /// query and remove without re-deriving.
    chunks: Vec<Vec<(i64, Rect)>>,
}

impl ChunkedFootprints {
    fn build(aligned: &[AlignedTrace], radius: f64) -> Self {
        let chunks: Vec<Vec<(i64, Rect)>> = aligned
            .iter()
            .map(|a| {
                let mut v = Vec::new();
                let mut s = a.first_slot;
                while s <= a.last_slot() {
                    let t = s.div_euclid(CHUNK_SLOTS);
                    let end = ((t + 1) * CHUNK_SLOTS - 1).min(a.last_slot());
                    let rect = Rect::of((s..=end).map(|slot| a.at(slot).expect("slot in range")))
                        .expect("non-empty chunk");
                    v.push((t, rect));
                    s = end + 1;
                }
                v
            })
            .collect();
        let mut grids: std::collections::HashMap<i64, FootprintIndex<usize>> =
            std::collections::HashMap::new();
        for (i, trace_chunks) in chunks.iter().enumerate() {
            for (t, rect) in trace_chunks {
                grids
                    .entry(*t)
                    .or_insert_with(|| FootprintIndex::new(radius).expect("validated radius"))
                    .insert(*rect, i);
            }
        }
        ChunkedFootprints {
            radius,
            grids,
            chunks,
        }
    }

    /// Visits (with possible repeats — callers stamp-deduplicate) every
    /// trace owning a segment within the radius of one of `pivot`'s
    /// segments in the same time chunk: a superset of every trace whose
    /// synchronized distance to the pivot can be within the radius.
    fn for_each_candidate<F: FnMut(usize)>(&self, pivot: usize, mut f: F) {
        for (t, rect) in &self.chunks[pivot] {
            if let Some(grid) = self.grids.get(t) {
                grid.for_each_candidate(rect.inflated(self.radius), |&j| f(j));
            }
        }
    }

    /// Drops an assigned trace from every chunk grid so later pivots
    /// stop enumerating it.
    fn remove(&mut self, i: usize) {
        for (t, rect) in &self.chunks[i] {
            if let Some(grid) = self.grids.get_mut(t) {
                grid.remove(*rect, &i);
            }
        }
    }

    /// A provable lower bound on the synchronized-distance *sum* of
    /// traces `i` and `j` over their common slot range `[lo, hi]`: per
    /// common chunk, the separation of the two segment boxes times the
    /// common slots in the chunk (every slot distance in the chunk is
    /// at least the box separation). Costs a handful of rectangle
    /// comparisons, so candidates whose bound already exceeds the
    /// radius cutoff skip the slot sweep entirely.
    fn sum_lower_bound(&self, i: usize, j: usize, lo: i64, hi: i64) -> f64 {
        let (ci, cj) = (&self.chunks[i], &self.chunks[j]);
        let (ti0, tj0) = (ci[0].0, cj[0].0);
        let mut bound = 0.0;
        for t in lo.div_euclid(CHUNK_SLOTS)..=hi.div_euclid(CHUNK_SLOTS) {
            let slots = (hi.min((t + 1) * CHUNK_SLOTS - 1) - lo.max(t * CHUNK_SLOTS) + 1) as f64;
            let ra = ci[(t - ti0) as usize].1;
            let rb = cj[(t - tj0) as usize].1;
            bound += slots * rect_gap(&ra, &rb);
        }
        bound
    }
}

/// A lower bound on the distance between any two points of two
/// axis-aligned rectangles: the larger axis gap (zero when they
/// intersect). Chebyshev instead of Euclidean keeps the hot prefilter
/// free of square roots; the bound is at most `√2` below the true
/// separation, which only makes the prefilter admit slightly more.
fn rect_gap(a: &Rect, b: &Rect) -> f64 {
    let gx = (b.min().x - a.max().x).max(a.min().x - b.max().x).max(0.0);
    let gy = (b.min().y - a.max().y).max(a.min().y - b.max().y).max(0.0);
    gx.max(gy)
}

/// A trace resampled on the absolute grid.
struct AlignedTrace {
    first_slot: i64,
    positions: Vec<Point>,
}

impl AlignedTrace {
    fn last_slot(&self) -> i64 {
        self.first_slot + self.positions.len() as i64 - 1
    }

    fn at(&self, slot: i64) -> Option<Point> {
        if slot < self.first_slot || slot > self.last_slot() {
            return None;
        }
        Some(self.positions[(slot - self.first_slot) as usize])
    }
}

/// Mean synchronized Euclidean distance over the common slots; `None`
/// when the overlap covers less than `min_overlap` of the shorter trace.
fn sync_distance(a: &AlignedTrace, b: &AlignedTrace, min_overlap: f64) -> Option<f64> {
    let lo = a.first_slot.max(b.first_slot);
    let hi = a.last_slot().min(b.last_slot());
    if hi < lo {
        return None;
    }
    let overlap = (hi - lo + 1) as f64;
    let shorter = a.positions.len().min(b.positions.len()) as f64;
    if shorter == 0.0 || overlap / shorter < min_overlap {
        return None;
    }
    let sum: f64 = (lo..=hi)
        .map(|s| {
            a.at(s)
                .expect("slot in range")
                .distance(b.at(s).expect("slot in range"))
                .get()
        })
        .sum();
    Some(sum / overlap)
}

/// The slot sweep of [`sync_distance`] over the precomputed common
/// range `[lo, hi]`, with a radius cut: returns the exact mean when it
/// is `≤ max_mean`, `None` otherwise — aborting as soon as the partial
/// sum exceeds `cutoff` (distances only accumulate, so the partial sum
/// is a lower bound on the total).
///
/// `cutoff` must sit slightly *above* `max_mean × overlap` (the caller
/// derives it once, shared with the chunk lower-bound prefilter) so
/// boundary candidates still finish the sweep and face the *same*
/// `mean ≤ max_mean` comparison, on the same left-to-right sum, as the
/// unbounded path — keeping candidate sets bit-identical.
fn bounded_mean_sweep(
    a: &AlignedTrace,
    b: &AlignedTrace,
    lo: i64,
    hi: i64,
    cutoff: f64,
    max_mean: f64,
) -> Option<f64> {
    let len = (hi - lo + 1) as usize;
    let xs = &a.positions[(lo - a.first_slot) as usize..][..len];
    let ys = &b.positions[(lo - b.first_slot) as usize..][..len];
    let mut sum = 0.0;
    // Same left-to-right accumulation as the unbounded sweep — the
    // non-aborted sum is bit-identical.
    for (pa, pb) in xs.iter().zip(ys) {
        sum += pa.distance(*pb).get();
        if sum > cutoff {
            return None;
        }
    }
    let mean = sum / len as f64;
    (mean <= max_mean).then_some(mean)
}

/// Moves `p` toward `center` until it is within `max_dist`.
fn pull_within(p: Point, center: Point, max_dist: f64) -> Point {
    let d = p.distance(center).get();
    if d <= max_dist {
        p
    } else {
        center + (p - center) * (max_dist / d)
    }
}

impl Mechanism for KDelta {
    fn name(&self) -> String {
        format!("kdelta(k={},δ={}m)", self.k, self.delta_m)
    }

    fn stages(&self) -> Vec<Stage<'_>> {
        vec![Stage::Dataset(self)]
    }
}

impl DatasetStage for KDelta {
    fn run(&self, dataset: &Dataset, _rng: &mut dyn RngCore) -> (Dataset, Report) {
        let (output, report) = self.protect_with_report(dataset);
        (output, Report::KDelta(report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_geo::{LatLng, LocalFrame};
    use mobipriv_model::{Trace, UserId};

    /// `n` users walking north in parallel lanes `gap` meters apart.
    fn parallel_dataset(n: u64, gap: f64) -> Dataset {
        let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
        let traces = (0..n)
            .map(|u| {
                let fixes = (0..60)
                    .map(|i| {
                        let p = Point::new(u as f64 * gap, i as f64 * 20.0);
                        Fix::new(frame.unproject(p), Timestamp::new(i * 30))
                    })
                    .collect();
                Trace::new(UserId::new(u), fixes).unwrap()
            })
            .collect();
        Dataset::from_traces(traces)
    }

    #[test]
    fn validation() {
        assert!(KDelta::new(1, 100.0).is_err());
        assert!(KDelta::new(2, 0.0).is_err());
        assert!(KDelta::new(2, 100.0)
            .unwrap()
            .with_resample(Seconds::new(0.1))
            .is_err());
        assert!(KDelta::new(2, 100.0)
            .unwrap()
            .with_cluster_radius(-5.0)
            .is_err());
    }

    #[test]
    fn close_traces_cluster_and_satisfy_delta() {
        let d = parallel_dataset(4, 50.0);
        let mech = KDelta::new(2, 200.0).unwrap();
        let (out, report) = mech.protect_with_report(&d);
        assert_eq!(report.suppressed_traces, 0);
        assert_eq!(report.clusters, 2);
        assert_eq!(out.len(), 4);
        // Verify the δ guarantee within each published cluster: since
        // every pair in a cluster is within δ at common instants.
        let frame = d.local_frame().unwrap();
        for a in out.traces() {
            for b in out.traces() {
                if a.user() == b.user() {
                    continue;
                }
                for f in a.fixes() {
                    let other = b.position_at(f.time);
                    if f.time >= b.start_time() && f.time <= b.end_time() {
                        let dist = frame
                            .project(f.position)
                            .distance(frame.project(other))
                            .get();
                        // Co-clustered pairs satisfy δ; non-co-clustered
                        // pairs in this symmetric layout start 50–150 m
                        // apart, so a generous sanity bound suffices.
                        assert!(dist <= 400.0, "{dist}");
                    }
                }
            }
        }
    }

    #[test]
    fn co_cluster_members_within_delta() {
        let d = parallel_dataset(2, 100.0);
        let mech = KDelta::new(2, 120.0).unwrap();
        let (out, report) = mech.protect_with_report(&d);
        assert_eq!(report.clusters, 1);
        let frame = d.local_frame().unwrap();
        let a = &out.traces()[0];
        let b = &out.traces()[1];
        for (fa, fb) in a.fixes().iter().zip(b.fixes()) {
            assert_eq!(fa.time, fb.time);
            let dist = frame
                .project(fa.position)
                .distance(frame.project(fb.position))
                .get();
            assert!(dist <= 120.0 + 1e-6, "pairwise distance {dist}");
        }
    }

    #[test]
    fn isolated_trace_is_suppressed() {
        let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
        let mut d = parallel_dataset(2, 50.0);
        // A third user 20 km away: unclusterable.
        let fixes = (0..60)
            .map(|i| {
                let p = Point::new(20_000.0, i as f64 * 20.0);
                Fix::new(frame.unproject(p), Timestamp::new(i * 30))
            })
            .collect();
        d.push(Trace::new(UserId::new(99), fixes).unwrap());
        let mech = KDelta::new(2, 200.0).unwrap();
        let (out, report) = mech.protect_with_report(&d);
        assert_eq!(report.suppressed_traces, 1);
        assert!(!out.users().contains(&UserId::new(99)));
        assert!((report.suppression_ratio() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn k_larger_than_population_suppresses_everything() {
        let d = parallel_dataset(3, 50.0);
        let mech = KDelta::new(5, 500.0).unwrap();
        let (out, report) = mech.protect_with_report(&d);
        assert!(out.is_empty());
        assert_eq!(report.suppressed_traces, 3);
        assert_eq!(report.suppression_ratio(), 1.0);
    }

    #[test]
    fn non_overlapping_times_do_not_cluster() {
        let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
        let make = |user: u64, t0: i64| {
            let fixes = (0..30)
                .map(|i| {
                    let p = Point::new(0.0, i as f64 * 20.0);
                    Fix::new(frame.unproject(p), Timestamp::new(t0 + i * 30))
                })
                .collect();
            Trace::new(UserId::new(user), fixes).unwrap()
        };
        // Same path, disjoint hours: cannot be (k,δ)-anonymized.
        let d = Dataset::from_traces(vec![make(1, 0), make(2, 50_000)]);
        let mech = KDelta::new(2, 200.0).unwrap();
        let (out, report) = mech.protect_with_report(&d);
        assert!(out.is_empty());
        assert_eq!(report.suppressed_traces, 2);
    }

    #[test]
    fn empty_dataset() {
        let mech = KDelta::new(2, 100.0).unwrap();
        let (out, report) = mech.protect_with_report(&Dataset::new());
        assert!(out.is_empty());
        assert_eq!(report.clusters, 0);
        assert_eq!(report.suppression_ratio(), 0.0);
    }

    #[test]
    fn indexed_equals_naive_on_mixed_layout() {
        let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
        let mut d = parallel_dataset(6, 80.0);
        // An outlier and a short trace exercise the suppression and
        // empty-footprint paths.
        let far = (0..60)
            .map(|i| {
                let p = Point::new(30_000.0, i as f64 * 20.0);
                Fix::new(frame.unproject(p), Timestamp::new(i * 30))
            })
            .collect();
        d.push(Trace::new(UserId::new(90), far).unwrap());
        let short = (0..2)
            .map(|i| Fix::new(frame.unproject(Point::new(40.0, 0.0)), Timestamp::new(i)))
            .collect();
        d.push(Trace::new(UserId::new(91), short).unwrap());
        for k in [2, 3] {
            let mech = KDelta::new(k, 200.0).unwrap();
            let (fast, fast_report) = mech.protect_with_report(&d);
            let (slow, slow_report) = mech.protect_with_report_naive(&d);
            assert_eq!(fast, slow, "k={k}");
            assert_eq!(fast_report, slow_report, "k={k}");
        }
    }

    #[test]
    fn editing_distorts_less_when_lanes_are_closer() {
        let mech = KDelta::new(2, 100.0).unwrap();
        let distortion = |gap: f64| {
            let d = parallel_dataset(2, gap);
            let (out, _) = mech.protect_with_report(&d);
            let frame = d.local_frame().unwrap();
            let mut sum = 0.0;
            let mut count = 0;
            for (orig, edited) in d.traces().iter().zip(out.traces()) {
                for f in edited.fixes() {
                    let true_pos = orig.position_at(f.time);
                    sum += frame
                        .project(true_pos)
                        .distance(frame.project(f.position))
                        .get();
                    count += 1;
                }
            }
            sum / count as f64
        };
        assert!(distortion(20.0) < distortion(300.0));
    }
}
