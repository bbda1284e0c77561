use std::collections::BTreeMap;

use mobipriv_geo::{LatLng, Seconds};
use mobipriv_model::{Dataset, Trace, UserId};

use crate::{
    cluster_stay_points, detect_stay_points, detect_stay_points_planar, ClusterConfig, StayPoint,
    StayPointConfig,
};

/// An extracted point of interest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poi {
    /// Dwell-weighted centroid of the merged stays.
    pub centroid: LatLng,
    /// Maximum distance from the centroid to a member stay (meters).
    pub radius_m: f64,
    /// Total time spent at this POI across all merged stays.
    pub total_dwell: Seconds,
    /// Number of stay points merged into this POI.
    pub stay_count: usize,
}

/// The end-to-end POI extraction pipeline: stay-point detection followed
/// by density-joinable clustering, applied per user.
///
/// Used both as the *attack* (run on protected data) and as the utility
/// reference (run on raw data).
///
/// ```
/// use mobipriv_poi::{ClusterConfig, PoiExtractor, StayPointConfig};
/// let extractor = PoiExtractor::default();
/// assert_eq!(extractor.cluster_config().min_pts, 1);
/// # let _ = extractor;
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PoiExtractor {
    staypoints: StayPointConfig,
    clusters: ClusterConfig,
}

impl PoiExtractor {
    /// Creates an extractor from explicit configurations.
    pub fn new(staypoints: StayPointConfig, clusters: ClusterConfig) -> Self {
        PoiExtractor {
            staypoints,
            clusters,
        }
    }

    /// The stay-point detection parameters.
    pub fn stay_point_config(&self) -> &StayPointConfig {
        &self.staypoints
    }

    /// The clustering parameters.
    pub fn cluster_config(&self) -> &ClusterConfig {
        &self.clusters
    }

    /// Extracts the POIs of a single trace.
    pub fn extract_trace(&self, trace: &Trace) -> Vec<Poi> {
        let stays = detect_stay_points(trace, &self.staypoints);
        cluster_stay_points(&stays, &self.clusters)
    }

    /// Extracts POIs per user over a whole dataset: stay points of every
    /// trace of a user are pooled, then clustered together, so recurring
    /// visits across days reinforce each other.
    ///
    /// Stay-point detection reads each trace's projection from the
    /// dataset's cached [`trace_planar`] column (computed once per
    /// dataset) through the pruned scan — pooling order per user is
    /// dataset order, exactly the order the per-user grouping visited,
    /// so the extracted POIs are bit-identical to
    /// [`extract_dataset_naive`](PoiExtractor::extract_dataset_naive).
    ///
    /// [`trace_planar`]: mobipriv_model::DatasetColumns::trace_planar
    pub fn extract_dataset(&self, dataset: &Dataset) -> BTreeMap<UserId, Vec<Poi>> {
        let cols = dataset.columns();
        let planar = cols.trace_planar();
        let mut stays: BTreeMap<UserId, Vec<StayPoint>> = BTreeMap::new();
        for idx in 0..cols.trace_count() {
            let trace = &dataset.traces()[idx];
            let detected =
                detect_stay_points_planar(trace, &planar[cols.span(idx)], &self.staypoints);
            stays.entry(cols.user(idx)).or_default().extend(detected);
        }
        stays
            .into_iter()
            .map(|(user, s)| (user, cluster_stay_points(&s, &self.clusters)))
            .collect()
    }

    /// Reference implementation of
    /// [`extract_dataset`](PoiExtractor::extract_dataset): every trace
    /// re-projected per call, radius comparisons unpruned. Kept public
    /// for the equivalence tests and as the extraction step of
    /// `ReidentAttack::run_naive`.
    pub fn extract_dataset_naive(&self, dataset: &Dataset) -> BTreeMap<UserId, Vec<Poi>> {
        let mut out = BTreeMap::new();
        for (user, traces) in dataset.by_user() {
            let mut stays = Vec::new();
            for trace in traces {
                stays.extend(detect_stay_points(trace, &self.staypoints));
            }
            out.insert(user, cluster_stay_points(&stays, &self.clusters));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_model::{Fix, Timestamp};

    fn fix(lat: f64, lng: f64, t: i64) -> Fix {
        Fix::new(LatLng::new(lat, lng).unwrap(), Timestamp::new(t))
    }

    /// A day with a 30-min stop at `stop_lat` starting at `t0`.
    fn day_trace(user: u64, day_offset: i64, stop_lat: f64) -> Trace {
        let mut fixes = Vec::new();
        let mut t = day_offset;
        for i in 0..10 {
            fixes.push(fix(stop_lat - 0.003 + 0.0003 * i as f64, 5.0, t));
            t += 30;
        }
        for _ in 0..60 {
            fixes.push(fix(stop_lat, 5.0, t));
            t += 30;
        }
        for i in 0..10 {
            fixes.push(fix(stop_lat + 0.0003 * (i + 1) as f64, 5.0, t));
            t += 30;
        }
        Trace::new(UserId::new(user), fixes).unwrap()
    }

    #[test]
    fn extract_trace_finds_the_stop() {
        let extractor = PoiExtractor::default();
        let pois = extractor.extract_trace(&day_trace(1, 0, 45.01));
        assert_eq!(pois.len(), 1);
        let err = pois[0]
            .centroid
            .haversine_distance(LatLng::new(45.01, 5.0).unwrap())
            .get();
        assert!(err < 15.0, "{err}");
    }

    #[test]
    fn extract_dataset_pools_across_days() {
        let extractor = PoiExtractor::default();
        // Same user, same stop location, two days.
        let d = Dataset::from_traces(vec![day_trace(1, 0, 45.01), day_trace(1, 86_400, 45.01)]);
        let by_user = extractor.extract_dataset(&d);
        let pois = &by_user[&UserId::new(1)];
        assert_eq!(pois.len(), 1, "recurring stop merges to one POI");
        assert_eq!(pois[0].stay_count, 2);
        assert!(pois[0].total_dwell.get() >= 2.0 * 1_700.0);
    }

    #[test]
    fn extract_dataset_keeps_users_separate() {
        let extractor = PoiExtractor::default();
        let d = Dataset::from_traces(vec![day_trace(1, 0, 45.01), day_trace(2, 0, 45.05)]);
        let by_user = extractor.extract_dataset(&d);
        assert_eq!(by_user.len(), 2);
        assert_eq!(by_user[&UserId::new(1)].len(), 1);
        assert_eq!(by_user[&UserId::new(2)].len(), 1);
    }

    #[test]
    fn empty_dataset_gives_empty_map() {
        let extractor = PoiExtractor::default();
        assert!(extractor.extract_dataset(&Dataset::new()).is_empty());
    }
}
