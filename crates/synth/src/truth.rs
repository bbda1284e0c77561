use std::collections::BTreeMap;

use mobipriv_geo::{LatLng, Seconds};
use mobipriv_model::{Timestamp, UserId};

use crate::{SiteCategory, SiteId};

/// One true stop of a user at a site — the ground truth a POI-extraction
/// attack is scored against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Visit {
    /// Who visited.
    pub user: UserId,
    /// Which site.
    pub site: SiteId,
    /// Category of the site.
    pub category: SiteCategory,
    /// Geographic position of the site.
    pub position: LatLng,
    /// Arrival instant.
    pub arrival: Timestamp,
    /// Departure instant.
    pub departure: Timestamp,
}

impl Visit {
    /// Time spent at the site.
    pub fn dwell(&self) -> Seconds {
        self.departure - self.arrival
    }
}

/// The complete ground truth of a generated dataset.
///
/// ```
/// use mobipriv_synth::scenarios;
/// let out = scenarios::commuter_town(3, 1, 1);
/// let users = out.dataset.users();
/// // Every user has at least home & work visits.
/// assert!(out.truth.visits_of_user(users[0]).len() >= 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroundTruth {
    visits: Vec<Visit>,
}

impl GroundTruth {
    /// Creates an empty ground truth.
    pub fn new() -> Self {
        GroundTruth { visits: Vec::new() }
    }

    /// Records a visit.
    pub fn push(&mut self, visit: Visit) {
        self.visits.push(visit);
    }

    /// All recorded visits, in insertion order.
    pub fn visits(&self) -> &[Visit] {
        &self.visits
    }

    /// Number of recorded visits.
    pub fn len(&self) -> usize {
        self.visits.len()
    }

    /// Returns `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.visits.is_empty()
    }

    /// The visits of one user, in insertion (chronological) order.
    pub fn visits_of_user(&self, user: UserId) -> Vec<&Visit> {
        self.visits.iter().filter(|v| v.user == user).collect()
    }

    /// Visits lasting at least `min_dwell` — the ones a POI attack with
    /// that time threshold could hope to find.
    pub fn significant_visits(&self, min_dwell: Seconds) -> Vec<&Visit> {
        self.visits
            .iter()
            .filter(|v| v.dwell().get() >= min_dwell.get())
            .collect()
    }

    /// The distinct true POIs of each user: unique sites among visits of
    /// at least `min_dwell`, with the total dwell accumulated there.
    pub fn poi_sites_by_user(
        &self,
        min_dwell: Seconds,
    ) -> BTreeMap<UserId, Vec<(SiteId, LatLng, Seconds)>> {
        let mut acc: BTreeMap<(UserId, SiteId), (LatLng, f64)> = BTreeMap::new();
        for v in self.significant_visits(min_dwell) {
            let e = acc.entry((v.user, v.site)).or_insert((v.position, 0.0));
            e.1 += v.dwell().get();
        }
        let mut out: BTreeMap<UserId, Vec<(SiteId, LatLng, Seconds)>> = BTreeMap::new();
        for ((user, site), (pos, dwell)) in acc {
            out.entry(user)
                .or_default()
                .push((site, pos, Seconds::new(dwell)));
        }
        out
    }

    /// Restricts the truth to visits overlapping `[from, to]`.
    pub fn clipped(&self, from: Timestamp, to: Timestamp) -> GroundTruth {
        GroundTruth {
            visits: self
                .visits
                .iter()
                .filter(|v| v.departure >= from && v.arrival <= to)
                .copied()
                .collect(),
        }
    }
}

impl Extend<Visit> for GroundTruth {
    fn extend<I: IntoIterator<Item = Visit>>(&mut self, iter: I) {
        self.visits.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn visit(user: u64, site: usize, arrival: i64, departure: i64) -> Visit {
        Visit {
            user: UserId::new(user),
            site: SiteId(site),
            category: SiteCategory::Home,
            position: LatLng::new(45.0, 5.0).unwrap(),
            arrival: Timestamp::new(arrival),
            departure: Timestamp::new(departure),
        }
    }

    #[test]
    fn dwell_duration() {
        assert_eq!(visit(1, 0, 100, 400).dwell().get(), 300.0);
    }

    #[test]
    fn filtering_by_user_and_dwell() {
        let mut gt = GroundTruth::new();
        gt.push(visit(1, 0, 0, 1_000));
        gt.push(visit(1, 1, 2_000, 2_100));
        gt.push(visit(2, 0, 0, 5_000));
        assert_eq!(gt.len(), 3);
        assert_eq!(gt.visits_of_user(UserId::new(1)).len(), 2);
        assert_eq!(gt.significant_visits(Seconds::new(500.0)).len(), 2);
    }

    #[test]
    fn poi_sites_accumulate_dwell_over_repeat_visits() {
        let mut gt = GroundTruth::new();
        gt.push(visit(1, 7, 0, 1_000));
        gt.push(visit(1, 7, 5_000, 7_000));
        let map = gt.poi_sites_by_user(Seconds::new(100.0));
        let pois = &map[&UserId::new(1)];
        assert_eq!(pois.len(), 1);
        assert_eq!(pois[0].0, SiteId(7));
        assert_eq!(pois[0].2.get(), 3_000.0);
    }

    #[test]
    fn clipped_keeps_overlapping_visits() {
        let mut gt = GroundTruth::new();
        gt.push(visit(1, 0, 0, 100));
        gt.push(visit(1, 1, 200, 300));
        let c = gt.clipped(Timestamp::new(150), Timestamp::new(500));
        assert_eq!(c.len(), 1);
        assert_eq!(c.visits()[0].site, SiteId(1));
    }

    #[test]
    fn extend_appends() {
        let mut gt = GroundTruth::new();
        gt.extend([visit(1, 0, 0, 10), visit(2, 1, 0, 10)]);
        assert_eq!(gt.len(), 2);
        assert!(!gt.is_empty());
    }
}
