use std::collections::BTreeMap;

use mobipriv_geo::{LatLng, Seconds};
use mobipriv_model::{Dataset, UserId};
use mobipriv_poi::{match_pois, MatchReport, PoiExtractor};
use mobipriv_synth::GroundTruth;

/// The POI-retrieval adversary: runs the Gambs-style extraction pipeline
/// on a (possibly protected) dataset and scores the result against the
/// ground truth.
///
/// The headline number is [`MatchReport::recall`]: the fraction of the
/// users' true POIs the adversary recovered. The paper claims its speed
/// smoothing drives this to ≈ 0 while geo-indistinguishability leaves
/// ≥ 60 % recoverable (experiment T1).
#[derive(Debug, Clone, PartialEq)]
pub struct PoiAttack {
    extractor: PoiExtractor,
    /// A truth POI counts as found when an extracted POI lies within
    /// this distance of it.
    tolerance_m: f64,
    /// Visits below this dwell are not counted as true POIs.
    min_truth_dwell: Seconds,
}

impl Default for PoiAttack {
    fn default() -> Self {
        PoiAttack {
            extractor: PoiExtractor::default(),
            tolerance_m: 250.0,
            min_truth_dwell: Seconds::from_minutes(15.0),
        }
    }
}

/// Per-user and aggregate results of a [`PoiAttack`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct PoiAttackOutcome {
    /// The match report of each user present in the ground truth.
    pub per_user: BTreeMap<UserId, MatchReport>,
    /// Micro-average over all users.
    pub overall: MatchReport,
}

impl PoiAttack {
    /// Creates the attack with an explicit extractor, matching tolerance
    /// (meters) and minimum true-POI dwell.
    pub fn new(extractor: PoiExtractor, tolerance_m: f64, min_truth_dwell: Seconds) -> Self {
        PoiAttack {
            extractor,
            tolerance_m,
            min_truth_dwell,
        }
    }

    /// The extraction pipeline in use.
    pub fn extractor(&self) -> &PoiExtractor {
        &self.extractor
    }

    /// An attack tuned against a location-perturbation mechanism with
    /// the given expected per-point noise (meters): the adversary knows
    /// the mechanism (Kerckhoffs) and widens its roaming radius, merge
    /// distance and matching tolerance accordingly. With
    /// `expected_noise_m = 0` this is the default attack.
    ///
    /// This is how the paper's "geo-indistinguishability leaves ≥ 60 %
    /// of POIs extractable even at high privacy" claim is evaluated —
    /// against an adversary that adapts, not one that ignores the noise.
    pub fn tuned_for_noise(expected_noise_m: f64) -> Self {
        let noise = expected_noise_m.max(0.0);
        PoiAttack {
            extractor: PoiExtractor::new(
                mobipriv_poi::StayPointConfig {
                    max_radius_m: 100.0 + 2.5 * noise,
                    min_dwell: Seconds::from_minutes(15.0),
                },
                mobipriv_poi::ClusterConfig {
                    eps_m: 150.0 + noise,
                    min_pts: 1,
                },
            ),
            tolerance_m: 250.0 + noise,
            min_truth_dwell: Seconds::from_minutes(15.0),
        }
    }

    /// Runs the attack on `published` and scores it against `truth`.
    ///
    /// Published traces are attributed by their label: the adversary's
    /// goal is "find the POIs of the user published as label *u*", so
    /// extraction for label *u* is scored against the true POIs of user
    /// *u*. (After identifier swapping a label's fixes may belong to
    /// someone else — exactly the confusion the mechanism intends.)
    pub fn run(&self, published: &Dataset, truth: &GroundTruth) -> PoiAttackOutcome {
        let extracted = self.extractor.extract_dataset(published);
        let truth_by_user = truth.poi_sites_by_user(self.min_truth_dwell);
        let mut per_user = BTreeMap::new();
        for (user, sites) in &truth_by_user {
            let truth_positions: Vec<LatLng> = sites.iter().map(|(_, pos, _)| *pos).collect();
            let extracted_positions: Vec<LatLng> = extracted
                .get(user)
                .map(|pois| pois.iter().map(|p| p.centroid).collect())
                .unwrap_or_default();
            per_user.insert(
                *user,
                match_pois(&truth_positions, &extracted_positions, self.tolerance_m),
            );
        }
        let overall = MatchReport::aggregate(per_user.values());
        PoiAttackOutcome { per_user, overall }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_core::{GeoInd, Identity, Mechanism, Promesse};
    use mobipriv_synth::scenarios;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload() -> mobipriv_synth::SynthOutput {
        scenarios::commuter_town(5, 2, 11)
    }

    #[test]
    fn raw_data_leaks_most_pois() {
        let out = workload();
        let attack = PoiAttack::default();
        let outcome = attack.run(&out.dataset, &out.truth);
        assert!(
            outcome.overall.recall > 0.7,
            "raw recall {}",
            outcome.overall.recall
        );
        assert_eq!(outcome.per_user.len(), out.dataset.users().len());
    }

    #[test]
    fn promesse_hides_almost_everything() {
        let out = workload();
        let mechanism = Promesse::new(100.0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let protected = mechanism.protect(&out.dataset, &mut rng);
        let outcome = PoiAttack::default().run(&protected, &out.truth);
        assert!(
            outcome.overall.recall < 0.2,
            "promesse recall {}",
            outcome.overall.recall
        );
    }

    #[test]
    fn geoind_leaves_pois_extractable() {
        let out = workload();
        // ε = 0.01/m → E[noise] = 200 m: a strong setting, yet dwell
        // clusters survive against a noise-tuned adversary (the paper's
        // ≥ 60 % claim).
        let mechanism = GeoInd::new(0.01).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let protected = mechanism.protect(&out.dataset, &mut rng);
        let outcome = PoiAttack::tuned_for_noise(200.0).run(&protected, &out.truth);
        assert!(
            outcome.overall.recall > 0.4,
            "geoind recall {}",
            outcome.overall.recall
        );
    }

    #[test]
    fn tuned_with_zero_noise_equals_default() {
        assert_eq!(PoiAttack::tuned_for_noise(0.0), PoiAttack::default());
        assert_eq!(PoiAttack::tuned_for_noise(-5.0), PoiAttack::default());
    }

    #[test]
    fn identity_equals_running_on_raw() {
        let out = workload();
        let mut rng = StdRng::seed_from_u64(2);
        let protected = Identity.protect(&out.dataset, &mut rng);
        let attack = PoiAttack::default();
        let a = attack.run(&out.dataset, &out.truth);
        let b = attack.run(&protected, &out.truth);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_published_dataset_scores_zero_recall() {
        let out = workload();
        let outcome = PoiAttack::default().run(&Dataset::new(), &out.truth);
        assert_eq!(outcome.overall.recall, 0.0);
        assert_eq!(outcome.overall.precision, 1.0); // vacuous
    }

    #[test]
    fn accessor_exposes_extractor() {
        let attack = PoiAttack::default();
        assert!(attack.extractor().stay_point_config().max_radius_m > 0.0);
    }
}
