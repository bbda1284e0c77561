use std::collections::BTreeMap;

use mobipriv_geo::{BoundingBox, GridIndex, LatLng, LocalFrame, Seconds};
use mobipriv_model::{Dataset, Trace, UserId};
use mobipriv_poi::{detect_stay_points, StayPoint, StayPointConfig};
use mobipriv_synth::{GroundTruth, SiteCategory};

/// The home-identification adversary.
///
/// The paper's introduction singles this out as the end-game threat:
/// "Learning users' POIs can ultimately lead to learn about the real
/// identity of individuals" — and the canonical first step is finding
/// the *home*, the place where every active day starts and ends.
///
/// Heuristic (standard in the literature): among a label's stay points,
/// score each by the dwell accumulated during *rest hours* (evenings,
/// nights and early mornings) plus the dwell of stays that open or
/// close a session; the top-scoring location is the home guess.
#[derive(Debug, Clone, PartialEq)]
pub struct HomeAttack {
    staypoints: StayPointConfig,
    /// A guess counts as correct within this distance of the true home.
    pub tolerance_m: f64,
    /// Hour of day (local, 0–23) after which dwell counts as rest time.
    pub rest_starts_hour: u8,
    /// Hour of day before which dwell counts as rest time.
    pub rest_ends_hour: u8,
}

impl Default for HomeAttack {
    fn default() -> Self {
        HomeAttack {
            staypoints: StayPointConfig::default(),
            tolerance_m: 250.0,
            rest_starts_hour: 19,
            rest_ends_hour: 9,
        }
    }
}

/// Result of a [`HomeAttack`] run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HomeAttackOutcome {
    /// Home guess per published label (None: no candidate stay at all).
    pub guesses: BTreeMap<UserId, Option<LatLng>>,
    /// Users whose true home was identified within the tolerance.
    pub identified: usize,
    /// Users evaluated (present in the ground truth).
    pub evaluated: usize,
}

impl HomeAttackOutcome {
    /// Fraction of evaluated users whose home was found.
    pub fn accuracy(&self) -> f64 {
        if self.evaluated == 0 {
            0.0
        } else {
            self.identified as f64 / self.evaluated as f64
        }
    }
}

impl HomeAttack {
    /// An attack tuned against a location-perturbation mechanism with
    /// the given expected per-point noise (meters): the adversary knows
    /// the mechanism (Kerckhoffs) and widens its stay-point radius and
    /// match tolerance accordingly, exactly like
    /// [`PoiAttack::tuned_for_noise`](crate::PoiAttack::tuned_for_noise).
    /// With `expected_noise_m = 0` this is the default attack.
    pub fn tuned_for_noise(expected_noise_m: f64) -> Self {
        let noise = expected_noise_m.max(0.0);
        HomeAttack {
            staypoints: StayPointConfig {
                max_radius_m: 100.0 + 2.5 * noise,
                min_dwell: Seconds::from_minutes(15.0),
            },
            tolerance_m: 250.0 + noise,
            ..HomeAttack::default()
        }
    }

    /// Runs the attack on `published`, scoring against the generator's
    /// ground truth (each user's true home = their `Home`-category
    /// visit position).
    ///
    /// The greedy home↔guess matching queries a [`GridIndex`] over the
    /// guesses for the candidates within `tolerance_m` of each home
    /// instead of materializing the full pair matrix. The outcome is
    /// bit-identical to [`run_naive`](HomeAttack::run_naive) — exact
    /// distances stay haversine, the grid only prefilters, and pairs
    /// sort by `(distance, home index, guess index)`, the order the
    /// stable brute-force sort produced.
    pub fn run(&self, published: &Dataset, truth: &GroundTruth) -> HomeAttackOutcome {
        self.run_inner(published, truth, true)
    }

    /// Brute-force reference implementation (full homes × guesses pair
    /// matrix). Kept public for the indexed≡naive equivalence tests and
    /// the `mobipriv-bench-perf` before/after comparison.
    pub fn run_naive(&self, published: &Dataset, truth: &GroundTruth) -> HomeAttackOutcome {
        self.run_inner(published, truth, false)
    }

    fn run_inner(
        &self,
        published: &Dataset,
        truth: &GroundTruth,
        indexed: bool,
    ) -> HomeAttackOutcome {
        // True home per user.
        let mut true_homes: BTreeMap<UserId, LatLng> = BTreeMap::new();
        for visit in truth.visits() {
            if visit.category == SiteCategory::Home {
                true_homes.entry(visit.user).or_insert(visit.position);
            }
        }
        let mut guesses: BTreeMap<UserId, Option<LatLng>> = BTreeMap::new();
        for (user, traces) in published.by_user() {
            guesses.insert(user, self.guess_home(&traces));
        }
        // Label-agnostic scoring: a true home counts as identified when
        // some label's guess lands on it (one-to-one, closest first).
        // Pseudonymizing the labels therefore does not help — the homes
        // are still exposed; linking them back to names is the separate
        // re-identification step.
        let homes: Vec<&LatLng> = true_homes.values().collect();
        let guessed: Vec<&LatLng> = guesses.values().flatten().collect();
        let mut pairs: Vec<(f64, usize, usize)> = if indexed {
            self.candidate_pairs_indexed(&homes, &guessed)
        } else {
            let mut pairs = Vec::new();
            for (hi, home) in homes.iter().enumerate() {
                for (gi, guess) in guessed.iter().enumerate() {
                    let d = home.haversine_distance(**guess).get();
                    if d <= self.tolerance_m {
                        pairs.push((d, hi, gi));
                    }
                }
            }
            pairs
        };
        // The explicit (home, guess) tie-break reproduces the stable
        // sort over the generation order of the full pair matrix.
        pairs.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite distances")
                .then((a.1, a.2).cmp(&(b.1, b.2)))
        });
        let mut home_used = vec![false; homes.len()];
        let mut guess_used = vec![false; guessed.len()];
        let mut identified = 0usize;
        for (_, hi, gi) in pairs {
            if !home_used[hi] && !guess_used[gi] {
                home_used[hi] = true;
                guess_used[gi] = true;
                identified += 1;
            }
        }
        HomeAttackOutcome {
            guesses,
            identified,
            evaluated: homes.len(),
        }
    }

    /// The qualifying `(distance, home, guess)` pairs, found through a
    /// planar grid over the projected guesses.
    ///
    /// The grid prefilters with a radius inflated by the worst-case
    /// east–west stretch of the equirectangular projection over the
    /// points' latitude span (planar x ≤ haversine × cos lat₀ ⁄ cos lat),
    /// so no pair within the haversine tolerance can be missed; the
    /// exact inclusion test is still the haversine distance.
    fn candidate_pairs_indexed(
        &self,
        homes: &[&LatLng],
        guessed: &[&LatLng],
    ) -> Vec<(f64, usize, usize)> {
        if homes.is_empty() || guessed.is_empty() {
            return Vec::new();
        }
        let bb = BoundingBox::of(homes.iter().chain(guessed.iter()).map(|p| **p));
        let origin = bb.center().expect("non-empty box");
        let frame = LocalFrame::new(origin);
        let min_cos = bb
            .south_west()
            .and_then(|sw| bb.north_east().map(|ne| (sw, ne)))
            .map(|(sw, ne)| sw.lat_rad().cos().min(ne.lat_rad().cos()))
            .expect("non-empty box")
            .max(1e-6);
        let stretch = (origin.lat_rad().cos() / min_cos).max(1.0);
        let radius = self.tolerance_m.max(0.0) * stretch * 1.001 + 1.0;
        let mut index = GridIndex::new(radius.max(1.0)).expect("positive cell size");
        for (gi, guess) in guessed.iter().enumerate() {
            index.insert(frame.project(**guess), gi);
        }
        let mut pairs = Vec::new();
        for (hi, home) in homes.iter().enumerate() {
            // Enumeration order is irrelevant: the caller sorts by the
            // total key (distance, home, guess).
            for &gi in index.neighbours_within(frame.project(**home), radius) {
                let d = home.haversine_distance(*guessed[gi]).get();
                if d <= self.tolerance_m {
                    pairs.push((d, hi, gi));
                }
            }
        }
        pairs
    }

    /// Returns the best home candidate for one label.
    ///
    /// Gambs-style "begin/end of the mobility day" heuristic: the home
    /// is where the user is last seen each evening and first seen each
    /// morning. The day-opening and day-closing stays are collected
    /// across all the label's traces; the location recurring most often
    /// among them wins, with accumulated rest-hour dwell as the
    /// tie-breaker.
    fn guess_home(&self, traces: &[&Trace]) -> Option<LatLng> {
        // Stays per day, with their traces kept in chronological order.
        let mut by_day: BTreeMap<i64, Vec<(&Trace, Vec<StayPoint>)>> = BTreeMap::new();
        for trace in traces {
            let stays = detect_stay_points(trace, &self.staypoints);
            by_day
                .entry(trace.start_time().get().div_euclid(86_400))
                .or_default()
                .push((trace, stays));
        }
        let mut endpoints: Vec<StayPoint> = Vec::new();
        for day_traces in by_day.values_mut() {
            day_traces.sort_by_key(|(t, _)| t.start_time());
            // Day-opening stay: first stay of the first session with one.
            if let Some(first) = day_traces.iter().find_map(|(_, s)| s.first()) {
                endpoints.push(*first);
            }
            // Day-closing stay: last stay of the last session with one.
            if let Some(last) = day_traces.iter().rev().find_map(|(_, s)| s.last()) {
                endpoints.push(*last);
            }
        }
        if endpoints.is_empty() {
            return None;
        }
        // Cluster the endpoint centroids by tolerance; rank by
        // (occurrences, rest-hour dwell).
        let mut anchors: Vec<(usize, f64, LatLng)> = Vec::new();
        for stay in &endpoints {
            let rest = self.rest_overlap(stay).get();
            match anchors
                .iter_mut()
                .find(|(_, _, pos)| pos.haversine_distance(stay.centroid).get() <= self.tolerance_m)
            {
                Some((count, dwell, _)) => {
                    *count += 1;
                    *dwell += rest;
                }
                None => anchors.push((1, rest, stay.centroid)),
            }
        }
        anchors
            .into_iter()
            .max_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("finite scores"))
            .map(|(_, _, pos)| pos)
    }

    /// Seconds of the stay that fall in the rest window.
    fn rest_overlap(&self, stay: &StayPoint) -> Seconds {
        let mut total = 0.0;
        let mut t = stay.arrival.get();
        let end = stay.departure.get();
        while t < end {
            let hour = ((t.rem_euclid(86_400)) / 3_600) as u8;
            let resting = if self.rest_starts_hour <= self.rest_ends_hour {
                (self.rest_starts_hour..self.rest_ends_hour).contains(&hour)
            } else {
                hour >= self.rest_starts_hour || hour < self.rest_ends_hour
            };
            // Advance to the next hour boundary.
            let next = ((t / 3_600) + 1) * 3_600;
            let step = next.min(end) - t;
            if resting {
                total += step as f64;
            }
            t = next.min(end);
        }
        Seconds::new(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_core::{Mechanism, Promesse};
    use mobipriv_synth::scenarios;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn finds_homes_on_raw_data() {
        let out = scenarios::commuter_town(6, 2, 31);
        let outcome = HomeAttack::default().run(&out.dataset, &out.truth);
        assert_eq!(outcome.evaluated, 6);
        assert!(
            outcome.accuracy() > 0.6,
            "raw home accuracy {}",
            outcome.accuracy()
        );
    }

    #[test]
    fn smoothing_defeats_home_identification() {
        let out = scenarios::commuter_town(6, 2, 31);
        let mut rng = StdRng::seed_from_u64(0);
        let published = Promesse::new(100.0)
            .unwrap()
            .protect(&out.dataset, &mut rng);
        let outcome = HomeAttack::default().run(&published, &out.truth);
        assert!(
            outcome.accuracy() < 0.2,
            "smoothed home accuracy {}",
            outcome.accuracy()
        );
    }

    #[test]
    fn empty_dataset_scores_zero() {
        let out = scenarios::commuter_town(2, 1, 31);
        let outcome = HomeAttack::default().run(&Dataset::new(), &out.truth);
        assert_eq!(outcome.accuracy(), 0.0);
        assert_eq!(outcome.identified, 0);
        assert!(outcome.guesses.is_empty());
    }

    #[test]
    fn rest_overlap_hours() {
        let attack = HomeAttack::default();
        let stay = |arrival: i64, departure: i64| StayPoint {
            centroid: LatLng::new(45.0, 5.0).unwrap(),
            arrival: mobipriv_model::Timestamp::new(arrival),
            departure: mobipriv_model::Timestamp::new(departure),
            fix_count: 10,
        };
        // Midnight to 02:00 is rest time.
        assert_eq!(attack.rest_overlap(&stay(0, 7_200)).get(), 7_200.0);
        // Noon to 14:00 is not.
        assert_eq!(attack.rest_overlap(&stay(43_200, 50_400)).get(), 0.0);
        // 18:00 to 20:00 straddles the 19:00 boundary: one hour counts.
        assert_eq!(attack.rest_overlap(&stay(64_800, 72_000)).get(), 3_600.0);
    }

    #[test]
    fn accuracy_of_empty_outcome_is_zero() {
        assert_eq!(HomeAttackOutcome::default().accuracy(), 0.0);
    }

    #[test]
    fn tuned_with_zero_noise_equals_default() {
        assert_eq!(HomeAttack::tuned_for_noise(0.0), HomeAttack::default());
        assert_eq!(HomeAttack::tuned_for_noise(-3.0), HomeAttack::default());
    }

    #[test]
    fn tuned_adversary_finds_homes_through_noise() {
        use mobipriv_core::GeoInd;
        let out = scenarios::commuter_town(6, 2, 31);
        let mut rng = StdRng::seed_from_u64(0);
        let published = GeoInd::new(0.01).unwrap().protect(&out.dataset, &mut rng);
        // The naive adversary is defeated by 200 m noise…
        let naive = HomeAttack::default().run(&published, &out.truth);
        assert!(naive.accuracy() < 0.2, "naive {}", naive.accuracy());
        // …but the noise-tuned one is not (the Kerckhoffs reading).
        let tuned = HomeAttack::tuned_for_noise(200.0).run(&published, &out.truth);
        assert!(tuned.accuracy() > 0.5, "tuned {}", tuned.accuracy());
    }
}
