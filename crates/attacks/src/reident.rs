use std::collections::BTreeMap;

use mobipriv_geo::{GridIndex, Point, Rect};
use mobipriv_model::{Dataset, UserId};
use mobipriv_poi::PoiExtractor;

/// The re-identification adversary.
///
/// Threat model (Gambs et al., "Show Me How You Move"): the adversary
/// observed each user during a *training* period (raw data — e.g. data
/// the users shared voluntarily) and later obtains a *protected*
/// release published under pseudonym labels. It extracts POI profiles
/// from both and links every published label to the known user whose
/// profile is closest; linking the label back to its user re-identifies
/// the pseudonym.
///
/// Profile distance: mean, over the label's POIs, of the distance to the
/// nearest profile POI (a directed chamfer distance — robust to the
/// protected side having fewer POIs).
#[derive(Debug, Clone, PartialEq)]
pub struct ReidentAttack {
    extractor: PoiExtractor,
    /// Labels whose best profile distance exceeds this give no guess.
    max_link_distance_m: f64,
}

impl Default for ReidentAttack {
    fn default() -> Self {
        ReidentAttack {
            extractor: PoiExtractor::default(),
            max_link_distance_m: 1_000.0,
        }
    }
}

/// The linking produced by a [`ReidentAttack`] run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReidentOutcome {
    /// For every published label: the guessed true user, if any.
    pub links: BTreeMap<UserId, Option<UserId>>,
}

impl ReidentOutcome {
    /// Fraction of labels whose guess matches `owner_of(label)`.
    /// Labels with no guess count as failures for the adversary.
    pub fn accuracy<F: Fn(UserId) -> UserId>(&self, owner_of: F) -> f64 {
        if self.links.is_empty() {
            return 0.0;
        }
        let correct = self
            .links
            .iter()
            .filter(|(label, guess)| **guess == Some(owner_of(**label)))
            .count();
        correct as f64 / self.links.len() as f64
    }

    /// Accuracy under the convention that a label's true owner is the
    /// user of the same id (holds for every mechanism except swapping).
    pub fn accuracy_identity(&self) -> f64 {
        self.accuracy(|label| label)
    }
}

impl ReidentAttack {
    /// Creates the attack with an explicit extractor and link-distance
    /// cut-off (meters).
    pub fn new(extractor: PoiExtractor, max_link_distance_m: f64) -> Self {
        ReidentAttack {
            extractor,
            max_link_distance_m,
        }
    }

    /// An attack tuned against a perturbation mechanism with the given
    /// expected per-point noise (meters); see
    /// [`PoiAttack::tuned_for_noise`](crate::PoiAttack::tuned_for_noise).
    pub fn tuned_for_noise(expected_noise_m: f64) -> Self {
        let noise = expected_noise_m.max(0.0);
        ReidentAttack {
            extractor: PoiExtractor::new(
                mobipriv_poi::StayPointConfig {
                    max_radius_m: 100.0 + 2.5 * noise,
                    min_dwell: mobipriv_geo::Seconds::from_minutes(15.0),
                },
                mobipriv_poi::ClusterConfig {
                    eps_m: 150.0 + noise,
                    min_pts: 1,
                },
            ),
            max_link_distance_m: 1_000.0 + noise,
        }
    }

    /// Links every label of `protected` to its most similar user from
    /// `training` (raw data).
    ///
    /// POI extraction on both sides reads the datasets' cached
    /// per-trace planar columns (projection hoisted to once per
    /// dataset, radius comparisons pruned — see
    /// [`PoiExtractor::extract_dataset`]).
    ///
    /// The profile store is column-oriented: all profile POIs live in
    /// two flat `x`/`y` arrays with per-user offset ranges (ascending
    /// user order), so the chamfer scan streams contiguous memory
    /// instead of chasing one heap `Vec` per user. Profiles large
    /// enough for a [`GridIndex`] to pay off are still indexed (built
    /// straight from the column slices). The scan itself is pruned:
    /// the profile whose centroid is nearest the label's centroid is
    /// scored first to seed a tight incumbent, and every other profile
    /// is skipped outright — or abandoned mid-sweep — once a
    /// bounding-box lower bound on its chamfer sum provably exceeds the
    /// incumbent. All of it leaves the selected link bit-identical to
    /// [`run_naive`](ReidentAttack::run_naive).
    pub fn run(&self, training: &Dataset, protected: &Dataset) -> ReidentOutcome {
        let profiles = self.extractor.extract_dataset(training);
        let observed = self.extractor.extract_dataset(protected);
        let frame = match training.local_frame() {
            Ok(f) => f,
            Err(_) => return ReidentOutcome::default(),
        };
        // Flatten the profiles into parallel coordinate columns with
        // CSR offsets, in ascending user order — the order the naive
        // `BTreeMap` iteration visits, so first-wins tie-breaking is
        // unchanged. Empty profiles are dropped here (the naive scan
        // skips them per label).
        let mut users: Vec<UserId> = Vec::with_capacity(profiles.len());
        let mut offsets: Vec<usize> = Vec::with_capacity(profiles.len() + 1);
        let mut xs: Vec<f64> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        offsets.push(0);
        for (user, pois) in &profiles {
            if pois.is_empty() {
                continue;
            }
            for poi in pois {
                let p = frame.project(poi.centroid);
                xs.push(p.x);
                ys.push(p.y);
            }
            users.push(*user);
            offsets.push(xs.len());
        }
        // Only profiles large enough for a grid query to beat the
        // linear scan get a grid, built from the column slices
        // (insertion order = column order).
        let grids: Vec<Option<GridIndex<usize>>> = (0..users.len())
            .map(|i| {
                let span = offsets[i]..offsets[i + 1];
                (span.len() >= GRID_PROFILE_MIN).then(|| profile_grid(&xs[span.clone()], &ys[span]))
            })
            .collect();
        // Per-profile summaries driving the pruned scan: the bounding
        // box yields the chamfer lower bound, the centroid picks the
        // first profile to score.
        let boxes: Vec<Rect> = (0..users.len())
            .map(|i| {
                let span = offsets[i]..offsets[i + 1];
                Rect::of(span.map(|j| Point::new(xs[j], ys[j]))).expect("non-empty profile")
            })
            .collect();
        let centroids: Vec<Point> = (0..users.len())
            .map(|i| {
                let span = offsets[i]..offsets[i + 1];
                let len = span.len() as f64;
                let (mut sx, mut sy) = (0.0, 0.0);
                for j in span {
                    sx += xs[j];
                    sy += ys[j];
                }
                Point::new(sx / len, sy / len)
            })
            .collect();
        let cols = ProfileColumns {
            users,
            offsets,
            xs,
            ys,
            grids,
            boxes,
            centroids,
        };
        let mut links = BTreeMap::new();
        for label in protected.users() {
            let points: Vec<Point> = observed
                .get(&label)
                .map(|ps| ps.iter().map(|p| frame.project(p.centroid)).collect())
                .unwrap_or_default();
            links.insert(label, self.best_match_columns(&points, &cols));
        }
        ReidentOutcome { links }
    }

    /// Pruned column scan of the flat profile store. Bit-identical to
    /// [`best_match`](ReidentAttack::best_match):
    ///
    /// * Per-point minima (linear over the column slice, or the grid
    ///   query — both return the exact [`Point::distance`] a scan would
    ///   see) and point-order summation are computed in the same fold
    ///   order, so any profile that finishes its sweep produces the
    ///   very mean the naive scan produces.
    /// * Profiles are scored centroid-nearest first instead of in
    ///   ascending user order, and the winner is selected as the
    ///   lexicographic minimum of `(mean, user)` — exactly the profile
    ///   the ascending-order strict-`<` fold kept (lowest mean, lowest
    ///   user among exact ties), independent of evaluation order.
    /// * A profile is skipped (or abandoned mid-sweep) only when
    ///   `partial sum + Σ gap(pⱼ, bbox)` over its unswept points
    ///   exceeds `incumbent · n` *plus slack*: the Chebyshev gap to the
    ///   profile's bounding box never exceeds the true nearest-POI
    ///   distance, and the `1e-9` relative + `1e-6` absolute slack
    ///   (same contract as the `KDelta` sweep cutoff) absorbs f64
    ///   summation-order wiggle, so only profiles whose full mean
    ///   provably exceeds the incumbent — losers even under the
    ///   tie-break — are ever dropped.
    fn best_match_columns(&self, points: &[Point], cols: &ProfileColumns) -> Option<UserId> {
        if points.is_empty() {
            return None;
        }
        let n = points.len();
        let nf = n as f64;
        // Score the profile whose centroid is nearest the label's
        // centroid first: with a near-optimal incumbent in place, the
        // bounding-box cutoff prunes almost every other profile before
        // any exact distance is computed. Pure evaluation-order
        // heuristic — the selected link does not depend on it.
        let label_centroid = {
            let (mut sx, mut sy) = (0.0, 0.0);
            for p in points {
                sx += p.x;
                sy += p.y;
            }
            Point::new(sx / nf, sy / nf)
        };
        let first = (0..cols.users.len())
            .map(|i| (label_centroid.distance(cols.centroids[i]).get(), i))
            .fold(None, |acc: Option<(f64, usize)>, cand| match acc {
                Some((d, _)) if d <= cand.0 => acc,
                _ => Some(cand),
            })
            .map(|(_, i)| i);
        // suffix[k] = lower bound on the chamfer sum over points[k..]
        // for the profile currently being considered.
        let mut suffix = vec![0.0; n + 1];
        let mut best: Option<(f64, UserId)> = None;
        let order = first
            .into_iter()
            .chain((0..cols.users.len()).filter(|i| Some(*i) != first));
        'profiles: for i in order {
            let user = cols.users[i];
            let cutoff = best.map(|(d, _)| d * nf * (1.0 + 1e-9) + 1e-6);
            if let Some(cutoff) = cutoff {
                let mut s = 0.0;
                for k in (0..n).rev() {
                    s += point_rect_gap(points[k], &cols.boxes[i]);
                    suffix[k] = s;
                }
                if suffix[0] > cutoff {
                    continue 'profiles;
                }
            }
            let span = cols.offsets[i]..cols.offsets[i + 1];
            let mut total = 0.0;
            for (k, p) in points.iter().enumerate() {
                let min = match &cols.grids[i] {
                    // The grid returns the nearest stored point, distance
                    // taken identically to the linear scan.
                    Some(grid) => {
                        let (q, _) = grid.nearest_neighbour(*p).expect("non-empty profile");
                        p.distance(q).get()
                    }
                    None => {
                        let mut min = f64::INFINITY;
                        for j in span.clone() {
                            min =
                                f64::min(min, p.distance(Point::new(cols.xs[j], cols.ys[j])).get());
                        }
                        min
                    }
                };
                total += min;
                if let Some(cutoff) = cutoff {
                    if total + suffix[k + 1] > cutoff {
                        continue 'profiles;
                    }
                }
            }
            let mean = total / nf;
            let better = match best {
                None => true,
                Some((d, u)) => mean < d || (mean == d && user < u),
            };
            if better {
                best = Some((mean, user));
            }
        }
        best.and_then(|(d, u)| (d <= self.max_link_distance_m).then_some(u))
    }

    /// Brute-force reference implementation: POIs come from
    /// [`PoiExtractor::extract_dataset_naive`], profiles are one
    /// `Vec<Point>` per user behind a `BTreeMap`, and every label is
    /// scanned against every profile POI. Kept public for the
    /// indexed≡naive equivalence tests and the `mobipriv-bench-perf`
    /// before/after comparison.
    pub fn run_naive(&self, training: &Dataset, protected: &Dataset) -> ReidentOutcome {
        let profiles = self.extractor.extract_dataset_naive(training);
        let observed = self.extractor.extract_dataset_naive(protected);
        let frame = match training.local_frame() {
            Ok(f) => f,
            Err(_) => return ReidentOutcome::default(),
        };
        let profile_points: BTreeMap<UserId, Vec<Point>> = profiles
            .iter()
            .map(|(u, pois)| (*u, pois.iter().map(|p| frame.project(p.centroid)).collect()))
            .collect();
        let mut links = BTreeMap::new();
        for label in protected.users() {
            // Observed POIs are projected once here and passed through
            // as planar points — no LatLng round trip per comparison.
            let points: Vec<Point> = observed
                .get(&label)
                .map(|ps| ps.iter().map(|p| frame.project(p.centroid)).collect())
                .unwrap_or_default();
            links.insert(label, self.best_match(&points, &profile_points));
        }
        ReidentOutcome { links }
    }

    fn best_match(
        &self,
        points: &[Point],
        profiles: &BTreeMap<UserId, Vec<Point>>,
    ) -> Option<UserId> {
        if points.is_empty() {
            return None;
        }
        let mut best: Option<(f64, UserId)> = None;
        for (user, profile) in profiles {
            if profile.is_empty() {
                continue;
            }
            // Directed chamfer distance: observed POIs -> profile.
            let total: f64 = points
                .iter()
                .map(|p| {
                    profile
                        .iter()
                        .map(|q| p.distance(*q).get())
                        .fold(f64::INFINITY, f64::min)
                })
                .sum();
            let mean = total / points.len() as f64;
            if best.is_none_or(|(d, _)| mean < d) {
                best = Some((mean, *user));
            }
        }
        best.and_then(|(d, u)| (d <= self.max_link_distance_m).then_some(u))
    }
}

/// The flattened profile store of the column-oriented scan: every
/// profile POI in two contiguous coordinate columns with CSR offsets
/// (ascending user order), plus the per-profile summaries the pruned
/// scan consumes — optional [`GridIndex`], bounding box, centroid.
struct ProfileColumns {
    users: Vec<UserId>,
    offsets: Vec<usize>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    grids: Vec<Option<GridIndex<usize>>>,
    boxes: Vec<Rect>,
    centroids: Vec<Point>,
}

/// Chebyshev gap between a point and an axis-aligned box: zero inside,
/// otherwise the larger axis overshoot. Never exceeds the Euclidean
/// distance from `p` to *any* point of the box — in particular to the
/// nearest profile POI, all of which lie inside — so summing gaps lower
/// bounds a profile's chamfer sum while staying free of square roots.
fn point_rect_gap(p: Point, r: &Rect) -> f64 {
    let gx = (r.min().x - p.x).max(p.x - r.max().x).max(0.0);
    let gy = (r.min().y - p.y).max(p.y - r.max().y).max(0.0);
    gx.max(gy)
}

/// Profiles below this many POIs are matched by linear scan — the grid
/// query's ring bookkeeping only pays off past it.
const GRID_PROFILE_MIN: usize = 16;

/// Builds the nearest-neighbour grid over one user's profile POIs from
/// its column slices, with the cell size scaled to the profile's
/// spatial extent (profiles are small — a handful of POIs across a
/// city). Populated in column order via [`GridIndex::from_xy`], so ties
/// break like the linear scan.
fn profile_grid(xs: &[f64], ys: &[f64]) -> GridIndex<usize> {
    let extent = mobipriv_geo::Rect::of(xs.iter().zip(ys).map(|(&x, &y)| Point::new(x, y)))
        .expect("non-empty profile");
    let diag = extent.width().hypot(extent.height());
    let cell = (diag / 4.0).clamp(100.0, 10_000.0);
    GridIndex::from_xy(cell, xs, ys).expect("positive cell size")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_core::{GeoInd, Mechanism, Promesse};
    use mobipriv_synth::scenarios;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Train on day 0, test on day 1 of the same users.
    fn split() -> (Dataset, Dataset) {
        let out = scenarios::commuter_town(6, 2, 21);
        out.dataset
            .partition_by_time(mobipriv_model::Timestamp::new(86_400))
    }

    #[test]
    fn raw_release_is_fully_linkable() {
        let (train, test) = split();
        let outcome = ReidentAttack::default().run(&train, &test);
        let acc = outcome.accuracy_identity();
        assert!(acc > 0.8, "raw accuracy {acc}");
    }

    #[test]
    fn promesse_defeats_poi_profiles() {
        let (train, test) = split();
        let mut rng = StdRng::seed_from_u64(0);
        let protected = Promesse::new(100.0).unwrap().protect(&test, &mut rng);
        let outcome = ReidentAttack::default().run(&train, &protected);
        let acc = outcome.accuracy_identity();
        assert!(acc < 0.4, "promesse accuracy {acc}");
    }

    #[test]
    fn geoind_profiles_remain_linkable() {
        let (train, test) = split();
        let mut rng = StdRng::seed_from_u64(1);
        let protected = GeoInd::new(0.01).unwrap().protect(&test, &mut rng);
        let outcome = ReidentAttack::tuned_for_noise(200.0).run(&train, &protected);
        let acc = outcome.accuracy_identity();
        assert!(acc > 0.4, "geoind accuracy {acc}");
    }

    #[test]
    fn pruned_and_naive_agree_link_for_link() {
        let (train, test) = split();
        let mut rng = StdRng::seed_from_u64(1);
        let noisy = GeoInd::new(0.01).unwrap().protect(&test, &mut rng);
        for protected in [&test, &noisy] {
            for attack in [
                ReidentAttack::default(),
                ReidentAttack::tuned_for_noise(200.0),
            ] {
                assert_eq!(
                    attack.run(&train, protected),
                    attack.run_naive(&train, protected)
                );
            }
        }
    }

    #[test]
    fn exact_profile_ties_resolve_to_lowest_user_id() {
        use mobipriv_model::{Fix, Timestamp, Trace};
        // A trace with a 30-minute dwell, so the extractor finds a POI.
        let dwell_trace = |user: u64| {
            let fixes = (0..60)
                .map(|i| {
                    Fix::new(
                        mobipriv_geo::LatLng::new(45.01, 5.0).unwrap(),
                        Timestamp::new(i * 30),
                    )
                })
                .collect();
            Trace::new(UserId::new(user), fixes).unwrap()
        };
        // Users 5 and 2 have byte-identical profiles: every candidate
        // mean ties exactly, and the ascending-order strict-< fold of
        // the reference implementations keeps the lowest user id. The
        // pruned out-of-order scan must agree.
        let train = Dataset::from_traces(vec![dwell_trace(5), dwell_trace(2)]);
        let protected = Dataset::from_traces(vec![dwell_trace(9)]);
        let attack = ReidentAttack::default();
        let outcome = attack.run(&train, &protected);
        assert_eq!(outcome.links[&UserId::new(9)], Some(UserId::new(2)));
        assert_eq!(outcome, attack.run_naive(&train, &protected));
    }

    #[test]
    fn empty_protected_gives_empty_links() {
        let (train, _) = split();
        let outcome = ReidentAttack::default().run(&train, &Dataset::new());
        assert!(outcome.links.is_empty());
        assert_eq!(outcome.accuracy_identity(), 0.0);
    }

    #[test]
    fn accuracy_with_custom_owner_mapping() {
        let mut links = BTreeMap::new();
        links.insert(UserId::new(1), Some(UserId::new(2)));
        links.insert(UserId::new(2), Some(UserId::new(1)));
        let outcome = ReidentOutcome { links };
        // Under identity ownership both guesses are wrong…
        assert_eq!(outcome.accuracy_identity(), 0.0);
        // …but under the swapped ownership both are right.
        let acc = outcome.accuracy(|label| {
            if label == UserId::new(1) {
                UserId::new(2)
            } else {
                UserId::new(1)
            }
        });
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn unlinked_labels_count_as_adversary_failures() {
        let mut links = BTreeMap::new();
        links.insert(UserId::new(1), None::<UserId>);
        links.insert(UserId::new(2), Some(UserId::new(2)));
        let outcome = ReidentOutcome { links };
        assert_eq!(outcome.accuracy_identity(), 0.5);
    }
}
