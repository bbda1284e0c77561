use mobipriv_geo::{GridIndex, LocalFrame, Point};

use crate::extractor::Poi;
use crate::StayPoint;

/// Parameters of the density-joinable clustering of stay points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Merge radius between stay-point centroids (meters).
    pub eps_m: f64,
    /// Minimum number of stay points for a cluster to become a POI.
    /// `1` keeps isolated stays as POIs (the Gambs et al. setting for
    /// small datasets); higher values require recurrence.
    pub min_pts: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            eps_m: 150.0,
            min_pts: 1,
        }
    }
}

/// Merges recurring stay points into POIs with a DBSCAN-style
/// density-joinable clustering (DJ-cluster, as in the Gambs et al. POI
/// attack).
///
/// Two stay points are *joinable* when their centroids are within
/// `eps_m`; clusters are the transitive closure of joinability, kept only
/// when they contain at least `min_pts` stays.
///
/// The output is sorted by descending total dwell, i.e. most significant
/// POI first — making it order-insensitive with respect to the input.
pub fn cluster_stay_points(stays: &[StayPoint], config: &ClusterConfig) -> Vec<Poi> {
    if stays.is_empty() {
        return Vec::new();
    }
    let frame = LocalFrame::new(stays[0].centroid);
    let planar: Vec<Point> = stays.iter().map(|s| frame.project(s.centroid)).collect();
    let eps = config.eps_m.max(0.0);
    let mut index = GridIndex::new(eps.max(1.0)).expect("positive cell size");
    for (i, p) in planar.iter().enumerate() {
        index.insert(*p, i);
    }
    // Union-find over joinable stay points.
    let mut parent: Vec<usize> = (0..stays.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (i, p) in planar.iter().enumerate() {
        let neighbours: Vec<usize> = index.neighbours_within(*p, eps).copied().collect();
        for j in neighbours {
            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
            if ri != rj {
                parent[ri] = rj;
            }
        }
    }
    // Gather clusters.
    let mut clusters: std::collections::HashMap<usize, Vec<usize>> =
        std::collections::HashMap::new();
    for i in 0..stays.len() {
        let root = find(&mut parent, i);
        clusters.entry(root).or_default().push(i);
    }
    let mut pois: Vec<Poi> = clusters
        .into_values()
        .filter(|members| members.len() >= config.min_pts.max(1))
        .map(|members| {
            let total_dwell: f64 = members.iter().map(|&i| stays[i].dwell().get()).sum();
            // Dwell-weighted centroid: long stays dominate.
            let weight_sum: f64 = members
                .iter()
                .map(|&i| stays[i].dwell().get().max(1.0))
                .sum();
            let centroid_planar = members.iter().fold(Point::ORIGIN, |acc, &i| {
                acc + planar[i] * (stays[i].dwell().get().max(1.0) / weight_sum)
            });
            let radius = members
                .iter()
                .map(|&i| planar[i].distance(centroid_planar).get())
                .fold(0.0_f64, f64::max);
            Poi {
                centroid: frame.unproject(centroid_planar),
                radius_m: radius,
                total_dwell: mobipriv_geo::Seconds::new(total_dwell),
                stay_count: members.len(),
            }
        })
        .collect();
    pois.sort_by(|a, b| {
        b.total_dwell
            .get()
            .partial_cmp(&a.total_dwell.get())
            .expect("finite dwell")
            .then_with(|| {
                (b.stay_count, ordered(b.centroid)).cmp(&(a.stay_count, ordered(a.centroid)))
            })
    });
    pois
}

/// A total order on coordinates for deterministic tie-breaking.
fn ordered(ll: mobipriv_geo::LatLng) -> (i64, i64) {
    ((ll.lat() * 1e7) as i64, (ll.lng() * 1e7) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_geo::{LatLng, Seconds};
    use mobipriv_model::Timestamp;

    fn stay(lat: f64, lng: f64, arrival: i64, dwell: i64) -> StayPoint {
        StayPoint {
            centroid: LatLng::new(lat, lng).unwrap(),
            arrival: Timestamp::new(arrival),
            departure: Timestamp::new(arrival + dwell),
            fix_count: 10,
        }
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(cluster_stay_points(&[], &ClusterConfig::default()).is_empty());
    }

    #[test]
    fn nearby_stays_merge() {
        // Two stays ~50 m apart (within eps=150) and one 5 km away.
        let stays = vec![
            stay(45.0, 5.0, 0, 1_000),
            stay(45.00045, 5.0, 90_000, 2_000),
            stay(45.045, 5.0, 180_000, 3_000),
        ];
        let pois = cluster_stay_points(&stays, &ClusterConfig::default());
        assert_eq!(pois.len(), 2);
        // Sorted by total dwell: the merged pair has 3000 s, same as the
        // single far stay — sorted deterministically either way.
        let merged = pois.iter().find(|p| p.stay_count == 2).unwrap();
        assert_eq!(merged.total_dwell.get(), 3_000.0);
        assert!(merged.radius_m < 60.0);
    }

    #[test]
    fn min_pts_filters_isolated_stays() {
        let stays = vec![
            stay(45.0, 5.0, 0, 1_000),
            stay(45.0001, 5.0, 90_000, 1_000),
            stay(45.045, 5.0, 180_000, 9_000), // isolated
        ];
        let cfg = ClusterConfig {
            eps_m: 150.0,
            min_pts: 2,
        };
        let pois = cluster_stay_points(&stays, &cfg);
        assert_eq!(pois.len(), 1);
        assert_eq!(pois[0].stay_count, 2);
    }

    #[test]
    fn chain_merging_is_transitive() {
        // A chain of stays each 100 m apart: all joinable transitively.
        let stays: Vec<StayPoint> = (0..5)
            .map(|i| stay(45.0 + 0.0009 * i as f64, 5.0, i * 10_000, 1_000))
            .collect();
        let pois = cluster_stay_points(&stays, &ClusterConfig::default());
        assert_eq!(pois.len(), 1);
        assert_eq!(pois[0].stay_count, 5);
    }

    #[test]
    fn output_is_permutation_insensitive() {
        let mut stays = vec![
            stay(45.0, 5.0, 0, 1_000),
            stay(45.02, 5.0, 10_000, 5_000),
            stay(45.04, 5.0, 20_000, 3_000),
        ];
        let a = cluster_stay_points(&stays, &ClusterConfig::default());
        stays.reverse();
        let b = cluster_stay_points(&stays, &ClusterConfig::default());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!(x.centroid.haversine_distance(y.centroid).get() < 1.0);
            assert_eq!(x.total_dwell.get(), y.total_dwell.get());
        }
    }

    #[test]
    fn dwell_weighted_centroid_leans_toward_long_stay() {
        let stays = vec![
            stay(45.0, 5.0, 0, 10_000),     // long stay
            stay(45.001, 5.0, 90_000, 100), // short stay ~111 m north
        ];
        let pois = cluster_stay_points(&stays, &ClusterConfig::default());
        assert_eq!(pois.len(), 1);
        let d_long = pois[0]
            .centroid
            .haversine_distance(LatLng::new(45.0, 5.0).unwrap())
            .get();
        assert!(d_long < 10.0, "centroid {d_long} m from the long stay");
    }

    #[test]
    fn sorted_by_total_dwell_desc() {
        let stays = vec![
            stay(45.0, 5.0, 0, 100),
            stay(45.02, 5.0, 10_000, 9_000),
            stay(45.04, 5.0, 20_000, 4_000),
        ];
        let pois = cluster_stay_points(&stays, &ClusterConfig::default());
        assert_eq!(pois.len(), 3);
        assert!(pois[0].total_dwell.get() >= pois[1].total_dwell.get());
        assert!(pois[1].total_dwell.get() >= pois[2].total_dwell.get());
    }

    #[test]
    fn seconds_reexport_in_poi_is_consistent() {
        let stays = vec![stay(45.0, 5.0, 0, 1_234)];
        let pois = cluster_stay_points(&stays, &ClusterConfig::default());
        assert_eq!(pois[0].total_dwell, Seconds::new(1_234.0));
    }
}
