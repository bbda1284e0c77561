//! Indexed ≡ naive equivalence: every hot path rewired onto the
//! spatial query layer must produce **byte-identical** datasets and
//! outcomes to the brute-force reference it replaced, on real scenario
//! workloads (raw and protected) and on adversarial lattice layouts
//! where exact distance ties are common.
//!
//! The brute-force paths live on as `protect_with_report_naive` /
//! `protect_naive` / `extract_dataset_naive` / `run_naive`; the golden
//! corpus (`tests/eval_conformance.rs`) pins the indexed outputs
//! against history, and this suite pins them against the reference
//! implementations directly.

use mobipriv::attacks::{HomeAttack, ReidentAttack, Tracker};
use mobipriv::core::{GridGeneralization, KDelta, Mechanism, Promesse};
use mobipriv::geo::{LatLng, LocalFrame, Point, Seconds};
use mobipriv::model::{write_csv, Dataset, Fix, Timestamp, Trace, UserId};
use mobipriv::poi::{ClusterConfig, PoiExtractor, StayPointConfig};
use mobipriv::synth::scenarios;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Canonical CSV bytes — the "byte-identical" arbiter for datasets.
fn csv_bytes(dataset: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    write_csv(dataset, &mut out).expect("in-memory write");
    out
}

/// The scenario workloads the paths are exercised on: a multi-day
/// commuter town, the crossing-paths stress case, and a serving-day
/// slice, each raw and Promesse-protected.
fn workloads() -> Vec<(String, Dataset)> {
    let mut out = Vec::new();
    let commuter = scenarios::commuter_town(8, 2, 21);
    let crossing = scenarios::crossing_paths(23);
    let serving = scenarios::serving_day(40, 5);
    for (name, dataset) in [
        ("commuter_town", commuter.dataset),
        ("crossing_paths", crossing.dataset),
        ("serving_day", serving.dataset),
    ] {
        let mut rng = StdRng::seed_from_u64(9);
        let protected = Promesse::new(100.0).unwrap().protect(&dataset, &mut rng);
        out.push((format!("{name}/raw"), dataset));
        out.push((format!("{name}/promesse"), protected));
    }
    out
}

/// A dataset whose positions sit on a coarse lattice and whose traces
/// mirror each other symmetrically: synchronized distances and
/// nearest-track distances tie exactly, so the `(distance, index)`
/// tie-breaking is what decides the output.
fn lattice_dataset() -> Dataset {
    let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
    let mut traces = Vec::new();
    // Four walkers per lattice row, pairwise equidistant lanes.
    for u in 0..12u64 {
        let lane = (u % 4) as f64 * 100.0;
        let start = (u / 4) as f64 * 100.0;
        let fixes = (0..40)
            .map(|i| {
                let p = Point::new(start + i as f64 * 50.0, lane);
                Fix::new(frame.unproject(p), Timestamp::new(i * 30))
            })
            .collect();
        traces.push(Trace::new(UserId::new(u), fixes).unwrap());
    }
    Dataset::from_traces(traces)
}

#[test]
fn kdelta_indexed_equals_naive_across_workloads() {
    for (name, dataset) in workloads() {
        for (k, delta) in [(2, 500.0), (3, 200.0)] {
            let mech = KDelta::new(k, delta).unwrap();
            let (fast, fast_report) = mech.protect_with_report(&dataset);
            let (slow, slow_report) = mech.protect_with_report_naive(&dataset);
            assert_eq!(fast_report, slow_report, "{name} k={k} δ={delta}");
            assert_eq!(
                csv_bytes(&fast),
                csv_bytes(&slow),
                "{name} k={k} δ={delta}: published datasets diverge"
            );
        }
    }
}

#[test]
fn kdelta_indexed_equals_naive_on_exact_ties() {
    let dataset = lattice_dataset();
    for (k, delta) in [(2, 150.0), (3, 250.0), (5, 400.0)] {
        let mech = KDelta::new(k, delta).unwrap();
        let (fast, fast_report) = mech.protect_with_report(&dataset);
        let (slow, slow_report) = mech.protect_with_report_naive(&dataset);
        assert_eq!(fast_report, slow_report, "k={k} δ={delta}");
        assert_eq!(csv_bytes(&fast), csv_bytes(&slow), "k={k} δ={delta}");
    }
}

#[test]
fn grid_generalization_columnar_equals_naive_across_workloads() {
    for (name, dataset) in workloads() {
        for mech in [
            GridGeneralization::new(250.0).unwrap(),
            GridGeneralization::new(500.0)
                .unwrap()
                .with_time_rounding(Seconds::new(100.0))
                .unwrap(),
        ] {
            let fast = mech.protect(&dataset, &mut StdRng::seed_from_u64(0));
            let slow = mech.protect_naive(&dataset);
            assert_eq!(
                csv_bytes(&fast),
                csv_bytes(&slow),
                "{name} {}: published datasets diverge",
                mech.name()
            );
        }
    }
}

#[test]
fn poi_extraction_columnar_equals_naive_across_workloads() {
    // The default extractor and the wide one the reident attack uses
    // against 200 m of noise.
    let extractors = [
        PoiExtractor::default(),
        PoiExtractor::new(
            StayPointConfig {
                max_radius_m: 600.0,
                min_dwell: Seconds::from_minutes(15.0),
            },
            ClusterConfig {
                eps_m: 350.0,
                min_pts: 1,
            },
        ),
    ];
    for (name, dataset) in workloads() {
        for extractor in &extractors {
            assert_eq!(
                extractor.extract_dataset(&dataset),
                extractor.extract_dataset_naive(&dataset),
                "{name} {extractor:?}"
            );
        }
    }
}

#[test]
fn tracker_indexed_equals_naive_across_workloads() {
    for (name, dataset) in workloads() {
        for tracker in [Tracker::default(), Tracker::new(10.0)] {
            let fast = tracker.run(&dataset);
            let slow = tracker.run_naive(&dataset);
            assert_eq!(fast, slow, "{name} gate {}", tracker.max_speed_mps);
        }
    }
}

#[test]
fn tracker_indexed_equals_naive_on_exact_ties() {
    // Lattice walkers: at every step several open tracks tie exactly
    // on distance; the lowest track index must win in both paths.
    let outcome_fast = Tracker::default().run(&lattice_dataset());
    let outcome_slow = Tracker::default().run_naive(&lattice_dataset());
    assert_eq!(outcome_fast, outcome_slow);
}

#[test]
fn reident_indexed_equals_naive() {
    let out = scenarios::commuter_town(8, 2, 21);
    let (train, test) = out
        .dataset
        .partition_by_time(mobipriv::model::Timestamp::new(86_400));
    let mut rng = StdRng::seed_from_u64(3);
    let protected = Promesse::new(100.0).unwrap().protect(&test, &mut rng);
    for attack in [
        ReidentAttack::default(),
        ReidentAttack::tuned_for_noise(200.0),
    ] {
        for release in [&test, &protected] {
            let fast = attack.run(&train, release);
            let slow = attack.run_naive(&train, release);
            assert_eq!(fast, slow);
        }
    }
}

#[test]
fn home_indexed_equals_naive() {
    let out = scenarios::commuter_town(8, 2, 31);
    let mut rng = StdRng::seed_from_u64(4);
    let protected = Promesse::new(100.0)
        .unwrap()
        .protect(&out.dataset, &mut rng);
    for attack in [HomeAttack::default(), HomeAttack::tuned_for_noise(200.0)] {
        for release in [&out.dataset, &protected] {
            let fast = attack.run(release, &out.truth);
            let slow = attack.run_naive(release, &out.truth);
            assert_eq!(fast, slow);
        }
    }
}

#[test]
fn home_indexed_equals_naive_at_high_latitude() {
    // Far north, where the equirectangular east–west stretch is the
    // largest and the grid prefilter's inflation margin earns its keep.
    let out = scenarios::serving_day(30, 7);
    let frame = out.dataset.local_frame().unwrap();
    let north = LocalFrame::new(LatLng::new(69.6, 18.9).unwrap()); // Tromsø
    let moved = out.dataset.map(|t| {
        Trace::new(
            t.user(),
            t.fixes()
                .iter()
                .map(|f| Fix::new(north.unproject(frame.project(f.position)), f.time))
                .collect(),
        )
        .unwrap()
    });
    let mut truth = mobipriv::synth::GroundTruth::new();
    for v in out.truth.visits() {
        let mut v = *v;
        v.position = north.unproject(frame.project(v.position));
        truth.push(v);
    }
    let attack = HomeAttack::default();
    assert_eq!(attack.run(&moved, &truth), attack.run_naive(&moved, &truth));
}
