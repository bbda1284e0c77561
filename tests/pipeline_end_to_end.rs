//! End-to-end integration: synthetic workload → paper pipeline →
//! attacks and utility metrics, spanning every crate of the workspace.

use mobipriv::attacks::{PoiAttack, ReidentAttack, Tracker};
use mobipriv::core::{
    CancelToken, Engine, GeoInd, GridGeneralization, Identity, KDelta, Mechanism, MixZoneConfig,
    MixZones, Pipeline, Promesse, Pseudonymize, Report, SwapReport,
};
use mobipriv::metrics::{coverage, spatial};
use mobipriv::model::Dataset;
use mobipriv::synth::scenarios;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn pipeline() -> Pipeline {
    Pipeline::new(100.0, MixZoneConfig::default()).expect("valid configuration")
}

/// The paper's pipeline run by the engine, with its swap report.
fn run_pipeline(dataset: &Dataset, seed: u64) -> (Dataset, SwapReport) {
    let run = Engine::parallel().run(&pipeline(), dataset, seed, &CancelToken::none());
    let Ok((published, Report::Swap(report))) = run else {
        panic!("the pipeline reports its swaps: {run:?}");
    };
    (published, report)
}

#[test]
fn pipeline_is_deterministic_given_seed() {
    let town = scenarios::commuter_town(6, 2, 99);
    let p = pipeline();
    let mut r1 = StdRng::seed_from_u64(5);
    let mut r2 = StdRng::seed_from_u64(5);
    assert_eq!(
        p.protect(&town.dataset, &mut r1),
        p.protect(&town.dataset, &mut r2)
    );
}

#[test]
fn pipeline_hides_pois_and_keeps_geometry() {
    let town = scenarios::commuter_town(8, 2, 100);
    let (published, report) = run_pipeline(&town.dataset, 1);

    // Privacy: the POI attack collapses.
    let raw_outcome = PoiAttack::default().run(&town.dataset, &town.truth);
    let out_outcome = PoiAttack::default().run(&published, &town.truth);
    assert!(
        raw_outcome.overall.recall > 0.8,
        "raw {}",
        raw_outcome.overall.recall
    );
    assert!(
        out_outcome.overall.recall < 0.2,
        "published {}",
        out_outcome.overall.recall
    );

    // Utility: geometry survives (label-agnostic after swapping).
    let distortion = spatial::dataset_distortion_anonymous(&town.dataset, &published);
    assert!(distortion.mean < 5.0, "mean distortion {}", distortion.mean);

    // Suppression is bounded ("mix-zones remain reasonably small").
    assert!(
        report.suppression_ratio() < 0.10,
        "suppression {}",
        report.suppression_ratio()
    );

    // Coverage of the city stays high.
    let cov = coverage::coverage(&town.dataset, &published, 250.0);
    assert!(cov.recall > 0.6, "coverage recall {}", cov.recall);
}

#[test]
fn pipeline_defeats_reidentification() {
    let town = scenarios::commuter_town(8, 4, 101);
    let cut = mobipriv::model::Timestamp::new(2 * 86_400);
    let (train, test) = town.dataset.partition_by_time(cut);
    let raw_acc = ReidentAttack::default()
        .run(&train, &test)
        .accuracy_identity();
    let mut rng = StdRng::seed_from_u64(2);
    let protected = pipeline().protect(&test, &mut rng);
    let prot_acc = ReidentAttack::default()
        .run(&train, &protected)
        .accuracy_identity();
    assert!(raw_acc > 0.6, "raw linking {raw_acc}");
    assert!(prot_acc < 0.2, "protected linking {prot_acc}");
}

#[test]
fn smoothing_alone_preserves_labels_and_counts_users() {
    let town = scenarios::commuter_town(5, 1, 102);
    let mech = Promesse::new(100.0).expect("valid alpha");
    let mut rng = StdRng::seed_from_u64(3);
    let published = mech.protect(&town.dataset, &mut rng);
    // No new users may appear; some traces may be suppressed.
    for user in published.users() {
        assert!(town.dataset.users().contains(&user));
    }
    assert!(published.len() <= town.dataset.len());
}

#[test]
fn swapping_preserves_fix_budget() {
    // Published + suppressed = input, across the whole pipeline's
    // second stage (smoothing changes the count; swapping must not leak
    // or invent fixes).
    let town = scenarios::dense_downtown(8, 1, 103);
    let mut rng = StdRng::seed_from_u64(4);
    let smoother = Promesse::new(100.0).expect("valid alpha");
    let smoothed = smoother.protect(&town.dataset, &mut rng);
    let swapper = mobipriv::core::MixZones::new(MixZoneConfig::default()).expect("valid");
    let (published, report) = swapper.protect_with_report(&smoothed, &mut rng);
    assert_eq!(
        published.total_fixes() + report.suppressed_fixes,
        smoothed.total_fixes()
    );
}

#[test]
fn pipeline_mixes_identities_at_crossings() {
    // With every trip crossing the central hub, the raw tracker already
    // shows confusion, and the pipeline (a) detects zones there, (b)
    // relabels a substantial share of fixes, and (c) fragments the
    // published traces so nothing spans the crossing.
    let out = scenarios::hub_rush(16, 1.0, 9);
    let raw = Tracker::default().run(&out.dataset);
    assert!(
        raw.purity < 1.0,
        "no natural confusion at a 16-way crossing"
    );
    let (published, report) = run_pipeline(&out.dataset, 5);
    assert!(!report.zones.is_empty(), "no zone at the hub");
    assert!(report.swap_events > 0, "no permutation applied");
    assert!(
        report.mixed_fix_ratio() > 0.1,
        "mixing too weak: {}",
        report.mixed_fix_ratio()
    );
    assert!(
        published.len() > out.dataset.len(),
        "traces were not fragmented at the zone"
    );
}

/// The full mechanism matrix of the paper's evaluation: the two paper
/// steps, their composition, and every baseline.
fn mechanism_matrix() -> Vec<Box<dyn Mechanism>> {
    vec![
        Box::new(Identity),
        Box::new(Pseudonymize::new()),
        Box::new(Pseudonymize::new().per_trace()),
        Box::new(Promesse::new(100.0).expect("valid")),
        Box::new(Promesse::new(100.0).expect("valid").with_trim(false)),
        Box::new(GeoInd::new(0.02).expect("valid")),
        Box::new(GridGeneralization::new(250.0).expect("valid")),
        Box::new(KDelta::new(2, 500.0).expect("valid")),
        Box::new(MixZones::new(MixZoneConfig::default()).expect("valid")),
        Box::new(Pipeline::new(100.0, MixZoneConfig::default()).expect("valid")),
    ]
}

#[test]
fn engine_parallel_output_is_bit_identical_to_sequential() {
    // The tentpole guarantee of the batch engine: for every mechanism,
    // fanning traces across cores with per-trace RNG streams produces
    // exactly the dataset and report the sequential schedule produces.
    // Pin the fan-out to 4 worker threads so the assertion is
    // non-trivial even on single-core CI machines, where the engine
    // would otherwise fall back to in-place execution.
    let town = scenarios::commuter_town(8, 2, 424);
    let never = CancelToken::none();
    for mechanism in mechanism_matrix() {
        for seed in [0u64, 7, 1_000_003] {
            let par = Engine::parallel().with_threads(4).run(
                mechanism.as_ref(),
                &town.dataset,
                seed,
                &never,
            );
            let seq = Engine::sequential().run(mechanism.as_ref(), &town.dataset, seed, &never);
            assert_eq!(
                par,
                seq,
                "schedule-dependent output: {} under seed {seed}",
                mechanism.name()
            );
        }
    }
}

#[test]
fn engine_runs_are_reproducible_and_seed_sensitive() {
    let town = scenarios::dense_downtown(6, 1, 77);
    for mechanism in mechanism_matrix() {
        let a = Engine::parallel().protect(mechanism.as_ref(), &town.dataset, 5);
        let b = Engine::parallel().protect(mechanism.as_ref(), &town.dataset, 5);
        assert_eq!(a, b, "{} not reproducible per seed", mechanism.name());
    }
    // Randomized mechanisms must actually respond to the seed.
    let noisy = GeoInd::new(0.02).expect("valid");
    let a = Engine::parallel().protect(&noisy, &town.dataset, 5);
    let c = Engine::parallel().protect(&noisy, &town.dataset, 6);
    assert_ne!(a, c, "geoind ignored the experiment seed");
}

#[test]
fn engine_kernel_path_matches_mechanism_semantics() {
    // A direct `protect(rng)` is the engine's run under the seed
    // `rng.next_u64()`, for every mechanism; randomized ones keep their
    // structural invariants.
    let town = scenarios::commuter_town(6, 2, 99);
    for mechanism in mechanism_matrix() {
        for seed in [0u64, 7] {
            let direct = mechanism.protect(&town.dataset, &mut StdRng::seed_from_u64(seed));
            let run_seed = StdRng::seed_from_u64(seed).next_u64();
            assert_eq!(
                direct,
                Engine::sequential().protect(mechanism.as_ref(), &town.dataset, run_seed),
                "{} under seed {seed}",
                mechanism.name()
            );
        }
    }

    let geoind = GeoInd::new(0.02).expect("valid");
    let out = Engine::parallel().protect(&geoind, &town.dataset, 3);
    assert_eq!(out.len(), town.dataset.len());
    assert_eq!(out.total_fixes(), town.dataset.total_fixes());
    for (a, b) in town.dataset.traces().iter().zip(out.traces()) {
        assert_eq!(a.user(), b.user());
    }

    let pseudo = Engine::parallel().protect(&Pseudonymize::new(), &town.dataset, 11);
    assert_eq!(pseudo.users().len(), town.dataset.users().len());
}

#[test]
fn empty_dataset_flows_through_everything() {
    let empty = Dataset::new();
    let (published, report) = run_pipeline(&empty, 6);
    assert!(published.is_empty());
    assert_eq!(report.zones.len(), 0);
    let outcome = Tracker::default().run(&published);
    assert_eq!(outcome.samples, 0);
}
