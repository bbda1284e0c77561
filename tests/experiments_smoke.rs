//! Smoke-runs every reproduction experiment end to end (at the reduced
//! CI scale) and sanity-checks the rendered output.

use mobipriv_bench::experiments::{self, ExperimentCtx};
use mobipriv_bench::ExperimentScale;
use mobipriv_core::Engine;

const SCALE: ExperimentScale = ExperimentScale::Smoke;

#[test]
fn fig1_renders_three_panels() {
    let out = experiments::fig1(SCALE);
    assert!(out.contains("(a) original traces"));
    assert!(out.contains("(b) after enforcing constant speed"));
    assert!(out.contains("(c) after swapping"));
    // Panel (b) must report zero stay points (stops erased).
    assert!(out.contains("stay points found: 0"));
    // Panel (c) must report a real swap.
    assert!(out.contains("swap events: 1"));
}

#[test]
fn t1_table_has_all_mechanism_rows() {
    let out = experiments::t1_poi_hiding(SCALE);
    for needle in ["raw", "promesse", "geoind", "kdelta", "grid"] {
        assert!(out.contains(needle), "missing row {needle}:\n{out}");
    }
    assert!(out.contains("poi-recall"));
}

#[test]
fn t2_table_reports_utility_columns() {
    let out = experiments::t2_utility(SCALE);
    for needle in ["dist-mean(m)", "cover-f1", "query-err", "pts-kept"] {
        assert!(out.contains(needle), "missing column {needle}");
    }
}

#[test]
fn t3_table_includes_swap_rows() {
    let out = experiments::t3_reident(SCALE);
    assert!(out.contains("mixzones-alone"));
    assert!(out.contains("pipeline"));
    assert!(out.contains("link-accuracy"));
}

#[test]
fn t4_table_sweeps_radius() {
    let out = experiments::t4_mixzones(SCALE);
    for radius in ["50", "100", "150", "200", "300"] {
        assert!(out.contains(radius), "missing radius {radius}");
    }
    assert!(out.contains("suppressed"));
}

#[test]
fn t5_table_sweeps_interval() {
    let out = experiments::t5_sampling(SCALE);
    for interval in ["10", "30", "60", "120", "300"] {
        assert!(out.contains(interval));
    }
}

#[test]
fn t6_table_sweeps_alpha() {
    let out = experiments::t6_alpha(SCALE);
    for alpha in ["25", "50", "100", "200", "400", "800"] {
        assert!(out.contains(alpha));
    }
    assert!(out.contains("detail-loss"));
}

#[test]
fn t7_table_covers_both_workloads() {
    let out = experiments::t7_kdelta(SCALE);
    assert!(out.contains("downtown"));
    assert!(out.contains("commuter"));
}

#[test]
fn t8_table_sweeps_crossing_fraction() {
    let out = experiments::t8_confusion(SCALE);
    assert!(out.contains("crossing-fraction"));
    assert!(out.contains("tracker-purity"));
}

#[test]
fn t9_home_covers_pseudonyms_and_smoothing() {
    let out = experiments::t9_home(SCALE);
    assert!(out.contains("pseudonyms"));
    assert!(out.contains("promesse"));
    assert!(out.contains("homes-found"));
}

#[test]
fn run_all_concatenates_every_experiment() {
    // Exactly what `repro --smoke all` prints (CI diffs the CLI against
    // the same file): every table value, under any thread count.
    let golden = include_str!("golden/repro_smoke.txt");
    for engine in [Engine::sequential(), Engine::parallel().with_threads(4)] {
        let out = experiments::run_all_with(&ExperimentCtx::with_engine(SCALE, engine));
        assert_eq!(format!("{out}\n"), golden, "{engine:?}");
    }
    let out = experiments::run_all(SCALE);
    for header in [
        "F1 (Fig. 1)",
        "T1 poi-hiding",
        "T2 utility",
        "T3 re-identification",
        "T4 mix-zones",
        "T5 sampling-rate",
        "T6 alpha-ablation",
        "T7 k-delta",
        "T8 path-confusion",
        "T9 home-identification",
    ] {
        assert!(out.contains(header), "missing section {header}");
    }
}
