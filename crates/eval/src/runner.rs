//! The imperative half of the harness: expand a plan into cells and run
//! them, in parallel, deterministically.
//!
//! # Determinism
//!
//! Every cell is a pure function of `(plan seed, scenario name,
//! mechanism id)`:
//!
//! * the workload is generated from the plan seed alone;
//! * the mechanism runs through [`Engine`] under
//!   [`cell_seed`](crate::digest::cell_seed), which derives from the
//!   cell's *names* — never from its position in the plan or the
//!   schedule;
//! * every attack and metric downstream is deterministic (no RNG, no
//!   hash-order-dependent float accumulation).
//!
//! Cells therefore fan out across threads freely: the report is
//! bit-identical for any `--threads` value, which the property suite
//! asserts and the golden corpus pins.

use mobipriv_attacks::{HomeAttack, PoiAttack, ReidentAttack, Tracker};
use mobipriv_core::{fan_out, Engine, MechanismSpec};
use mobipriv_metrics::{coverage, spatial, trips};
use mobipriv_synth::SynthOutput;

use crate::digest::{cell_seed, dataset_digest};
use crate::plan::{EvalPlan, ScenarioSpec};
use crate::report::{EvalCell, EvalReport, SCHEMA_VERSION};

/// Grid-cell size for the coverage metric, meters (matches the service
/// report headers).
const COVERAGE_CELL_M: f64 = 250.0;

/// Runs the plan on one worker thread per core.
pub fn evaluate(plan: &EvalPlan) -> EvalReport {
    evaluate_with(plan, None)
}

/// Runs the plan with the cell fan-out pinned to `threads` workers
/// (`None` = one per core). The report is identical for every value —
/// parallelism is a wall-clock decision, never an output decision.
pub fn evaluate_with(plan: &EvalPlan, threads: Option<usize>) -> EvalReport {
    // Generate each (scenario, seed) workload once; cells share it
    // read-only.
    let worlds: Vec<(ScenarioSpec, u64, SynthOutput)> = plan
        .scenarios
        .iter()
        .flat_map(|scenario| {
            plan.seeds
                .iter()
                .map(move |&seed| (*scenario, seed, scenario.generate(seed)))
        })
        .collect();
    let jobs: Vec<(&(ScenarioSpec, u64, SynthOutput), &MechanismSpec)> = worlds
        .iter()
        .flat_map(|world| plan.mechanisms.iter().map(move |m| (world, m)))
        .collect();
    let mut cells = fan_out(
        &jobs,
        threads,
        |_, &((scenario, seed, world), mechanism)| run_cell(*scenario, *seed, world, mechanism),
    );
    cells.sort_by(|a, b| {
        (&a.scenario, &a.mechanism, a.seed).cmp(&(&b.scenario, &b.mechanism, b.seed))
    });
    EvalReport {
        schema_version: SCHEMA_VERSION,
        plan: plan.name.clone(),
        cells,
    }
}

/// Times `f` and folds the wall time into the global
/// `mobipriv_eval_stage_seconds{stage=…}` histogram. The result bytes
/// never depend on it: timing reads the clock around the stage and
/// writes to a sink the computation cannot see.
fn timed_stage<T>(stage: &'static str, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    mobipriv_obs::global()
        .histogram(
            "mobipriv_eval_stage_seconds",
            &[("stage", stage)],
            "Wall time per evaluation-cell stage",
        )
        .observe_duration(start.elapsed());
    out
}

/// Runs one cell: protect, attack four ways, measure utility.
fn run_cell(
    scenario: ScenarioSpec,
    seed: u64,
    world: &SynthOutput,
    mechanism: &MechanismSpec,
) -> EvalCell {
    let started = std::time::Instant::now();
    let mechanism_id = mechanism.id();
    let cseed = cell_seed(seed, scenario.name(), &mechanism_id);
    let built = timed_stage("build", || mechanism.build().expect("plan specs are valid"));
    // The engine runs sequentially *within* a cell — the harness
    // parallelizes at cell granularity, and engine output is
    // schedule-independent anyway, so nothing changes but the thread
    // accounting.
    let published = timed_stage("protect", || {
        Engine::sequential().protect(built.as_ref(), &world.dataset, cseed)
    });

    // Kerckhoffs: every profile/stay-based adversary knows the
    // mechanism and widens its clustering radii to the expected noise.
    // (The tracker has no such knob — its gate is kinematic.)
    let noise = mechanism.expected_noise_m();
    let poi = timed_stage("attack_poi", || {
        PoiAttack::tuned_for_noise(noise).run(&published, &world.truth)
    });
    // Threat model: the adversary saw the raw data once (e.g. a prior
    // unprotected release) and links the protected release back to it.
    let reident = timed_stage("attack_reident", || {
        ReidentAttack::tuned_for_noise(noise).run(&world.dataset, &published)
    });
    let tracker = timed_stage("attack_tracker", || Tracker::default().run(&published));
    let home = timed_stage("attack_home", || {
        HomeAttack::tuned_for_noise(noise).run(&published, &world.truth)
    });

    let (distortion, cover, trip) = timed_stage("metrics", || {
        (
            spatial::dataset_distortion_anonymous(&world.dataset, &published),
            coverage::coverage(&world.dataset, &published, COVERAGE_CELL_M),
            trips::trip_report(&world.dataset, &published),
        )
    });

    EvalCell {
        scenario: scenario.name().to_owned(),
        mechanism: mechanism_id,
        mechanism_name: built.name(),
        seed,
        cell_seed: cseed,
        input_traces: world.dataset.len() as u64,
        input_fixes: world.dataset.total_fixes() as u64,
        output_traces: published.len() as u64,
        output_fixes: published.total_fixes() as u64,
        digest: dataset_digest(&published),
        poi_recall: poi.overall.recall,
        poi_precision: poi.overall.precision,
        reident_accuracy: reident.accuracy_identity(),
        tracker_continuity: tracker.continuity,
        tracker_purity: tracker.purity,
        tracker_tracks: tracker.tracks as u64,
        home_accuracy: home.accuracy(),
        home_evaluated: home.evaluated as u64,
        distortion_mean_m: distortion.mean,
        distortion_p95_m: distortion.p95,
        coverage_f1: cover.f1,
        coverage_total_variation: cover.total_variation,
        trip_length_ks: trip.length_ks,
        trip_duration_ks: trip.duration_ks,
        // Timing only — never part of the canonical report bytes.
        wall_ms: started.elapsed().as_secs_f64() * 1_000.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::EvalPlan;

    /// A two-cell plan small enough for unit tests.
    fn tiny_plan() -> EvalPlan {
        EvalPlan {
            name: "custom".to_owned(),
            scenarios: vec![ScenarioSpec::CrossingPaths],
            mechanisms: vec![
                MechanismSpec::Identity,
                MechanismSpec::Promesse { alpha_m: 100.0 },
            ],
            seeds: vec![7],
        }
    }

    #[test]
    fn report_covers_every_cell_in_sorted_order() {
        let report = evaluate(&tiny_plan());
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(report.cells.len(), 2);
        let keys: Vec<(&str, &str)> = report
            .cells
            .iter()
            .map(|c| (c.scenario.as_str(), c.mechanism.as_str()))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("crossing_paths", "promesse_a100"),
                ("crossing_paths", "raw"),
            ]
        );
    }

    #[test]
    fn identity_cell_republishes_the_input() {
        let report = evaluate(&tiny_plan());
        let raw = report.cells.iter().find(|c| c.mechanism == "raw").unwrap();
        assert_eq!(raw.input_fixes, raw.output_fixes);
        assert_eq!(raw.distortion_mean_m, 0.0);
        assert_eq!(raw.coverage_f1, 1.0);
        // Raw crossing-paths data leaks both users' POIs.
        assert!(raw.poi_recall > 0.8, "raw recall {}", raw.poi_recall);
    }

    #[test]
    fn promesse_cell_hides_pois_and_stays_spatially_close() {
        let report = evaluate(&tiny_plan());
        let cell = report
            .cells
            .iter()
            .find(|c| c.mechanism == "promesse_a100")
            .unwrap();
        assert!(cell.poi_recall < 0.3, "promesse recall {}", cell.poi_recall);
        assert!(
            cell.distortion_mean_m < 50.0,
            "promesse distortion {}",
            cell.distortion_mean_m
        );
    }

    #[test]
    fn thread_count_never_changes_the_report() {
        // Wall-clock timings differ between runs by nature; everything
        // else — including the canonical bytes — must not.
        let plan = tiny_plan();
        let one = evaluate_with(&plan, Some(1));
        let four = evaluate_with(&plan, Some(4));
        let free = evaluate(&plan);
        assert!(one
            .cells
            .iter()
            .zip(&four.cells)
            .all(|(a, b)| a.content_eq(b)));
        assert!(one
            .cells
            .iter()
            .zip(&free.cells)
            .all(|(a, b)| a.content_eq(b)));
        assert_eq!(one.to_json(), four.to_json(), "byte-identical JSON");
        assert_eq!(one.to_json(), free.to_json(), "byte-identical JSON");
    }

    #[test]
    fn filtering_the_plan_preserves_cell_results() {
        // The same (scenario, mechanism, seed) computes the same cell
        // whether or not other cells run beside it.
        let full = evaluate(&tiny_plan());
        let narrow = evaluate(&tiny_plan().with_mechanism("promesse_a100").unwrap());
        let from_full = full
            .cells
            .iter()
            .find(|c| c.mechanism == "promesse_a100")
            .unwrap();
        assert_eq!(narrow.cells.len(), 1);
        assert!(narrow.cells[0].content_eq(from_full));
    }

    #[test]
    fn cells_carry_a_wall_clock_timing() {
        let report = evaluate(&tiny_plan());
        assert!(report.cells.iter().all(|c| c.wall_ms > 0.0));
    }
}
