//! Quickstart: generate a workload, protect it with the paper's
//! two-step pipeline, and verify the privacy/utility trade-off.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mobipriv::attacks::PoiAttack;
use mobipriv::core::{CancelToken, Engine, Mechanism, MixZoneConfig, Pipeline, Report};
use mobipriv::metrics::spatial;
use mobipriv::synth::scenarios;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthetic commuter town: 10 users, 3 days, one GPS trace per
    // trip session, with ground-truth visits attached.
    let town = scenarios::commuter_town(10, 3, 42);
    println!(
        "workload: {} users, {} session traces, {} fixes",
        town.dataset.users().len(),
        town.dataset.len(),
        town.dataset.total_fixes()
    );

    // The paper's mechanism: speed smoothing (α = 100 m) followed by
    // identifier swapping in natural mix-zones, run under seed 7.
    let pipeline = Pipeline::new(100.0, MixZoneConfig::default())?;
    let run = Engine::parallel().run(&pipeline, &town.dataset, 7, &CancelToken::none())?;
    let (published, Report::Swap(report)) = run else {
        unreachable!("the pipeline reports its swaps")
    };
    println!("\nmechanism: {}", pipeline.name());
    println!(
        "mix-zones: {}   swap events: {}   suppressed fixes: {:.2}%",
        report.zones.len(),
        report.swap_events,
        report.suppression_ratio() * 100.0
    );

    // Privacy: the POI-retrieval attack finds almost nothing.
    let attack = PoiAttack::default();
    let before = attack.run(&town.dataset, &town.truth);
    let after = attack.run(&published, &town.truth);
    println!(
        "\nPOI attack recall: raw {:.2} -> published {:.2}",
        before.overall.recall, after.overall.recall
    );

    // Utility: published points stay on the true paths (label-agnostic:
    // swapping relabels traces without moving them).
    let distortion = spatial::dataset_distortion_anonymous(&town.dataset, &published);
    println!(
        "spatial distortion: mean {:.2} m, p95 {:.2} m (location barely touched)",
        distortion.mean, distortion.p95
    );
    Ok(())
}
