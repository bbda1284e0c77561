//! T2 — utility comparison: spatial distortion, coverage and
//! range-query error per mechanism.
//!
//! Paper anchor: §III "Our main utility goal was to minimally distort
//! the location" — speed smoothing should sit near the GPS noise floor,
//! far below location-perturbation baselines.

use mobipriv_core::{GeoInd, GridGeneralization, Identity, KDelta, Mechanism, Promesse};
use mobipriv_geo::Seconds;
use mobipriv_metrics::{coverage, queries, spatial, Table};
use mobipriv_synth::scenarios;

use super::common::{published_ratio, ExperimentCtx, ExperimentScale};

/// Runs the utility matrix and renders the table.
pub fn t2_utility(scale: ExperimentScale) -> String {
    run(&ExperimentCtx::new(scale))
}

/// Engine-driven body, shared with `repro all`'s single context.
pub(crate) fn run(ctx: &ExperimentCtx) -> String {
    let (users, days) = ctx.scale().commuter();
    let out = scenarios::commuter_town(users, days, 202);
    let rows: Vec<Box<dyn Mechanism>> = vec![
        Box::new(Identity),
        Box::new(Promesse::new(50.0).expect("valid")),
        Box::new(Promesse::new(100.0).expect("valid")),
        Box::new(Promesse::new(200.0).expect("valid")),
        Box::new(GeoInd::new(0.1).expect("valid")),
        Box::new(GeoInd::new(0.02).expect("valid")),
        Box::new(GeoInd::new(0.01).expect("valid")),
        Box::new(KDelta::new(2, 500.0).expect("valid")),
        Box::new(GridGeneralization::new(250.0).expect("valid")),
    ];
    let mut table = Table::new(vec![
        "mechanism",
        "dist-mean(m)",
        "dist-p95(m)",
        "cover-f1",
        "heat-cos",
        "query-err",
        "pts-kept",
    ]);
    // Row i runs under seed 9_000 + i.
    for (i, mechanism) in rows.iter().enumerate() {
        let protected = ctx.protect(mechanism.as_ref(), &out.dataset, 9_000 + i as u64);
        let distortion = spatial::dataset_distortion(&out.dataset, &protected);
        let cov = coverage::coverage(&out.dataset, &protected, 200.0);
        let mut rng = ctx.seeded_rng(77);
        let q = queries::query_error(
            &out.dataset,
            &protected,
            100,
            200.0,
            Seconds::from_minutes(15.0),
            &mut rng,
        );
        table.row(vec![
            mechanism.name(),
            Table::num(distortion.mean),
            Table::num(distortion.p95),
            Table::num(cov.f1),
            Table::num(cov.cosine),
            Table::num(q.mean_relative_error),
            Table::pct(published_ratio(&out.dataset, &protected)),
        ]);
    }
    format!(
        "{table}\nshape targets: promesse distortion ≈ GPS noise + α/2 ≪ geoind(strong) ≪ kdelta;\n\
         promesse coverage/heat-map close to raw; geoind query error grows as ε strengthens.\n"
    )
}
