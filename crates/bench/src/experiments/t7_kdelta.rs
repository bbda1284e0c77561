//! T7 — the (k, δ)-anonymity baseline on clustered vs dispersed
//! workloads.
//!
//! Paper anchor: §II — Wait4Me "was shown to perform well with a
//! synthetic dataset but having more difficulties to maintain a correct
//! utility with a real-life dataset". Dense downtowns (many users
//! sharing few routes) cluster cheaply; dispersed commuter towns pay in
//! suppression and distortion.

use mobipriv_core::{KDelta, Report};
use mobipriv_metrics::{spatial, Table};
use mobipriv_synth::scenarios;

use super::common::{ExperimentCtx, ExperimentScale};

/// Sweeps (workload, k, δ) and renders the table.
pub fn t7_kdelta(scale: ExperimentScale) -> String {
    run(&ExperimentCtx::new(scale))
}

/// Engine-driven body, shared with `repro all`'s single context.
pub(crate) fn run(ctx: &ExperimentCtx) -> String {
    let (users, days) = ctx.scale().commuter();
    let workloads = [
        (
            "downtown",
            scenarios::dense_downtown(users, days.min(2), 707),
        ),
        (
            "commuter",
            scenarios::commuter_town(users, days.min(2), 707),
        ),
    ];
    let mut table = Table::new(vec![
        "workload",
        "k",
        "delta(m)",
        "suppressed",
        "clusters",
        "dist-mean(m)",
    ]);
    for (name, out) in &workloads {
        for (k, delta) in [(2usize, 250.0), (2, 500.0), (3, 500.0), (5, 1_000.0)] {
            let mech = KDelta::new(k, delta).expect("valid parameters");
            let (published, Report::KDelta(report)) = ctx.run(&mech, &out.dataset, 0) else {
                unreachable!("(k, δ)-clustering reports its clusters")
            };
            let distortion = spatial::dataset_distortion(&out.dataset, &published);
            table.row(vec![
                (*name).to_owned(),
                k.to_string(),
                format!("{delta}"),
                Table::pct(report.suppression_ratio()),
                report.clusters.to_string(),
                Table::num(distortion.mean),
            ]);
        }
    }
    format!(
        "{table}\nshape targets: suppression and distortion grow with k and shrink with δ;\n\
         the dispersed commuter workload suffers more than the dense downtown\n\
         (the paper's synthetic-vs-real-life contrast).\n"
    )
}
