//! T4 — mix-zone statistics: zones found, swap rate and suppressed
//! points as the zone radius grows.
//!
//! Paper anchor: §III "The only utility loss comes from the fact we
//! suppress points inside mix-zones, but this should be a reasonable
//! degradation as long as mix-zones remain reasonably small."

use mobipriv_core::{MixZoneConfig, MixZones, Report};
use mobipriv_metrics::Table;
use mobipriv_synth::scenarios;

use super::common::{ExperimentCtx, ExperimentScale};

/// Sweeps the zone radius and renders the table.
pub fn t4_mixzones(scale: ExperimentScale) -> String {
    run(&ExperimentCtx::new(scale))
}

/// Engine-driven body, shared with `repro all`'s single context.
pub(crate) fn run(ctx: &ExperimentCtx) -> String {
    let (users, days) = ctx.scale().downtown();
    let out = scenarios::dense_downtown(users, days, 404);
    let mut table = Table::new(vec![
        "radius(m)",
        "zones",
        "mean-members",
        "swap-events",
        "suppressed",
        "mixed-fixes",
    ]);
    for radius in [50.0, 100.0, 150.0, 200.0, 300.0] {
        let mech = MixZones::new(MixZoneConfig {
            radius_m: radius,
            ..MixZoneConfig::default()
        })
        .expect("valid config");
        let (_, Report::Swap(report)) = ctx.run(&mech, &out.dataset, 13) else {
            unreachable!("mix-zones report their swaps")
        };
        let mean_members = if report.zones.is_empty() {
            0.0
        } else {
            report.zones.iter().map(|z| z.members.len()).sum::<usize>() as f64
                / report.zones.len() as f64
        };
        table.row(vec![
            format!("{radius}"),
            report.zones.len().to_string(),
            Table::num(mean_members),
            report.swap_events.to_string(),
            Table::pct(report.suppression_ratio()),
            Table::pct(report.mixed_fix_ratio()),
        ]);
    }
    format!(
        "{table}\nshape targets: suppression grows with radius and stays small (a few %)\n\
         for small zones; swap events and mixing grow with radius.\n"
    )
}
