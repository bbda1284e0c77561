//! T3 — re-identification: POI-profile linking of protected releases
//! back to known users, with and without mix-zone swapping.
//!
//! Paper anchor: §III — swapping "helps breaking the correlation
//! between traces before and after the mix-zone".
//!
//! Scoring: the adversary links each published label to a known user.
//! For label-preserving mechanisms a link is correct when it names the
//! label's user; after swapping it is correct when it names the user
//! who actually contributed the majority of the label's fixes — the
//! honest (harder-to-fool) owner definition.

use mobipriv_attacks::ReidentAttack;
use mobipriv_core::{
    Mechanism, MechanismSpec, MixZoneConfig, MixZones, NoiseBudget, Pipeline, Report,
};
use mobipriv_metrics::Table;
use mobipriv_synth::scenarios;

use super::common::{ExperimentCtx, ExperimentScale};

/// Runs the linking matrix and renders the table.
pub fn t3_reident(scale: ExperimentScale) -> String {
    run(&ExperimentCtx::new(scale))
}

/// Engine-driven body, shared with `repro all`'s single context.
pub(crate) fn run(ctx: &ExperimentCtx) -> String {
    let (users, days) = ctx.scale().commuter();
    let days = days.max(2);
    let out = scenarios::commuter_town(users, days, 303);
    // Train on the first half of the days (raw), attack the second half.
    let cut = mobipriv_model::Timestamp::new((days as i64 / 2) * 86_400);
    let (train, test) = out.dataset.partition_by_time(cut);

    let mut table = Table::new(vec!["mechanism", "link-accuracy", "linked-labels"]);

    // Label-preserving mechanisms: identity scoring.
    let rows = [
        MechanismSpec::Identity,
        MechanismSpec::Promesse { alpha_m: 100.0 },
        MechanismSpec::GeoInd {
            epsilon: 0.01,
            budget: NoiseBudget::PerPoint,
        },
        MechanismSpec::Grid {
            cell_m: 250.0,
            time_round_s: 0.0,
        },
    ];
    for (seed, spec) in rows.iter().enumerate() {
        let mechanism = spec.build().expect("valid");
        let protected = ctx.protect(mechanism.as_ref(), &test, 11_000 + seed as u64);
        let attack = ReidentAttack::tuned_for_noise(spec.expected_noise_m());
        let outcome = attack.run(&train, &protected);
        let linked = outcome.links.values().filter(|g| g.is_some()).count();
        table.row(vec![
            mechanism.name(),
            Table::num(outcome.accuracy_identity()),
            format!("{}/{}", linked, outcome.links.len()),
        ]);
    }

    // Pseudonymization: the paper's motivating failure. The adversary
    // does not know the pseudonym↔user mapping; its guesses are scored
    // against the ground-truth mapping we retained.
    {
        use mobipriv_core::Pseudonymize;
        use std::collections::BTreeMap;
        // Re-derive the mapping by running the (deterministic) mechanism
        // and pairing published traces with their sources positionally
        // (the per-trace stage preserves trace order).
        let mech = Pseudonymize::new();
        let protected = ctx.protect(&mech, &test, 20_000);
        let owner: BTreeMap<_, _> = protected
            .traces()
            .iter()
            .zip(test.traces())
            .map(|(published, original)| (published.user(), original.user()))
            .collect();
        let outcome = ReidentAttack::default().run(&train, &protected);
        let linked = outcome.links.values().filter(|g| g.is_some()).count();
        let accuracy = outcome.accuracy(|label| owner[&label]);
        table.row(vec![
            mech.name(),
            Table::num(accuracy),
            format!("{}/{}", linked, outcome.links.len()),
        ]);
    }

    // Swapping mechanisms: majority-owner scoring via the swap report.
    let swap_rows: [(&str, Box<dyn Mechanism>); 2] = [
        (
            "mixzones-alone",
            Box::new(MixZones::new(MixZoneConfig::default()).expect("valid")),
        ),
        (
            "pipeline",
            Box::new(Pipeline::new(100.0, MixZoneConfig::default()).expect("valid")),
        ),
    ];
    for (label, mechanism) in swap_rows {
        let (protected, Report::Swap(report)) = ctx.run(mechanism.as_ref(), &test, 12_345) else {
            unreachable!("swapping mechanisms report their swaps")
        };
        let outcome = ReidentAttack::default().run(&train, &protected);
        let linked = outcome.links.values().filter(|g| g.is_some()).count();
        let accuracy = outcome.accuracy(|l| report.majority_owner(l).unwrap_or(l));
        table.row(vec![
            format!("{label} ({})", mechanism.name()),
            Table::num(accuracy),
            format!("{}/{}", linked, outcome.links.len()),
        ]);
    }
    format!(
        "{table}\nshape targets: raw ≈ 1; geoind/grid stay linkable; promesse breaks POI\n\
         profiles (≈ 0). Swapping alone does NOT defeat profile linking — stops stay\n\
         intact; it breaks trace *continuity* instead (see T8) — which is exactly why\n\
         the paper needs both steps. The full pipeline is the strongest row.\n"
    )
}
