//! T1 — POI-hiding effectiveness: the POI-retrieval attack against each
//! mechanism.
//!
//! Paper anchors: §III "it becomes difficult for an adversary to spot
//! where a user stopped" (speed smoothing ⇒ recall ≈ 0) and §II "[geo-
//! indistinguishability] does not prevent the extraction of at least
//! 60 % of the POIs even with a high privacy level".

use mobipriv_attacks::PoiAttack;
use mobipriv_core::{MechanismSpec, NoiseBudget};
use mobipriv_metrics::Table;
use mobipriv_synth::scenarios;

use super::common::{ExperimentCtx, ExperimentScale};

/// Runs the attack matrix and renders the table.
pub fn t1_poi_hiding(scale: ExperimentScale) -> String {
    run(&ExperimentCtx::new(scale))
}

/// Engine-driven body, shared with `repro all`'s single context.
pub(crate) fn run(ctx: &ExperimentCtx) -> String {
    let (users, days) = ctx.scale().commuter();
    let out = scenarios::commuter_town(users, days, 101);
    let rows = [
        MechanismSpec::Identity,
        MechanismSpec::Promesse { alpha_m: 50.0 },
        MechanismSpec::Promesse { alpha_m: 100.0 },
        MechanismSpec::Promesse { alpha_m: 200.0 },
        MechanismSpec::GeoInd {
            epsilon: 0.1,
            budget: NoiseBudget::PerPoint,
        },
        MechanismSpec::GeoInd {
            epsilon: 0.02,
            budget: NoiseBudget::PerPoint,
        },
        MechanismSpec::GeoInd {
            epsilon: 0.01,
            budget: NoiseBudget::PerPoint,
        },
        MechanismSpec::KDelta {
            k: 2,
            delta_m: 500.0,
        },
        MechanismSpec::Grid {
            cell_m: 250.0,
            time_round_s: 0.0,
        },
    ];
    let mut table = Table::new(vec![
        "mechanism",
        "poi-recall",
        "precision",
        "f1",
        "pois/user",
        "pub-traces",
    ]);
    for (seed, spec) in rows.iter().enumerate() {
        let mechanism = spec.build().expect("valid");
        let protected = ctx.protect(mechanism.as_ref(), &out.dataset, 7_000 + seed as u64);
        let attack = PoiAttack::tuned_for_noise(spec.expected_noise_m());
        let outcome = attack.run(&protected, &out.truth);
        let users = outcome.per_user.len().max(1);
        table.row(vec![
            mechanism.name(),
            Table::num(outcome.overall.recall),
            Table::num(outcome.overall.precision),
            Table::num(outcome.overall.f1),
            Table::num(outcome.overall.extracted_count as f64 / users as f64),
            protected.len().to_string(),
        ]);
    }
    format!(
        "{table}\nshape targets: raw recall ≈ 1;   promesse recall ≈ 0;\n\
         geoind recall stays high (≥ 0.6) even as ε strengthens (the paper's MOST'14 claim);\n\
         kdelta/grid intermediate.\n"
    )
}
