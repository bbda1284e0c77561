//! Property-based tests on the service's canonical parameter
//! serialization — the piece of the result-cache key that identifies
//! *what* runs.
//!
//! The cache key contract (DESIGN.md §10) needs two properties of
//! [`resolve_mechanism`](mobipriv::service::resolve_mechanism):
//!
//! * **injective** — distinct resolved parameters never collide onto
//!   one canonical string (a collision would serve one mechanism's
//!   bytes for another's request);
//! * **normalizing** — every spelling of the same parameters (defaults
//!   omitted or explicit, `100` vs `100.0` vs `1e2`, extra unrelated
//!   query noise) lands on the same canonical string, so equivalent
//!   requests share one cache entry instead of fragmenting the cache.
//!
//! The specs are generated as `mobipriv_core`'s own [`MechanismSpec`],
//! and [`parse_spec`] must read every spelling back to the spec.

use mobipriv::core::{MechanismSpec, NoiseBudget};
use mobipriv::service::registry::Params;
use mobipriv::service::{parse_spec, resolve_mechanism};
use proptest::prelude::*;

/// Renders `spec` as decoded query pairs. `variant` selects a spelling:
/// 0 = plain, 1 = exponent-suffixed floats (`100.5e0` parses to the
/// identical f64) and `-0` for a zero `time_round`, 2 = omit parameters
/// that sit at their documented default.
fn to_query(spec: &MechanismSpec, variant: u8) -> Vec<(String, String)> {
    let f = |v: f64| match variant {
        1 => format!("{v}e0"),
        _ => v.to_string(),
    };
    let mut q: Vec<(String, String)> = Vec::new();
    let mut push = |k: &str, v: String, default: &str| {
        if variant == 2 && v == default {
            return; // rely on the documented default
        }
        q.push((k.to_owned(), v));
    };
    match *spec {
        MechanismSpec::Identity => push("mechanism", "raw".into(), ""),
        MechanismSpec::Pseudonymize { per_trace } => {
            push("mechanism", "pseudonymize".into(), "");
            push(
                "per",
                (if per_trace { "trace" } else { "user" }).into(),
                "user",
            );
        }
        MechanismSpec::Promesse { alpha_m } => {
            push("mechanism", "promesse".into(), "");
            push("alpha", f(alpha_m), "100");
        }
        MechanismSpec::GeoInd { epsilon, budget } => {
            push("mechanism", "geoind".into(), "");
            push("epsilon", f(epsilon), "0.01");
            let per_trace = budget == NoiseBudget::PerTrace;
            push(
                "budget",
                (if per_trace { "trace" } else { "point" }).into(),
                "point",
            );
        }
        MechanismSpec::Grid {
            cell_m,
            time_round_s,
        } => {
            push("mechanism", "grid".into(), "");
            push("cell", f(cell_m), "250");
            let zero = variant == 1 && time_round_s == 0.0;
            push(
                "time_round",
                if zero { "-0".into() } else { f(time_round_s) },
                "0",
            );
        }
        MechanismSpec::MixZones { radius_m, window_s } => {
            push("mechanism", "mixzones".into(), "");
            push("radius", f(radius_m), "100");
            push("window", f(window_s), "300");
        }
        MechanismSpec::KDelta { k, delta_m } => {
            push("mechanism", "kdelta".into(), "");
            push("k", k.to_string(), "2");
            push("delta", f(delta_m), "200");
        }
        MechanismSpec::Pipeline {
            alpha_m,
            radius_m,
            window_s,
        } => {
            push("mechanism", "pipeline".into(), "");
            push("alpha", f(alpha_m), "100");
            push("radius", f(radius_m), "100");
            push("window", f(window_s), "300");
        }
    }
    q
}

fn canonical(spec: &MechanismSpec, variant: u8) -> String {
    let query = to_query(spec, variant);
    resolve_mechanism(Params(&query))
        .unwrap_or_else(|e| panic!("{spec:?} (variant {variant}) failed to resolve: {e}"))
        .canonical
}

/// Positive, finite, parse-round-trippable floats across several
/// magnitudes (including plenty of integral values, whose `100` vs
/// `100.0` spellings are the interesting normalization cases).
fn arb_param(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    (lo..hi).prop_map(|v| {
        // Quantize half the range to integers so default-valued and
        // integral parameters occur often.
        if (v * 2.0).floor() as i64 % 2 == 0 {
            v.floor().max(1.0)
        } else {
            v
        }
    })
}

fn arb_spec() -> impl Strategy<Value = MechanismSpec> {
    let budget = any::<bool>().prop_map(|per_trace| {
        if per_trace {
            NoiseBudget::PerTrace
        } else {
            NoiseBudget::PerPoint
        }
    });
    prop_oneof![
        Just(MechanismSpec::Identity),
        any::<bool>().prop_map(|per_trace| MechanismSpec::Pseudonymize { per_trace }),
        arb_param(1.0, 1000.0).prop_map(|alpha_m| MechanismSpec::Promesse { alpha_m }),
        (arb_param(0.001, 1.0), budget)
            .prop_map(|(epsilon, budget)| MechanismSpec::GeoInd { epsilon, budget }),
        (
            arb_param(10.0, 1000.0),
            arb_param(0.0, 600.0).prop_map(|t| if t < 1.0 { 0.0 } else { t })
        )
            .prop_map(|(cell_m, time_round_s)| MechanismSpec::Grid {
                cell_m,
                time_round_s
            }),
        (arb_param(10.0, 500.0), arb_param(30.0, 3600.0))
            .prop_map(|(radius_m, window_s)| MechanismSpec::MixZones { radius_m, window_s }),
        (2usize..6, arb_param(10.0, 1000.0))
            .prop_map(|(k, delta_m)| MechanismSpec::KDelta { k, delta_m }),
        (
            arb_param(1.0, 1000.0),
            arb_param(10.0, 500.0),
            arb_param(30.0, 3600.0)
        )
            .prop_map(|(alpha_m, radius_m, window_s)| MechanismSpec::Pipeline {
                alpha_m,
                radius_m,
                window_s
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Distinct resolved parameters ⇒ distinct cache keys.
    #[test]
    fn canonical_params_are_injective(a in arb_spec(), b in arb_spec()) {
        let (ca, cb) = (canonical(&a, 0), canonical(&b, 0));
        if a != b {
            prop_assert_ne!(ca, cb, "{:?} vs {:?} collide", a, b);
        } else {
            prop_assert_eq!(ca, cb);
        }
    }

    /// Every spelling of the same parameters — exponent-suffixed
    /// floats, omitted defaults — lands on one canonical string.
    #[test]
    fn canonical_params_normalize_spelling_variants(spec in arb_spec()) {
        let plain = canonical(&spec, 0);
        prop_assert_eq!(&plain, &spec.canonical(), "query and spec renderings diverged");
        prop_assert_eq!(&canonical(&spec, 1), &plain, "exponent spelling diverged");
        prop_assert_eq!(&canonical(&spec, 2), &plain, "omitted defaults diverged");
        for variant in 0..3 {
            let parsed = parse_spec(Params(&to_query(&spec, variant))).unwrap();
            prop_assert_eq!(parsed, spec, "variant {} did not round-trip", variant);
        }
    }

    /// Query noise that is not a mechanism knob (seed, format, report,
    /// dataset) never leaks into the mechanism canonical.
    #[test]
    fn canonical_params_ignore_non_mechanism_noise(spec in arb_spec(), seed in any::<u64>()) {
        let mut query = to_query(&spec, 0);
        query.push(("seed".into(), seed.to_string()));
        query.push(("format".into(), "ndjson".into()));
        query.push(("report".into(), "1".into()));
        query.push(("dataset".into(), "ffffffffffffffff".into()));
        let noisy = resolve_mechanism(Params(&query)).unwrap().canonical;
        prop_assert_eq!(noisy, canonical(&spec, 0));
    }
}
