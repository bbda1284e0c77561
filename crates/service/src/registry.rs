//! The mechanism registry: parses `?mechanism=…` query parameters into
//! a `mobipriv_core` [`MechanismSpec`], and renders the catalogue for
//! `GET /v1/mechanisms`.
//!
//! Every knob is a plain query parameter with a documented default, so
//! the whole mechanism matrix is reachable from `curl` without a
//! request body schema. Parameter validation errors surface as 400s
//! with the offending name and value.

use mobipriv_core::{Mechanism, MechanismSpec, MixZoneConfig, NoiseBudget};

use crate::ServiceError;

/// Catalogue entry for one mechanism, as listed by `GET /v1/mechanisms`.
#[derive(Debug, Clone, Copy)]
pub struct MechanismInfo {
    /// The `mechanism=` value selecting it.
    pub name: &'static str,
    /// Human-readable parameter summary (`name=default` pairs).
    pub params: &'static str,
    /// Whether every stage of its plan is per-trace, so the engine fans
    /// the whole run out.
    pub per_trace: bool,
    /// One-line description.
    pub description: &'static str,
}

/// The full mechanism matrix the service exposes.
pub const MECHANISMS: &[MechanismInfo] = &[
    MechanismInfo {
        name: "raw",
        params: "",
        per_trace: true,
        description: "identity: publish unchanged (baseline)",
    },
    MechanismInfo {
        name: "pseudonymize",
        params: "per=user|trace (default user)",
        per_trace: true,
        description: "fresh random pseudonyms, locations untouched",
    },
    MechanismInfo {
        name: "promesse",
        params: "alpha=100 (meters)",
        per_trace: true,
        description: "speed smoothing: constant-speed re-sampling hides stops (the paper's step 1)",
    },
    MechanismInfo {
        name: "geoind",
        params: "epsilon=0.01 (1/m), budget=point|trace (default point)",
        per_trace: true,
        description: "geo-indistinguishability via planar Laplace noise",
    },
    MechanismInfo {
        name: "grid",
        params: "cell=250 (meters), time_round=0 (seconds, 0 = off)",
        // The grid frame is anchored at the dataset bounding box, so the
        // mechanism is dataset-level despite its per-fix arithmetic.
        per_trace: false,
        description: "spatial (and optional temporal) generalization to a grid",
    },
    MechanismInfo {
        name: "mixzones",
        params: "radius=100 (meters), window=300 (seconds)",
        per_trace: false,
        description: "identifier swapping in natural mix-zones (the paper's step 2)",
    },
    MechanismInfo {
        name: "kdelta",
        params: "k=2, delta=200 (meters)",
        per_trace: false,
        description: "(k, delta)-anonymity by trajectory clustering (Wait4Me-style)",
    },
    MechanismInfo {
        name: "pipeline",
        params: "alpha=100 (meters), radius=100 (meters), window=300 (seconds)",
        per_trace: false,
        description: "the paper's full mechanism: promesse then mix-zone swapping",
    },
];

/// Typed access to decoded query parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params<'a>(pub &'a [(String, String)]);

impl<'a> Params<'a> {
    /// The raw value of `name`, if present. The result borrows from the
    /// underlying query slice (not this wrapper), so it outlives
    /// temporary `Params` values.
    pub fn get(&self, name: &str) -> Option<&'a str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses `name` as `T`, falling back to `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::BadRequest`] naming the parameter when
    /// the value does not parse.
    pub fn parse_or<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, ServiceError> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse::<T>().map_err(|_| {
                ServiceError::BadRequest(format!("invalid value `{raw}` for parameter `{name}`"))
            }),
        }
    }
}

/// A mechanism together with the canonical form of its parameters —
/// the piece of the result-cache key that identifies *what* runs.
pub struct ResolvedMechanism {
    /// The constructed mechanism.
    pub mechanism: Box<dyn Mechanism>,
    /// [`MechanismSpec::canonical`] of the parsed spec: defaults made
    /// explicit, so `alpha=100`, `alpha=100.0` and an omitted default
    /// all canonicalize to `alpha=100`, while distinct parameters never
    /// share a string. The injectivity proptests in
    /// `tests/properties_service.rs` pin this.
    pub canonical: String,
}

/// Parses `mechanism=` plus its parameters into a [`MechanismSpec`],
/// filling in the documented defaults. Knob ranges are checked by
/// [`MechanismSpec::build`], except `time_round`, whose wording is the
/// service's own.
///
/// # Errors
///
/// Returns [`ServiceError::BadRequest`] when the parameter is missing,
/// names an unknown mechanism, or a value does not parse.
pub fn parse_spec(params: Params<'_>) -> Result<MechanismSpec, ServiceError> {
    let name = params
        .get("mechanism")
        .ok_or_else(|| ServiceError::BadRequest("missing required parameter `mechanism`".into()))?;
    let zones = MixZoneConfig::default();
    let radius_m = || params.parse_or("radius", zones.radius_m);
    let window_s = || params.parse_or("window", zones.zone_window.get());
    Ok(match name {
        "raw" | "identity" => MechanismSpec::Identity,
        "pseudonymize" => MechanismSpec::Pseudonymize {
            per_trace: match params.get("per").unwrap_or("user") {
                "user" => false,
                "trace" => true,
                other => {
                    return Err(ServiceError::BadRequest(format!(
                        "invalid value `{other}` for parameter `per` (expected user|trace)"
                    )))
                }
            },
        },
        "promesse" => MechanismSpec::Promesse {
            alpha_m: params.parse_or("alpha", 100.0)?,
        },
        "geoind" => MechanismSpec::GeoInd {
            epsilon: params.parse_or("epsilon", 0.01)?,
            budget: match params.get("budget").unwrap_or("point") {
                "point" => NoiseBudget::PerPoint,
                "trace" => NoiseBudget::PerTrace,
                other => {
                    return Err(ServiceError::BadRequest(format!(
                        "invalid value `{other}` for parameter `budget` (expected point|trace)"
                    )))
                }
            },
        },
        "grid" => {
            let cell_m = params.parse_or("cell", 250.0)?;
            let time_round: f64 = params.parse_or("time_round", 0.0)?;
            if !time_round.is_finite() || time_round < 0.0 {
                return Err(ServiceError::BadRequest(format!(
                    "invalid value `{time_round}` for parameter `time_round` \
                     (expected seconds >= 0; 0 disables rounding)"
                )));
            }
            MechanismSpec::Grid {
                cell_m,
                // `-0` passes the check above but would print as `-0`:
                // give it the cache key of the `0` it means.
                time_round_s: if time_round == 0.0 { 0.0 } else { time_round },
            }
        }
        "mixzones" => MechanismSpec::MixZones {
            radius_m: radius_m()?,
            window_s: window_s()?,
        },
        "kdelta" => MechanismSpec::KDelta {
            k: params.parse_or("k", 2usize)?,
            delta_m: params.parse_or("delta", 200.0)?,
        },
        "pipeline" => MechanismSpec::Pipeline {
            alpha_m: params.parse_or("alpha", 100.0)?,
            radius_m: radius_m()?,
            window_s: window_s()?,
        },
        other => {
            return Err(ServiceError::BadRequest(format!(
                "unknown mechanism `{other}` (see GET /v1/mechanisms)"
            )))
        }
    })
}

/// Parses the spec, builds the mechanism and renders its canonical
/// parameter string.
///
/// # Errors
///
/// [`parse_spec`]'s errors, plus the `CoreError` of a mechanism
/// constructor rejecting an out-of-range value.
pub fn resolve_mechanism(params: Params<'_>) -> Result<ResolvedMechanism, ServiceError> {
    let spec = parse_spec(params)?;
    Ok(ResolvedMechanism {
        mechanism: spec.build()?,
        canonical: spec.canonical(),
    })
}

/// Renders the catalogue as a JSON array (all content is static, so the
/// document is assembled by hand — no serializer in the dependency
/// tree).
pub fn mechanisms_json() -> String {
    let mut out = String::from("[\n");
    for (i, m) in MECHANISMS.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"name\":\"{}\",\"params\":\"{}\",\"per_trace\":{},\"description\":\"{}\"}}{}\n",
            m.name,
            m.params,
            m.per_trace,
            m.description,
            if i + 1 < MECHANISMS.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_core::Stage;

    fn params(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn builds_every_catalogued_mechanism_with_defaults() {
        for info in MECHANISMS {
            let q = params(&[("mechanism", info.name)]);
            let mechanism = resolve_mechanism(Params(&q))
                .unwrap_or_else(|e| panic!("mechanism `{}` failed to build: {e}", info.name))
                .mechanism;
            let plan = mechanism.stages();
            assert_eq!(
                plan.iter().all(|stage| matches!(stage, Stage::PerTrace(_))),
                info.per_trace,
                "per_trace flag for `{}` disagrees with the mechanism",
                info.name
            );
        }
    }

    #[test]
    fn parameters_reach_the_mechanism() {
        let name = |q: &[(&str, &str)]| {
            resolve_mechanism(Params(&params(q)))
                .unwrap()
                .mechanism
                .name()
        };
        assert!(name(&[("mechanism", "promesse"), ("alpha", "250")]).contains("250"));
        let q = [
            ("mechanism", "geoind"),
            ("epsilon", "0.5"),
            ("budget", "trace"),
        ];
        assert!(name(&q).contains("trace"));
        assert!(name(&[("mechanism", "kdelta"), ("k", "5"), ("delta", "400")]).contains("k=5"));
    }

    #[test]
    fn rejects_unknown_and_invalid() {
        for q in [
            params(&[]),
            params(&[("mechanism", "nope")]),
            params(&[("mechanism", "promesse"), ("alpha", "banana")]),
            params(&[("mechanism", "promesse"), ("alpha", "-5")]),
            params(&[("mechanism", "pseudonymize"), ("per", "day")]),
            params(&[("mechanism", "geoind"), ("budget", "yearly")]),
            params(&[("mechanism", "grid"), ("time_round", "-60")]),
            params(&[("mechanism", "grid"), ("time_round", "NaN")]),
        ] {
            let err = match resolve_mechanism(Params(&q)) {
                Err(e) => e,
                Ok(r) => panic!("{q:?} unexpectedly built `{}`", r.canonical),
            };
            assert_eq!(err.status().0, 400, "{q:?} -> {err}");
        }
    }

    #[test]
    fn canonical_params_resolve_defaults_and_numeric_variants() {
        // Omitted default, explicit default, and a numeric spelling
        // variant all canonicalize identically…
        let forms = [
            params(&[("mechanism", "promesse")]),
            params(&[("mechanism", "promesse"), ("alpha", "100")]),
            params(&[("mechanism", "promesse"), ("alpha", "100.0")]),
        ];
        let canon: Vec<String> = forms
            .iter()
            .map(|q| resolve_mechanism(Params(q)).unwrap().canonical)
            .collect();
        assert_eq!(canon[0], "promesse alpha=100");
        assert!(canon.iter().all(|c| c == &canon[0]), "{canon:?}");
        // …while a genuinely different value produces a different string.
        let q = params(&[("mechanism", "promesse"), ("alpha", "100.5")]);
        assert_eq!(
            resolve_mechanism(Params(&q)).unwrap().canonical,
            "promesse alpha=100.5"
        );
        // Every catalogued mechanism has a canonical form that starts
        // with its name (the cross-mechanism injectivity anchor).
        for info in MECHANISMS {
            let q = params(&[("mechanism", info.name)]);
            let canonical = resolve_mechanism(Params(&q)).unwrap().canonical;
            assert!(canonical.starts_with(info.name), "{canonical}");
        }
    }

    #[test]
    fn negative_zero_time_round_shares_the_zero_cache_key() {
        let canonical = |v: &str| {
            let q = params(&[("mechanism", "grid"), ("time_round", v)]);
            resolve_mechanism(Params(&q)).unwrap().canonical
        };
        assert_eq!(canonical("-0"), canonical("0"));
    }

    #[test]
    fn catalogue_json_is_complete() {
        let json = mechanisms_json();
        for m in MECHANISMS {
            assert!(json.contains(m.name));
        }
        assert_eq!(json.matches("\"name\"").count(), MECHANISMS.len());
        // The published `GET /v1/mechanisms` body, byte for byte.
        assert_eq!(json, include_str!("../tests/golden/mechanisms.json"));
    }
}
