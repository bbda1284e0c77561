//! What runs: one value type naming a mechanism and every knob it
//! takes, shared by the service's query parser, the evaluation matrix
//! and the reproduction tables.

use mobipriv_geo::Seconds;

use crate::{
    CoreError, GeoInd, GridGeneralization, Identity, KDelta, Mechanism, MixZoneConfig, MixZones,
    NoiseBudget, Pipeline, Promesse, Pseudonymize,
};

/// One mechanism configuration.
///
/// Two renderings of a spec are persisted, so neither may change for an
/// existing configuration: [`canonical`](MechanismSpec::canonical) keys
/// the service's result cache, store journal and job ids, and
/// [`id`](MechanismSpec::id) keys the golden corpus and the evaluation
/// cell seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MechanismSpec {
    /// Raw publication (the baseline every attack should win against).
    Identity,
    /// Random pseudonyms, locations untouched.
    Pseudonymize {
        /// A fresh pseudonym per trace instead of one per user.
        per_trace: bool,
    },
    /// Promesse speed smoothing.
    Promesse {
        /// Spatial smoothing interval α, meters.
        alpha_m: f64,
    },
    /// Planar-Laplace geo-indistinguishability.
    GeoInd {
        /// Privacy parameter ε, per meter.
        epsilon: f64,
        /// How ε is spent across a trace's points.
        budget: NoiseBudget,
    },
    /// Spatial (and optional temporal) generalization to a grid.
    Grid {
        /// Cell side, meters.
        cell_m: f64,
        /// Timestamp rounding granularity, seconds; `0` disables it.
        time_round_s: f64,
    },
    /// Mix-zone identifier swapping.
    MixZones {
        /// Zone radius, meters.
        radius_m: f64,
        /// Zone time window, seconds.
        window_s: f64,
    },
    /// (k, δ)-anonymity by trajectory clustering.
    KDelta {
        /// Minimum cluster size k.
        k: usize,
        /// Spatial tolerance δ, meters.
        delta_m: f64,
    },
    /// The paper's full pipeline: smoothing then swapping.
    Pipeline {
        /// Promesse α, meters.
        alpha_m: f64,
        /// Zone radius, meters.
        radius_m: f64,
        /// Zone time window, seconds.
        window_s: f64,
    },
}

impl MechanismSpec {
    /// Builds the concrete mechanism.
    ///
    /// # Errors
    ///
    /// The [`CoreError`] of the mechanism's constructor when a knob is
    /// out of range.
    pub fn build(&self) -> Result<Box<dyn Mechanism>, CoreError> {
        let zones = |radius_m, window_s| MixZoneConfig {
            radius_m,
            zone_window: Seconds::new(window_s),
            ..MixZoneConfig::default()
        };
        Ok(match *self {
            MechanismSpec::Identity => Box::new(Identity),
            MechanismSpec::Pseudonymize { per_trace: false } => Box::new(Pseudonymize::new()),
            MechanismSpec::Pseudonymize { per_trace: true } => {
                Box::new(Pseudonymize::new().per_trace())
            }
            MechanismSpec::Promesse { alpha_m } => Box::new(Promesse::new(alpha_m)?),
            MechanismSpec::GeoInd { epsilon, budget } => {
                Box::new(GeoInd::new(epsilon)?.with_budget(budget))
            }
            MechanismSpec::Grid {
                cell_m,
                time_round_s,
            } => {
                let grid = GridGeneralization::new(cell_m)?;
                if time_round_s == 0.0 {
                    Box::new(grid)
                } else {
                    Box::new(grid.with_time_rounding(Seconds::new(time_round_s))?)
                }
            }
            MechanismSpec::MixZones { radius_m, window_s } => {
                Box::new(MixZones::new(zones(radius_m, window_s))?)
            }
            MechanismSpec::KDelta { k, delta_m } => Box::new(KDelta::new(k, delta_m)?),
            MechanismSpec::Pipeline {
                alpha_m,
                radius_m,
                window_s,
            } => Box::new(Pipeline::new(alpha_m, zones(radius_m, window_s))?),
        })
    }

    /// The cache-key rendering: the mechanism's service name, then
    /// every knob in a fixed order, numbers printed through Rust's
    /// shortest round-trip `Display`. Distinct specs always render
    /// distinctly (`Display` on `f64`/`usize` is injective), which is
    /// what makes the string safe to key a content-addressed cache with.
    pub fn canonical(&self) -> String {
        match *self {
            MechanismSpec::Identity => "raw".to_owned(),
            MechanismSpec::Pseudonymize { per_trace: false } => "pseudonymize per=user".to_owned(),
            MechanismSpec::Pseudonymize { per_trace: true } => "pseudonymize per=trace".to_owned(),
            MechanismSpec::Promesse { alpha_m } => format!("promesse alpha={alpha_m}"),
            MechanismSpec::GeoInd { epsilon, budget } => match budget {
                NoiseBudget::PerPoint => format!("geoind epsilon={epsilon} budget=point"),
                NoiseBudget::PerTrace => format!("geoind epsilon={epsilon} budget=trace"),
            },
            MechanismSpec::Grid {
                cell_m,
                time_round_s,
            } => format!("grid cell={cell_m} time_round={time_round_s}"),
            MechanismSpec::MixZones { radius_m, window_s } => {
                format!("mixzones radius={radius_m} window={window_s}")
            }
            MechanismSpec::KDelta { k, delta_m } => format!("kdelta k={k} delta={delta_m}"),
            MechanismSpec::Pipeline {
                alpha_m,
                radius_m,
                window_s,
            } => format!("pipeline alpha={alpha_m} radius={radius_m} window={window_s}"),
        }
    }

    /// The evaluation matrix's machine id (golden-corpus key, CLI
    /// filter, query-parameter value). It names only the knobs the
    /// matrix varies, so pseudonym scope, noise budget, time rounding
    /// and the zone radius and window are left out.
    pub fn id(&self) -> String {
        match *self {
            MechanismSpec::Identity => "raw".to_owned(),
            MechanismSpec::Pseudonymize { .. } => "pseudonymize".to_owned(),
            MechanismSpec::Promesse { alpha_m } => format!("promesse_a{alpha_m}"),
            MechanismSpec::GeoInd { epsilon, .. } => format!("geoind_e{epsilon}"),
            MechanismSpec::Grid { cell_m, .. } => format!("grid_c{cell_m}"),
            MechanismSpec::MixZones { .. } => "mixzones".to_owned(),
            MechanismSpec::KDelta { k, delta_m } => format!("kdelta_k{k}_d{delta_m}"),
            MechanismSpec::Pipeline { alpha_m, .. } => format!("pipeline_a{alpha_m}"),
        }
    }

    /// Expected per-point location error, meters — what a
    /// Kerckhoffs-aware adversary tunes for (the attacks'
    /// `tuned_for_noise`). Zero for mechanisms that do not perturb
    /// locations.
    pub fn expected_noise_m(&self) -> f64 {
        match *self {
            // Planar Laplace: E[‖noise‖] = 2/ε.
            MechanismSpec::GeoInd { epsilon, .. } => 2.0 / epsilon,
            // Snapping to a c-meter grid moves a point at most c/√2.
            MechanismSpec::Grid { cell_m, .. } => cell_m / 2.0,
            MechanismSpec::KDelta { delta_m, .. } => delta_m / 2.0,
            _ => 0.0,
        }
    }
}
