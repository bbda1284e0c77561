//! The declarative half of the harness: *what* to evaluate.
//!
//! An [`EvalPlan`] is a cross-product — scenario presets × mechanism
//! configurations × plan seeds — that the runner expands into cells.
//! Both axes are data, not code: a spec names a preset plus its
//! parameters, builds the concrete generator/mechanism on demand, and
//! carries a stable machine id that the golden corpus, the CLI filters
//! and the `/v1/evaluate` query parameters all key on. The mechanism
//! axis is `mobipriv_core`'s [`MechanismSpec`], the one the service
//! and the reproduction tables also run.

use mobipriv_core::{MechanismSpec, NoiseBudget};
use mobipriv_synth::{scenarios, SynthOutput};

/// One synthetic workload of the matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioSpec {
    /// `scenarios::commuter_town` — the default quantitative workload.
    CommuterTown {
        /// Number of simulated users.
        users: usize,
        /// Number of simulated days.
        days: usize,
    },
    /// `scenarios::dense_downtown` — hub-heavy, crossing-rich.
    DenseDowntown {
        /// Number of simulated users.
        users: usize,
        /// Number of simulated days.
        days: usize,
    },
    /// `scenarios::hub_rush` — a rush hour through one central hub.
    HubRush {
        /// Number of simulated users.
        users: usize,
        /// Fraction (0–1) routed straight through the hub.
        via_hub_fraction: f64,
    },
    /// `scenarios::crossing_paths` — the paper's Fig. 1 micro-scenario.
    CrossingPaths,
    /// `scenarios::random_walkers` — dwell-free random grid trips.
    RandomWalkers {
        /// Number of simulated users.
        users: usize,
        /// Back-to-back trips per user.
        trips: usize,
    },
    /// `scenarios::serving_day` — the service-benchmark workload.
    ServingDay {
        /// Number of simulated users.
        users: usize,
    },
}

impl ScenarioSpec {
    /// The stable machine name (golden-corpus file stem, CLI filter,
    /// query-parameter value).
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioSpec::CommuterTown { .. } => "commuter_town",
            ScenarioSpec::DenseDowntown { .. } => "dense_downtown",
            ScenarioSpec::HubRush { .. } => "hub_rush",
            ScenarioSpec::CrossingPaths => "crossing_paths",
            ScenarioSpec::RandomWalkers { .. } => "random_walkers",
            ScenarioSpec::ServingDay { .. } => "serving_day",
        }
    }

    /// Generates the workload (dataset + ground truth) under `seed`.
    pub fn generate(&self, seed: u64) -> SynthOutput {
        match *self {
            ScenarioSpec::CommuterTown { users, days } => {
                scenarios::commuter_town(users, days, seed)
            }
            ScenarioSpec::DenseDowntown { users, days } => {
                scenarios::dense_downtown(users, days, seed)
            }
            ScenarioSpec::HubRush {
                users,
                via_hub_fraction,
            } => scenarios::hub_rush(users, via_hub_fraction, seed),
            ScenarioSpec::CrossingPaths => scenarios::crossing_paths(seed),
            ScenarioSpec::RandomWalkers { users, trips } => {
                scenarios::random_walkers(users, trips, seed)
            }
            ScenarioSpec::ServingDay { users } => scenarios::serving_day(users, seed),
        }
    }
}

/// The declarative evaluation matrix: scenarios × mechanisms × seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalPlan {
    /// Preset name recorded in the report (`smoke`, `full`, `custom`).
    pub name: String,
    /// The scenario axis.
    pub scenarios: Vec<ScenarioSpec>,
    /// The mechanism axis.
    pub mechanisms: Vec<MechanismSpec>,
    /// The seed axis (each seed re-generates every scenario and re-keys
    /// every cell RNG).
    pub seeds: Vec<u64>,
}

impl EvalPlan {
    /// The CI-scale preset: every scenario family and the whole
    /// mechanism matrix (including a Promesse α-sweep and a GeoInd
    /// ε-sweep) on workloads small enough for a debug-build test run.
    /// This is the plan the golden conformance corpus pins.
    pub fn smoke() -> EvalPlan {
        EvalPlan {
            name: "smoke".to_owned(),
            scenarios: vec![
                ScenarioSpec::CommuterTown { users: 4, days: 2 },
                ScenarioSpec::DenseDowntown { users: 4, days: 1 },
                ScenarioSpec::HubRush {
                    users: 8,
                    via_hub_fraction: 0.5,
                },
                ScenarioSpec::CrossingPaths,
                ScenarioSpec::RandomWalkers { users: 3, trips: 3 },
                ScenarioSpec::ServingDay { users: 3 },
            ],
            mechanisms: Self::mechanism_matrix(),
            seeds: vec![42],
        }
    }

    /// The full-scale preset: same matrix on the workload sizes the
    /// recorded experiment numbers use, two seeds.
    pub fn full() -> EvalPlan {
        EvalPlan {
            name: "full".to_owned(),
            scenarios: vec![
                ScenarioSpec::CommuterTown { users: 20, days: 4 },
                ScenarioSpec::DenseDowntown { users: 20, days: 2 },
                ScenarioSpec::HubRush {
                    users: 40,
                    via_hub_fraction: 0.5,
                },
                ScenarioSpec::CrossingPaths,
                ScenarioSpec::RandomWalkers {
                    users: 10,
                    trips: 6,
                },
                ScenarioSpec::ServingDay { users: 50 },
            ],
            mechanisms: Self::mechanism_matrix(),
            seeds: vec![42, 43],
        }
    }

    /// The shared mechanism axis of both presets.
    fn mechanism_matrix() -> Vec<MechanismSpec> {
        vec![
            MechanismSpec::Identity,
            MechanismSpec::Pseudonymize { per_trace: false },
            MechanismSpec::Promesse { alpha_m: 50.0 },
            MechanismSpec::Promesse { alpha_m: 100.0 },
            MechanismSpec::Promesse { alpha_m: 200.0 },
            MechanismSpec::GeoInd {
                epsilon: 0.1,
                budget: NoiseBudget::PerPoint,
            },
            MechanismSpec::GeoInd {
                epsilon: 0.01,
                budget: NoiseBudget::PerPoint,
            },
            MechanismSpec::Grid {
                cell_m: 250.0,
                time_round_s: 0.0,
            },
            MechanismSpec::MixZones {
                radius_m: 100.0,
                window_s: 300.0,
            },
            MechanismSpec::KDelta {
                k: 2,
                delta_m: 500.0,
            },
            MechanismSpec::Pipeline {
                alpha_m: 100.0,
                radius_m: 100.0,
                window_s: 300.0,
            },
        ]
    }

    /// Restricts the plan to the named scenario (exact match on
    /// [`ScenarioSpec::name`]); `None` if the name is unknown.
    pub fn with_scenario(mut self, name: &str) -> Option<EvalPlan> {
        self.scenarios.retain(|s| s.name() == name);
        if self.scenarios.is_empty() {
            None
        } else {
            Some(self)
        }
    }

    /// Restricts the plan to the mechanism with the given id (exact
    /// match on [`MechanismSpec::id`]); `None` if the id is unknown.
    pub fn with_mechanism(mut self, id: &str) -> Option<EvalPlan> {
        self.mechanisms.retain(|m| m.id() == id);
        if self.mechanisms.is_empty() {
            None
        } else {
            Some(self)
        }
    }

    /// Replaces the seed axis with a single seed.
    pub fn with_seed(mut self, seed: u64) -> EvalPlan {
        self.seeds = vec![seed];
        self
    }

    /// Number of cells the runner will produce.
    pub fn cell_count(&self) -> usize {
        self.scenarios.len() * self.mechanisms.len() * self.seeds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_plan_covers_the_full_matrix() {
        let plan = EvalPlan::smoke();
        assert_eq!(plan.scenarios.len(), 6);
        assert_eq!(plan.mechanisms.len(), 11);
        assert_eq!(plan.cell_count(), 66);
        // The sweeps are present.
        let ids: Vec<String> = plan.mechanisms.iter().map(MechanismSpec::id).collect();
        assert!(ids.contains(&"promesse_a50".to_owned()));
        assert!(ids.contains(&"promesse_a200".to_owned()));
        assert!(ids.contains(&"geoind_e0.1".to_owned()));
        assert!(ids.contains(&"geoind_e0.01".to_owned()));
    }

    #[test]
    fn mechanism_ids_are_unique() {
        let plan = EvalPlan::smoke();
        let mut ids: Vec<String> = plan.mechanisms.iter().map(MechanismSpec::id).collect();
        ids.sort();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn every_spec_builds() {
        for spec in EvalPlan::smoke().mechanisms {
            let mechanism = spec.build().expect("plan specs are valid");
            assert!(!mechanism.name().is_empty(), "{}", spec.id());
        }
    }

    #[test]
    fn filters_narrow_or_reject() {
        let plan = EvalPlan::smoke().with_scenario("crossing_paths").unwrap();
        assert_eq!(plan.scenarios.len(), 1);
        assert!(EvalPlan::smoke().with_scenario("atlantis").is_none());
        let plan = EvalPlan::smoke().with_mechanism("promesse_a100").unwrap();
        assert_eq!(plan.mechanisms.len(), 1);
        assert!(EvalPlan::smoke().with_mechanism("nope").is_none());
        assert_eq!(EvalPlan::smoke().with_seed(7).seeds, vec![7]);
    }

    #[test]
    fn noise_tuning_matches_the_paper_settings() {
        let spec = MechanismSpec::GeoInd {
            epsilon: 0.01,
            budget: NoiseBudget::PerPoint,
        };
        assert!((spec.expected_noise_m() - 200.0).abs() < 1e-9);
        assert_eq!(MechanismSpec::Identity.expected_noise_m(), 0.0);
    }

    #[test]
    fn scenarios_generate_deterministically() {
        for spec in EvalPlan::smoke().scenarios {
            let a = spec.generate(9);
            let b = spec.generate(9);
            assert_eq!(a.dataset, b.dataset, "{}", spec.name());
            assert!(!a.dataset.is_empty(), "{}", spec.name());
        }
    }
}
