//! **mobipriv** — privacy-preserving publication of mobility data with
//! high utility.
//!
//! A production-grade Rust reproduction of Primault, Ben Mokhtar &
//! Brunie, *"Privacy-preserving Publication of Mobility Data with High
//! Utility"* (ICDCS 2015): speed smoothing to hide points of interest
//! plus identifier swapping in natural mix-zones — together with the
//! baselines the paper compares against, the attacks it defends from,
//! a synthetic mobility workload generator, and utility metrics.
//!
//! This facade crate re-exports the whole workspace; depend on it for
//! one-stop access or on the individual `mobipriv-*` crates for leaner
//! builds:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`geo`] | `mobipriv-geo` | coordinates, projections, polylines, spatial index |
//! | [`model`] | `mobipriv-model` | fixes, traces, datasets, CSV I/O |
//! | [`synth`] | `mobipriv-synth` | city & agent simulator, scenario presets |
//! | [`poi`] | `mobipriv-poi` | stay points, clustering, POI matching |
//! | [`core`] | `mobipriv-core` | **the paper**: Promesse, mix-zones, pipeline, baselines |
//! | [`attacks`] | `mobipriv-attacks` | POI retrieval, re-identification, tracking |
//! | [`metrics`] | `mobipriv-metrics` | distortion, coverage, queries, trip stats |
//! | [`eval`] | `mobipriv-eval` | mechanism × scenario × attack evaluation matrix + golden conformance corpus |
//! | [`service`] | `mobipriv-service` | anonymization-as-a-service: HTTP server + load generator |
//!
//! # Quickstart
//!
//! ```
//! use mobipriv::core::{CancelToken, Engine, MixZoneConfig, Pipeline, Report};
//! use mobipriv::synth::scenarios;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. A workload (swap in your own data via mobipriv::model::read_csv).
//! let town = scenarios::commuter_town(5, 2, 42);
//!
//! // 2. The paper's two-step pipeline: α = 100 m smoothing, then
//! //    swapping in 100 m mix-zones, run by the engine under seed 7.
//! let pipeline = Pipeline::new(100.0, MixZoneConfig::default())?;
//! let run = Engine::parallel().run(&pipeline, &town.dataset, 7, &CancelToken::none())?;
//! let (published, Report::Swap(report)) = run else {
//!     unreachable!("the pipeline reports its swaps")
//! };
//!
//! assert!(published.len() > 0);
//! println!("zones: {}, suppressed: {:.1}%",
//!          report.zones.len(), report.suppression_ratio() * 100.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rust_2018_idioms)]

pub use mobipriv_attacks as attacks;
pub use mobipriv_core as core;
pub use mobipriv_eval as eval;
pub use mobipriv_geo as geo;
pub use mobipriv_metrics as metrics;
pub use mobipriv_model as model;
pub use mobipriv_obs as obs;
pub use mobipriv_poi as poi;
pub use mobipriv_service as service;
pub use mobipriv_synth as synth;
