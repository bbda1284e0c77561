//! The publication mechanisms of *"Privacy-preserving Publication of
//! Mobility Data with High Utility"* (Primault, Ben Mokhtar, Brunie —
//! ICDCS 2015), plus the baselines the paper compares against.
//!
//! The paper's mechanism protects a mobility dataset in two steps:
//!
//! 1. **Speed smoothing** ([`Promesse`]) — each trace is re-sampled at a
//!    uniform *spatial* interval and re-timestamped at a uniform *time*
//!    interval, so the published trace has constant apparent speed.
//!    Stops (points of interest) become geometrically invisible: the
//!    mechanism distorts *time*, not location.
//! 2. **Mix-zone swapping** ([`MixZones`]) — wherever two or more users
//!    naturally pass close to each other at close instants, the meeting
//!    area becomes a mix-zone: points inside are suppressed and the user
//!    identifiers of the traversing traces are randomly permuted,
//!    breaking trace linkability at no spatial cost.
//!
//! [`Pipeline`] chains the two (Fig. 1b then Fig. 1c of the paper).
//!
//! Baselines from the paper's related-work section, for the comparative
//! experiments:
//!
//! * [`GeoInd`] — geo-indistinguishability via the planar Laplace
//!   mechanism (Andrés et al., CCS'13);
//! * [`KDelta`] — Wait4Me-style (k, δ)-anonymity by trajectory
//!   clustering and spatial editing (Abul et al., 2010);
//! * [`GridGeneralization`] — naive spatial/temporal generalization;
//! * [`Identity`] — the no-op mechanism (raw publication).
//!
//! Every mechanism implements the [`Mechanism`] trait: a name plus a
//! plan of [`Stage`]s. A per-trace stage is a [`TraceKernel`]; a stage
//! that needs the whole dataset is a [`DatasetStage`] and may return a
//! [`Report`]. [`Engine::run`] is the one runner: it fans per-trace
//! stages out across cores with one seeded RNG stream per trace, so
//! parallel output is bit-identical to sequential execution (see the
//! [`engine`] module docs).
//!
//! # Example
//!
//! ```
//! use mobipriv_core::{CancelToken, Engine, MixZoneConfig, Pipeline, Report};
//! use mobipriv_synth::scenarios;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let out = scenarios::commuter_town(2, 1, 7);
//! let pipeline = Pipeline::new(100.0, MixZoneConfig::default())?;
//! let never = CancelToken::none();
//! let (published, report) = Engine::parallel().run(&pipeline, &out.dataset, 1, &never)?;
//! assert!(!published.is_empty());
//! assert!(matches!(report, Report::Swap(_)));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rust_2018_idioms)]

pub mod engine;
mod error;
mod geoind;
mod grid_gen;
mod kdelta;
mod mechanism;
mod mixzone;
mod pipeline;
mod promesse;
mod spec;

pub use engine::{derive_user_token, fan_out, trace_seed, CancelToken, Cancelled, Engine};
pub use error::CoreError;
pub use geoind::{GeoInd, NoiseBudget};
pub use grid_gen::GridGeneralization;
pub use kdelta::{KDelta, KDeltaReport};
pub use mechanism::{DatasetStage, Identity, Mechanism, Pseudonymize, Report, Stage, TraceKernel};
pub use mixzone::{detect_mix_zones, MixZone, MixZoneConfig, MixZones, SwapReport};
pub use pipeline::Pipeline;
pub use promesse::Promesse;
pub use spec::MechanismSpec;
