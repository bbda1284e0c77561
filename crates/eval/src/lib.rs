//! The evaluation harness for the `mobipriv` toolkit: the full
//! mechanism × scenario × attack × utility-metric matrix as one
//! declarative, parallel, machine-readable subsystem.
//!
//! The ICDCS'15 paper's central claim is an *ordering* — speed
//! smoothing preserves spatial utility while defeating POI extraction,
//! where geo-indistinguishability and generalization leak. An ordering
//! is only as trustworthy as the grid it was measured on, so this crate
//! makes the grid first-class:
//!
//! * [`EvalPlan`] — the declarative cross-product: scenario presets ×
//!   mechanism configurations (including parameter sweeps) × seeds;
//! * [`evaluate`] / [`evaluate_with`] — the runner: cells fan out
//!   across cores through `mobipriv_core::fan_out`, each under a seed
//!   derived from the cell's *names*, so the whole matrix is
//!   bit-deterministic for any thread count;
//! * [`EvalReport`] — the schema-versioned JSON output (std-only writer
//!   *and* parser — no serialization dependency), with per-cell
//!   published-dataset digests;
//! * [`EvalReport::diff`] — the conformance comparison the committed
//!   golden corpus (`tests/golden/*.json`) gates CI with; regenerate
//!   with `mobipriv-eval --bless` after an intentional change.
//!
//! # Example
//!
//! ```
//! use mobipriv_eval::{evaluate, EvalPlan};
//!
//! let plan = EvalPlan::smoke()
//!     .with_scenario("crossing_paths").unwrap()
//!     .with_mechanism("raw").unwrap();
//! let report = evaluate(&plan);
//! assert_eq!(report.cells.len(), 1);
//! // The canonical JSON form round-trips every conformance-relevant
//! // field (the parsed copy only drops the wall-clock timings).
//! let text = report.to_json();
//! let back = mobipriv_eval::EvalReport::from_json(&text).unwrap();
//! assert!(back.cells[0].content_eq(&report.cells[0]));
//! assert_eq!(back.to_json(), text);
//! ```

#![deny(missing_docs)]
#![deny(rust_2018_idioms)]

pub mod digest;
pub mod json;
mod plan;
mod report;
mod runner;

pub use json::{Json, JsonError};
pub use mobipriv_core::MechanismSpec;
pub use plan::{EvalPlan, ScenarioSpec};
pub use report::{EvalCell, EvalReport, SCHEMA_VERSION};
pub use runner::{evaluate, evaluate_with};
