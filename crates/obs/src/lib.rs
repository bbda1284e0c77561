//! Observability for the `mobipriv` stack.
//!
//! Three concerns, one std-only crate with no dependencies (consistent
//! with the workspace's vendored-stand-in constraint):
//!
//! * **Metrics** ([`metrics`]) — a registry of atomic counters, gauges
//!   and fixed-bucket log-scale histograms, rendered in the Prometheus
//!   text exposition format (and parsed back by [`scrape`] for the
//!   tooling that reads its own server's `/metrics`). Hot paths touch
//!   only atomics; the registry lock is taken at registration and
//!   render time.
//! * **Tracing** ([`trace`]) — per-request ids derived from a
//!   per-process atomic counter (never wall-clock randomness, so id
//!   assignment cannot perturb anything deterministic), span timelines
//!   with stage tags, and a bounded ring buffer of finished timelines.
//! * **Logging** ([`logging`]) — a leveled JSON-lines logger on stderr
//!   controlled by the `MOBIPRIV_LOG` environment variable.
//!
//! # Determinism contract
//!
//! Instrumentation *reads* the computation and never feeds back into
//! it: metrics and spans are write-only sinks, trace ids ride in
//! headers and debug endpoints only, and nothing here is hashed into a
//! seed, a cache key or a response body, so the instrumented engine run
//! publishes exactly what the bare stage loop publishes (the
//! `obs_overhead` section of `mobipriv-bench-perf` asserts it).

#![deny(missing_docs)]
#![deny(rust_2018_idioms)]

use std::sync::OnceLock;

pub mod logging;
pub mod metrics;
pub mod profile;
pub mod scrape;
pub mod trace;

/// The process-global registry, used by library layers that cannot own
/// a handle (the `Copy` [`Engine`](../mobipriv_core/struct.Engine.html)
/// and the eval harness). Server-scoped metrics live in per-server
/// registries instead, so tests that spawn several servers in one
/// process never share request counters.
pub fn global() -> &'static metrics::Registry {
    static GLOBAL: OnceLock<metrics::Registry> = OnceLock::new();
    GLOBAL.get_or_init(metrics::Registry::new)
}
