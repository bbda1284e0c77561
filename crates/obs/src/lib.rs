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
//!   with stage tags, and a bounded ring buffer of finished timelines
//!   behind a sampling flag.
//! * **Logging** ([`logging`]) — a leveled JSON-lines logger on stderr
//!   controlled by the `MOBIPRIV_LOG` environment variable.
//!
//! # Determinism contract
//!
//! Instrumentation *reads* the computation and never feeds back into
//! it: metrics and spans are write-only sinks, trace ids ride in
//! headers and debug endpoints only, and nothing here is hashed into a
//! seed, a cache key or a response body. Disabling observability
//! ([`set_enabled`]) therefore changes wall-clock only — every output
//! byte stays identical, which the service test-suite asserts.

#![deny(missing_docs)]
#![deny(rust_2018_idioms)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub mod logging;
pub mod metrics;
pub mod profile;
pub mod scrape;
pub mod trace;

/// Process-wide switch for the *global* instrumentation hooks (engine
/// and eval profiling). `true` by default; the `obs_overhead` section
/// of `mobipriv-bench-perf` flips it off and back on to measure the
/// instrumentation overhead itself. Per-server request metrics are
/// owned by the server and are not affected.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables the global instrumentation hooks.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether the global instrumentation hooks are on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-global registry, used by library layers that cannot own
/// a handle (the `Copy` [`Engine`](../mobipriv_core/struct.Engine.html)
/// and the eval harness). Server-scoped metrics live in per-server
/// registries instead, so tests that spawn several servers in one
/// process never share request counters.
pub fn global() -> &'static metrics::Registry {
    static GLOBAL: OnceLock<metrics::Registry> = OnceLock::new();
    GLOBAL.get_or_init(metrics::Registry::new)
}
