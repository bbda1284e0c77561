//! The deterministic batch engine: dataset-level drivers for the
//! per-trace mechanism kernels.
//!
//! Per-trace mechanisms (speed smoothing, planar-Laplace perturbation,
//! pseudonymization, grid generalization …) are embarrassingly parallel:
//! every input trace maps to at most one output trace with no shared
//! state. The [`Engine`] exploits that by fanning traces out across
//! cores — while staying **bit-identical** to sequential execution.
//!
//! # Determinism
//!
//! The classic way parallel mechanisms lose reproducibility is a single
//! RNG shared across a nondeterministic thread interleaving. The engine
//! never shares an RNG: each trace gets its own stream, seeded from
//!
//! ```text
//! trace_seed = mix(experiment seed, user id, trace index)
//! ```
//!
//! so the random draws a trace sees depend only on *what* it is and
//! *where it sits in the input*, never on scheduling. Parallel and
//! sequential runs of the same experiment seed therefore produce equal
//! datasets — a property the workspace's test suite asserts for every
//! mechanism ([`Engine::protect`] is compared against
//! [`Engine::sequential`]'s output over the full mechanism matrix).
//!
//! Cross-trace mechanisms (mix-zones, (k, δ)-clustering) cannot be
//! fanned out trace-by-trace; for those the engine falls back to the
//! mechanism's dataset-level entry point with a single stream seeded
//! from the experiment seed — still fully deterministic, just not
//! parallel.
//!
//! # Example
//!
//! ```
//! use mobipriv_core::{Engine, Promesse};
//! use mobipriv_synth::scenarios;
//!
//! # fn main() -> Result<(), mobipriv_core::CoreError> {
//! let town = scenarios::commuter_town(5, 2, 42);
//! let mechanism = Promesse::new(100.0)?;
//! let parallel = Engine::parallel().protect(&mechanism, &town.dataset, 7);
//! let sequential = Engine::sequential().protect(&mechanism, &town.dataset, 7);
//! assert_eq!(parallel, sequential);
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use mobipriv_model::{Dataset, Trace, UserId};

use crate::Mechanism;

/// A cooperative cancellation token for [`Engine::try_protect`].
///
/// Tokens are cheap to clone (an `Arc` at most) and trip in two ways:
/// explicitly via [`CancelToken::cancel`], or implicitly when the
/// wall-clock budget passed to [`CancelToken::with_budget`] runs out.
/// Both are **monotone** — once cancelled, a token stays cancelled —
/// which is what makes the engine's determinism argument work (see
/// [`Engine::try_protect`]).
///
/// [`CancelToken::none`] is the zero-cost "never cancels" token the
/// infallible [`Engine::protect`] path uses.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<CancelInner>>,
}

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    budget: Option<Duration>,
}

impl CancelToken {
    /// A token that never cancels; checks compile down to a branch on
    /// `None`.
    pub fn none() -> Self {
        CancelToken { inner: None }
    }

    /// A token cancelled only by an explicit [`CancelToken::cancel`]
    /// call (no deadline).
    pub fn new() -> Self {
        CancelToken {
            inner: Some(Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                budget: None,
            })),
        }
    }

    /// A token that trips once `budget` of wall time has elapsed from
    /// this call (and can still be cancelled explicitly before that).
    pub fn with_budget(budget: Duration) -> Self {
        CancelToken {
            inner: Some(Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + budget),
                budget: Some(budget),
            })),
        }
    }

    /// Trips the token. Idempotent; a no-op on [`CancelToken::none`].
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Release);
        }
    }

    /// Whether the token has tripped (explicitly or by deadline). A
    /// passed deadline latches the flag so later checks skip the clock
    /// read.
    pub fn is_cancelled(&self) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        if inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        match inner.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                inner.cancelled.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// The wall-clock budget this token was built with, if any — kept
    /// so deadline errors can report the budget that was exhausted.
    pub fn budget(&self) -> Option<Duration> {
        self.inner.as_ref().and_then(|inner| inner.budget)
    }
}

/// The error [`Engine::try_protect`] returns when its [`CancelToken`]
/// trips before the run completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "computation cancelled before completion")
    }
}

impl std::error::Error for Cancelled {}

/// How the engine schedules per-trace kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// One trace at a time on the calling thread.
    Sequential,
    /// Traces fanned out across cores (the default).
    #[default]
    Parallel,
}

/// Deterministic context handed to a
/// [`TraceKernel`](crate::TraceKernel) alongside the trace.
///
/// Everything here is a pure function of the experiment configuration
/// and the trace's position in the input, so kernels that consume it
/// stay schedule-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The experiment-level seed the engine was invoked with.
    pub experiment_seed: u64,
    /// Index of the trace in the input dataset.
    pub trace_index: usize,
}

/// SplitMix64 finalizer: a bijective avalanche on `u64`.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of the RNG stream trace `trace_index` (belonging to `user`)
/// receives under experiment seed `experiment_seed`.
///
/// The guarantee is exactly: same `(seed, user, index)` ⇒ same stream,
/// under any schedule. Re-ordering or filtering the input dataset
/// changes trace indices and therefore the streams — reproducibility
/// is defined over a fixed input, not across dataset edits. The user
/// id is mixed in alongside the index so that streams also differ
/// between users sharing an index across datasets, which keeps
/// accidental stream reuse out of cross-dataset experiments.
pub fn trace_seed(experiment_seed: u64, user: UserId, trace_index: usize) -> u64 {
    let a = mix64(experiment_seed ^ 0x243F_6A88_85A3_08D3);
    let b = mix64(a ^ user.get());
    mix64(b ^ trace_index as u64)
}

/// A deterministic 64-bit token for `(experiment_seed, user)` pairs —
/// the engine-schedule-independent source for per-user decisions such
/// as stable pseudonyms. Bijective in `user` for a fixed seed, so
/// distinct users never collide.
pub fn derive_user_token(experiment_seed: u64, user: UserId) -> u64 {
    mix64(mix64(experiment_seed ^ 0x1319_8A2E_0370_7344 ^ 0xA409_3822_299F_31D0) ^ user.get())
}

/// Dataset-level driver for mechanism execution (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Engine {
    mode: ExecutionMode,
    threads: Option<usize>,
}

impl Engine {
    /// An engine that fans per-trace kernels out across cores.
    pub fn parallel() -> Self {
        Engine {
            mode: ExecutionMode::Parallel,
            threads: None,
        }
    }

    /// An engine that runs everything on the calling thread — the
    /// reference schedule parallel output is asserted against.
    pub fn sequential() -> Self {
        Engine {
            mode: ExecutionMode::Sequential,
            threads: None,
        }
    }

    /// Pins the parallel fan-out to exactly `n` worker threads instead
    /// of one per core. Output is unaffected (the determinism guarantee
    /// is schedule-independent); use this to bound resource usage, or
    /// in tests to force real fan-out on single-core machines.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_threads(mut self, n: usize) -> Self {
        assert!(n > 0, "Engine::with_threads: n must be positive");
        self.threads = Some(n);
        self
    }

    /// Alias for [`Engine::with_threads`] under the service/CLI
    /// vocabulary (`repro --threads`, `mobipriv-serve
    /// --engine-threads`): pins the fan-out to `n` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_workers(self, n: usize) -> Self {
        self.with_threads(n)
    }

    /// The pinned worker count, or `None` when the engine uses one
    /// thread per core.
    pub fn workers(&self) -> Option<usize> {
        self.threads
    }

    /// The configured scheduling mode.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Protects `dataset` with `mechanism` under `seed`.
    ///
    /// Per-trace mechanisms run through their kernel with one RNG
    /// stream per trace (see [`trace_seed`]); dataset-level mechanisms
    /// run through [`Mechanism::protect`] with a single stream seeded
    /// from `seed`. Output is identical across [`ExecutionMode`]s.
    ///
    /// When global observability is on (the default; see
    /// [`mobipriv_obs::set_enabled`]), each run records its wall time
    /// into the `mobipriv_engine_protect_seconds{mechanism}` histogram
    /// and the input fix count and throughput into the global registry.
    /// The instrumentation only *reads* the computation — it is a
    /// couple of clock reads and atomic adds around the unchanged
    /// kernel dispatch, so output bytes are identical either way.
    pub fn protect(&self, mechanism: &dyn Mechanism, dataset: &Dataset, seed: u64) -> Dataset {
        self.try_protect(mechanism, dataset, seed, &CancelToken::none())
            .expect("a none token never cancels")
    }

    /// [`Engine::protect`] with cooperative cancellation: the token is
    /// checked between per-trace kernels (and around the dataset-level
    /// fallback), never inside one.
    ///
    /// # Determinism
    ///
    /// A run that returns `Ok` executed **every** kernel: a kernel is
    /// only skipped when the token already reads cancelled, and since
    /// cancellation is monotone the final check then returns `Err`.
    /// Completed outputs are therefore bit-identical to [`Engine::protect`];
    /// cancellation can only replace an output with `Err(Cancelled)`,
    /// never alter it.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token trips before the run completes. The
    /// partially-computed output is discarded.
    pub fn try_protect(
        &self,
        mechanism: &dyn Mechanism,
        dataset: &Dataset,
        seed: u64,
        cancel: &CancelToken,
    ) -> Result<Dataset, Cancelled> {
        if !mobipriv_obs::enabled() {
            return self.protect_inner(mechanism, dataset, seed, cancel);
        }
        let started = std::time::Instant::now();
        let output = self.protect_inner(mechanism, dataset, seed, cancel)?;
        let elapsed = started.elapsed();
        let registry = mobipriv_obs::global();
        registry
            .histogram(
                "mobipriv_engine_protect_seconds",
                &[("mechanism", &mechanism.name())],
                "Wall time of Engine::protect per mechanism",
            )
            .observe_duration(elapsed);
        let fixes = dataset.total_fixes() as u64;
        registry
            .counter(
                "mobipriv_engine_fixes_total",
                &[],
                "Input fixes processed by Engine::protect",
            )
            .add(fixes);
        let seconds = elapsed.as_secs_f64();
        if seconds > 0.0 {
            registry
                .gauge(
                    "mobipriv_engine_fix_per_s",
                    &[],
                    "Fix throughput of the most recent Engine::protect run",
                )
                .set((fixes as f64 / seconds) as i64);
        }
        Ok(output)
    }

    fn protect_inner(
        &self,
        mechanism: &dyn Mechanism,
        dataset: &Dataset,
        seed: u64,
        cancel: &CancelToken,
    ) -> Result<Dataset, Cancelled> {
        if cancel.is_cancelled() {
            return Err(Cancelled);
        }
        match mechanism.as_trace_kernel() {
            Some(kernel) => {
                let run = |(index, trace): (usize, &Trace)| -> Option<Trace> {
                    // A skipped kernel is only observable through the
                    // final cancellation check below turning the whole
                    // run into Err — never through a hole in an Ok
                    // output.
                    if cancel.is_cancelled() {
                        return None;
                    }
                    let ctx = TraceCtx {
                        experiment_seed: seed,
                        trace_index: index,
                    };
                    let mut rng = StdRng::seed_from_u64(trace_seed(seed, trace.user(), index));
                    kernel.protect_trace(trace, &ctx, &mut rng)
                };
                let protected: Vec<Option<Trace>> = match self.mode {
                    ExecutionMode::Sequential => {
                        dataset.traces().iter().enumerate().map(run).collect()
                    }
                    ExecutionMode::Parallel => {
                        let fan_out = || dataset.traces().par_iter().enumerate().map(run).collect();
                        match self.threads {
                            Some(n) => rayon::with_num_threads(n, fan_out),
                            None => fan_out(),
                        }
                    }
                };
                if cancel.is_cancelled() {
                    return Err(Cancelled);
                }
                Ok(protected.into_iter().flatten().collect())
            }
            None => {
                // Dataset-level mechanisms have no per-trace seam to
                // check at; the budget still bounds the *request* via
                // the checks around the call.
                let mut rng = StdRng::seed_from_u64(seed);
                let output = mechanism.protect(dataset, &mut rng);
                if cancel.is_cancelled() {
                    return Err(Cancelled);
                }
                Ok(output)
            }
        }
    }

    /// Protects `dataset` with every mechanism of a heterogeneous sweep,
    /// returning the releases in mechanism order. Each mechanism `i`
    /// runs under `seed + i`, matching the convention the experiment
    /// tables use for their per-row seeds.
    ///
    /// Mechanisms that read the dataset's column cache
    /// ([`Dataset::columns`]) share one build across the whole sweep:
    /// the cache is keyed to the input dataset, and the engine never
    /// mutates the input.
    pub fn sweep(
        &self,
        mechanisms: &[Box<dyn Mechanism>],
        dataset: &Dataset,
        seed: u64,
    ) -> Vec<Dataset> {
        mechanisms
            .iter()
            .enumerate()
            .map(|(i, m)| self.protect(m.as_ref(), dataset, seed + i as u64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GeoInd, Identity, Promesse, Pseudonymize};
    use mobipriv_geo::LatLng;
    use mobipriv_model::{Fix, Timestamp};

    fn wandering_trace(user: u64, n: usize, step_s: i64) -> Trace {
        let fixes = (0..n)
            .map(|i| {
                Fix::new(
                    LatLng::new(45.0 + 1e-4 * i as f64, 5.0 + 2e-5 * (user as f64)).unwrap(),
                    Timestamp::new(i as i64 * step_s),
                )
            })
            .collect();
        Trace::new(UserId::new(user), fixes).unwrap()
    }

    fn dataset() -> Dataset {
        Dataset::from_traces(vec![
            wandering_trace(1, 50, 30),
            wandering_trace(2, 40, 25),
            wandering_trace(1, 30, 20),
            wandering_trace(3, 60, 15),
        ])
    }

    #[test]
    fn trace_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..4u64 {
            for user in 0..16u64 {
                for index in 0..16usize {
                    assert!(
                        seen.insert(trace_seed(seed, UserId::new(user), index)),
                        "collision at ({seed}, {user}, {index})"
                    );
                }
            }
        }
    }

    #[test]
    fn user_tokens_are_injective_per_seed() {
        let mut seen = std::collections::HashSet::new();
        for user in 0..10_000u64 {
            assert!(seen.insert(derive_user_token(99, UserId::new(user))));
        }
    }

    #[test]
    fn parallel_equals_sequential_for_kernels() {
        let d = dataset();
        let mechanisms: Vec<Box<dyn Mechanism>> = vec![
            Box::new(Identity),
            Box::new(Pseudonymize::new()),
            Box::new(Pseudonymize::new().per_trace()),
            Box::new(Promesse::new(60.0).unwrap()),
            Box::new(GeoInd::new(0.05).unwrap()),
        ];
        for m in &mechanisms {
            let par = Engine::parallel().protect(m.as_ref(), &d, 1234);
            let seq = Engine::sequential().protect(m.as_ref(), &d, 1234);
            assert_eq!(par, seq, "schedule-dependent output for {}", m.name());
        }
    }

    #[test]
    fn different_seeds_change_randomized_output() {
        let d = dataset();
        let mech = GeoInd::new(0.05).unwrap();
        let a = Engine::parallel().protect(&mech, &d, 1);
        let b = Engine::parallel().protect(&mech, &d, 2);
        assert_ne!(a, b);
        let c = Engine::parallel().protect(&mech, &d, 1);
        assert_eq!(a, c, "same seed must reproduce");
    }

    #[test]
    fn dataset_level_fallback_is_deterministic() {
        use crate::{MixZoneConfig, MixZones};
        let d = dataset();
        let mech = MixZones::new(MixZoneConfig::default()).unwrap();
        assert!(mech.as_trace_kernel().is_none());
        let a = Engine::parallel().protect(&mech, &d, 5);
        let b = Engine::sequential().protect(&mech, &d, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn engine_preserves_trace_order_and_suppression() {
        // Promesse suppresses stationary traces; surviving traces keep
        // their input order.
        let stationary = Trace::new(
            UserId::new(9),
            (0..10)
                .map(|i| Fix::new(LatLng::new(45.2, 5.2).unwrap(), Timestamp::new(i * 60)))
                .collect(),
        )
        .unwrap();
        let d = Dataset::from_traces(vec![
            wandering_trace(1, 50, 30),
            stationary,
            wandering_trace(2, 50, 30),
        ]);
        let out = Engine::parallel().protect(&Promesse::new(50.0).unwrap(), &d, 0);
        assert_eq!(out.len(), 2);
        assert_eq!(out.traces()[0].user(), UserId::new(1));
        assert_eq!(out.traces()[1].user(), UserId::new(2));
    }

    #[test]
    fn sweep_covers_every_mechanism() {
        let d = dataset();
        let mechanisms: Vec<Box<dyn Mechanism>> =
            vec![Box::new(Identity), Box::new(Promesse::new(60.0).unwrap())];
        let outs = Engine::parallel().sweep(&mechanisms, &d, 10);
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0], d, "identity row unchanged");
    }

    #[test]
    fn cancelled_token_aborts_before_any_work() {
        let d = dataset();
        let token = CancelToken::new();
        token.cancel();
        for engine in [Engine::parallel(), Engine::sequential()] {
            assert_eq!(
                engine.try_protect(&Promesse::new(60.0).unwrap(), &d, 1, &token),
                Err(Cancelled)
            );
            // Dataset-level fallback path.
            use crate::{MixZoneConfig, MixZones};
            let mech = MixZones::new(MixZoneConfig::default()).unwrap();
            assert_eq!(engine.try_protect(&mech, &d, 1, &token), Err(Cancelled));
        }
    }

    #[test]
    fn uncancelled_try_protect_matches_protect_bit_for_bit() {
        let d = dataset();
        let mech = GeoInd::new(0.05).unwrap();
        for engine in [Engine::parallel(), Engine::sequential()] {
            let plain = engine.protect(&mech, &d, 42);
            let manual = engine
                .try_protect(&mech, &d, 42, &CancelToken::new())
                .unwrap();
            let budgeted = engine
                .try_protect(
                    &mech,
                    &d,
                    42,
                    &CancelToken::with_budget(Duration::from_secs(3600)),
                )
                .unwrap();
            assert_eq!(plain, manual);
            assert_eq!(plain, budgeted);
        }
    }

    #[test]
    fn zero_budget_token_trips_immediately() {
        let token = CancelToken::with_budget(Duration::from_millis(0));
        assert!(token.is_cancelled());
        assert_eq!(token.budget(), Some(Duration::from_millis(0)));
        let d = dataset();
        assert_eq!(
            Engine::sequential().try_protect(&Identity, &d, 0, &token),
            Err(Cancelled)
        );
    }

    #[test]
    fn none_token_never_cancels() {
        let token = CancelToken::none();
        token.cancel();
        assert!(!token.is_cancelled());
        assert_eq!(token.budget(), None);
    }

    #[test]
    fn per_user_pseudonyms_are_stable_across_traces() {
        let d = dataset(); // user 1 owns traces 0 and 2
        let out = Engine::parallel().protect(&Pseudonymize::new(), &d, 77);
        assert_eq!(out.traces()[0].user(), out.traces()[2].user());
        assert_ne!(out.traces()[0].user(), out.traces()[1].user());
        assert_ne!(out.traces()[1].user(), out.traces()[3].user());
    }
}
