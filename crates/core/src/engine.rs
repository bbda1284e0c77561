//! The deterministic batch engine: the one runner of mechanism plans.
//!
//! Every [`Mechanism`] is a plan of stages (see [`Mechanism::stages`]),
//! and [`Engine::run`] is the one loop that runs them, in order, each
//! on the previous stage's output:
//!
//! * a per-trace stage ([`Stage::PerTrace`]) maps every trace on its
//!   own. Speed smoothing, planar-Laplace perturbation and
//!   pseudonymization are embarrassingly parallel, so the engine fans
//!   traces out across cores — while staying **bit-identical** to
//!   sequential execution;
//! * a dataset stage ([`Stage::Dataset`]) needs every trace at once
//!   (mix-zones, (k, δ)-clustering, the dataset-anchored grid) and runs
//!   once on the calling thread.
//!
//! # Determinism
//!
//! The classic way parallel mechanisms lose reproducibility is a single
//! RNG shared across a nondeterministic thread interleaving. The engine
//! never shares an RNG: each trace of a per-trace stage gets its own
//! stream, seeded from
//!
//! ```text
//! trace_seed = mix(run seed, user id, trace index)
//! ```
//!
//! so the random draws a trace sees depend only on *what* it is and
//! *where it sits in the stage's input*, never on scheduling. A dataset
//! stage gets one stream seeded `StdRng::seed_from_u64(run seed)`.
//! Parallel and sequential runs of the same seed therefore produce
//! equal datasets and reports — a property the workspace's test suite
//! asserts for every mechanism ([`Engine::run`] is compared against
//! [`Engine::sequential`]'s result over the full mechanism matrix).
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

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use mobipriv_model::digest::mix64;
use mobipriv_model::{Dataset, Trace, UserId};

use crate::{Mechanism, Report, Stage};

/// A cooperative cancellation token for [`Engine::run`].
///
/// Tokens are cheap to clone (an `Arc` at most) and trip in two ways:
/// explicitly via [`CancelToken::cancel`], or implicitly when the
/// wall-clock budget passed to [`CancelToken::with_budget`] runs out.
/// Both are **monotone** — once cancelled, a token stays cancelled —
/// which is what makes the engine's determinism argument work (see
/// [`Engine::run`]).
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

/// The error [`Engine::run`] returns when its [`CancelToken`]
/// trips before the run completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "computation cancelled before completion")
    }
}

impl std::error::Error for Cancelled {}

/// The seed of the RNG stream trace `trace_index` (belonging to `user`)
/// receives in a per-trace stage under run seed `experiment_seed`.
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

/// Maps `f` over `items` (with each item's index) on up to `threads`
/// scoped worker threads — `None` means one per core — and returns the
/// results in input order.
///
/// Each worker takes one contiguous chunk of the input, so the output
/// never depends on the thread count; with one thread, or at most one
/// item, everything runs on the calling thread.
///
/// # Panics
///
/// Re-raises a panic of `f` on the calling thread.
pub fn fan_out<T: Sync, R: Send>(
    items: &[T],
    threads: Option<usize>,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let threads = threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
        .clamp(1, items.len().max(1));
    if threads == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(c, part)| {
                scope.spawn(move || {
                    let base = c * chunk;
                    let results = part.iter().enumerate().map(|(i, item)| f(base + i, item));
                    results.collect::<Vec<R>>()
                })
            })
            .collect();
        let joined = workers.into_iter().map(|worker| match worker.join() {
            Ok(results) => results,
            Err(panic) => std::panic::resume_unwind(panic),
        });
        joined.flatten().collect()
    })
}

/// The runner of mechanism plans (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Engine {
    /// Worker threads of the per-trace fan-out; `None` = one per core.
    threads: Option<usize>,
}

impl Engine {
    /// An engine that fans per-trace kernels out across cores.
    pub fn parallel() -> Self {
        Engine { threads: None }
    }

    /// An engine that runs everything on the calling thread — the
    /// reference schedule parallel output is asserted against.
    pub fn sequential() -> Self {
        Engine { threads: Some(1) }
    }

    /// Pins the fan-out to exactly `n` worker threads instead of one
    /// per core (`repro --threads`, `mobipriv-serve --engine-threads`).
    /// Output is unaffected (the determinism guarantee is
    /// schedule-independent); use this to bound resource usage, or in
    /// tests to force real fan-out on single-core machines.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_threads(self, n: usize) -> Self {
        assert!(n > 0, "Engine::with_threads: n must be positive");
        Engine { threads: Some(n) }
    }

    /// Runs `mechanism`'s plan over `dataset` under `seed`, returning
    /// the published dataset and the plan's [`Report`].
    ///
    /// Per-trace stages fan out with one RNG stream per trace (see
    /// [`trace_seed`]); each dataset stage gets one stream seeded
    /// `StdRng::seed_from_u64(seed)`. The result is identical for every
    /// thread count.
    ///
    /// The token is checked between per-trace kernels and between
    /// stages, never inside one, so a deadline can stop a plan after
    /// its first stage.
    ///
    /// Each run records its wall time into the global
    /// `mobipriv_engine_protect_seconds{mechanism}` histogram and its
    /// input fix count into `mobipriv_engine_fixes_total`. The
    /// instrumentation only *reads* the computation — two clock reads
    /// and a few atomic adds around the stage loop — so a run publishes
    /// exactly what the bare stage loop (`run_plan`) publishes.
    ///
    /// # Determinism
    ///
    /// A run that returns `Ok` executed **every** kernel and stage: a
    /// kernel is only skipped when the token already reads cancelled,
    /// and since cancellation is monotone the next check then returns
    /// `Err`. Completed results are therefore bit-identical to an
    /// uncancelled run; cancellation can only replace a result with
    /// `Err(Cancelled)`, never alter it.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token trips before the run completes. The
    /// partially-computed output is discarded.
    pub fn run(
        &self,
        mechanism: &dyn Mechanism,
        dataset: &Dataset,
        seed: u64,
        cancel: &CancelToken,
    ) -> Result<(Dataset, Report), Cancelled> {
        let plan = mechanism.stages();
        let started = Instant::now();
        let output = self.run_plan(&plan, dataset, seed, cancel)?;
        let registry = mobipriv_obs::global();
        registry
            .histogram(
                "mobipriv_engine_protect_seconds",
                &[("mechanism", &mechanism.name())],
                "Wall time of Engine::protect per mechanism",
            )
            .observe_duration(started.elapsed());
        registry
            .counter(
                "mobipriv_engine_fixes_total",
                &[],
                "Input fixes processed by Engine::protect",
            )
            .add(dataset.total_fixes() as u64);
        Ok(output)
    }

    /// [`Engine::run`] without the report.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token trips before the run completes.
    pub fn try_protect(
        &self,
        mechanism: &dyn Mechanism,
        dataset: &Dataset,
        seed: u64,
        cancel: &CancelToken,
    ) -> Result<Dataset, Cancelled> {
        self.run(mechanism, dataset, seed, cancel)
            .map(|(output, _)| output)
    }

    /// [`Engine::try_protect`] with a token that never cancels.
    pub fn protect(&self, mechanism: &dyn Mechanism, dataset: &Dataset, seed: u64) -> Dataset {
        self.try_protect(mechanism, dataset, seed, &CancelToken::none())
            .expect("a none token never cancels")
    }

    /// The stage loop behind [`Engine::run`] and [`Mechanism::protect`].
    pub(crate) fn run_plan(
        &self,
        plan: &[Stage<'_>],
        dataset: &Dataset,
        seed: u64,
        cancel: &CancelToken,
    ) -> Result<(Dataset, Report), Cancelled> {
        let mut current = Cow::Borrowed(dataset);
        let mut report = Report::None;
        for stage in plan {
            if cancel.is_cancelled() {
                return Err(Cancelled);
            }
            let output = match stage {
                Stage::PerTrace(kernel) => {
                    let run = |index: usize, trace: &Trace| -> Option<Trace> {
                        // A skipped kernel is only observable through the
                        // next check turning the whole run into Err —
                        // never through a hole in an Ok output.
                        if cancel.is_cancelled() {
                            return None;
                        }
                        let mut rng = StdRng::seed_from_u64(trace_seed(seed, trace.user(), index));
                        kernel.protect_trace(trace, seed, &mut rng)
                    };
                    let protected = fan_out(current.traces(), self.threads, run);
                    protected.into_iter().flatten().collect()
                }
                Stage::Dataset(stage) => {
                    let (output, stage_report) =
                        stage.run(&current, &mut StdRng::seed_from_u64(seed));
                    report = stage_report;
                    output
                }
            };
            current = Cow::Owned(output);
        }
        if cancel.is_cancelled() {
            return Err(Cancelled);
        }
        Ok((current.into_owned(), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetStage, GeoInd, Identity, Promesse, Pseudonymize, TraceKernel};
    use mobipriv_geo::LatLng;
    use mobipriv_model::{Fix, Timestamp};
    use rand::RngCore;

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
    fn dataset_stage_is_deterministic() {
        use crate::{MixZoneConfig, MixZones};
        let d = dataset();
        let mech = MixZones::new(MixZoneConfig::default()).unwrap();
        assert!(matches!(mech.stages()[..], [Stage::Dataset(_)]));
        let none = CancelToken::none();
        let a = Engine::parallel().run(&mech, &d, 5, &none);
        let b = Engine::sequential().run(&mech, &d, 5, &none);
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
    fn cancelled_token_aborts_before_any_work() {
        let d = dataset();
        let token = CancelToken::new();
        token.cancel();
        for engine in [Engine::parallel(), Engine::sequential()] {
            assert_eq!(
                engine.try_protect(&Promesse::new(60.0).unwrap(), &d, 1, &token),
                Err(Cancelled)
            );
            // A plan of one dataset stage.
            use crate::{MixZoneConfig, MixZones};
            let mech = MixZones::new(MixZoneConfig::default()).unwrap();
            assert_eq!(engine.try_protect(&mech, &d, 1, &token), Err(Cancelled));
        }
    }

    /// A plan whose kernel trips the token, followed by a dataset stage
    /// that must then never run.
    struct CancelsMidPlan(CancelToken);

    impl TraceKernel for CancelsMidPlan {
        fn protect_trace(
            &self,
            trace: &Trace,
            _seed: u64,
            _rng: &mut dyn RngCore,
        ) -> Option<Trace> {
            self.0.cancel();
            Some(trace.clone())
        }
    }

    impl DatasetStage for CancelsMidPlan {
        fn run(&self, _dataset: &Dataset, _rng: &mut dyn RngCore) -> (Dataset, Report) {
            panic!("a stage ran after the token tripped");
        }
    }

    impl Mechanism for CancelsMidPlan {
        fn name(&self) -> String {
            "cancels-mid-plan".to_owned()
        }

        fn stages(&self) -> Vec<Stage<'_>> {
            vec![Stage::PerTrace(self), Stage::Dataset(self)]
        }
    }

    #[test]
    fn cancelling_kernel_stops_the_plan_before_its_next_stage() {
        let d = dataset();
        for threads in [1, 2] {
            let token = CancelToken::new();
            let mechanism = CancelsMidPlan(token.clone());
            let engine = Engine::parallel().with_threads(threads);
            assert_eq!(engine.run(&mechanism, &d, 3, &token), Err(Cancelled));
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
    fn fan_out_keeps_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..1_001).collect();
        let expected: Vec<(usize, u64)> = items.iter().map(|&x| (x as usize, x * 3)).collect();
        // More threads than items included: the split clamps.
        for threads in [None, Some(1), Some(2), Some(7), Some(5_000)] {
            assert_eq!(fan_out(&items, threads, |i, &x| (i, x * 3)), expected);
            assert!(fan_out(&items[..0], threads, |_, &x| x).is_empty());
        }
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
