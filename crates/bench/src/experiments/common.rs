//! Shared plumbing for the experiments: the workload scales and the
//! [`ExperimentCtx`] every experiment runs through.

use mobipriv_core::{CancelToken, Engine, Mechanism, Report};
use mobipriv_model::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How big a workload the experiments run on.
///
/// `Smoke` keeps integration tests fast; `Full` is what the published
/// numbers in `EXPERIMENTS.md` use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Tiny workloads for CI (seconds).
    Smoke,
    /// The EXPERIMENTS.md workloads (a few minutes, release build).
    Full,
}

impl ExperimentScale {
    /// (users, days) for the commuter-town workloads.
    pub fn commuter(self) -> (usize, usize) {
        match self {
            ExperimentScale::Smoke => (6, 2),
            ExperimentScale::Full => (20, 4),
        }
    }

    /// (users, days) for the dense-downtown workloads.
    pub fn downtown(self) -> (usize, usize) {
        match self {
            ExperimentScale::Smoke => (8, 1),
            ExperimentScale::Full => (20, 2),
        }
    }
}

/// The shared execution context of a reproduction run: one workload
/// scale plus one [`Engine`] every experiment routes its mechanism
/// applications through.
///
/// Centralizing execution here keeps the experiments free of
/// hand-rolled protect loops, makes the whole reproduction switchable
/// between parallel and sequential scheduling from one place (see
/// `repro --sequential`), and pins the seed discipline: experiments
/// pass explicit seeds, the engine turns them into RNG streams.
#[derive(Debug, Clone)]
pub struct ExperimentCtx {
    scale: ExperimentScale,
    engine: Engine,
}

impl ExperimentCtx {
    /// A context at `scale` running on the parallel engine (the
    /// default for both the CLI and the test suite — engine output is
    /// schedule-independent, so tests lose nothing by exercising the
    /// parallel path).
    pub fn new(scale: ExperimentScale) -> Self {
        ExperimentCtx {
            scale,
            engine: Engine::parallel(),
        }
    }

    /// A context with an explicit engine (e.g. [`Engine::sequential`]
    /// for scheduling-sensitivity checks or single-core profiling).
    pub fn with_engine(scale: ExperimentScale, engine: Engine) -> Self {
        ExperimentCtx { scale, engine }
    }

    /// The workload scale.
    pub fn scale(&self) -> ExperimentScale {
        self.scale
    }

    /// Applies a mechanism under a fixed seed through the engine (all
    /// experiments are deterministic end to end).
    pub fn protect(&self, mechanism: &dyn Mechanism, dataset: &Dataset, seed: u64) -> Dataset {
        self.run(mechanism, dataset, seed).0
    }

    /// [`ExperimentCtx::protect`] plus the run's [`Report`] (swap or
    /// clustering statistics).
    pub fn run(
        &self,
        mechanism: &dyn Mechanism,
        dataset: &Dataset,
        seed: u64,
    ) -> (Dataset, Report) {
        self.engine
            .run(mechanism, dataset, seed, &CancelToken::none())
            .expect("a none token never cancels")
    }

    /// A seeded RNG for an experiment's own sampling (T2's range
    /// queries, T5's GPS fixes); mechanisms draw from the engine.
    pub fn seeded_rng(&self, seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }
}

/// Fraction of input fixes that survived into the published dataset.
pub fn published_ratio(raw: &Dataset, published: &Dataset) -> f64 {
    if raw.total_fixes() == 0 {
        return 0.0;
    }
    published.total_fixes() as f64 / raw.total_fixes() as f64
}
