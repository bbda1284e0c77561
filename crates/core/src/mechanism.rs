use rand::RngCore;

use mobipriv_model::{Dataset, Trace, UserId};

use crate::engine::{derive_user_token, CancelToken, Engine};
use crate::{KDeltaReport, SwapReport};

/// A location-privacy protection mechanism: a transformation from a raw
/// dataset to a publishable one, given as a plan of [`Stage`]s that the
/// [`Engine`] runs.
///
/// The trait is object-safe so experiment harnesses can sweep over
/// heterogeneous mechanism lists (`Vec<Box<dyn Mechanism>>`).
///
/// ```
/// use mobipriv_core::{Identity, Mechanism};
/// use mobipriv_model::Dataset;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let raw = Dataset::new();
/// let out = Identity.protect(&raw, &mut rng);
/// assert_eq!(out, raw);
/// assert!(Identity.stages().is_empty());
/// ```
pub trait Mechanism {
    /// A short machine-friendly name (used in experiment tables).
    fn name(&self) -> String;

    /// The plan: the stages the engine runs in order, each on the
    /// previous stage's output.
    ///
    /// Mechanisms may drop fixes, traces, or relabel users — but they
    /// never invent users that were not present in the input.
    fn stages(&self) -> Vec<Stage<'_>>;

    /// Protects `dataset` on one thread under the run seed
    /// `rng.next_u64()`: the dataset [`Engine::protect`] publishes for
    /// that seed, on any thread count.
    fn protect(&self, dataset: &Dataset, rng: &mut dyn RngCore) -> Dataset {
        let never = CancelToken::none();
        let run = Engine::sequential().run_plan(&self.stages(), dataset, rng.next_u64(), &never);
        run.expect("a none token never cancels").0
    }
}

/// One step of a [`Mechanism`]'s plan.
pub enum Stage<'a> {
    /// Maps every trace on its own, with one RNG stream per trace.
    PerTrace(&'a dyn TraceKernel),
    /// Transforms the whole dataset, with one RNG stream seeded from the
    /// run seed.
    Dataset(&'a dyn DatasetStage),
}

/// A per-trace stage: a pure function from one input trace (plus the
/// run seed and the trace's own RNG stream) to at most one published
/// trace.
///
/// Kernels must not consult any state shared with other traces — that
/// independence is what lets the [`Engine`] run them in parallel while
/// staying bit-identical to sequential execution.
pub trait TraceKernel: Send + Sync {
    /// Protects one trace; `None` suppresses it from the release.
    ///
    /// `rng` is exclusive to this trace: the engine seeds it from the
    /// run seed, the user id and the trace index, so a kernel may draw
    /// freely without perturbing any other trace's stream.
    fn protect_trace(&self, trace: &Trace, seed: u64, rng: &mut dyn RngCore) -> Option<Trace>;
}

/// A dataset stage: a step that needs every trace at once (mix-zones
/// form between users, clusters span traces, the grid is anchored on
/// the whole dataset).
pub trait DatasetStage {
    /// Protects the whole dataset, drawing from `rng`, and reports on
    /// the run.
    fn run(&self, dataset: &Dataset, rng: &mut dyn RngCore) -> (Dataset, Report);
}

/// What a run tells besides its output: the report of the plan's last
/// dataset stage.
#[derive(Debug, Clone, PartialEq)]
pub enum Report {
    /// The stage reports nothing, or the plan has no dataset stage.
    None,
    /// Mix-zone swapping statistics.
    Swap(SwapReport),
    /// (k, δ)-clustering statistics.
    KDelta(KDeltaReport),
}

/// The no-op mechanism: publishes the dataset unchanged (its plan has
/// no stage). The "Raw" row of every comparison table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Identity;

impl Mechanism for Identity {
    fn name(&self) -> String {
        "raw".to_owned()
    }

    fn stages(&self) -> Vec<Stage<'_>> {
        Vec::new()
    }
}

/// Naive de-identification: every trace is republished under a fresh
/// random pseudonym, locations untouched.
///
/// This is the "simple anonymization technique" the paper's abstract
/// warns "might lead to severe privacy threats": it removes the direct
/// identifier but leaves every quasi-identifier (home, work, habits) in
/// place, so a POI-profile linking attack re-identifies users almost
/// perfectly (experiment T3).
///
/// ```
/// use mobipriv_core::{Mechanism, Pseudonymize};
/// use mobipriv_model::Dataset;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let out = Pseudonymize::default().protect(&Dataset::new(), &mut rng);
/// assert!(out.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pseudonymize {
    /// When `true` (default) all traces of one user share one pseudonym
    /// (linkable release); when `false` every trace gets its own
    /// (session-unlinkable release).
    per_user: bool,
}

impl Pseudonymize {
    /// Creates the per-user variant: one stable pseudonym per user.
    pub fn new() -> Self {
        Pseudonymize { per_user: true }
    }

    /// Switches to one fresh pseudonym per trace.
    pub fn per_trace(mut self) -> Self {
        self.per_user = false;
        self
    }
}

impl Default for Pseudonymize {
    fn default() -> Self {
        Pseudonymize::new()
    }
}

impl Mechanism for Pseudonymize {
    fn name(&self) -> String {
        if self.per_user {
            "pseudonyms".to_owned()
        } else {
            "pseudonyms/trace".to_owned()
        }
    }

    fn stages(&self) -> Vec<Stage<'_>> {
        vec![Stage::PerTrace(self)]
    }
}

impl TraceKernel for Pseudonymize {
    /// Per-user mode derives the pseudonym from `(run seed, user)` alone
    /// — a bijection in the user id, so all of a user's traces share one
    /// pseudonym and distinct users never collide, without any
    /// cross-trace coordination. Per-trace mode draws the pseudonym from
    /// the trace's own stream (collisions are a 64-bit birthday event —
    /// negligible, and harmless for the release semantics).
    fn protect_trace(&self, trace: &Trace, seed: u64, rng: &mut dyn RngCore) -> Option<Trace> {
        let pseudonym = if self.per_user {
            derive_user_token(seed, trace.user())
        } else {
            rng.next_u64()
        };
        Some(trace.with_user(UserId::new(pseudonym)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_geo::LatLng;
    use mobipriv_model::{Fix, Timestamp, Trace, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_is_identity() {
        let trace = Trace::new(
            UserId::new(1),
            vec![Fix::new(LatLng::new(45.0, 5.0).unwrap(), Timestamp::new(0))],
        )
        .unwrap();
        let d = Dataset::from_traces(vec![trace]);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(Identity.protect(&d, &mut rng), d);
        assert_eq!(Identity.name(), "raw");
    }

    #[test]
    fn trait_is_object_safe() {
        let mechanisms: Vec<Box<dyn Mechanism>> =
            vec![Box::new(Identity), Box::new(Pseudonymize::default())];
        let mut rng = StdRng::seed_from_u64(0);
        let d = Dataset::new();
        for m in &mechanisms {
            let _ = m.protect(&d, &mut rng);
        }
    }

    fn two_user_dataset() -> Dataset {
        let make = |user: u64, day: i64| {
            Trace::new(
                UserId::new(user),
                vec![
                    Fix::new(
                        LatLng::new(45.0, 5.0).unwrap(),
                        Timestamp::new(day * 86_400),
                    ),
                    Fix::new(
                        LatLng::new(45.01, 5.0).unwrap(),
                        Timestamp::new(day * 86_400 + 100),
                    ),
                ],
            )
            .unwrap()
        };
        Dataset::from_traces(vec![make(1, 0), make(1, 1), make(2, 0)])
    }

    #[test]
    fn pseudonymize_per_user_is_consistent_and_injective() {
        let d = two_user_dataset();
        let mut rng = StdRng::seed_from_u64(1);
        let out = Pseudonymize::new().protect(&d, &mut rng);
        assert_eq!(out.len(), 3);
        // User 1's two traces share a pseudonym; user 2's differs.
        let p0 = out.traces()[0].user();
        let p1 = out.traces()[1].user();
        let p2 = out.traces()[2].user();
        assert_eq!(p0, p1);
        assert_ne!(p0, p2);
        // Positions and times untouched.
        for (a, b) in d.traces().iter().zip(out.traces()) {
            assert_eq!(a.fixes(), b.fixes());
        }
    }

    #[test]
    fn pseudonymize_per_trace_unlinks_sessions() {
        let d = two_user_dataset();
        let mut rng = StdRng::seed_from_u64(2);
        let out = Pseudonymize::new().per_trace().protect(&d, &mut rng);
        let mut pseudonyms: Vec<_> = out.traces().iter().map(|t| t.user()).collect();
        pseudonyms.sort_unstable();
        pseudonyms.dedup();
        assert_eq!(pseudonyms.len(), 3, "every trace gets its own pseudonym");
    }

    #[test]
    fn pseudonymize_is_deterministic_per_seed() {
        let d = two_user_dataset();
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        assert_eq!(
            Pseudonymize::new().protect(&d, &mut r1),
            Pseudonymize::new().protect(&d, &mut r2)
        );
    }

    #[test]
    fn pseudonymize_names() {
        assert_eq!(Pseudonymize::new().name(), "pseudonyms");
        assert_eq!(Pseudonymize::new().per_trace().name(), "pseudonyms/trace");
    }
}
