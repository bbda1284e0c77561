//! The benchmark's own arithmetic: percentiles and the tail rule,
//! open-loop due-time and lag accounting, failure accounting, the
//! `max_rate_ops_s` ladder decision, balanced key selection and
//! per-layer self times. Everything here is free of I/O so the unit
//! tests at the bottom pin it down.

use std::collections::BTreeMap;

/// Nearest-rank position (1-based) of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; `NaN` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples ranked strictly after the nearest-rank position of `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The median (mean of the middle pair for even counts); `NaN` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; `0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Samples a tail percentile must leave beyond itself to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `op_tail_ms` choice: which percentile was reported, its value
/// and how many samples lie beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// `p99`, `p90`, `p75`, or `p50` when no tail qualifies.
    pub label: &'static str,
    /// The percentile's value.
    pub value: f64,
    /// Samples ranked after it.
    pub beyond: usize,
}

/// The highest of p99, p90 and p75 that still has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it; the median when none does
/// (too few ops for any tail to mean anything).
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    for (label, q) in [("p99", 0.99), ("p90", 0.90), ("p75", 0.75)] {
        if beyond(n, q) >= TAIL_MIN_BEYOND {
            return Tail {
                label,
                value: percentile(sorted, q),
                beyond: beyond(n, q),
            };
        }
    }
    Tail {
        label: "p50",
        value: percentile(sorted, 0.5),
        beyond: beyond(n, 0.5),
    }
}

/// When open-loop op `n` is due, in seconds after the clock starts.
pub fn due_s(n: u64, rate: f64) -> f64 {
    n as f64 / rate
}

/// One op's timing, in seconds after its phase's clock started. In a
/// closed loop `due == start`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the op was due.
    pub due: f64,
    /// When the generator actually sent it.
    pub start: f64,
    /// When its last response byte arrived.
    pub end: f64,
}

impl Timing {
    /// Latency as the client sees it: counted from the due time, so a
    /// late generator cannot hide queueing (no coordinated omission).
    pub fn latency(&self) -> f64 {
        self.end - self.due
    }

    /// Generator lateness: how long after its due time the op left.
    pub fn lag(&self) -> f64 {
        (self.start - self.due).max(0.0)
    }
}

/// Lag growth, in seconds, that marks a run whose generator fell
/// behind for good.
pub const LAG_GROWTH_LIMIT_S: f64 = 0.002;

/// Whether generator lag grows over a run: the median lag of the last
/// quarter of ops (by due time) exceeds the first quarter's by more
/// than [`LAG_GROWTH_LIMIT_S`]. Runs of fewer than 8 ops never count
/// as growing.
pub fn lag_growing(timings: &[Timing]) -> bool {
    if timings.len() < 8 {
        return false;
    }
    let mut by_due: Vec<&Timing> = timings.iter().collect();
    by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
    let quarter = by_due.len() / 4;
    let lags = |ts: &[&Timing]| median(&ts.iter().map(|t| t.lag()).collect::<Vec<_>>());
    let first = lags(&by_due[..quarter]);
    let last = lags(&by_due[by_due.len() - quarter..]);
    last - first > LAG_GROWTH_LIMIT_S
}

/// Why an op failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// A non-2xx answer.
    Status(u16),
    /// Connect, write or read error.
    Transport,
    /// The op outlived its deadline (a job that never finished).
    Timeout,
    /// A job that ended `failed`.
    JobFailed,
    /// A 2xx whose bytes or headers differ from the library's output.
    WrongOutput,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Status(s) => write!(f, "status {s}"),
            Failure::Transport => f.write_str("transport error"),
            Failure::Timeout => f.write_str("timeout"),
            Failure::JobFailed => f.write_str("job failed"),
            Failure::WrongOutput => f.write_str("wrong output"),
        }
    }
}

/// A status is a success only when it is 2xx.
pub fn check_status(status: u16) -> Result<(), Failure> {
    if (200..300).contains(&status) {
        Ok(())
    } else {
        Err(Failure::Status(status))
    }
}

/// Attempted and failed ops, with the failures broken down by cause.
/// An op counts once, however many of its checks fail.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Ops started.
    pub attempted: u64,
    /// Ops with at least one failure.
    pub failed: u64,
    /// Failed ops by first cause.
    pub causes: BTreeMap<Failure, u64>,
}

impl Tally {
    /// Counts one op with its outcome.
    pub fn record(&mut self, outcome: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(cause) = outcome {
            self.failed += 1;
            *self.causes.entry(cause).or_default() += 1;
        }
    }

    /// Turns an already counted success into a failure (an output
    /// check that ran after the timed phase).
    pub fn demote(&mut self, cause: Failure) {
        self.failed = (self.failed + 1).min(self.attempted);
        *self.causes.entry(cause).or_default() += 1;
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (cause, n) in &other.causes {
            *self.causes.entry(*cause).or_default() += n;
        }
    }

    /// Failed ÷ attempted (`0` before any attempt).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The offered-rate ladder: `rungs` rates from `start`, each ≈10 %
/// above the last, rounded to whole ops/s.
pub fn ladder(start: f64, rungs: usize) -> Vec<f64> {
    (0..rungs)
        .map(|i| (start * 1.1f64.powi(i as i32)).round())
        .collect()
}

/// p99 latency a ladder rung may not exceed.
pub const RUNG_P99_LIMIT_MS: f64 = 10.0;

/// Share of the offered rate a rung must achieve.
pub const RUNG_ACHIEVED_SHARE: f64 = 0.98;

/// One rung's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    /// Offered rate, ops/s.
    pub offered: f64,
    /// Completed ops per second of the probe's wall time.
    pub achieved: f64,
    /// p99 latency from due time, ms.
    pub p99_ms: f64,
    /// Whether generator lag grew ([`lag_growing`]).
    pub lag_growing: bool,
}

impl Probe {
    /// All three rung conditions hold.
    pub fn passes(&self) -> bool {
        self.p99_ms <= RUNG_P99_LIMIT_MS
            && self.achieved >= RUNG_ACHIEVED_SHARE * self.offered
            && !self.lag_growing
    }
}

/// The ladder search: start at rung `start`; climb while rungs pass,
/// or descend while they fail. Given the rung indices probed so far
/// with their verdicts, returns the next rung to probe, or `None` when
/// the answer is known.
pub fn next_rung(rungs: usize, start: usize, probed: &[(usize, bool)]) -> Option<usize> {
    let Some(&(last, passed)) = probed.last() else {
        return Some(start.min(rungs.saturating_sub(1)));
    };
    let climbing = probed[0].1;
    match (climbing, passed) {
        (true, true) if last + 1 < rungs => Some(last + 1),
        (false, false) if last > 0 => Some(last - 1),
        _ => None,
    }
}

/// The highest offered rate among passing probes; `0` when no rung
/// passed.
pub fn max_rate(probes: &[Probe]) -> f64 {
    probes
        .iter()
        .filter(|p| p.passes())
        .map(|p| p.offered)
        .fold(0.0, f64::max)
}

/// Picks `per_shard` candidates owned by each shard, walking the
/// candidates in order. `owner[i]` is candidate `i`'s shard index.
/// Returns the chosen candidate indices in candidate order, or `None`
/// when the candidates cannot fill every shard.
pub fn balanced_pick(owner: &[usize], shards: usize, per_shard: usize) -> Option<Vec<usize>> {
    let mut taken = vec![0usize; shards];
    let mut chosen = Vec::with_capacity(shards * per_shard);
    for (i, &s) in owner.iter().enumerate() {
        if s < shards && taken[s] < per_shard {
            taken[s] += 1;
            chosen.push(i);
        }
    }
    taken.iter().all(|&n| n == per_shard).then_some(chosen)
}

/// One timed call into a layer during replay. `parent` names the
/// layer whose real execution contains this one (the replay runs
/// nested work as separate calls).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCall {
    /// Layer metric stem, e.g. `core.engine`.
    pub layer: &'static str,
    /// Enclosing layer, if any.
    pub parent: Option<&'static str>,
    /// Wall time of the call, seconds.
    pub dur: f64,
}

/// Self time per layer for one op: a layer's calls minus the calls
/// nested in it. Nested work is replayed as separate calls, so its
/// measured sum can exceed the enclosing call's; then the nested
/// layers are scaled down to fit their parent (whose self time is
/// zero), and the self times still add up to the top-level calls.
pub fn self_times(calls: &[LayerCall]) -> BTreeMap<&'static str, f64> {
    let mut inclusive: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut nested: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut parent_of: BTreeMap<&'static str, &'static str> = BTreeMap::new();
    for call in calls {
        *inclusive.entry(call.layer).or_default() += call.dur;
        if let Some(parent) = call.parent {
            *nested.entry(parent).or_default() += call.dur;
            parent_of.insert(call.layer, parent);
        }
    }
    // How much a layer's measured time shrinks to fit its ancestors.
    fn scale(
        layer: &'static str,
        inclusive: &BTreeMap<&'static str, f64>,
        nested: &BTreeMap<&'static str, f64>,
        parent_of: &BTreeMap<&'static str, &'static str>,
    ) -> f64 {
        let Some(&parent) = parent_of.get(layer) else {
            return 1.0;
        };
        let room = inclusive.get(parent).copied().unwrap_or(0.0);
        let used = nested.get(parent).copied().unwrap_or(0.0);
        let fit = if used > room && used > 0.0 {
            room / used
        } else {
            1.0
        };
        fit * scale(parent, inclusive, nested, parent_of)
    }
    inclusive
        .iter()
        .map(|(&layer, &total)| {
            let inner = nested.get(layer).copied().unwrap_or(0.0);
            let own = (total - inner).max(0.0);
            (layer, own * scale(layer, &inclusive, &nested, &parent_of))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond it.
        let t = tail(&sorted(1000));
        assert_eq!((t.label, t.value, t.beyond), ("p99", 990.0, 10));
        // 999 samples: p99 leaves 9, so p90 (99 beyond) is reported.
        let t = tail(&sorted(999));
        assert_eq!((t.label, t.beyond), ("p90", 99));
        // 100 samples: p90 leaves exactly 10.
        let t = tail(&sorted(100));
        assert_eq!((t.label, t.value, t.beyond), ("p90", 90.0, 10));
        // 40 samples: p75 leaves exactly 10; 39 leaves 9.
        let t = tail(&sorted(40));
        assert_eq!((t.label, t.value, t.beyond), ("p75", 30.0, 10));
        let t = tail(&sorted(39));
        assert_eq!(t.label, "p50");
        assert_eq!(t.value, 20.0);
        assert_eq!(t.beyond, 19);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v = sorted(10);
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn latency_counts_from_due_time() {
        // Due at 1.000 s, sent 4 ms late, answered 2 ms after sending.
        let t = Timing {
            due: due_s(250, 250.0),
            start: 1.004,
            end: 1.006,
        };
        assert!((t.latency() - 0.006).abs() < 1e-12);
        assert!((t.lag() - 0.004).abs() < 1e-12);
        // Sent early (the generator never does, but clocks jitter):
        // lag is clamped, latency still from due.
        let early = Timing {
            due: 2.0,
            start: 1.999,
            end: 2.001,
        };
        assert_eq!(early.lag(), 0.0);
        assert!((early.latency() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn lag_growth_compares_first_and_last_quarter() {
        let steady: Vec<Timing> = (0..40)
            .map(|n| {
                let due = due_s(n, 100.0);
                Timing {
                    due,
                    start: due + 0.0005,
                    end: due + 0.002,
                }
            })
            .collect();
        assert!(!lag_growing(&steady));
        // Each op leaves 0.2 ms later than the one before: 8 ms growth.
        let falling_behind: Vec<Timing> = (0..40)
            .map(|n| {
                let due = due_s(n, 100.0);
                let start = due + 0.0002 * n as f64;
                Timing {
                    due,
                    start,
                    end: start + 0.002,
                }
            })
            .collect();
        assert!(lag_growing(&falling_behind));
        assert!(!lag_growing(&falling_behind[..7]), "too few ops to judge");
    }

    #[test]
    fn failures_count_once_per_op() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(check_status(202));
        t.record(check_status(404));
        t.record(Err(Failure::Transport));
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.failed_frac(), 0.5);
        // A late output check turns a success into a failure.
        t.demote(Failure::WrongOutput);
        assert_eq!((t.attempted, t.failed), (4, 3));
        let mut total = Tally::default();
        total.merge(&t);
        total.record(Err(Failure::JobFailed));
        assert_eq!((total.attempted, total.failed), (5, 4));
        assert_eq!(total.causes[&Failure::Status(404)], 1);
        assert_eq!(Tally::default().failed_frac(), 0.0);
        assert!(check_status(199).is_err() && check_status(300).is_err());
    }

    #[test]
    fn ladder_steps_are_about_ten_percent() {
        let rungs = ladder(250.0, 6);
        assert_eq!(rungs, vec![250.0, 275.0, 303.0, 333.0, 366.0, 403.0]);
        for w in rungs.windows(2) {
            let step = w[1] / w[0];
            assert!((1.09..1.11).contains(&step), "{w:?}");
        }
    }

    #[test]
    fn ladder_decision_needs_all_three_conditions() {
        let ok = Probe {
            offered: 300.0,
            achieved: 296.0,
            p99_ms: 9.5,
            lag_growing: false,
        };
        assert!(ok.passes());
        assert!(!Probe {
            p99_ms: 10.5,
            ..ok.clone()
        }
        .passes());
        assert!(!Probe {
            achieved: 290.0,
            ..ok.clone()
        }
        .passes());
        assert!(!Probe {
            lag_growing: true,
            ..ok.clone()
        }
        .passes());
        let fail = Probe {
            p99_ms: 30.0,
            ..ok.clone()
        };
        let at = |offered: f64, p: &Probe| Probe {
            offered,
            achieved: offered,
            ..p.clone()
        };
        assert_eq!(
            max_rate(&[at(250.0, &ok), at(275.0, &ok), at(303.0, &fail)]),
            275.0
        );
        assert_eq!(max_rate(&[at(250.0, &fail)]), 0.0);
    }

    #[test]
    fn ladder_search_climbs_then_stops_or_descends() {
        assert_eq!(next_rung(10, 3, &[]), Some(3));
        assert_eq!(next_rung(10, 3, &[(3, true)]), Some(4));
        assert_eq!(next_rung(10, 3, &[(3, true), (4, false)]), None);
        assert_eq!(next_rung(5, 3, &[(3, true), (4, true)]), None, "top rung");
        assert_eq!(next_rung(10, 3, &[(3, false)]), Some(2));
        assert_eq!(next_rung(10, 3, &[(3, false), (2, true)]), None);
        assert_eq!(next_rung(10, 1, &[(1, false), (0, false)]), None, "bottom");
    }

    #[test]
    fn balanced_pick_fills_each_shard_in_order() {
        let owner = [0, 0, 0, 1, 0, 1, 1, 0, 1, 1];
        assert_eq!(balanced_pick(&owner, 2, 2), Some(vec![0, 1, 3, 5]));
        assert_eq!(
            balanced_pick(&owner, 2, 4),
            Some(vec![0, 1, 2, 3, 4, 5, 6, 8])
        );
        assert_eq!(
            balanced_pick(&owner, 2, 6),
            None,
            "five candidates per shard"
        );
        assert_eq!(balanced_pick(&[1, 1, 1], 2, 1), None, "shard 0 never owns");
    }

    #[test]
    fn balanced_pick_over_rendezvous_owners() {
        let shards = vec!["127.0.0.1:40001".to_owned(), "127.0.0.1:40002".to_owned()];
        let digests: Vec<String> = (0..64u64).map(|i| format!("{:016x}", i * 7919)).collect();
        let owner: Vec<usize> = digests
            .iter()
            .map(|d| mobipriv_service::rendezvous_owner(&shards, d).unwrap())
            .collect();
        let chosen = balanced_pick(&owner, 2, 4).expect("64 candidates fill 4 + 4");
        let on = |s: usize| chosen.iter().filter(|&&i| owner[i] == s).count();
        assert_eq!((on(0), on(1)), (4, 4));
        // Another address set moves the owners, so the pick changes
        // with the shard addresses, not just the digests.
        let moved = vec!["127.0.0.1:50001".to_owned(), "127.0.0.1:50002".to_owned()];
        let owner2: Vec<usize> = digests
            .iter()
            .map(|d| mobipriv_service::rendezvous_owner(&moved, d).unwrap())
            .collect();
        assert_ne!(owner, owner2);
    }

    #[test]
    fn self_time_subtracts_nested_layers() {
        let calls = [
            LayerCall {
                layer: "core.engine",
                parent: None,
                dur: 0.100,
            },
            LayerCall {
                layer: "core.promesse",
                parent: Some("core.engine"),
                dur: 0.030,
            },
            LayerCall {
                layer: "core.mixzones",
                parent: Some("core.engine"),
                dur: 0.065,
            },
            LayerCall {
                layer: "core.mixzones_detect",
                parent: Some("core.mixzones"),
                dur: 0.040,
            },
            LayerCall {
                layer: "model.serialize",
                parent: None,
                dur: 0.010,
            },
            LayerCall {
                layer: "model.serialize",
                parent: None,
                dur: 0.002,
            },
        ];
        let s = self_times(&calls);
        assert!((s["core.engine"] - 0.005).abs() < 1e-12);
        assert!((s["core.mixzones"] - 0.025).abs() < 1e-12);
        assert!((s["core.mixzones_detect"] - 0.040).abs() < 1e-12);
        assert!((s["model.serialize"] - 0.012).abs() < 1e-12);
        // Replay noise never yields a negative self time.
        let noisy = [
            LayerCall {
                layer: "core.engine",
                parent: None,
                dur: 0.010,
            },
            LayerCall {
                layer: "core.promesse",
                parent: Some("core.engine"),
                dur: 0.011,
            },
        ];
        let s = self_times(&noisy);
        assert_eq!(s["core.engine"], 0.0);
        // The nested replay is scaled to fit its parent's 10 ms.
        assert!((s["core.promesse"] - 0.010).abs() < 1e-12);
        let total: f64 = s.values().sum();
        assert!((total - 0.010).abs() < 1e-12);
    }
}
