//! Service-level fault injection: the chaos harness behind
//! `mobipriv-serve --chaos`.
//!
//! PR 8's store-level `FaultInjector` proved the persistence layer
//! against torn writes; this module extends the idea up to the whole
//! request path. With chaos armed, every admitted compute first rolls
//! for three fault kinds:
//!
//! * **latency** — sleep a configured number of milliseconds (stage
//!   latency, exercises deadlines and the breaker's latency exposure);
//! * **error** — return a transient [`ServiceError::Internal`] (feeds
//!   the retry/backoff and breaker paths);
//! * **panic** — `panic!` inside the compute closure (exercises the
//!   single-flight panic containment and permit-drop accounting).
//!
//! Rolls are derived from `(config seed, FNV of the canonical key, a
//! per-injector counter)` through a SplitMix64 finalizer — never from
//! wall-clock randomness — so a soak is replayable in distribution.
//! The injector is **off by default** and carried per
//! [`AppState`](crate::AppState), not process-global: tests spawn many
//! servers per process and only the chaos-armed one must misbehave.
//!
//! What chaos must never violate (the `loadgen --chaos` soak asserts
//! these): no request hangs, no flight stays stuck, every response is
//! either byte-identical to the fault-free answer or a well-formed
//! error status, and the breaker re-closes once faults stop biting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use mobipriv_model::digest::{fnv1a64, mix64};
use mobipriv_obs::metrics::{Counter, Registry};

use crate::ServiceError;

/// Probabilities and parameters for one chaos campaign. Parsed from the
/// `--chaos` flag spec, e.g.
/// `panic=0.05,error=0.05,latency=0.05,latency-ms=20,seed=1` or the
/// `all=0.05` shorthand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Probability an admitted compute panics.
    pub panic_p: f64,
    /// Probability an admitted compute fails with a transient error.
    pub error_p: f64,
    /// Probability an admitted compute is delayed by `latency_ms`.
    pub latency_p: f64,
    /// The injected delay.
    pub latency_ms: u64,
    /// Seed for the deterministic roll stream.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            panic_p: 0.0,
            error_p: 0.0,
            latency_p: 0.0,
            latency_ms: 20,
            seed: 0,
        }
    }
}

impl ChaosConfig {
    /// Parses a `key=value,…` spec. Keys: `panic`, `error`, `latency`
    /// (probabilities in `[0, 1]`), `all` (sets the three at once),
    /// `latency-ms`, `seed`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending token.
    pub fn parse(spec: &str) -> Result<ChaosConfig, String> {
        let mut cfg = ChaosConfig::default();
        for token in spec.split(',').filter(|t| !t.is_empty()) {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("chaos spec token `{token}` is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("chaos probability `{v}` is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("chaos probability `{v}` outside [0, 1]"));
                }
                Ok(p)
            };
            match key {
                "panic" => cfg.panic_p = prob(value)?,
                "error" => cfg.error_p = prob(value)?,
                "latency" => cfg.latency_p = prob(value)?,
                "all" => {
                    let p = prob(value)?;
                    cfg.panic_p = p;
                    cfg.error_p = p;
                    cfg.latency_p = p;
                }
                "latency-ms" => {
                    cfg.latency_ms = value
                        .parse()
                        .map_err(|_| format!("chaos latency-ms `{value}` is not an integer"))?
                }
                "seed" => {
                    cfg.seed = value
                        .parse()
                        .map_err(|_| format!("chaos seed `{value}` is not an integer"))?
                }
                other => return Err(format!("unknown chaos key `{other}`")),
            }
        }
        Ok(cfg)
    }
}

/// The per-server injector. [`ChaosInjector::off`] (the default) makes
/// [`ChaosInjector::inject`] a no-op branch.
pub struct ChaosInjector {
    config: Option<ChaosConfig>,
    rolls: AtomicU64,
    injected_latency: Counter,
    injected_errors: Counter,
    injected_panics: Counter,
}

impl ChaosInjector {
    /// An armed (or disarmed, on `None`) injector.
    pub fn new(config: Option<ChaosConfig>) -> ChaosInjector {
        ChaosInjector {
            config,
            rolls: AtomicU64::new(0),
            injected_latency: Counter::new(),
            injected_errors: Counter::new(),
            injected_panics: Counter::new(),
        }
    }

    /// The disarmed injector.
    pub fn off() -> ChaosInjector {
        ChaosInjector::new(None)
    }

    /// Whether any fault kind has a nonzero probability.
    pub fn armed(&self) -> bool {
        self.config
            .map(|c| c.panic_p > 0.0 || c.error_p > 0.0 || c.latency_p > 0.0)
            .unwrap_or(false)
    }

    /// Exposes `mobipriv_chaos_injections_total{kind=…}` so soaks can
    /// assert faults actually fired (a chaos run that injected nothing
    /// proves nothing).
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter(
            "mobipriv_chaos_injections_total",
            &[("kind", "latency")],
            "Faults injected by the chaos harness, by kind",
            &self.injected_latency,
        );
        registry.register_counter(
            "mobipriv_chaos_injections_total",
            &[("kind", "error")],
            "Faults injected by the chaos harness, by kind",
            &self.injected_errors,
        );
        registry.register_counter(
            "mobipriv_chaos_injections_total",
            &[("kind", "panic")],
            "Faults injected by the chaos harness, by kind",
            &self.injected_panics,
        );
    }

    /// Rolls once for an admitted compute on `key`. Latency applies
    /// first (it can combine with either failure), then a transient
    /// error, then a panic.
    ///
    /// # Errors
    ///
    /// The injected transient fault, as `ServiceError::Internal` —
    /// exactly the class the retry and breaker paths treat as
    /// transient.
    ///
    /// # Panics
    ///
    /// Deliberately, when the panic roll hits: the caller's
    /// single-flight panic containment is part of what chaos tests.
    pub fn inject(&self, key: &str) -> Result<(), ServiceError> {
        let Some(config) = &self.config else {
            return Ok(());
        };
        let n = self.rolls.fetch_add(1, Ordering::Relaxed);
        let base =
            mix64(config.seed ^ fnv1a64(key.as_bytes()) ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if unit(mix64(base ^ 1)) < config.latency_p {
            self.injected_latency.inc();
            std::thread::sleep(Duration::from_millis(config.latency_ms));
        }
        if unit(mix64(base ^ 2)) < config.error_p {
            self.injected_errors.inc();
            return Err(ServiceError::Internal(
                "chaos: injected transient fault".to_owned(),
            ));
        }
        if unit(mix64(base ^ 3)) < config.panic_p {
            self.injected_panics.inc();
            panic!("chaos: injected compute panic");
        }
        Ok(())
    }

    /// Total faults injected so far (all kinds).
    pub fn injected(&self) -> u64 {
        self.injected_latency.get() + self.injected_errors.get() + self.injected_panics.get()
    }
}

/// Maps a mixed word onto `[0, 1)` using its top 53 bits.
fn unit(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_and_shorthand_specs() {
        let cfg =
            ChaosConfig::parse("panic=0.01,error=0.02,latency=0.5,latency-ms=7,seed=9").unwrap();
        assert_eq!(cfg.panic_p, 0.01);
        assert_eq!(cfg.error_p, 0.02);
        assert_eq!(cfg.latency_p, 0.5);
        assert_eq!(cfg.latency_ms, 7);
        assert_eq!(cfg.seed, 9);
        let all = ChaosConfig::parse("all=0.05,seed=2").unwrap();
        assert_eq!(
            (all.panic_p, all.error_p, all.latency_p),
            (0.05, 0.05, 0.05)
        );
        assert!(ChaosConfig::parse("panic=2").is_err());
        assert!(ChaosConfig::parse("bogus=1").is_err());
        assert!(ChaosConfig::parse("panic").is_err());
    }

    #[test]
    fn disarmed_injector_is_a_no_op() {
        let injector = ChaosInjector::off();
        assert!(!injector.armed());
        for _ in 0..100 {
            injector.inject("k").unwrap();
        }
        assert_eq!(injector.injected(), 0);
    }

    #[test]
    fn error_probability_one_always_fails_transiently() {
        let injector = ChaosInjector::new(Some(ChaosConfig {
            error_p: 1.0,
            ..ChaosConfig::default()
        }));
        assert!(injector.armed());
        for _ in 0..10 {
            let err = injector.inject("k").unwrap_err();
            assert!(
                err.is_transient(),
                "injected faults must be retryable: {err}"
            );
        }
        assert_eq!(injector.injected(), 10);
    }

    #[test]
    fn injection_rate_tracks_the_configured_probability() {
        let injector = ChaosInjector::new(Some(ChaosConfig {
            error_p: 0.2,
            seed: 42,
            ..ChaosConfig::default()
        }));
        let failures = (0..2_000)
            .filter(|i| injector.inject(&format!("key-{i}")).is_err())
            .count();
        // 2000 rolls at p=0.2: expect ~400; a [300, 500] band is >6σ.
        assert!(
            (300..=500).contains(&failures),
            "injection rate off: {failures}/2000"
        );
    }

    #[test]
    #[should_panic(expected = "chaos: injected compute panic")]
    fn panic_probability_one_panics() {
        let injector = ChaosInjector::new(Some(ChaosConfig {
            panic_p: 1.0,
            ..ChaosConfig::default()
        }));
        let _ = injector.inject("k");
    }
}
