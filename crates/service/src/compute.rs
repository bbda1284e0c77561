//! The one computation the service runs: a [`Work`] value is the
//! result cache's key, a job's payload and the computation itself, a
//! pure function of `(dataset, canonical mechanism params, seed,
//! output)`.
//!
//! Both front doors — the synchronous `POST /v1/anonymize` handler and
//! the job executor — describe what they want as a `Work` and hand it
//! to [`AppState::compute`](crate::AppState::compute), which serves it
//! from the single-flight cache or runs [`Work::run`] behind the
//! failure-domain gate. A sync request and a job for the same key
//! therefore share one computation and one cached body.

use std::sync::Arc;
use std::time::Instant;

use mobipriv_core::{CancelToken, Engine, MechanismSpec};
use mobipriv_eval::Json;
use mobipriv_metrics::{coverage, spatial};
use mobipriv_model::{write_bin, write_csv, Dataset, WireFormat};
use mobipriv_obs::trace::SpanRecorder;

use crate::cache::CachedResult;
use crate::ServiceError;

/// Grid-cell size used by the utility report, meters.
pub(crate) const REPORT_CELL_M: f64 = 250.0;

/// The deterministic error a tripped compute budget maps to. Built
/// from the token's budget so every flight follower (which receives a
/// clone) renders the identical message.
fn deadline_exceeded(cancel: &CancelToken) -> ServiceError {
    let budget_ms = cancel
        .budget()
        .map(|b| b.as_millis() as u64)
        .unwrap_or_default();
    ServiceError::DeadlineExceeded(budget_ms)
}

/// What a computation materializes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Output {
    /// The anonymized dataset as canonical CSV (or, for `wire = Bin`,
    /// the length-prefixed Bin frames), with the utility report's
    /// headers when `report` is set.
    Anonymize { report: bool, wire: WireFormat },
    /// The utility report as canonical JSON.
    Evaluate,
}

impl Output {
    /// The `kind=` word: a job's kind and the key's second field.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Output::Anonymize { .. } => "anonymize",
            Output::Evaluate => "evaluate",
        }
    }
}

/// One computation: a mechanism over a dataset under a seed, and what
/// to materialize from it.
#[derive(Debug)]
pub(crate) struct Work {
    /// Content digest of the input's canonical CSV.
    pub(crate) digest: String,
    /// The input, shared with the registry (a job pins it from
    /// submission, so registry eviction never yanks it).
    pub(crate) dataset: Arc<Dataset>,
    /// What runs; built on the computing thread, which keeps `Work`
    /// `Send` without demanding it of `dyn Mechanism`.
    pub(crate) mechanism: MechanismSpec,
    /// Request seed.
    pub(crate) seed: u64,
    /// What the run materializes.
    pub(crate) output: Output,
}

impl Work {
    /// The versioned canonical cache-key string. It is journaled with
    /// every finished result and its FNV-1a is the job id, so its
    /// rendering is a persisted contract (the tests below pin it).
    /// Every field that changes the response bytes is in here; nothing
    /// transport-level (framing, header order) is. The *input* wire
    /// format is deliberately absent — CSV, NDJSON and Bin uploads of
    /// the same data share one digest and one entry — but the *output*
    /// format changes the response bytes, so Bin responses get a
    /// `|wire=bin` suffix (CSV, the historical default, stays
    /// unsuffixed to keep existing keys stable). An evaluation renders
    /// as `report=0`. The `v1|` prefix lets a future revision
    /// invalidate the whole keyspace at once.
    pub(crate) fn canonical(&self) -> String {
        let (report, wire) = match self.output {
            Output::Anonymize { report, wire } => (report, wire),
            Output::Evaluate => (false, WireFormat::Csv),
        };
        let suffix = match wire {
            WireFormat::Bin => "|wire=bin",
            _ => "",
        };
        format!(
            "v1|{}|{}|{}|seed={}|report={}{suffix}",
            self.output.name(),
            self.digest,
            self.mechanism.canonical(),
            self.seed,
            u8::from(report)
        )
    }

    /// Runs the computation and materializes its cacheable response —
    /// the only place the service runs a mechanism. Builds the
    /// mechanism, protects the dataset once, measures distortion and
    /// coverage when the output asks for them, then serializes: the
    /// anonymized dataset plus the computation-describing headers, or
    /// the utility report as canonical JSON (the eval crate's
    /// deterministic writer, so equal keys produce byte-equal
    /// documents). `progress` receives coarse stage fractions in
    /// `[0, 1]`; `spans` collects the `compute`, `report` and
    /// `serialize` stages for the request's (or job's) trace —
    /// observability only, never part of the cached bytes.
    ///
    /// # Errors
    ///
    /// The spec's build error, or [`ServiceError::DeadlineExceeded`]
    /// when `cancel` trips between per-trace kernels or between stages
    /// (nothing is cached; completed outputs stay bit-identical — see
    /// [`mobipriv_core::Engine::run`]).
    pub(crate) fn run(
        &self,
        engine: &Engine,
        cancel: &CancelToken,
        progress: &dyn Fn(f64),
        spans: &SpanRecorder,
    ) -> Result<CachedResult, ServiceError> {
        let mechanism = self.mechanism.build()?;
        progress(0.05);
        let compute_start = Instant::now();
        let output = engine
            .try_protect(mechanism.as_ref(), &self.dataset, self.seed, cancel)
            .map_err(|_| deadline_exceeded(cancel))?;
        spans.record("compute", compute_start);
        progress(0.6);
        let report = match self.output {
            Output::Anonymize { report: false, .. } => None,
            _ => Some(spans.time("report", || {
                // Label-agnostic distortion: mechanisms may relabel
                // users, which would break per-user matching.
                (
                    spatial::dataset_distortion_anonymous(&self.dataset, &output),
                    coverage::coverage(&self.dataset, &output, REPORT_CELL_M),
                )
            })),
        };
        progress(0.9);
        let serialize_start = Instant::now();
        let mechanism_canonical = self.mechanism.canonical();
        let mut headers = vec![
            ("x-mobipriv-mechanism", mechanism_canonical.clone()),
            ("x-mobipriv-seed", self.seed.to_string()),
        ];
        let (content_type, body) = match self.output {
            Output::Anonymize { wire, .. } => {
                headers.extend([
                    ("x-mobipriv-input-traces", self.dataset.len().to_string()),
                    (
                        "x-mobipriv-input-fixes",
                        self.dataset.total_fixes().to_string(),
                    ),
                    ("x-mobipriv-output-traces", output.len().to_string()),
                    ("x-mobipriv-output-fixes", output.total_fixes().to_string()),
                ]);
                if let Some((distortion, cover)) = report {
                    for (name, meters) in [
                        ("x-mobipriv-distortion-mean-m", distortion.mean),
                        ("x-mobipriv-distortion-median-m", distortion.median),
                        ("x-mobipriv-distortion-p95-m", distortion.p95),
                        ("x-mobipriv-distortion-max-m", distortion.max),
                    ] {
                        headers.push((name, format!("{meters:.3}")));
                    }
                    headers.push(("x-mobipriv-coverage-f1", format!("{:.4}", cover.f1)));
                }
                let mut body = Vec::new();
                let (serialized, content_type) = match wire {
                    WireFormat::Bin => (write_bin(&output, &mut body), "application/octet-stream"),
                    _ => (write_csv(&output, &mut body), "text/csv"),
                };
                serialized
                    .map_err(|e| ServiceError::Internal(format!("serializing response: {e}")))?;
                (content_type, body)
            }
            Output::Evaluate => {
                let (distortion, cover) = report.expect("an evaluation measures its output");
                let counts = |d: &Dataset| {
                    Json::Obj(vec![
                        ("traces".into(), Json::UInt(d.len() as u64)),
                        ("fixes".into(), Json::UInt(d.total_fixes() as u64)),
                    ])
                };
                let doc = Json::Obj(vec![
                    ("schema_version".into(), Json::UInt(1)),
                    ("kind".into(), Json::Str("utility_report".into())),
                    ("dataset".into(), Json::Str(self.digest.clone())),
                    ("mechanism".into(), Json::Str(mechanism_canonical)),
                    ("seed".into(), Json::UInt(self.seed)),
                    ("input".into(), counts(&self.dataset)),
                    ("output".into(), counts(&output)),
                    (
                        "distortion".into(),
                        Json::Obj(vec![
                            ("mean_m".into(), Json::Num(distortion.mean)),
                            ("median_m".into(), Json::Num(distortion.median)),
                            ("p95_m".into(), Json::Num(distortion.p95)),
                            ("max_m".into(), Json::Num(distortion.max)),
                        ]),
                    ),
                    (
                        "coverage".into(),
                        Json::Obj(vec![
                            ("precision".into(), Json::Num(cover.precision)),
                            ("recall".into(), Json::Num(cover.recall)),
                            ("f1".into(), Json::Num(cover.f1)),
                            ("total_variation".into(), Json::Num(cover.total_variation)),
                        ]),
                    ),
                ]);
                let mut body = String::new();
                doc.write(&mut body);
                body.push('\n');
                ("application/json", body.into_bytes())
            }
        };
        spans.record("serialize", serialize_start);
        progress(1.0);
        Ok(CachedResult {
            canonical: self.canonical(),
            content_type,
            headers,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{parse_spec, Params, MECHANISMS};

    fn work(digest: &str, mechanism: MechanismSpec, seed: u64, output: Output) -> Work {
        Work {
            digest: digest.into(),
            dataset: Arc::new(Dataset::new()),
            mechanism,
            seed,
            output,
        }
    }

    fn anonymize(report: bool, wire: WireFormat) -> Output {
        Output::Anonymize { report, wire }
    }

    #[test]
    fn cache_keys_separate_every_axis() {
        let m = MechanismSpec::Promesse { alpha_m: 100.0 };
        let csv = anonymize(false, WireFormat::Csv);
        let base = work("d1", m, 42, csv).canonical();
        for other in [
            work("d1", m, 42, Output::Evaluate),
            work("d2", m, 42, csv),
            work("d1", MechanismSpec::Promesse { alpha_m: 200.0 }, 42, csv),
            work("d1", m, 43, csv),
            work("d1", m, 42, anonymize(true, WireFormat::Csv)),
            work("d1", m, 42, anonymize(false, WireFormat::Bin)),
        ] {
            assert_ne!(base, other.canonical());
        }
        assert_eq!(base, work("d1", m, 42, csv).canonical());
        // NDJSON uploads answered in CSV share the CSV keyspace.
        assert_eq!(
            base,
            work("d1", m, 42, anonymize(false, WireFormat::NdJson)).canonical()
        );
    }

    /// The keys are journaled with every result and hashed into the job
    /// ids, so a restarted node finds a previous version's results only
    /// while these strings stay byte-identical.
    #[test]
    fn cache_keys_are_pinned() {
        let mut keys = Vec::new();
        for info in MECHANISMS {
            let query = [("mechanism".to_owned(), info.name.to_owned())];
            let mechanism = parse_spec(Params(&query)).unwrap();
            for report in [false, true] {
                for wire in [WireFormat::Csv, WireFormat::Bin] {
                    keys.push(
                        work("abcdef0123456789", mechanism, 42, anonymize(report, wire))
                            .canonical(),
                    );
                }
            }
            keys.push(work("abcdef0123456789", mechanism, 42, Output::Evaluate).canonical());
        }
        let expected = [
            "v1|anonymize|abcdef0123456789|raw|seed=42|report=0",
            "v1|anonymize|abcdef0123456789|raw|seed=42|report=0|wire=bin",
            "v1|anonymize|abcdef0123456789|raw|seed=42|report=1",
            "v1|anonymize|abcdef0123456789|raw|seed=42|report=1|wire=bin",
            "v1|evaluate|abcdef0123456789|raw|seed=42|report=0",
            "v1|anonymize|abcdef0123456789|pseudonymize per=user|seed=42|report=0",
            "v1|anonymize|abcdef0123456789|pseudonymize per=user|seed=42|report=0|wire=bin",
            "v1|anonymize|abcdef0123456789|pseudonymize per=user|seed=42|report=1",
            "v1|anonymize|abcdef0123456789|pseudonymize per=user|seed=42|report=1|wire=bin",
            "v1|evaluate|abcdef0123456789|pseudonymize per=user|seed=42|report=0",
            "v1|anonymize|abcdef0123456789|promesse alpha=100|seed=42|report=0",
            "v1|anonymize|abcdef0123456789|promesse alpha=100|seed=42|report=0|wire=bin",
            "v1|anonymize|abcdef0123456789|promesse alpha=100|seed=42|report=1",
            "v1|anonymize|abcdef0123456789|promesse alpha=100|seed=42|report=1|wire=bin",
            "v1|evaluate|abcdef0123456789|promesse alpha=100|seed=42|report=0",
            "v1|anonymize|abcdef0123456789|geoind epsilon=0.01 budget=point|seed=42|report=0",
            "v1|anonymize|abcdef0123456789|geoind epsilon=0.01 budget=point|seed=42|report=0|wire=bin",
            "v1|anonymize|abcdef0123456789|geoind epsilon=0.01 budget=point|seed=42|report=1",
            "v1|anonymize|abcdef0123456789|geoind epsilon=0.01 budget=point|seed=42|report=1|wire=bin",
            "v1|evaluate|abcdef0123456789|geoind epsilon=0.01 budget=point|seed=42|report=0",
            "v1|anonymize|abcdef0123456789|grid cell=250 time_round=0|seed=42|report=0",
            "v1|anonymize|abcdef0123456789|grid cell=250 time_round=0|seed=42|report=0|wire=bin",
            "v1|anonymize|abcdef0123456789|grid cell=250 time_round=0|seed=42|report=1",
            "v1|anonymize|abcdef0123456789|grid cell=250 time_round=0|seed=42|report=1|wire=bin",
            "v1|evaluate|abcdef0123456789|grid cell=250 time_round=0|seed=42|report=0",
            "v1|anonymize|abcdef0123456789|mixzones radius=100 window=300|seed=42|report=0",
            "v1|anonymize|abcdef0123456789|mixzones radius=100 window=300|seed=42|report=0|wire=bin",
            "v1|anonymize|abcdef0123456789|mixzones radius=100 window=300|seed=42|report=1",
            "v1|anonymize|abcdef0123456789|mixzones radius=100 window=300|seed=42|report=1|wire=bin",
            "v1|evaluate|abcdef0123456789|mixzones radius=100 window=300|seed=42|report=0",
            "v1|anonymize|abcdef0123456789|kdelta k=2 delta=200|seed=42|report=0",
            "v1|anonymize|abcdef0123456789|kdelta k=2 delta=200|seed=42|report=0|wire=bin",
            "v1|anonymize|abcdef0123456789|kdelta k=2 delta=200|seed=42|report=1",
            "v1|anonymize|abcdef0123456789|kdelta k=2 delta=200|seed=42|report=1|wire=bin",
            "v1|evaluate|abcdef0123456789|kdelta k=2 delta=200|seed=42|report=0",
            "v1|anonymize|abcdef0123456789|pipeline alpha=100 radius=100 window=300|seed=42|report=0",
            "v1|anonymize|abcdef0123456789|pipeline alpha=100 radius=100 window=300|seed=42|report=0|wire=bin",
            "v1|anonymize|abcdef0123456789|pipeline alpha=100 radius=100 window=300|seed=42|report=1",
            "v1|anonymize|abcdef0123456789|pipeline alpha=100 radius=100 window=300|seed=42|report=1|wire=bin",
            "v1|evaluate|abcdef0123456789|pipeline alpha=100 radius=100 window=300|seed=42|report=0",
        ];
        assert_eq!(keys, expected);
    }
}
