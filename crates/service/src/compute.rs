//! The computations the result cache addresses: anonymization and
//! utility evaluation as pure functions of `(dataset, canonical
//! mechanism params, seed)`.
//!
//! Both the synchronous `POST /v1/anonymize` handler and the async job
//! executor funnel through these functions *via the cache*, so the two
//! surfaces coalesce with each other: a sync request and a job for the
//! same key share one computation and one cached body.

use std::time::Instant;

use mobipriv_core::{CancelToken, Engine, Mechanism};
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

/// Versioned canonical cache-key string. Every field that changes the
/// response bytes is in here; nothing transport-level (framing, header
/// order) is. The *input* wire format is deliberately absent — CSV,
/// NDJSON and Bin uploads of the same data share one digest and one
/// entry — but the *output* format changes the response bytes, so Bin
/// responses get a `|wire=bin` suffix (CSV, the historical default,
/// stays unsuffixed to keep existing keys stable). The `v1|` prefix
/// lets a future revision invalidate the whole keyspace at once.
pub(crate) fn canonical_key(
    kind: &str,
    dataset_digest: &str,
    mechanism_canonical: &str,
    seed: u64,
    report: bool,
    wire: WireFormat,
) -> String {
    let suffix = match wire {
        WireFormat::Bin => "|wire=bin",
        _ => "",
    };
    format!(
        "v1|{kind}|{dataset_digest}|{mechanism_canonical}|seed={seed}|report={}{suffix}",
        u8::from(report)
    )
}

/// Runs a mechanism over the dataset and materializes the cacheable
/// response: the anonymized dataset in the requested wire format
/// (canonical CSV, or the length-prefixed Bin frames for
/// `wire = Bin`) plus the computation-describing headers. `progress`
/// receives coarse stage fractions in `[0, 1]` (protect ≈ the work;
/// serialization and metrics the remainder). `spans` collects the
/// `compute`/`serialize`/`report` stage timings for the request's (or
/// job's) trace — observability only, never part of the cached bytes.
/// `cancel` is the request's compute budget: a trip between per-trace
/// kernels or between stages aborts with
/// [`ServiceError::DeadlineExceeded`] and nothing is cached (completed
/// outputs stay bit-identical — see [`mobipriv_core::Engine::run`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn anonymize_result(
    canonical: &str,
    dataset: &Dataset,
    mechanism: &dyn Mechanism,
    mechanism_canonical: &str,
    seed: u64,
    report: bool,
    wire: WireFormat,
    engine: &Engine,
    cancel: &CancelToken,
    progress: &dyn Fn(f64),
    spans: &SpanRecorder,
) -> Result<CachedResult, ServiceError> {
    progress(0.05);
    let compute_start = Instant::now();
    let output = engine
        .try_protect(mechanism, dataset, seed, cancel)
        .map_err(|_| deadline_exceeded(cancel))?;
    spans.record("compute", compute_start);
    progress(0.8);
    let serialize_start = Instant::now();
    let mut body = Vec::new();
    let (serialized, content_type) = match wire {
        WireFormat::Bin => (write_bin(&output, &mut body), "application/octet-stream"),
        _ => (write_csv(&output, &mut body), "text/csv"),
    };
    serialized.map_err(|e| ServiceError::Internal(format!("serializing response: {e}")))?;
    spans.record("serialize", serialize_start);
    progress(0.9);
    let mut headers = vec![
        ("x-mobipriv-mechanism", mechanism_canonical.to_owned()),
        ("x-mobipriv-seed", seed.to_string()),
        ("x-mobipriv-input-traces", dataset.len().to_string()),
        ("x-mobipriv-input-fixes", dataset.total_fixes().to_string()),
        ("x-mobipriv-output-traces", output.len().to_string()),
        ("x-mobipriv-output-fixes", output.total_fixes().to_string()),
    ];
    if report {
        // Label-agnostic distortion: mechanisms may relabel users, which
        // would break per-user matching.
        let report_start = Instant::now();
        let distortion = spatial::dataset_distortion_anonymous(dataset, &output);
        let cover = coverage::coverage(dataset, &output, REPORT_CELL_M);
        spans.record("report", report_start);
        headers.push((
            "x-mobipriv-distortion-mean-m",
            format!("{:.3}", distortion.mean),
        ));
        headers.push((
            "x-mobipriv-distortion-median-m",
            format!("{:.3}", distortion.median),
        ));
        headers.push((
            "x-mobipriv-distortion-p95-m",
            format!("{:.3}", distortion.p95),
        ));
        headers.push((
            "x-mobipriv-distortion-max-m",
            format!("{:.3}", distortion.max),
        ));
        headers.push(("x-mobipriv-coverage-f1", format!("{:.4}", cover.f1)));
    }
    progress(1.0);
    Ok(CachedResult {
        canonical: canonical.to_owned(),
        content_type,
        headers,
        body,
    })
}

/// Runs a mechanism and materializes the utility report — the
/// evaluation job's output — as canonical JSON (the eval crate's
/// deterministic writer, so equal keys produce byte-equal documents).
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_result(
    canonical: &str,
    dataset_digest: &str,
    dataset: &Dataset,
    mechanism: &dyn Mechanism,
    mechanism_canonical: &str,
    seed: u64,
    engine: &Engine,
    cancel: &CancelToken,
    progress: &dyn Fn(f64),
    spans: &SpanRecorder,
) -> Result<CachedResult, ServiceError> {
    progress(0.05);
    let compute_start = Instant::now();
    let output = engine
        .try_protect(mechanism, dataset, seed, cancel)
        .map_err(|_| deadline_exceeded(cancel))?;
    spans.record("compute", compute_start);
    progress(0.6);
    let report_start = Instant::now();
    let distortion = spatial::dataset_distortion_anonymous(dataset, &output);
    let cover = coverage::coverage(dataset, &output, REPORT_CELL_M);
    spans.record("report", report_start);
    progress(0.9);
    let serialize_start = Instant::now();
    let doc = Json::Obj(vec![
        ("schema_version".into(), Json::UInt(1)),
        ("kind".into(), Json::Str("utility_report".into())),
        ("dataset".into(), Json::Str(dataset_digest.to_owned())),
        (
            "mechanism".into(),
            Json::Str(mechanism_canonical.to_owned()),
        ),
        ("seed".into(), Json::UInt(seed)),
        (
            "input".into(),
            Json::Obj(vec![
                ("traces".into(), Json::UInt(dataset.len() as u64)),
                ("fixes".into(), Json::UInt(dataset.total_fixes() as u64)),
            ]),
        ),
        (
            "output".into(),
            Json::Obj(vec![
                ("traces".into(), Json::UInt(output.len() as u64)),
                ("fixes".into(), Json::UInt(output.total_fixes() as u64)),
            ]),
        ),
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
    spans.record("serialize", serialize_start);
    progress(1.0);
    Ok(CachedResult {
        canonical: canonical.to_owned(),
        content_type: "application/json",
        headers: vec![
            ("x-mobipriv-mechanism", mechanism_canonical.to_owned()),
            ("x-mobipriv-seed", seed.to_string()),
        ],
        body: body.into_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_keys_separate_every_axis() {
        let m = "promesse alpha=100";
        let base = canonical_key("anonymize", "d1", m, 42, false, WireFormat::Csv);
        for other in [
            canonical_key("evaluate", "d1", m, 42, false, WireFormat::Csv),
            canonical_key("anonymize", "d2", m, 42, false, WireFormat::Csv),
            canonical_key(
                "anonymize",
                "d1",
                "promesse alpha=200",
                42,
                false,
                WireFormat::Csv,
            ),
            canonical_key("anonymize", "d1", m, 43, false, WireFormat::Csv),
            canonical_key("anonymize", "d1", m, 42, true, WireFormat::Csv),
            canonical_key("anonymize", "d1", m, 42, false, WireFormat::Bin),
        ] {
            assert_ne!(base, other);
        }
        assert_eq!(
            base,
            canonical_key("anonymize", "d1", m, 42, false, WireFormat::Csv)
        );
        // Pre-Bin keys must be stable: the default wire leaves no trace.
        assert!(!base.contains("wire="));
        // NDJSON uploads answered in CSV share the CSV keyspace.
        assert_eq!(
            base,
            canonical_key("anonymize", "d1", m, 42, false, WireFormat::NdJson)
        );
    }
}
