//! Route dispatch and the endpoint handlers: the single node's request
//! handler (its `Service`) on the connection runtime in `server.rs`.
//!
//! The serving surface has two shapes:
//!
//! * **one-shot** — `POST /v1/anonymize` carries the dataset in the
//!   request body and answers synchronously (rewired through the
//!   result cache, so identical requests coalesce and repeat hits skip
//!   recomputation entirely);
//! * **publish-once/query-many** — `POST /v1/datasets` registers a
//!   dataset under its content digest, `POST /v1/jobs` submits async
//!   work against a digest, `GET /v1/jobs/:id` polls it and
//!   `GET /v1/results/:key` fetches the finished bytes.
//!
//! Every cacheable response carries `x-mobipriv-cache: hit|miss`.

use std::sync::Arc;
use std::time::Instant;

use mobipriv_eval::Json;
use mobipriv_model::{digest::dataset_digest, Dataset, DatasetStream, ModelError, WireFormat};
use mobipriv_obs::logging::{self, FieldValue};
use mobipriv_obs::trace::{next_trace_id, SpanRecorder};

use crate::cache::{result_key, CacheOutcome, CachedResult};
use crate::compute::{Output, Work};
use crate::datasets::Registered;
use crate::http::RequestHead;
use crate::jobs::{JobSpec, JobStatus, Submitted};
use crate::registry::{mechanisms_json, parse_spec, Params};
use crate::server::{Body, RequestBody, Response, Service};
use crate::state::AppState;
use crate::telemetry::stats_json;
use crate::ServiceError;

impl Response {
    /// A 200 serving a cached result's bytes and computation headers,
    /// plus the cache-outcome marker.
    fn from_cached(result: Arc<CachedResult>, outcome: CacheOutcome) -> Response {
        let mut headers = vec![("content-type".into(), result.content_type.to_owned())];
        for (name, value) in &result.headers {
            headers.push(((*name).into(), value.clone()));
        }
        headers.push(("x-mobipriv-cache".into(), outcome.header_value().to_owned()));
        headers.push(("x-mobipriv-key".into(), result_key(&result.canonical)));
        Response {
            status: 200,
            headers,
            body: Body::Cached(result),
        }
    }
}

/// One node request in flight: its clock and its span timeline.
pub(crate) struct Exchange {
    started: Instant,
    rec: SpanRecorder,
}

/// The single node: every request is routed to its handler below, and
/// every response carries the request's `x-mobipriv-trace` id and lands
/// in the request metrics and the trace store.
impl Service for AppState {
    type Request = Exchange;

    fn open(
        &self,
        read_head: impl FnOnce() -> Result<RequestHead, ServiceError>,
    ) -> (Exchange, Result<RequestHead, ServiceError>) {
        // The request's clock starts at its first byte: time the
        // connection sat parked is not request latency.
        let started = Instant::now();
        // One trace per request, carried through the handler → cache →
        // compute chain; the id always reaches the client via
        // `x-mobipriv-trace`, whether or not the timeline is sampled.
        let rec = SpanRecorder::new(next_trace_id());
        let head = rec.time("head", read_head);
        (Exchange { started, rec }, head)
    }

    fn respond(
        &self,
        exchange: &Exchange,
        head: &RequestHead,
        body: &mut RequestBody<'_>,
    ) -> Response {
        route(head, body, self, &exchange.rec).unwrap_or_else(|e| Response::from_error(&e))
    }

    fn close(
        &self,
        exchange: Exchange,
        mut response: Response,
        write: impl FnOnce(&Response) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let Exchange { started, rec } = exchange;
        response
            .headers
            .push(("x-mobipriv-trace".into(), rec.id().to_owned()));
        if response.status == 408 {
            self.metrics.client_timeouts_total.inc();
        }
        let io = rec.time("write", || write(&response));
        self.metrics
            .record_request(response.status, started.elapsed());
        self.metrics.record_spans(&rec);
        self.traces.store(&rec);
        io
    }
}

/// `GET /healthz` — liveness *and* readiness. Always `200` while the
/// process serves (liveness for the smoke scripts' `curl -fsS`); the
/// body distinguishes `ready` from `degraded` (breaker open or accept
/// queue past the watermark — cache hits still serve, cold computes are
/// shed with `503` + `Retry-After`).
fn healthz(state: &AppState) -> Response {
    let body = if state.degraded() {
        "degraded\n"
    } else {
        "ready\n"
    };
    Response::ok("text/plain", body.as_bytes().to_vec())
}

/// The optional `timeout_ms` query parameter: the client's requested
/// compute budget, validated here and clamped to the configured ceiling
/// at use.
fn timeout_ms(params: Params<'_>) -> Result<Option<u64>, ServiceError> {
    match params.get("timeout_ms") {
        None => Ok(None),
        Some(_) => Ok(Some(params.parse_or("timeout_ms", 0)?)),
    }
}

fn route(
    head: &RequestHead,
    body: &mut RequestBody<'_>,
    state: &AppState,
    rec: &SpanRecorder,
) -> Result<Response, ServiceError> {
    match (head.method.as_str(), head.path.as_str()) {
        ("GET", "/healthz") => Ok(healthz(state)),
        ("GET", "/metrics") => Ok(metrics_text(state)),
        ("GET", "/v1/mechanisms") => Ok(Response::ok(
            "application/json",
            mechanisms_json().into_bytes(),
        )),
        ("GET", "/v1/evaluate") => evaluate(head),
        ("GET", "/v1/stats") => Ok(stats(state)),
        ("POST", "/v1/anonymize") => anonymize(head, body, state, rec),
        ("POST", "/v1/datasets") => register_dataset(head, body, state, rec),
        ("GET", "/v1/datasets") => Ok(list_datasets(state)),
        ("POST", "/v1/jobs") => submit_job(head, state),
        ("GET", "/v1/jobs") => Ok(list_jobs(state)),
        ("GET", path) if path.strip_prefix("/v1/datasets/").is_some() => {
            dataset_meta(path.strip_prefix("/v1/datasets/").expect("guarded"), state)
        }
        ("GET", path) if path.strip_prefix("/v1/jobs/").is_some() => {
            job_status(path.strip_prefix("/v1/jobs/").expect("guarded"), state)
        }
        ("GET", path) if path.strip_prefix("/v1/results/").is_some() => {
            fetch_result(path.strip_prefix("/v1/results/").expect("guarded"), state)
        }
        ("GET", path) if path.strip_prefix("/v1/traces/").is_some() => {
            trace_detail(path.strip_prefix("/v1/traces/").expect("guarded"), state)
        }
        (_, "/healthz" | "/metrics" | "/v1/mechanisms" | "/v1/evaluate" | "/v1/stats") => {
            Err(ServiceError::MethodNotAllowed("GET"))
        }
        (_, "/v1/anonymize") => Err(ServiceError::MethodNotAllowed("POST")),
        (_, "/v1/datasets" | "/v1/jobs") => Err(ServiceError::MethodNotAllowed("GET, POST")),
        (_, path) if path.starts_with("/v1/datasets/") || path.starts_with("/v1/jobs/") => {
            Err(ServiceError::MethodNotAllowed("GET"))
        }
        (_, path) if path.starts_with("/v1/results/") || path.starts_with("/v1/traces/") => {
            Err(ServiceError::MethodNotAllowed("GET"))
        }
        (_, path) => Err(ServiceError::NotFound(path.to_owned())),
    }
}

/// Streams and parses a request body into a dataset. Parse rejections
/// (the 400s) are logged as structured warnings carrying the trace id,
/// the byte offset of the offending line or frame and the remote peer —
/// enough to find the bad row in the client's upload without replaying
/// it.
fn read_body_dataset(
    head: &RequestHead,
    body: &mut RequestBody<'_>,
    rec: &SpanRecorder,
) -> Result<(Dataset, u64), ServiceError> {
    let format = body_format(head)?;
    let peer = body.peer();
    let parse_start = Instant::now();
    let mut stream = DatasetStream::new(format);
    let received = body.stream(head, |chunk| {
        stream
            .push_chunk(chunk)
            .map_err(|e| parse_reject(e, rec, &peer))
    })?;
    let dataset = stream.finish().map_err(|e| parse_reject(e, rec, &peer))?;
    rec.record("parse", parse_start);
    Ok((dataset, received))
}

/// Converts a body-parse failure into its `ServiceError` (a 400) while
/// emitting the structured warning operators grep for.
fn parse_reject(error: ModelError, rec: &SpanRecorder, peer: &str) -> ServiceError {
    let offset = match &error {
        ModelError::Parse { offset, .. } | ModelError::BinParse { offset, .. } => *offset as u64,
        _ => 0,
    };
    logging::warn(
        "service::handlers",
        Some(rec.id()),
        "rejecting request body: parse error",
        &[
            ("peer", FieldValue::Str(peer)),
            ("offset", FieldValue::U64(offset)),
            ("error", FieldValue::Str(&error.to_string())),
        ],
    );
    ServiceError::from(error)
}

/// `POST /v1/anonymize?mechanism=…[&seed=…][&dataset=…][&format=…][&report=1]`
///
/// The input is either the request body (CSV, NDJSON or binary `bin`
/// trace rows; fixed-length or chunked) or, with `dataset=<digest>`, a
/// dataset previously registered via `POST /v1/datasets` (no body).
/// `format=bin` also switches the *response* to the compact binary
/// frames (`application/octet-stream`); the text formats answer in
/// canonical CSV as always. Responses are a pure function of `(input
/// content, canonical mechanism parameters, seed, response format)` —
/// which is exactly the result-cache key, so repeated and concurrent
/// identical requests are served from one computation with
/// byte-identical bodies (`x-mobipriv-cache` says which happened).
fn anonymize(
    head: &RequestHead,
    body: &mut RequestBody<'_>,
    state: &AppState,
    rec: &SpanRecorder,
) -> Result<Response, ServiceError> {
    let params = Params(&head.query);
    let mechanism = parse_spec(params)?;
    mechanism.build()?; // validates before the body is read
    let seed: u64 = params.parse_or("seed", 0)?;
    let report = wants_report(params);
    let budget = state.resilience.clamp_budget(timeout_ms(params)?);
    // `format=bin` selects binary for both directions; the text formats
    // all answer in canonical CSV (the historical contract).
    let wire = match body_format(head)? {
        WireFormat::Bin => WireFormat::Bin,
        _ => WireFormat::Csv,
    };

    let (dataset, digest, received): (Arc<Dataset>, String, u64) =
        if let Some(digest) = params.get("dataset") {
            let entry = state.datasets.get(digest).ok_or_else(|| {
                ServiceError::NotFound(format!("/v1/datasets/{digest} (register it first)"))
            })?;
            (Arc::clone(&entry.dataset), entry.digest.clone(), 0)
        } else {
            let (dataset, received) = read_body_dataset(head, body, rec)?;
            // Digest the *canonical* serialization: CSV, NDJSON and
            // chunked uploads of the same data share one cache entry.
            let digest = rec.time("digest", || dataset_digest(&dataset));
            (Arc::new(dataset), digest, received)
        };

    let work = Work {
        digest,
        dataset,
        mechanism,
        seed,
        output: Output::Anonymize { report, wire },
    };
    let (result, outcome) = state.compute(&work, budget, &|_| {}, rec)?;
    let mut response = Response::from_cached(result, outcome);
    response
        .headers
        .push(("x-mobipriv-body-bytes".into(), received.to_string()));
    Ok(response)
}

/// `POST /v1/datasets[?format=csv|ndjson|bin]` — register-once ingestion.
///
/// Parses the body through the streaming reader, stores it under the
/// digest of its canonical CSV form and reports the digest. The digest
/// is format-independent: CSV, NDJSON and Bin uploads of the same data
/// register the same entry. Re-uploads of the same content are
/// idempotent (`registered: "exists"`).
fn register_dataset(
    head: &RequestHead,
    body: &mut RequestBody<'_>,
    state: &AppState,
    rec: &SpanRecorder,
) -> Result<Response, ServiceError> {
    let (dataset, received) = read_body_dataset(head, body, rec)?;
    if dataset.is_empty() {
        return Err(ServiceError::BadRequest(
            "dataset body is empty (nothing to register)".into(),
        ));
    }
    let Some((entry, registered)) = state.datasets.register(dataset) else {
        // A single dataset larger than the whole registry budget.
        return Err(ServiceError::PayloadTooLarge(state.datasets.max_bytes()));
    };
    let doc = Json::Obj(vec![
        ("digest".into(), Json::Str(entry.digest.clone())),
        (
            "registered".into(),
            Json::Str(
                match registered {
                    Registered::New => "new",
                    Registered::Exists => "exists",
                }
                .into(),
            ),
        ),
        ("traces".into(), Json::UInt(entry.traces as u64)),
        ("fixes".into(), Json::UInt(entry.fixes)),
        ("bytes".into(), Json::UInt(entry.bytes)),
        ("received_bytes".into(), Json::UInt(received)),
    ]);
    let mut response = Response::json(200, &doc);
    response
        .headers
        .push(("x-mobipriv-digest".into(), entry.digest.clone()));
    Ok(response)
}

fn dataset_json(entry: &crate::datasets::DatasetEntry) -> Json {
    Json::Obj(vec![
        ("digest".into(), Json::Str(entry.digest.clone())),
        ("traces".into(), Json::UInt(entry.traces as u64)),
        ("fixes".into(), Json::UInt(entry.fixes)),
        ("bytes".into(), Json::UInt(entry.bytes)),
    ])
}

/// `GET /v1/datasets` — the registry listing, most recently used first.
fn list_datasets(state: &AppState) -> Response {
    let entries: Vec<Json> = state
        .datasets
        .list()
        .iter()
        .map(|e| dataset_json(e))
        .collect();
    Response::json(200, &Json::Arr(entries))
}

/// `GET /v1/datasets/:digest` — one registered dataset's metadata.
fn dataset_meta(digest: &str, state: &AppState) -> Result<Response, ServiceError> {
    let entry = state
        .datasets
        .get(digest)
        .ok_or_else(|| ServiceError::NotFound(format!("/v1/datasets/{digest}")))?;
    Ok(Response::json(200, &dataset_json(&entry)))
}

/// `POST /v1/jobs?dataset=…&mechanism=…[&kind=anonymize|evaluate][&seed=…][&report=1]`
///
/// Submits async work against a registered dataset. The job id is the
/// content address of the work — identical submissions coalesce onto
/// one job and one computation. A fresh job answers `202 Accepted`
/// with its document as enqueued; a coalesced or cached submission
/// reports the job's live state: `202` while it is queued or running,
/// `200` when the result is already available.
fn submit_job(head: &RequestHead, state: &AppState) -> Result<Response, ServiceError> {
    let params = Params(&head.query);
    let digest = params
        .get("dataset")
        .ok_or_else(|| ServiceError::BadRequest("missing required parameter `dataset`".into()))?;
    let entry = state.datasets.get(digest).ok_or_else(|| {
        ServiceError::NotFound(format!("/v1/datasets/{digest} (register it first)"))
    })?;
    let output = match params.get("kind").unwrap_or("anonymize") {
        // Jobs always materialize the canonical CSV body; a Bin
        // rendering of the same result is a separate one-shot request.
        "anonymize" => Output::Anonymize {
            report: wants_report(params),
            wire: WireFormat::Csv,
        },
        "evaluate" => Output::Evaluate,
        other => {
            return Err(ServiceError::BadRequest(format!(
                "invalid value `{other}` for parameter `kind` (expected anonymize|evaluate)"
            )))
        }
    };
    let mechanism = parse_spec(params)?;
    mechanism.build()?; // validates before enqueueing
    let work = Work {
        digest: entry.digest.clone(),
        dataset: Arc::clone(&entry.dataset),
        mechanism,
        seed: params.parse_or("seed", 0)?,
        output,
    };
    let spec = JobSpec {
        work,
        timeout_ms: timeout_ms(params)?,
    };
    // Warm shortcut: a result that is already cached answers `done`
    // without a queue round trip; otherwise the board replaces a stale
    // `done` record whose body was LRU-evicted.
    let cached = state.results.lookup(&result_key(&spec.work.canonical()));
    let (job, submitted) = match cached {
        Some(_) => state.jobs.insert_done(spec),
        None => state.jobs.submit(spec)?,
    };
    // A fresh job answers as enqueued: an executor may already have
    // picked it up, but this response reports the submission.
    let (done, doc) = match submitted {
        Submitted::Enqueued => (false, job.queued_json()),
        Submitted::Coalesced | Submitted::Cached => {
            (job.status() == JobStatus::Done, job.to_json())
        }
    };
    let mut doc = match doc {
        Json::Obj(members) => members,
        _ => unreachable!("job status document is an object"),
    };
    doc.push((
        "submitted".into(),
        Json::Str(
            match submitted {
                Submitted::Enqueued => "enqueued",
                Submitted::Coalesced => "coalesced",
                Submitted::Cached => "cached",
            }
            .into(),
        ),
    ));
    let doc = Json::Obj(doc);
    Ok(if done {
        Response::json(200, &doc)
    } else {
        Response::json(202, &doc)
    })
}

/// `GET /v1/jobs` — every live job record.
fn list_jobs(state: &AppState) -> Response {
    let jobs: Vec<Json> = state.jobs.list().iter().map(|j| j.to_json()).collect();
    Response::json(200, &Json::Arr(jobs))
}

/// `GET /v1/jobs/:id` — one job's status document.
fn job_status(id: &str, state: &AppState) -> Result<Response, ServiceError> {
    let job = state
        .jobs
        .get(id)
        .ok_or_else(|| ServiceError::NotFound(format!("/v1/jobs/{id}")))?;
    Ok(Response::json(200, &job.to_json()))
}

/// `GET /v1/results/:key` — the finished bytes for a content address.
///
/// `200` with the body when the result is cached; `202` with the job's
/// status document while the job is still queued/running; `404` for an
/// address nothing is computing; the job's error for a failed job.
fn fetch_result(key: &str, state: &AppState) -> Result<Response, ServiceError> {
    if let Some(result) = state.results.lookup(key) {
        return Ok(Response::from_cached(result, CacheOutcome::Hit));
    }
    match state.jobs.get(key) {
        Some(job) => match job.status() {
            JobStatus::Done => {
                // Done but evicted from the cache since: gone.
                Err(ServiceError::NotFound(format!(
                    "/v1/results/{key} (evicted; resubmit the job)"
                )))
            }
            JobStatus::Failed => Err(ServiceError::Internal(format!(
                "job {key} failed (see /v1/jobs/{key})"
            ))),
            JobStatus::Queued | JobStatus::Running => Ok(Response::json(202, &job.to_json())),
        },
        None => Err(ServiceError::NotFound(format!("/v1/results/{key}"))),
    }
}

/// `GET /metrics` — the Prometheus text exposition of
/// [`AppState::metrics_view`], the registry `/v1/stats` renders too.
fn metrics_text(state: &AppState) -> Response {
    let text = state.metrics_view().render_prometheus();
    Response::ok("text/plain; version=0.0.4", text.into_bytes())
}

/// `GET /v1/traces/:id` — one stored span timeline, as recorded for the
/// trace id a response's `x-mobipriv-trace` header (or a job document's
/// `trace` field) named. Timelines live in a bounded ring buffer, so
/// old ids age out (`404`).
fn trace_detail(id: &str, state: &AppState) -> Result<Response, ServiceError> {
    let stored = state
        .traces
        .get(id)
        .ok_or_else(|| ServiceError::NotFound(format!("/v1/traces/{id}")))?;
    let spans: Vec<Json> = stored
        .spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("stage".into(), Json::Str(s.stage.to_owned())),
                ("start_us".into(), Json::UInt(s.start_us)),
                ("dur_us".into(), Json::UInt(s.dur_us)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("id".into(), Json::Str(stored.id.clone())),
        ("spans".into(), Json::Arr(spans)),
    ]);
    Ok(Response::json(200, &doc))
}

/// `GET /v1/stats` — the registry `GET /metrics` renders, as JSON: the
/// cache, registry, job and store counters as flat fields (including
/// the single-flight computation counter the stress tests assert on),
/// and every series under `"metrics"`.
fn stats(state: &AppState) -> Response {
    Response::json(200, &stats_json(&state.metrics_view()))
}

/// `GET /v1/evaluate[?preset=smoke|full][&scenario=…][&mechanism=…][&seed=…][&timings=1]`
///
/// Runs the evaluation matrix (mechanisms × scenarios × attacks ×
/// utility metrics) on synthetic workloads and returns the
/// schema-versioned JSON [`mobipriv_eval::EvalReport`]. The response is
/// a pure function of the query parameters — the same plan always
/// produces byte-identical JSON, the same contract `mobipriv-eval`
/// honours on the command line. The one opt-out is `timings=1`, which
/// appends each cell's `wall_ms` so callers can see where the time
/// goes; timed bodies are inherently not byte-stable across runs.
///
/// `scenario` and `mechanism` filter the plan to one row/column (ids as
/// listed by `mobipriv-eval --help`); `seed` replaces the plan's seed
/// axis. The unfiltered `full` preset runs for minutes — filter it, or
/// use the CLI for bulk runs.
fn evaluate(head: &RequestHead) -> Result<Response, ServiceError> {
    let params = Params(&head.query);
    let mut plan = match params.get("preset").unwrap_or("smoke") {
        "smoke" => mobipriv_eval::EvalPlan::smoke(),
        "full" => mobipriv_eval::EvalPlan::full(),
        other => {
            return Err(ServiceError::BadRequest(format!(
                "invalid value `{other}` for parameter `preset` (expected smoke|full)"
            )))
        }
    };
    if let Some(name) = params.get("scenario") {
        plan = plan.with_scenario(name).ok_or_else(|| {
            ServiceError::BadRequest(format!(
                "unknown scenario `{name}` for parameter `scenario`"
            ))
        })?;
    }
    if let Some(id) = params.get("mechanism") {
        plan = plan.with_mechanism(id).ok_or_else(|| {
            ServiceError::BadRequest(format!(
                "unknown mechanism `{id}` for parameter `mechanism`"
            ))
        })?;
    }
    if params.get("seed").is_some() {
        plan = plan.with_seed(params.parse_or("seed", 0)?);
    }
    let timings = match params.get("timings") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => {
            return Err(ServiceError::BadRequest(format!(
                "invalid value `{other}` for parameter `timings` (expected 0|1)"
            )))
        }
    };
    let report = mobipriv_eval::evaluate(&plan);
    let headers = vec![
        ("content-type".into(), "application/json".to_owned()),
        (
            "x-mobipriv-eval-cells".into(),
            report.cells.len().to_string(),
        ),
        ("x-mobipriv-eval-plan".into(), report.plan.clone()),
    ];
    let body = if timings {
        report.to_json_timed()
    } else {
        report.to_json()
    };
    Ok(Response {
        status: 200,
        headers,
        body: Body::Owned(body.into_bytes()),
    })
}

pub(crate) fn body_format(head: &RequestHead) -> Result<WireFormat, ServiceError> {
    if let Some(fmt) = Params(&head.query).get("format") {
        return match fmt {
            "csv" => Ok(WireFormat::Csv),
            "ndjson" => Ok(WireFormat::NdJson),
            "bin" => Ok(WireFormat::Bin),
            other => Err(ServiceError::BadRequest(format!(
                "invalid value `{other}` for parameter `format` (expected csv|ndjson|bin)"
            ))),
        };
    }
    match head.header("content-type") {
        Some(ct) if ct.contains("ndjson") || ct.contains("jsonl") => Ok(WireFormat::NdJson),
        Some(ct) if ct.contains("octet-stream") => Ok(WireFormat::Bin),
        _ => Ok(WireFormat::Csv),
    }
}

fn wants_report(params: Params<'_>) -> bool {
    matches!(params.get("report"), Some("1" | "true" | "utility"))
}
