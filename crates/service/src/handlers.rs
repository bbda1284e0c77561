//! Route dispatch and the endpoint handlers.
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

use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mobipriv_eval::Json;
use mobipriv_model::{
    digest::digest_hex, write_csv, Dataset, DatasetStream, ModelError, WireFormat,
};
use mobipriv_obs::logging::{self, FieldValue};
use mobipriv_obs::metrics::{render_merged, Value};
use mobipriv_obs::trace::{next_trace_id, SpanRecorder};

use crate::cache::{result_key, CacheOutcome, CachedResult};
use crate::compute;
use crate::datasets::Registered;
use crate::http::{
    read_head, stream_body, write_response, BodyFraming, DeadlineReader, NextRequest, RequestHead,
};
use crate::jobs::{JobKind, JobSpec, JobStatus, Submitted};
use crate::registry::{mechanisms_json, resolve_mechanism, Params};
use crate::server::ServerConfig;
use crate::state::AppState;
use crate::ServiceError;

/// Per-read timeout *and* overall deadline while draining unread body
/// after responding: bounds a stalled or trickling client's hold on a
/// worker once its response is on the wire.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// How often a parked keep-alive connection re-checks the shutdown
/// flag (and its idle deadline) while waiting for the next request —
/// bounds how long graceful drain waits on idle connections.
const IDLE_POLL: Duration = Duration::from_millis(200);

/// A response body: built for this request, or shared out of the
/// result cache (hits serve the cached bytes without copying them).
enum Body {
    Owned(Vec<u8>),
    Cached(Arc<CachedResult>),
}

impl Body {
    fn bytes(&self) -> &[u8] {
        match self {
            Body::Owned(bytes) => bytes,
            Body::Cached(result) => &result.body,
        }
    }
}

/// A fully materialized response, written in one shot after the handler
/// finishes (so an error can still replace the whole response).
struct Response {
    status: u16,
    reason: &'static str,
    headers: Vec<(&'static str, String)>,
    body: Body,
}

impl Response {
    fn ok(content_type: &str, body: Vec<u8>) -> Response {
        Response {
            status: 200,
            reason: "OK",
            headers: vec![("content-type", content_type.to_owned())],
            body: Body::Owned(body),
        }
    }

    fn json(status: u16, reason: &'static str, doc: &Json) -> Response {
        let mut body = String::new();
        doc.write(&mut body);
        body.push('\n');
        Response {
            status,
            reason,
            headers: vec![("content-type", "application/json".to_owned())],
            body: Body::Owned(body.into_bytes()),
        }
    }

    fn from_error(error: &ServiceError) -> Response {
        let (status, reason) = error.status();
        let mut headers = vec![("content-type", "text/plain".to_owned())];
        if let ServiceError::MethodNotAllowed(allow) = error {
            headers.push(("allow", (*allow).to_owned()));
        }
        if let ServiceError::Overloaded(retry_after_s) = error {
            headers.push(("retry-after", retry_after_s.to_string()));
        }
        Response {
            status,
            reason,
            headers,
            body: Body::Owned(format!("{error}\n").into_bytes()),
        }
    }

    /// A 200 serving a cached result's bytes and computation headers,
    /// plus the cache-outcome marker.
    fn from_cached(result: Arc<CachedResult>, outcome: CacheOutcome) -> Response {
        let mut headers = vec![("content-type", result.content_type.to_owned())];
        for (name, value) in &result.headers {
            headers.push((name, value.clone()));
        }
        headers.push(("x-mobipriv-cache", outcome.header_value().to_owned()));
        headers.push(("x-mobipriv-key", result_key(&result.canonical)));
        Response {
            status: 200,
            reason: "OK",
            headers,
            body: Body::Cached(result),
        }
    }
}

/// Serves one connection end to end: parse, route, respond — then, on
/// a keep-alive connection, parks for the next request and repeats.
/// All request errors become status-mapped responses (always with
/// `connection: close`, so an error can never desync the stream);
/// I/O failures while responding are dropped with the connection.
///
/// The connection is reused only when all of these hold: the client
/// asked for it ([`RequestHead::keep_alive`]), the response was a
/// success, the declared body was fully consumed (leftover bytes would
/// be parsed as the next head), the per-connection request cap has not
/// been reached, and the server is not draining for shutdown.
pub fn handle_connection(
    stream: TcpStream,
    config: &ServerConfig,
    state: &AppState,
    shutdown: &AtomicBool,
) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".to_owned());
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // Each request (head + body) gets one wall-clock budget: per-read
    // socket timeouts reset on every byte, so without this a trickling
    // client could hold the worker indefinitely.
    let mut reader = DeadlineReader::new(BufReader::new(read_half), config.timeout);
    let mut writer = stream;
    let mut served: usize = 0;
    loop {
        if served == 0 {
            // The acceptor queued this connection because a request is
            // (presumably) already on its way: read it directly under
            // the ordinary request budget, as a fresh connection always
            // did.
            reader.set_deadline(config.timeout);
        } else if reader.wait_for_request(config.idle_timeout, IDLE_POLL, config.timeout, shutdown)
            != NextRequest::Arrived
        {
            // Closed, idle or draining: no response owed, nothing to
            // record.
            break;
        }
        // The request's clock starts at its first byte: time the
        // connection sat parked is not request latency.
        let started = Instant::now();
        // One trace per request, carried through the handler → cache →
        // compute chain; the id always reaches the client via
        // `x-mobipriv-trace`, whether or not the timeline is sampled.
        let rec = SpanRecorder::new(next_trace_id());
        let parse_start = Instant::now();
        let next = read_head(&mut reader);
        rec.record("parse", parse_start);
        let (mut response, keep) = match next {
            Ok(head) => {
                // Clients that announce `Expect: 100-continue` (curl
                // does for any body over 1 KiB) hold the body back
                // until the interim response arrives — without it they
                // stall ~1 s per request, or forever if strict.
                if head
                    .header("expect")
                    .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
                {
                    let _ = writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
                    let _ = writer.flush();
                }
                let framing = head.framing();
                let consumed_before = reader.bytes_read();
                let response = route(&head, &mut reader, config, state, &rec, &peer)
                    .unwrap_or_else(|e| Response::from_error(&e));
                // Reuse demands the stream be positioned exactly at the
                // next request head. A fixed-length body the handler
                // ignored could be drained here, but closing is just as
                // correct and far simpler to reason about; a chunked
                // body's consumption is only known if the handler
                // actually streamed it to the terminator (any 2xx did).
                let consumed = reader.bytes_read() - consumed_before;
                let body_clean = match framing {
                    Ok(BodyFraming::None) => true,
                    Ok(BodyFraming::Length(n)) => consumed >= n,
                    Ok(BodyFraming::Chunked) => consumed > 0 && response.status < 300,
                    Err(_) => false,
                };
                served += 1;
                let keep = head.keep_alive()
                    && response.status < 400
                    && body_clean
                    && served < config.max_requests_per_conn
                    && !shutdown.load(Ordering::SeqCst);
                (response, keep)
            }
            Err(e) => (Response::from_error(&e), false),
        };
        response
            .headers
            .push(("x-mobipriv-trace", rec.id().to_owned()));
        if response.status == 408 {
            state.metrics.client_timeouts_total.inc();
        }
        let write_start = Instant::now();
        let io = write_response(
            &mut writer,
            response.status,
            response.reason,
            &response.headers,
            response.body.bytes(),
            keep,
        );
        rec.record("write", write_start);
        state
            .metrics
            .record_request(response.status, started.elapsed());
        state.metrics.record_spans(&rec);
        state.traces.store(&rec);
        if !keep || io.is_err() {
            break;
        }
    }
    // Half-close, then drain any unread body (bounded by the body limit
    // plus slack, and by an overall wall-clock deadline): dropping the
    // socket with bytes still in the receive buffer makes the kernel
    // send RST, which can discard the response (typically an early
    // 400/413) before the client reads it. The FIN goes out first so a
    // client that waits for the response before closing is never
    // deadlocked against the drain.
    let drain_limit = config.max_body_bytes.saturating_add(1024 * 1024);
    let _ = writer.shutdown(Shutdown::Write);
    let _ = reader
        .get_ref()
        .get_ref()
        .set_read_timeout(Some(DRAIN_TIMEOUT));
    // Drain from the inner reader: the request deadline may already
    // have passed, but the drain carries its own (short) budget.
    crate::http::drain(reader.get_mut(), drain_limit, DRAIN_TIMEOUT);
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
    reader: &mut DeadlineReader<BufReader<TcpStream>>,
    config: &ServerConfig,
    state: &AppState,
    rec: &SpanRecorder,
    peer: &str,
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
        ("POST", "/v1/anonymize") => anonymize(head, reader, config, state, rec, peer),
        ("POST", "/v1/datasets") => register_dataset(head, reader, config, state, rec, peer),
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
    reader: &mut DeadlineReader<BufReader<TcpStream>>,
    config: &ServerConfig,
    rec: &SpanRecorder,
    peer: &str,
) -> Result<(Dataset, u64), ServiceError> {
    let format = body_format(head)?;
    let framing = head.framing()?;
    let parse_start = Instant::now();
    let mut stream = DatasetStream::new(format);
    let received = stream_body(reader, framing, config.max_body_bytes, |chunk| {
        stream
            .push_chunk(chunk)
            .map_err(|e| parse_reject(e, rec, peer))
    })?;
    let dataset = stream.finish().map_err(|e| parse_reject(e, rec, peer))?;
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
    reader: &mut DeadlineReader<BufReader<TcpStream>>,
    config: &ServerConfig,
    state: &AppState,
    rec: &SpanRecorder,
    peer: &str,
) -> Result<Response, ServiceError> {
    let params = Params(&head.query);
    let resolved = resolve_mechanism(params)?;
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
            let (dataset, received) = read_body_dataset(head, reader, config, rec, peer)?;
            // Digest the *canonical* serialization: CSV, NDJSON and
            // chunked uploads of the same data share one cache entry.
            let digest_start = Instant::now();
            let mut canonical = Vec::new();
            write_csv(&dataset, &mut canonical)
                .map_err(|e| ServiceError::Internal(format!("canonicalizing input: {e}")))?;
            let digest = digest_hex(&canonical);
            rec.record("digest", digest_start);
            (Arc::new(dataset), digest, received)
        };

    let key = compute::canonical_key(
        "anonymize",
        &digest,
        &resolved.canonical,
        seed,
        report,
        wire,
    );
    let lookup_start = Instant::now();
    let (result, outcome) = state.results.get_or_compute(&key, || {
        state.guarded_compute(&key, budget, |cancel| {
            compute::anonymize_result(
                &key,
                &dataset,
                resolved.mechanism.as_ref(),
                &resolved.canonical,
                seed,
                report,
                wire,
                &state.engine,
                cancel,
                &|_| {},
                rec,
            )
        })
    })?;
    rec.record("cache_lookup", lookup_start);
    let mut response = Response::from_cached(result, outcome);
    response
        .headers
        .push(("x-mobipriv-body-bytes", received.to_string()));
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
    reader: &mut DeadlineReader<BufReader<TcpStream>>,
    config: &ServerConfig,
    state: &AppState,
    rec: &SpanRecorder,
    peer: &str,
) -> Result<Response, ServiceError> {
    let (dataset, received) = read_body_dataset(head, reader, config, rec, peer)?;
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
    let mut response = Response::json(200, "OK", &doc);
    response
        .headers
        .push(("x-mobipriv-digest", entry.digest.clone()));
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
    Response::json(200, "OK", &Json::Arr(entries))
}

/// `GET /v1/datasets/:digest` — one registered dataset's metadata.
fn dataset_meta(digest: &str, state: &AppState) -> Result<Response, ServiceError> {
    let entry = state
        .datasets
        .get(digest)
        .ok_or_else(|| ServiceError::NotFound(format!("/v1/datasets/{digest}")))?;
    Ok(Response::json(200, "OK", &dataset_json(&entry)))
}

/// `POST /v1/jobs?dataset=…&mechanism=…[&kind=anonymize|evaluate][&seed=…][&report=1]`
///
/// Submits async work against a registered dataset. The job id is the
/// content address of the work — identical submissions coalesce onto
/// one job and one computation. Answers `202 Accepted` while the job
/// is queued or running, `200` when the result is already available.
fn submit_job(head: &RequestHead, state: &AppState) -> Result<Response, ServiceError> {
    let params = Params(&head.query);
    let digest = params
        .get("dataset")
        .ok_or_else(|| ServiceError::BadRequest("missing required parameter `dataset`".into()))?;
    let entry = state.datasets.get(digest).ok_or_else(|| {
        ServiceError::NotFound(format!("/v1/datasets/{digest} (register it first)"))
    })?;
    let kind = match params.get("kind").unwrap_or("anonymize") {
        "anonymize" => JobKind::Anonymize,
        "evaluate" => JobKind::Evaluate,
        other => {
            return Err(ServiceError::BadRequest(format!(
                "invalid value `{other}` for parameter `kind` (expected anonymize|evaluate)"
            )))
        }
    };
    let resolved = resolve_mechanism(params)?; // validates before enqueueing
    let seed: u64 = params.parse_or("seed", 0)?;
    let report = kind == JobKind::Anonymize && wants_report(params);
    let timeout_ms = timeout_ms(params)?;
    // Jobs always materialize the canonical CSV body; a Bin rendering
    // of the same result is a separate one-shot request.
    let canonical = compute::canonical_key(
        kind.name(),
        &entry.digest,
        &resolved.canonical,
        seed,
        report,
        WireFormat::Csv,
    );
    let spec = JobSpec {
        kind,
        dataset: entry,
        query: head.query.clone(),
        mechanism_canonical: resolved.canonical,
        seed,
        report,
        canonical,
        timeout_ms,
    };
    // Warm shortcut: a result that is already cached answers `done`
    // without a queue round trip. When it is *not* cached, tell the
    // board so — a stale `done` record whose body was LRU-evicted must
    // be replaced and recomputed, not coalesced onto.
    let (job, submitted) = if state.results.lookup(&result_key(&spec.canonical)).is_some() {
        state.jobs.insert_done(spec)
    } else {
        state.jobs.submit(spec, /* result_evicted= */ true)?
    };
    let done = job.status() == JobStatus::Done;
    let mut doc = match job.to_json() {
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
        Response::json(200, "OK", &doc)
    } else {
        Response::json(202, "Accepted", &doc)
    })
}

/// `GET /v1/jobs` — every live job record.
fn list_jobs(state: &AppState) -> Response {
    let jobs: Vec<Json> = state.jobs.list().iter().map(|j| j.to_json()).collect();
    Response::json(200, "OK", &Json::Arr(jobs))
}

/// `GET /v1/jobs/:id` — one job's status document.
fn job_status(id: &str, state: &AppState) -> Result<Response, ServiceError> {
    let job = state
        .jobs
        .get(id)
        .ok_or_else(|| ServiceError::NotFound(format!("/v1/jobs/{id}")))?;
    Ok(Response::json(200, "OK", &job.to_json()))
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
            JobStatus::Queued | JobStatus::Running => {
                Ok(Response::json(202, "Accepted", &job.to_json()))
            }
        },
        None => Err(ServiceError::NotFound(format!("/v1/results/{key}"))),
    }
}

/// `GET /metrics` — the Prometheus text exposition of the per-server
/// registry merged with the process-global engine/eval registry. Gauges
/// are refreshed from their owning components at scrape time, so this
/// endpoint and `/v1/stats` always agree.
fn metrics_text(state: &AppState) -> Response {
    state.refresh_gauges();
    let text = render_merged(&[&state.metrics.registry, mobipriv_obs::global()]);
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
    Ok(Response::json(200, "OK", &doc))
}

/// The registry snapshot as a flat JSON object (`name{labels}` keys),
/// embedded in `/v1/stats` so JSON-speaking clients get the full metric
/// set without parsing the Prometheus text format.
fn metrics_json(state: &AppState) -> Json {
    let mut samples = state.metrics.registry.snapshot();
    samples.extend(mobipriv_obs::global().snapshot());
    let members = samples
        .into_iter()
        .map(|sample| {
            let mut key = sample.name;
            if !sample.labels.is_empty() {
                key.push('{');
                for (i, (name, value)) in sample.labels.iter().enumerate() {
                    if i > 0 {
                        key.push(',');
                    }
                    key.push_str(name);
                    key.push('=');
                    key.push_str(value);
                }
                key.push('}');
            }
            let value = match sample.value {
                Value::Counter(v) => Json::UInt(v),
                Value::Gauge(v) if v >= 0 => Json::UInt(v as u64),
                Value::Gauge(v) => Json::Num(v as f64),
                Value::Histogram(h) => Json::Obj(vec![
                    ("count".into(), Json::UInt(h.count)),
                    ("sum_seconds".into(), Json::Num(h.sum_seconds())),
                ]),
            };
            (key, value)
        })
        .collect();
    Json::Obj(members)
}

/// `GET /v1/stats` — registry/cache/job counters, including the
/// single-flight computation counter the stress tests assert on. The
/// historical top-level fields read the same registry handles as
/// `GET /metrics` (one source of truth); the `metrics` member embeds
/// the full snapshot for JSON-speaking clients.
fn stats(state: &AppState) -> Response {
    state.refresh_gauges();
    let (dataset_count, dataset_bytes) = state.datasets.stats();
    let (result_count, result_bytes) = state.results.stats();
    let (hits, misses) = state.results.hit_miss();
    let (queued, running, done, failed) = state.jobs.counts();
    let mut members = vec![
        (
            "computations".into(),
            Json::UInt(state.results.computations()),
        ),
        ("cache_hits".into(), Json::UInt(hits)),
        ("cache_misses".into(), Json::UInt(misses)),
        (
            "datasets".into(),
            Json::Obj(vec![
                ("count".into(), Json::UInt(dataset_count as u64)),
                ("bytes".into(), Json::UInt(dataset_bytes)),
            ]),
        ),
        (
            "results".into(),
            Json::Obj(vec![
                ("count".into(), Json::UInt(result_count as u64)),
                ("bytes".into(), Json::UInt(result_bytes)),
            ]),
        ),
        (
            "jobs".into(),
            Json::Obj(vec![
                ("queued".into(), Json::UInt(queued as u64)),
                ("running".into(), Json::UInt(running as u64)),
                ("done".into(), Json::UInt(done as u64)),
                ("failed".into(), Json::UInt(failed as u64)),
            ]),
        ),
    ];
    if let Some(store) = &state.store {
        let s = store.stats();
        members.push((
            "store".into(),
            Json::Obj(vec![
                ("blobs".into(), Json::UInt(s.blobs)),
                ("blob_bytes".into(), Json::UInt(s.blob_bytes)),
                ("journal_bytes".into(), Json::UInt(s.journal_bytes)),
                ("journal_records".into(), Json::UInt(s.journal_records)),
                ("quarantined".into(), Json::UInt(s.quarantined)),
            ]),
        ));
    }
    members.push(("metrics".into(), metrics_json(state)));
    let doc = Json::Obj(members);
    Response::json(200, "OK", &doc)
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
        ("content-type", "application/json".to_owned()),
        ("x-mobipriv-eval-cells", report.cells.len().to_string()),
        ("x-mobipriv-eval-plan", report.plan.clone()),
    ];
    let body = if timings {
        report.to_json_timed()
    } else {
        report.to_json()
    };
    Ok(Response {
        status: 200,
        reason: "OK",
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
