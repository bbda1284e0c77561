//! The server's observability surface: one per-server metrics registry
//! (plus handles for the hot-path series), and the `/v1/stats` document
//! rendered from registries alone.
//!
//! Request/cache/job/queue metrics are **per server**, owned by
//! [`AppState`](crate::AppState): the workspace's tests and benches
//! spawn several servers per process and assert exact per-server
//! counts, which a process-global registry would conflate. Engine and
//! eval profiling live in [`mobipriv_obs::global`] instead (the `Copy`
//! engine cannot carry a handle); `GET /metrics` and `GET /v1/stats`
//! render one view that absorbs both (`AppState::metrics_view`).

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use mobipriv_eval::Json;
use mobipriv_obs::metrics::{Counter, Gauge, Histogram, Registry, Sample, Value};
use mobipriv_obs::trace::SpanRecorder;

/// The request stages recorded as spans and as
/// `mobipriv_stage_seconds{stage=…}` histogram series: `head` is the
/// request head, `parse` the body.
pub const STAGES: [&str; 8] = [
    "head",
    "parse",
    "digest",
    "cache_lookup",
    "compute",
    "serialize",
    "report",
    "write",
];

/// Per-server metric handles. Everything here is an atomic behind an
/// `Arc` — updating a metric never takes the registry lock.
pub struct ServiceMetrics {
    /// The server's registry, rendered by `GET /metrics`.
    pub registry: Registry,
    /// Connections shed with `503` before parsing (queue full).
    pub shed_total: Counter,
    /// Connections currently queued between acceptor and workers.
    pub queue_depth: Gauge,
    /// High-water mark of [`ServiceMetrics::queue_depth`].
    pub queue_depth_peak: Gauge,
    /// End-to-end request wall time (request read to response written;
    /// keep-alive idle time between requests is not counted).
    pub request_seconds: Histogram,
    /// Jobs that reached `done`.
    pub jobs_done_total: Counter,
    /// Jobs that reached `failed`.
    pub jobs_failed_total: Counter,
    /// Transient job failures the executor retried (one per re-attempt).
    pub retries_total: Counter,
    /// Computations aborted because their compute budget ran out.
    pub deadline_exceeded_total: Counter,
    /// Connections cut because the client trickled its request slower
    /// than the per-socket timeout (slow-loris defence).
    pub client_timeouts_total: Counter,
    /// Cold computes rejected with `503 Retry-After` while degraded.
    pub overload_shed_total: Counter,
    /// Compute circuit-breaker state: 0 closed, 1 half-open, 2 open
    /// (refreshed at scrape time).
    pub breaker_state: Gauge,
    /// Registered-dataset count (refreshed at scrape time).
    pub datasets_count: Gauge,
    /// Registered-dataset bytes (refreshed at scrape time).
    pub datasets_bytes: Gauge,
    /// Completed result-cache entries (refreshed at scrape time).
    pub results_count: Gauge,
    /// Completed result-cache body bytes (refreshed at scrape time).
    pub results_bytes: Gauge,
    /// Job records by state (refreshed at scrape time).
    pub jobs_state: [(Gauge, &'static str); 4],
    /// Stored span timelines (refreshed at scrape time).
    pub traces_stored: Gauge,
    stage_seconds: HashMap<&'static str, Histogram>,
    requests_by_status: Mutex<HashMap<u16, Counter>>,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        ServiceMetrics::new()
    }
}

impl ServiceMetrics {
    /// Builds the registry and registers every always-present family.
    pub fn new() -> ServiceMetrics {
        let registry = Registry::new();
        let shed_total = registry.counter(
            "mobipriv_http_shed_total",
            &[],
            "Connections answered 503 before parsing because the accept queue was full",
        );
        let queue_depth = registry.gauge(
            "mobipriv_http_queue_depth",
            &[],
            "Connections currently queued between the acceptor and the worker pool",
        );
        let queue_depth_peak = registry.gauge(
            "mobipriv_http_queue_depth_peak",
            &[],
            "High-water mark of the accept queue depth",
        );
        let request_seconds = registry.histogram(
            "mobipriv_http_request_seconds",
            &[],
            "End-to-end request wall time, request read to response written",
        );
        let jobs_done_total = registry.counter(
            "mobipriv_jobs_done_total",
            &[],
            "Jobs that reached the done state",
        );
        let jobs_failed_total = registry.counter(
            "mobipriv_jobs_failed_total",
            &[],
            "Jobs that reached the failed state",
        );
        let retries_total = registry.counter(
            "mobipriv_retries_total",
            &[],
            "Transient job failures retried by the executor",
        );
        let deadline_exceeded_total = registry.counter(
            "mobipriv_deadline_exceeded_total",
            &[],
            "Computations aborted because their compute budget ran out",
        );
        let client_timeouts_total = registry.counter(
            "mobipriv_client_timeouts_total",
            &[],
            "Connections cut because the client trickled slower than the socket timeout",
        );
        let overload_shed_total = registry.counter(
            "mobipriv_overload_shed_total",
            &[],
            "Cold computes rejected with 503 Retry-After while the node was degraded",
        );
        let breaker_state = registry.gauge(
            "mobipriv_breaker_state",
            &[],
            "Compute circuit breaker state (0 closed, 1 half-open, 2 open)",
        );
        let datasets_count =
            registry.gauge("mobipriv_datasets", &[], "Datasets currently registered");
        let datasets_bytes = registry.gauge(
            "mobipriv_dataset_bytes",
            &[],
            "Canonical bytes held by the dataset registry",
        );
        let results_count = registry.gauge(
            "mobipriv_cache_entries",
            &[],
            "Completed entries in the result cache",
        );
        let results_bytes = registry.gauge(
            "mobipriv_cache_bytes",
            &[],
            "Body bytes held by the result cache",
        );
        let jobs_state = ["queued", "running", "done", "failed"].map(|state| {
            (
                registry.gauge(
                    "mobipriv_jobs",
                    &[("state", state)],
                    "Job records by lifecycle state",
                ),
                state,
            )
        });
        let traces_stored = registry.gauge(
            "mobipriv_traces_stored",
            &[],
            "Span timelines held by the trace ring buffer",
        );
        let stage_seconds = STAGES
            .iter()
            .map(|&stage| {
                (
                    stage,
                    registry.histogram(
                        "mobipriv_stage_seconds",
                        &[("stage", stage)],
                        "Wall time per request stage",
                    ),
                )
            })
            .collect();
        ServiceMetrics {
            registry,
            shed_total,
            queue_depth,
            queue_depth_peak,
            request_seconds,
            jobs_done_total,
            jobs_failed_total,
            retries_total,
            deadline_exceeded_total,
            client_timeouts_total,
            overload_shed_total,
            breaker_state,
            datasets_count,
            datasets_bytes,
            results_count,
            results_bytes,
            jobs_state,
            traces_stored,
            stage_seconds,
            requests_by_status: Mutex::new(HashMap::new()),
        }
    }

    /// Counts one finished request under its status code and records
    /// its end-to-end wall time.
    pub fn record_request(&self, status: u16, elapsed: Duration) {
        let mut by_status = self
            .requests_by_status
            .lock()
            .expect("status counters poisoned");
        by_status
            .entry(status)
            .or_insert_with(|| {
                self.registry.counter(
                    "mobipriv_http_requests_total",
                    &[("status", &status.to_string())],
                    "Requests served, by response status",
                )
            })
            .inc();
        drop(by_status);
        self.request_seconds.observe_duration(elapsed);
    }

    /// Folds a finished recorder's spans into the per-stage latency
    /// histograms.
    pub fn record_spans(&self, recorder: &SpanRecorder) {
        for span in recorder.spans() {
            let histogram = match self.stage_seconds.get(span.stage) {
                Some(h) => h.clone(),
                None => self.registry.histogram(
                    "mobipriv_stage_seconds",
                    &[("stage", span.stage)],
                    "Wall time per request stage",
                ),
            };
            histogram.observe(span.dur_us as f64 / 1e6);
        }
    }
}

/// Renders `GET /v1/stats` from the registry `GET /metrics` renders:
/// every series under `"metrics"`, keyed `name{label=value,…}`, in
/// `/metrics` order, and in front of it the flat fields clients have
/// always read (cache, dataset-registry and job numbers, plus the
/// store's when one is attached) — each one of those series, looked up
/// by key. A node passes its [`AppState::metrics_view`]; the router
/// passes the fold of its shards' `/metrics` with its own series, so
/// the cluster sums are the fold's.
///
/// [`AppState::metrics_view`]: crate::AppState::metrics_view
pub(crate) fn stats_json(registry: &Registry) -> Json {
    let metrics: Vec<(String, Json)> = registry.snapshot().into_iter().map(metric_member).collect();
    let series = |key: &str| metrics.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let field = |key: &str| series(key).cloned().unwrap_or(Json::UInt(0));
    let object = |fields: &[(&str, &str)]| {
        let members = fields
            .iter()
            .map(|(name, key)| ((*name).to_owned(), field(key)));
        Json::Obj(members.collect())
    };
    let mut members = vec![
        (
            "computations".to_owned(),
            field("mobipriv_cache_computations_total"),
        ),
        ("cache_hits".to_owned(), field("mobipriv_cache_hits_total")),
        (
            "cache_misses".to_owned(),
            field("mobipriv_cache_misses_total"),
        ),
        (
            "datasets".to_owned(),
            object(&[
                ("count", "mobipriv_datasets"),
                ("bytes", "mobipriv_dataset_bytes"),
            ]),
        ),
        (
            "results".to_owned(),
            object(&[
                ("count", "mobipriv_cache_entries"),
                ("bytes", "mobipriv_cache_bytes"),
            ]),
        ),
        (
            "jobs".to_owned(),
            object(&[
                ("queued", "mobipriv_jobs{state=queued}"),
                ("running", "mobipriv_jobs{state=running}"),
                ("done", "mobipriv_jobs{state=done}"),
                ("failed", "mobipriv_jobs{state=failed}"),
            ]),
        ),
    ];
    if series("mobipriv_store_blobs").is_some() {
        members.push((
            "store".to_owned(),
            object(&[
                ("blobs", "mobipriv_store_blobs"),
                ("blob_bytes", "mobipriv_store_blob_bytes"),
                ("journal_bytes", "mobipriv_store_journal_bytes"),
                ("journal_records", "mobipriv_store_journal_records_total"),
                ("quarantined", "mobipriv_store_quarantined"),
            ]),
        ));
    }
    members.push(("metrics".to_owned(), Json::Obj(metrics)));
    Json::Obj(members)
}

/// One `"metrics"` member of `/v1/stats`: the series key
/// `name{label=value,…}` and its value (a histogram as its count and
/// sum).
fn metric_member(sample: Sample) -> (String, Json) {
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
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::time::{Duration, Instant};

    use mobipriv_core::{Engine, Promesse};
    use mobipriv_obs::scrape;

    use super::*;
    use crate::breaker::ResilienceConfig;
    use crate::state::AppState;

    /// `name{label=value,…}` → value for every series of an exposition
    /// document, a histogram by its count.
    fn exposition_series(text: &str) -> BTreeMap<String, f64> {
        let parsed = scrape::parse(text).expect("own rendering parses");
        let mut out = BTreeMap::new();
        for sample in parsed.samples() {
            let family = match parsed.kind_of(&sample.name) {
                Some("counter" | "gauge") => sample.name.as_str(),
                _ => match sample.name.strip_suffix("_count") {
                    Some(family) if parsed.kind_of(family) == Some("histogram") => family,
                    _ => continue,
                },
            };
            let labels: Vec<String> = sample
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let key = if labels.is_empty() {
                family.to_owned()
            } else {
                format!("{family}{{{}}}", labels.join(","))
            };
            out.insert(key, sample.value);
        }
        out
    }

    /// `/metrics` and `/v1/stats` are two renderings of one registry:
    /// the same series with the same values.
    #[test]
    fn metrics_and_stats_render_one_view() {
        let (state, _jobs) = AppState::new(
            Engine::sequential(),
            1 << 30,
            1 << 30,
            4,
            None,
            ResilienceConfig::default(),
            None,
        )
        .unwrap();
        let dataset = mobipriv_synth::scenarios::serving_day(4, 1).dataset;
        let promesse = Promesse::new(100.0).unwrap();
        Engine::sequential().protect(&promesse, &dataset, 1);
        state.datasets.register(dataset).unwrap();
        state.metrics.record_request(200, Duration::from_millis(3));
        state.metrics.record_request(404, Duration::from_micros(40));
        let rec = SpanRecorder::new("0".into());
        rec.record("parse", Instant::now());
        state.metrics.record_spans(&rec);

        let view = state.metrics_view();
        let exposition = exposition_series(&view.render_prometheus());
        let Some(Json::Obj(members)) = stats_json(&view).get("metrics").cloned() else {
            panic!("no metrics object");
        };
        let stats: BTreeMap<String, f64> = members
            .into_iter()
            .map(|(key, value)| {
                let value = match value {
                    Json::Obj(_) => value.get("count").and_then(Json::as_f64),
                    value => value.as_f64(),
                };
                (key, value.expect("numeric member"))
            })
            .collect();
        assert_eq!(exposition, stats);
        assert_eq!(stats["mobipriv_datasets"], 1.0);
        assert_eq!(stats["mobipriv_http_requests_total{status=404}"], 1.0);
        assert_eq!(stats["mobipriv_stage_seconds{stage=parse}"], 1.0);
        assert!(stats["mobipriv_engine_fixes_total"] > 0.0, "{stats:?}");
    }
}
