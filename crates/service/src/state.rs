//! Shared serving state: the dataset registry, the result cache and
//! the job board, wired together once per [`Server`](crate::Server) —
//! plus, when the server has a `--data-dir`, the persistence layer
//! that makes them survive a restart.

use mobipriv_core::{CancelToken, Engine};
use mobipriv_obs::trace::TraceStore;

use crate::breaker::{Breaker, ResilienceConfig};
use crate::cache::{CachedResult, ResultCache};
use crate::chaos::{ChaosConfig, ChaosInjector};
use crate::datasets::DatasetRegistry;
use crate::jobs::JobBoard;
use crate::store::Store;
use crate::telemetry::ServiceMetrics;
use crate::ServiceError;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;

/// Span timelines kept for `GET /v1/traces/:id`.
const TRACE_CAPACITY: usize = 512;

/// Everything request handlers and job executors share.
pub struct AppState {
    /// Content-addressed dataset store (`POST /v1/datasets`).
    pub datasets: DatasetRegistry,
    /// Single-flight result cache (`GET /v1/results/:key`).
    pub results: ResultCache,
    /// Job records + submission queue (`POST /v1/jobs`).
    pub jobs: JobBoard,
    /// The engine computations run on (copied from the server config;
    /// `Engine` is `Copy`).
    pub engine: Engine,
    /// Per-server metrics (`GET /metrics`, embedded in `/v1/stats`).
    pub metrics: ServiceMetrics,
    /// Recent span timelines (`GET /v1/traces/:id`).
    pub traces: TraceStore,
    /// The persistence layer (`None` = pure in-memory server).
    pub store: Option<Arc<Store>>,
    /// The compute circuit breaker every cold compute is admitted
    /// through (see `AppState::guarded_compute`).
    pub breaker: Breaker,
    /// The fault injector (disarmed unless the server was started with
    /// `--chaos` / `MOBIPRIV_CHAOS`).
    pub chaos: ChaosInjector,
    /// Deadline/retry/breaker tunables (copied from the server config).
    pub resilience: ResilienceConfig,
}

impl AppState {
    /// Builds the state and hands back the job receiver the executor
    /// threads drain. With a `data_dir`, opens (or initializes) the
    /// store there, seeds the registry and cache with what recovery
    /// verified, and only then attaches the store as the write-through
    /// hook — seeding must not re-journal its own replay.
    ///
    /// # Errors
    ///
    /// Store open/initialization failure (the server refuses to start
    /// half-durable). Damaged *content* is not an error: recovery
    /// truncates torn journal tails and quarantines bad blobs.
    pub(crate) fn new(
        engine: Engine,
        dataset_budget_bytes: u64,
        result_budget_bytes: u64,
        job_queue_depth: usize,
        data_dir: Option<&std::path::Path>,
        resilience: ResilienceConfig,
        chaos: Option<ChaosConfig>,
    ) -> std::io::Result<(Arc<AppState>, Receiver<Arc<crate::jobs::Job>>)> {
        let (jobs, receiver) = JobBoard::new(job_queue_depth);
        let metrics = ServiceMetrics::new();
        let results = ResultCache::new(result_budget_bytes);
        results.register_metrics(&metrics.registry);
        let breaker = Breaker::new(
            resilience.breaker_failure_threshold,
            resilience.breaker_open,
        );
        let chaos = ChaosInjector::new(chaos);
        chaos.register_metrics(&metrics.registry);
        let datasets = DatasetRegistry::new(dataset_budget_bytes);
        let traces = TraceStore::new(TRACE_CAPACITY);
        if std::env::var("MOBIPRIV_TRACE").as_deref() == Ok("0") {
            traces.set_enabled(false);
        }
        let store = match data_dir {
            None => None,
            Some(dir) => {
                let (store, recovered) = Store::open(dir)?;
                store.register_metrics(&metrics.registry);
                let dataset_digests: Vec<String> = recovered
                    .datasets
                    .iter()
                    .map(mobipriv_model::digest::dataset_digest)
                    .collect();
                for dataset in recovered.datasets {
                    // Over-budget entries fall out here exactly as a
                    // fresh upload would be rejected or LRU-evicted.
                    let _ = datasets.register(dataset);
                }
                let result_keys: Vec<(String, String)> = recovered
                    .results
                    .iter()
                    .map(|r| {
                        (
                            r.canonical.clone(),
                            mobipriv_model::digest::digest_hex(&r.body),
                        )
                    })
                    .collect();
                for result in recovered.results {
                    results.insert_recovered(result);
                }
                // The store is not attached yet (seeding must not
                // re-journal its own replay), so whatever the budgets
                // rejected or evicted above was never journaled and its
                // blob still holds a recovery-time ref. Reconcile: evict
                // from the store everything recovery returned that the
                // registry/cache did not retain, so the next boot
                // neither resurrects it nor leaks its blob.
                for digest in &dataset_digests {
                    if !datasets.contains(digest) {
                        let _ = store.dataset_evicted(digest);
                    }
                }
                for (canonical, body_digest) in &result_keys {
                    if !results.contains(canonical) {
                        let _ = store.result_evicted_parts(canonical, body_digest);
                    }
                }
                datasets.attach_store(Arc::clone(&store));
                results.attach_store(Arc::clone(&store));
                jobs.attach_store(Arc::clone(&store));
                Some(store)
            }
        };
        Ok((
            Arc::new(AppState {
                datasets,
                results,
                jobs,
                engine,
                metrics,
                traces,
                store,
                breaker,
                chaos,
                resilience,
            }),
            receiver,
        ))
    }

    /// Runs one cold compute behind the full failure-domain gate:
    /// breaker/queue admission, chaos injection, and a fresh
    /// [`CancelToken`] carrying `budget`. Called by the single-flight
    /// leader only (inside [`ResultCache::get_or_compute`]'s closure),
    /// so admission happens exactly when a computation would actually
    /// start — cache hits and flight joins never consult the breaker.
    ///
    /// The breaker permit is resolved from the outcome: success closes
    /// or keeps the breaker closed; transient failures (panics —
    /// observed via the permit's drop guard — injected faults, tripped
    /// deadlines) count against it; permanent client-caused errors are
    /// neutral. Deadline trips also bump
    /// `mobipriv_deadline_exceeded_total` here, on the leader only, so
    /// coalesced followers do not double-count.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] when degraded (cold compute shed),
    /// the chaos injector's transient fault, or whatever `compute`
    /// itself returns.
    pub(crate) fn guarded_compute<F>(
        &self,
        canonical: &str,
        budget: Duration,
        compute: F,
    ) -> Result<CachedResult, ServiceError>
    where
        F: FnOnce(&CancelToken) -> Result<CachedResult, ServiceError>,
    {
        if self.metrics.queue_depth.get() >= self.resilience.degrade_queue_depth {
            self.metrics.overload_shed_total.inc();
            return Err(ServiceError::Overloaded(1));
        }
        let permit = match self.breaker.admit() {
            Ok(permit) => permit,
            Err(e) => {
                self.metrics.overload_shed_total.inc();
                return Err(e);
            }
        };
        // The permit's drop guard records a failure if `compute` (or the
        // injector) panics and unwinds past us — the single-flight layer
        // above catches the panic, the breaker still counts it.
        let cancel = CancelToken::with_budget(budget);
        let result = self.chaos.inject(canonical).and_then(|()| compute(&cancel));
        match &result {
            Ok(_) => permit.succeed(),
            Err(ServiceError::DeadlineExceeded(_)) => {
                self.metrics.deadline_exceeded_total.inc();
                permit.fail();
            }
            Err(e) if e.is_transient() => permit.fail(),
            Err(_) => permit.absolve(),
        }
        result
    }

    /// Whether the node is currently shedding cold computes: the
    /// breaker is not closed, or the accept queue is past the
    /// degradation threshold. `/healthz` reports this as `degraded`.
    pub fn degraded(&self) -> bool {
        self.breaker.is_open()
            || self.metrics.queue_depth.get() >= self.resilience.degrade_queue_depth
    }

    /// Refreshes the point-in-time gauges (dataset/result/job/trace
    /// populations, store sizes, breaker state) from their owning
    /// components — called before every registry render so `/metrics`
    /// and `/v1/stats` read one source of truth.
    pub fn refresh_gauges(&self) {
        self.metrics.breaker_state.set(self.breaker.state_code());
        let (dataset_count, dataset_bytes) = self.datasets.stats();
        self.metrics.datasets_count.set(dataset_count as i64);
        self.metrics.datasets_bytes.set(dataset_bytes as i64);
        let (result_count, result_bytes) = self.results.stats();
        self.metrics.results_count.set(result_count as i64);
        self.metrics.results_bytes.set(result_bytes as i64);
        let counts = self.jobs.counts();
        let by_state = [counts.0, counts.1, counts.2, counts.3];
        for ((gauge, _), value) in self.metrics.jobs_state.iter().zip(by_state) {
            gauge.set(value as i64);
        }
        self.metrics.traces_stored.set(self.traces.len() as i64);
        if let Some(store) = &self.store {
            store.refresh_gauges();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedResult;
    use mobipriv_geo::LatLng;
    use mobipriv_model::digest::dataset_digest;
    use mobipriv_model::{Dataset, Fix, Timestamp, Trace, UserId};

    /// What recovery returns but the boot-time budgets reject must be
    /// evicted from the store too — otherwise the rejected entries
    /// resurrect on the next boot and their blobs leak forever.
    #[test]
    fn seeding_rejections_are_reconciled_with_the_store() {
        let dir = std::env::temp_dir().join(format!("mobipriv-reconcile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dataset = Dataset::from_traces(vec![Trace::new(
            UserId::new(1),
            vec![Fix::new(
                LatLng::new(45.76, 4.84).unwrap(),
                Timestamp::new(0),
            )],
        )
        .unwrap()]);
        let digest = dataset_digest(&dataset);
        let result = |canonical: &str, body: &[u8]| CachedResult {
            canonical: canonical.to_owned(),
            content_type: "text/csv",
            headers: vec![("x-mobipriv-seed", "1".to_owned())],
            body: body.to_vec(),
        };
        {
            let (store, _) = Store::open(&dir).unwrap();
            store.put_dataset(&digest, &dataset).unwrap();
            store.put_result(&result("canon|small", b"fits")).unwrap();
            store.put_result(&result("canon|big", &[b'x'; 64])).unwrap();
        }
        // Budgets that reject the dataset (8 bytes) and the big result
        // (32 bytes) at seeding time.
        {
            let (state, _receiver) = AppState::new(
                Engine::sequential(),
                8,
                32,
                4,
                Some(dir.as_path()),
                ResilienceConfig::default(),
                None,
            )
            .unwrap();
            assert_eq!(state.datasets.stats().0, 0, "dataset over budget");
            assert_eq!(state.results.stats().0, 1, "only the small result fits");
        }
        // The next boot sees exactly what the budgets retained; the
        // rejected entries' blobs are gone, not leaked.
        let (store, recovered) = Store::open(&dir).unwrap();
        assert_eq!(
            recovered.datasets.len(),
            0,
            "rejected dataset not resurrected"
        );
        assert_eq!(recovered.results.len(), 1);
        assert_eq!(recovered.results[0].canonical, "canon|small");
        assert_eq!(store.stats().blobs, 1, "rejected blobs deleted");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
