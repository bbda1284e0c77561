//! The async job engine behind `POST /v1/jobs` / `GET /v1/jobs/:id`.
//!
//! A job is a *content-addressed* unit of work: its id is the 16-hex
//! result key derived from the canonical cache-key string, so two
//! submissions describing the same `(dataset digest, mechanism,
//! canonical params, seed)` are **the same job** — the board coalesces
//! them onto one entry, and the executor funnels the computation
//! through the single-flight result cache it shares with the
//! synchronous `POST /v1/anonymize` path. Polling `GET /v1/jobs/:id`
//! reports `queued → running → done` (or `failed`) with a coarse
//! progress fraction; the finished body is fetched from
//! `GET /v1/results/:id`. A job's payload is the `compute::Work`
//! itself, so the job id, the cache key and the computation cannot
//! disagree.
//!
//! Jobs hold an `Arc` to their dataset from submission time, so
//! registry eviction never invalidates queued work. Finished job
//! records are themselves bounded (oldest finished records are dropped
//! past a cap) — the *results* live in the cache, the job record is
//! only the status page.
//!
//! # Retry & quarantine
//!
//! The executor classifies failures with
//! [`ServiceError::is_transient`]: transient ones (queue pressure,
//! panics, injected faults) are retried up to
//! [`ResilienceConfig::max_attempts`](crate::ResilienceConfig) with the
//! deterministic exponential backoff of [`backoff_ms`]; permanent ones
//! (bad parameters, exhausted deadlines) fail on the first attempt. A
//! job that exhausts its attempts is **quarantined** as `failed`, with
//! the full attempt history — per-attempt error, classification and
//! backoff — on `GET /v1/jobs/:id`. Resubmitting the same spec starts a
//! fresh attempt cycle.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use mobipriv_eval::Json;
use mobipriv_model::digest::{fnv1a64, mix64};
use mobipriv_obs::logging::{self, FieldValue};
use mobipriv_obs::trace::{next_trace_id, SpanRecorder};

use crate::cache::{result_key, CacheOutcome};
use crate::compute::Work;
use crate::state::AppState;
use crate::ServiceError;

/// Finished job records kept before the oldest are dropped.
const MAX_FINISHED_JOBS: usize = 4096;

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobStatus {
    /// Accepted, waiting for an executor.
    #[default]
    Queued,
    /// An executor is computing (or joining an in-flight computation).
    Running,
    /// The result is in the cache under the job id.
    Done,
    /// The computation failed; `error` has the message. Resubmitting
    /// the same spec retries.
    Failed,
}

impl JobStatus {
    /// The wire name reported by the status endpoint.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

/// The immutable description of what a job runs.
#[derive(Debug)]
pub struct JobSpec {
    /// What to compute; its canonical key is the job id.
    pub(crate) work: Work,
    /// Client-requested compute budget per attempt (`timeout_ms` on
    /// submission), clamped by the server's configured ceiling when the
    /// executor runs. `None` = the configured default budget.
    pub timeout_ms: Option<u64>,
}

/// One executor attempt that did not produce a result — the quarantine
/// record `GET /v1/jobs/:id` exposes under `attempts`.
#[derive(Debug, Clone)]
struct Attempt {
    error: String,
    transient: bool,
    /// Backoff slept *after* this attempt, `None` on the final one.
    backoff_ms: Option<u64>,
}

#[derive(Debug, Clone, Default)]
struct JobState {
    status: JobStatus,
    progress: f64,
    error: Option<String>,
    wall_ms: f64,
    cache: Option<CacheOutcome>,
    /// Trace id of the executor run (set when the job starts running);
    /// its span timeline is served by `GET /v1/traces/:id`.
    trace: Option<String>,
    /// Failed attempts so far (live during retries, final after
    /// quarantine).
    attempts: Vec<Attempt>,
}

/// One submitted job: spec + mutable status.
#[derive(Debug)]
pub struct Job {
    /// Content-addressed id — equal to the result key.
    pub id: String,
    /// What this job computes.
    pub spec: JobSpec,
    state: Mutex<JobState>,
}

impl Job {
    fn new(spec: JobSpec) -> Job {
        Job {
            id: result_key(&spec.work.canonical()),
            spec,
            state: Mutex::new(JobState::default()),
        }
    }

    fn state(&self) -> JobState {
        self.state.lock().expect("job mutex poisoned").clone()
    }

    /// Current lifecycle state.
    pub fn status(&self) -> JobStatus {
        self.state().status
    }

    fn set_progress(&self, progress: f64) {
        let mut state = self.state.lock().expect("job mutex poisoned");
        state.progress = progress.clamp(state.progress, 1.0);
    }

    /// The status document `GET /v1/jobs/:id` serves.
    pub fn to_json(&self) -> Json {
        self.document(self.state())
    }

    /// The status document as it stood when the job was enqueued — what
    /// a fresh submission reports, however far an executor has taken
    /// the job since.
    pub(crate) fn queued_json(&self) -> Json {
        self.document(JobState::default())
    }

    fn document(&self, state: JobState) -> Json {
        let work = &self.spec.work;
        let mut members = vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("kind".into(), Json::Str(work.output.name().into())),
            ("status".into(), Json::Str(state.status.name().into())),
            ("progress".into(), Json::Num(state.progress)),
            ("dataset".into(), Json::Str(work.digest.clone())),
            ("mechanism".into(), Json::Str(work.mechanism.canonical())),
            ("seed".into(), Json::UInt(work.seed)),
            (
                "result".into(),
                Json::Str(format!("/v1/results/{}", self.id)),
            ),
        ];
        if state.status == JobStatus::Done || state.status == JobStatus::Failed {
            members.push(("wall_ms".into(), Json::Num(state.wall_ms)));
        }
        if let Some(outcome) = state.cache {
            members.push(("cache".into(), Json::Str(outcome.header_value().into())));
        }
        if let Some(trace) = state.trace {
            members.push(("trace".into(), Json::Str(trace)));
        }
        if let Some(error) = state.error {
            members.push(("error".into(), Json::Str(error)));
        }
        if !state.attempts.is_empty() {
            let attempts = state
                .attempts
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    let mut fields = vec![
                        ("attempt".into(), Json::UInt(i as u64 + 1)),
                        ("error".into(), Json::Str(a.error.clone())),
                        ("transient".into(), Json::Bool(a.transient)),
                    ];
                    if let Some(ms) = a.backoff_ms {
                        fields.push(("backoff_ms".into(), Json::UInt(ms)));
                    }
                    Json::Obj(fields)
                })
                .collect();
            members.push(("attempts".into(), Json::Arr(attempts)));
        }
        Json::Obj(members)
    }
}

/// The deterministic backoff slept after failed attempt `attempt`
/// (0-based) of the job addressed by `key`: `base · 2^attempt` plus a
/// jitter drawn from FNV/SplitMix over `(key, attempt)` — never from
/// wall-clock randomness — capped at `cap_ms`. For a fixed key the
/// schedule is reproducible and monotone non-decreasing; jitter keeps
/// *different* keys from retrying in lockstep.
pub fn backoff_ms(key: &str, attempt: u32, base_ms: u64, cap_ms: u64) -> u64 {
    let base = base_ms.max(1);
    let exponential = base.saturating_mul(1u64 << attempt.min(20));
    // Jitter strictly below `base`: each doubling step grows by at
    // least `base`, so jitter can never break monotonicity.
    let jitter = mix64(fnv1a64(key.as_bytes()) ^ u64::from(attempt)) % base;
    exponential.saturating_add(jitter).min(cap_ms.max(base))
}

/// What [`JobBoard::submit`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submitted {
    /// A new job record was enqueued.
    Enqueued,
    /// An equivalent job already existed (queued, running or done);
    /// the caller was coalesced onto it.
    Coalesced,
    /// The result was already in the cache — the job record was born
    /// `done` without touching the queue.
    Cached,
}

struct BoardInner {
    jobs: HashMap<String, Arc<Job>>,
    /// Finished records, oldest first. An entry goes stale when a
    /// resubmission replaces its record, so trimming checks identity.
    finished: VecDeque<Weak<Job>>,
}

impl BoardInner {
    /// Queues a finished record, then trims the queue to the cap; a
    /// popped record leaves the map only if it is still the live one
    /// for its id (its result stays addressable in the cache).
    fn push_finished(&mut self, job: &Arc<Job>) {
        self.finished.push_back(Arc::downgrade(job));
        while self.finished.len() > MAX_FINISHED_JOBS {
            let Some(old) = self.finished.pop_front().and_then(|old| old.upgrade()) else {
                continue;
            };
            if self
                .jobs
                .get(&old.id)
                .is_some_and(|live| Arc::ptr_eq(live, &old))
            {
                self.jobs.remove(&old.id);
            }
        }
    }
}

/// The job registry + submission queue.
pub struct JobBoard {
    inner: Mutex<BoardInner>,
    sender: Mutex<Option<SyncSender<Arc<Job>>>>,
    /// Persistence hook (set once at boot when the server has a
    /// `--data-dir`): accepted submissions are journaled so a crashed
    /// node can report which jobs were in flight.
    store: OnceLock<Arc<crate::store::Store>>,
}

impl JobBoard {
    /// Creates the board and the bounded submission queue; the receiver
    /// goes to the executor threads.
    pub fn new(queue_depth: usize) -> (JobBoard, Receiver<Arc<Job>>) {
        let (sender, receiver) = std::sync::mpsc::sync_channel(queue_depth.max(1));
        (
            JobBoard {
                inner: Mutex::new(BoardInner {
                    jobs: HashMap::new(),
                    finished: VecDeque::new(),
                }),
                sender: Mutex::new(Some(sender)),
                store: OnceLock::new(),
            },
            receiver,
        )
    }

    /// Attaches the persistence layer (once, at boot).
    pub(crate) fn attach_store(&self, store: Arc<crate::store::Store>) {
        let _ = self.store.set(store);
    }

    /// Submits a job whose result the caller found missing from the
    /// cache, coalescing onto an equivalent queued or running one. A
    /// finished record with the same id is replaced: a failed job is
    /// retried, and a `done` one's body was LRU-evicted — coalescing
    /// onto it would 200 `done` while `GET /v1/results` keeps 404ing, a
    /// permanent livelock for the key.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Unavailable`] when the job queue is full or the
    /// server is shutting down.
    pub fn submit(&self, spec: JobSpec) -> Result<(Arc<Job>, Submitted), ServiceError> {
        let job = Arc::new(Job::new(spec));
        let mut inner = self.inner.lock().expect("job board mutex poisoned");
        if let Some(existing) = inner.jobs.get(&job.id) {
            if matches!(existing.status(), JobStatus::Queued | JobStatus::Running) {
                return Ok((Arc::clone(existing), Submitted::Coalesced));
            }
        }
        self.enqueue(Arc::clone(&job))?;
        inner.jobs.insert(job.id.clone(), Arc::clone(&job));
        drop(inner);
        // Journal the accepted submission off the board lock — status
        // polls must not stall behind the append's fsync. An executor
        // may complete the job (journaling `JobCompleted`) before this
        // append lands; recovery folds completions as a set, so the
        // reorder never reads as an in-flight job.
        if let Some(store) = self.store.get() {
            if let Err(e) = store.job_submitted(&job.id, &job.spec.work.canonical()) {
                logging::warn(
                    "service::jobs",
                    None,
                    "submission not journaled",
                    &[
                        ("id", FieldValue::Str(&job.id)),
                        ("error", FieldValue::Str(&e.to_string())),
                    ],
                );
            }
        }
        Ok((job, Submitted::Enqueued))
    }

    fn enqueue(&self, job: Arc<Job>) -> Result<(), ServiceError> {
        let sender = self.sender.lock().expect("job sender mutex poisoned");
        let Some(sender) = sender.as_ref() else {
            return Err(ServiceError::Unavailable("server is shutting down".into()));
        };
        sender.try_send(job).map_err(|e| match e {
            TrySendError::Full(_) => ServiceError::Unavailable("job queue is full".into()),
            TrySendError::Disconnected(_) => {
                ServiceError::Unavailable("server is shutting down".into())
            }
        })
    }

    /// Records a job whose result is already cached: the record is born
    /// `done` (cache hit) and never touches the queue. If an
    /// equivalent live job exists the caller is coalesced onto it
    /// instead.
    pub fn insert_done(&self, spec: JobSpec) -> (Arc<Job>, Submitted) {
        let job = Arc::new(Job::new(spec));
        let mut inner = self.inner.lock().expect("job board mutex poisoned");
        if let Some(existing) = inner.jobs.get(&job.id) {
            if existing.status() != JobStatus::Failed {
                return (Arc::clone(existing), Submitted::Coalesced);
            }
        }
        {
            let mut state = job.state.lock().expect("job mutex poisoned");
            state.status = JobStatus::Done;
            state.progress = 1.0;
            state.cache = Some(CacheOutcome::Hit);
        }
        inner.jobs.insert(job.id.clone(), Arc::clone(&job));
        inner.push_finished(&job);
        (job, Submitted::Cached)
    }

    /// Looks a job up by id.
    pub fn get(&self, id: &str) -> Option<Arc<Job>> {
        let inner = self.inner.lock().expect("job board mutex poisoned");
        inner.jobs.get(id).map(Arc::clone)
    }

    /// Snapshot of every job record.
    pub fn list(&self) -> Vec<Arc<Job>> {
        let inner = self.inner.lock().expect("job board mutex poisoned");
        let mut jobs: Vec<Arc<Job>> = inner.jobs.values().map(Arc::clone).collect();
        jobs.sort_by(|a, b| a.id.cmp(&b.id));
        jobs
    }

    /// Counts by status: `(queued, running, done, failed)`.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let inner = self.inner.lock().expect("job board mutex poisoned");
        let mut counts = (0, 0, 0, 0);
        for job in inner.jobs.values() {
            match job.status() {
                JobStatus::Queued => counts.0 += 1,
                JobStatus::Running => counts.1 += 1,
                JobStatus::Done => counts.2 += 1,
                JobStatus::Failed => counts.3 += 1,
            }
        }
        counts
    }

    /// Closes the submission queue: executors drain what is queued and
    /// exit; new submissions answer 503.
    pub fn close(&self) {
        self.sender
            .lock()
            .expect("job sender mutex poisoned")
            .take();
    }

    fn record_finished(&self, job: &Arc<Job>) {
        let mut inner = self.inner.lock().expect("job board mutex poisoned");
        inner.push_finished(job);
    }
}

/// Runs one job to completion on the shared state (cache + engine +
/// failure-domain gate). This is the executor-thread body; it never
/// panics outward (failures land in the job record). The executor
/// records its own span timeline under a fresh trace id, exposed
/// through the job document's `trace` field.
///
/// Each attempt is one [`AppState::compute`] — the single-flight cache,
/// then breaker admission, chaos and a fresh per-attempt
/// [`CancelToken`](mobipriv_core::CancelToken) when it leads; transient
/// failures back off deterministically ([`backoff_ms`]) and retry until
/// `max_attempts`, then the job is quarantined as `failed` with its
/// attempt history.
pub(crate) fn run_job(job: &Arc<Job>, state: &AppState) {
    let started = Instant::now();
    let spans = SpanRecorder::new(next_trace_id());
    {
        let mut job_state = job.state.lock().expect("job mutex poisoned");
        job_state.status = JobStatus::Running;
        job_state.trace = Some(spans.id().to_owned());
    }
    let progress = |p: f64| job.set_progress(p);
    let budget = state.resilience.clamp_budget(job.spec.timeout_ms);
    let max_attempts = state.resilience.max_attempts.max(1);
    let outcome = loop {
        let e = match state.compute(&job.spec.work, budget, &progress, &spans) {
            Ok(ok) => break Ok(ok),
            Err(e) => e,
        };
        let attempt_no = {
            let job_state = job.state.lock().expect("job mutex poisoned");
            job_state.attempts.len() as u32 + 1
        };
        let retryable = e.is_transient() && attempt_no < max_attempts;
        let backoff = retryable.then(|| {
            backoff_ms(
                &job.id,
                attempt_no - 1,
                state.resilience.backoff_base_ms,
                state.resilience.backoff_cap_ms,
            )
        });
        {
            // Recorded before sleeping so a poll mid-retry already sees
            // the history.
            let mut job_state = job.state.lock().expect("job mutex poisoned");
            job_state.attempts.push(Attempt {
                error: e.to_string(),
                transient: e.is_transient(),
                backoff_ms: backoff,
            });
        }
        match backoff {
            Some(ms) => {
                state.metrics.retries_total.inc();
                logging::debug(
                    "service::jobs",
                    Some(spans.id()),
                    "transient job failure; retrying",
                    &[
                        ("id", FieldValue::Str(&job.id)),
                        ("attempt", FieldValue::U64(u64::from(attempt_no))),
                        ("backoff_ms", FieldValue::U64(ms)),
                        ("error", FieldValue::Str(&e.to_string())),
                    ],
                );
                std::thread::sleep(Duration::from_millis(ms));
            }
            None => break Err(e),
        }
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut job_state = job.state.lock().expect("job mutex poisoned");
    job_state.wall_ms = wall_ms;
    let error = match outcome {
        Ok((_, cache_outcome)) => {
            job_state.status = JobStatus::Done;
            job_state.progress = 1.0;
            job_state.cache = Some(cache_outcome);
            None
        }
        Err(e) => {
            job_state.status = JobStatus::Failed;
            job_state.error = Some(e.to_string());
            Some(e.to_string())
        }
    };
    drop(job_state);
    state.jobs.record_finished(job);
    state.metrics.record_spans(&spans);
    state.traces.store(&spans);
    match &error {
        None => state.metrics.jobs_done_total.inc(),
        Some(_) => state.metrics.jobs_failed_total.inc(),
    }
    match &error {
        None => logging::debug(
            "service::jobs",
            Some(spans.id()),
            "job done",
            &[
                ("id", FieldValue::Str(&job.id)),
                ("kind", FieldValue::Str(job.spec.work.output.name())),
                ("wall_ms", FieldValue::F64(wall_ms)),
            ],
        ),
        Some(message) => logging::warn(
            "service::jobs",
            Some(spans.id()),
            "job failed",
            &[
                ("id", FieldValue::Str(&job.id)),
                ("kind", FieldValue::Str(job.spec.work.output.name())),
                ("wall_ms", FieldValue::F64(wall_ms)),
                ("error", FieldValue::Str(message)),
            ],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::ResilienceConfig;
    use crate::chaos::ChaosConfig;
    use crate::compute::Output;
    use mobipriv_core::{Engine, MechanismSpec};
    use mobipriv_geo::LatLng;
    use mobipriv_model::{Dataset, Fix, Timestamp, Trace, UserId, WireFormat};

    fn test_state(
        resilience: ResilienceConfig,
        chaos: Option<ChaosConfig>,
    ) -> (Arc<AppState>, Receiver<Arc<Job>>) {
        AppState::new(
            Engine::sequential(),
            1 << 20,
            1 << 20,
            8,
            None,
            resilience,
            chaos,
        )
        .unwrap()
    }

    fn spec(seed: u64) -> JobSpec {
        let dataset = Dataset::from_traces(vec![Trace::new(
            UserId::new(1),
            vec![
                Fix::new(LatLng::new(45.76, 4.84).unwrap(), Timestamp::new(0)),
                Fix::new(LatLng::new(45.77, 4.85).unwrap(), Timestamp::new(60)),
            ],
        )
        .unwrap()]);
        JobSpec {
            work: Work {
                digest: "abcdef0123456789".into(),
                dataset: Arc::new(dataset),
                mechanism: MechanismSpec::Identity,
                seed,
                output: Output::Anonymize {
                    report: false,
                    wire: WireFormat::Csv,
                },
            },
            timeout_ms: None,
        }
    }

    #[test]
    fn identical_specs_coalesce_and_run_once() {
        let (state, receiver) = test_state(ResilienceConfig::default(), None);
        let (a, first) = state.jobs.submit(spec(1)).unwrap();
        let (b, second) = state.jobs.submit(spec(1)).unwrap();
        assert_eq!(first, Submitted::Enqueued);
        assert_eq!(second, Submitted::Coalesced);
        assert!(Arc::ptr_eq(&a, &b));
        let (c, third) = state.jobs.submit(spec(2)).unwrap();
        assert_eq!(third, Submitted::Enqueued);
        assert_ne!(a.id, c.id);
        // Exactly the two distinct jobs sit in the queue.
        for _ in 0..2 {
            let job = receiver.try_recv().expect("queued job");
            run_job(&job, &state);
            assert_eq!(job.status(), JobStatus::Done);
        }
        assert!(receiver.try_recv().is_err(), "no third enqueue");
        assert_eq!(state.results.computations(), 2);
        // Both results are addressable under their job ids.
        assert!(state.results.lookup(&a.id).is_some());
        assert!(state.results.lookup(&c.id).is_some());
    }

    #[test]
    fn failed_jobs_report_and_can_retry() {
        let (state, receiver) = test_state(ResilienceConfig::default(), None);
        let bad = || {
            let mut spec = spec(3);
            spec.work.mechanism = MechanismSpec::Promesse { alpha_m: -5.0 };
            spec
        };
        let (job, _) = state.jobs.submit(bad()).unwrap();
        run_job(&receiver.try_recv().unwrap(), &state);
        assert_eq!(job.status(), JobStatus::Failed);
        let mut text = String::new();
        job.to_json().write(&mut text);
        assert!(text.contains("\"status\":\"failed\""), "{text}");
        assert!(
            text.contains("must be strictly positive and finite, got -5"),
            "{text}"
        );
        // A permanent error fails on the first attempt — no retries.
        assert!(text.contains("\"transient\":false"), "{text}");
        assert!(!text.contains("backoff_ms"), "{text}");
        assert_eq!(state.metrics.retries_total.get(), 0);
        // Resubmission of a failed id enqueues a fresh attempt.
        let (_, submitted) = state.jobs.submit(bad()).unwrap();
        assert_eq!(submitted, Submitted::Enqueued);
    }

    /// Resubmitting a finished id replaces its record; every run of it
    /// queues one more finished entry. The queue stays within the cap,
    /// and trimming a stale entry leaves the live record alone.
    #[test]
    fn repeated_runs_of_one_id_keep_the_finished_queue_bounded() {
        let (state, receiver) = test_state(ResilienceConfig::default(), None);
        let mut last = None;
        for _ in 0..MAX_FINISHED_JOBS + 1_000 {
            let (job, submitted) = state.jobs.submit(spec(4)).unwrap();
            assert_eq!(submitted, Submitted::Enqueued, "a done record is replaced");
            run_job(&receiver.try_recv().unwrap(), &state);
            assert_eq!(job.status(), JobStatus::Done);
            last = Some(job);
        }
        assert_eq!(state.results.computations(), 1, "reruns are cache hits");
        let queued = state.jobs.inner.lock().unwrap().finished.len();
        assert!(queued <= MAX_FINISHED_JOBS, "{queued} finished entries");
        let last = last.unwrap();
        let live = state.jobs.get(&last.id).expect("the live record survives");
        assert!(Arc::ptr_eq(&live, &last));
    }

    #[test]
    fn transient_failures_retry_then_quarantine_with_history() {
        let resilience = ResilienceConfig {
            max_attempts: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 4,
            // Keep the breaker out of this test's way.
            breaker_failure_threshold: 100,
            ..ResilienceConfig::default()
        };
        let chaos = ChaosConfig {
            error_p: 1.0,
            ..ChaosConfig::default()
        };
        let (state, receiver) = test_state(resilience, Some(chaos));
        let (job, _) = state.jobs.submit(spec(5)).unwrap();
        run_job(&receiver.try_recv().unwrap(), &state);
        assert_eq!(job.status(), JobStatus::Failed, "quarantined");
        assert_eq!(state.metrics.retries_total.get(), 2, "two re-attempts");
        assert_eq!(state.metrics.jobs_failed_total.get(), 1);
        let mut text = String::new();
        job.to_json().write(&mut text);
        assert!(text.contains("\"attempts\":["), "{text}");
        assert!(text.contains("\"attempt\":3"), "{text}");
        assert!(text.contains("\"transient\":true"), "{text}");
        assert!(text.contains("\"backoff_ms\":"), "{text}");
        assert!(text.contains("chaos: injected transient fault"), "{text}");
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_monotone() {
        let schedule: Vec<u64> = (0..8).map(|a| backoff_ms("job-1", a, 25, 1_000)).collect();
        assert_eq!(
            schedule,
            (0..8)
                .map(|a| backoff_ms("job-1", a, 25, 1_000))
                .collect::<Vec<_>>(),
            "same key, same schedule"
        );
        for pair in schedule.windows(2) {
            assert!(pair[0] <= pair[1], "monotone: {schedule:?}");
        }
        assert!(schedule.iter().all(|&ms| ms <= 1_000), "capped");
        let schedule = |key| [0, 1, 2].map(|attempt| backoff_ms(key, attempt, 25, 1_000));
        assert_ne!(
            schedule("job-1"),
            schedule("job-2"),
            "distinct keys de-synchronize somewhere in the schedule"
        );
    }

    #[test]
    fn closed_board_rejects_submissions() {
        let (board, _receiver) = JobBoard::new(2);
        board.close();
        let err = board.submit(spec(9)).unwrap_err();
        assert_eq!(err.status().0, 503);
    }
}
