//! Anonymization-as-a-service for the `mobipriv` toolkit.
//!
//! The ICDCS'15 paper frames Promesse and its baselines as mechanisms an
//! LBS operator runs before *publishing* mobility data; this crate is
//! that operator-facing surface: a long-running, std-only HTTP/1.1
//! server (`mobipriv-serve`) exposing the whole mechanism matrix, plus a
//! load-generator harness (`mobipriv-loadgen`) that replays a synthetic
//! city against it and reports throughput and latency percentiles.
//!
//! # Endpoints
//!
//! | route | description |
//! |---|---|
//! | `POST /v1/anonymize?mechanism=…&seed=…` | stream a CSV/NDJSON body (or reference a registered `dataset=…`) through a mechanism, get CSV back |
//! | `POST /v1/datasets` | register a dataset once under its content digest (publish-once/query-many ingestion) |
//! | `GET /v1/datasets[/:digest]` | the registry listing / one dataset's metadata |
//! | `POST /v1/jobs?dataset=…&mechanism=…` | submit an async anonymization or evaluation job against a registered digest |
//! | `GET /v1/jobs[/:id]` | job records / one job's `queued→running→done|failed` status with progress |
//! | `GET /v1/results/:key` | the finished bytes for a content address |
//! | `GET /v1/stats` | the metrics registry as JSON: cache, registry, job (and store) counters as flat fields (incl. the single-flight computation counter), every series under `"metrics"` — the same numbers `/metrics` renders |
//! | `GET /v1/mechanisms` | the mechanism catalogue with parameters and defaults |
//! | `GET /v1/evaluate?scenario=…&mechanism=…` | run the evaluation matrix (attacks + utility metrics) on synthetic workloads, get the JSON [`EvalReport`](mobipriv_eval::EvalReport) |
//! | `GET /metrics` | Prometheus text exposition: request/cache/job/queue counters and per-stage latency histograms ([`telemetry`]) |
//! | `GET /v1/traces/:id` | the span timeline behind an `x-mobipriv-trace` response header |
//! | `GET /healthz` | liveness probe — always HTTP 200, body `ready` or `degraded` (readiness is the body, see [`AppState::degraded`]) |
//! | `GET /v1/route?key=…` | (router mode only) placement debug: which shard owns a key, plus the full failover rank ([`router`]) |
//!
//! # Guarantees
//!
//! * **Determinism** — a response is a pure function of `(input
//!   content, canonical mechanism parameters, seed)`: the handler
//!   calls the same [`Engine`](mobipriv_core::Engine) as the batch
//!   tooling, whose output is schedule-independent. Replaying a
//!   request reproduces the release byte for byte.
//! * **Content-addressed results** — that same tuple is the result
//!   cache's key: repeated and concurrent identical requests coalesce
//!   into one computation (single-flight) and hits serve byte-identical
//!   bodies without recomputation (`x-mobipriv-cache: hit|miss`).
//! * **Bounded memory** — bodies stream through
//!   [`DatasetStream`](mobipriv_model::DatasetStream) chunk by chunk;
//!   the server never buffers a raw body, holds at most one partial
//!   line of text per request, and enforces explicit head/body/line
//!   size limits. The dataset registry and result cache are LRU-bounded
//!   byte budgets.
//! * **Load shedding** — a bounded accept queue in front of a fixed
//!   worker pool, and a bounded job queue in front of the executors:
//!   past either limit, clients get an immediate `503` instead of an
//!   ever-growing backlog.
//! * **Durability (opt-in)** — with `--data-dir`, registered datasets
//!   and finished results persist through a content-addressed blob
//!   store plus an append-only journal ([`store`]): a warm restart
//!   replays the journal, re-hashes every referenced blob (mismatches
//!   are quarantined, never served) and answers previously computed
//!   requests as byte-identical cache hits without recomputation.
//!   Without the flag the server is pure in-memory, as before.
//! * **Transport reuse & scale-out** — responses are
//!   `Content-Length`-framed so HTTP/1.1 connections persist across
//!   requests ([`http`]), and `--route shard,…` runs the same
//!   connection runtime as a thin consistent-hash proxy over keep-alive
//!   upstream connections ([`router`]): responses stay byte-identical
//!   whether they travel one hop or two, and a dead shard degrades only
//!   its own key range.
//!
//! # Example
//!
//! ```
//! use mobipriv_service::{Server, ServerConfig};
//!
//! # fn main() -> std::io::Result<()> {
//! let server = Server::bind(ServerConfig::default())?; // 127.0.0.1:0
//! let handle = server.spawn()?;
//! let addr = handle.addr(); // POST http://{addr}/v1/anonymize?…
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rust_2018_idioms)]

pub mod breaker;
pub mod cache;
pub mod chaos;
pub mod client;
mod compute;
pub mod datasets;
mod error;
mod handlers;
pub mod http;
pub mod jobs;
pub mod registry;
pub mod router;
mod server;
mod state;
pub mod store;
pub mod telemetry;

pub use breaker::{Breaker, ResilienceConfig};
pub use cache::{result_key, CacheOutcome, ResultCache};
pub use chaos::{ChaosConfig, ChaosInjector};
pub use datasets::DatasetRegistry;
pub use error::ServiceError;
pub use jobs::{backoff_ms, JobBoard, JobKind, JobStatus};
pub use registry::{build_mechanism, resolve_mechanism, MechanismInfo, MECHANISMS};
pub use router::{rendezvous_owner, rendezvous_rank, Router, RouterConfig, RouterHandle};
pub use server::{Server, ServerConfig, ServerHandle};
pub use state::AppState;
pub use store::{Store, StoreStats};
