//! The shard router: horizontal scale-out for the serving stack.
//!
//! `mobipriv-serve --route shard1,shard2,…` runs this thin proxy
//! instead of a full serving node. Each shard is an ordinary
//! single-node server; the router owns no datasets, caches or jobs —
//! it only decides *which shard owns a key* and forwards bytes.
//!
//! # Placement
//!
//! Ownership is rendezvous (highest-random-weight) hashing over the
//! dataset digest: every shard gets a deterministic score
//! `mix64(fnv1a64(shard ‖ 0x00 ‖ key))` and the highest score owns the
//! key. Rendezvous hashing is stable under shard-list reordering (the
//! score only depends on the shard *name*), assigns keys near-uniformly
//! and, when a shard is removed, remaps only the keys that shard owned
//! — every other key keeps its owner ([`rendezvous_rank`] has the
//! property tests).
//!
//! # Forwarding
//!
//! * Keyed routes (`/v1/anonymize`, `/v1/datasets`, `/v1/jobs` with a
//!   `dataset` digest, `/v1/datasets/:digest`) go to the owning shard
//!   over a pooled keep-alive [`Connection`] and get **no failover**: a dead shard turns its own key range into
//!   `503`s (counted per shard in `mobipriv_route_errors_total`) while
//!   every other range keeps serving.
//! * Id-based lookups (`/v1/jobs/:id`, `/v1/results/:key`,
//!   `/v1/traces/:id`) are not invertible to a dataset digest, so they
//!   fan out and the first non-404 answer wins.
//! * `GET /metrics` and `GET /v1/stats` scrape every shard's
//!   `/metrics` and *fold* the scrapes once ([`Scrape::fold`]:
//!   counters, gauges and histogram buckets sum exactly), with the
//!   router's own series absorbed into the fold; both endpoints render
//!   that one registry, so the router presents cluster totals in the
//!   same formats a single node serves.
//! * The body the client sent is forwarded byte-for-byte (the router
//!   parses it only to learn the digest), so responses stay
//!   byte-identical to a single-node deployment.
//!
//! The downstream (client-facing) side is the single node's own
//! runtime (`server.rs`): the same accept queue, load shedding,
//! keep-alive loop, idle deadline, request cap and graceful drain. The
//! router only answers the requests.

use std::borrow::Cow;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mobipriv_core::fan_out;
use mobipriv_eval::Json;
use mobipriv_model::digest::{dataset_digest, digest_hex, fnv1a64, mix64};
use mobipriv_model::DatasetStream;
use mobipriv_obs::logging::{self, FieldValue};
use mobipriv_obs::metrics::{Counter, Registry};
use mobipriv_obs::scrape::{self, Scrape};

use crate::client::{Connection, Headers};
use crate::handlers::body_format;
use crate::http::RequestHead;
use crate::server::{Body, Limits, QueueMetrics, RequestBody, Response, Runtime, Service};
use crate::telemetry::stats_json;
use crate::ServiceError;

// ---------------------------------------------------------------------------
// Rendezvous hashing
// ---------------------------------------------------------------------------

/// The rendezvous score of `shard` for `key`: the shard with the
/// highest score owns the key. The `0x00` separator keeps
/// `("ab","c")` and `("a","bc")` from colliding; the finalizer spreads
/// FNV's weak low bits over the whole word, so comparing scores is fair
/// even for near-identical inputs.
pub fn rendezvous_score(shard: &str, key: &str) -> u64 {
    mix64(fnv1a64(
        &[shard.as_bytes(), b"\x00", key.as_bytes()].concat(),
    ))
}

/// Shard indices ordered by descending rendezvous score for `key`
/// (ties broken by shard name, so the order is total). Index 0 is the
/// owner; the rest is the deterministic failover order for stateless
/// routes. The result depends only on the *set* of shard names, never
/// on their order in `shards`.
pub fn rendezvous_rank(shards: &[String], key: &str) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shards.len()).collect();
    order.sort_by(|&a, &b| {
        rendezvous_score(&shards[b], key)
            .cmp(&rendezvous_score(&shards[a], key))
            .then_with(|| shards[a].cmp(&shards[b]))
    });
    order
}

/// The index of the shard owning `key`, or `None` for an empty list.
pub fn rendezvous_owner(shards: &[String], key: &str) -> Option<usize> {
    (0..shards.len()).max_by(|&a, &b| {
        rendezvous_score(&shards[a], key)
            .cmp(&rendezvous_score(&shards[b], key))
            .then_with(|| shards[b].cmp(&shards[a]))
    })
}

// ---------------------------------------------------------------------------
// Configuration and lifecycle
// ---------------------------------------------------------------------------

/// Tunables for [`Router::bind`] (the `--route` mode of
/// `mobipriv-serve`). The connection-layer knobs mean exactly what
/// they do on [`ServerConfig`](crate::ServerConfig).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Shard addresses (`host:port`), each an ordinary single-node
    /// `mobipriv-serve`. Order does not matter for placement.
    pub shards: Vec<String>,
    /// Worker threads (each proxies one connection at a time).
    pub workers: usize,
    /// Connections the acceptor may queue ahead of the workers before
    /// shedding load with `503`s.
    pub queue_depth: usize,
    /// Upper bound on a request body, after transfer decoding.
    pub max_body_bytes: u64,
    /// Per-request wall-clock budget (and per-socket timeout), both
    /// downstream and toward the shards.
    pub timeout: Duration,
    /// How long a client's keep-alive connection may sit idle between
    /// requests before the router closes it.
    pub idle_timeout: Duration,
    /// Requests served on one client connection before the router
    /// closes it.
    pub max_requests_per_conn: usize,
    /// Upstream keep-alive connections per shard, total (in use +
    /// pooled idle). A shard worker is pinned to a connection for that
    /// connection's lifetime, so dialing more connections than a shard
    /// has workers only parks the extras in its accept queue; the
    /// default matches the single-node default worker count, and
    /// checkout *blocks* (up to `timeout`) rather than over-dialing.
    pub upstream_conns: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: Vec::new(),
            workers: 4,
            queue_depth: 64,
            max_body_bytes: 64 * 1024 * 1024,
            timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(5),
            max_requests_per_conn: 1000,
            upstream_conns: 4,
        }
    }
}

/// A bound-but-not-yet-serving router (same two-phase split as
/// [`Server`](crate::Server), so callers learn the ephemeral port
/// before traffic starts).
#[derive(Debug)]
pub struct Router {
    listener: TcpListener,
    config: RouterConfig,
}

impl Router {
    /// Binds the listening socket.
    ///
    /// # Errors
    ///
    /// Returns the `bind(2)` error, or `InvalidInput` when the shard
    /// list is empty — a router with nowhere to forward is a
    /// misconfiguration, not a degraded state.
    pub fn bind(config: RouterConfig) -> std::io::Result<Router> {
        if config.shards.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one shard",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Router { listener, config })
    }

    /// The bound address (with the real port when `addr` asked for 0).
    ///
    /// # Errors
    ///
    /// Propagates `getsockname(2)` failure (not observed in practice).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the acceptor and worker threads, returning a handle for
    /// shutdown.
    ///
    /// # Errors
    ///
    /// Propagates `getsockname(2)` failure.
    pub fn spawn(self) -> std::io::Result<RouterHandle> {
        let config = &self.config;
        let limits = Limits {
            workers: config.workers,
            queue_depth: config.queue_depth,
            max_body_bytes: config.max_body_bytes,
            timeout: config.timeout,
            idle_timeout: config.idle_timeout,
            max_requests_per_conn: config.max_requests_per_conn,
        };
        let state = Arc::new(RouterState::new(self.config));
        let shards = state.shards.len();
        // The router exports no queue series of its own.
        let runtime = Runtime::spawn(self.listener, limits, state, QueueMetrics::default())?;
        logging::info(
            "service::router",
            None,
            "router listening",
            &[
                ("addr", FieldValue::Str(&runtime.addr.to_string())),
                ("shards", FieldValue::U64(shards as u64)),
            ],
        );
        Ok(RouterHandle { runtime })
    }

    /// Serves until the process exits (the foreground mode of
    /// `mobipriv-serve --route`).
    ///
    /// # Errors
    ///
    /// Propagates `getsockname(2)` failure from [`Router::spawn`].
    pub fn run(self) -> std::io::Result<()> {
        self.spawn()?.runtime.join();
        Ok(())
    }
}

/// Control handle for a running router.
pub struct RouterHandle {
    runtime: Runtime,
}

impl std::fmt::Debug for RouterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterHandle")
            .field("addr", &self.runtime.addr)
            .finish_non_exhaustive()
    }
}

impl RouterHandle {
    /// The address the router is reachable on.
    pub fn addr(&self) -> SocketAddr {
        self.runtime.addr
    }

    /// Graceful shutdown: stops accepting, finishes in-flight
    /// requests, joins every thread. The shards are *not* touched —
    /// they are independent processes with their own lifecycles.
    pub fn shutdown(self) {
        if self.runtime.stop() {
            self.runtime.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Shared state and the upstream leg
// ---------------------------------------------------------------------------

/// The bookkeeping behind one shard's connection pool: the idle
/// connections plus how many are checked out to workers right now.
/// `idle.len() + out` never exceeds the configured cap.
struct Pool {
    idle: Vec<Connection>,
    out: usize,
}

/// One upstream shard: its address and a *bounded* pool of keep-alive
/// connections, plus the per-shard forwarding counters. The bound is
/// load-bearing, not an optimization: a shard worker stays pinned to a
/// keep-alive connection until it closes, so a router that dialed an
/// unbounded number of connections would park most of them in the
/// shard's accept queue behind pinned workers — each stranded request
/// stalling until some other connection idles out. Checkout therefore
/// blocks for a free connection (or a permit to dial) instead.
struct Shard {
    name: String,
    cap: usize,
    timeout: Duration,
    pool: Mutex<Pool>,
    checkout: Condvar,
    requests: Counter,
    errors: Counter,
}

impl Shard {
    /// Sends one request to this shard over a pooled connection and
    /// returns the response; the connection goes back to the pool
    /// while it stays usable.
    fn call(
        &self,
        method: &str,
        target: &str,
        content_type: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Headers, Vec<u8>)> {
        self.requests.inc();
        let mut conn = match self.checkout() {
            Ok(Some(conn)) => conn,
            Ok(None) => match Connection::connect(self.name.as_str(), self.timeout) {
                Ok(conn) => conn,
                Err(e) => {
                    self.release(None);
                    self.errors.inc();
                    return Err(e);
                }
            },
            Err(e) => {
                self.errors.inc();
                return Err(e);
            }
        };
        match conn.request_typed(method, target, content_type, body) {
            Ok(response) => {
                self.release(conn.is_connected().then_some(conn));
                Ok(response)
            }
            Err(e) => {
                self.release(None);
                self.errors.inc();
                Err(e)
            }
        }
    }

    /// Blocks until this shard has capacity: `Ok(Some)` is a pooled
    /// connection to reuse, `Ok(None)` a permit to dial a new one.
    /// Either way the caller owns one slot and must [`release`] it.
    ///
    /// # Errors
    ///
    /// `TimedOut` when the pool stays saturated past the request
    /// timeout.
    ///
    /// [`release`]: Shard::release
    fn checkout(&self) -> std::io::Result<Option<Connection>> {
        let deadline = Instant::now() + self.timeout;
        let mut pool = self.pool.lock().expect("shard pool poisoned");
        loop {
            if let Some(conn) = pool.idle.pop() {
                pool.out += 1;
                return Ok(Some(conn));
            }
            if pool.out < self.cap {
                pool.out += 1;
                return Ok(None);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "upstream connection pool saturated",
                ));
            }
            pool = self
                .checkout
                .wait_timeout(pool, deadline - now)
                .expect("shard pool poisoned")
                .0;
        }
    }

    /// Returns a checkout's slot, and the connection itself when it is
    /// still usable (`None` drops the slot so a waiter may redial).
    fn release(&self, conn: Option<Connection>) {
        let mut pool = self.pool.lock().expect("shard pool poisoned");
        pool.out -= 1;
        if let Some(conn) = conn {
            pool.idle.push(conn);
        }
        drop(pool);
        self.checkout.notify_one();
    }
}

/// Everything the router's workers share.
struct RouterState {
    shards: Vec<Shard>,
    /// Shard names, index-aligned with `shards` (the rendezvous
    /// functions take the name list).
    names: Vec<String>,
    registry: Registry,
    requests_total: Counter,
}

impl RouterState {
    fn new(config: RouterConfig) -> RouterState {
        let registry = Registry::new();
        let requests_total = registry.counter(
            "mobipriv_router_http_requests_total",
            &[],
            "Requests the router has answered (any route, any status)",
        );
        let shards = config
            .shards
            .iter()
            .map(|name| Shard {
                name: name.clone(),
                cap: config.upstream_conns.max(1),
                timeout: config.timeout,
                pool: Mutex::new(Pool {
                    idle: Vec::new(),
                    out: 0,
                }),
                checkout: Condvar::new(),
                requests: registry.counter(
                    "mobipriv_route_requests_total",
                    &[("shard", name)],
                    "Requests forwarded to this shard",
                ),
                errors: registry.counter(
                    "mobipriv_route_errors_total",
                    &[("shard", name)],
                    "Forwarding failures (connect/send/read) toward this shard",
                ),
            })
            .collect();
        RouterState {
            shards,
            names: config.shards,
            registry,
            requests_total,
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// The router answers every request from the whole body: it buffers the
/// body first (it must hash it to pick the owner, and buffering also
/// decouples a slow client from the shard connection; the single-node
/// body limit caps memory), then dispatches.
impl Service for RouterState {
    type Request = ();

    fn open(
        &self,
        read_head: impl FnOnce() -> Result<RequestHead, ServiceError>,
    ) -> ((), Result<RequestHead, ServiceError>) {
        ((), read_head())
    }

    fn respond(&self, (): &(), head: &RequestHead, body: &mut RequestBody<'_>) -> Response {
        let mut buffered = Vec::new();
        let received = body.stream(head, |chunk| {
            buffered.extend_from_slice(chunk);
            Ok(())
        });
        match received {
            Ok(_) => dispatch(head, &buffered, self),
            Err(e) => Response::from_error(&e),
        }
    }

    fn close(
        &self,
        (): (),
        response: Response,
        write: impl FnOnce(&Response) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        self.requests_total.inc();
        write(&response)
    }
}

impl Response {
    /// A shard's answer, re-framed for the client: the hop-by-hop
    /// headers are dropped (the runtime writes its own), the body stays
    /// byte-identical.
    fn forwarded(status: u16, headers: Headers, body: Vec<u8>) -> Response {
        let headers = headers
            .into_iter()
            .filter(|(name, _)| name != "content-length" && name != "connection")
            .map(|(name, value)| (Cow::Owned(name), value))
            .collect();
        Response {
            status,
            headers,
            body: Body::Owned(body),
        }
    }
}

/// Re-encodes a parsed head back into a request target. The head
/// stores *decoded* path segments and query pairs, so each component
/// is percent-encoded again before going on the wire.
fn forward_target(head: &RequestHead) -> String {
    let mut target: String = head
        .path
        .split('/')
        .map(percent_encode)
        .collect::<Vec<_>>()
        .join("/");
    if target.is_empty() {
        target.push('/');
    }
    for (i, (name, value)) in head.query.iter().enumerate() {
        target.push(if i == 0 { '?' } else { '&' });
        target.push_str(&percent_encode(name));
        target.push('=');
        target.push_str(&percent_encode(value));
    }
    target
}

/// Percent-encodes everything outside the RFC 3986 unreserved set.
fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char);
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Routes one buffered request to its answer.
fn dispatch(head: &RequestHead, body: &[u8], state: &RouterState) -> Response {
    let target = forward_target(head);
    match (head.method.as_str(), head.path.as_str()) {
        ("GET", "/healthz") => health(state),
        ("GET", "/metrics") => {
            let text = fold_shards(state).0.render_prometheus();
            Response::ok("text/plain; version=0.0.4", text.into_bytes())
        }
        ("GET", "/v1/stats") => match fold_shards(state) {
            (_, 0) => Response::from_error(&ServiceError::Unavailable("no shard reachable".into())),
            (folded, _) => Response::json(200, &stats_json(&folded)),
        },
        ("GET", "/v1/route") => route_debug(head, state),
        ("GET", "/v1/datasets" | "/v1/jobs") => merge_lists(state, &target),
        ("POST", "/v1/anonymize" | "/v1/datasets") => {
            let key = match head.query_param("dataset") {
                Some(digest) => digest.to_owned(),
                None => body_key(head, body),
            };
            keyed(state, &key, head, body, &target)
        }
        ("POST", "/v1/jobs") => {
            // Jobs always reference a registered digest; a missing
            // parameter still forwards (deterministically) so the
            // shard's own 400 reaches the client byte-identical.
            let key = head.query_param("dataset").unwrap_or("").to_owned();
            keyed(state, &key, head, body, &target)
        }
        ("GET", path) if path.strip_prefix("/v1/datasets/").is_some() => {
            let digest = path.strip_prefix("/v1/datasets/").expect("guarded");
            keyed(state, digest, head, body, &target)
        }
        ("GET", path)
            if path.starts_with("/v1/jobs/")
                || path.starts_with("/v1/results/")
                || path.starts_with("/v1/traces/") =>
        {
            find_anywhere(state, head, &target)
        }
        // Everything else — the stateless endpoints (/v1/mechanisms,
        // /v1/evaluate), unknown paths and wrong methods — forwards to
        // any live shard so status and body match a single node.
        _ => any_shard(state, head, body, &target),
    }
}

/// The placement key for a body-carrying request without a `dataset`
/// parameter: the content digest of the parsed dataset (identical to
/// what the owning shard will compute), falling back to a digest of
/// the raw bytes when the body does not parse — the forward still has
/// to be deterministic so the shard's 400 is reproducible.
fn body_key(head: &RequestHead, body: &[u8]) -> String {
    if let Ok(format) = body_format(head) {
        let mut stream = DatasetStream::new(format);
        if stream.push_chunk(body).is_ok() {
            if let Ok(dataset) = stream.finish() {
                return dataset_digest(&dataset);
            }
        }
    }
    digest_hex(body)
}

/// The request's `content-type`, forwarded verbatim (the shard sniffs
/// the body format from it when no `format` parameter is present).
fn content_type(head: &RequestHead) -> &str {
    head.header("content-type").unwrap_or("text/csv")
}

/// Forwards to the single owning shard — no failover: a dead owner
/// 503s its own key range and nothing else.
fn keyed(
    state: &RouterState,
    key: &str,
    head: &RequestHead,
    body: &[u8],
    target: &str,
) -> Response {
    let Some(owner) = rendezvous_owner(&state.names, key) else {
        return Response::from_error(&ServiceError::Unavailable("no shards configured".into()));
    };
    let shard = &state.shards[owner];
    match shard.call(&head.method, target, content_type(head), body) {
        Ok((status, headers, body)) => Response::forwarded(status, headers, body),
        Err(e) => Response::from_error(&ServiceError::Unavailable(format!(
            "shard {} unreachable: {e}",
            shard.name
        ))),
    }
}

/// Forwards to the highest-ranked live shard (stateless routes, where
/// any shard answers identically): tries the rendezvous order for the
/// target until one responds.
fn any_shard(state: &RouterState, head: &RequestHead, body: &[u8], target: &str) -> Response {
    for index in rendezvous_rank(&state.names, target) {
        let shard = &state.shards[index];
        if let Ok((status, headers, body)) =
            shard.call(&head.method, target, content_type(head), body)
        {
            return Response::forwarded(status, headers, body);
        }
    }
    Response::from_error(&ServiceError::Unavailable("no shard reachable".into()))
}

/// Fans a GET out to every shard and answers with the first non-404
/// response — job ids, result keys and trace ids are content addresses
/// the router cannot invert to a dataset digest. All-404 forwards the
/// last 404 (byte-identical to a single node's); a 404 with an
/// unreachable shard in the mix is a 503, because the missing shard
/// may hold the answer.
fn find_anywhere(state: &RouterState, head: &RequestHead, target: &str) -> Response {
    let mut dead = 0usize;
    let mut last_miss: Option<Response> = None;
    for shard in &state.shards {
        match shard.call(&head.method, target, "text/csv", &[]) {
            Ok((404, headers, body)) => last_miss = Some(Response::forwarded(404, headers, body)),
            Ok((status, headers, body)) => return Response::forwarded(status, headers, body),
            Err(_) => dead += 1,
        }
    }
    if dead > 0 {
        return Response::from_error(&ServiceError::Unavailable(format!(
            "{dead} shard(s) unreachable while resolving {target}"
        )));
    }
    last_miss.unwrap_or_else(|| Response::from_error(&ServiceError::NotFound(head.path.clone())))
}

/// `GET /healthz` — liveness of the router itself (always `200`);
/// `ready` only when every shard answered `ready`, `degraded`
/// otherwise, mirroring the single-node body contract.
fn health(state: &RouterState) -> Response {
    let all_ready = state.shards.iter().all(|shard| {
        matches!(
            shard.call("GET", "/healthz", "text/csv", &[]),
            Ok((200, _, body)) if body == b"ready\n"
        )
    });
    let body = if all_ready { "ready\n" } else { "degraded\n" };
    Response::ok("text/plain", body.as_bytes().to_vec())
}

/// `GET /v1/route?key=…` — the placement debug endpoint: which shard
/// owns a key, and the full failover rank. The shard-smoke harness
/// uses it to learn each digest's owner before killing a shard.
fn route_debug(head: &RequestHead, state: &RouterState) -> Response {
    let Some(key) = head.query_param("key") else {
        return Response::from_error(&ServiceError::BadRequest(
            "missing required parameter `key`".into(),
        ));
    };
    let Some(owner) = rendezvous_owner(&state.names, key) else {
        return Response::from_error(&ServiceError::Unavailable("no shards configured".into()));
    };
    let rank: Vec<Json> = rendezvous_rank(&state.names, key)
        .into_iter()
        .map(|i| Json::Str(state.names[i].clone()))
        .collect();
    Response::json(
        200,
        &Json::Obj(vec![
            ("key".to_owned(), Json::Str(key.to_owned())),
            ("shard".to_owned(), Json::Str(state.names[owner].clone())),
            ("rank".to_owned(), Json::Arr(rank)),
        ]),
    )
}

/// `GET`s `target` from every shard at once: the bodies of the `200`
/// answers, in shard order (an unreachable shard contributes nothing;
/// its keyed routes are already 503ing).
fn gather(state: &RouterState, target: &str) -> Vec<String> {
    // One thread per shard: a scrape costs the slowest shard's
    // latency, not the sum of them.
    let answers = fan_out(&state.shards, Some(state.shards.len()), |_, shard| {
        shard.call("GET", target, "text/csv", &[])
    });
    answers
        .into_iter()
        .filter_map(|answer| match answer {
            Ok((200, _, body)) => String::from_utf8(body).ok(),
            _ => None,
        })
        .collect()
}

/// Scrapes every reachable shard's `/metrics`, folds the scrapes
/// exactly (counters and gauges sum, histogram buckets add) and
/// absorbs the router's own `mobipriv_route_*` registry — the one
/// cluster view behind both `GET /metrics` and `GET /v1/stats`.
/// Returns the fold and how many shards contributed to it.
fn fold_shards(state: &RouterState) -> (Registry, usize) {
    let scrapes: Vec<Scrape> = gather(state, "/metrics")
        .iter()
        .filter_map(|text| scrape::parse(text).ok())
        .collect();
    let refs: Vec<&Scrape> = scrapes.iter().collect();
    let folded = Scrape::fold(&refs);
    folded.absorb(&state.registry);
    (folded, scrapes.len())
}

/// `GET /v1/datasets` / `GET /v1/jobs` — fans out and concatenates the
/// per-shard listings; the listing stays available while any shard
/// answers.
fn merge_lists(state: &RouterState, target: &str) -> Response {
    let listings = gather(state, target);
    if listings.is_empty() {
        return Response::from_error(&ServiceError::Unavailable("no shard reachable".into()));
    }
    let merged = listings
        .iter()
        .filter_map(|text| match Json::parse(text) {
            Ok(Json::Arr(items)) => Some(items),
            _ => None,
        })
        .flatten()
        .collect();
    Response::json(200, &Json::Arr(merged))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:9{i:03}")).collect()
    }

    #[test]
    fn owner_is_stable_under_reordering() {
        let mut shards = shard_names(5);
        let owner =
            |shards: &[String], key: &str| shards[rendezvous_owner(shards, key).unwrap()].clone();
        let keys: Vec<String> = (0..50).map(|i| format!("key-{i}")).collect();
        let baseline: Vec<String> = keys.iter().map(|k| owner(&shards, k)).collect();
        shards.reverse();
        let reversed: Vec<String> = keys.iter().map(|k| owner(&shards, k)).collect();
        assert_eq!(baseline, reversed);
        shards.swap(0, 2);
        let swapped: Vec<String> = keys.iter().map(|k| owner(&shards, k)).collect();
        assert_eq!(baseline, swapped);
    }

    #[test]
    fn removal_only_remaps_the_lost_shards_keys() {
        let shards = shard_names(4);
        let keys: Vec<String> = (0..200)
            .map(|i| format!("{:016x}", mix64(i as u64)))
            .collect();
        let before: Vec<usize> = keys
            .iter()
            .map(|k| rendezvous_owner(&shards, k).unwrap())
            .collect();
        let survivors: Vec<String> = shards[..3].to_vec();
        for (key, &owner_before) in keys.iter().zip(&before) {
            let after = rendezvous_owner(&survivors, key).unwrap();
            if owner_before < 3 {
                assert_eq!(after, owner_before, "surviving shard's key {key} moved");
            }
        }
    }

    #[test]
    fn assignment_is_roughly_balanced() {
        let shards = shard_names(4);
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            let key = format!("{:016x}", mix64(i));
            counts[rendezvous_owner(&shards, &key).unwrap()] += 1;
        }
        for &count in &counts {
            assert!(
                (600..=1400).contains(&count),
                "skewed placement: {counts:?}"
            );
        }
    }

    #[test]
    fn rank_starts_at_owner_and_permutes_all_shards() {
        let shards = shard_names(6);
        let rank = rendezvous_rank(&shards, "some-digest");
        assert_eq!(rank[0], rendezvous_owner(&shards, "some-digest").unwrap());
        let mut sorted = rank.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn forward_target_round_trips_query_encoding() {
        let head = RequestHead {
            method: "POST".to_owned(),
            path: "/v1/anonymize".to_owned(),
            query: vec![
                ("mechanism".to_owned(), "promesse".to_owned()),
                ("cell".to_owned(), "a b,c".to_owned()),
            ],
            headers: vec![],
            http11: true,
        };
        assert_eq!(
            forward_target(&head),
            "/v1/anonymize?mechanism=promesse&cell=a%20b%2Cc"
        );
    }
}
