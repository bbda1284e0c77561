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
//! `mix(fnv1a64(shard ‖ 0x00 ‖ key))` and the highest score owns the
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
//!   over a pooled keep-alive [`Connection`](crate::client::Connection)
//!   and get **no failover**: a dead shard turns its own key range into
//!   `503`s (counted per shard in `mobipriv_route_errors_total`) while
//!   every other range keeps serving.
//! * Id-based lookups (`/v1/jobs/:id`, `/v1/results/:key`,
//!   `/v1/traces/:id`) are not invertible to a dataset digest, so they
//!   fan out and the first non-404 answer wins.
//! * `GET /metrics` and `GET /v1/stats` fan out to every shard and
//!   *fold*: counters, gauges and histogram buckets sum exactly
//!   ([`Scrape::fold`]), so the router presents cluster totals in the
//!   same exposition format a single node serves.
//! * The body the client sent is forwarded byte-for-byte (the router
//!   parses it only to learn the digest), so responses stay
//!   byte-identical to a single-node deployment.
//!
//! The downstream (client-facing) side speaks the same persistent
//! HTTP/1.1 the single-node server does: keep-alive with idle
//! deadlines, a per-connection request cap, and graceful drain on
//! shutdown.

use std::io::{BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mobipriv_eval::Json;
use mobipriv_model::digest::{dataset_digest, digest_hex, fnv1a64};
use mobipriv_model::DatasetStream;
use mobipriv_obs::logging::{self, FieldValue};
use mobipriv_obs::metrics::{render_merged, Counter, Registry};
use mobipriv_obs::scrape::{self, Scrape};

use crate::client::{Connection, Headers};
use crate::handlers::body_format;
use crate::http::{
    read_head, stream_body, write_response, DeadlineReader, NextRequest, RequestHead,
};
use crate::ServiceError;

/// How often a parked keep-alive connection re-checks the shutdown
/// flag while waiting for its next request (mirrors the single-node
/// server's poll slice).
const IDLE_POLL: Duration = Duration::from_millis(200);

/// Per-read timeout and overall deadline while draining unread body
/// after the last response (mirrors the single-node server).
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

// ---------------------------------------------------------------------------
// Rendezvous hashing
// ---------------------------------------------------------------------------

/// `splitmix64`'s finalizer: a full-avalanche bijection that spreads
/// FNV's weak low bits over the whole word, so comparing scores is fair
/// even for near-identical inputs.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The rendezvous score of `shard` for `key`: the shard with the
/// highest score owns the key. The `0x00` separator keeps
/// `("ab","c")` and `("a","bc")` from colliding.
pub fn rendezvous_score(shard: &str, key: &str) -> u64 {
    let mut bytes = Vec::with_capacity(shard.len() + 1 + key.len());
    bytes.extend_from_slice(shard.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(key.as_bytes());
    mix(fnv1a64(&bytes))
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
        let addr = self.local_addr()?;
        let state = Arc::new(RouterState::new(self.config));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (sender, receiver) =
            std::sync::mpsc::sync_channel::<TcpStream>(state.config.queue_depth);
        let receiver = Arc::new(Mutex::new(receiver));
        let workers: Vec<JoinHandle<()>> = (0..state.config.workers.max(1))
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let state = Arc::clone(&state);
                let shutdown = Arc::clone(&shutdown);
                std::thread::Builder::new()
                    .name(format!("mobipriv-route-{i}"))
                    .spawn(move || worker_loop(&receiver, &state, &shutdown))
                    .expect("spawn router worker thread")
            })
            .collect();
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let state = Arc::clone(&state);
            let listener = self.listener;
            std::thread::Builder::new()
                .name("mobipriv-route-acceptor".to_owned())
                .spawn(move || accept_loop(&listener, sender, &shutdown, &state))
                .expect("spawn router acceptor thread")
        };
        logging::info(
            "service::router",
            None,
            "router listening",
            &[
                ("addr", FieldValue::Str(&addr.to_string())),
                ("shards", FieldValue::U64(state.shards.len() as u64)),
            ],
        );
        Ok(RouterHandle {
            addr,
            shutdown,
            acceptor,
            workers,
        })
    }

    /// Serves until the process exits (the foreground mode of
    /// `mobipriv-serve --route`).
    ///
    /// # Errors
    ///
    /// Propagates `getsockname(2)` failure from [`Router::spawn`].
    pub fn run(self) -> std::io::Result<()> {
        let handle = self.spawn()?;
        let _ = handle.acceptor.join();
        for worker in handle.workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// Control handle for a running router.
pub struct RouterHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for RouterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl RouterHandle {
    /// The address the router is reachable on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stops accepting, finishes in-flight
    /// requests, joins every thread. The shards are *not* touched —
    /// they are independent processes with their own lifecycles.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match self.addr {
                SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
            let _ = self.acceptor.join();
            for worker in self.workers {
                let _ = worker.join();
            }
        }
        // Same exotic-bind caveat as ServerHandle::shutdown: if even
        // loopback cannot connect, the threads are left to exit on the
        // next connection rather than hanging the caller.
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
        timeout: Duration,
        method: &str,
        target: &str,
        content_type: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Headers, Vec<u8>)> {
        self.requests.inc();
        let mut conn = match self.checkout(timeout) {
            Ok(Some(conn)) => conn,
            Ok(None) => match Connection::connect(self.name.as_str(), timeout) {
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
    /// `TimedOut` when the pool stays saturated past `timeout`.
    ///
    /// [`release`]: Shard::release
    fn checkout(&self, timeout: Duration) -> std::io::Result<Option<Connection>> {
        let deadline = Instant::now() + timeout;
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
    config: RouterConfig,
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
        let names = config.shards.clone();
        RouterState {
            config,
            shards,
            names,
            registry,
            requests_total,
        }
    }
}

// ---------------------------------------------------------------------------
// Downstream connection handling
// ---------------------------------------------------------------------------

fn accept_loop(
    listener: &TcpListener,
    sender: SyncSender<TcpStream>,
    shutdown: &AtomicBool,
    state: &RouterState,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let _ = stream.set_read_timeout(Some(state.config.timeout));
        let _ = stream.set_write_timeout(Some(state.config.timeout));
        // Same delayed-ACK hazard as the server's accept loop: a
        // keep-alive response tail must not wait for Nagle.
        let _ = stream.set_nodelay(true);
        match sender.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(stream)) | Err(TrySendError::Disconnected(stream)) => {
                logging::warn(
                    "service::router",
                    None,
                    "connection shed: router queue full",
                    &[(
                        "queue_depth",
                        FieldValue::U64(state.config.queue_depth as u64),
                    )],
                );
                crate::server::shed(stream);
            }
        }
    }
}

fn worker_loop(receiver: &Mutex<Receiver<TcpStream>>, state: &RouterState, shutdown: &AtomicBool) {
    loop {
        let stream = {
            let guard = receiver.lock().expect("router queue mutex poisoned");
            guard.recv()
        };
        match stream {
            Ok(stream) => {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_router_connection(stream, state, shutdown);
                }));
            }
            Err(_) => break,
        }
    }
}

/// Serves one client connection end to end, with the same keep-alive
/// contract as the single-node server: per-request deadlines, an idle
/// deadline between requests, a request cap, close-on-error, and a
/// half-close + bounded drain at the end.
fn handle_router_connection(stream: TcpStream, state: &RouterState, shutdown: &AtomicBool) {
    let config = &state.config;
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = DeadlineReader::new(BufReader::new(read_half), config.timeout);
    let mut writer = stream;
    let mut served: usize = 0;
    loop {
        if served == 0 {
            reader.set_deadline(config.timeout);
        } else if reader.wait_for_request(config.idle_timeout, IDLE_POLL, config.timeout, shutdown)
            != NextRequest::Arrived
        {
            break;
        }
        let (proxied, keep) = match read_head(&mut reader) {
            Ok(head) => {
                if head
                    .header("expect")
                    .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
                {
                    let _ = writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
                    let _ = writer.flush();
                }
                // The whole body is buffered before forwarding: the
                // router must hash it to pick the owner, and buffering
                // also decouples a slow client from the shard
                // connection. The single-node body limit caps memory.
                let mut body = Vec::new();
                let body_ok = match head.framing() {
                    Ok(framing) => {
                        match stream_body(&mut reader, framing, config.max_body_bytes, |chunk| {
                            body.extend_from_slice(chunk);
                            Ok(())
                        }) {
                            Ok(_) => Ok(()),
                            Err(e) => Err(e),
                        }
                    }
                    Err(e) => Err(e),
                };
                let (proxied, body_clean) = match body_ok {
                    Ok(()) => (dispatch(&head, &body, state), true),
                    Err(e) => (Proxied::from_error(&e), false),
                };
                served += 1;
                let keep = head.keep_alive()
                    && proxied.status < 400
                    && body_clean
                    && served < config.max_requests_per_conn
                    && !shutdown.load(Ordering::SeqCst);
                (proxied, keep)
            }
            Err(e) => (Proxied::from_error(&e), false),
        };
        state.requests_total.inc();
        let headers: Vec<(&str, String)> = proxied
            .headers
            .iter()
            .map(|(name, value)| (name.as_str(), value.clone()))
            .collect();
        let io = write_response(
            &mut writer,
            proxied.status,
            proxied.reason,
            &headers,
            &proxied.body,
            keep,
        );
        if !keep || io.is_err() {
            break;
        }
    }
    let drain_limit = config.max_body_bytes.saturating_add(1024 * 1024);
    let _ = writer.shutdown(Shutdown::Write);
    let _ = reader
        .get_ref()
        .get_ref()
        .set_read_timeout(Some(DRAIN_TIMEOUT));
    crate::http::drain(reader.get_mut(), drain_limit, DRAIN_TIMEOUT);
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// A response about to be written downstream: either a shard's answer
/// (hop-by-hop headers stripped; the body byte-identical) or one the
/// router built itself (folds, placement errors).
struct Proxied {
    status: u16,
    reason: &'static str,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Proxied {
    fn forwarded(status: u16, headers: Headers, body: Vec<u8>) -> Proxied {
        let headers = headers
            .into_iter()
            .filter(|(name, _)| name != "content-length" && name != "connection")
            .collect();
        Proxied {
            status,
            reason: reason_for(status),
            headers,
            body,
        }
    }

    fn ok(content_type: &str, body: Vec<u8>) -> Proxied {
        Proxied {
            status: 200,
            reason: "OK",
            headers: vec![("content-type".to_owned(), content_type.to_owned())],
            body,
        }
    }

    fn json(doc: &Json) -> Proxied {
        let mut body = String::new();
        doc.write(&mut body);
        body.push('\n');
        Proxied::ok("application/json", body.into_bytes())
    }

    fn from_error(error: &ServiceError) -> Proxied {
        let (status, reason) = error.status();
        let mut headers = vec![("content-type".to_owned(), "text/plain".to_owned())];
        if let ServiceError::MethodNotAllowed(allow) = error {
            headers.push(("allow".to_owned(), (*allow).to_owned()));
        }
        Proxied {
            status,
            reason,
            headers,
            body: format!("{error}\n").into_bytes(),
        }
    }
}

/// The canonical reason phrase for a forwarded status (the shard's own
/// phrase is not on the parsed-header path; bodies, not phrases, carry
/// the byte-identity guarantee).
fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
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
fn dispatch(head: &RequestHead, body: &[u8], state: &RouterState) -> Proxied {
    let target = forward_target(head);
    match (head.method.as_str(), head.path.as_str()) {
        ("GET", "/healthz") => health(state),
        ("GET", "/metrics") => fold_metrics(state),
        ("GET", "/v1/stats") => fold_stats(state, &target),
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
fn keyed(state: &RouterState, key: &str, head: &RequestHead, body: &[u8], target: &str) -> Proxied {
    let Some(owner) = rendezvous_owner(&state.names, key) else {
        return Proxied::from_error(&ServiceError::Unavailable("no shards configured".into()));
    };
    let shard = &state.shards[owner];
    match shard.call(
        state.config.timeout,
        &head.method,
        target,
        content_type(head),
        body,
    ) {
        Ok((status, headers, body)) => Proxied::forwarded(status, headers, body),
        Err(e) => Proxied::from_error(&ServiceError::Unavailable(format!(
            "shard {} unreachable: {e}",
            shard.name
        ))),
    }
}

/// Forwards to the highest-ranked live shard (stateless routes, where
/// any shard answers identically): tries the rendezvous order for the
/// target until one responds.
fn any_shard(state: &RouterState, head: &RequestHead, body: &[u8], target: &str) -> Proxied {
    for index in rendezvous_rank(&state.names, target) {
        let shard = &state.shards[index];
        if let Ok((status, headers, body)) = shard.call(
            state.config.timeout,
            &head.method,
            target,
            content_type(head),
            body,
        ) {
            return Proxied::forwarded(status, headers, body);
        }
    }
    Proxied::from_error(&ServiceError::Unavailable("no shard reachable".into()))
}

/// Fans a GET out to every shard and answers with the first non-404
/// response — job ids, result keys and trace ids are content addresses
/// the router cannot invert to a dataset digest. All-404 forwards the
/// last 404 (byte-identical to a single node's); a 404 with an
/// unreachable shard in the mix is a 503, because the missing shard
/// may hold the answer.
fn find_anywhere(state: &RouterState, head: &RequestHead, target: &str) -> Proxied {
    let mut dead = 0usize;
    let mut last_miss: Option<Proxied> = None;
    for shard in &state.shards {
        match shard.call(state.config.timeout, &head.method, target, "text/csv", &[]) {
            Ok((404, headers, body)) => last_miss = Some(Proxied::forwarded(404, headers, body)),
            Ok((status, headers, body)) => return Proxied::forwarded(status, headers, body),
            Err(_) => dead += 1,
        }
    }
    if dead > 0 {
        return Proxied::from_error(&ServiceError::Unavailable(format!(
            "{dead} shard(s) unreachable while resolving {target}"
        )));
    }
    last_miss.unwrap_or_else(|| Proxied::from_error(&ServiceError::NotFound(head.path.clone())))
}

/// `GET /healthz` — liveness of the router itself (always `200`);
/// `ready` only when every shard answered `ready`, `degraded`
/// otherwise, mirroring the single-node body contract.
fn health(state: &RouterState) -> Proxied {
    let all_ready = state.shards.iter().all(|shard| {
        matches!(
            shard.call(state.config.timeout, "GET", "/healthz", "text/csv", &[]),
            Ok((200, _, body)) if body == b"ready\n"
        )
    });
    let body = if all_ready { "ready\n" } else { "degraded\n" };
    Proxied::ok("text/plain", body.as_bytes().to_vec())
}

/// `GET /v1/route?key=…` — the placement debug endpoint: which shard
/// owns a key, and the full failover rank. The shard-smoke harness
/// uses it to learn each digest's owner before killing a shard.
fn route_debug(head: &RequestHead, state: &RouterState) -> Proxied {
    let Some(key) = head.query_param("key") else {
        return Proxied::from_error(&ServiceError::BadRequest(
            "missing required parameter `key`".into(),
        ));
    };
    let Some(owner) = rendezvous_owner(&state.names, key) else {
        return Proxied::from_error(&ServiceError::Unavailable("no shards configured".into()));
    };
    let rank: Vec<Json> = rendezvous_rank(&state.names, key)
        .into_iter()
        .map(|i| Json::Str(state.names[i].clone()))
        .collect();
    Proxied::json(&Json::Obj(vec![
        ("key".to_owned(), Json::Str(key.to_owned())),
        ("shard".to_owned(), Json::Str(state.names[owner].clone())),
        ("rank".to_owned(), Json::Arr(rank)),
    ]))
}

/// `GET /metrics` — scrapes every reachable shard, folds the
/// expositions exactly (counters and gauges sum, histogram buckets
/// add) and merges the router's own registry in, so one scrape sees
/// cluster totals plus the `mobipriv_route_*` counters.
fn fold_metrics(state: &RouterState) -> Proxied {
    let mut scrapes: Vec<Scrape> = Vec::new();
    for shard in &state.shards {
        if let Ok((200, _, body)) =
            shard.call(state.config.timeout, "GET", "/metrics", "text/csv", &[])
        {
            if let Some(scrape) = std::str::from_utf8(&body)
                .ok()
                .and_then(|text| scrape::parse(text).ok())
            {
                scrapes.push(scrape);
            }
        }
    }
    let refs: Vec<&Scrape> = scrapes.iter().collect();
    let folded = Scrape::fold(&refs);
    let text = render_merged(&[&state.registry, &folded]);
    Proxied::ok("text/plain; version=0.0.4", text.into_bytes())
}

/// `GET /v1/stats` — fans out and folds the JSON documents: numbers
/// sum, arrays concatenate, objects merge recursively, strings keep
/// the first shard's value.
fn fold_stats(state: &RouterState, target: &str) -> Proxied {
    let mut folded: Option<Json> = None;
    for shard in &state.shards {
        if let Ok((200, _, body)) = shard.call(state.config.timeout, "GET", target, "text/csv", &[])
        {
            if let Some(doc) = std::str::from_utf8(&body)
                .ok()
                .and_then(|text| Json::parse(text).ok())
            {
                match folded.as_mut() {
                    Some(acc) => fold_json(acc, &doc),
                    None => folded = Some(doc),
                }
            }
        }
    }
    match folded {
        Some(doc) => Proxied::json(&doc),
        None => Proxied::from_error(&ServiceError::Unavailable("no shard reachable".into())),
    }
}

/// `GET /v1/datasets` / `GET /v1/jobs` — fans out and concatenates the
/// per-shard listings. Unreachable shards contribute nothing (their
/// keyed routes are already 503ing); the listing stays available.
fn merge_lists(state: &RouterState, target: &str) -> Proxied {
    let mut merged: Vec<Json> = Vec::new();
    let mut reached = 0usize;
    for shard in &state.shards {
        if let Ok((200, _, body)) = shard.call(state.config.timeout, "GET", target, "text/csv", &[])
        {
            reached += 1;
            if let Some(Json::Arr(items)) = std::str::from_utf8(&body)
                .ok()
                .and_then(|text| Json::parse(text).ok())
            {
                merged.extend(items);
            }
        }
    }
    if reached == 0 {
        return Proxied::from_error(&ServiceError::Unavailable("no shard reachable".into()));
    }
    Proxied::json(&Json::Arr(merged))
}

/// Recursive JSON fold for `/v1/stats`: numeric leaves sum, arrays
/// concatenate, objects merge key-wise; anything else keeps the first
/// value seen.
fn fold_json(acc: &mut Json, add: &Json) {
    match (acc, add) {
        (Json::Obj(a), Json::Obj(b)) => {
            for (key, value) in b {
                match a.iter_mut().find(|(k, _)| k == key) {
                    Some((_, slot)) => fold_json(slot, value),
                    None => a.push((key.clone(), value.clone())),
                }
            }
        }
        (Json::Arr(a), Json::Arr(b)) => a.extend(b.iter().cloned()),
        (Json::UInt(a), Json::UInt(b)) => *a = a.saturating_add(*b),
        (Json::Num(a), Json::Num(b)) => *a += b,
        (acc @ Json::UInt(_), Json::Num(b)) => {
            if let Json::UInt(a) = *acc {
                *acc = Json::Num(a as f64 + b);
            }
        }
        (Json::Num(a), Json::UInt(b)) => *a += *b as f64,
        _ => {}
    }
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
            .map(|i| format!("{:016x}", mix(i as u64)))
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
            let key = format!("{:016x}", mix(i));
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

    #[test]
    fn fold_json_sums_numbers_and_concatenates_arrays() {
        let mut acc = Json::parse(r#"{"count":3,"ratio":0.5,"items":[1],"name":"a"}"#).unwrap();
        let add =
            Json::parse(r#"{"count":4,"ratio":0.25,"items":[2],"name":"b","extra":1}"#).unwrap();
        fold_json(&mut acc, &add);
        assert_eq!(acc.get("count").and_then(Json::as_u64), Some(7));
        assert_eq!(acc.get("ratio").and_then(Json::as_f64), Some(0.75));
        assert_eq!(
            acc.get("items").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(acc.get("name").and_then(Json::as_str), Some("a"));
        assert_eq!(acc.get("extra").and_then(Json::as_u64), Some(1));
    }
}
