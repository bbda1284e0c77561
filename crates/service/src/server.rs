//! The serving runtime: a bounded accept queue feeding a fixed pool of
//! worker threads, one persistent connection per worker at a time.
//!
//! The single node ([`Server`]) and the shard router
//! ([`Router`](crate::Router)) both run on it. The runtime owns the
//! connection; a service supplies only what differs per request. The
//! node's service is its [`AppState`] (`handlers.rs`: routes, spans,
//! request metrics and the trace store); the router's is its placement
//! table (`router.rs`: body buffering, forwarding and the cluster
//! folds).
//!
//! # Request lifecycle
//!
//! 1. The acceptor thread `accept()`s a connection, applies the socket
//!    timeouts, counts it into the queue depth and `try_send`s it into
//!    a bounded queue.
//! 2. If the queue is full the acceptor undoes the count, immediately
//!    answers `503` and drops the connection — load shedding happens
//!    before any parsing, so an overloaded server stays responsive.
//! 3. A worker thread pops the connection, parses the request head,
//!    answers `Expect: 100-continue`, hands the head and the still
//!    unread body to the service, and writes its response. The
//!    connection then persists (HTTP/1.1 keep-alive): the same worker
//!    serves follow-up requests on the socket until the client closes,
//!    the idle deadline fires, the per-connection request cap is
//!    reached, or the server drains for shutdown.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] (and the router's) flips a flag, wakes
//! the acceptor with a loopback connection, and joins every thread:
//! requests already queued or in flight complete (idle keep-alive
//! connections notice the flag within one poll slice and close after
//! their current request); new connections are refused.

use std::borrow::Cow;
use std::io::{BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use mobipriv_core::Engine;
use mobipriv_eval::Json;
use mobipriv_obs::logging::{self, FieldValue};
use mobipriv_obs::metrics::{Counter, Gauge};

use crate::breaker::ResilienceConfig;
use crate::cache::CachedResult;
use crate::chaos::ChaosConfig;
use crate::http::{
    read_head, reason_phrase, stream_body, write_response, BodyFraming, DeadlineReader,
    NextRequest, RequestHead,
};
use crate::state::AppState;
use crate::ServiceError;

/// How often a parked keep-alive connection re-checks the shutdown
/// flag (and its idle deadline) while waiting for the next request —
/// bounds how long graceful drain waits on idle connections.
const IDLE_POLL: Duration = Duration::from_millis(200);

/// Per-read timeout *and* overall deadline while draining unread body
/// after responding: bounds a stalled or trickling client's hold on a
/// worker once its response is on the wire.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// Tunables for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads (each handles one request at a time).
    pub workers: usize,
    /// Connections the acceptor may queue ahead of the workers before
    /// shedding load with `503`s.
    pub queue_depth: usize,
    /// Upper bound on a request body, after transfer decoding.
    pub max_body_bytes: u64,
    /// The engine requests run on. The default is sequential: request
    /// throughput comes from the worker pool, and responses stay
    /// bit-identical to any other engine configuration by the engine's
    /// determinism guarantee.
    pub engine: Engine,
    /// Per-socket read/write timeout (also the whole-request budget).
    pub timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Requests served on one connection before the server closes it
    /// (`connection: close` on the last response) — bounds how long a
    /// single client can pin a worker and re-balances long-lived
    /// clients across the pool.
    pub max_requests_per_conn: usize,
    /// Executor threads draining the async job queue.
    pub job_workers: usize,
    /// Jobs the board may queue ahead of the executors before
    /// submissions shed load with `503`s.
    pub job_queue_depth: usize,
    /// Byte budget for the dataset registry (canonical CSV bytes;
    /// least-recently-used datasets are evicted past it).
    pub dataset_budget_bytes: u64,
    /// Byte budget for the result cache (completed response bodies;
    /// least-recently-used results are evicted past it).
    pub result_budget_bytes: u64,
    /// Root directory for the persistence layer ([`crate::store`]):
    /// datasets and finished results are written through to disk and
    /// recovered on the next boot. `None` (the default) keeps the
    /// server pure in-memory.
    pub data_dir: Option<std::path::PathBuf>,
    /// Failure-domain tunables: per-request compute budget ceiling,
    /// retry/backoff schedule, breaker thresholds, degradation
    /// watermark.
    pub resilience: ResilienceConfig,
    /// Fault-injection campaign (`--chaos` / `MOBIPRIV_CHAOS`); `None`
    /// (the default) disarms the injector entirely.
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 64,
            max_body_bytes: 64 * 1024 * 1024,
            engine: Engine::sequential(),
            timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(5),
            max_requests_per_conn: 1000,
            job_workers: 2,
            job_queue_depth: 64,
            dataset_budget_bytes: 512 * 1024 * 1024,
            result_budget_bytes: 256 * 1024 * 1024,
            data_dir: None,
            resilience: ResilienceConfig::default(),
            chaos: None,
        }
    }
}

/// A bound-but-not-yet-serving server (the two-phase split lets callers
/// learn the ephemeral port before traffic starts).
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
}

impl Server {
    /// Binds the listening socket.
    ///
    /// # Errors
    ///
    /// Returns the `bind(2)` error (address in use, permission, …).
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server { listener, config })
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
    /// shutdown. With [`ServerConfig::data_dir`] set, opens the store
    /// and recovers the previous serving state first — requests are
    /// answered from the warm cache from the very first connection.
    ///
    /// # Errors
    ///
    /// Propagates `getsockname(2)` failure and store open failure.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let config = self.config;
        let (state, job_receiver) = AppState::new(
            config.engine,
            config.dataset_budget_bytes,
            config.result_budget_bytes,
            config.job_queue_depth,
            config.data_dir.as_deref(),
            config.resilience,
            config.chaos,
        )?;
        let limits = Limits {
            workers: config.workers,
            queue_depth: config.queue_depth,
            max_body_bytes: config.max_body_bytes,
            timeout: config.timeout,
            idle_timeout: config.idle_timeout,
            max_requests_per_conn: config.max_requests_per_conn,
        };
        let queue = QueueMetrics {
            depth: state.metrics.queue_depth.clone(),
            peak: state.metrics.queue_depth_peak.clone(),
            shed: state.metrics.shed_total.clone(),
        };
        let runtime = Runtime::spawn(self.listener, limits, Arc::clone(&state), queue)?;
        let executor = Arc::clone(&state);
        let job_workers = spawn_pool(
            "mobipriv-job",
            config.job_workers,
            job_receiver,
            move |job| {
                crate::jobs::run_job(&job, &executor);
            },
        );
        logging::info(
            "service::server",
            None,
            "server listening",
            &[
                ("addr", FieldValue::Str(&runtime.addr.to_string())),
                ("workers", FieldValue::U64(config.workers.max(1) as u64)),
                (
                    "job_workers",
                    FieldValue::U64(config.job_workers.max(1) as u64),
                ),
            ],
        );
        Ok(ServerHandle {
            runtime,
            job_workers,
            state,
        })
    }

    /// Serves until the process exits (the foreground mode of
    /// `mobipriv-serve`).
    ///
    /// # Errors
    ///
    /// Propagates `getsockname(2)` failure from [`Server::spawn`].
    pub fn run(self) -> std::io::Result<()> {
        let handle = self.spawn()?;
        handle.join();
        Ok(())
    }
}

/// Control handle for a running server.
pub struct ServerHandle {
    runtime: Runtime,
    job_workers: Vec<JoinHandle<()>>,
    state: Arc<AppState>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.runtime.addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The address the server is reachable on.
    pub fn addr(&self) -> SocketAddr {
        self.runtime.addr
    }

    /// The shared serving state (registry, cache, job board) — exposed
    /// for in-process tests and benchmarks.
    pub fn state(&self) -> &AppState {
        &self.state
    }

    /// Graceful shutdown: stops accepting, finishes queued and
    /// in-flight requests *and jobs*, joins every thread.
    pub fn shutdown(self) {
        logging::info(
            "service::server",
            None,
            "server shutting down",
            &[("addr", FieldValue::Str(&self.runtime.addr.to_string()))],
        );
        let stopped = self.runtime.stop();
        self.state.jobs.close();
        if stopped {
            self.join();
        }
    }

    /// Blocks until the server stops (via [`ServerHandle::shutdown`]
    /// from another thread, or never).
    fn join(self) {
        self.runtime.join();
        // The HTTP workers are gone, so no new submissions can arrive;
        // closing the board (idempotent) unblocks the executors once
        // the queued jobs drain.
        self.state.jobs.close();
        for worker in self.job_workers {
            let _ = worker.join();
        }
    }
}

/// Starts `threads` threads (`{name}-{i}`) that run `handle` on each
/// item `receiver` yields, until its sender is dropped and the queue
/// drained. A panicking `handle` must not shrink the fixed pool: the
/// item (a connection, a job) is lost, the thread survives.
fn spawn_pool<T: Send + 'static>(
    name: &str,
    threads: usize,
    receiver: Receiver<T>,
    handle: impl Fn(T) + Send + Sync + 'static,
) -> Vec<JoinHandle<()>> {
    let receiver = Arc::new(Mutex::new(receiver));
    let handle = Arc::new(handle);
    (0..threads.max(1))
        .map(|i| {
            let (receiver, handle) = (Arc::clone(&receiver), Arc::clone(&handle));
            let run = move || loop {
                let item = receiver.lock().expect("queue mutex poisoned").recv();
                let Ok(item) = item else {
                    break; // sender gone and queue drained: shutdown
                };
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle(item)));
            };
            std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(run)
                .expect("spawn pool thread")
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The runtime both the node and the router run on
// ---------------------------------------------------------------------------

/// What a serving process does with one request; the runtime does
/// everything around it (queueing, framing, keep-alive, drain).
pub(crate) trait Service: Send + Sync + 'static {
    /// Per-request state, from the request's first byte to its written
    /// response.
    type Request;

    /// Opens the next request on a connection: `read_head` parses its
    /// head off the wire (what to time or record around it is the
    /// service's choice).
    fn open(
        &self,
        read_head: impl FnOnce() -> Result<RequestHead, ServiceError>,
    ) -> (Self::Request, Result<RequestHead, ServiceError>);

    /// Answers a parsed request. Its body, if any, is still unread
    /// behind `body`; a body left unread closes the connection after
    /// the response.
    fn respond(
        &self,
        request: &Self::Request,
        head: &RequestHead,
        body: &mut RequestBody<'_>,
    ) -> Response;

    /// Closes a request: `write` puts `response` on the wire (every
    /// response passes here, the runtime's own error responses too).
    fn close(
        &self,
        request: Self::Request,
        response: Response,
        write: impl FnOnce(&Response) -> std::io::Result<()>,
    ) -> std::io::Result<()>;
}

/// A response body: built for this request, or shared out of the
/// result cache (hits serve the cached bytes without copying them).
pub(crate) enum Body {
    Owned(Vec<u8>),
    Cached(Arc<CachedResult>),
}

impl Body {
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            Body::Owned(bytes) => bytes,
            Body::Cached(result) => &result.body,
        }
    }
}

/// A fully materialized response, written in one shot after the service
/// answers (so an error can still replace the whole response). The
/// reason phrase, `content-length` and `connection` are the runtime's
/// to add.
pub(crate) struct Response {
    pub(crate) status: u16,
    pub(crate) headers: Vec<(Cow<'static, str>, String)>,
    pub(crate) body: Body,
}

impl Response {
    pub(crate) fn ok(content_type: &str, body: Vec<u8>) -> Response {
        Response {
            status: 200,
            headers: vec![("content-type".into(), content_type.to_owned())],
            body: Body::Owned(body),
        }
    }

    pub(crate) fn json(status: u16, doc: &Json) -> Response {
        let mut body = String::new();
        doc.write(&mut body);
        body.push('\n');
        Response {
            status,
            headers: vec![("content-type".into(), "application/json".to_owned())],
            body: Body::Owned(body.into_bytes()),
        }
    }

    pub(crate) fn from_error(error: &ServiceError) -> Response {
        let (status, _) = error.status();
        let mut headers = vec![("content-type".into(), "text/plain".to_owned())];
        if let ServiceError::MethodNotAllowed(allow) = error {
            headers.push(("allow".into(), (*allow).to_owned()));
        }
        if let ServiceError::Overloaded(retry_after_s) = error {
            headers.push(("retry-after".into(), retry_after_s.to_string()));
        }
        Response {
            status,
            headers,
            body: Body::Owned(format!("{error}\n").into_bytes()),
        }
    }
}

/// A request's body, still on the wire.
pub(crate) struct RequestBody<'a> {
    reader: &'a mut DeadlineReader<BufReader<TcpStream>>,
    max_bytes: u64,
}

impl RequestBody<'_> {
    /// Streams the body `head` frames into `sink` in bounded chunks,
    /// enforcing the body limit (see [`stream_body`]); returns its size.
    pub(crate) fn stream(
        &mut self,
        head: &RequestHead,
        sink: impl FnMut(&[u8]) -> Result<(), ServiceError>,
    ) -> Result<u64, ServiceError> {
        stream_body(self.reader, head.framing()?, self.max_bytes, sink)
    }

    /// The client's address, for log lines.
    pub(crate) fn peer(&self) -> String {
        self.reader
            .get_ref()
            .get_ref()
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "unknown".to_owned())
    }
}

/// The connection-layer knobs `ServerConfig` and `RouterConfig` share
/// (each documents them on its own fields).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Limits {
    pub(crate) workers: usize,
    pub(crate) queue_depth: usize,
    pub(crate) max_body_bytes: u64,
    pub(crate) timeout: Duration,
    pub(crate) idle_timeout: Duration,
    pub(crate) max_requests_per_conn: usize,
}

/// The accept queue's accounting. The node registers these handles as
/// `mobipriv_http_queue_depth`, `mobipriv_http_queue_depth_peak` and
/// `mobipriv_http_shed_total`; the router exports none of them.
#[derive(Clone, Default)]
pub(crate) struct QueueMetrics {
    pub(crate) depth: Gauge,
    pub(crate) peak: Gauge,
    pub(crate) shed: Counter,
}

/// A running acceptor and worker pool.
pub(crate) struct Runtime {
    pub(crate) addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// Starts the acceptor and `limits.workers` workers serving
    /// `service` on `listener`.
    ///
    /// # Errors
    ///
    /// Propagates `getsockname(2)` failure.
    pub(crate) fn spawn<S: Service>(
        listener: TcpListener,
        limits: Limits,
        service: Arc<S>,
        queue: QueueMetrics,
    ) -> std::io::Result<Runtime> {
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (sender, receiver) = std::sync::mpsc::sync_channel::<TcpStream>(limits.queue_depth);
        let workers = {
            let (shutdown, depth) = (Arc::clone(&shutdown), queue.depth.clone());
            spawn_pool("mobipriv-worker", limits.workers, receiver, move |stream| {
                depth.add(-1);
                serve_connection(stream, &limits, &*service, &shutdown);
            })
        };
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("mobipriv-acceptor".to_owned())
                .spawn(move || accept_loop(&listener, sender, &shutdown, &limits, &queue))
                .expect("spawn acceptor thread")
        };
        Ok(Runtime {
            addr,
            shutdown,
            acceptor,
            workers,
        })
    }

    /// Stops accepting: flags the drain and wakes the blocking
    /// `accept()` with a throwaway connection. Returns whether the
    /// wake-up got through, i.e. whether [`Runtime::join`] will return.
    pub(crate) fn stop(&self) -> bool {
        self.shutdown.store(true, Ordering::SeqCst);
        // A wildcard bind (0.0.0.0 / ::) is not connectable everywhere,
        // so aim the wake-up at loopback on the bound port. If even
        // loopback is unreachable (exotic bind), the acceptor may still
        // be blocked in accept(); joining would hang the caller
        // forever, so the threads are left detached instead — they
        // exit on the next connection or at process end.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match self.addr {
                SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok()
    }

    /// Blocks until the acceptor and every worker have exited (after
    /// [`Runtime::stop`], or never).
    pub(crate) fn join(self) {
        let _ = self.acceptor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    sender: SyncSender<TcpStream>,
    shutdown: &AtomicBool,
    limits: &Limits,
    queue: &QueueMetrics,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Persistent accept failures (EMFILE under fd
                // exhaustion) would otherwise busy-spin this thread at
                // 100% exactly when the server is overloaded.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            break; // the wake-up connection (or racing clients) land here
        }
        let _ = stream.set_read_timeout(Some(limits.timeout));
        let _ = stream.set_write_timeout(Some(limits.timeout));
        // Keep-alive turns a connection into a sequence of small
        // request/response exchanges; with Nagle on, the tail of a
        // response can sit waiting for the client's delayed ACK
        // (~40 ms) because nothing else is coming to flush it. Closing
        // the socket used to hide this; a reused one cannot.
        let _ = stream.set_nodelay(true);
        // Count before the hand-off: once the socket is in the queue a
        // worker may dequeue it (and subtract) before this thread runs
        // again, which would read as a negative depth.
        let depth = queue.depth.add(1);
        match sender.try_send(stream) {
            Ok(()) => queue.peak.record_max(depth),
            Err(TrySendError::Full(stream)) | Err(TrySendError::Disconnected(stream)) => {
                queue.depth.add(-1);
                queue.shed.inc();
                logging::warn(
                    "service::server",
                    None,
                    "connection shed: request queue full",
                    &[("queue_depth", FieldValue::U64(limits.queue_depth as u64))],
                );
                shed(stream);
            }
        }
    }
    // Dropping the sender lets the workers drain the queue and exit.
}

/// Concurrent shed threads allowed before over-queue connections are
/// dropped outright (a reset is still a fast failure signal); caps the
/// thread growth an overload flood can cause.
const MAX_SHED_THREADS: usize = 32;

static SHED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Answers `503` without consuming the request (load shedding).
///
/// Runs on its own short-lived thread (at most [`MAX_SHED_THREADS`] at
/// a time): the half-close + drain that make the 503 actually reach the
/// client (closing with unread bytes in the receive buffer would RST
/// the response away) can block for up to the drain deadline, and the
/// acceptor must keep accepting while overloaded.
fn shed(stream: TcpStream) {
    struct Slot;
    impl Drop for Slot {
        fn drop(&mut self) {
            SHED_THREADS.fetch_sub(1, Ordering::SeqCst);
        }
    }
    if SHED_THREADS.fetch_add(1, Ordering::SeqCst) >= MAX_SHED_THREADS {
        SHED_THREADS.fetch_sub(1, Ordering::SeqCst);
        return; // drop the connection: reset beats thread exhaustion
    }
    let slot = Slot;
    let run = move || {
        let _slot = slot;
        let mut stream = stream;
        let error = ServiceError::Unavailable("request queue is full".into());
        let (status, reason) = error.status();
        let _ = write_response(
            &mut stream,
            status,
            reason,
            &[("content-type", "text/plain".to_owned())],
            format!("{error}\n").as_bytes(),
            false,
        );
        let _ = stream.shutdown(Shutdown::Write);
        let _ = stream.set_read_timeout(Some(DRAIN_TIMEOUT));
        crate::http::drain(&mut stream, 8 * 1024 * 1024, DRAIN_TIMEOUT);
    };
    // On spawn failure (resource exhaustion) the connection is simply
    // dropped — again a fast failure; the slot frees via the guard.
    let _ = std::thread::Builder::new()
        .name("mobipriv-shed".to_owned())
        .spawn(run);
}

/// Serves one connection end to end: parse, let the service answer,
/// respond — then, on a keep-alive connection, park for the next
/// request and repeat. Request errors become status-mapped responses
/// (always with `connection: close`, so an error can never desync the
/// stream); I/O failures while responding are dropped with the
/// connection.
///
/// The connection is reused only when all of these hold: the client
/// asked for it ([`RequestHead::keep_alive`]), the response was a
/// success, the declared body was fully consumed (leftover bytes would
/// be parsed as the next head), the per-connection request cap has not
/// been reached, and the server is not draining for shutdown.
fn serve_connection<S: Service>(
    stream: TcpStream,
    limits: &Limits,
    service: &S,
    shutdown: &AtomicBool,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // Each request (head + body) gets one wall-clock budget: per-read
    // socket timeouts reset on every byte, so without this a trickling
    // client could hold the worker indefinitely.
    let mut reader = DeadlineReader::new(BufReader::new(read_half), limits.timeout);
    let mut writer = stream;
    let mut served: usize = 0;
    loop {
        if served == 0 {
            // The acceptor queued this connection because a request is
            // (presumably) already on its way: read it directly under
            // the ordinary request budget, as a fresh connection always
            // did.
            reader.set_deadline(limits.timeout);
        } else if reader.wait_for_request(limits.idle_timeout, IDLE_POLL, limits.timeout, shutdown)
            != NextRequest::Arrived
        {
            // Closed, idle or draining: no response owed, nothing to
            // record.
            break;
        }
        let (request, head) = service.open(|| read_head(&mut reader));
        let (response, keep) = match head {
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
                let mut body = RequestBody {
                    reader: &mut reader,
                    max_bytes: limits.max_body_bytes,
                };
                let response = service.respond(&request, &head, &mut body);
                // Reuse demands the stream be positioned exactly at the
                // next request head. A fixed-length body the service
                // ignored could be drained here, but closing is just as
                // correct and far simpler to reason about; a chunked
                // body's consumption is only known if the service
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
                    && served < limits.max_requests_per_conn
                    && !shutdown.load(Ordering::SeqCst);
                (response, keep)
            }
            Err(e) => (Response::from_error(&e), false),
        };
        let io = service.close(request, response, |response| {
            let headers: Vec<(&str, String)> = response
                .headers
                .iter()
                .map(|(name, value)| (name.as_ref(), value.clone()))
                .collect();
            write_response(
                &mut writer,
                response.status,
                reason_phrase(response.status),
                &headers,
                response.body.bytes(),
                keep,
            )
        });
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
    let drain_limit = limits.max_body_bytes.saturating_add(1024 * 1024);
    let _ = writer.shutdown(Shutdown::Write);
    let _ = reader
        .get_ref()
        .get_ref()
        .set_read_timeout(Some(DRAIN_TIMEOUT));
    // Drain from the inner reader: the request deadline may already
    // have passed, but the drain carries its own (short) budget.
    crate::http::drain(reader.get_mut(), drain_limit, DRAIN_TIMEOUT);
}
