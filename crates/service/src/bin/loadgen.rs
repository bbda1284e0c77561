//! `mobipriv-loadgen` — closed-loop load generator and soak harness for
//! `mobipriv-serve`: replays a synthetic city from N client threads and
//! reports throughput, latency percentiles, a per-status failure
//! breakdown and the server's own `/metrics` delta. The `--jobs` mode
//! replays the paper's publish-once/query-many shape through the
//! dataset registry and the async job engine, reporting cold-vs-warm
//! latency and the cache hit rate; `--chaos` soaks a chaos-armed server
//! and checks its failure-domain invariants. The smoke scripts drive
//! it; the repository's benchmark is `perfbench/`. Every request goes
//! through one [`Leg`] over `client::Connection`. Run with `--help` for
//! usage.

use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Write as _};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mobipriv_model::{write_bin, write_csv, write_ndjson, WireFormat};
use mobipriv_obs::scrape::{parse as parse_scrape, Scrape};
use mobipriv_service::client::{json_str_field, request_with_timeout, Connection};
use mobipriv_service::telemetry::STAGES;
use mobipriv_synth::scenarios;

const USAGE: &str = "\
usage: mobipriv-loadgen [options]

Generates a deterministic synthetic-city workload, POSTs it repeatedly
to a running mobipriv-serve from closed-loop client threads, and prints
a throughput/latency summary with a per-status failure breakdown (exit
status 1 if any request failed). Latency under scheduled arrivals
(open loop) is the benchmark's job: python3 perfbench/run.py
--workload query.

With --jobs the workload is registered once (POST /v1/datasets) and the
requests become submit→poll→fetch cycles against the async job engine,
cycling through --distinct different (mechanism, seed) keys: the first
request for each key is a cold computation, repeats are cache hits. The
summary splits cold vs warm latency and reports the server's cache hit
rate.

options:
  --addr HOST:PORT    server address (default 127.0.0.1:8645)
  --users N           synthetic-city size (default 1000)
  --requests N        total requests to issue (default 32)
  --concurrency N     parallel client threads (default 8)
  --keep-alive        one persistent HTTP/1.1 connection per client
                      thread instead of a fresh TCP connection per
                      request; the summary reports the achieved
                      connection reuse rate
  --mechanism NAME    mechanism to exercise (default promesse)
  --query EXTRA       extra query parameters, e.g. 'alpha=200&report=1'
  --seed N            workload + request seed (default 42)
  --format FMT        wire format for bodies: csv|ndjson|bin (default
                      csv). One-shot requests upload and download in
                      this format; --jobs mode registers the dataset
                      with it.
  --jobs              register-once/publish-many mode (see above)
  --distinct N        distinct job keys the --jobs mode cycles through
                      (default 4)
  --dump-workload     print the workload in the chosen --format to
                      stdout and exit (used by the CI smoke script)
  --timeout SECS      per-read client timeout and job poll deadline
                      (default 60); a request idle past it counts as a
                      failure instead of hanging the run
  --chaos             resilience soak against a chaos-armed server
                      (`mobipriv-serve --chaos …`): issues --requests
                      mixed one-shot/job/deadline-probe requests and
                      asserts the failure-domain invariants — no hangs,
                      no stuck keys, every response either byte-identical
                      to the fault-free answer or a well-formed error,
                      and the circuit breaker re-closes after the storm.
                      Exit 1 on any violation.
  -h, --help          print this help
";

/// How often a job cycle polls a pending job.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

struct Options {
    addr: String,
    users: usize,
    requests: usize,
    concurrency: usize,
    keep_alive: bool,
    mechanism: String,
    query: String,
    seed: u64,
    format: WireFormat,
    jobs: bool,
    distinct: usize,
    dump: bool,
    timeout: Duration,
    chaos: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: "127.0.0.1:8645".to_owned(),
            users: 1_000,
            requests: 32,
            concurrency: 8,
            keep_alive: false,
            mechanism: "promesse".to_owned(),
            query: String::new(),
            seed: 42,
            format: WireFormat::Csv,
            jobs: false,
            distinct: 4,
            dump: false,
            timeout: Duration::from_secs(60),
            chaos: false,
        }
    }
}

impl Options {
    /// The seed of request `i`'s key: --distinct keys counting up from
    /// --seed.
    fn key_seed(&self, i: usize) -> u64 {
        self.seed.wrapping_add((i % self.distinct) as u64)
    }

    /// The target for `seed`: a job submission against the registered
    /// `dataset`, else a one-shot anonymize in --format; --query
    /// appended either way.
    fn target(&self, dataset: Option<&str>, seed: u64) -> String {
        let mechanism = &self.mechanism;
        let mut target = match dataset {
            Some(digest) => format!("/v1/jobs?dataset={digest}&mechanism={mechanism}&seed={seed}"),
            None => format!(
                "/v1/anonymize?mechanism={mechanism}&seed={seed}&format={}",
                self.format.name()
            ),
        };
        if !self.query.is_empty() {
            target.push('&');
            target.push_str(&self.query);
        }
        target
    }
}

fn fail(message: &str) -> ! {
    eprintln!("{message}\n\n{USAGE}");
    std::process::exit(2);
}

fn positive(arg: &str, value: &str) -> usize {
    match value.parse() {
        Ok(n) if n > 0 => n,
        _ => fail(&format!("{arg} expects a positive integer")),
    }
}

fn parse_args(args: &[String]) -> Options {
    let mut opts = Options::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let arg = arg.as_str();
        let mut value = || match args.next() {
            Some(v) => v.as_str(),
            None => fail(&format!("{arg} expects a value")),
        };
        match arg {
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--addr" => opts.addr = value().to_owned(),
            "--users" => opts.users = positive(arg, value()),
            "--requests" => opts.requests = positive(arg, value()),
            "--concurrency" => opts.concurrency = positive(arg, value()),
            "--keep-alive" => opts.keep_alive = true,
            "--mechanism" => opts.mechanism = value().to_owned(),
            "--query" => opts.query = value().to_owned(),
            "--seed" => match value().parse() {
                Ok(n) => opts.seed = n,
                _ => fail("--seed expects an integer"),
            },
            "--format" => {
                opts.format = match value() {
                    "csv" => WireFormat::Csv,
                    "ndjson" => WireFormat::NdJson,
                    "bin" => WireFormat::Bin,
                    _ => fail("--format expects csv|ndjson|bin"),
                }
            }
            "--jobs" => opts.jobs = true,
            "--distinct" => opts.distinct = positive(arg, value()),
            "--dump-workload" => opts.dump = true,
            "--timeout" => opts.timeout = Duration::from_secs(positive(arg, value()) as u64),
            "--chaos" => opts.chaos = true,
            other => fail(&format!("unexpected argument: {other}")),
        }
    }
    opts
}

/// The one way loadgen talks to the server: a fresh connection per
/// request (`Connection: close`), or with --keep-alive one persistent
/// [`Connection`] for the leg's lifetime. Every read is bounded by
/// --timeout.
struct Leg<'a> {
    opts: &'a Options,
    conn: Option<Connection>,
}

impl<'a> Leg<'a> {
    fn new(opts: &'a Options) -> Leg<'a> {
        Leg { opts, conn: None }
    }

    fn send(&mut self, method: &str, target: &str, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let (addr, timeout) = (self.opts.addr.as_str(), self.opts.timeout);
        if !self.opts.keep_alive {
            return request_with_timeout(addr, method, target, body, timeout);
        }
        // The Connection survives request failures (it redials on the
        // next call), so one object carries the leg's reuse accounting.
        let conn = match &mut self.conn {
            Some(conn) => conn,
            slot => slot.insert(Connection::connect(addr, timeout)?),
        };
        conn.request(method, target, body)
            .map(|(status, _, body)| (status, body))
    }

    /// [`Leg::send`] as `step` of an operation; a read timeout is a hang.
    fn step(
        &mut self,
        step: Step,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<(u16, Vec<u8>), Miss> {
        self.send(method, target, body).map_err(|e| match e.kind() {
            ErrorKind::TimedOut | ErrorKind::WouldBlock => Miss::Io(step, "hung".to_owned()),
            _ => Miss::Io(step, e.to_string()),
        })
    }
}

/// Sends requests `from..--requests` from --concurrency client
/// threads, each over its own [`Leg`]: `work(leg, i, acc)` sends
/// request `i` and books it in the thread's accumulator. Returns every
/// thread's accumulator with its leg.
fn pool<'a, T: Default + Send>(
    opts: &'a Options,
    from: usize,
    work: impl Fn(&mut Leg<'a>, usize, &mut T) + Sync,
) -> Vec<(T, Leg<'a>)> {
    let next = AtomicUsize::new(from);
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..opts.concurrency)
            .map(|_| {
                scope.spawn(|| {
                    let (mut leg, mut acc) = (Leg::new(opts), T::default());
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= opts.requests {
                            break (acc, leg);
                        }
                        work(&mut leg, i, &mut acc);
                    }
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    })
}

/// Registers the workload once, in --format (the digest is
/// format-independent), and returns its digest; exits 2 when the server
/// cannot be reached or refuses.
fn register(leg: &mut Leg<'_>, body: &[u8]) -> String {
    let target = format!("/v1/datasets?format={}", leg.opts.format.name());
    match leg.send("POST", &target, body) {
        Ok((200, response)) => json_str_field(&response, "digest")
            .unwrap_or_else(|| fail("registration response carries no digest")),
        Ok((status, _)) => fail(&format!("dataset registration answered HTTP {status}")),
        Err(e) => fail(&format!("cannot reach {}: {e}", leg.opts.addr)),
    }
}

/// Which latency bucket a fetched result lands in.
enum Bucket {
    /// A one-shot request, or a job that waited on a fresh computation.
    Cold,
    /// A job the cache answered at submission.
    Warm,
    /// A job coalesced onto one already in flight.
    Coalesced,
}

/// The step of an operation a [`Miss`] happened at.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A one-shot `POST /v1/anonymize`.
    Post,
    Submit,
    Poll,
    Fetch,
}

/// Why an operation (a one-shot request or a job cycle) fetched no
/// result.
#[derive(Debug)]
enum Miss {
    /// The step answered this HTTP status (0: a submission without a
    /// job id).
    Status(Step, u16),
    /// The job ended `failed` (retries exhausted, quarantined).
    Failed,
    /// Transport failure, or a job still pending at the poll deadline.
    Io(Step, String),
}

impl Miss {
    /// Whether a chaos-armed server may legitimately end an operation
    /// this way: a one-shot answered with the client-timeout close, the
    /// transient/injected failure, the degraded shed or the tripped
    /// compute deadline; a job submission shed; a result evicted or
    /// shed; a job quarantined. Anything else (or a hang) is an
    /// invariant violation.
    fn well_formed(&self) -> bool {
        matches!(
            self,
            Miss::Status(Step::Post, 408 | 500 | 503 | 504)
                | Miss::Status(Step::Submit, 503)
                | Miss::Status(Step::Fetch, 404 | 503)
                | Miss::Failed
        )
    }
}

impl std::fmt::Display for Miss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Miss::Status(step, status) => write!(f, "{step:?} answered HTTP {status}"),
            Miss::Failed => f.write_str("job failed"),
            Miss::Io(step, error) => write!(f, "{step:?}: {error}"),
        }
    }
}

type Outcome = Result<(Bucket, Vec<u8>), Miss>;

/// One one-shot `POST` of `body` to `target`.
fn post(leg: &mut Leg<'_>, target: &str, body: &[u8]) -> Outcome {
    match leg.step(Step::Post, "POST", target, body)? {
        (200, response) => Ok((Bucket::Cold, response)),
        (status, _) => Err(Miss::Status(Step::Post, status)),
    }
}

/// One submit→poll→fetch cycle against the job engine. Polling gives
/// up at --timeout; a shed (`503`) poll polls again.
fn job_cycle(leg: &mut Leg<'_>, target: &str) -> Outcome {
    let (status, body) = leg.step(Step::Submit, "POST", target, b"")?;
    if status != 200 && status != 202 {
        return Err(Miss::Status(Step::Submit, status));
    }
    let id = json_str_field(&body, "id").ok_or(Miss::Status(Step::Submit, 0))?;
    let mut job_status = json_str_field(&body, "status").unwrap_or_default();
    // Done at submission time = the cache answered; no computation was
    // waited on, whether the record was fresh ("cached") or an old done
    // job coalesced onto ("coalesced").
    let bucket = match json_str_field(&body, "submitted").as_deref() {
        _ if job_status == "done" => Bucket::Warm,
        Some("enqueued") => Bucket::Cold,
        _ => Bucket::Coalesced,
    };
    let (poll, deadline) = (format!("/v1/jobs/{id}"), Instant::now() + leg.opts.timeout);
    while job_status != "done" {
        if job_status == "failed" {
            return Err(Miss::Failed);
        }
        if Instant::now() > deadline {
            return Err(Miss::Io(
                Step::Poll,
                format!("job {id} stuck `{job_status}`"),
            ));
        }
        std::thread::sleep(POLL_INTERVAL);
        match leg.step(Step::Poll, "GET", &poll, b"")? {
            (200, body) => job_status = json_str_field(&body, "status").unwrap_or_default(),
            (503, _) => {} // shed under load — poll again
            (status, _) => return Err(Miss::Status(Step::Poll, status)),
        }
    }
    match leg.step(Step::Fetch, "GET", &format!("/v1/results/{id}"), b"")? {
        (200, result) => Ok((bucket, result)),
        (status, _) => Err(Miss::Status(Step::Fetch, status)),
    }
}

/// Per-thread outcome accounting, merged into the summary.
#[derive(Default)]
struct Tally {
    /// Successful request latencies (cold bucket in --jobs mode).
    cold: Vec<Duration>,
    /// Warm (cache-answered) latencies; empty in one-shot mode.
    warm: Vec<Duration>,
    /// Coalesced-onto-an-in-flight-job latencies; --jobs mode only.
    coalesced: Vec<Duration>,
    /// Transport failures (connect/read errors, stuck jobs).
    io_errors: usize,
    /// Non-2xx responses by status code (0: no job id; 500: a job
    /// that ended `failed`).
    by_status: BTreeMap<u16, usize>,
    bytes_in: usize,
    /// Requests completed over keep-alive connections (reuse-rate
    /// accounting; zero without --keep-alive).
    conn_requests: u64,
    /// TCP connections those requests dialed.
    conn_dialed: u64,
}

impl Tally {
    fn failures(&self) -> usize {
        self.io_errors + self.by_status.values().sum::<usize>()
    }

    /// Runs and books one operation.
    fn time(&mut self, op: impl FnOnce() -> Outcome) {
        let sent = Instant::now();
        let outcome = op();
        let latency = sent.elapsed();
        match outcome {
            Ok((bucket, body)) => {
                self.bytes_in += body.len();
                match bucket {
                    Bucket::Cold => self.cold.push(latency),
                    Bucket::Warm => self.warm.push(latency),
                    Bucket::Coalesced => self.coalesced.push(latency),
                }
            }
            Err(Miss::Io(..)) => self.io_errors += 1,
            Err(Miss::Status(_, status)) => *self.by_status.entry(status).or_default() += 1,
            Err(Miss::Failed) => *self.by_status.entry(500).or_default() += 1,
        }
    }

    fn merge(&mut self, other: Tally, leg: &Leg<'_>) {
        self.cold.extend(other.cold);
        self.warm.extend(other.warm);
        self.coalesced.extend(other.coalesced);
        self.io_errors += other.io_errors;
        self.bytes_in += other.bytes_in;
        if let Some(conn) = &leg.conn {
            self.conn_requests += conn.requests();
            self.conn_dialed += conn.connects();
        }
        for (status, n) in other.by_status {
            *self.by_status.entry(status).or_default() += n;
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[idx - 1]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn latency_line(label: &str, latencies: &mut [Duration]) {
    if latencies.is_empty() {
        return;
    }
    latencies.sort_unstable();
    let mean = latencies.iter().sum::<Duration>() / latencies.len() as u32;
    println!(
        "{label}: n {:>4}  mean {:.1}  p50 {:.1}  p90 {:.1}  p99 {:.1}  max {:.1}  (ms)",
        latencies.len(),
        ms(mean),
        ms(percentile(latencies, 0.50)),
        ms(percentile(latencies, 0.90)),
        ms(percentile(latencies, 0.99)),
        ms(*latencies.last().expect("non-empty")),
    );
}

/// Scrapes `GET /metrics` into a parsed document. Any failure —
/// transport, non-200, or a malformed exposition — aborts the run with
/// exit 1: a server whose metrics endpoint is broken fails the load
/// test even if every request succeeded.
fn scrape_metrics(leg: &mut Leg<'_>) -> Scrape {
    let scraped = match leg.send("GET", "/metrics", b"") {
        Ok((200, body)) => String::from_utf8(body)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_scrape(&text)),
        Ok((status, _)) => Err(format!("HTTP {status}")),
        Err(e) => Err(e.to_string()),
    };
    scraped.unwrap_or_else(|message| {
        eprintln!("scraping /metrics: {message}");
        std::process::exit(1)
    })
}

/// Prints what the *server* observed over the run — the before/after
/// delta of its `/metrics` counters, as a cross-check of the
/// client-side tallies (queue waits and sheds show up here first).
fn print_server_delta(before: &Scrape, after: &Scrape) {
    let request_parts: Vec<String> = after
        .by_label("mobipriv_http_requests_total", "status")
        .into_iter()
        .filter_map(|(status, count)| {
            let base = before
                .value("mobipriv_http_requests_total", &[("status", &status)])
                .unwrap_or(0.0);
            let delta = count - base;
            (delta > 0.0).then(|| format!("{status}×{delta:.0}"))
        })
        .collect();
    if !request_parts.is_empty() {
        println!("server:   requests {}", request_parts.join(", "));
    }
    let hits = after.total("mobipriv_cache_hits_total") - before.total("mobipriv_cache_hits_total");
    let misses =
        after.total("mobipriv_cache_misses_total") - before.total("mobipriv_cache_misses_total");
    if hits + misses > 0.0 {
        println!(
            "server:   cache {hits:.0}/{:.0} lookups hit ({:.1}%)",
            hits + misses,
            100.0 * hits / (hits + misses)
        );
    }
    if let Some(peak) = after.value("mobipriv_http_queue_depth_peak", &[]) {
        println!("server:   queue depth high-water {peak:.0}");
    }
    let stage_parts: Vec<String> = STAGES
        .iter()
        .filter_map(|&stage| {
            // Quantiles over the run's window only (bucket deltas); the
            // value is the bucket's upper bound, hence the ≤.
            let ms = |q| {
                let labels = [("stage", stage)];
                after.histogram_quantile("mobipriv_stage_seconds", &labels, q, Some(before))
            };
            Some(format!(
                "{stage} p50≤{:.1} p99≤{:.1}",
                ms(0.50)? * 1e3,
                ms(0.99)? * 1e3
            ))
        })
        .collect();
    if !stage_parts.is_empty() {
        println!("server:   stages (ms) {}", stage_parts.join(", "));
    }
}

/// Shared state of the chaos soak: per-key reference bodies and the
/// invariant-violation log.
#[derive(Default)]
struct SoakState {
    /// First successful body per (seed, job?) key — every later 200 for
    /// the same key must be byte-identical (the determinism invariant
    /// chaos must not break). Job results and one-shot responses are
    /// separate keyspaces: jobs materialize CSV while one-shots honor
    /// `--format`.
    baselines: Mutex<HashMap<(u64, bool), Vec<u8>>>,
    /// Hard invariant violations (each one fails the soak).
    violations: Mutex<Vec<String>>,
    ok: AtomicUsize,
    /// Well-formed error responses (expected under chaos).
    errors: AtomicUsize,
}

impl SoakState {
    fn violate(&self, message: String) {
        let mut v = self.violations.lock().expect("soak mutex");
        if v.len() < 32 {
            v.push(message);
        }
    }

    /// A 200 body for `key`: byte-identical to the first one seen, or
    /// an invariant violation.
    fn check_body(&self, key: (u64, bool), body: &[u8], target: &str) {
        let mut baselines = self.baselines.lock().expect("soak mutex");
        match baselines.get(&key) {
            Some(reference) if reference.as_slice() != body => self.violate(format!(
                "byte-identity violated for seed {} ({target}): \
                 {} vs {} reference bytes",
                key.0,
                body.len(),
                reference.len()
            )),
            Some(_) => {}
            None => {
                baselines.insert(key, body.to_vec());
            }
        }
    }

    /// Books one storm operation for `key`: a result must match the
    /// key's baseline, a miss must be well-formed.
    fn classify(&self, outcome: Outcome, key: (u64, bool), target: &str) {
        match outcome {
            Ok((_, body)) => {
                self.check_body(key, &body, target);
                self.ok.fetch_add(1, Ordering::Relaxed);
            }
            Err(miss) if miss.well_formed() => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
            Err(miss) => self.violate(format!("{target}: {miss}")),
        }
    }
}

/// The `--chaos` soak: a storm of mixed requests against a chaos-armed
/// server, then the recovery checks. Exits the process (0 = every
/// invariant held).
fn chaos_soak(opts: &Options, body: &[u8]) -> ! {
    println!(
        "chaos:    soak — {} mixed requests, concurrency {}, {} distinct keys, timeout {:?}",
        opts.requests, opts.concurrency, opts.distinct, opts.timeout
    );
    // Register the dataset once so job cycles can reference it.
    let (digest, metrics_before) = {
        let mut leg = Leg::new(opts);
        (register(&mut leg, body), scrape_metrics(&mut leg))
    };

    let soak = SoakState::default();
    let started = Instant::now();
    pool(opts, 0, |leg, i, _: &mut ()| {
        let seed = opts.key_seed(i);
        if i % 7 == 3 {
            let target = opts.target(Some(&digest), seed);
            soak.classify(job_cycle(leg, &target), (seed, true), &target);
        } else {
            let mut target = opts.target(None, seed);
            // Deadline probes: a zero compute budget trips
            // deterministically (504) unless the cache already holds the
            // key (200) — both legitimate, and the key must stay
            // immediately recomputable.
            if i % 5 == 4 {
                target.push_str("&timeout_ms=0");
            }
            soak.classify(post(leg, &target, body), (seed, false), &target);
        }
    });
    println!(
        "storm:    {} ok, {} well-formed errors in {:.2} s",
        soak.ok.load(Ordering::Relaxed),
        soak.errors.load(Ordering::Relaxed),
        started.elapsed().as_secs_f64()
    );

    // No stuck flights: every key must become computable again — errors
    // are still legitimate while chaos keeps injecting, so retry each
    // key until a 200 (which must match the baseline) or the deadline.
    let mut leg = Leg::new(opts);
    for k in 0..opts.distinct {
        let seed = opts.key_seed(k);
        let target = opts.target(None, seed);
        let deadline = Instant::now() + opts.timeout;
        loop {
            match post(&mut leg, &target, body) {
                Ok((_, response)) => {
                    soak.check_body((seed, false), &response, &target);
                    break;
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(miss) => {
                    soak.violate(format!("key for seed {seed} stuck ({miss})"));
                    break;
                }
            }
        }
    }

    // Breaker recovery: cold computes on fresh seeds eventually land a
    // successful half-open probe; the gauge must read closed again.
    let deadline = Instant::now() + opts.timeout;
    let mut probe_seed = opts.seed.wrapping_add(1_000_000);
    let recovered = loop {
        match scrape_metrics(&mut leg).value("mobipriv_breaker_state", &[]) {
            Some(0.0) => break true,
            None => {
                soak.violate("mobipriv_breaker_state missing from /metrics".to_owned());
                break false;
            }
            Some(_) if Instant::now() > deadline => break false,
            Some(_) => {
                let _ = post(&mut leg, &opts.target(None, probe_seed), body);
                probe_seed = probe_seed.wrapping_add(1);
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    };
    if !recovered {
        soak.violate("circuit breaker did not re-close after the storm".to_owned());
    }

    // The chaos/resilience counters must exist — and chaos must have
    // actually bitten, or the soak proved nothing.
    let metrics_after = scrape_metrics(&mut leg);
    let injected = metrics_after.total("mobipriv_chaos_injections_total")
        - metrics_before.total("mobipriv_chaos_injections_total");
    if injected <= 0.0 {
        soak.violate("chaos injected no faults — is the server running with --chaos?".to_owned());
    }
    for counter in [
        "mobipriv_retries_total",
        "mobipriv_deadline_exceeded_total",
        "mobipriv_client_timeouts_total",
        "mobipriv_overload_shed_total",
    ] {
        if metrics_after.value(counter, &[]).is_none() {
            soak.violate(format!("{counter} missing from /metrics"));
        }
    }
    println!(
        "recovery: breaker closed; {injected:.0} faults injected, \
         {:.0} deadline trips, {:.0} retries, {:.0} sheds (server totals)",
        metrics_after.total("mobipriv_deadline_exceeded_total"),
        metrics_after.total("mobipriv_retries_total"),
        metrics_after.total("mobipriv_overload_shed_total"),
    );

    let violations = soak.violations.lock().expect("soak mutex");
    if violations.is_empty() {
        println!("chaos:    every invariant held");
        std::process::exit(0);
    }
    for v in violations.iter() {
        eprintln!("violation: {v}");
    }
    std::process::exit(1);
}

/// The closed-loop run (one-shot, or `--jobs`); exits 1 if any request
/// failed.
fn run(opts: &Options, body: &[u8], fixes: usize) {
    // Set-up over a leg of its own, closed before the client threads
    // start so a keep-alive set-up connection pins no server worker.
    let mut leg = Leg::new(opts);
    let digest = opts.jobs.then(|| {
        let registered_at = Instant::now();
        let digest = register(&mut leg, body);
        println!(
            "registered: digest {digest} in {:.1} ms (register-once, publish-many)",
            ms(registered_at.elapsed())
        );
        digest
    });
    println!(
        "target:   http://{}{} — {} requests, concurrency {}{}",
        opts.addr,
        opts.target(digest.as_deref(), opts.seed),
        opts.requests,
        opts.concurrency,
        if opts.jobs {
            format!(" ({} distinct job keys)", opts.distinct)
        } else {
            String::new()
        },
    );
    if opts.keep_alive {
        println!("transport: keep-alive (one persistent connection per client thread)");
    }
    if !opts.jobs {
        // Connectivity probe before unleashing the fleet.
        match leg.send("POST", &opts.target(None, opts.seed), body) {
            Ok((200, _)) => {}
            Ok((status, _)) => fail(&format!("probe request answered HTTP {status}")),
            Err(e) => fail(&format!("cannot reach {}: {e}", opts.addr)),
        }
    }
    // Server-side baseline: the /metrics counters before the run, so
    // the summary can print exactly what this run added.
    let metrics_before = scrape_metrics(&mut leg);
    let started = Instant::now();

    // --jobs: publish each distinct view once, sequentially, before the
    // concurrent phase — the register-once/publish-many lifecycle. The
    // cold pass goes through the *one-shot* surface (full body upload +
    // parse + compute), i.e. what every request cost before the
    // registry existed; because the sync path and the job engine share
    // one content-addressed cache, it also warms every job key (with
    // --format csv/ndjson — jobs materialize CSV, so a `bin` cold pass
    // lives in its own `wire=bin` keyspace and the first job per key
    // computes cold), so the concurrent phase measures pure
    // publish-many serving.
    let mut tally = Tally::default();
    let cold = if opts.jobs {
        opts.distinct.min(opts.requests)
    } else {
        0
    };
    for i in 0..cold {
        tally.time(|| post(&mut leg, &opts.target(None, opts.key_seed(i)), body));
    }
    drop(leg);
    let threads = pool(opts, cold, |leg, i, thread: &mut Tally| {
        thread.time(|| match &digest {
            Some(digest) => job_cycle(leg, &opts.target(Some(digest), opts.key_seed(i))),
            None => post(leg, &opts.target(None, opts.seed), body),
        })
    });
    for (thread, leg) in threads {
        tally.merge(thread, &leg);
    }
    let elapsed = started.elapsed();

    // Sequential warm probe for the speedup line: under high
    // concurrency the in-run warm latencies include queue wait, which
    // measures saturation, not serving latency. One uncontended cycle
    // per key is the like-for-like counterpart of the sequential cold
    // pass. Probe requests are not counted in the run totals.
    let mut leg = Leg::new(opts);
    let mut probe = Tally::default();
    if let Some(digest) = &digest {
        for i in 0..cold {
            probe.time(|| job_cycle(&mut leg, &opts.target(Some(digest), opts.key_seed(i))));
        }
    }

    let ok = tally.cold.len() + tally.warm.len() + tally.coalesced.len();
    let failures = tally.failures();
    println!(
        "result:   {ok} ok, {failures} failed in {:.2} s ({} B received)",
        elapsed.as_secs_f64(),
        tally.bytes_in
    );
    if failures > 0 {
        let mut parts: Vec<String> = tally
            .by_status
            .iter()
            .map(|(status, n)| match status {
                0 => format!("unparseable×{n}"),
                _ => format!("HTTP {status}×{n}"),
            })
            .collect();
        if tally.io_errors > 0 {
            parts.push(format!("io×{}", tally.io_errors));
        }
        println!("errors:   {}", parts.join(", "));
    }
    if ok > 0 {
        let throughput = ok as f64 / elapsed.as_secs_f64();
        println!(
            "throughput: {throughput:.1} req/s, {:.2} Mfix/s anonymized",
            throughput * fixes as f64 / 1e6
        );
    }
    if opts.keep_alive && tally.conn_requests > 0 {
        let reuse = 1.0 - tally.conn_dialed as f64 / tally.conn_requests as f64;
        println!(
            "reuse:    {} connections for {} requests ({:.1}% reused)",
            tally.conn_dialed,
            tally.conn_requests,
            100.0 * reuse
        );
    }
    if opts.jobs {
        latency_line("cold  ", &mut tally.cold);
        latency_line("warm  ", &mut tally.warm);
        latency_line("coal  ", &mut tally.coalesced);
        // `cold` = full-body one-shot (the pre-registry cost of any
        // request), sequential; the warm side is the sequential probe
        // so both sides measure serving latency, not queueing.
        probe.warm.sort_unstable();
        if !tally.cold.is_empty() && !probe.warm.is_empty() {
            let cold_p50 = percentile(&tally.cold, 0.50);
            let warm_p50 = percentile(&probe.warm, 0.50);
            println!(
                "speedup:  cold p50 / warm p50 = {:.1}x (sequential probe, n={})",
                ms(cold_p50) / ms(warm_p50).max(1e-6),
                probe.warm.len()
            );
        }
        let hits = tally.warm.len() + tally.coalesced.len();
        if ok > 0 {
            println!(
                "hit rate: {hits}/{ok} requests answered from cache ({:.1}%)",
                100.0 * hits as f64 / ok as f64
            );
        }
    } else {
        latency_line("latency", &mut tally.cold);
    }
    let metrics_after = scrape_metrics(&mut leg);
    print_server_delta(&metrics_before, &metrics_after);
    if failures > 0 {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args);

    let workload = scenarios::serving_day(opts.users, opts.seed);
    let mut body = Vec::new();
    match opts.format {
        WireFormat::Csv => write_csv(&workload.dataset, &mut body),
        WireFormat::NdJson => write_ndjson(&workload.dataset, &mut body),
        WireFormat::Bin => write_bin(&workload.dataset, &mut body),
    }
    .expect("serialize workload");
    if opts.dump {
        std::io::stdout().write_all(&body).expect("write workload");
        return;
    }
    if opts.chaos {
        chaos_soak(&opts, &body);
    }
    let fixes = workload.dataset.total_fixes();
    println!(
        "workload: {} users, {} traces, {fixes} fixes, {}-byte {} body (seed {})",
        opts.users,
        workload.dataset.len(),
        body.len(),
        opts.format.name(),
        opts.seed
    );
    drop(workload);
    run(&opts, &body, fixes);
}
