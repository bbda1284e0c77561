//! `mobipriv-serve` — the anonymization service front-end. Run with
//! `--help` for usage.

use std::time::Duration;

use mobipriv_core::Engine;
use mobipriv_service::{ChaosConfig, Router, RouterConfig, Server, ServerConfig};

const USAGE: &str = "\
usage: mobipriv-serve [options]

Serves the mobipriv mechanism matrix over HTTP/1.1:

  POST /v1/anonymize?mechanism=<name>[&seed=N][&dataset=DIGEST][&report=1]
  POST /v1/datasets                  register a dataset once, get its digest
  POST /v1/jobs?dataset=DIGEST&mechanism=<name>[&kind=anonymize|evaluate][&seed=N]
  GET  /v1/jobs/<id>                 poll queued/running/done/failed + progress
  GET  /v1/results/<key>             fetch the finished bytes
  GET  /v1/datasets [/<digest>]      registry listing / one dataset's metadata
  GET  /v1/stats                     cache + registry + job counters
  GET  /v1/mechanisms
  GET  /healthz

Bodies are CSV (`user,trace,lat,lng,time`) or NDJSON rows, fixed-length
or chunked. Responses are deterministic in (input content, canonical
parameters, seed) — which is also the result-cache key: identical
requests coalesce into one computation and repeats are cache hits
(`x-mobipriv-cache: hit|miss`).

options:
  --addr HOST:PORT     bind address (default 127.0.0.1:8645; port 0
                       picks an ephemeral port, printed on startup)
  --workers N          worker threads (default 4)
  --queue N            accept-queue depth before 503 load shedding
                       (default 64)
  --max-body-mb N      request-body limit in MiB (default 64)
  --max-requests-per-conn N  requests served on one keep-alive
                       connection before the server closes it
                       (default 1000)
  --idle-timeout-ms N  how long a keep-alive connection may sit idle
                       between requests before the server closes it
                       (default 5000)
  --route SHARDS       run as a shard router instead of a single node
                       (same connection handling, no engine): SHARDS
                       is a comma-separated list of shard addresses
                       (host:port). Requests are routed to the shard
                       owning the dataset digest (rendezvous hashing);
                       /metrics and /v1/stats both render one fold of
                       the shards' /metrics. Only --addr, --workers,
                       --queue, --max-body-mb, --max-requests-per-conn
                       and --idle-timeout-ms apply in this mode.
  --job-workers N      async job executor threads (default 2)
  --job-queue N        job-queue depth before submissions 503 (default 64)
  --dataset-budget-mb N  registry byte budget, LRU-evicted (default 512)
  --result-budget-mb N   result-cache byte budget, LRU-evicted (default 256)
  --data-dir PATH      persist datasets and finished results under PATH
                       (content-addressed blobs + append-only journal);
                       on restart the journal is replayed, every blob is
                       re-hashed (mismatches quarantined) and previous
                       results serve as byte-identical cache hits.
                       Omit for the default pure in-memory behavior.
  --engine-threads N   run each request's per-trace fan-out on N engine
                       threads instead of sequentially (output is
                       identical; per-request parallelism only pays off
                       when requests are few and huge)
  --compute-timeout-ms N  default and ceiling for the per-request compute
                       budget (default 30000); requests may lower it with
                       a `timeout_ms` query parameter, never raise it
  --max-attempts N     attempts a job gets before quarantine as `failed`
                       (default 3; 1 disables retries)
  --breaker-threshold N  consecutive compute failures that open the
                       circuit breaker (default 5); while open, cold
                       computes answer 503 + Retry-After and /healthz
                       reports `degraded` (cache hits keep serving)
  --breaker-open-ms N  how long the breaker stays open before admitting
                       a half-open probe (default 1000)
  --chaos SPEC         arm the fault injector (testing only). SPEC is
                       key=value pairs: panic=P, error=P, latency=P
                       (probabilities), all=P shorthand, latency-ms=N,
                       seed=N. Example: --chaos all=0.05,latency-ms=20,seed=1
  -h, --help           print this help
";

fn fail(message: &str) -> ! {
    eprintln!("{message}\n\n{USAGE}");
    std::process::exit(2);
}

/// Unwraps a startup or serving result, exiting 1 on the error.
fn or_exit<T>(result: std::io::Result<T>, context: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("mobipriv-serve: {context}{e}");
        std::process::exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServerConfig {
        addr: "127.0.0.1:8645".to_owned(),
        ..ServerConfig::default()
    };
    let mut shards: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let value = |i: usize| -> &str {
            match args.get(i + 1) {
                Some(v) => v.as_str(),
                None => fail(&format!("{arg} expects a value")),
            }
        };
        match arg {
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            "--addr" => config.addr = value(i).to_owned(),
            "--workers" => match value(i).parse() {
                Ok(n) if n > 0 => config.workers = n,
                _ => fail("--workers expects a positive integer"),
            },
            "--queue" => match value(i).parse() {
                Ok(n) => config.queue_depth = n,
                _ => fail("--queue expects a non-negative integer"),
            },
            "--max-body-mb" => match value(i).parse::<u64>() {
                Ok(n) if n > 0 => config.max_body_bytes = n * 1024 * 1024,
                _ => fail("--max-body-mb expects a positive integer"),
            },
            "--max-requests-per-conn" => match value(i).parse() {
                Ok(n) if n > 0 => config.max_requests_per_conn = n,
                _ => fail("--max-requests-per-conn expects a positive integer"),
            },
            "--idle-timeout-ms" => match value(i).parse::<u64>() {
                Ok(n) if n > 0 => config.idle_timeout = Duration::from_millis(n),
                _ => fail("--idle-timeout-ms expects a positive integer"),
            },
            "--route" => {
                shards = value(i)
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect();
                if shards.is_empty() {
                    fail("--route expects a comma-separated list of shard addresses");
                }
            }
            "--job-workers" => match value(i).parse() {
                Ok(n) if n > 0 => config.job_workers = n,
                _ => fail("--job-workers expects a positive integer"),
            },
            "--job-queue" => match value(i).parse() {
                Ok(n) => config.job_queue_depth = n,
                _ => fail("--job-queue expects a non-negative integer"),
            },
            "--dataset-budget-mb" => match value(i).parse::<u64>() {
                Ok(n) if n > 0 => config.dataset_budget_bytes = n * 1024 * 1024,
                _ => fail("--dataset-budget-mb expects a positive integer"),
            },
            "--result-budget-mb" => match value(i).parse::<u64>() {
                Ok(n) if n > 0 => config.result_budget_bytes = n * 1024 * 1024,
                _ => fail("--result-budget-mb expects a positive integer"),
            },
            "--data-dir" => config.data_dir = Some(std::path::PathBuf::from(value(i))),
            "--engine-threads" => match value(i).parse() {
                Ok(n) if n > 0 => config.engine = Engine::parallel().with_threads(n),
                _ => fail("--engine-threads expects a positive integer"),
            },
            "--compute-timeout-ms" => match value(i).parse::<u64>() {
                Ok(n) if n > 0 => config.resilience.compute_timeout = Duration::from_millis(n),
                _ => fail("--compute-timeout-ms expects a positive integer"),
            },
            "--max-attempts" => match value(i).parse() {
                Ok(n) if n > 0 => config.resilience.max_attempts = n,
                _ => fail("--max-attempts expects a positive integer"),
            },
            "--breaker-threshold" => match value(i).parse() {
                Ok(n) if n > 0 => config.resilience.breaker_failure_threshold = n,
                _ => fail("--breaker-threshold expects a positive integer"),
            },
            "--breaker-open-ms" => match value(i).parse::<u64>() {
                Ok(n) if n > 0 => config.resilience.breaker_open = Duration::from_millis(n),
                _ => fail("--breaker-open-ms expects a positive integer"),
            },
            "--chaos" => match ChaosConfig::parse(value(i)) {
                Ok(chaos) => config.chaos = Some(chaos),
                Err(e) => fail(&format!("--chaos: {e}")),
            },
            other => fail(&format!("unexpected argument: {other}")),
        }
        i += 2; // every remaining flag takes a value (--help returned)
    }
    if let Some(chaos) = &config.chaos {
        eprintln!(
            "mobipriv-serve: CHAOS ARMED (panic={}, error={}, latency={}): \
             faults will be injected into computes — testing only",
            chaos.panic_p, chaos.error_p, chaos.latency_p
        );
    }
    let workers = config.workers;
    let queue = config.queue_depth;
    if !shards.is_empty() {
        let router_config = RouterConfig {
            addr: config.addr.clone(),
            shards,
            workers: config.workers,
            queue_depth: config.queue_depth,
            max_body_bytes: config.max_body_bytes,
            timeout: config.timeout,
            idle_timeout: config.idle_timeout,
            max_requests_per_conn: config.max_requests_per_conn,
            ..RouterConfig::default()
        };
        let shard_count = router_config.shards.len();
        let router = or_exit(Router::bind(router_config), "bind failed: ");
        let addr = router.local_addr().expect("bound socket has an address");
        println!(
            "mobipriv-serve listening on http://{addr} (workers={workers}, queue={queue}, \
             routing {shard_count} shards)"
        );
        return or_exit(router.run(), "");
    }
    let server = or_exit(Server::bind(config), "bind failed: ");
    let addr = server.local_addr().expect("bound socket has an address");
    println!("mobipriv-serve listening on http://{addr} (workers={workers}, queue={queue})");
    or_exit(server.run(), "");
}
