//! The four workloads: set-up, the timed phase with its per-op output
//! checks, the byte-identity checks against the library run outside
//! the timed window, and (traced runs) the in-process replay of a
//! fixed sample of ops through each layer's public functions.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mobipriv_core::{CancelToken, Engine};
use mobipriv_metrics::{coverage, spatial};
use mobipriv_model::{write_csv, Dataset, DatasetStream, UserId, WireFormat};
use mobipriv_service::client::{header, json_str_field, Connection, Headers};
use mobipriv_service::registry::{resolve_mechanism, Params};
use mobipriv_service::rendezvous_owner;
use mobipriv_synth::scenarios::serving_day;

use crate::cluster::Cluster;
use crate::load::{self, Drive, OpCtx, OpRecord, OpResult, READ_TIMEOUT};
use crate::replay::{self, Replay};
use crate::stats::{
    self, balanced_pick, check_status, ladder, lag_growing, next_rung, percentile, Failure, Probe,
    Tally,
};

/// Synthetic-city seed of every base dataset. `--seed` picks the
/// variants, mechanism seeds and key order, never the city, so every
/// seed does the same amount of work.
const BASE_SEED: u64 = 42;

/// Set-ups per run; `setup_s` is their median. Booting nodes takes
/// milliseconds, so those workloads set up more often than `query`,
/// whose set-up publishes and restarts.
const SETUP_REPS: usize = 15;
const QUERY_SETUP_REPS: usize = 3;

/// How long a job may take before its op counts as timed out.
const JOB_DEADLINE: Duration = Duration::from_secs(60);

/// Job status poll interval.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// The `query` workload's offered rate, ops/s. At 250 ops/s a 2-vCPU
/// host with hypervisor steal saturates (p50 swung from 3 to 220 ms
/// between runs); 100 ops/s leaves headroom, so the run measures the
/// read path rather than the host's noise.
pub const QUERY_RATE: f64 = 100.0;

/// Ladder rungs for `max_rate_ops_s`: ≈10 % steps from 75 ops/s;
/// rung [`QUERY_RUNG`] is [`QUERY_RATE`].
const LADDER_START: f64 = 75.0;
const LADDER_RUNGS: usize = 24;
const QUERY_RUNG: usize = 3;

/// Length of one ladder probe after the timed phase (which is the
/// start rung's probe), the pause that lets queues drain between
/// probes, and the most probes a run makes.
const PROBE_S: f64 = 1.0;
const PROBE_GAP: Duration = Duration::from_millis(200);
const MAX_PROBES: usize = 6;

/// Ops replayed in-process by a traced run.
const REPLAY_OPS: usize = 3;

/// Run-wide settings.
pub struct Ctx {
    /// The `mobipriv-serve` binary.
    pub serve: PathBuf,
    /// This run's scratch directory (data dirs, logs, scratch store).
    pub dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Timed phase length, seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Clock every span is recorded on.
    pub run_clock: Instant,
}

/// Per-op input size.
#[derive(Debug, Clone, Copy, Default)]
pub struct Input {
    /// Traces in the op's dataset.
    pub traces: usize,
    /// Fixes in the op's dataset.
    pub fixes: usize,
    /// Bytes uploaded (or referenced) per op.
    pub bytes: usize,
}

/// What one workload run measured.
pub struct Outcome {
    /// Every op of the run (timed phase and ladder probes).
    pub tally: Tally,
    /// Timed-phase ops.
    pub records: Vec<OpRecord>,
    /// Timed-phase wall seconds.
    pub wall_s: f64,
    /// Each set-up's duration, seconds.
    pub setup_s: Vec<f64>,
    /// Serving processes' CPU over the timed phase, seconds.
    pub cpu_s: f64,
    /// Summed serving `VmHWM` at the fixed op count, MiB.
    pub peak_rss_mb: f64,
    /// Ladder probes (`query`), the start rung first.
    pub probes: Vec<Probe>,
    /// Per-op input.
    pub input: Input,
    /// Node configuration as booted.
    pub config: String,
    /// Traced runs: the replay.
    pub replay: Option<Replay>,
}

/// A base dataset whose user ids are `VVVVUUU` (seven digits): the
/// four `V` digits select a variant, so a variant's canonical CSV is
/// the template with those digits patched in place on every line —
/// a never-seen upload for the cost of a copy.
struct Template {
    csv: Vec<u8>,
    line_starts: Vec<usize>,
    traces: usize,
    fixes: usize,
}

/// Distinct variants ([`Template::variant`] wraps around after these).
const VARIANTS: u64 = 9_000;

impl Template {
    fn new(users: usize) -> Template {
        assert!(users <= 1_000, "three user digits");
        let dataset = serving_day(users, BASE_SEED)
            .dataset
            .map(|t| t.with_user(UserId::new(1_000_000 + t.user().get())));
        let mut csv = Vec::new();
        write_csv(&dataset, &mut csv).expect("in-memory write");
        let mut line_starts = Vec::with_capacity(dataset.total_fixes());
        let mut at = csv.iter().position(|&b| b == b'\n').expect("header") + 1;
        while at < csv.len() {
            line_starts.push(at);
            at += csv[at..]
                .iter()
                .position(|&b| b == b'\n')
                .expect("terminated")
                + 1;
        }
        Template {
            csv,
            line_starts,
            traces: dataset.len(),
            fixes: dataset.total_fixes(),
        }
    }

    fn variant(&self, k: u64) -> Vec<u8> {
        let digits = format!("{}", 1_000 + k % VARIANTS);
        let mut body = self.csv.clone();
        for &s in &self.line_starts {
            body[s..s + 4].copy_from_slice(digits.as_bytes());
        }
        body
    }

    fn input(&self) -> Input {
        Input {
            traces: self.traces,
            fixes: self.fixes,
            bytes: self.csv.len(),
        }
    }
}

/// Parses a body exactly as a node does: streamed in 16 KiB chunks.
pub fn parse(body: &[u8]) -> Dataset {
    let mut stream = DatasetStream::new(WireFormat::Csv);
    for chunk in body.chunks(16 * 1024) {
        stream.push_chunk(chunk).expect("generator bodies parse");
    }
    stream.finish().expect("generator bodies parse")
}

/// Parses a query string into the `Params` pairs the service reads.
pub fn query_pairs(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect()
}

/// The library's output for `(dataset, mechanism query, seed)`: the
/// node's default (sequential) engine, rendered as canonical CSV.
pub fn reference(dataset: &Dataset, mechanism: &str, seed: u64) -> (Dataset, Vec<u8>) {
    let pairs = query_pairs(mechanism);
    let resolved = resolve_mechanism(Params(&pairs)).expect("benchmark mechanisms resolve");
    let output = Engine::sequential()
        .try_protect(
            resolved.mechanism.as_ref(),
            dataset,
            seed,
            &CancelToken::none(),
        )
        .expect("uncancelled");
    let mut csv = Vec::new();
    write_csv(&output, &mut csv).expect("in-memory write");
    (output, csv)
}

/// The per-op seed for op `n` of a run: distinct per op, so every
/// `anonymize` op is a cache miss.
fn op_seed(seed: u64, n: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(n)
}

fn header_usize(headers: &Headers, name: &str) -> Option<usize> {
    header(headers, name).and_then(|v| v.parse().ok())
}

/// `x-mobipriv-output-fixes` must match the CSV body's row count.
fn check_fixes_header(headers: &Headers, body: &[u8]) -> Result<usize, Failure> {
    let rows = body
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        .saturating_sub(1);
    match header_usize(headers, "x-mobipriv-output-fixes") {
        Some(n) if n == rows => Ok(n),
        _ => Err(Failure::WrongOutput),
    }
}

/// Submits a job, polls it every [`POLL_INTERVAL`] until `done`;
/// returns its id, the poll count and submit → done seconds.
fn run_job(op: &mut OpCtx<'_>, target: &str) -> Result<(String, u32, f64), Failure> {
    let started = Instant::now();
    let (status, _, body) = op.send("POST /v1/jobs", "POST", target, b"")?;
    check_status(status)?;
    let id = json_str_field(&body, "id").ok_or(Failure::WrongOutput)?;
    let mut state = json_str_field(&body, "status").unwrap_or_default();
    let poll = format!("/v1/jobs/{id}");
    let mut polls = 0;
    while state != "done" {
        if state == "failed" {
            return Err(Failure::JobFailed);
        }
        if started.elapsed() > JOB_DEADLINE {
            return Err(Failure::Timeout);
        }
        std::thread::sleep(POLL_INTERVAL);
        let (status, _, body) = op.send("GET /v1/jobs/:id", "GET", &poll, b"")?;
        check_status(status)?;
        polls += 1;
        state = json_str_field(&body, "status").unwrap_or_default();
    }
    Ok((id, polls, started.elapsed().as_secs_f64()))
}

/// Fetches a finished result; only a `200` counts.
fn fetch(op: &mut OpCtx<'_>, id: &str) -> Result<(Headers, Vec<u8>), Failure> {
    let (status, headers, body) = op.send(
        "GET /v1/results/:id",
        "GET",
        &format!("/v1/results/{id}"),
        b"",
    )?;
    if status != 200 {
        return Err(Failure::Status(status));
    }
    Ok((headers, body))
}

/// Sets up `reps` times, timing only the serving side (`boot`
/// gets a stopwatch it pauses around generator-side work); keeps the
/// last cluster.
fn repeat_setup<S>(
    ctx: &Ctx,
    reps: usize,
    mut boot: impl FnMut(&Path, &mut Stopwatch) -> std::io::Result<(Cluster, S)>,
) -> std::io::Result<(Cluster, S, Vec<f64>)> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        if let Some((mut cluster, _)) = last.take() {
            Cluster::stop(&mut cluster);
        }
        let dir = ctx.dir.join(format!("setup{rep}"));
        std::fs::create_dir_all(&dir)?;
        let mut watch = Stopwatch::started();
        let built = boot(&dir, &mut watch)?;
        times.push(watch.total());
        last = Some(built);
        if rep > 0 {
            let _ = std::fs::remove_dir_all(ctx.dir.join(format!("setup{}", rep - 1)));
        }
    }
    let (cluster, state) = last.expect("at least one set-up");
    Ok((cluster, state, times))
}

/// A pausable stopwatch.
pub struct Stopwatch {
    total: f64,
    since: Option<Instant>,
}

impl Stopwatch {
    fn started() -> Stopwatch {
        Stopwatch {
            total: 0.0,
            since: Some(Instant::now()),
        }
    }

    /// Stops counting (generator-side work follows).
    pub fn pause(&mut self) {
        if let Some(t) = self.since.take() {
            self.total += t.elapsed().as_secs_f64();
        }
    }

    /// Counts again.
    pub fn resume(&mut self) {
        self.since.get_or_insert_with(Instant::now);
    }

    fn total(&mut self) -> f64 {
        self.pause();
        self.total
    }
}

/// Runs the timed phase with CPU and peak-memory accounting around it.
fn timed(
    ctx: &Ctx,
    cluster: &Cluster,
    clients: usize,
    rate: Option<f64>,
    rss_at: u64,
    op: &load::OpFn<'_>,
) -> (Vec<OpRecord>, f64, f64, f64) {
    let rss = Mutex::new(None);
    let on_done = |done: u64| {
        if done == rss_at {
            *rss.lock().expect("rss") = Some(cluster.peak_rss_mb());
        }
    };
    let drive = Drive {
        entry: cluster.entry(),
        clients,
        seconds: ctx.seconds,
        trace: ctx.trace,
        run_clock: ctx.run_clock,
        on_done: &on_done,
    };
    let cpu0 = cluster.cpu_s();
    let (records, wall) = match rate {
        Some(rate) => load::open_loop(&drive, rate, op),
        None => load::closed_loop(&drive, op),
    };
    let cpu = cluster.cpu_s() - cpu0;
    let rss = rss
        .into_inner()
        .expect("rss")
        .unwrap_or_else(|| cluster.peak_rss_mb());
    (records, wall, cpu, rss)
}

fn tally_of(records: &[OpRecord]) -> Tally {
    let mut tally = Tally::default();
    for r in records {
        tally.record(r.outcome);
    }
    tally
}

/// The traced ops a replay samples: [`REPLAY_OPS`] traced successes
/// spread evenly over the timed phase.
fn replay_sample(records: &[OpRecord]) -> Vec<&OpRecord> {
    let traced: Vec<&OpRecord> = records
        .iter()
        .filter(|r| r.traced && r.outcome.is_ok())
        .collect();
    let picks = REPLAY_OPS.min(traced.len());
    (0..picks)
        .map(|i| traced[(2 * i + 1) * traced.len() / (2 * picks)])
        .collect()
}

fn report_mismatch(what: &str, n: u64) {
    eprintln!("perfbench: op {n}: {what} differs from the library's output");
}

// ---------------------------------------------------------------------------
// publish
// ---------------------------------------------------------------------------

/// Uploads per run whose result bytes are kept for the byte-identity
/// check (every eighth op).
const PUBLISH_SAMPLE_EVERY: u64 = 8;
const PUBLISH_MECHANISM: &str = "mechanism=promesse&alpha=100";

/// `publish`: never-seen serving_day(1000)-sized uploads through the
/// router, a promesse job on each, polled to `done` and fetched.
pub fn publish(ctx: &Ctx) -> std::io::Result<Outcome> {
    let template = Template::new(1000);
    let first_variant = ctx.seed % VARIANTS;
    let (mut cluster, (), setup_s) = repeat_setup(ctx, SETUP_REPS, |dir, _| {
        Ok((Cluster::sharded(&ctx.serve, dir, 2)?, ()))
    })?;
    let kept: Mutex<Vec<(u64, Vec<u8>)>> = Mutex::new(Vec::new());
    let op = |op: &mut OpCtx<'_>, n: u64| -> Result<OpResult, Failure> {
        let body = template.variant(first_variant + n);
        let (status, _, reply) = op.send("POST /v1/datasets", "POST", "/v1/datasets", &body)?;
        check_status(status)?;
        drop(body);
        let digest = json_str_field(&reply, "digest").ok_or(Failure::WrongOutput)?;
        if json_str_field(&reply, "registered").as_deref() != Some("new") {
            return Err(Failure::WrongOutput);
        }
        let target = format!(
            "/v1/jobs?dataset={digest}&{PUBLISH_MECHANISM}&seed={}",
            ctx.seed
        );
        let (id, polls, job_wait_s) = run_job(op, &target)?;
        let (headers, result) = fetch(op, &id)?;
        check_fixes_header(&headers, &result)?;
        if n.is_multiple_of(PUBLISH_SAMPLE_EVERY) {
            kept.lock().expect("kept").push((n, result));
        }
        Ok(OpResult { polls, job_wait_s })
    };
    let metrics_before = replay::scrape(cluster.entry());
    let (records, wall_s, cpu_s, peak_rss_mb) = timed(ctx, &cluster, 2, None, 16, &op);
    let metrics_after = replay::scrape(cluster.entry());
    let mut tally = tally_of(&records);
    // Byte identity, outside the timed window.
    for (n, got) in kept.into_inner().expect("kept") {
        let dataset = parse(&template.variant(first_variant + n));
        let (_, want) = reference(&dataset, PUBLISH_MECHANISM, ctx.seed);
        if got != want {
            report_mismatch("result body", n);
            tally.demote(Failure::WrongOutput);
        }
    }
    let replay = if ctx.trace {
        let names = cluster.shard_names();
        let mut r = Replay::new(ctx, &records, metrics_before, metrics_after, true);
        let store_dir = ctx.dir.join("replay-store");
        let (store, _) = mobipriv_service::Store::open(&store_dir)?;
        let registry = mobipriv_service::DatasetRegistry::new(512 * 1024 * 1024);
        for rec in replay_sample(&records) {
            let body = template.variant(first_variant + rec.n);
            let dataset = r.publish_shard_side(rec, &body, &registry, &store, &names);
            let (_, csv) = r.engine_promesse(rec, &dataset, PUBLISH_MECHANISM, ctx.seed);
            r.store_result(rec, &store, &csv);
            r.job_wait(rec);
            r.cache_lookups(rec, 2, &csv);
            r.http(rec, &csv);
            r.router_hop_upload(rec, &cluster, &body, &names);
        }
        Some(r)
    } else {
        None
    };
    cluster.stop();
    Ok(Outcome {
        tally,
        records,
        wall_s,
        setup_s,
        cpu_s,
        peak_rss_mb,
        probes: Vec::new(),
        input: template.input(),
        config: "router + 2 shards (--data-dir), shipped defaults".to_owned(),
        replay,
    })
}

// ---------------------------------------------------------------------------
// pipeline and utility
// ---------------------------------------------------------------------------

/// Every tenth one-shot op keeps its body for the byte-identity check.
const ONESHOT_SAMPLE_EVERY: u64 = 10;

const UTILITY_HEADERS: [&str; 5] = [
    "x-mobipriv-distortion-mean-m",
    "x-mobipriv-distortion-median-m",
    "x-mobipriv-distortion-p95-m",
    "x-mobipriv-distortion-max-m",
    "x-mobipriv-coverage-f1",
];

/// The utility headers the library's metrics give for a release, in
/// the node's formatting.
fn utility_headers(input: &Dataset, output: &Dataset) -> Vec<String> {
    let d = spatial::dataset_distortion_anonymous(input, output);
    let c = coverage::coverage(input, output, 250.0);
    vec![
        format!("{:.3}", d.mean),
        format!("{:.3}", d.median),
        format!("{:.3}", d.p95),
        format!("{:.3}", d.max),
        format!("{:.4}", c.f1),
    ]
}

/// `pipeline` (`report = false`) or `utility` (`report = true`): one
/// client against one in-memory node holding a registered
/// serving_day(`users`), a fresh seed per op so every op computes.
pub fn oneshot(ctx: &Ctx, users: usize, mechanism: &str, report: bool) -> std::io::Result<Outcome> {
    let base = serving_day(users, BASE_SEED).dataset;
    let mut body = Vec::new();
    write_csv(&base, &mut body).expect("in-memory write");
    let dataset = parse(&body);
    let (mut cluster, digest, setup_s) = repeat_setup(ctx, SETUP_REPS, |dir, _| {
        let cluster = Cluster::single(&ctx.serve, dir)?;
        let (status, reply) =
            mobipriv_service::client::request(cluster.entry(), "POST", "/v1/datasets", &body)?;
        let digest = json_str_field(&reply, "digest")
            .filter(|_| status == 200)
            .ok_or_else(|| std::io::Error::other(format!("register answered {status}")))?;
        Ok((cluster, digest))
    })?;
    let report_q = if report { "&report=1" } else { "" };
    let kept: Mutex<Vec<(u64, Headers, Vec<u8>)>> = Mutex::new(Vec::new());
    let op = |op: &mut OpCtx<'_>, n: u64| -> Result<OpResult, Failure> {
        let target = format!(
            "/v1/anonymize?dataset={digest}&{mechanism}&seed={}{report_q}",
            op_seed(ctx.seed, n)
        );
        let (status, headers, result) = op.send("POST /v1/anonymize", "POST", &target, b"")?;
        if status != 200 {
            return Err(Failure::Status(status));
        }
        if header(&headers, "x-mobipriv-cache") != Some("miss") {
            return Err(Failure::WrongOutput);
        }
        check_fixes_header(&headers, &result)?;
        if report
            && UTILITY_HEADERS.iter().any(|h| {
                header(&headers, h)
                    .and_then(|v| v.parse::<f64>().ok())
                    .is_none()
            })
        {
            return Err(Failure::WrongOutput);
        }
        if n.is_multiple_of(ONESHOT_SAMPLE_EVERY) {
            kept.lock().expect("kept").push((n, headers, result));
        }
        Ok(OpResult::default())
    };
    let metrics_before = replay::scrape(cluster.entry());
    let (records, wall_s, cpu_s, peak_rss_mb) = timed(ctx, &cluster, 1, None, 8, &op);
    let metrics_after = replay::scrape(cluster.entry());
    let mut tally = tally_of(&records);
    for (n, headers, got) in kept.into_inner().expect("kept") {
        let (output, want) = reference(&dataset, mechanism, op_seed(ctx.seed, n));
        if got != want {
            report_mismatch("response body", n);
            tally.demote(Failure::WrongOutput);
            continue;
        }
        if report {
            let want = utility_headers(&dataset, &output);
            let got: Vec<String> = UTILITY_HEADERS
                .iter()
                .map(|h| header(&headers, h).unwrap_or("").to_owned())
                .collect();
            if got != want {
                report_mismatch("utility report headers", n);
                tally.demote(Failure::WrongOutput);
            }
        }
    }
    let replay = if ctx.trace {
        let mut r = Replay::new(ctx, &records, metrics_before, metrics_after, false);
        for rec in replay_sample(&records) {
            let seed = op_seed(ctx.seed, rec.n);
            let (output, csv) = if report {
                r.engine_promesse(rec, &dataset, mechanism, seed)
            } else {
                r.engine_pipeline(rec, &dataset, mechanism, seed)
            };
            if report {
                r.utility_metrics(rec, &dataset, &output);
            }
            r.cache_lookups(rec, 1, &csv);
            r.http(rec, &csv);
        }
        Some(r)
    } else {
        None
    };
    cluster.stop();
    Ok(Outcome {
        tally,
        records,
        wall_s,
        setup_s,
        cpu_s,
        peak_rss_mb,
        probes: Vec::new(),
        input: Input {
            traces: dataset.len(),
            fixes: dataset.total_fixes(),
            bytes: body.len(),
        },
        config: "one in-memory node, shipped defaults".to_owned(),
        replay,
    })
}

// ---------------------------------------------------------------------------
// query
// ---------------------------------------------------------------------------

const QUERY_MECHANISMS: [&str; 2] = ["mechanism=promesse&alpha=100", "mechanism=geoind"];
const QUERY_VARIANTS_PER_SHARD: usize = 4;

/// One published key of the `query` workload.
pub struct Key {
    /// Dataset digest.
    pub digest: String,
    /// Mechanism query.
    pub mechanism: &'static str,
    /// Owning shard index.
    pub owner: usize,
    /// The library's bytes for it.
    pub want: Vec<u8>,
    /// `x-mobipriv-output-fixes` of it.
    pub fixes: usize,
}

/// Publishes 8 variants × {promesse, geoind} through the router and
/// waits for every job.
fn publish_keys(entry: &str, bodies: &[Vec<u8>], seed: u64) -> std::io::Result<()> {
    let mut conn = Connection::connect(entry, READ_TIMEOUT)?;
    let err = |what: String| std::io::Error::other(what);
    for body in bodies {
        let (status, _, reply) = conn.request("POST", "/v1/datasets", body)?;
        let digest = json_str_field(&reply, "digest")
            .filter(|_| status == 200)
            .ok_or_else(|| err(format!("register answered {status}")))?;
        for mechanism in QUERY_MECHANISMS {
            let target = format!("/v1/jobs?dataset={digest}&{mechanism}&seed={seed}");
            let (status, _, reply) = conn.request("POST", &target, b"")?;
            let id = json_str_field(&reply, "id")
                .filter(|_| status == 200 || status == 202)
                .ok_or_else(|| err(format!("job submit answered {status}")))?;
            let started = Instant::now();
            loop {
                let (status, _, reply) = conn.request("GET", &format!("/v1/jobs/{id}"), b"")?;
                match json_str_field(&reply, "status").as_deref() {
                    Some("done") if status == 200 => break,
                    Some("queued" | "running") if started.elapsed() < JOB_DEADLINE => {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    other => return Err(err(format!("set-up job ended {other:?}"))),
                }
            }
        }
    }
    Ok(())
}

/// `query`: an open loop of cached job answers and 1.2 MB result
/// fetches through the router, then the `max_rate_ops_s` ladder.
pub fn query(ctx: &Ctx) -> std::io::Result<Outcome> {
    let template = Template::new(200);
    let first_variant = ctx.seed % VARIANTS;
    // Candidate digests depend only on content: computed once, lazily.
    let mut digests: Vec<String> = Vec::new();
    let (mut cluster, variants, setup_s) = repeat_setup(ctx, QUERY_SETUP_REPS, |dir, watch| {
        let cluster = Cluster::sharded(&ctx.serve, dir, 2)?;
        // Generator side: choose keys once the shards have addresses.
        watch.pause();
        let names = cluster.shard_names();
        let mut owners = Vec::new();
        let picked = loop {
            let c = owners.len();
            if digests.len() <= c {
                let body = template.variant(first_variant + c as u64);
                digests.push(mobipriv_model::digest::dataset_digest(&parse(&body)));
            }
            owners.push(rendezvous_owner(&names, &digests[c]).expect("two shards"));
            if let Some(p) = balanced_pick(&owners, names.len(), QUERY_VARIANTS_PER_SHARD) {
                break p;
            }
        };
        let bodies: Vec<Vec<u8>> = picked
            .iter()
            .map(|&c| template.variant(first_variant + c as u64))
            .collect();
        watch.resume();
        publish_keys(cluster.entry(), &bodies, ctx.seed)?;
        let mut cluster = cluster;
        for node in &mut cluster.nodes {
            node.restart()?;
        }
        Ok((cluster, picked))
    })?;
    // The library's bytes for every key, outside the timed window.
    let names = cluster.shard_names();
    let mut keys = Vec::new();
    for &c in &variants {
        let dataset = parse(&template.variant(first_variant + c as u64));
        for mechanism in QUERY_MECHANISMS {
            let (output, want) = reference(&dataset, mechanism, ctx.seed);
            keys.push(Key {
                digest: digests[c].clone(),
                mechanism,
                owner: rendezvous_owner(&names, &digests[c]).expect("two shards"),
                want,
                fixes: output.total_fixes(),
            });
        }
    }
    let key_of = |n: u64| &keys[((n + ctx.seed) % keys.len() as u64) as usize];
    let op = |op: &mut OpCtx<'_>, n: u64| -> Result<OpResult, Failure> {
        let key = key_of(n);
        let target = format!(
            "/v1/jobs?dataset={}&{}&seed={}",
            key.digest, key.mechanism, ctx.seed
        );
        let (id, polls, job_wait_s) = run_job(op, &target)?;
        let (headers, body) = fetch(op, &id)?;
        if body != key.want || header_usize(&headers, "x-mobipriv-output-fixes") != Some(key.fixes)
        {
            return Err(Failure::WrongOutput);
        }
        Ok(OpResult { polls, job_wait_s })
    };
    let metrics_before = replay::scrape(cluster.entry());
    let (records, wall_s, cpu_s, peak_rss_mb) =
        timed(ctx, &cluster, 2, Some(QUERY_RATE), 1000, &op);
    let metrics_after = replay::scrape(cluster.entry());
    let mut tally = tally_of(&records);
    // The ladder: the timed phase is the start rung's probe.
    let rungs = ladder(LADDER_START, LADDER_RUNGS);
    let mut probes = vec![probe_of(QUERY_RATE, &records, wall_s)];
    let mut probed = vec![(QUERY_RUNG, probes[0].passes())];
    let never = |_: u64| {};
    while let Some(rung) = next_rung(rungs.len(), QUERY_RUNG, &probed) {
        if probes.len() > MAX_PROBES {
            break;
        }
        std::thread::sleep(PROBE_GAP);
        let drive = Drive {
            entry: cluster.entry(),
            clients: 2,
            seconds: PROBE_S,
            trace: false,
            run_clock: ctx.run_clock,
            on_done: &never,
        };
        let (recs, wall) = load::open_loop(&drive, rungs[rung], &op);
        tally.merge(&tally_of(&recs));
        let probe = probe_of(rungs[rung], &recs, wall);
        probed.push((rung, probe.passes()));
        probes.push(probe);
    }
    let replay = if ctx.trace {
        let mut r = Replay::new(ctx, &records, metrics_before, metrics_after, true);
        r.store_open(&cluster, &ctx.dir.join("open-copy"))?;
        for rec in replay_sample(&records) {
            let key = key_of(rec.n);
            r.cache_lookups(rec, 2, &key.want);
            r.http(rec, &key.want);
            r.router_hop_query(rec, &cluster, key, ctx.seed, &names);
        }
        Some(r)
    } else {
        None
    };
    cluster.stop();
    Ok(Outcome {
        tally,
        records,
        wall_s,
        setup_s,
        cpu_s,
        peak_rss_mb,
        probes,
        input: Input {
            traces: template.traces,
            fixes: template.fixes,
            bytes: keys.first().map_or(0, |k| k.want.len()),
        },
        config: "router + 2 shards (--data-dir, restarted after publishing), shipped defaults"
            .to_owned(),
        replay,
    })
}

/// One ladder rung's verdict from its ops.
fn probe_of(offered: f64, records: &[OpRecord], wall: f64) -> Probe {
    let mut latencies: Vec<f64> = records.iter().map(|r| r.timing.latency() * 1e3).collect();
    latencies.sort_by(f64::total_cmp);
    let timings: Vec<stats::Timing> = records.iter().map(|r| r.timing).collect();
    let ok = records.iter().filter(|r| r.outcome.is_ok()).count();
    Probe {
        offered,
        achieved: ok as f64 / wall,
        p99_ms: percentile(&latencies, 0.99),
        lag_growing: lag_growing(&timings),
    }
}
