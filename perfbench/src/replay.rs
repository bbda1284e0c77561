//! The traced run's per-layer measurement: a fixed sample of ops is
//! replayed in-process through each layer's public functions on the
//! op's own inputs, one timed call per layer, after the timed phase.
//! Counters that only the serving processes know come from `/metrics`
//! deltas around the timed phase.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::time::Instant;

use mobipriv_core::{
    detect_mix_zones, CancelToken, Engine, Mechanism, MixZoneConfig, MixZones, Promesse,
};
use mobipriv_metrics::{coverage, spatial};
use mobipriv_model::digest::dataset_digest;
use mobipriv_model::{write_csv, Dataset, DatasetStream, WireFormat};
use mobipriv_obs::scrape::{self, Scrape};
use mobipriv_service::cache::CachedResult;
use mobipriv_service::client::{self, Connection};
use mobipriv_service::registry::{resolve_mechanism, Params};
use mobipriv_service::{http, rendezvous_owner, result_key, DatasetRegistry, ResultCache, Store};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cluster::Cluster;
use crate::load::{OpRecord, READ_TIMEOUT};
use crate::stats::{mean, median, self_times, LayerCall};
use crate::workloads::{parse, query_pairs, Ctx, Key};

/// Routed-vs-direct request pairs per sampled op for `router.hop`.
const HOP_PAIRS: usize = 3;

/// Lookups timed per sample for `cache.lookup` (one is far below the
/// clock's resolution).
const LOOKUP_REPS: u32 = 1000;

/// Shortest window `core.cpu_per_wall` is measured over.
const CPU_WINDOW: std::time::Duration = std::time::Duration::from_millis(200);

/// Scrapes a node's (or router's folded) `/metrics`.
pub fn scrape(entry: &str) -> Option<Scrape> {
    let (status, body) = client::request(entry, "GET", "/metrics", b"").ok()?;
    if status != 200 {
        return None;
    }
    scrape::parse(std::str::from_utf8(&body).ok()?).ok()
}

/// Times `f`, returning its value, start instant and duration (s).
fn time<T>(f: impl FnOnce() -> T) -> (T, Instant, f64) {
    let start = Instant::now();
    let value = std::hint::black_box(f());
    (value, start, start.elapsed().as_secs_f64())
}

/// CPU seconds used so far by every thread of this process
/// (nanosecond `schedstat` run time, summed over tasks).
fn process_cpu_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .sum::<f64>()
        / 1e9
}

/// One replayed call, placed on the run clock for the span file.
#[derive(Debug, Clone)]
pub struct Call {
    /// Seconds after the run clock started.
    pub start: f64,
    /// The layer call.
    pub call: LayerCall,
}

/// The replay's measurements.
pub struct Replay {
    run_clock: Instant,
    routed: bool,
    /// Replayed calls per sampled op.
    pub calls: BTreeMap<u64, Vec<Call>>,
    /// The sampled ops' own service time in the timed phase, seconds.
    pub op_s: BTreeMap<u64, f64>,
    /// Per-layer metrics that are counts, ratios or one-off times.
    pub values: BTreeMap<&'static str, f64>,
    cpu_per_wall: Vec<f64>,
    zones: Vec<f64>,
    cache: ResultCache,
}

fn delta(
    before: &Option<Scrape>,
    after: &Option<Scrape>,
    name: &str,
    labels: &[(&str, &str)],
) -> f64 {
    let get = |s: &Option<Scrape>| {
        s.as_ref().map_or(0.0, |s| {
            if labels.is_empty() {
                s.total(name)
            } else {
                s.value(name, labels).unwrap_or(0.0)
            }
        })
    };
    get(after) - get(before)
}

impl Replay {
    /// Starts a replay over a traced run's timed-phase records and the
    /// `/metrics` scrapes taken around it.
    pub fn new(
        ctx: &Ctx,
        records: &[OpRecord],
        before: Option<Scrape>,
        after: Option<Scrape>,
        routed: bool,
    ) -> Replay {
        let ops = records.len().max(1) as f64;
        let requests: f64 = records.iter().map(|r| f64::from(r.requests)).sum();
        let mut values = BTreeMap::new();
        values.insert(
            "http.requests_per_op",
            mean(
                &records
                    .iter()
                    .map(|r| f64::from(r.requests))
                    .collect::<Vec<_>>(),
            ),
        );
        values.insert(
            "jobs.polls_per_op",
            mean(
                &records
                    .iter()
                    .map(|r| f64::from(r.polls))
                    .collect::<Vec<_>>(),
            ),
        );
        values.insert(
            "jobs.retries_per_op",
            delta(&before, &after, "mobipriv_retries_total", &[]) / ops,
        );
        let hits = delta(&before, &after, "mobipriv_cache_hits_total", &[]);
        let misses = delta(&before, &after, "mobipriv_cache_misses_total", &[]);
        values.insert(
            "cache.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        );
        values.insert(
            "cache.computations_per_op",
            delta(&before, &after, "mobipriv_cache_computations_total", &[]) / ops,
        );
        if routed {
            // The closing scrape's own fan-out (one call per shard) is
            // already in the router's counter when it renders.
            let shards = after.as_ref().map_or(0, |s| {
                s.by_label("mobipriv_route_requests_total", "shard").len()
            });
            let upstream =
                delta(&before, &after, "mobipriv_route_requests_total", &[]) - shards as f64;
            let misses = delta(
                &before,
                &after,
                "mobipriv_http_requests_total",
                &[("status", "404")],
            );
            values.insert("router.upstream_per_req", upstream / requests.max(1.0));
            values.insert(
                "router.upstream_useful",
                if upstream > 0.0 {
                    1.0 - misses / upstream
                } else {
                    0.0
                },
            );
        }
        Replay {
            run_clock: ctx.run_clock,
            routed,
            calls: BTreeMap::new(),
            op_s: BTreeMap::new(),
            values,
            cpu_per_wall: Vec::new(),
            zones: Vec::new(),
            cache: ResultCache::new(256 * 1024 * 1024),
        }
    }

    fn record(
        &mut self,
        rec: &OpRecord,
        layer: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        dur: f64,
    ) {
        self.op_s.insert(rec.n, rec.timing.end - rec.timing.start);
        self.calls.entry(rec.n).or_default().push(Call {
            start: start.duration_since(self.run_clock).as_secs_f64(),
            call: LayerCall { layer, parent, dur },
        });
    }

    fn inclusive(&self, rec: &OpRecord, layer: &str) -> f64 {
        self.calls.get(&rec.n).map_or(0.0, |calls| {
            calls
                .iter()
                .filter(|c| c.call.layer == layer)
                .map(|c| c.call.dur)
                .sum()
        })
    }

    /// The shard's side of an upload — and the router's placement of
    /// it: `router.place`, `model.parse`, `model.digest`,
    /// `datasets.register` and `store.put_dataset`.
    pub fn publish_shard_side(
        &mut self,
        rec: &OpRecord,
        body: &[u8],
        registry: &DatasetRegistry,
        store: &Store,
        shards: &[String],
    ) -> Dataset {
        let (_, start, dur) = time(|| {
            let mut stream = DatasetStream::new(WireFormat::Csv);
            stream.push_chunk(body).expect("generator bodies parse");
            let dataset = stream.finish().expect("generator bodies parse");
            rendezvous_owner(shards, &dataset_digest(&dataset))
        });
        self.record(rec, "router.place", Some("router.hop"), start, dur);
        let (dataset, start, dur) = time(|| parse(body));
        self.record(rec, "model.parse", None, start, dur);
        let (digest, start, dur) = time(|| dataset_digest(&dataset));
        self.record(rec, "model.digest", Some("datasets.register"), start, dur);
        let copy = dataset.clone();
        let (_, start, dur) = time(|| registry.register(copy));
        self.record(rec, "datasets.register", None, start, dur);
        let (written, start, dur) = time(|| store.put_dataset(&digest, &dataset));
        written.expect("scratch store writes");
        self.record(rec, "store.put_dataset", None, start, dur);
        dataset
    }

    fn engine(&mut self, rec: &OpRecord, dataset: &Dataset, mechanism: &str, seed: u64) -> Dataset {
        let pairs = query_pairs(mechanism);
        let resolved = resolve_mechanism(Params(&pairs)).expect("benchmark mechanisms resolve");
        let protect = || {
            Engine::sequential()
                .try_protect(
                    resolved.mechanism.as_ref(),
                    dataset,
                    seed,
                    &CancelToken::none(),
                )
                .expect("uncancelled")
        };
        let (output, start, dur) = time(protect);
        self.record(rec, "core.engine", None, start, dur);
        // CPU ÷ wall over calls repeated for at least CPU_WINDOW: the
        // kernel accounts run time at scheduler ticks, too coarse for
        // one short call.
        let (cpu0, wall0) = (process_cpu_s(), Instant::now());
        while wall0.elapsed() < CPU_WINDOW {
            std::hint::black_box(protect());
        }
        let wall = wall0.elapsed().as_secs_f64();
        self.cpu_per_wall.push((process_cpu_s() - cpu0) / wall);
        output
    }

    fn serialize(&mut self, rec: &OpRecord, output: &Dataset) -> Vec<u8> {
        let (csv, start, dur) = time(|| {
            let mut csv = Vec::new();
            write_csv(output, &mut csv).expect("in-memory write");
            csv
        });
        self.record(rec, "model.serialize", None, start, dur);
        csv
    }

    /// A promesse op's compute: `core.engine` around `core.promesse`,
    /// then `model.serialize`.
    pub fn engine_promesse(
        &mut self,
        rec: &OpRecord,
        dataset: &Dataset,
        mechanism: &str,
        seed: u64,
    ) -> (Dataset, Vec<u8>) {
        let output = self.engine(rec, dataset, mechanism, seed);
        let promesse = Promesse::new(100.0).expect("valid alpha");
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, start, dur) = time(|| promesse.protect(dataset, &mut rng));
        self.record(rec, "core.promesse", Some("core.engine"), start, dur);
        let csv = self.serialize(rec, &output);
        (output, csv)
    }

    /// The pipeline's compute: `core.engine` around `core.promesse` and
    /// `core.mixzones` (which builds `model.columns` and runs
    /// `core.mixzones_detect`), then `model.serialize`.
    pub fn engine_pipeline(
        &mut self,
        rec: &OpRecord,
        dataset: &Dataset,
        mechanism: &str,
        seed: u64,
    ) -> (Dataset, Vec<u8>) {
        let output = self.engine(rec, dataset, mechanism, seed);
        let promesse = Promesse::new(100.0).expect("valid alpha");
        let mut rng = StdRng::seed_from_u64(seed);
        let (smoothed, start, dur) = time(|| promesse.protect(dataset, &mut rng));
        self.record(rec, "core.promesse", Some("core.engine"), start, dur);
        let (_, start, dur) = time(|| {
            smoothed.columns();
        });
        self.record(rec, "model.columns", Some("core.mixzones"), start, dur);
        let config = MixZoneConfig::default();
        let mixzones = MixZones::new(config.clone()).expect("default config");
        let (_, start, dur) = time(|| mixzones.protect_with_report(&smoothed, &mut rng));
        self.record(rec, "core.mixzones", Some("core.engine"), start, dur);
        let (zones, start, dur) = time(|| detect_mix_zones(&smoothed, &config));
        self.record(
            rec,
            "core.mixzones_detect",
            Some("core.mixzones"),
            start,
            dur,
        );
        self.zones.push(zones.len() as f64);
        let csv = self.serialize(rec, &output);
        (output, csv)
    }

    /// The utility report: `metrics.distortion` and `metrics.coverage`.
    pub fn utility_metrics(&mut self, rec: &OpRecord, input: &Dataset, output: &Dataset) {
        let (_, start, dur) = time(|| spatial::dataset_distortion_anonymous(input, output));
        self.record(rec, "metrics.distortion", None, start, dur);
        let (_, start, dur) = time(|| coverage::coverage(input, output, 250.0));
        self.record(rec, "metrics.coverage", None, start, dur);
    }

    /// `store.put_result` of the op's finished result.
    pub fn store_result(&mut self, rec: &OpRecord, store: &Store, csv: &[u8]) {
        let result = CachedResult {
            canonical: format!("perfbench|{}", rec.n),
            content_type: "text/csv",
            headers: Vec::new(),
            body: csv.to_vec(),
        };
        let (written, start, dur) = time(|| store.put_result(&result));
        written.expect("scratch store writes");
        self.record(rec, "store.put_result", None, start, dur);
    }

    /// `jobs.wait`: submit → done minus the replayed engine, serialize
    /// and `put_result` (queueing plus poll granularity).
    pub fn job_wait(&mut self, rec: &OpRecord) {
        let work: f64 = ["core.engine", "model.serialize", "store.put_result"]
            .iter()
            .map(|l| self.inclusive(rec, l))
            .sum();
        let wait = (rec.job_wait_s - work).max(0.0);
        self.record(rec, "jobs.wait", None, Instant::now(), wait);
    }

    /// `cache.lookup`: `ResultCache::lookup` on a cache holding the
    /// workload's results, `per_op` lookups per op.
    pub fn cache_lookups(&mut self, rec: &OpRecord, per_op: u32, body: &[u8]) {
        let canonical = format!("perfbench|{}", rec.n);
        let _ = self.cache.get_or_compute(&canonical, || {
            Ok(CachedResult {
                canonical: canonical.clone(),
                content_type: "text/csv",
                headers: Vec::new(),
                body: body.to_vec(),
            })
        });
        let key = result_key(&canonical);
        let (_, start, dur) = time(|| {
            for _ in 0..LOOKUP_REPS {
                std::hint::black_box(self.cache.lookup(std::hint::black_box(&key)));
            }
        });
        let per = dur / f64::from(LOOKUP_REPS) * f64::from(per_op);
        self.record(rec, "cache.lookup", None, start, per);
    }

    /// `http.read_head` over the op's request heads and
    /// `http.write_response` of its responses into a buffer — twice
    /// over when a router re-parses and re-writes each one.
    pub fn http(&mut self, rec: &OpRecord, result: &[u8]) {
        let hops = if self.routed { 2 } else { 1 };
        let heads: Vec<String> = rec
            .reqs
            .iter()
            .map(|r| {
                let (method, path) = r.route.split_once(' ').unwrap_or(("GET", r.route));
                format!(
                    "{method} {} HTTP/1.1\r\nhost: client\r\ncontent-type: text/csv\r\n\
                     content-length: 0\r\n\r\n",
                    path.replace(":id", "0123456789abcdef")
                )
            })
            .collect();
        let (_, start, dur) = time(|| {
            for _ in 0..hops {
                for head in &heads {
                    let parsed = http::read_head(&mut Cursor::new(head.as_bytes()));
                    std::hint::black_box(parsed.is_ok());
                }
            }
        });
        self.record(rec, "http.read_head", None, start, dur);
        let small = vec![b'x'; 256];
        let headers = vec![("content-type", "text/csv".to_owned())];
        let mut sink: Vec<u8> = Vec::with_capacity(result.len() + 4096);
        let (_, start, dur) = time(|| {
            for _ in 0..hops {
                for r in &rec.reqs {
                    sink.clear();
                    let carries_result =
                        matches!(r.route, "GET /v1/results/:id" | "POST /v1/anonymize");
                    let body = if carries_result { result } else { &small };
                    let _ = http::write_response(&mut sink, 200, "OK", &headers, body, true);
                }
            }
        });
        self.record(rec, "http.write_response", None, start, dur);
    }

    fn hop(
        &mut self,
        rec: &OpRecord,
        mut routed: impl FnMut() -> f64,
        mut direct: impl FnMut() -> f64,
    ) {
        let start = Instant::now();
        let mut via_router = Vec::new();
        let mut straight = Vec::new();
        for _ in 0..HOP_PAIRS {
            via_router.push(routed());
            straight.push(direct());
        }
        let hop = (median(&via_router) - median(&straight)).max(0.0);
        self.record(rec, "router.hop", None, start, hop);
    }

    /// `router.hop` of an upload: the op's `POST /v1/datasets` routed
    /// vs sent straight to its owner, alternating.
    pub fn router_hop_upload(
        &mut self,
        rec: &OpRecord,
        cluster: &Cluster,
        body: &[u8],
        shards: &[String],
    ) {
        let owner = rendezvous_owner(shards, &dataset_digest(&parse(body))).expect("shards");
        let mut router = Connection::connect(cluster.entry(), READ_TIMEOUT).expect("router");
        let mut shard =
            Connection::connect(&cluster.nodes[owner].addr, READ_TIMEOUT).expect("shard");
        let send = |conn: &mut Connection| {
            let t = Instant::now();
            let _ = conn.request("POST", "/v1/datasets", body);
            t.elapsed().as_secs_f64()
        };
        let router = std::cell::RefCell::new(&mut router);
        let shard = std::cell::RefCell::new(&mut shard);
        self.hop(
            rec,
            || send(&mut router.borrow_mut()),
            || send(&mut shard.borrow_mut()),
        );
    }

    /// `router.hop` of a query op (cached submit + result fetch),
    /// routed vs straight to the owner, alternating; `router.place` is
    /// the rendezvous lookup.
    pub fn router_hop_query(
        &mut self,
        rec: &OpRecord,
        cluster: &Cluster,
        key: &Key,
        seed: u64,
        shards: &[String],
    ) {
        let (_, start, dur) = time(|| rendezvous_owner(shards, &key.digest));
        self.record(rec, "router.place", Some("router.hop"), start, dur);
        let target = format!(
            "/v1/jobs?dataset={}&{}&seed={seed}",
            key.digest, key.mechanism
        );
        let op = |conn: &mut Connection| {
            let t = Instant::now();
            if let Ok((_, _, reply)) = conn.request("POST", &target, b"") {
                if let Some(id) = client::json_str_field(&reply, "id") {
                    let _ = conn.request("GET", &format!("/v1/results/{id}"), b"");
                }
            }
            t.elapsed().as_secs_f64()
        };
        let mut router = Connection::connect(cluster.entry(), READ_TIMEOUT).expect("router");
        let mut shard =
            Connection::connect(&cluster.nodes[key.owner].addr, READ_TIMEOUT).expect("shard");
        let router = std::cell::RefCell::new(&mut router);
        let shard = std::cell::RefCell::new(&mut shard);
        self.hop(
            rec,
            || op(&mut router.borrow_mut()),
            || op(&mut shard.borrow_mut()),
        );
    }

    /// `store.open_ms`: `Store::open` over a copy of each shard's data
    /// dir (the median).
    pub fn store_open(
        &mut self,
        cluster: &Cluster,
        scratch: &std::path::Path,
    ) -> std::io::Result<()> {
        let mut opens = Vec::new();
        for (i, _) in cluster.nodes.iter().enumerate() {
            let copy = scratch.join(format!("shard{i}"));
            let source = cluster.nodes[i]
                .data_dir()
                .expect("durable shards have a data dir");
            copy_dir(&source, &copy)?;
            let (opened, _, dur) = time(|| Store::open(&copy));
            drop(opened?);
            opens.push(dur * 1e3);
        }
        self.values.insert("store.open_ms", median(&opens));
        Ok(())
    }

    /// Per-layer self time medians over the sampled ops (seconds), and
    /// the median unattributed op time.
    pub fn self_medians(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let mut per_layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut unattributed = Vec::new();
        for (n, calls) in &self.calls {
            let plain: Vec<LayerCall> = calls.iter().map(|c| c.call.clone()).collect();
            let selfs = self_times(&plain);
            let explained: f64 = selfs.values().sum();
            unattributed.push(self.op_s.get(n).copied().unwrap_or(0.0) - explained);
            for (layer, s) in selfs {
                per_layer.entry(layer).or_default().push(s);
            }
        }
        let ops = self.calls.len();
        let medians = per_layer
            .into_iter()
            .map(|(layer, mut v)| {
                // Ops that never touched the layer spent zero in it.
                v.resize(ops, 0.0);
                (layer, median(&v))
            })
            .collect();
        (medians, median(&unattributed))
    }

    /// Engine CPU ÷ wall and zone count, medians (0 when unused).
    pub fn engine_extras(&self) -> (f64, f64) {
        let m = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        (m(&self.cpu_per_wall), m(&self.zones))
    }
}

fn copy_dir(from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}
