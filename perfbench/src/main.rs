//! `perfbench` — the end-to-end benchmark of mobipriv's
//! publish-once/query-many stack.
//!
//! One generator process boots `mobipriv-serve` nodes with their
//! shipped defaults, drives one of four workloads (`publish`,
//! `pipeline`, `utility`, `query`, or `all` of them in turn) with at
//! most two client threads on two keep-alive connections, checks every
//! output against the library, and prints each end-to-end metric by
//! name and unit. A traced run (`--trace 1`) instead replays a fixed
//! sample of ops through each layer's public functions and prints the
//! per-layer breakdown. The last stdout line is always one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the exit code is
//! non-zero when any output check failed.
//!
//! Normally run through `perfbench/run.py`, which builds this binary
//! and `mobipriv-serve` from source first:
//!
//! ```text
//! python3 perfbench/run.py --workload query --seed 1 --seconds 10 --trace 0
//! ```

mod cluster;
mod load;
mod replay;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use stats::{median, percentile, tail};
use workloads::{Ctx, Outcome};

const USAGE: &str = "\
usage: perfbench --workload publish|pipeline|utility|query|all --seed N
                 --seconds S --trace 0|1 --serve PATH [--out DIR]
                 [--revision REV]";

/// A run that is still going after this long kills its nodes and
/// fails, inside the 180 s a run may take.
const WATCHDOG: Duration = Duration::from_secs(170);

/// The per-layer metrics a traced run prints, with their units.
const PER_LAYER: [(&str, &str); 32] = [
    ("http.requests_per_op", "count"),
    ("http.read_head_us", "us"),
    ("http.write_response_ms", "ms"),
    ("router.hop_ms", "ms"),
    ("router.place_ms", "ms"),
    ("router.upstream_per_req", "count"),
    ("router.upstream_useful", "ratio"),
    ("datasets.register_ms", "ms"),
    ("jobs.polls_per_op", "count"),
    ("jobs.wait_ms", "ms"),
    ("jobs.retries_per_op", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.computations_per_op", "count"),
    ("cache.lookup_us", "us"),
    ("store.put_dataset_ms", "ms"),
    ("store.put_result_ms", "ms"),
    ("store.open_ms", "ms"),
    ("model.parse_ms", "ms"),
    ("model.digest_ms", "ms"),
    ("model.serialize_ms", "ms"),
    ("model.columns_ms", "ms"),
    ("core.engine_ms", "ms"),
    ("core.cpu_per_wall", "ratio"),
    ("core.promesse_ms", "ms"),
    ("core.mixzones_ms", "ms"),
    ("core.mixzones_detect_ms", "ms"),
    ("core.zones", "count"),
    ("metrics.distortion_ms", "ms"),
    ("metrics.coverage_ms", "ms"),
    ("gen.lag_p99_ms", "ms"),
    ("op.unattributed_ms", "ms"),
    ("op.trace_overhead", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve: PathBuf,
    out: PathBuf,
    revision: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut i = 0;
    while i < argv.len() {
        let name = argv[i].as_str();
        let value = argv.get(i + 1).ok_or(format!("{name} expects a value"))?;
        flags.insert(name, value);
        i += 2;
    }
    let get = |name: &str| flags.get(name).copied().ok_or(format!("missing {name}"));
    let known = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--serve",
        "--out",
        "--revision",
    ];
    if let Some(bad) = flags.keys().find(|k| !known.contains(k)) {
        return Err(format!("unexpected argument {bad}"));
    }
    let workload = get("--workload")?.to_owned();
    if !["publish", "pipeline", "utility", "query", "all"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace expects 0 or 1".into()),
        },
        serve: PathBuf::from(get("--serve")?),
        out: PathBuf::from(flags.get("--out").copied().unwrap_or(".bench_out")),
        revision: flags
            .get("--revision")
            .copied()
            .unwrap_or("unknown")
            .to_owned(),
    })
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn json_metrics(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push('}');
    s
}

/// The end-to-end metrics of an untraced run: all eight are printed
/// as a table; the returned ones (every one that is never zero on a
/// correct run and steady across seeds) go into the JSON result.
/// `max_rate_ops_s` exists only for the open-loop `query` workload
/// and `failed_frac` is carried by `attempted`/`failed`.
fn end_to_end(workload: &str, o: &Outcome) -> Vec<Metric> {
    let ok: Vec<&load::OpRecord> = o.records.iter().filter(|r| r.outcome.is_ok()).collect();
    let mut latencies: Vec<f64> = ok.iter().map(|r| r.timing.latency() * 1e3).collect();
    latencies.sort_by(f64::total_cmp);
    let mut lags: Vec<f64> = o.records.iter().map(|r| r.timing.lag() * 1e3).collect();
    lags.sort_by(f64::total_cmp);
    let t = tail(&latencies);
    let ops_per_s = ok.len() as f64 / o.wall_s;
    let max_rate = if o.probes.is_empty() {
        "n/a (closed loop)".to_owned()
    } else {
        let rungs: Vec<String> = o
            .probes
            .iter()
            .map(|p| {
                format!(
                    "{:.0}{} (p99 {:.1} ms, {:.0}/s{})",
                    p.offered,
                    if p.passes() { " ok" } else { " no" },
                    p.p99_ms,
                    p.achieved,
                    if p.lag_growing { ", lag grows" } else { "" }
                )
            })
            .collect();
        format!(
            "{:.0} ops/s   ladder: {}",
            stats::max_rate(&o.probes),
            rungs.join("; ")
        )
    };
    let completed = o.records.len().max(1) as f64;
    let setups: Vec<String> = o.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    let loop_kind = if workload == "query" {
        "open loop, from due time"
    } else {
        "closed loop"
    };
    let rows: [(Metric, String); 6] = [
        (
            ("setup_s", median(&o.setup_s), "s"),
            format!("median of {} set-ups: {}", setups.len(), setups.join(" ")),
        ),
        (
            ("op_p50_ms", percentile(&latencies, 0.5), "ms"),
            loop_kind.to_owned(),
        ),
        (
            ("op_tail_ms", t.value, "ms"),
            format!(
                "{} of {} ops, {} beyond it",
                t.label,
                latencies.len(),
                t.beyond
            ),
        ),
        (
            ("ops_per_s", ops_per_s, "ops/s"),
            format!("{} ops in {:.3} s", ok.len(), o.wall_s),
        ),
        (
            ("cpu_ms_per_op", o.cpu_s * 1e3 / completed, "ms"),
            "router + node processes, user + sys".to_owned(),
        ),
        (
            ("peak_rss_mb", o.peak_rss_mb, "MB"),
            "summed VmHWM of the serving processes at a fixed op count".to_owned(),
        ),
    ];
    for ((name, value, unit), note) in &rows {
        println!("  {name:<16} {value:>12.4} {unit:<6} {note}");
        if *name == "ops_per_s" {
            println!("  {:<16} {max_rate}", "max_rate_ops_s");
            println!(
                "  {:<16} {:>12.4} {:<6} {} of {} ops failed",
                "failed_frac",
                o.tally.failed_frac(),
                "",
                o.tally.failed,
                o.tally.attempted
            );
        }
    }
    println!(
        "  {:<16} {:>12.4} {:<6} open-loop lateness (p50 {:.4} ms)",
        "gen.lag_p99_ms",
        percentile(&lags, 0.99).max(0.0),
        "ms",
        percentile(&lags, 0.5).max(0.0)
    );
    rows.into_iter().map(|(metric, _)| metric).collect()
}

/// The per-layer metrics and breakdown of a traced run.
fn per_layer(o: &Outcome) -> Vec<Metric> {
    let replay = o.replay.as_ref().expect("traced runs replay");
    let (selfs, unattributed) = replay.self_medians();
    let ok: Vec<&load::OpRecord> = o.records.iter().filter(|r| r.outcome.is_ok()).collect();
    let traced: Vec<f64> = ok
        .iter()
        .filter(|r| r.traced)
        .map(|r| r.timing.latency())
        .collect();
    let untraced: Vec<f64> = ok
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.timing.latency())
        .collect();
    let mut lags: Vec<f64> = o.records.iter().map(|r| r.timing.lag() * 1e3).collect();
    lags.sort_by(f64::total_cmp);
    let (cpu_per_wall, zones) = replay.engine_extras();
    let mut values: BTreeMap<&str, f64> = replay.values.clone().into_iter().collect();
    values.insert("core.cpu_per_wall", cpu_per_wall);
    values.insert("core.zones", zones);
    values.insert("gen.lag_p99_ms", percentile(&lags, 0.99).max(0.0));
    values.insert("op.unattributed_ms", unattributed * 1e3);
    values.insert("op.trace_overhead", median(&traced) / median(&untraced));
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if let Some(v) = values.get(name) {
                *v
            } else {
                let stem = name.trim_end_matches("_ms").trim_end_matches("_us");
                let scale = if unit == "us" { 1e6 } else { 1e3 };
                selfs.get(stem).copied().unwrap_or(0.0) * scale
            };
            (name, value, unit)
        })
        .collect();
    // The breakdown: median self time per op of every layer the op
    // touches, largest first, with its share of the median sampled op.
    let sampled_op = median(&replay.op_s.values().copied().collect::<Vec<_>>());
    let mut rows: Vec<(&str, f64)> = selfs.iter().map(|(l, s)| (*l, *s)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "  breakdown over {} replayed ops (median sampled op {:.3} ms):",
        replay.calls.len(),
        sampled_op * 1e3
    );
    for (layer, s) in &rows {
        println!(
            "    {layer:<22} {:>10.3} ms  {:>5.1} %",
            s * 1e3,
            100.0 * s / sampled_op
        );
    }
    println!(
        "    {:<22} {:>10.3} ms  {:>5.1} %",
        "op.unattributed",
        unattributed * 1e3,
        100.0 * unattributed / sampled_op
    );
    println!(
        "    {:<22} {:>10.3}",
        "op.trace_overhead", values["op.trace_overhead"]
    );
    // Client-side request time per route, for orientation.
    let mut by_route: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in ok.iter().filter(|r| r.traced) {
        let mut per: BTreeMap<&str, f64> = BTreeMap::new();
        for q in &r.reqs {
            *per.entry(q.route).or_default() += q.end - q.start;
        }
        for (route, t) in per {
            by_route.entry(route).or_default().push(t);
        }
    }
    for (route, times) in by_route {
        println!(
            "    client {route:<28} {:>10.3} ms per op (median)",
            median(&times) * 1e3
        );
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<26} {value:>12.4} {unit}");
    }
    metrics
}

/// Writes the traced run's spans (op, request and replayed layer
/// spans) as JSON lines.
fn write_spans(path: &std::path::Path, o: &Outcome) -> std::io::Result<()> {
    let mut out = String::new();
    let us = |s: f64| (s * 1e6).round() as i64;
    let mut id = 0u64;
    for r in o.records.iter().filter(|r| r.traced) {
        id += 1;
        let op_id = id;
        let dur = r.timing.end - r.timing.start;
        let _ = writeln!(
            out,
            "{{\"id\":{op_id},\"parent\":null,\"op\":{},\"name\":\"op\",\"start_us\":{},\"dur_us\":{}}}",
            r.n,
            us(r.run_start),
            us(dur)
        );
        for q in &r.reqs {
            id += 1;
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{op_id},\"op\":{},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}}}",
                r.n,
                q.route,
                us(q.start),
                us(q.end - q.start)
            );
        }
        if let Some(calls) = o.replay.as_ref().and_then(|rp| rp.calls.get(&r.n)) {
            for c in calls {
                id += 1;
                let _ = writeln!(
                    out,
                    "{{\"id\":{id},\"parent\":{op_id},\"op\":{},\"name\":\"{}\",\"within\":{},\"start_us\":{},\"dur_us\":{}}}",
                    r.n,
                    c.call.layer,
                    c.call.parent.map_or("null".to_owned(), |p| format!("\"{p}\"")),
                    us(c.start),
                    us(c.call.dur)
                );
            }
        }
    }
    std::fs::write(path, out)
}

fn run_workload(args: &Args, workload: &str) -> Result<(Outcome, Vec<Metric>), String> {
    let run_clock = Instant::now();
    let dir = args.out.join(format!(
        "run-{workload}-{}-{}",
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ctx = Ctx {
        serve: args.serve.clone(),
        dir: dir.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        run_clock,
    };
    let outcome = match workload {
        "publish" => workloads::publish(&ctx),
        "pipeline" => workloads::oneshot(&ctx, 200, "mechanism=pipeline&alpha=100", false),
        "utility" => workloads::oneshot(&ctx, 40, "mechanism=promesse&alpha=100", true),
        "query" => workloads::query(&ctx),
        _ => unreachable!("validated"),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = outcome.map_err(|e| format!("{workload}: {e}"))?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench {workload}: seed {} · nproc {nproc} · revision {} · {} s timed{}",
        args.seed,
        args.revision,
        args.seconds,
        if args.trace { " · traced" } else { "" }
    );
    println!("  config: {}", outcome.config);
    println!(
        "  input per op: {} traces, {} fixes, {} bytes",
        outcome.input.traces, outcome.input.fixes, outcome.input.bytes
    );
    for (cause, n) in &outcome.tally.causes {
        println!("  failures: {n} × {cause}");
    }
    let metrics = if args.trace {
        let spans = args
            .out
            .join(format!("spans-{workload}-seed{}.jsonl", args.seed));
        write_spans(&spans, &outcome).map_err(|e| format!("{}: {e}", spans.display()))?;
        println!("  spans: {}", spans.display());
        per_layer(&outcome)
    } else {
        end_to_end(workload, &outcome)
    };
    // The run's record: context plus metrics.
    let record = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"nproc\": {nproc}, \"revision\": \"{}\", \
         \"seconds\": {}, \"trace\": {}, \"node_config\": \"{}\", \
         \"input\": {{\"traces\": {}, \"fixes\": {}, \"bytes\": {}}}, \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
        args.seed,
        args.revision,
        args.seconds,
        u8::from(args.trace),
        outcome.config,
        outcome.input.traces,
        outcome.input.fixes,
        outcome.input.bytes,
        outcome.tally.attempted,
        outcome.tally.failed,
        json_metrics(&metrics)
    );
    let results = args.out.join(format!(
        "result-{workload}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::write(&results, &record);
    println!("  record: {}", results.display());
    Ok((outcome, metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if !args.serve.is_file() {
        eprintln!("perfbench: no mobipriv-serve at {}", args.serve.display());
        std::process::exit(2);
    }
    let workloads: Vec<&str> = if args.workload == "all" {
        vec!["publish", "pipeline", "utility", "query"]
    } else {
        vec![args.workload.as_str()]
    };
    // Detached on purpose: it only ever ends the process.
    let budget = WATCHDOG * workloads.len() as u32;
    std::thread::spawn(move || {
        std::thread::sleep(budget);
        eprintln!("perfbench: run exceeded {} s; stopping", budget.as_secs());
        cluster::kill_all();
        std::process::exit(3);
    });
    let mut all_ok = true;
    for workload in workloads {
        match run_workload(&args, workload) {
            Ok((outcome, metrics)) => {
                let correct = outcome.tally.failed == 0 && outcome.tally.attempted > 0;
                all_ok &= correct;
                println!(
                    "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                    outcome.tally.attempted,
                    outcome.tally.failed,
                    json_metrics(&metrics)
                );
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                cluster::kill_all();
                std::process::exit(1);
            }
        }
    }
    if !all_ok {
        std::process::exit(1);
    }
}
