//! Durability over real sockets and real processes: a `mobipriv-serve`
//! child with `--data-dir` is SIGKILLed mid-workload at randomized
//! points, restarted on the same directory, and must serve previously
//! finished results as byte-identical cache hits (`x-mobipriv-cache:
//! hit`) without recomputation, with registered datasets resolvable and
//! in-flight jobs either absent or cleanly rerunnable. Plus an
//! in-process socket test pinning the exact store gauge values
//! `/v1/stats` and `/metrics` report after a known workload.

mod common;

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use common::{get, parse_json, poll_done, post, register, str_of};
use mobipriv_eval::Json;
use mobipriv_model::write_csv;
use mobipriv_service::{Server, ServerConfig};
use mobipriv_synth::scenarios;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mobipriv-persist-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `params` is the mechanism portion of the query, e.g.
/// `mechanism=promesse&alpha=150&seed=1` or plain `mechanism=raw`.
fn submit(addr: SocketAddr, digest: &str, params: &str) -> String {
    let target = format!("/v1/jobs?dataset={digest}&{params}");
    let (status, _, body) = post(addr, &target, b"");
    assert!(
        status == 202 || status == 200,
        "submit: {status} {}",
        String::from_utf8_lossy(&body)
    );
    str_of(&parse_json(&body), "id").to_owned()
}

/// A `mobipriv-serve` child process bound to an ephemeral port.
struct ServeProc {
    child: Child,
    addr: SocketAddr,
}

impl ServeProc {
    fn start(data_dir: &Path) -> ServeProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mobipriv-serve"))
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(data_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn mobipriv-serve");
        // First stdout line: `mobipriv-serve listening on http://ADDR ...`
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read startup line");
        let addr: SocketAddr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unparseable startup line: {line:?}"));
        ServeProc { child, addr }
    }

    /// SIGKILL — no shutdown hook runs, exactly the crash the journal
    /// and fsync ordering exist to survive.
    fn kill_9(mut self) {
        self.child.kill().expect("kill -9");
        self.child.wait().expect("reap");
    }
}

#[test]
fn kill_nine_then_restart_serves_byte_identical_hits() {
    let data_dir = scratch("kill9");
    let workload = scenarios::serving_day(12, 3);
    let mut csv = Vec::new();
    write_csv(&workload.dataset, &mut csv).unwrap();

    // Deterministic pseudo-random kill points, seeded from the clock;
    // the seed is printed so any failure replays exactly.
    let seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos() as u64;
    println!("kill-point seed: {seed}");
    let mut lcg = seed | 1;
    let mut next_delay_ms = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lcg >> 58 // 0..64 ms
    };

    // Phase 1: a clean workload that must survive every later crash.
    // `mechanism=raw` is deliberate: its result body IS the canonical
    // CSV, so its body digest equals the dataset digest and the two
    // blobs would collide in one file were they not namespaced by kind
    // — the crash rounds below then prove neither is quarantined or
    // lost.
    let mechanisms = [
        "mechanism=promesse&alpha=150&seed=1",
        "mechanism=promesse&alpha=150&seed=2",
        "mechanism=raw",
    ];
    let server = ServeProc::start(&data_dir);
    let addr = server.addr;
    let digest = register(addr, &csv);
    let mut finished: Vec<(String, Vec<u8>)> = Vec::new();
    for params in mechanisms {
        let id = submit(addr, &digest, params);
        poll_done(addr, &id);
        let (status, headers, body) = get(addr, &format!("/v1/results/{id}"));
        assert_eq!(status, 200);
        assert_eq!(headers["x-mobipriv-cache"], "hit");
        finished.push((id, body));
    }

    // Phase 2: three crash/restart rounds, each killing the server at a
    // randomized instant after submitting fresh (in-flight) work.
    let mut server = server;
    let mut inflight: Vec<(String, String)> = Vec::new();
    for round in 0..3u64 {
        let params = format!("mechanism=promesse&alpha=150&seed={}", 100 + round);
        let id = submit(server.addr, &digest, &params);
        inflight.push((params, id));
        std::thread::sleep(Duration::from_millis(next_delay_ms()));
        server.kill_9();

        server = ServeProc::start(&data_dir);
        let addr = server.addr;

        // The registered dataset still resolves by digest.
        let (status, _, _) = get(addr, &format!("/v1/datasets/{digest}"));
        assert_eq!(status, 200, "round {round}: dataset lost across restart");

        // Every previously finished result is a byte-identical warm hit.
        for (id, expected) in &finished {
            let (status, headers, body) = get(addr, &format!("/v1/results/{id}"));
            assert_eq!(status, 200, "round {round}: finished result lost");
            assert_eq!(
                headers["x-mobipriv-cache"], "hit",
                "round {round}: restart hit recomputed"
            );
            assert_eq!(
                &body, expected,
                "round {round}: body changed across restart"
            );
        }
    }

    // Phase 3: in-flight jobs are absent or already done — never a
    // corrupt half-state — and resubmitting them runs to completion
    // with output identical to a never-crashed server.
    let addr = server.addr;
    for (params, id) in inflight {
        let (status, _, body) = get(addr, &format!("/v1/jobs/{id}"));
        match status {
            404 => {} // not resurrected: rerunnable below
            200 => {
                let state = str_of(&parse_json(&body), "status").to_owned();
                assert!(
                    state == "done" || state == "queued" || state == "running",
                    "in-flight job in bad state {state}"
                );
            }
            other => panic!("job poll returned {other}"),
        }
        let rerun = submit(addr, &digest, &params);
        assert_eq!(rerun, id, "content-addressed id is stable");
        poll_done(addr, &rerun);
        let (status, _, _) = get(addr, &format!("/v1/results/{rerun}"));
        assert_eq!(status, 200, "rerun result fetchable");
    }

    // The reference: the same jobs on a fresh in-memory server produce
    // the same bytes the persisted path served after every crash.
    let reference = ServeProc::start(&scratch("kill9-ref"));
    let ref_digest = register(reference.addr, &csv);
    assert_eq!(ref_digest, digest, "content addressing is deterministic");
    for params in mechanisms {
        let id = submit(reference.addr, &digest, params);
        poll_done(reference.addr, &id);
        let (_, _, body) = get(reference.addr, &format!("/v1/results/{id}"));
        let expected = &finished
            .iter()
            .find(|(fid, _)| fid == &id)
            .expect("same content-addressed id")
            .1;
        assert_eq!(&body, expected, "persisted hit diverges from fresh compute");
    }
    reference.kill_9();
    server.kill_9();
    let _ = std::fs::remove_dir_all(&data_dir);
    let _ = std::fs::remove_dir_all(scratch("kill9-ref"));
}

#[test]
fn store_gauges_report_exact_values_over_sockets() {
    let data_dir = scratch("gauges");
    let workload = scenarios::serving_day(8, 2);
    let mut csv = Vec::new();
    write_csv(&workload.dataset, &mut csv).unwrap();

    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: Some(data_dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = server.addr();

    // Known workload: one dataset (1 record, 1 blob), one job to done
    // (submitted + completed records, 1 body blob).
    let digest = register(addr, &csv);
    let id = submit(addr, &digest, "mechanism=promesse&alpha=150&seed=7");
    poll_done(addr, &id);

    let (status, _, body) = get(addr, "/v1/stats");
    assert_eq!(status, 200);
    let doc = parse_json(&body);
    let store = doc.get("store").expect("stats exposes a store object");
    let field = |key: &str| -> u64 {
        store
            .get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing store.{key}"))
    };
    assert_eq!(field("blobs"), 2, "dataset blob + result body blob");
    assert_eq!(
        field("journal_records"),
        3,
        "registered + submitted + completed"
    );
    assert_eq!(field("quarantined"), 0);
    let journal_bytes = field("journal_bytes");
    assert!(journal_bytes > 4, "magic plus three frames");
    let blob_bytes = field("blob_bytes");
    assert!(blob_bytes > 0);

    // `/metrics` reports the same numbers through the gauge handles.
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("UTF-8 metrics");
    let metric = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing metric {name}"))
    };
    assert_eq!(metric("mobipriv_store_blobs "), 2);
    assert_eq!(metric("mobipriv_store_blob_bytes "), blob_bytes);
    assert_eq!(metric("mobipriv_store_journal_bytes "), journal_bytes);
    assert_eq!(metric("mobipriv_store_quarantined "), 0);
    assert_eq!(metric("mobipriv_store_journal_records_total "), 3);
    assert_eq!(metric("mobipriv_store_blobs_recovered_total "), 0);
    assert_eq!(metric("mobipriv_store_quarantined_total "), 0);

    drop(server);
    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn in_memory_server_reports_no_store() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn()
    .expect("spawn");
    let (status, _, body) = get(server.addr(), "/v1/stats");
    assert_eq!(status, 200);
    assert!(
        parse_json(&body).get("store").is_none(),
        "no --data-dir, no store section"
    );
}
