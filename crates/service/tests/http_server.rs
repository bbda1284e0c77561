//! Integration tests over real sockets: boot the server on an ephemeral
//! port, speak HTTP/1.1 to it, and hold the responses to the service's
//! determinism contract — byte-identical to the batch [`Engine`]. The
//! connection-contract cases run against a router over one shard too:
//! both share one connection runtime.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use mobipriv_core::{Engine, Mechanism};
use mobipriv_eval::json::Json;
use mobipriv_model::{read_bin, read_csv, write_bin, write_csv, write_ndjson, Dataset};
use mobipriv_obs::scrape;
use mobipriv_service::registry::{build_mechanism, Params};
use mobipriv_service::{Router, RouterConfig, RouterHandle, Server, ServerConfig, ServerHandle};
use mobipriv_synth::scenarios;

fn start(configure: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut config = ServerConfig::default();
    configure(&mut config);
    Server::bind(config)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
}

/// What a connection-contract test talks to.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// A single node.
    Node,
    /// A router in front of one default node.
    Router,
}

const TARGETS: [Target; 2] = [Target::Node, Target::Router];

/// A running [`Target`]: the node, and for [`Target::Router`] the
/// router in front of it.
struct Front {
    node: ServerHandle,
    router: Option<RouterHandle>,
}

impl Front {
    fn addr(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or(self.node.addr(), RouterHandle::addr)
    }

    fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        self.node.shutdown();
    }
}

/// [`start`] for `target`: the connection knobs `configure` sets apply
/// to whatever the client talks to (the router, which has the same
/// knobs, in front of a default node).
fn start_on(target: Target, configure: impl FnOnce(&mut ServerConfig)) -> Front {
    match target {
        Target::Node => Front {
            node: start(configure),
            router: None,
        },
        Target::Router => {
            let node = start(|_| {});
            let mut knobs = ServerConfig::default();
            configure(&mut knobs);
            let router = Router::bind(RouterConfig {
                shards: vec![node.addr().to_string()],
                workers: knobs.workers,
                queue_depth: knobs.queue_depth,
                max_body_bytes: knobs.max_body_bytes,
                timeout: knobs.timeout,
                idle_timeout: knobs.idle_timeout,
                max_requests_per_conn: knobs.max_requests_per_conn,
                ..RouterConfig::default()
            })
            .expect("bind router")
            .spawn()
            .expect("spawn router");
            Front {
                node,
                router: Some(router),
            }
        }
    }
}

/// Sends raw bytes, returns (status, lowercased headers, body).
fn exchange(addr: SocketAddr, request: &[u8]) -> (u16, HashMap<String, String>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head/body separator");
    let head = std::str::from_utf8(&raw[..split]).expect("ASCII head");
    let body = raw[split + 4..].to_vec();
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_owned()))
        .collect();
    (status, headers, body)
}

fn get(addr: SocketAddr, target: &str) -> (u16, HashMap<String, String>, Vec<u8>) {
    // `connection: close` — these helpers read to EOF, and the server
    // keeps an HTTP/1.1 connection open for its idle timeout otherwise.
    exchange(
        addr,
        format!("GET {target} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, target: &str, body: &[u8]) -> (u16, HashMap<String, String>, Vec<u8>) {
    let mut request = format!(
        "POST {target} HTTP/1.1\r\nhost: t\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    exchange(addr, &request)
}

fn csv_of(dataset: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    write_csv(dataset, &mut out).unwrap();
    out
}

/// What the batch engine produces for this query string — the reference
/// every service response is compared against.
fn batch_reference(dataset: &Dataset, query: &[(&str, &str)], seed: u64) -> Vec<u8> {
    let pairs: Vec<(String, String)> = query
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let mechanism: Box<dyn Mechanism> = build_mechanism(Params(&pairs)).expect("valid query");
    csv_of(&Engine::sequential().protect(mechanism.as_ref(), dataset, seed))
}

fn query_string(query: &[(&str, &str)], seed: u64) -> String {
    let mut s = String::new();
    for (k, v) in query {
        s.push_str(&format!("{k}={v}&"));
    }
    s.push_str(&format!("seed={seed}"));
    s
}

#[test]
fn healthz_and_mechanism_catalogue() {
    let server = start(|_| {});
    let addr = server.addr();
    let (status, headers, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, b"ready\n");
    assert_eq!(headers["content-type"], "text/plain");
    let (status, headers, body) = get(addr, "/v1/mechanisms");
    assert_eq!(status, 200);
    assert_eq!(headers["content-type"], "application/json");
    let text = String::from_utf8(body).unwrap();
    for name in ["promesse", "geoind", "mixzones", "kdelta", "pipeline"] {
        assert!(text.contains(name), "catalogue misses {name}");
    }
    server.shutdown();
}

#[test]
fn anonymize_is_bit_identical_to_the_batch_engine() {
    let workload = scenarios::serving_day(12, 3);
    let body = csv_of(&workload.dataset);
    // The service's input is the *body*: the reference is the batch
    // engine run on the same canonical parse of it.
    let canonical = read_csv(body.as_slice()).unwrap();
    let server = start(|_| {});
    let addr = server.addr();
    for (query, seed) in [
        (vec![("mechanism", "promesse"), ("alpha", "120")], 9u64),
        (vec![("mechanism", "geoind"), ("epsilon", "0.05")], 1),
        (vec![("mechanism", "pseudonymize")], 7),
        (vec![("mechanism", "raw")], 0),
    ] {
        let target = format!("/v1/anonymize?{}", query_string(&query, seed));
        let (status, headers, got) = post(addr, &target, &body);
        assert_eq!(status, 200, "{target}");
        assert_eq!(headers["content-type"], "text/csv");
        let expected = batch_reference(&canonical, &query, seed);
        assert_eq!(got, expected, "service response diverges for {target}");
        // Replaying the identical request reproduces the bytes.
        let (_, _, again) = post(addr, &target, &body);
        assert_eq!(again, got, "replay diverges for {target}");
    }
    server.shutdown();
}

#[test]
fn eight_concurrent_requests_stay_correct_and_isolated() {
    // More in-flight requests than workers, mixed mechanisms and seeds:
    // every response must still match its own batch reference.
    let workload = scenarios::serving_day(8, 5);
    let body = csv_of(&workload.dataset);
    let dataset = read_csv(body.as_slice()).unwrap();
    let server = start(|c| {
        c.workers = 3;
        c.queue_depth = 32;
    });
    let addr = server.addr();
    let queries: Vec<Vec<(&str, &str)>> = vec![
        vec![("mechanism", "promesse"), ("alpha", "100")],
        vec![("mechanism", "promesse"), ("alpha", "250")],
        vec![("mechanism", "geoind"), ("epsilon", "0.01")],
        vec![
            ("mechanism", "geoind"),
            ("epsilon", "0.1"),
            ("budget", "trace"),
        ],
        vec![("mechanism", "raw")],
        vec![("mechanism", "pseudonymize")],
        vec![("mechanism", "pseudonymize"), ("per", "trace")],
        vec![("mechanism", "grid"), ("cell", "300")],
        vec![("mechanism", "mixzones"), ("radius", "120")],
        vec![("mechanism", "kdelta"), ("k", "2"), ("delta", "250")],
    ];
    assert!(queries.len() >= 8);
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(i, query)| {
                let (dataset, body) = (&dataset, &body);
                scope.spawn(move || {
                    let seed = 40 + i as u64;
                    let target = format!("/v1/anonymize?{}", query_string(query, seed));
                    let (status, _, got) = post(addr, &target, body);
                    assert_eq!(status, 200, "{target}");
                    let expected = batch_reference(dataset, query, seed);
                    assert_eq!(got, expected, "concurrent response diverges for {target}");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("request thread panicked");
        }
    });
    server.shutdown();
}

#[test]
fn chunked_and_ndjson_bodies_match_fixed_length_csv() {
    let workload = scenarios::serving_day(5, 2);
    let csv = csv_of(&workload.dataset);
    let server = start(|_| {});
    let addr = server.addr();
    let target = "/v1/anonymize?mechanism=promesse&alpha=100&seed=4";
    let (status, _, fixed) = post(addr, target, &csv);
    assert_eq!(status, 200);

    // Same body, chunked framing with awkward chunk sizes.
    let mut request = format!(
        "POST {target} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\
         transfer-encoding: chunked\r\n\r\n"
    )
    .into_bytes();
    for chunk in csv.chunks(777) {
        request.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        request.extend_from_slice(chunk);
        request.extend_from_slice(b"\r\n");
    }
    request.extend_from_slice(b"0\r\n\r\n");
    let (status, _, chunked) = exchange(addr, &request);
    assert_eq!(status, 200);
    assert_eq!(chunked, fixed, "chunked framing changed the release");

    // Same dataset as NDJSON.
    let mut ndjson = Vec::new();
    write_ndjson(&workload.dataset, &mut ndjson).unwrap();
    let mut request = format!(
        "POST {target}&format=ndjson HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\
         content-length: {}\r\n\r\n",
        ndjson.len()
    )
    .into_bytes();
    request.extend_from_slice(&ndjson);
    let (status, _, from_ndjson) = exchange(addr, &request);
    assert_eq!(status, 200);
    assert_eq!(from_ndjson, fixed, "ndjson ingestion changed the release");
    server.shutdown();
}

#[test]
fn bin_wire_format_round_trips_end_to_end() {
    let workload = scenarios::serving_day(5, 2);
    let csv = csv_of(&workload.dataset);
    // The Bin upload carries the *canonical parse* of the CSV, so both
    // uploads describe byte-for-byte the same dataset.
    let canonical = read_csv(csv.as_slice()).unwrap();
    let mut bin = Vec::new();
    write_bin(&canonical, &mut bin).unwrap();
    let server = start(|_| {});
    let addr = server.addr();

    // Format-independent digests: the Bin re-upload is idempotent.
    let (status, headers, _) = post(addr, "/v1/datasets", &csv);
    assert_eq!(status, 200);
    let digest = headers["x-mobipriv-digest"].clone();
    let (status, headers, body) = post(addr, "/v1/datasets?format=bin", &bin);
    assert_eq!(status, 200);
    assert_eq!(headers["x-mobipriv-digest"], digest, "bin digest diverges");
    let text = String::from_utf8(body).unwrap();
    assert!(
        text.contains("exists"),
        "bin re-upload not idempotent: {text}"
    );

    // `format=bin` switches both directions; the release is the same —
    // re-rendering the Bin response as canonical CSV reproduces the CSV
    // response byte for byte.
    let target = "/v1/anonymize?mechanism=promesse&alpha=100&seed=4";
    let (status, _, from_csv) = post(addr, target, &csv);
    assert_eq!(status, 200);
    let (status, headers, from_bin) = post(addr, &format!("{target}&format=bin"), &bin);
    assert_eq!(status, 200);
    assert_eq!(headers["content-type"], "application/octet-stream");
    assert_eq!(&from_bin[..4], b"MPB1");
    let release = read_bin(from_bin.as_slice()).unwrap();
    let mut recanonicalized = Vec::new();
    write_csv(&release, &mut recanonicalized).unwrap();
    assert_eq!(recanonicalized, from_csv, "bin release diverges from csv");

    // Replaying the Bin request hits the bin-suffixed cache entry.
    let (_, headers, again) = post(addr, &format!("{target}&format=bin"), &bin);
    assert_eq!(again, from_bin);
    assert_eq!(headers["x-mobipriv-cache"], "hit");
    server.shutdown();
}

#[test]
fn utility_report_headers_are_present_on_request() {
    let workload = scenarios::serving_day(5, 2);
    let body = csv_of(&workload.dataset);
    let server = start(|_| {});
    let addr = server.addr();
    let (status, headers, _) = post(
        addr,
        "/v1/anonymize?mechanism=promesse&alpha=100&seed=1&report=1",
        &body,
    );
    assert_eq!(status, 200);
    for h in [
        "x-mobipriv-distortion-mean-m",
        "x-mobipriv-distortion-p95-m",
        "x-mobipriv-coverage-f1",
        "x-mobipriv-input-fixes",
        "x-mobipriv-output-fixes",
    ] {
        assert!(headers.contains_key(h), "missing header {h}: {headers:?}");
    }
    let mean: f64 = headers["x-mobipriv-distortion-mean-m"].parse().unwrap();
    assert!(mean.is_finite() && mean >= 0.0);
    // Without report=1 the metric headers are absent.
    let (_, headers, _) = post(addr, "/v1/anonymize?mechanism=raw", &body);
    assert!(!headers.contains_key("x-mobipriv-distortion-mean-m"));
    server.shutdown();
}

#[test]
fn expect_100_continue_gets_an_interim_response() {
    // curl sends `Expect: 100-continue` for any body over 1 KiB and
    // stalls ~1 s unless the server answers the interim response.
    let workload = scenarios::serving_day(3, 1);
    let csv = csv_of(&workload.dataset);
    for target in TARGETS {
        let server = start_on(target, |_| {});
        let mut request = format!(
            "POST /v1/anonymize?mechanism=raw&seed=1 HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\
             expect: 100-continue\r\ncontent-length: {}\r\n\r\n",
            csv.len()
        )
        .into_bytes();
        request.extend_from_slice(&csv);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(&request).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(
            text.starts_with("HTTP/1.1 100 Continue\r\n\r\n"),
            "{target:?}: no interim response: {}",
            &text[..text.len().min(80)]
        );
        assert!(
            text.contains("HTTP/1.1 200 OK"),
            "{target:?}: no final response"
        );
        assert!(
            text.contains("user,trace,lat,lng,time"),
            "{target:?}: no CSV back"
        );
        server.shutdown();
    }
}

#[test]
fn errors_map_to_proper_status_codes() {
    let server = start(|c| c.max_body_bytes = 1024);
    let addr = server.addr();

    let (status, _, body) = post(addr, "/v1/anonymize?mechanism=warp-drive", b"");
    assert_eq!(status, 400);
    assert!(String::from_utf8(body)
        .unwrap()
        .contains("unknown mechanism"));

    let (status, _, body) = post(
        addr,
        "/v1/anonymize?mechanism=raw",
        b"user,trace,lat,lng,time\n1,0,95.0,5.0,0\n",
    );
    assert_eq!(status, 400);
    let text = String::from_utf8(body).unwrap();
    assert!(
        text.contains("line 2") && text.contains("latitude"),
        "{text}"
    );

    let (status, _, _) = get(addr, "/v1/anonymize");
    assert_eq!(status, 405);
    let (status, headers, _) = exchange(addr, b"DELETE /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
    assert_eq!(status, 405);
    assert_eq!(headers["allow"], "GET");

    let (status, _, _) = get(addr, "/v2/psychic-anonymizer");
    assert_eq!(status, 404);

    let oversized = vec![b'1'; 4096];
    let (status, _, _) = post(addr, "/v1/anonymize?mechanism=raw", &oversized);
    assert_eq!(status, 413);

    let (status, _, _) = exchange(addr, b"NOT-HTTP\r\n\r\n");
    assert_eq!(status, 400);
    server.shutdown();
}

#[test]
fn shutdown_is_graceful_and_frees_the_port() {
    let server = start(|_| {});
    let addr = server.addr();
    let (status, _, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    server.shutdown();
    // The listener is gone: connecting now fails or yields no response.
    match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(mut stream) => {
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
            let mut out = Vec::new();
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            let n = stream.read_to_end(&mut out).unwrap_or(0);
            assert_eq!(n, 0, "server answered after shutdown: {out:?}");
        }
    }
}

#[test]
fn evaluate_endpoint_returns_the_matrix_report() {
    let server = start(|_| {});
    let addr = server.addr();

    // One filtered cell: fast, and exactly what the batch harness
    // computes for the same plan.
    let (status, headers, body) = get(
        addr,
        "/v1/evaluate?scenario=crossing_paths&mechanism=promesse_a100",
    );
    assert_eq!(status, 200);
    assert_eq!(headers["content-type"], "application/json");
    assert_eq!(headers["x-mobipriv-eval-cells"], "1");
    let text = String::from_utf8(body).expect("UTF-8 JSON");
    let report = mobipriv_eval::EvalReport::from_json(&text).expect("parseable report");
    assert_eq!(report.schema_version, mobipriv_eval::SCHEMA_VERSION);
    assert_eq!(report.cells.len(), 1);
    assert_eq!(report.cells[0].scenario, "crossing_paths");
    assert_eq!(report.cells[0].mechanism, "promesse_a100");

    let plan = mobipriv_eval::EvalPlan::smoke()
        .with_scenario("crossing_paths")
        .unwrap()
        .with_mechanism("promesse_a100")
        .unwrap();
    let reference = mobipriv_eval::evaluate(&plan);
    assert_eq!(text, reference.to_json(), "service and CLI reports agree");
    server.shutdown();
}

#[test]
fn evaluate_endpoint_is_deterministic_and_honours_filters() {
    let server = start(|_| {});
    let addr = server.addr();
    let target = "/v1/evaluate?scenario=crossing_paths&mechanism=raw&seed=7";
    let (status_a, _, body_a) = get(addr, target);
    let (status_b, _, body_b) = get(addr, target);
    assert_eq!((status_a, status_b), (200, 200));
    assert_eq!(body_a, body_b, "same plan, byte-identical report");
    let report =
        mobipriv_eval::EvalReport::from_json(std::str::from_utf8(&body_a).unwrap()).unwrap();
    assert_eq!(report.cells[0].seed, 7);

    // A different seed changes the randomized scenario content.
    let (_, _, other_seed) = get(
        addr,
        "/v1/evaluate?scenario=crossing_paths&mechanism=raw&seed=8",
    );
    assert_ne!(body_a, other_seed);
    server.shutdown();
}

#[test]
fn evaluate_endpoint_exposes_timings_on_request() {
    let server = start(|_| {});
    let addr = server.addr();
    let base = "/v1/evaluate?scenario=crossing_paths&mechanism=raw";
    let (status, _, plain) = get(addr, base);
    assert_eq!(status, 200);
    assert!(!String::from_utf8(plain).unwrap().contains("wall_ms"));
    let (status, _, timed) = get(addr, &format!("{base}&timings=1"));
    assert_eq!(status, 200);
    let text = String::from_utf8(timed).unwrap();
    assert!(text.contains("\"wall_ms\":"), "{text}");
    let report = mobipriv_eval::EvalReport::from_json(&text).unwrap();
    assert!(report.cells[0].wall_ms > 0.0, "timing recovered from JSON");
    server.shutdown();
}

#[test]
fn evaluate_endpoint_rejects_bad_parameters() {
    let server = start(|_| {});
    let addr = server.addr();
    for target in [
        "/v1/evaluate?scenario=atlantis",
        "/v1/evaluate?mechanism=warp-drive",
        "/v1/evaluate?preset=gigantic",
        "/v1/evaluate?seed=banana",
        "/v1/evaluate?timings=yes",
    ] {
        let (status, _, body) = get(addr, target);
        assert_eq!(status, 400, "{target}");
        assert!(!body.is_empty(), "{target} has an explanatory body");
    }
    let (status, headers, _) = post(addr, "/v1/evaluate", b"");
    assert_eq!(status, 405);
    assert_eq!(headers["allow"], "GET");
    server.shutdown();
}

// --- keep-alive connection semantics ---------------------------------------

/// Reads exactly one `Content-Length`-framed response off an open
/// socket, leaving any pipelined follow-up bytes unread. The helpers
/// above read to EOF instead, which only works for `connection: close`.
fn read_framed(stream: &mut TcpStream) -> (u16, HashMap<String, String>, Vec<u8>) {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read response head");
        assert!(n > 0, "EOF inside a response head: {raw:?}");
        raw.push(byte[0]);
    }
    let head = std::str::from_utf8(&raw[..raw.len() - 4]).expect("ASCII head");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers: HashMap<String, String> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_owned()))
        .collect();
    let length: usize = headers["content-length"].parse().expect("content-length");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("read framed body");
    (status, headers, body)
}

fn connect_keep_alive(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

#[test]
fn keep_alive_reuses_one_socket_and_stays_byte_identical() {
    let server = start(|_| {});
    let addr = server.addr();
    let csv = b"user,trace,lat,lng,time\n1,0,48.8566,2.3522,0\n1,0,48.8570,2.3530,30\n";

    let mut stream = connect_keep_alive(addr);
    let mut reused = Vec::new();
    for _ in 0..3 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
        let (status, headers, body) = read_framed(&mut stream);
        assert_eq!(status, 200);
        assert_eq!(headers["connection"], "keep-alive");
        reused.push(body);

        let mut request = format!(
            "POST /v1/anonymize?mechanism=promesse&alpha=100&seed=5 HTTP/1.1\r\n\
             host: t\r\ncontent-length: {}\r\n\r\n",
            csv.len()
        )
        .into_bytes();
        request.extend_from_slice(csv);
        stream.write_all(&request).unwrap();
        let (status, headers, body) = read_framed(&mut stream);
        assert_eq!(status, 200);
        assert_eq!(headers["connection"], "keep-alive");
        reused.push(body);
    }

    // The same six exchanges over fresh close-framed connections yield
    // the same bytes: reuse changes framing, never content.
    let mut fresh = Vec::new();
    for _ in 0..3 {
        fresh.push(get(addr, "/healthz").2);
        fresh.push(
            post(
                addr,
                "/v1/anonymize?mechanism=promesse&alpha=100&seed=5",
                csv,
            )
            .2,
        );
    }
    assert_eq!(reused, fresh);
    server.shutdown();
}

#[test]
fn connection_close_is_honoured_with_a_close_response_and_eof() {
    for target in TARGETS {
        let server = start_on(target, |_| {});
        let mut stream = connect_keep_alive(server.addr());
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
            .unwrap();
        let (status, headers, body) = read_framed(&mut stream);
        assert_eq!(
            (status, body.as_slice()),
            (200, &b"ready\n"[..]),
            "{target:?}"
        );
        assert_eq!(headers["connection"], "close", "{target:?}");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("clean EOF");
        assert!(
            rest.is_empty(),
            "{target:?}: bytes after a close response: {rest:?}"
        );
        server.shutdown();
    }
}

#[test]
fn an_error_response_closes_a_keep_alive_connection() {
    for target in TARGETS {
        let server = start_on(target, |_| {});
        let mut stream = connect_keep_alive(server.addr());
        // The client asks to keep the connection; the 404 closes it
        // anyway, so an error can never desync what follows.
        stream
            .write_all(b"GET /v2/psychic-anonymizer HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
        let (status, headers, _) = read_framed(&mut stream);
        assert_eq!(status, 404, "{target:?}");
        assert_eq!(headers["connection"], "close", "{target:?}");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("clean EOF");
        assert!(
            rest.is_empty(),
            "{target:?}: bytes after an error: {rest:?}"
        );
        server.shutdown();
    }
}

#[test]
fn idle_deadline_reclaims_parked_connections() {
    for target in TARGETS {
        let server = start_on(target, |config| {
            config.idle_timeout = Duration::from_millis(200);
        });
        let addr = server.addr();
        let mut stream = connect_keep_alive(addr);
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
            .unwrap();
        let (status, headers, _) = read_framed(&mut stream);
        assert_eq!(status, 200, "{target:?}");
        assert_eq!(headers["connection"], "keep-alive", "{target:?}");
        // Park without sending another request: the server must close
        // the socket cleanly (EOF, no error bytes) once the idle
        // deadline fires.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("clean EOF on idle");
        assert!(
            rest.is_empty(),
            "{target:?}: bytes after idle close: {rest:?}"
        );
        // The worker is free again: a fresh connection is served
        // promptly.
        let (status, _, body) = get(addr, "/healthz");
        assert_eq!(
            (status, body.as_slice()),
            (200, &b"ready\n"[..]),
            "{target:?}"
        );
        server.shutdown();
    }
}

#[test]
fn keep_alive_idle_time_is_not_charged_to_the_next_request() {
    const PAUSE: Duration = Duration::from_millis(400);
    let server = start(|_| {});
    let addr = server.addr();
    let mut stream = connect_keep_alive(addr);
    let mut get_on = |target: &str| {
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes())
            .unwrap();
        let (status, headers, body) = read_framed(&mut stream);
        assert_eq!(status, 200, "{target}");
        assert_eq!(headers["connection"], "keep-alive");
        (headers, body)
    };
    let latency_sum = |body: &[u8]| {
        scrape::parse(std::str::from_utf8(body).expect("UTF-8 exposition"))
            .expect("parsable exposition")
            .value("mobipriv_http_request_seconds_sum", &[])
            .expect("request latency histogram")
    };

    let before = latency_sum(&get_on("/metrics").1);
    // The client goes quiet on the open connection, then reuses it.
    std::thread::sleep(PAUSE);
    let (headers, _) = get_on("/healthz");
    let trace = headers["x-mobipriv-trace"].clone();
    let after = latency_sum(&get_on("/metrics").1);
    // The delta holds the first scrape and the /healthz request — the
    // pause between them is idle time, not latency.
    let delta = after - before;
    assert!(
        delta < PAUSE.as_secs_f64() / 2.0,
        "request latency sum grew {delta} s across a {PAUSE:?} idle pause"
    );

    let (_, doc) = get_on(&format!("/v1/traces/{trace}"));
    let doc = Json::parse(std::str::from_utf8(&doc).unwrap()).expect("trace JSON");
    let parse_us = doc
        .get("spans")
        .and_then(Json::as_arr)
        .expect("spans array")
        .iter()
        .find(|span| span.get("stage").and_then(Json::as_str) == Some("parse"))
        .and_then(|span| span.get("dur_us"))
        .and_then(Json::as_u64)
        .expect("parse span");
    assert!(
        (parse_us as u128) < PAUSE.as_micros() / 2,
        "parse span {parse_us} us after a {PAUSE:?} idle pause"
    );
    server.shutdown();
}

#[test]
fn max_requests_per_conn_caps_a_connection_with_a_close_response() {
    for target in TARGETS {
        let server = start_on(target, |config| config.max_requests_per_conn = 2);
        let mut stream = connect_keep_alive(server.addr());
        for expected in ["keep-alive", "close"] {
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
                .unwrap();
            let (status, headers, _) = read_framed(&mut stream);
            assert_eq!(status, 200, "{target:?}");
            assert_eq!(headers["connection"], expected, "{target:?}");
        }
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("clean EOF at the cap");
        assert!(
            rest.is_empty(),
            "{target:?}: bytes after the request cap: {rest:?}"
        );
        server.shutdown();
    }
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    for target in TARGETS {
        let server = start_on(target, |_| {});
        let mut stream = connect_keep_alive(server.addr());
        // Both requests land in the connection's buffer before the
        // first response is written; the persistent reader must not
        // drop the second one between requests.
        stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n\
                  GET /v1/mechanisms HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
            )
            .unwrap();
        let (status, headers, body) = read_framed(&mut stream);
        assert_eq!(
            (status, body.as_slice()),
            (200, &b"ready\n"[..]),
            "{target:?}"
        );
        assert_eq!(headers["connection"], "keep-alive", "{target:?}");
        let (status, headers, body) = read_framed(&mut stream);
        assert_eq!(status, 200, "{target:?}");
        assert_eq!(headers["connection"], "close", "{target:?}");
        assert!(
            String::from_utf8(body).unwrap().contains("promesse"),
            "{target:?}"
        );
        server.shutdown();
    }
}
