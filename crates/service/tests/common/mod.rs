//! Helpers shared by the socket tests: boot a node, speak HTTP to it
//! through `mobipriv_service::client` (raw bytes only for requests the
//! client cannot send), and build the batch-engine reference every
//! response is held to.

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use mobipriv_core::Engine;
use mobipriv_eval::Json;
use mobipriv_model::{write_csv, Dataset};
use mobipriv_service::client::request_full;
use mobipriv_service::registry::{resolve_mechanism, Params};
use mobipriv_service::{Server, ServerConfig, ServerHandle};

/// `(status, headers with lowercased names, body)`.
pub type Response = (u16, HashMap<String, String>, Vec<u8>);

/// Boots a node on an ephemeral port with `configure` applied to the
/// default config.
pub fn start(configure: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut config = ServerConfig::default();
    configure(&mut config);
    Server::bind(config)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
}

/// Sends raw bytes on a fresh connection, reads one response and
/// requires the server to close the socket cleanly after it — for the
/// malformed, stalled and hand-framed requests the client cannot send.
pub fn exchange(addr: SocketAddr, request: &[u8]) -> Response {
    let mut stream = connect(addr);
    stream.write_all(request).expect("send request");
    let response = read_framed(&mut stream);
    let mut rest = Vec::new();
    stream
        .read_to_end(&mut rest)
        .expect("server closes cleanly");
    assert!(rest.is_empty(), "bytes after the response: {rest:?}");
    response
}

/// A raw connection with a 30 s read timeout.
pub fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

/// Reads exactly one `Content-Length`-framed response off an open
/// socket, leaving any pipelined follow-up bytes unread.
pub fn read_framed(stream: &mut TcpStream) -> Response {
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

pub fn get(addr: SocketAddr, target: &str) -> Response {
    send(addr, "GET", target, b"")
}

pub fn post(addr: SocketAddr, target: &str, body: &[u8]) -> Response {
    send(addr, "POST", target, body)
}

fn send(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> Response {
    let (status, headers, body) =
        request_full(addr, method, target, body).expect("request over a fresh connection");
    (status, headers.into_iter().collect(), body)
}

pub fn csv_of(dataset: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    write_csv(dataset, &mut out).unwrap();
    out
}

/// What the batch engine produces for this query string — the reference
/// every service response is compared against.
pub fn batch_reference(dataset: &Dataset, query: &[(&str, &str)], seed: u64) -> Vec<u8> {
    let pairs: Vec<(String, String)> = query
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let mechanism = resolve_mechanism(Params(&pairs))
        .expect("valid query")
        .mechanism;
    csv_of(&Engine::sequential().protect(mechanism.as_ref(), dataset, seed))
}

pub fn parse_json(body: &[u8]) -> Json {
    Json::parse(std::str::from_utf8(body).expect("UTF-8 JSON")).expect("parseable JSON")
}

pub fn str_of<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}`"))
}

/// Registers a dataset, returning its digest.
pub fn register(addr: SocketAddr, csv: &[u8]) -> String {
    let (status, headers, body) = post(addr, "/v1/datasets", csv);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let doc = parse_json(&body);
    let digest = str_of(&doc, "digest").to_owned();
    assert_eq!(headers["x-mobipriv-digest"], digest);
    digest
}

/// Polls a job to a terminal state, panicking on `failed` or timeout.
pub fn poll_done(addr: SocketAddr, id: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, _, body) = get(addr, &format!("/v1/jobs/{id}"));
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let doc = parse_json(&body);
        match str_of(&doc, "status") {
            "done" => return doc,
            "failed" => panic!("job failed: {}", String::from_utf8_lossy(&body)),
            _ if Instant::now() > deadline => panic!("job never finished"),
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}
