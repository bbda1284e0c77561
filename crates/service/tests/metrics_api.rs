//! Socket tests for the observability surface: `GET /metrics`,
//! `GET /v1/traces/:id`, the `x-mobipriv-trace` response header, and
//! the registry block embedded in `/v1/stats`.
//!
//! The contract under test is the determinism boundary: tracing and
//! metrics must never leak into response *bodies* — identical requests
//! stay byte-identical — while every response carries a distinct trace
//! id out of band, in a header.

mod common;

use std::time::{Duration, Instant};

use common::{csv_of, parse_json, poll_done, register, start, str_of};
use mobipriv_obs::scrape;
use mobipriv_service::client::{header, request_full};
use mobipriv_synth::scenarios;

#[test]
fn identical_requests_share_bytes_but_not_trace_ids() {
    let body = csv_of(&scenarios::serving_day(6, 2).dataset);
    let server = start(|_| {});
    let addr = server.addr();
    let target = "/v1/anonymize?mechanism=promesse&alpha=100&seed=3";

    let (status_a, headers_a, body_a) = request_full(addr, "POST", target, &body).unwrap();
    let (status_b, headers_b, body_b) = request_full(addr, "POST", target, &body).unwrap();
    assert_eq!((status_a, status_b), (200, 200));
    assert_eq!(body_a, body_b, "tracing leaked into the response body");

    let trace_a = header(&headers_a, "x-mobipriv-trace").expect("first trace header");
    let trace_b = header(&headers_b, "x-mobipriv-trace").expect("second trace header");
    assert_eq!(trace_a.len(), 16, "trace id is 16 hex chars: {trace_a}");
    assert!(trace_a.chars().all(|c| c.is_ascii_hexdigit()));
    assert_ne!(trace_a, trace_b, "every request gets its own trace id");
    assert_eq!(header(&headers_b, "x-mobipriv-cache"), Some("hit"));

    // The first request computed: its timeline covers the full stage
    // sequence, without a utility report (report=0). The replay was
    // served from cache: no compute span.
    let (status, _, trace_doc) =
        request_full(addr, "GET", &format!("/v1/traces/{trace_a}"), b"").unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(trace_doc).unwrap();
    assert!(text.contains(&format!("\"id\":\"{trace_a}\"")), "{text}");
    for stage in ["parse", "digest", "cache_lookup", "compute", "serialize"] {
        assert!(text.contains(&format!("\"stage\":\"{stage}\"")), "{text}");
    }
    assert!(!text.contains("\"stage\":\"report\""), "{text}");
    let (status, _, replay_doc) =
        request_full(addr, "GET", &format!("/v1/traces/{trace_b}"), b"").unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(replay_doc).unwrap();
    assert!(text.contains("\"stage\":\"cache_lookup\""), "{text}");
    assert!(!text.contains("\"stage\":\"compute\""), "{text}");

    // A report=1 request times its distortion and coverage in a span of
    // their own.
    let (status, headers, _) =
        request_full(addr, "POST", &format!("{target}&report=1"), &body).unwrap();
    assert_eq!(status, 200);
    let trace = header(&headers, "x-mobipriv-trace").expect("trace header");
    let (_, _, trace_doc) = request_full(addr, "GET", &format!("/v1/traces/{trace}"), b"").unwrap();
    let text = String::from_utf8(trace_doc).unwrap();
    assert!(text.contains("\"stage\":\"report\""), "{text}");

    let (status, _, _) = request_full(addr, "GET", "/v1/traces/deadbeef00000000", b"").unwrap();
    assert_eq!(status, 404, "unknown trace ids are 404");
    server.shutdown();
}

/// `(stage, start_us, dur_us)` of a stored timeline, waiting for a
/// job's timeline to land (the executor stores it after the job
/// reads `done`).
fn timeline(addr: std::net::SocketAddr, trace: &str) -> Vec<(String, u64, u64)> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let doc = loop {
        let (status, _, doc) =
            request_full(addr, "GET", &format!("/v1/traces/{trace}"), b"").unwrap();
        match status {
            200 => break parse_json(&doc),
            404 if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => panic!("trace {trace}: {status}"),
        }
    };
    let spans = doc.get("spans").and_then(|s| s.as_arr()).expect("spans");
    spans
        .iter()
        .map(|span| {
            let field = |name| span.get(name).and_then(|v| v.as_u64()).expect(name);
            (
                str_of(span, "stage").to_owned(),
                field("start_us"),
                field("dur_us"),
            )
        })
        .collect()
}

/// A cold request's stages follow one another: `cache_lookup` ends
/// where the computation starts, so no span encloses another and
/// `mobipriv_stage_seconds` never counts one interval twice. An
/// upload's head and body are the stages `head` and `parse`.
#[test]
fn cold_stages_are_disjoint() {
    let csv = csv_of(&scenarios::serving_day(6, 5).dataset);
    let server = start(|_| {});
    let addr = server.addr();
    let (status, headers, _) = request_full(
        addr,
        "POST",
        "/v1/anonymize?mechanism=promesse&seed=11&report=1",
        &csv,
    )
    .unwrap();
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-mobipriv-cache"), Some("miss"));
    let one_shot = header(&headers, "x-mobipriv-trace").unwrap().to_owned();

    let digest = register(addr, &csv);
    let target = format!("/v1/jobs?dataset={digest}&mechanism=pipeline&seed=11&report=1");
    let (status, _, body) = request_full(addr, "POST", &target, b"").unwrap();
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let done = poll_done(addr, str_of(&parse_json(&body), "id"));
    assert_eq!(str_of(&done, "cache"), "miss");
    let job = str_of(&done, "trace").to_owned();

    for (trace, upload) in [(one_shot, true), (job, false)] {
        let spans = timeline(addr, &trace);
        let count = |stage: &str| spans.iter().filter(|(s, _, _)| s == stage).count();
        for stage in ["cache_lookup", "compute", "report", "serialize"] {
            assert_eq!(count(stage), 1, "one {stage} span in {spans:?}");
        }
        if upload {
            // The request head and the body are two stages.
            assert_eq!(count("head"), 1, "one head span in {spans:?}");
            assert_eq!(count("parse"), 1, "one parse span in {spans:?}");
        }
        for (i, (a, a_start, a_dur)) in spans.iter().enumerate() {
            for (b, b_start, b_dur) in &spans[i + 1..] {
                assert!(
                    a_start + a_dur <= *b_start || b_start + b_dur <= *a_start,
                    "{a} overlaps {b} in {spans:?}"
                );
            }
        }
    }
    server.shutdown();
}

#[test]
fn metrics_endpoint_renders_parsable_prometheus_text() {
    let body = csv_of(&scenarios::serving_day(5, 2).dataset);
    let server = start(|_| {});
    let addr = server.addr();
    let target = "/v1/anonymize?mechanism=promesse&alpha=100&seed=1";
    for _ in 0..3 {
        let (status, _, _) = request_full(addr, "POST", target, &body).unwrap();
        assert_eq!(status, 200);
    }
    let (status, _, _) = request_full(addr, "GET", "/nowhere", b"").unwrap();
    assert_eq!(status, 404);

    let (status, headers, text) = request_full(addr, "GET", "/metrics", b"").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type"),
        Some("text/plain; version=0.0.4")
    );
    let text = String::from_utf8(text).expect("UTF-8 exposition");
    let parsed = scrape::parse(&text).expect("own scraper parses own rendering");

    assert_eq!(
        parsed.value("mobipriv_http_requests_total", &[("status", "200")]),
        Some(3.0)
    );
    assert_eq!(
        parsed.value("mobipriv_http_requests_total", &[("status", "404")]),
        Some(1.0)
    );
    assert_eq!(parsed.value("mobipriv_cache_misses_total", &[]), Some(1.0));
    assert_eq!(parsed.value("mobipriv_cache_hits_total", &[]), Some(2.0));
    assert_eq!(parsed.value("mobipriv_cache_entries", &[]), Some(1.0));
    assert_eq!(parsed.value("mobipriv_http_shed_total", &[]), Some(0.0));
    assert_eq!(parsed.value("mobipriv_jobs_failed_total", &[]), Some(0.0));
    // Per-stage latency histograms carry the served requests.
    for stage in ["parse", "cache_lookup", "write"] {
        let count = parsed
            .value("mobipriv_stage_seconds_count", &[("stage", stage)])
            .unwrap_or(0.0);
        assert!(count >= 3.0, "stage {stage} count {count}");
    }
    assert!(
        parsed
            .value("mobipriv_http_request_seconds_count", &[])
            .unwrap_or(0.0)
            >= 4.0
    );
    server.shutdown();
}

#[test]
fn stats_embeds_the_registry_and_stays_json() {
    let body = csv_of(&scenarios::serving_day(4, 2).dataset);
    let server = start(|_| {});
    let addr = server.addr();
    let (status, _, _) =
        request_full(addr, "POST", "/v1/anonymize?mechanism=raw&seed=0", &body).unwrap();
    assert_eq!(status, 200);
    let (status, headers, stats) = request_full(addr, "GET", "/v1/stats", b"").unwrap();
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    let text = String::from_utf8(stats).unwrap();
    // The pre-existing flat counters survive unchanged…
    for field in ["\"computations\":", "\"cache_hits\":", "\"cache_misses\":"] {
        assert!(text.contains(field), "{text}");
    }
    // …and the full registry rides along under "metrics".
    assert!(text.contains("\"metrics\":{"), "{text}");
    assert!(
        text.contains("\"mobipriv_http_requests_total{status=200}\":"),
        "{text}"
    );
    assert!(text.contains("\"mobipriv_cache_misses_total\":1"), "{text}");
    server.shutdown();
}

#[test]
fn queue_depth_never_reads_negative_on_fresh_connections() {
    // Each scrape arrives on a fresh connection, so the acceptor's
    // `+1` and the worker's `-1` for that very connection race the
    // render. Counting before the hand-off keeps the gauge at >= 0.
    let server = start(|_| {});
    let addr = server.addr();
    for i in 0..300 {
        let (status, _, body) = request_full(addr, "GET", "/metrics", b"").unwrap();
        assert_eq!(status, 200);
        let parsed = scrape::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        let depth = parsed.value("mobipriv_http_queue_depth", &[]).unwrap();
        assert!(depth >= 0.0, "scrape {i}: queue depth {depth}");
    }
    let (_, _, body) = request_full(addr, "GET", "/metrics", b"").unwrap();
    let parsed = scrape::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert!(
        parsed.value("mobipriv_http_queue_depth_peak", &[]) >= Some(1.0),
        "every queued connection reaches the high-water mark"
    );
    server.shutdown();
}
