//! Failure-domain integration tests over real sockets: compute
//! deadlines through the single-flight cache, circuit-breaker
//! degradation and recovery, slow-loris client timeouts, and the retry
//! quarantine's attempt history — the service-level contracts behind
//! `DESIGN.md` §14.

mod common;

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use common::{exchange, get, post, start};
use mobipriv_model::write_csv;
use mobipriv_service::client::json_str_field;
use mobipriv_service::{backoff_ms, ChaosConfig};
use mobipriv_synth::scenarios;

fn workload_csv() -> Vec<u8> {
    let workload = scenarios::serving_day(60, 7);
    let mut out = Vec::new();
    write_csv(&workload.dataset, &mut out).unwrap();
    out
}

/// The value of a `/metrics` counter/gauge without labels.
fn metric(addr: SocketAddr, name: &str) -> Option<f64> {
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let text = std::str::from_utf8(&body).unwrap();
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
fn backoff_is_deterministic_monotone_and_bounded() {
    // Property sweep across keys, bases and caps — no randomness, so an
    // exhaustive grid stands in for proptest.
    for key in ["a", "v1|anonymize|abc|promesse|seed=1", "x/y/z", ""] {
        for (base, cap) in [(1, 4), (25, 1_000), (100, 100), (50, 10), (0, 0)] {
            let mut previous = 0;
            for attempt in 0..24 {
                let a = backoff_ms(key, attempt, base, cap);
                let b = backoff_ms(key, attempt, base, cap);
                assert_eq!(a, b, "same inputs must give the same delay");
                assert!(
                    a >= previous,
                    "schedule must be monotone: {previous} -> {a}"
                );
                assert!(
                    a <= cap.max(base).max(1),
                    "delay {a} exceeds cap {cap} (base {base})"
                );
                previous = a;
            }
        }
    }
    // Distinct keys de-synchronize (jitter differs for at least one
    // attempt across a realistic base).
    let a: Vec<u64> = (0..8)
        .map(|n| backoff_ms("key-a", n, 100, 10_000))
        .collect();
    let b: Vec<u64> = (0..8)
        .map(|n| backoff_ms("key-b", n, 100, 10_000))
        .collect();
    assert_ne!(a, b, "jitter must separate distinct keys");
}

#[test]
fn deadline_exceeded_flight_fails_followers_identically_then_recomputes() {
    let server = start(|_| {});
    let addr = server.addr();
    let body = workload_csv();
    let target = "/v1/anonymize?mechanism=promesse&seed=11&timeout_ms=0";

    // A zero compute budget trips deterministically. Race several
    // clients at the same key: whoever leads fails the flight, everyone
    // — leader and followers alike — must see the same 504 bytes.
    let mut clients = Vec::new();
    for _ in 0..4 {
        let body = body.clone();
        clients.push(std::thread::spawn(move || post(addr, target, &body)));
    }
    let responses: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    for (status, _, body) in &responses {
        assert_eq!(*status, 504, "zero budget must answer 504");
        assert_eq!(
            body, &responses[0].2,
            "every client sees the same error bytes"
        );
    }
    assert!(metric(addr, "mobipriv_deadline_exceeded_total").unwrap_or(0.0) >= 1.0);

    // The failed flight must not poison the key: the same computation
    // without the budget recomputes cleanly (miss, then hit).
    let plain = "/v1/anonymize?mechanism=promesse&seed=11";
    let (status, headers, first) = post(addr, plain, &body);
    assert_eq!(status, 200, "key must be immediately reusable");
    assert_eq!(
        headers.get("x-mobipriv-cache").map(String::as_str),
        Some("miss")
    );
    let (status, headers, second) = post(addr, plain, &body);
    assert_eq!(status, 200);
    assert_eq!(
        headers.get("x-mobipriv-cache").map(String::as_str),
        Some("hit")
    );
    assert_eq!(first, second, "cached bytes match the computed bytes");
    server.shutdown();
}

#[test]
fn breaker_opens_serves_hits_while_degraded_and_recovers() {
    let server = start(|config| {
        config.resilience.breaker_failure_threshold = 2;
        config.resilience.breaker_open = Duration::from_millis(300);
    });
    let addr = server.addr();
    let body = workload_csv();

    // Prewarm one key while the breaker is closed.
    let warm = "/v1/anonymize?mechanism=promesse&seed=1";
    let (status, _, warm_bytes) = post(addr, warm, &body);
    assert_eq!(status, 200);
    let (_, _, health) = get(addr, "/healthz");
    assert_eq!(health, b"ready\n");

    // Two consecutive compute failures (tripped deadlines) open it.
    for seed in [2, 3] {
        let target = format!("/v1/anonymize?mechanism=promesse&seed={seed}&timeout_ms=0");
        let (status, _, _) = post(addr, &target, &body);
        assert_eq!(status, 504);
    }
    assert_eq!(
        metric(addr, "mobipriv_breaker_state"),
        Some(2.0),
        "gauge reads open (0=closed, 1=half-open, 2=open)"
    );

    // Degraded: cold computes shed with Retry-After, cache hits and the
    // health/metrics surfaces keep serving.
    let (status, headers, _) = post(addr, "/v1/anonymize?mechanism=promesse&seed=4", &body);
    assert_eq!(status, 503, "cold compute must shed while open");
    assert!(
        headers.contains_key("retry-after"),
        "shed responses advertise when to come back"
    );
    let (status, headers, hit_bytes) = post(addr, warm, &body);
    assert_eq!(status, 200, "cache hits keep serving while degraded");
    assert_eq!(
        headers.get("x-mobipriv-cache").map(String::as_str),
        Some("hit")
    );
    assert_eq!(hit_bytes, warm_bytes);
    let (status, _, health) = get(addr, "/healthz");
    assert_eq!(status, 200, "healthz stays 200 for liveness probes");
    assert_eq!(health, b"degraded\n");

    // Past the open window a successful half-open probe re-closes it.
    std::thread::sleep(Duration::from_millis(350));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _, _) = post(addr, "/v1/anonymize?mechanism=promesse&seed=5", &body);
        if status == 200 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "breaker never admitted a successful probe (last status {status})"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(metric(addr, "mobipriv_breaker_state"), Some(0.0));
    let (_, _, health) = get(addr, "/healthz");
    assert_eq!(health, b"ready\n");
    server.shutdown();
}

#[test]
fn slow_loris_head_times_out_with_clean_408() {
    let server = start(|config| {
        config.timeout = Duration::from_millis(300);
    });
    let addr = server.addr();
    let before = metric(addr, "mobipriv_client_timeouts_total").unwrap_or(0.0);

    // Open a connection and trickle a partial request head, slower than
    // the read budget: the server must answer a clean 408 and close,
    // not hold the worker hostage.
    // Never send the blank line; just wait out the deadline.
    let (status, _, _) = exchange(
        addr,
        b"POST /v1/anonymize?mechanism=promesse HTTP/1.1\r\nhost: t\r\n",
    );
    assert_eq!(status, 408, "stalled head maps to Request Timeout");

    let after = metric(addr, "mobipriv_client_timeouts_total").unwrap_or(0.0);
    assert!(
        after >= before + 1.0,
        "timeout must be counted ({before} -> {after})"
    );

    // The worker is free again: a well-formed request succeeds.
    let (status, _, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn exhausted_job_quarantines_with_attempt_history() {
    let server = start(|config| {
        config.resilience.max_attempts = 3;
        config.resilience.backoff_base_ms = 1;
        config.resilience.backoff_cap_ms = 4;
        // Keep the breaker out of the way: this test is about retries.
        config.resilience.breaker_failure_threshold = 100;
        config.chaos = Some(ChaosConfig {
            error_p: 1.0,
            ..ChaosConfig::default()
        });
    });
    let addr = server.addr();
    let body = workload_csv();

    let (status, _, response) = post(addr, "/v1/datasets", &body);
    assert_eq!(
        status, 200,
        "registration does not compute, chaos can't touch it"
    );
    let digest = json_str_field(&response, "digest").expect("digest");

    let (status, _, response) = post(
        addr,
        &format!("/v1/jobs?dataset={digest}&mechanism=promesse&seed=9"),
        b"",
    );
    assert!(status == 200 || status == 202, "submit answered {status}");
    let id = json_str_field(&response, "id").expect("job id");

    // Every attempt hits an injected transient fault; the job must land
    // in quarantine with the full per-attempt history on the record.
    let deadline = Instant::now() + Duration::from_secs(30);
    let record = loop {
        let (status, _, body) = get(addr, &format!("/v1/jobs/{id}"));
        assert_eq!(status, 200);
        match json_str_field(&body, "status").as_deref() {
            Some("failed") => break String::from_utf8(body).unwrap(),
            Some("done") => panic!("job cannot succeed under error_p=1.0"),
            _ => {
                assert!(Instant::now() < deadline, "job never reached quarantine");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };
    assert!(
        record.contains("\"attempts\":["),
        "history missing: {record}"
    );
    assert!(
        record.contains("\"attempt\":3"),
        "all attempts recorded: {record}"
    );
    assert!(
        record.contains("\"transient\":true"),
        "classification recorded: {record}"
    );
    assert!(
        record.contains("\"backoff_ms\":"),
        "schedule recorded: {record}"
    );
    assert_eq!(
        metric(addr, "mobipriv_retries_total"),
        Some(2.0),
        "3 attempts = 2 retries"
    );
    assert!(
        metric(addr, "mobipriv_chaos_injections_total{kind=\"error\"}").unwrap_or(0.0) >= 3.0,
        "every attempt's fault shows up in the injection counter"
    );
    server.shutdown();
}
