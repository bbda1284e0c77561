//! Integration tests for the dataset registry, the async job engine
//! and the content-addressed result cache — over real sockets, held to
//! the same determinism contract as the batch engine: cold, warm and
//! coalesced responses must be byte-identical, and identical work must
//! run exactly once (single-flight).

mod common;

use std::net::SocketAddr;

use common::{
    batch_reference, csv_of, exchange, get, parse_json, poll_done, post, register, start, str_of,
};
use mobipriv_eval::Json;
use mobipriv_model::{read_csv, write_ndjson};
use mobipriv_synth::scenarios;

fn stat_u64(addr: SocketAddr, key: &str) -> u64 {
    let (status, _, body) = get(addr, "/v1/stats");
    assert_eq!(status, 200);
    parse_json(&body)
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing counter `{key}`"))
}

#[test]
fn register_job_poll_fetch_end_to_end() {
    let workload = scenarios::serving_day(10, 3);
    let csv = csv_of(&workload.dataset);
    let canonical = read_csv(csv.as_slice()).unwrap();
    let server = start(|_| {});
    let addr = server.addr();

    // Register once; re-upload is an idempotent `exists`.
    let digest = register(addr, &csv);
    let (_, _, body) = post(addr, "/v1/datasets", &csv);
    let doc = parse_json(&body);
    assert_eq!(str_of(&doc, "registered"), "exists");
    assert_eq!(str_of(&doc, "digest"), digest);

    // Submit, poll to done, fetch.
    let target = format!("/v1/jobs?dataset={digest}&mechanism=promesse&alpha=100&seed=9");
    let (status, _, body) = post(addr, &target, b"");
    assert_eq!(status, 202, "fresh job is Accepted");
    let doc = parse_json(&body);
    let id = str_of(&doc, "id").to_owned();
    assert_eq!(str_of(&doc, "status"), "queued");
    assert_eq!(str_of(&doc, "submitted"), "enqueued");
    assert_eq!(str_of(&doc, "result"), format!("/v1/results/{id}"));
    let done = poll_done(addr, &id);
    assert_eq!(
        done.get("progress").and_then(Json::as_f64),
        Some(1.0),
        "done job reports full progress"
    );

    let (status, headers, result) = get(addr, &format!("/v1/results/{id}"));
    assert_eq!(status, 200);
    assert_eq!(headers["content-type"], "text/csv");
    assert_eq!(headers["x-mobipriv-cache"], "hit");
    let expected = batch_reference(
        &canonical,
        &[("mechanism", "promesse"), ("alpha", "100")],
        9,
    );
    assert_eq!(result, expected, "job result diverges from batch engine");

    // The synchronous path for the same work is the same cache entry:
    // byte-identical body, served as a hit, no extra computation.
    let computations = stat_u64(addr, "computations");
    let (status, headers, sync_body) = post(
        addr,
        "/v1/anonymize?mechanism=promesse&alpha=100&seed=9",
        &csv,
    );
    assert_eq!(status, 200);
    assert_eq!(headers["x-mobipriv-cache"], "hit");
    assert_eq!(sync_body, expected, "sync and job surfaces diverge");
    assert_eq!(stat_u64(addr, "computations"), computations);

    // Resubmitting the identical job answers done immediately (200).
    let (status, _, body) = post(addr, &target, b"");
    assert_eq!(status, 200, "warm resubmission is done");
    let doc = parse_json(&body);
    assert_eq!(str_of(&doc, "status"), "done");
    server.shutdown();
}

#[test]
fn sync_anonymize_caches_and_reports_hit_vs_miss() {
    let workload = scenarios::serving_day(6, 4);
    let csv = csv_of(&workload.dataset);
    let server = start(|_| {});
    let addr = server.addr();
    let target = "/v1/anonymize?mechanism=geoind&epsilon=0.05&seed=11";
    let (status, headers, cold) = post(addr, target, &csv);
    assert_eq!(status, 200);
    assert_eq!(headers["x-mobipriv-cache"], "miss");
    let (status, headers, warm) = post(addr, target, &csv);
    assert_eq!(status, 200);
    assert_eq!(headers["x-mobipriv-cache"], "hit");
    assert_eq!(cold, warm, "hit body differs from cold computation");
    assert_eq!(stat_u64(addr, "computations"), 1);
    // A different seed is a different key.
    let (_, headers, other) = post(
        addr,
        "/v1/anonymize?mechanism=geoind&epsilon=0.05&seed=12",
        &csv,
    );
    assert_eq!(headers["x-mobipriv-cache"], "miss");
    assert_ne!(cold, other);
    assert_eq!(stat_u64(addr, "computations"), 2);
    server.shutdown();
}

#[test]
fn ndjson_and_csv_uploads_share_one_digest_and_cache_entry() {
    let workload = scenarios::serving_day(5, 8);
    let csv = csv_of(&workload.dataset);
    let mut ndjson = Vec::new();
    write_ndjson(&workload.dataset, &mut ndjson).unwrap();
    let server = start(|_| {});
    let addr = server.addr();
    let digest = register(addr, &csv);
    let (_, _, body) = post(addr, "/v1/datasets?format=ndjson", &ndjson);
    let doc = parse_json(&body);
    assert_eq!(str_of(&doc, "digest"), digest, "wire format changed digest");
    assert_eq!(str_of(&doc, "registered"), "exists");
    // Same dataset through the sync path as NDJSON: hits the entry a
    // CSV upload of the same content created.
    let target = "/v1/anonymize?mechanism=raw&seed=0";
    let (_, headers, a) = post(addr, target, &csv);
    assert_eq!(headers["x-mobipriv-cache"], "miss");
    let (_, headers, b) = post(addr, &format!("{target}&format=ndjson"), &ndjson);
    assert_eq!(headers["x-mobipriv-cache"], "hit", "cross-format miss");
    assert_eq!(a, b);
    server.shutdown();
}

#[test]
fn anonymize_by_registered_digest_matches_body_upload() {
    let workload = scenarios::serving_day(8, 6);
    let csv = csv_of(&workload.dataset);
    let server = start(|_| {});
    let addr = server.addr();
    let digest = register(addr, &csv);
    let (status, headers, by_digest) = post(
        addr,
        &format!("/v1/anonymize?dataset={digest}&mechanism=promesse&alpha=150&seed=2"),
        b"",
    );
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&by_digest));
    assert_eq!(headers["x-mobipriv-cache"], "miss");
    let (status, headers, by_body) = post(
        addr,
        "/v1/anonymize?mechanism=promesse&alpha=150&seed=2",
        &csv,
    );
    assert_eq!(status, 200);
    assert_eq!(
        headers["x-mobipriv-cache"], "hit",
        "digest-referenced and body-carried inputs are one cache key"
    );
    assert_eq!(by_digest, by_body);
    // Unregistered digest: 404.
    let (status, _, _) = post(
        addr,
        "/v1/anonymize?dataset=ffffffffffffffff&mechanism=raw",
        b"",
    );
    assert_eq!(status, 404);
    server.shutdown();
}

#[test]
fn concurrent_identical_sync_requests_coalesce_into_one_computation() {
    let workload = scenarios::serving_day(20, 5);
    let csv = csv_of(&workload.dataset);
    let server = start(|c| {
        c.workers = 8;
        c.queue_depth = 32;
    });
    let addr = server.addr();
    let target = "/v1/anonymize?mechanism=promesse&alpha=100&seed=77";
    let bodies: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let csv = &csv;
                scope.spawn(move || {
                    let (status, _, body) = post(addr, target, csv);
                    assert_eq!(status, 200);
                    body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for body in &bodies[1..] {
        assert_eq!(body, &bodies[0], "coalesced responses diverge");
    }
    assert_eq!(
        stat_u64(addr, "computations"),
        1,
        "single-flight violated on the sync path"
    );
    server.shutdown();
}

#[test]
fn concurrent_identical_job_submissions_coalesce_onto_one_job() {
    let workload = scenarios::serving_day(20, 7);
    let csv = csv_of(&workload.dataset);
    let server = start(|c| {
        c.workers = 8;
        c.job_workers = 4;
    });
    let addr = server.addr();
    let digest = register(addr, &csv);
    let target = format!("/v1/jobs?dataset={digest}&mechanism=geoind&epsilon=0.01&seed=5");
    let ids: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let target = &target;
                scope.spawn(move || {
                    let (status, _, body) = post(addr, target, b"");
                    assert!(status == 200 || status == 202, "HTTP {status}");
                    parse_json(&body)
                        .get("id")
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_owned()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for id in &ids[1..] {
        assert_eq!(id, &ids[0], "identical specs got different job ids");
    }
    poll_done(addr, &ids[0]);
    assert_eq!(
        stat_u64(addr, "computations"),
        1,
        "single-flight violated across concurrent submissions"
    );
    let (status, _, a) = get(addr, &format!("/v1/results/{}", ids[0]));
    assert_eq!(status, 200);
    let (_, _, b) = get(addr, &format!("/v1/results/{}", ids[0]));
    assert_eq!(a, b, "repeated fetches differ");
    server.shutdown();
}

#[test]
fn evaluate_jobs_return_deterministic_utility_json() {
    let workload = scenarios::serving_day(10, 2);
    let csv = csv_of(&workload.dataset);
    let server = start(|_| {});
    let addr = server.addr();
    let digest = register(addr, &csv);
    let target =
        format!("/v1/jobs?dataset={digest}&kind=evaluate&mechanism=promesse&alpha=100&seed=4");
    let (_, _, body) = post(addr, &target, b"");
    let id = parse_json(&body)
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned();
    poll_done(addr, &id);
    let (status, headers, report) = get(addr, &format!("/v1/results/{id}"));
    assert_eq!(status, 200);
    assert_eq!(headers["content-type"], "application/json");
    let doc = parse_json(&report);
    assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(1));
    assert_eq!(str_of(&doc, "kind"), "utility_report");
    assert_eq!(str_of(&doc, "dataset"), digest);
    assert_eq!(str_of(&doc, "mechanism"), "promesse alpha=100");
    let distortion = doc.get("distortion").expect("distortion section");
    assert!(distortion.get("mean_m").and_then(Json::as_f64).unwrap() >= 0.0);
    let coverage = doc.get("coverage").expect("coverage section");
    let f1 = coverage.get("f1").and_then(Json::as_f64).unwrap();
    assert!((0.0..=1.0).contains(&f1));
    // Byte-determinism across fetches and resubmission.
    let (_, _, again) = get(addr, &format!("/v1/results/{id}"));
    assert_eq!(report, again);
    let (status, _, resubmit) = post(addr, &target, b"");
    assert_eq!(status, 200);
    assert_eq!(str_of(&parse_json(&resubmit), "status"), "done");
    // The anonymize job for the same tuple is a *different* key.
    let anon = format!("/v1/jobs?dataset={digest}&mechanism=promesse&alpha=100&seed=4");
    let (_, _, body) = post(addr, &anon, b"");
    assert_ne!(str_of(&parse_json(&body), "id"), id);
    server.shutdown();
}

#[test]
fn job_and_result_errors_map_to_proper_statuses() {
    let workload = scenarios::serving_day(4, 1);
    let csv = csv_of(&workload.dataset);
    let server = start(|_| {});
    let addr = server.addr();
    let digest = register(addr, &csv);

    // Submission validation.
    for (target, expected) in [
        ("/v1/jobs?mechanism=raw".to_owned(), 400), // missing dataset
        (
            "/v1/jobs?dataset=ffffffffffffffff&mechanism=raw".to_owned(),
            404,
        ),
        (format!("/v1/jobs?dataset={digest}"), 400), // missing mechanism
        (
            format!("/v1/jobs?dataset={digest}&mechanism=warp-drive"),
            400,
        ),
        (
            format!("/v1/jobs?dataset={digest}&mechanism=raw&kind=teleport"),
            400,
        ),
        (
            format!("/v1/jobs?dataset={digest}&mechanism=promesse&alpha=banana"),
            400,
        ),
    ] {
        let (status, _, body) = post(addr, &target, b"");
        assert_eq!(
            status,
            expected,
            "{target}: {}",
            String::from_utf8_lossy(&body)
        );
    }

    // Lookups.
    let (status, _, _) = get(addr, "/v1/jobs/no-such-job");
    assert_eq!(status, 404);
    let (status, _, _) = get(addr, "/v1/results/no-such-key");
    assert_eq!(status, 404);
    let (status, _, _) = get(addr, "/v1/datasets/ffffffffffffffff");
    assert_eq!(status, 404);

    // Method mapping on the new routes.
    let (status, headers, _) = get(addr, "/v1/anonymize");
    assert_eq!(status, 405);
    assert_eq!(headers["allow"], "POST");
    let (status, headers, _) = exchange(addr, b"DELETE /v1/jobs HTTP/1.1\r\nhost: t\r\n\r\n");
    assert_eq!(status, 405);
    assert_eq!(headers["allow"], "GET, POST");
    let (status, _, _) = exchange(addr, b"DELETE /v1/results/x HTTP/1.1\r\nhost: t\r\n\r\n");
    assert_eq!(status, 405);

    // Registry listing includes the registered digest.
    let (status, _, body) = get(addr, "/v1/datasets");
    assert_eq!(status, 200);
    assert!(String::from_utf8(body).unwrap().contains(&digest));
    // Empty body registration is a 400, not a registered empty dataset.
    let (status, _, _) = post(addr, "/v1/datasets", b"");
    assert_eq!(status, 400);
    server.shutdown();
}

#[test]
fn evicted_results_are_recomputed_on_resubmission() {
    let workload = scenarios::serving_day(6, 11);
    let csv = csv_of(&workload.dataset);
    // Budget fits one raw-mechanism result (body == canonical input)
    // but not two: the second job evicts the first.
    let budget = (csv.len() as u64 * 3) / 2;
    let server = start(move |c| c.result_budget_bytes = budget);
    let addr = server.addr();
    let digest = register(addr, &csv);

    let submit = |seed: u64| -> String {
        let (status, _, body) = post(
            addr,
            &format!("/v1/jobs?dataset={digest}&mechanism=raw&seed={seed}"),
            b"",
        );
        assert!(status == 200 || status == 202, "HTTP {status}");
        parse_json(&body)
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned()
    };

    let a = submit(1);
    poll_done(addr, &a);
    let (status, _, first) = get(addr, &format!("/v1/results/{a}"));
    assert_eq!(status, 200);
    let b = submit(2);
    poll_done(addr, &b);
    // Job B's result evicted A's: the address 404s...
    let (status, _, _) = get(addr, &format!("/v1/results/{a}"));
    assert_eq!(status, 404, "a's result should be evicted");
    // ...and resubmitting A must *recompute*, not coalesce onto the
    // stale done record (which would 200 `done` while the result keeps
    // 404ing forever).
    let a_again = submit(1);
    assert_eq!(a_again, a, "same spec, same content address");
    poll_done(addr, &a);
    let (status, _, recomputed) = get(addr, &format!("/v1/results/{a}"));
    assert_eq!(status, 200, "resubmission recomputed the evicted result");
    assert_eq!(recomputed, first, "recomputation is byte-identical");
    server.shutdown();
}

#[test]
fn pending_results_answer_202_with_the_job_document() {
    // A slow job (kdelta on a larger workload) so the poll observes the
    // pending window.
    let workload = scenarios::serving_day(60, 9);
    let csv = csv_of(&workload.dataset);
    let server = start(|_| {});
    let addr = server.addr();
    let digest = register(addr, &csv);
    let target = format!("/v1/jobs?dataset={digest}&mechanism=kdelta&k=2&delta=200&seed=3");
    let (_, _, body) = post(addr, &target, b"");
    let id = parse_json(&body)
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned();
    // Immediately race the result endpoint: while the job is queued or
    // running it must answer 202 + status document, never 500.
    let (status, _, body) = get(addr, &format!("/v1/results/{id}"));
    assert!(status == 202 || status == 200, "HTTP {status}");
    if status == 202 {
        let doc = parse_json(&body);
        assert!(matches!(str_of(&doc, "status"), "queued" | "running"));
    }
    poll_done(addr, &id);
    let (status, _, _) = get(addr, &format!("/v1/results/{id}"));
    assert_eq!(status, 200);
    server.shutdown();
}
