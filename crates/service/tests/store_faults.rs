//! The fault-injection matrix: every crash point in the blob/journal
//! write path, times three failure shapes, with recovery asserted for
//! each.
//!
//! A dry run with a counting injector first learns the exact labelled
//! I/O sequence one workload performs (pre-write `blob_create`,
//! mid-write `blob_write`, pre-rename `blob_fsync`/`blob_rename`,
//! post-rename/pre-journal `dir_fsync`, journal append
//! `journal_write`/`journal_fsync`). The matrix then replays the
//! workload once per `(op index, mode)` pair:
//!
//! * `Fail` / `ShortWrite` — transient: the op errors (short writes
//!   tear the buffer in half first); retrying the workload on the
//!   *same* store must succeed, and a reopen must recover everything.
//! * `Crash` — sticky: every I/O from that op on errors, the store
//!   instance is abandoned and the directory reopened cold, exactly
//!   like `kill -9` at that instant. Pre-existing state must survive
//!   byte-identical, the interrupted writes must be fully recovered or
//!   fully absent, and nothing may be quarantined — a clean crash
//!   never corrupts.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mobipriv_geo::LatLng;
use mobipriv_model::digest::dataset_digest;
use mobipriv_model::{Dataset, Fix, Timestamp, Trace, UserId};
use mobipriv_service::cache::CachedResult;
use mobipriv_service::store::faults::{FaultInjector, FaultMode};
use mobipriv_service::Store;

fn scratch(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mobipriv-faults-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dataset(user: u64) -> Dataset {
    Dataset::from_traces(vec![Trace::new(
        UserId::new(user),
        vec![
            Fix::new(LatLng::new(45.76, 4.84).unwrap(), Timestamp::new(0)),
            Fix::new(LatLng::new(45.77, 4.85).unwrap(), Timestamp::new(60)),
        ],
    )
    .unwrap()])
}

fn result(canonical: &str, body: &[u8]) -> CachedResult {
    CachedResult {
        canonical: canonical.to_owned(),
        content_type: "text/csv",
        headers: vec![
            ("x-mobipriv-mechanism", "raw".to_owned()),
            ("x-mobipriv-seed", "1".to_owned()),
        ],
        body: body.to_vec(),
    }
}

/// The interrupted workload: one dataset registration, one job
/// submission, one completed result — every record type the write path
/// produces except evictions (exercised separately below).
fn workload(store: &Store) -> std::io::Result<()> {
    let ds = dataset(20);
    store.put_dataset(&dataset_digest(&ds), &ds)?;
    store.job_submitted("bbbbbbbbbbbbbbbb", "canon|b")?;
    store.put_result(&result("canon|b", b"workload-body"))?;
    Ok(())
}

/// Seeds state that must survive whatever happens to the workload.
fn seed(root: &Path) -> (String, Vec<u8>) {
    let (store, _) = Store::open(root).expect("seed open");
    let ds = dataset(10);
    let digest = dataset_digest(&ds);
    store.put_dataset(&digest, &ds).expect("seed dataset");
    store
        .put_result(&result("canon|a", b"baseline-body"))
        .expect("seed result");
    (digest, b"baseline-body".to_vec())
}

/// `case` names the dry run's directory; tests run in parallel in one
/// process, so each caller needs its own.
fn ops_in_one_workload(case: &str) -> Vec<&'static str> {
    let root = scratch(case);
    let counting = FaultInjector::counting();
    let (store, _) = Store::open_with_faults(&root, counting.clone()).expect("open");
    workload(&store).expect("unfaulted workload succeeds");
    let ops = counting.ops();
    let _ = std::fs::remove_dir_all(&root);
    ops
}

#[test]
fn the_write_path_has_the_expected_crash_points() {
    let ops = ops_in_one_workload("dry-run-points");
    let blob_path: Vec<&str> = vec![
        "blob_create",   // pre-write: temp file exists, empty
        "blob_write",    // mid-write: torn temp file
        "blob_fsync",    // pre-rename: full temp file, not visible
        "blob_rename",   // pre-rename boundary
        "dir_fsync",     // post-rename, pre-journal: orphan blob
        "journal_write", // mid-journal-append when torn
        "journal_fsync", // record written, durability pending
    ];
    let submit_path = ["journal_write", "journal_fsync"];
    let expected: Vec<&str> = blob_path
        .iter()
        .chain(submit_path.iter())
        .chain(blob_path.iter())
        .copied()
        .collect();
    assert_eq!(ops, expected, "op sequence drifted: update the matrix");
}

/// Reopens cold and returns `(datasets, results-as-(canonical, body),
/// quarantined)`.
type ColdState = (Vec<String>, Vec<(String, Vec<u8>)>, u64);

fn recover(root: &Path) -> ColdState {
    let (_, recovered) = Store::open(root).expect("recovery open never fails");
    (
        recovered.datasets.iter().map(dataset_digest).collect(),
        recovered
            .results
            .into_iter()
            .map(|r| (r.canonical, r.body))
            .collect(),
        recovered.report.quarantined,
    )
}

fn assert_recovered_state(
    case: &str,
    root: &Path,
    baseline_digest: &str,
    baseline_body: &[u8],
    workload_must_exist: bool,
) {
    let (datasets, results, quarantined) = recover(root);
    assert_eq!(quarantined, 0, "{case}: a clean crash never corrupts");
    assert!(
        datasets.iter().any(|d| d == baseline_digest),
        "{case}: baseline dataset lost"
    );
    let baseline = results
        .iter()
        .find(|(c, _)| c == "canon|a")
        .unwrap_or_else(|| panic!("{case}: baseline result lost"));
    assert_eq!(baseline.1, baseline_body, "{case}: baseline body changed");
    let workload_dataset = dataset_digest(&dataset(20));
    let workload_result = results.iter().find(|(c, _)| c == "canon|b");
    if workload_must_exist {
        assert!(
            datasets.iter().any(|d| d == &workload_dataset),
            "{case}: workload dataset missing after successful retry"
        );
        assert_eq!(
            workload_result.map(|(_, b)| b.as_slice()),
            Some(&b"workload-body"[..]),
            "{case}: workload result missing after successful retry"
        );
    } else if let Some((_, body)) = workload_result {
        // Interrupted: fully there or fully absent, never corrupt.
        assert_eq!(body, b"workload-body", "{case}: partial result served");
    }
}

#[test]
fn every_crash_point_recovers() {
    let op_count = ops_in_one_workload("dry-run-count").len();
    assert_eq!(op_count, 16, "two blob puts + one submission");
    for nth in 0..op_count {
        for mode in [FaultMode::Fail, FaultMode::ShortWrite, FaultMode::Crash] {
            let case = format!("op{nth}-{mode:?}");
            let root = scratch(&case);
            let (baseline_digest, baseline_body) = seed(&root);
            let injector = FaultInjector::armed(mode, nth as u64);
            let (store, recovered) =
                Store::open_with_faults(&root, injector.clone()).expect("open armed");
            assert_eq!(
                recovered.report.quarantined, 0,
                "{case}: seed state was clean"
            );
            let outcome = workload(&store);
            assert!(outcome.is_err(), "{case}: the injected fault must surface");
            match mode {
                FaultMode::Fail | FaultMode::ShortWrite => {
                    assert!(!injector.crashed(), "{case}: transient faults clear");
                    // The same store retries and succeeds (idempotent
                    // blob writes, journal tail overwritten).
                    workload(&store).unwrap_or_else(|e| panic!("{case}: retry failed: {e}"));
                    drop(store);
                    assert_recovered_state(&case, &root, &baseline_digest, &baseline_body, true);
                }
                FaultMode::Crash => {
                    assert!(injector.crashed(), "{case}: crash is sticky");
                    assert!(workload(&store).is_err(), "{case}: a dead store stays dead");
                    drop(store); // "kill -9": abandon with the disk as-is
                    assert_recovered_state(&case, &root, &baseline_digest, &baseline_body, false);
                }
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

#[test]
fn faulted_eviction_keeps_the_cold_state_consistent() {
    // An eviction whose journal append dies must not strand the store:
    // the blob stays (the journal still says live), and the next boot
    // serves the entry again — stale but valid, never corrupt.
    let root = scratch("evict-crash");
    let (digest, _) = seed(&root);
    let injector = FaultInjector::armed(FaultMode::Crash, 0);
    let (store, _) = Store::open_with_faults(&root, injector).expect("open armed");
    assert!(store.dataset_evicted(&digest).is_err(), "append died");
    drop(store);
    let (datasets, results, quarantined) = recover(&root);
    assert_eq!(quarantined, 0);
    assert!(datasets.iter().any(|d| d == &digest), "entry resurrected");
    assert_eq!(results.len(), 1);
    // A successful eviction on the recovered store then really deletes.
    let (store, _) = Store::open(&root).expect("reopen");
    store.dataset_evicted(&digest).expect("clean evict");
    drop(store);
    let (datasets, _, _) = recover(&root);
    assert!(!datasets.iter().any(|d| d == &digest), "evicted for good");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_sticky_crash_disables_every_surface() {
    let root = scratch("sticky");
    let injector = FaultInjector::armed(FaultMode::Crash, 0);
    let (store, _) = Store::open_with_faults(&root, injector).expect("open");
    let ds = dataset(1);
    assert!(store.put_dataset(&dataset_digest(&ds), &ds).is_err());
    assert!(store.put_result(&result("c", b"x")).is_err());
    assert!(store.job_submitted("id", "c").is_err());
    assert!(store.dataset_evicted("0000000000000000").is_err());
    assert!(store.result_evicted(&result("c", b"x")).is_err());
    // Stats still answer (they read in-memory indexes, not the disk).
    let stats = store.stats();
    assert_eq!(stats.blobs, 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// Keep `Arc<Store>` usable across threads the way `AppState` holds it.
#[test]
fn concurrent_puts_with_a_transient_fault_do_not_poison() {
    let root = scratch("concurrent");
    let injector = FaultInjector::armed(FaultMode::Fail, 3);
    let (store, _) = Store::open_with_faults(&root, injector).expect("open");
    let store: Arc<Store> = store;
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let body = format!("body-{i}").into_bytes();
                let canonical = format!("canon|{i}");
                store.put_result(&result(&canonical, &body)).is_ok()
            })
        })
        .collect();
    let succeeded = handles
        .into_iter()
        .map(|h| h.join().expect("no panic"))
        .filter(|ok| *ok)
        .count();
    assert!(succeeded >= 3, "exactly one put hit the injected fault");
    drop(store);
    let (_, results, quarantined) = recover(&root);
    assert_eq!(quarantined, 0);
    assert!(results.len() >= 3);
    for (canonical, body) in &results {
        let i = canonical.strip_prefix("canon|").unwrap();
        assert_eq!(body, format!("body-{i}").as_bytes());
    }
    let _ = std::fs::remove_dir_all(&root);
}
