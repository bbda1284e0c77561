//! `mobipriv-loadgen` end to end: each mode against an in-process node,
//! and `--timeout` against a listener that never answers.

mod common;

use std::net::TcpListener;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use common::start;
use mobipriv_model::{write_bin, write_csv};
use mobipriv_synth::scenarios;

fn loadgen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mobipriv-loadgen"))
        .args(args)
        .output()
        .expect("run mobipriv-loadgen")
}

/// Runs loadgen against a fresh node with the smoke scripts' workload
/// and returns its stdout, requiring exit status 0.
fn run_against_node(mode: &[&str]) -> String {
    let server = start(|_| {});
    let addr = server.addr().to_string();
    let mut args = vec!["--addr", &addr, "--users", "20", "--seed", "7"];
    args.extend_from_slice(&["--requests", "6", "--concurrency", "2"]);
    args.extend_from_slice(mode);
    let out = loadgen(&args);
    server.shutdown();
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 summary");
    assert!(
        out.status.success(),
        "{:?}: {}\n{stdout}{}",
        out.status,
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn one_shot_mode_serves_every_request() {
    let stdout = run_against_node(&[]);
    assert!(stdout.contains("6 ok, 0 failed"), "{stdout}");
}

#[test]
fn keep_alive_mode_reports_connection_reuse() {
    let stdout = run_against_node(&["--keep-alive"]);
    assert!(stdout.contains("6 ok, 0 failed"), "{stdout}");
    assert!(stdout.contains("% reused"), "{stdout}");
}

#[test]
fn jobs_mode_reports_the_hit_rate_and_the_server_delta() {
    let stdout = run_against_node(&["--jobs", "--distinct", "2"]);
    assert!(stdout.contains("hit rate: 4/6"), "{stdout}");
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("server:   requests 200×")),
        "{stdout}"
    );
}

#[test]
fn dump_workload_equals_the_library_writers() {
    let dataset = scenarios::serving_day(20, 7).dataset;
    let (mut csv, mut bin) = (Vec::new(), Vec::new());
    write_csv(&dataset, &mut csv).unwrap();
    write_bin(&dataset, &mut bin).unwrap();
    for (format, expected) in [("csv", csv), ("bin", bin)] {
        let out = loadgen(&[
            "--users",
            "20",
            "--seed",
            "7",
            "--dump-workload",
            "--format",
            format,
        ]);
        assert!(out.status.success(), "{format}: {:?}", out.status);
        assert!(out.stdout == expected, "--format {format} dump differs");
    }
}

#[test]
fn timeout_bounds_a_request_nobody_answers() {
    // Bound but never accepting or answering: every request connects
    // (the kernel completes the handshake) and then waits on the read.
    let silent = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = silent.local_addr().unwrap().to_string();
    for mode in [&[][..], &["--jobs"][..]] {
        let mut args = vec!["--addr", &addr, "--timeout", "1", "--users", "5"];
        args.extend_from_slice(mode);
        let mut child = Command::new(env!("CARGO_BIN_EXE_mobipriv-loadgen"))
            .args(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn mobipriv-loadgen");
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll loadgen") {
                break Some(status);
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            std::thread::sleep(Duration::from_millis(50));
        };
        let status = status.unwrap_or_else(|| panic!("{args:?} still running after 10 s"));
        assert!(!status.success(), "{args:?} exited 0 against a silent peer");
    }
    drop(silent);
}
