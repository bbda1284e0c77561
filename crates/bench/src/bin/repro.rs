//! The reproduction harness CLI: regenerates every figure/table of the
//! experiment index (DESIGN.md §4). Run with `--help` for usage.

use mobipriv_bench::experiments::{self, ExperimentCtx};
use mobipriv_bench::ExperimentScale;
use mobipriv_core::Engine;

const USAGE: &str = "\
usage: repro [--smoke] [--sequential] [--threads N] [<experiment>]

Regenerates the figures/tables of the experiment index (DESIGN.md §4)
on the deterministic batch engine and prints them to stdout.

options:
  --smoke         run the reduced CI-scale workloads (seconds instead
                  of minutes; the recorded numbers use the full scale)
  --sequential    run per-trace mechanisms on one core instead of the
                  parallel engine (output is identical either way; see
                  the engine determinism guarantee)
  --threads N     pin the parallel engine to exactly N worker threads
                  instead of one per core (Engine::with_threads; output
                  is identical for any N, only resource usage changes)
  -h, --help      print this help

experiments:
  fig1            Fig. 1 panels (raw / smoothed / swapped)
  t1-poi-hiding   POI-retrieval attack vs every mechanism
  t2-utility      spatial distortion / coverage / query error
  t3-reident      re-identification accuracy
  t4-mixzones     mix-zone statistics vs radius
  t5-sampling     smoothing error vs GPS sampling rate
  t6-alpha        Promesse α ablation
  t7-kdelta       (k, δ) baseline on two workloads
  t8-confusion    tracker confusion vs crossing density
  t9-home         home-identification attack vs every mechanism
  all             everything above (the default)
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = ExperimentScale::Full;
    let mut sequential = false;
    let mut threads = None;
    let mut command = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            "--smoke" => scale = ExperimentScale::Smoke,
            "--sequential" => sequential = true,
            "--threads" => {
                let value = iter.next().and_then(|v| v.parse::<usize>().ok());
                match value {
                    Some(n) if n > 0 => threads = Some(n),
                    _ => {
                        eprintln!("--threads expects a positive integer\n\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            other if other.starts_with('-') => {
                eprintln!("unexpected argument: {other}\n\n{USAGE}");
                std::process::exit(2);
            }
            name if command.is_none() => command = Some(name.to_owned()),
            other => {
                eprintln!("unexpected argument: {other}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let engine = match (sequential, threads) {
        (false, None) => Engine::parallel(),
        (false, Some(n)) => Engine::parallel().with_threads(n),
        (true, None) => Engine::sequential(),
        (true, Some(_)) => {
            eprintln!("--threads conflicts with --sequential\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ctx = ExperimentCtx::with_engine(scale, engine);
    let command = command.unwrap_or_else(|| "all".to_owned());
    match experiments::run_named(&ctx, &command) {
        Some(output) => println!("{output}"),
        None => {
            eprintln!("unknown experiment `{command}`\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}
