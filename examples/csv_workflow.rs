//! The adoption path for real data: read a CSV mobility dataset,
//! protect it with the paper's pipeline, write the publishable CSV
//! back out — plus the sanity numbers a data owner would check first.
//!
//! ```text
//! cargo run --release --example csv_workflow
//! ```

use mobipriv::core::{CancelToken, Engine, MixZoneConfig, Pipeline, Report};
use mobipriv::model::{read_csv, write_csv};
use mobipriv::synth::scenarios;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Stand-in for your raw export: serialize a synthetic workload to
    // CSV, exactly the 5-column format `read_csv` documents
    // (user,trace,lat,lng,time).
    let town = scenarios::commuter_town(6, 2, 11);
    let mut raw_csv = Vec::new();
    write_csv(&town.dataset, &mut raw_csv)?;
    println!(
        "raw export: {} bytes, {} rows",
        raw_csv.len(),
        raw_csv.iter().filter(|b| **b == b'\n').count() - 1
    );

    // A consumer (or this program) reads it back…
    let dataset = read_csv(raw_csv.as_slice())?;
    assert_eq!(dataset.total_fixes(), town.dataset.total_fixes());

    // …protects it…
    let pipeline = Pipeline::new(100.0, MixZoneConfig::default())?;
    let run = Engine::parallel().run(&pipeline, &dataset, 99, &CancelToken::none())?;
    let (published, Report::Swap(report)) = run else {
        unreachable!("the pipeline reports its swaps")
    };
    println!(
        "protected: {} traces -> {} traces, {} zones, {:.2}% fixes suppressed",
        dataset.len(),
        published.len(),
        report.zones.len(),
        report.suppression_ratio() * 100.0
    );

    // …and writes the publishable file.
    let mut published_csv = Vec::new();
    write_csv(&published, &mut published_csv)?;
    println!("published export: {} bytes", published_csv.len());

    // Round-trip integrity of the published artifact.
    let reread = read_csv(published_csv.as_slice())?;
    assert_eq!(reread.total_fixes(), published.total_fixes());
    assert_eq!(reread.users(), published.users());
    println!("round trip: OK ({} fixes)", reread.total_fixes());
    Ok(())
}
