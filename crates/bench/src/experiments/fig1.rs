//! F1 — reproduction of the paper's Figure 1: two mobility traces (a)
//! raw with two POIs each and a natural crossing, (b) after enforcing a
//! constant speed, (c) after swapping identifiers in the mix-zone.

use mobipriv_core::{MixZoneConfig, MixZones, Promesse, Report};
use mobipriv_model::{Dataset, UserId};
use mobipriv_poi::{detect_stay_points, StayPointConfig};
use mobipriv_synth::scenarios;

use super::common::{ExperimentCtx, ExperimentScale};

const GRID: usize = 33;
const EXTENT: f64 = 1_400.0;

/// Renders the three panels of Fig. 1 as ASCII plots plus the summary
/// statistics that make each panel's point.
pub fn fig1(scale: ExperimentScale) -> String {
    run(&ExperimentCtx::new(scale))
}

/// Engine-driven body, shared with `repro all`'s single context.
pub(crate) fn run(ctx: &ExperimentCtx) -> String {
    let out = scenarios::crossing_paths(1);
    let raw = &out.dataset;
    let frame = out.city.frame();

    let smoother = Promesse::new(100.0).expect("valid alpha");
    let smoothed = ctx.protect(&smoother, raw, 7);

    let swapper = MixZones::new(MixZoneConfig::default()).expect("valid config");
    // Find a seed whose permutation actually swaps, like the figure.
    let (swapped, report) = (0..64)
        .find_map(|seed| match ctx.run(&swapper, &smoothed, seed) {
            (swapped, Report::Swap(report)) if report.swap_events > 0 => Some((swapped, report)),
            _ => None,
        })
        .expect("a swap occurs within 64 seeds");

    let sp_config = StayPointConfig::default();
    let stays = |d: &Dataset| -> usize {
        d.traces()
            .iter()
            .map(|t| detect_stay_points(t, &sp_config).len())
            .sum()
    };

    let mut s = String::new();
    s.push_str("(a) original traces — 'a'/'b' transit, 'A'/'B' dwell clusters\n");
    s.push_str(&render(raw, frame));
    s.push_str(&format!(
        "    stay points found: {} (two POIs per user)\n\n",
        stays(raw)
    ));
    s.push_str("(b) after enforcing constant speed (Promesse, α = 100 m)\n");
    s.push_str(&render(&smoothed, frame));
    s.push_str(&format!(
        "    stay points found: {} (evenly spaced points, stops erased)\n\n",
        stays(&smoothed)
    ));
    s.push_str("(c) after swapping in the mix-zone at the crossing\n");
    s.push_str(&render(&swapped, frame));
    s.push_str(&format!(
        "    zones: {}   swap events: {}   suppressed fixes: {} ({:.1}%)   mixed fixes: {:.1}%\n",
        report.zones.len(),
        report.swap_events,
        report.suppressed_fixes,
        report.suppression_ratio() * 100.0,
        report.mixed_fix_ratio() * 100.0,
    ));
    s
}

/// Draws the dataset on a GRID×GRID ASCII canvas. User 0 renders as
/// 'a', user 1 as 'b'; cells with ≥ 4 points (dwell clusters) render
/// uppercase; overlap renders '*'.
fn render(dataset: &Dataset, frame: &mobipriv_geo::LocalFrame) -> String {
    let mut counts = vec![[0usize; 2]; GRID * GRID];
    for trace in dataset.traces() {
        let who = (trace.user() != UserId::new(0)) as usize;
        for fix in trace.fixes() {
            let p = frame.project(fix.position);
            let gx = ((p.x + EXTENT) / (2.0 * EXTENT) * (GRID as f64 - 1.0)).round();
            let gy = ((p.y + EXTENT) / (2.0 * EXTENT) * (GRID as f64 - 1.0)).round();
            if (0.0..GRID as f64).contains(&gx) && (0.0..GRID as f64).contains(&gy) {
                counts[gy as usize * GRID + gx as usize][who] += 1;
            }
        }
    }
    let mut s = String::with_capacity(GRID * (GRID + 1));
    for gy in (0..GRID).rev() {
        s.push_str("    ");
        for gx in 0..GRID {
            let [a, b] = counts[gy * GRID + gx];
            s.push(match (a, b) {
                (0, 0) => '.',
                (a, b) if a > 0 && b > 0 => '*',
                (a, 0) if a >= 4 => 'A',
                (_, 0) => 'a',
                (0, b) if b >= 4 => 'B',
                _ => 'b',
            });
        }
        s.push('\n');
    }
    s
}
