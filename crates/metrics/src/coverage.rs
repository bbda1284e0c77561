//! Cell-coverage and heat-map similarity between raw and published data.
//!
//! Counts are kept in `BTreeMap`s so every derived statistic (including
//! the floating-point sums behind the cosine similarity) accumulates in
//! one fixed cell order — the evaluation harness pins these numbers in
//! its golden corpus, so they must be bit-identical across processes.

use std::collections::BTreeMap;

use mobipriv_geo::{CellId, GridIndex, LocalFrame};
use mobipriv_model::Dataset;

/// How well the published data covers the cells the raw data covered,
/// and how similar the two density heat-maps are.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CoverageReport {
    /// Cells visited by the raw data.
    pub raw_cells: usize,
    /// Cells visited by the published data.
    pub published_cells: usize,
    /// Cells visited by both.
    pub common_cells: usize,
    /// `common / published` (1.0 when the published set is empty).
    pub precision: f64,
    /// `common / raw` (1.0 when the raw set is empty).
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
    /// Cosine similarity between the per-cell point-count vectors.
    pub cosine: f64,
    /// Total-variation distance between the normalized heat-maps
    /// (0 = identical densities, 1 = disjoint).
    pub total_variation: f64,
}

/// Computes coverage and heat-map similarity on a grid of `cell_m`
/// meter cells (the frame is taken from the raw dataset).
pub fn coverage(raw: &Dataset, published: &Dataset, cell_m: f64) -> CoverageReport {
    let frame = match raw.local_frame() {
        Ok(f) => f,
        Err(_) => return CoverageReport::default(),
    };
    let raw_counts = cell_counts(&frame, raw, cell_m);
    let pub_counts = cell_counts(&frame, published, cell_m);
    let common = raw_counts
        .keys()
        .filter(|c| pub_counts.contains_key(*c))
        .count();
    let precision = if pub_counts.is_empty() {
        1.0
    } else {
        common as f64 / pub_counts.len() as f64
    };
    let recall = if raw_counts.is_empty() {
        1.0
    } else {
        common as f64 / raw_counts.len() as f64
    };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    CoverageReport {
        raw_cells: raw_counts.len(),
        published_cells: pub_counts.len(),
        common_cells: common,
        precision,
        recall,
        f1,
        cosine: cosine_similarity(&raw_counts, &pub_counts),
        total_variation: total_variation(&raw_counts, &pub_counts),
    }
}

fn cell_counts(frame: &LocalFrame, dataset: &Dataset, cell_m: f64) -> BTreeMap<CellId, f64> {
    // Reuse GridIndex's cell addressing for consistency with the rest of
    // the toolkit.
    let index: GridIndex<()> = GridIndex::new(cell_m.max(1.0)).expect("positive cell size");
    let mut counts = BTreeMap::new();
    for trace in dataset.traces() {
        for fix in trace.fixes() {
            let cell = index.cell_of(frame.project(fix.position));
            *counts.entry(cell).or_insert(0.0) += 1.0;
        }
    }
    counts
}

fn cosine_similarity(a: &BTreeMap<CellId, f64>, b: &BTreeMap<CellId, f64>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let dot: f64 = a
        .iter()
        .filter_map(|(c, va)| b.get(c).map(|vb| va * vb))
        .sum();
    let na: f64 = a.values().map(|v| v * v).sum::<f64>().sqrt();
    let nb: f64 = b.values().map(|v| v * v).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

fn total_variation(a: &BTreeMap<CellId, f64>, b: &BTreeMap<CellId, f64>) -> f64 {
    let ta: f64 = a.values().sum();
    let tb: f64 = b.values().sum();
    if ta == 0.0 && tb == 0.0 {
        return 0.0;
    }
    let mut cells: Vec<CellId> = a.keys().chain(b.keys()).copied().collect();
    cells.sort_unstable();
    cells.dedup();
    0.5 * cells
        .iter()
        .map(|c| {
            let pa = a.get(c).copied().unwrap_or(0.0) / ta.max(1e-12);
            let pb = b.get(c).copied().unwrap_or(0.0) / tb.max(1e-12);
            (pa - pb).abs()
        })
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobipriv_geo::{LatLng, Point};
    use mobipriv_model::{Fix, Timestamp, Trace, UserId};

    fn dataset_from_points(user: u64, pts: &[(f64, f64)]) -> Dataset {
        let frame = LocalFrame::new(LatLng::new(45.0, 5.0).unwrap());
        let fixes = pts
            .iter()
            .enumerate()
            .map(|(i, (x, y))| {
                Fix::new(
                    frame.unproject(Point::new(*x, *y)),
                    Timestamp::new(i as i64 * 10),
                )
            })
            .collect();
        Dataset::from_traces(vec![Trace::new(UserId::new(user), fixes).unwrap()])
    }

    #[test]
    fn identical_data_perfect_scores() {
        let d = dataset_from_points(1, &[(0.0, 0.0), (500.0, 0.0), (1_000.0, 0.0)]);
        let r = coverage(&d, &d, 250.0);
        assert_eq!(r.precision, 1.0);
        assert_eq!(r.recall, 1.0);
        assert_eq!(r.f1, 1.0);
        assert!((r.cosine - 1.0).abs() < 1e-12);
        assert!(r.total_variation < 1e-12);
    }

    #[test]
    fn disjoint_data_zero_overlap() {
        let a = dataset_from_points(1, &[(0.0, 0.0)]);
        let b = dataset_from_points(1, &[(10_000.0, 10_000.0)]);
        let r = coverage(&a, &b, 250.0);
        assert_eq!(r.common_cells, 0);
        assert_eq!(r.recall, 0.0);
        assert_eq!(r.cosine, 0.0);
        assert!((r.total_variation - 1.0).abs() < 1e-12);
    }

    #[test]
    fn subset_published_high_precision_low_recall() {
        let raw = dataset_from_points(1, &[(0.0, 0.0), (1_000.0, 0.0), (2_000.0, 0.0)]);
        let published = dataset_from_points(1, &[(0.0, 0.0)]);
        let r = coverage(&raw, &published, 250.0);
        assert_eq!(r.precision, 1.0);
        assert!((r.recall - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        let d = dataset_from_points(1, &[(0.0, 0.0)]);
        let r = coverage(&Dataset::new(), &d, 100.0);
        assert_eq!(r.raw_cells, 0);
        let r = coverage(&d, &Dataset::new(), 100.0);
        assert_eq!(r.published_cells, 0);
        assert_eq!(r.precision, 1.0); // vacuous
        assert_eq!(r.recall, 0.0);
    }

    #[test]
    fn heatmap_shift_reduces_cosine() {
        // Dense cluster at origin vs the same cluster shifted two cells.
        let raw = dataset_from_points(1, &[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (900.0, 0.0)]);
        let moved =
            dataset_from_points(1, &[(500.0, 0.0), (510.0, 0.0), (520.0, 0.0), (900.0, 0.0)]);
        let r = coverage(&raw, &moved, 200.0);
        assert!(r.cosine < 0.5, "cosine {}", r.cosine);
        assert!(r.total_variation > 0.5);
    }
}
