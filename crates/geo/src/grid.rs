use std::collections::HashMap;

use crate::{GeoError, Point};

/// The integer coordinates of a grid cell.
///
/// Cells are `cell_size × cell_size` meter squares; a point `(x, y)` lives
/// in cell `(⌊x/s⌋, ⌊y/s⌋)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    /// Column index (east).
    pub cx: i64,
    /// Row index (north).
    pub cy: i64,
}

impl CellId {
    /// Creates a cell id from raw indices.
    pub const fn new(cx: i64, cy: i64) -> Self {
        CellId { cx, cy }
    }

    /// The 8 neighbouring cells plus the cell itself (Moore neighbourhood).
    pub fn neighbourhood(self) -> impl Iterator<Item = CellId> {
        (-1..=1).flat_map(move |dy| (-1..=1).map(move |dx| CellId::new(self.cx + dx, self.cy + dy)))
    }
}

/// One stored item: its location, a monotonically increasing insertion
/// sequence number (the deterministic tie-break of the nearest-item
/// queries), and the payload.
#[derive(Debug, Clone)]
struct Entry<T> {
    p: Point,
    seq: u64,
    item: T,
}

/// A uniform spatial hash over planar points.
///
/// `GridIndex` buckets inserted items by the cell containing their
/// location; [`neighbours_within`](GridIndex::neighbours_within) then only
/// has to inspect a 3×3 block of cells, which makes radius queries with
/// `radius ≤ cell_size` run in time proportional to the number of *local*
/// items instead of the whole dataset. The nearest-item queries
/// ([`nearest_neighbour`](GridIndex::nearest_neighbour),
/// [`nearest_within`](GridIndex::nearest_within),
/// [`nearest_within_by`](GridIndex::nearest_within_by)) expand square
/// rings of cells outward from the query and stop as soon as no closer
/// item can exist, clamped to the index's occupied extent so queries far
/// from the data jump straight to it.
///
/// ```
/// use mobipriv_geo::{GridIndex, Point};
/// # fn main() -> Result<(), mobipriv_geo::GeoError> {
/// let mut idx = GridIndex::new(50.0)?;
/// idx.insert(Point::new(0.0, 0.0), "a");
/// idx.insert(Point::new(10.0, 0.0), "b");
/// idx.insert(Point::new(500.0, 0.0), "c");
/// let near: Vec<_> = idx.neighbours_within(Point::new(1.0, 0.0), 20.0).collect();
/// assert_eq!(near.len(), 2);
/// let (_, nearest) = idx.nearest_neighbour(Point::new(450.0, 0.0)).unwrap();
/// assert_eq!(*nearest, "c");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex<T> {
    cell_size: f64,
    cells: HashMap<CellId, Vec<Entry<T>>>,
    len: usize,
    next_seq: u64,
    /// Conservative bounding range of the occupied cells: maintained on
    /// insert, never shrunk on remove, `None` while nothing was ever
    /// inserted. Bounds the ring expansion of the nearest-item queries.
    extent: Option<(CellId, CellId)>,
}

impl GridIndex<usize> {
    /// Bulk-builds an index over parallel coordinate columns (the
    /// struct-of-arrays layout used by `mobipriv-model`'s dataset
    /// columns): item `i` sits at `(xs[i], ys[i])`. Insertion order —
    /// and with it every order-sensitive query tie-break — is the
    /// column order, so an index built this way behaves exactly like
    /// one filled by looping [`insert`](GridIndex::insert) over the
    /// same points.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::NonPositive`] when `cell_size` is not a
    /// strictly positive finite number.
    ///
    /// # Panics
    ///
    /// Panics when the columns differ in length.
    pub fn from_xy(cell_size: f64, xs: &[f64], ys: &[f64]) -> Result<Self, GeoError> {
        assert_eq!(xs.len(), ys.len(), "coordinate columns must align");
        let mut grid = GridIndex::new(cell_size)?;
        for (i, (&x, &y)) in xs.iter().zip(ys).enumerate() {
            grid.insert(Point::new(x, y), i);
        }
        Ok(grid)
    }
}

impl<T> GridIndex<T> {
    /// Creates an index with square cells of side `cell_size` meters.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::NonPositive`] when `cell_size` is not a strictly
    /// positive finite number.
    pub fn new(cell_size: f64) -> Result<Self, GeoError> {
        if !cell_size.is_finite() || cell_size <= 0.0 {
            return Err(GeoError::NonPositive {
                what: "cell size",
                value: cell_size,
            });
        }
        Ok(GridIndex {
            cell_size,
            cells: HashMap::new(),
            len: 0,
            next_seq: 0,
            extent: None,
        })
    }

    /// The configured cell side in meters.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Number of inserted items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no item has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The cell containing `p`.
    pub fn cell_of(&self, p: Point) -> CellId {
        CellId::new(
            (p.x / self.cell_size).floor() as i64,
            (p.y / self.cell_size).floor() as i64,
        )
    }

    /// Inserts `item` at `(x, y)` — the column-slice spelling of
    /// [`insert`](GridIndex::insert) for struct-of-arrays callers.
    pub fn insert_xy(&mut self, x: f64, y: f64, item: T) {
        self.insert(Point::new(x, y), item);
    }

    /// Inserts `item` at location `p`.
    pub fn insert(&mut self, p: Point, item: T) {
        let cell = self.cell_of(p);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.cells
            .entry(cell)
            .or_default()
            .push(Entry { p, seq, item });
        self.len += 1;
        self.extent = Some(match self.extent {
            None => (cell, cell),
            Some((lo, hi)) => (
                CellId::new(lo.cx.min(cell.cx), lo.cy.min(cell.cy)),
                CellId::new(hi.cx.max(cell.cx), hi.cy.max(cell.cy)),
            ),
        });
    }

    /// Removes the first stored entry whose location equals `p` and
    /// whose item equals `item`; returns whether one was found.
    ///
    /// The remaining entries keep their relative order (and sequence
    /// numbers), so query results stay deterministic across removals.
    pub fn remove(&mut self, p: Point, item: &T) -> bool
    where
        T: PartialEq,
    {
        let cell = self.cell_of(p);
        if let Some(bucket) = self.cells.get_mut(&cell) {
            if let Some(pos) = bucket.iter().position(|e| e.p == p && e.item == *item) {
                bucket.remove(pos);
                self.len -= 1;
                return true;
            }
        }
        false
    }

    /// All items whose location is within `radius` meters of `query`
    /// (inclusive), in unspecified order.
    ///
    /// Complete only for `radius ≤ cell_size`; larger radii are handled by
    /// scanning the necessary block of cells, so correctness holds for any
    /// radius, at proportional cost.
    pub fn neighbours_within(&self, query: Point, radius: f64) -> impl Iterator<Item = &T> {
        self.entries_within(query, radius).map(|(_, item)| item)
    }

    /// Like [`neighbours_within`](GridIndex::neighbours_within) but also
    /// yields the stored locations.
    pub fn entries_within(&self, query: Point, radius: f64) -> impl Iterator<Item = (Point, &T)> {
        let r = radius.max(0.0);
        let reach = (r / self.cell_size).ceil() as i64;
        let center = self.cell_of(query);
        let r_sq = r * r;
        (-reach..=reach)
            .flat_map(move |dy| (-reach..=reach).map(move |dx| (dx, dy)))
            .filter_map(move |(dx, dy)| {
                self.cells.get(&CellId::new(center.cx + dx, center.cy + dy))
            })
            .flatten()
            .filter(move |e| e.p.distance_sq(query) <= r_sq)
            .map(|e| (e.p, &e.item))
    }

    /// The nearest stored item to `query`, or `None` on an empty index.
    ///
    /// The returned item minimizes the same [`Point::distance`] value a
    /// linear scan would compute, so distance-derived results (e.g. a
    /// chamfer sum) are bit-identical to brute force. Among equidistant
    /// items the earliest-inserted one wins.
    pub fn nearest_neighbour(&self, query: Point) -> Option<(Point, &T)> {
        self.nearest_within_by(query, f64::INFINITY, |_, _, _| Some(()))
    }

    /// The nearest stored item within `radius` meters of `query`
    /// (inclusive, same boundary rule as
    /// [`entries_within`](GridIndex::entries_within)), or `None` when no
    /// item is in range. Ties break toward the earliest-inserted item.
    pub fn nearest_within(&self, query: Point, radius: f64) -> Option<(Point, &T)> {
        self.nearest_within_by(query, radius, |_, _, _| Some(()))
    }

    /// The admissible stored item nearest to `query`, searching cells in
    /// expanding rings and pruning once no closer item can exist.
    ///
    /// `admit` receives `(distance, location, item)` — the distance is
    /// the exact [`Point::distance`] value a linear scan would see — and
    /// returns `Some(key)` to admit the candidate or `None` to reject
    /// it. Among admissible candidates the result minimizes
    /// `(distance, key, insertion order)`, which lets callers reproduce
    /// the tie-breaking of a sequential brute-force scan (pass the
    /// scan index as the key).
    pub fn nearest_within_by<K, F>(
        &self,
        query: Point,
        radius: f64,
        mut admit: F,
    ) -> Option<(Point, &T)>
    where
        K: PartialOrd,
        F: FnMut(f64, Point, &T) -> Option<K>,
    {
        let (lo, hi) = self.extent?;
        let radius = if radius.is_finite() {
            radius.max(0.0)
        } else {
            radius
        };
        let center = self.cell_of(query);
        // Rings below `start` cannot contain occupied cells; rings above
        // `last` are entirely outside the occupied extent.
        let start = chebyshev_to_box(center, lo, hi);
        let last = chebyshev_to_farthest_corner(center, lo, hi);
        let r_sq = radius.is_finite().then_some(radius * radius);
        let mut best: Option<(f64, K, u64)> = None;
        let mut found: Option<(Point, &T)> = None;
        for ring in start..=last {
            // Any point in a ring-`ring` cell is at least this far from
            // the query (which sits inside the center cell).
            let floor = (ring - 1).max(0) as f64 * self.cell_size;
            let limit = match &best {
                Some((d, _, _)) => d.min(radius),
                None => radius,
            };
            // The tiny slack absorbs the worst-case rounding of the
            // hypot-computed candidate distances.
            if floor > limit * (1.0 + 1e-12) + 1e-9 {
                break;
            }
            for_each_ring_cell(center, ring, lo, hi, |cell| {
                let Some(bucket) = self.cells.get(&cell) else {
                    return;
                };
                for e in bucket {
                    if let Some(r_sq) = r_sq {
                        if e.p.distance_sq(query) > r_sq {
                            continue;
                        }
                    }
                    let d = e.p.distance(query).get();
                    let Some(key) = admit(d, e.p, &e.item) else {
                        continue;
                    };
                    let better = match &best {
                        None => true,
                        Some((bd, bk, bseq)) => {
                            d < *bd
                                || (d == *bd
                                    && (matches!(
                                        key.partial_cmp(bk),
                                        Some(std::cmp::Ordering::Less)
                                    ) || (matches!(
                                        key.partial_cmp(bk),
                                        Some(std::cmp::Ordering::Equal)
                                    ) && e.seq < *bseq)))
                        }
                    };
                    if better {
                        best = Some((d, key, e.seq));
                        found = Some((e.p, &e.item));
                    }
                }
            });
        }
        found
    }

    /// Iterates over every `(cell, items)` bucket.
    pub fn iter_cells(&self) -> impl Iterator<Item = (CellId, impl Iterator<Item = (Point, &T)>)> {
        self.cells
            .iter()
            .map(|(id, v)| (*id, v.iter().map(|e| (e.p, &e.item))))
    }

    /// Number of non-empty cells.
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    /// Removes all items.
    pub fn clear(&mut self) {
        self.cells.clear();
        self.len = 0;
        self.extent = None;
    }
}

/// Chebyshev distance (in cells) from `c` to the box `[lo, hi]`; zero
/// when `c` is inside.
fn chebyshev_to_box(c: CellId, lo: CellId, hi: CellId) -> i64 {
    let dx = (lo.cx - c.cx).max(c.cx - hi.cx).max(0);
    let dy = (lo.cy - c.cy).max(c.cy - hi.cy).max(0);
    dx.max(dy)
}

/// Chebyshev distance (in cells) from `c` to the farthest corner of the
/// box `[lo, hi]` — the last ring that can contain an occupied cell.
fn chebyshev_to_farthest_corner(c: CellId, lo: CellId, hi: CellId) -> i64 {
    let dx = (c.cx - lo.cx).abs().max((hi.cx - c.cx).abs());
    let dy = (c.cy - lo.cy).abs().max((hi.cy - c.cy).abs());
    dx.max(dy)
}

/// Visits the cells at Chebyshev distance exactly `ring` from `c`,
/// clamped to the box `[lo, hi]`, in deterministic row-major order
/// (south to north, west to east).
fn for_each_ring_cell<F: FnMut(CellId)>(c: CellId, ring: i64, lo: CellId, hi: CellId, mut f: F) {
    for dy in -ring..=ring {
        let cy = c.cy + dy;
        if cy < lo.cy || cy > hi.cy {
            continue;
        }
        if dy.abs() == ring {
            // Full edge row.
            let from = (c.cx - ring).max(lo.cx);
            let to = (c.cx + ring).min(hi.cx);
            for cx in from..=to {
                f(CellId::new(cx, cy));
            }
        } else {
            // Interior row: only the two side cells.
            for cx in [c.cx - ring, c.cx + ring] {
                if cx >= lo.cx && cx <= hi.cx {
                    f(CellId::new(cx, cy));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_cell_size() {
        assert!(GridIndex::<u32>::new(0.0).is_err());
        assert!(GridIndex::<u32>::new(-1.0).is_err());
        assert!(GridIndex::<u32>::new(f64::NAN).is_err());
        assert!(GridIndex::<u32>::new(f64::INFINITY).is_err());
    }

    #[test]
    fn cell_of_uses_floor() {
        let idx = GridIndex::<u32>::new(10.0).unwrap();
        assert_eq!(idx.cell_of(Point::new(0.0, 0.0)), CellId::new(0, 0));
        assert_eq!(idx.cell_of(Point::new(9.9, 9.9)), CellId::new(0, 0));
        assert_eq!(idx.cell_of(Point::new(10.0, 0.0)), CellId::new(1, 0));
        assert_eq!(idx.cell_of(Point::new(-0.1, -0.1)), CellId::new(-1, -1));
    }

    #[test]
    fn radius_query_respects_boundary() {
        let mut idx = GridIndex::new(50.0).unwrap();
        idx.insert(Point::new(0.0, 0.0), 1);
        idx.insert(Point::new(30.0, 0.0), 2);
        idx.insert(Point::new(51.0, 0.0), 3);
        let mut found: Vec<i32> = idx
            .neighbours_within(Point::new(0.0, 0.0), 30.0)
            .copied()
            .collect();
        found.sort_unstable();
        assert_eq!(found, vec![1, 2]); // inclusive boundary at 30 m
    }

    #[test]
    fn query_across_cell_borders() {
        let mut idx = GridIndex::new(10.0).unwrap();
        idx.insert(Point::new(9.0, 9.0), "a");
        idx.insert(Point::new(11.0, 11.0), "b");
        // Query sits in cell (1,1) but "a" is in cell (0,0): must be found.
        let found: Vec<_> = idx.neighbours_within(Point::new(10.5, 10.5), 5.0).collect();
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn radius_larger_than_cell_is_still_complete() {
        let mut idx = GridIndex::new(10.0).unwrap();
        for i in 0..20 {
            idx.insert(Point::new(i as f64 * 10.0, 0.0), i);
        }
        let found: Vec<_> = idx.neighbours_within(Point::new(0.0, 0.0), 95.0).collect();
        assert_eq!(found.len(), 10); // items at 0..=90 m inclusive
    }

    #[test]
    fn len_and_clear() {
        let mut idx = GridIndex::new(10.0).unwrap();
        assert!(idx.is_empty());
        idx.insert(Point::new(0.0, 0.0), ());
        idx.insert(Point::new(100.0, 0.0), ());
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.occupied_cells(), 2);
        idx.clear();
        assert!(idx.is_empty());
        assert_eq!(idx.occupied_cells(), 0);
    }

    #[test]
    fn neighbourhood_has_nine_cells() {
        let cells: Vec<_> = CellId::new(0, 0).neighbourhood().collect();
        assert_eq!(cells.len(), 9);
        assert!(cells.contains(&CellId::new(-1, -1)));
        assert!(cells.contains(&CellId::new(1, 1)));
        assert!(cells.contains(&CellId::new(0, 0)));
    }

    #[test]
    fn entries_within_returns_locations() {
        let mut idx = GridIndex::new(10.0).unwrap();
        idx.insert(Point::new(1.0, 2.0), 7);
        let (p, v) = idx
            .entries_within(Point::new(0.0, 0.0), 5.0)
            .next()
            .unwrap();
        assert_eq!(p, Point::new(1.0, 2.0));
        assert_eq!(*v, 7);
    }

    #[test]
    fn negative_radius_finds_nothing() {
        let mut idx = GridIndex::new(10.0).unwrap();
        idx.insert(Point::new(0.0, 0.0), ());
        // radius clamped to 0: only exact matches
        assert_eq!(idx.neighbours_within(Point::new(0.0, 0.0), -5.0).count(), 1);
        assert_eq!(idx.neighbours_within(Point::new(1.0, 0.0), -5.0).count(), 0);
        assert!(idx.nearest_within(Point::new(0.0, 0.0), -5.0).is_some());
        assert!(idx.nearest_within(Point::new(1.0, 0.0), -5.0).is_none());
    }

    #[test]
    fn nearest_neighbour_on_empty_index_is_none() {
        let idx = GridIndex::<u32>::new(10.0).unwrap();
        assert!(idx.nearest_neighbour(Point::new(0.0, 0.0)).is_none());
    }

    #[test]
    fn nearest_neighbour_crosses_many_empty_cells() {
        let mut idx = GridIndex::new(5.0).unwrap();
        idx.insert(Point::new(10_000.0, -3_000.0), "far");
        idx.insert(Point::new(10_050.0, -3_000.0), "farther");
        // Query thousands of cells away: the search must jump straight
        // to the occupied extent.
        let (_, item) = idx.nearest_neighbour(Point::new(0.0, 0.0)).unwrap();
        assert_eq!(*item, "far");
    }

    #[test]
    fn nearest_prefers_closer_over_earlier() {
        let mut idx = GridIndex::new(50.0).unwrap();
        idx.insert(Point::new(30.0, 0.0), 1);
        idx.insert(Point::new(10.0, 0.0), 2);
        let (_, item) = idx.nearest_neighbour(Point::new(0.0, 0.0)).unwrap();
        assert_eq!(*item, 2);
    }

    #[test]
    fn equidistant_tie_breaks_to_first_inserted() {
        let mut idx = GridIndex::new(50.0).unwrap();
        idx.insert(Point::new(10.0, 0.0), "second-cell-first"); // seq 0
        idx.insert(Point::new(-10.0, 0.0), "other"); // seq 1
        let (_, item) = idx.nearest_neighbour(Point::new(0.0, 0.0)).unwrap();
        assert_eq!(*item, "second-cell-first");
    }

    #[test]
    fn nearest_within_respects_radius_boundary() {
        let mut idx = GridIndex::new(50.0).unwrap();
        idx.insert(Point::new(30.0, 0.0), 1);
        assert!(idx.nearest_within(Point::new(0.0, 0.0), 30.0).is_some());
        assert!(idx.nearest_within(Point::new(0.0, 0.0), 29.0).is_none());
    }

    #[test]
    fn nearest_within_by_key_overrides_distance_ties() {
        let mut idx = GridIndex::new(50.0).unwrap();
        idx.insert(Point::new(10.0, 0.0), 5usize); // seq 0
        idx.insert(Point::new(-10.0, 0.0), 2usize); // seq 1, same distance
        let (_, item) = idx
            .nearest_within_by(Point::new(0.0, 0.0), f64::INFINITY, |_, _, &i| Some(i))
            .unwrap();
        assert_eq!(*item, 2, "smaller key wins the distance tie");
    }

    #[test]
    fn nearest_within_by_rejecting_filter_skips_closer_items() {
        let mut idx = GridIndex::new(50.0).unwrap();
        idx.insert(Point::new(5.0, 0.0), 1);
        idx.insert(Point::new(40.0, 0.0), 2);
        let (_, item) = idx
            .nearest_within_by(Point::new(0.0, 0.0), 100.0, |_, _, &i| {
                (i != 1).then_some(())
            })
            .unwrap();
        assert_eq!(*item, 2);
    }

    #[test]
    fn remove_then_query() {
        let mut idx = GridIndex::new(10.0).unwrap();
        idx.insert(Point::new(0.0, 0.0), 1);
        idx.insert(Point::new(0.0, 0.0), 2);
        assert!(idx.remove(Point::new(0.0, 0.0), &1));
        assert!(!idx.remove(Point::new(0.0, 0.0), &1), "already removed");
        assert_eq!(idx.len(), 1);
        let (_, item) = idx.nearest_neighbour(Point::new(1.0, 0.0)).unwrap();
        assert_eq!(*item, 2);
    }

    #[test]
    fn from_xy_matches_loop_insertion() {
        let xs = [0.0, 100.0, -70.0, 12.5];
        let ys = [0.0, 35.0, 220.0, -8.0];
        let bulk = GridIndex::from_xy(40.0, &xs, &ys).unwrap();
        let mut looped = GridIndex::new(40.0).unwrap();
        for (i, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
            looped.insert_xy(x, y, i);
        }
        assert_eq!(bulk.len(), looped.len());
        let q = Point::new(5.0, 5.0);
        assert_eq!(bulk.nearest_neighbour(q), looped.nearest_neighbour(q));
        let b: Vec<&usize> = bulk.neighbours_within(q, 500.0).collect();
        let l: Vec<&usize> = looped.neighbours_within(q, 500.0).collect();
        assert_eq!(b, l);
        assert!(GridIndex::from_xy(0.0, &xs, &ys).is_err());
    }
}
