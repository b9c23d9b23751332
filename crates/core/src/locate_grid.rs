//! A flat, serializable point-location grid over a built MOVD.
//!
//! The grid partitions the search space into uniform cells and stores, per
//! cell, the ids of every OVR whose MBR overlaps it (CSR layout: one
//! `offsets` array into one flat `ids` array). A point probe is then one
//! cell lookup plus a containment filter over a short candidate list — the
//! same superset-then-filter contract an R-tree gives, but with a memory
//! layout that is trivially persistable: the snapshot store writes the four
//! raw arrays and reconstructs the grid without any rebuild work.

use crate::arena::MovdArena;
use crate::movd::Movd;
use molq_geom::{Mbr, Point};

/// Largest number of cells along one axis (bounds memory on huge diagrams).
const MAX_SIDE: u32 = 1024;

/// Most candidate ids the grid stores per OVR, on average. When OVRs are
/// much larger than a cell (e.g. the rectangles of a skewed exact build),
/// each is listed in very many cells; the build halves the side until the
/// total fits, so memory stays linear in the OVR count.
const MAX_IDS_PER_OVR: u64 = 32;

/// A uniform cell → candidate-OVR-ids index in CSR layout.
///
/// Invariants (enforced by [`LocateGrid::from_raw`]):
/// * `offsets.len() == cols * rows + 1`, starting at 0, non-decreasing,
///   ending at `ids.len()`;
/// * within one cell the ids are strictly ascending (the construction visits
///   OVRs in id order).
#[derive(Debug, Clone, PartialEq)]
pub struct LocateGrid {
    bounds: Mbr,
    cols: u32,
    rows: u32,
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl LocateGrid {
    /// Builds the grid over `movd.bounds` (falling back to the union of OVR
    /// MBRs when the diagram carries empty bounds) with roughly two cells
    /// per OVR.
    pub fn build(movd: &Movd) -> Self {
        Self::build_impl(movd.bounds, movd.ovrs.len(), |i| movd.ovrs[i].region.mbr())
    }

    /// [`LocateGrid::build`] over the arena layout — identical arrays for
    /// the same diagram (both derive per-OVR MBRs with the same bits).
    pub fn build_arena(arena: &MovdArena) -> Self {
        Self::build_impl(arena.bounds(), arena.len(), |i| arena.ovr_mbr(i))
    }

    fn build_impl(declared: Mbr, n: usize, mbr_of: impl Fn(usize) -> Mbr) -> Self {
        let mbrs: Vec<Mbr> = (0..n).map(mbr_of).collect();
        let mut bounds = declared;
        if bounds.is_empty() {
            bounds = mbrs.iter().fold(Mbr::EMPTY, |acc, m| acc.union(m));
        }
        if bounds.is_empty() || n == 0 {
            return LocateGrid {
                bounds: Mbr::EMPTY,
                cols: 0,
                rows: 0,
                offsets: vec![0],
                ids: Vec::new(),
            };
        }
        // Count memberships in u64 before allocating; halve the side while
        // they exceed the budget (a 1×1 grid lists each OVR once).
        let mut side = base_side(n);
        let (cols, rows) = loop {
            let (cols, rows) = dims(&bounds, side);
            let total: u64 = mbrs
                .iter()
                .filter_map(|m| span(&bounds, cols, rows, m))
                .map(|(cx0, cy0, cx1, cy1)| ((cx1 - cx0 + 1) * (cy1 - cy0 + 1)) as u64)
                .sum();
            if total <= id_budget(n) || side == 1 {
                break (cols, rows);
            }
            side /= 2;
        };
        let cells = (cols * rows) as usize;

        // Counting sort into CSR so every cell's id list comes out ascending
        // (OVRs are visited in id order).
        let mut counts = vec![0u32; cells];
        for m in &mbrs {
            if let Some((cx0, cy0, cx1, cy1)) = span(&bounds, cols, rows, m) {
                for cy in cy0..=cy1 {
                    for cx in cx0..=cx1 {
                        counts[cy * cols as usize + cx] += 1;
                    }
                }
            }
        }
        let mut offsets = Vec::with_capacity(cells + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut cursors: Vec<u32> = offsets[..cells].to_vec();
        let mut ids = vec![0u32; acc as usize];
        for (id, m) in mbrs.iter().enumerate() {
            let Some((cx0, cy0, cx1, cy1)) = span(&bounds, cols, rows, m) else {
                continue;
            };
            for cy in cy0..=cy1 {
                for cx in cx0..=cx1 {
                    let cell = cy * cols as usize + cx;
                    ids[cursors[cell] as usize] = id as u32;
                    cursors[cell] += 1;
                }
            }
        }
        LocateGrid {
            bounds,
            cols,
            rows,
            offsets,
            ids,
        }
    }

    /// Patches the grid in place for an updated arena, producing arrays
    /// **identical to [`LocateGrid::build_arena`]`(arena)`** without
    /// re-deriving cell ranges for surviving OVRs: per cell, surviving ids
    /// are remapped through `old_to_new` (strictly increasing over the
    /// survivors, so lists stay ascending) and merged with the
    /// freshly-computed ranges of the `inserted` ids (ascending new ids).
    ///
    /// Returns `None` when the patch cannot reproduce the built grid — the
    /// extent moved, the resolution changed with the OVR count, or the build
    /// would coarsen the grid to stay within its id budget — and the caller
    /// must fall back to a full build.
    pub fn patched_arena(
        &self,
        arena: &MovdArena,
        old_to_new: &[Option<u32>],
        inserted: &[u32],
    ) -> Option<LocateGrid> {
        let bounds = arena.bounds();
        let n = arena.len();
        let bits = |m: &Mbr| {
            [
                m.min_x.to_bits(),
                m.min_y.to_bits(),
                m.max_x.to_bits(),
                m.max_y.to_bits(),
            ]
        };
        if self.cols == 0 || self.rows == 0 || n == 0 || bounds.is_empty() {
            return None;
        }
        if bits(&bounds) != bits(&self.bounds) {
            return None;
        }
        let (cols, rows) = dims(&bounds, base_side(n));
        if cols != self.cols || rows != self.rows {
            return None;
        }
        let cells = (cols * rows) as usize;
        let spans: Vec<_> = inserted
            .iter()
            .filter_map(|&id| {
                span(&bounds, cols, rows, &arena.ovr_mbr(id as usize)).map(|r| (id, r))
            })
            .collect();
        let fresh_total: u64 = spans
            .iter()
            .map(|(_, (cx0, cy0, cx1, cy1))| ((cx1 - cx0 + 1) * (cy1 - cy0 + 1)) as u64)
            .sum();
        if fresh_total > id_budget(n) {
            return None;
        }
        let mut extra: Vec<Vec<u32>> = vec![Vec::new(); cells];
        for &(id, (cx0, cy0, cx1, cy1)) in &spans {
            for cy in cy0..=cy1 {
                for cx in cx0..=cx1 {
                    extra[cy * cols as usize + cx].push(id);
                }
            }
        }
        let mut offsets = Vec::with_capacity(cells + 1);
        let mut ids = Vec::with_capacity(self.ids.len() + inserted.len());
        offsets.push(0u32);
        for (cell, fresh_ids) in extra.iter().enumerate() {
            let old = &self.ids[self.offsets[cell] as usize..self.offsets[cell + 1] as usize];
            let mut survivors = old
                .iter()
                .filter_map(|&oid| old_to_new[oid as usize])
                .peekable();
            let mut fresh = fresh_ids.iter().copied().peekable();
            loop {
                match (survivors.peek(), fresh.peek()) {
                    (Some(&a), Some(&b)) if a < b => {
                        ids.push(a);
                        survivors.next();
                    }
                    (Some(_), Some(_)) => {
                        ids.push(*fresh.peek().expect("peeked"));
                        fresh.next();
                    }
                    (Some(&a), None) => {
                        ids.push(a);
                        survivors.next();
                    }
                    (None, Some(&b)) => {
                        ids.push(b);
                        fresh.next();
                    }
                    (None, None) => break,
                }
            }
            offsets.push(ids.len() as u32);
        }
        // A total over budget means the build coarsens (and the u32 offsets
        // above may have wrapped): decline.
        if ids.len() as u64 > id_budget(n) {
            return None;
        }
        Some(LocateGrid {
            bounds,
            cols,
            rows,
            offsets,
            ids,
        })
    }

    /// Reassembles a grid from its raw arrays (the snapshot-load path),
    /// validating the CSR invariants and that every id is below `ovr_count`.
    pub fn from_raw(
        bounds: Mbr,
        cols: u32,
        rows: u32,
        offsets: Vec<u32>,
        ids: Vec<u32>,
        ovr_count: usize,
    ) -> Result<Self, String> {
        let cells = cols as usize * rows as usize;
        if offsets.len() != cells + 1 {
            return Err(format!(
                "grid has {} offsets for {} cells (want {})",
                offsets.len(),
                cells,
                cells + 1
            ));
        }
        if offsets[0] != 0 || *offsets.last().expect("non-empty") as usize != ids.len() {
            return Err("grid offsets must start at 0 and end at ids.len()".into());
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("grid offsets must be non-decreasing".into());
        }
        if ids.iter().any(|&id| id as usize >= ovr_count) {
            return Err(format!("grid references an OVR id >= {ovr_count}"));
        }
        for w in offsets.windows(2) {
            let cell = &ids[w[0] as usize..w[1] as usize];
            if cell.windows(2).any(|c| c[0] >= c[1]) {
                return Err("grid cell ids must be strictly ascending".into());
            }
        }
        Ok(LocateGrid {
            bounds,
            cols,
            rows,
            offsets,
            ids,
        })
    }

    /// Candidate OVR ids for a point: every OVR whose MBR overlaps the cell
    /// containing `p` (clamped into the border cells), ascending. A superset
    /// of the true containers — callers filter with `Region::contains`.
    pub fn candidates(&self, p: Point) -> &[u32] {
        if self.cols == 0 || self.rows == 0 {
            return &[];
        }
        let (cx, cy) = cell_of(&self.bounds, self.cols, self.rows, p);
        let cell = cy * self.cols as usize + cx;
        let lo = self.offsets[cell] as usize;
        let hi = self.offsets[cell + 1] as usize;
        &self.ids[lo..hi]
    }

    /// The gridded extent.
    pub fn bounds(&self) -> Mbr {
        self.bounds
    }

    /// Number of columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// The CSR offsets array (`cols * rows + 1` entries).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The flat candidate-id array.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }
}

/// The uncoarsened cells per axis for `n` OVRs: roughly two cells per OVR.
fn base_side(n: usize) -> u32 {
    (((2 * n) as f64).sqrt().ceil() as u32).clamp(1, MAX_SIDE)
}

/// Columns and rows for `side` cells per axis; a degenerate axis gets one.
fn dims(bounds: &Mbr, side: u32) -> (u32, u32) {
    let cols = if bounds.width() > 0.0 { side } else { 1 };
    let rows = if bounds.height() > 0.0 { side } else { 1 };
    (cols, rows)
}

/// The id budget for `n` OVRs (offsets are `u32`, so never above that).
fn id_budget(n: usize) -> u64 {
    (MAX_IDS_PER_OVR * n as u64).min(u32::MAX as u64)
}

/// The inclusive cell range `(cx0, cy0, cx1, cy1)` an MBR overlaps, or
/// `None` for an empty MBR.
fn span(bounds: &Mbr, cols: u32, rows: u32, m: &Mbr) -> Option<(usize, usize, usize, usize)> {
    if m.is_empty() {
        return None;
    }
    let (cx0, cy0) = cell_of(bounds, cols, rows, Point::new(m.min_x, m.min_y));
    let (cx1, cy1) = cell_of(bounds, cols, rows, Point::new(m.max_x, m.max_y));
    Some((cx0, cy0, cx1, cy1))
}

/// The cell containing `p`, clamped into the grid (points outside the bounds
/// land in border cells, so coverage never depends on exact extents).
fn cell_of(bounds: &Mbr, cols: u32, rows: u32, p: Point) -> (usize, usize) {
    let fx = (p.x - bounds.min_x) / (bounds.width() / cols as f64);
    let fy = (p.y - bounds.min_y) / (bounds.height() / rows as f64);
    // NaN (degenerate axis) casts to 0; ±inf saturates and is clamped.
    let cx = (fx.floor() as isize).clamp(0, cols as isize - 1) as usize;
    let cy = (fy.floor() as isize).clamp(0, rows as isize - 1) as usize;
    (cx, cy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::movd::Ovr;
    use crate::object::ObjectRef;
    use crate::region::Region;

    fn rect_movd(bounds: Mbr, rects: &[Mbr]) -> Movd {
        Movd {
            bounds,
            ovrs: rects
                .iter()
                .map(|&m| Ovr {
                    region: Region::Rect(m),
                    pois: vec![ObjectRef { set: 0, index: 0 }],
                })
                .collect(),
        }
    }

    #[test]
    fn candidates_are_supersets_and_ascending() {
        let bounds = Mbr::new(0.0, 0.0, 10.0, 10.0);
        let rects = [
            Mbr::new(0.0, 0.0, 5.0, 5.0),
            Mbr::new(4.0, 4.0, 10.0, 10.0),
            Mbr::new(0.0, 5.0, 5.0, 10.0),
        ];
        let grid = LocateGrid::build(&rect_movd(bounds, &rects));
        for gy in 0..20 {
            for gx in 0..20 {
                let p = Point::new(gx as f64 * 0.5 + 0.1, gy as f64 * 0.5 + 0.1);
                let cand = grid.candidates(p);
                assert!(cand.windows(2).all(|w| w[0] < w[1]), "unsorted {cand:?}");
                for (id, m) in rects.iter().enumerate() {
                    if m.contains(p) {
                        assert!(cand.contains(&(id as u32)), "{p} misses rect {id}");
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_bounds_probes_clamp_into_border_cells() {
        let bounds = Mbr::new(0.0, 0.0, 10.0, 10.0);
        let grid = LocateGrid::build(&rect_movd(bounds, &[Mbr::new(0.0, 0.0, 10.0, 10.0)]));
        assert_eq!(grid.candidates(Point::new(-5.0, -5.0)), &[0]);
        assert_eq!(grid.candidates(Point::new(50.0, 50.0)), &[0]);
    }

    #[test]
    fn empty_movd_yields_empty_grid() {
        let grid = LocateGrid::build(&Movd {
            bounds: Mbr::EMPTY,
            ovrs: Vec::new(),
        });
        assert_eq!(grid.candidates(Point::new(0.0, 0.0)), &[] as &[u32]);
        assert_eq!(grid.offsets(), &[0]);
    }

    #[test]
    fn degenerate_bounds_still_locate() {
        // All regions on a vertical line: zero-width bounds.
        let bounds = Mbr::new(5.0, 0.0, 5.0, 10.0);
        let grid = LocateGrid::build(&rect_movd(
            bounds,
            &[Mbr::new(5.0, 0.0, 5.0, 6.0), Mbr::new(5.0, 6.0, 5.0, 10.0)],
        ));
        assert!(grid.candidates(Point::new(5.0, 1.0)).contains(&0));
        assert!(grid.candidates(Point::new(5.0, 9.0)).contains(&1));
    }

    #[test]
    fn from_raw_validates_invariants() {
        let b = Mbr::new(0.0, 0.0, 1.0, 1.0);
        // Good: 1x1 grid, one id.
        let g = LocateGrid::from_raw(b, 1, 1, vec![0, 1], vec![0], 1).unwrap();
        assert_eq!(g.candidates(Point::new(0.5, 0.5)), &[0]);
        // Wrong offsets length.
        assert!(LocateGrid::from_raw(b, 1, 1, vec![0], vec![], 1).is_err());
        // Offsets not ending at ids.len().
        assert!(LocateGrid::from_raw(b, 1, 1, vec![0, 2], vec![0], 1).is_err());
        // Decreasing offsets.
        assert!(LocateGrid::from_raw(b, 2, 1, vec![0, 1, 0], vec![0], 1).is_err());
        // Id out of range.
        assert!(LocateGrid::from_raw(b, 1, 1, vec![0, 1], vec![5], 1).is_err());
    }

    #[test]
    fn patched_matches_full_build() {
        let bounds = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let rects: Vec<Mbr> = (0..24)
            .map(|i| {
                let x = (i * 17 % 85) as f64;
                let y = (i * 31 % 85) as f64;
                Mbr::new(x, y, x + 12.0, y + 12.0)
            })
            .collect();
        let old = rect_movd(bounds, &rects);
        let old_grid = LocateGrid::build(&old);

        // Drop two OVRs and insert two new ones at arbitrary canonical
        // positions, keeping the total count (so the resolution holds).
        let mut new_rects: Vec<(Mbr, Option<u32>)> = rects
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 3 && *i != 20)
            .map(|(i, &m)| (m, Some(i as u32)))
            .collect();
        new_rects.insert(5, (Mbr::new(40.0, 40.0, 55.0, 60.0), None));
        new_rects.insert(11, (Mbr::new(0.0, 80.0, 30.0, 100.0), None));
        let new = rect_movd(
            bounds,
            &new_rects.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
        );

        let mut old_to_new = vec![None; old.len()];
        let mut inserted = Vec::new();
        for (new_id, (_, origin)) in new_rects.iter().enumerate() {
            match origin {
                Some(old_id) => old_to_new[*old_id as usize] = Some(new_id as u32),
                None => inserted.push(new_id as u32),
            }
        }
        let new = MovdArena::from_movd(&new);
        let patched = old_grid
            .patched_arena(&new, &old_to_new, &inserted)
            .unwrap();
        assert_eq!(patched, LocateGrid::build_arena(&new));
    }

    #[test]
    fn patched_declines_when_resolution_changes() {
        let bounds = Mbr::new(0.0, 0.0, 10.0, 10.0);
        let rects: Vec<Mbr> = (0..4)
            .map(|i| Mbr::new(i as f64, 0.0, i as f64 + 1.0, 10.0))
            .collect();
        let old = rect_movd(bounds, &rects);
        let grid = LocateGrid::build(&old);
        // Doubling the OVR count moves `ceil(sqrt(2n))`: patch must decline.
        let many: Vec<Mbr> = (0..16)
            .map(|i| Mbr::new(0.0, i as f64 * 0.5, 10.0, i as f64 * 0.5 + 1.0))
            .collect();
        let new = MovdArena::from_movd(&rect_movd(bounds, &many));
        let old_to_new: Vec<Option<u32>> = (0..4).map(|i| Some(i as u32)).collect();
        let inserted: Vec<u32> = (4..16).collect();
        assert!(grid.patched_arena(&new, &old_to_new, &inserted).is_none());
    }

    #[test]
    fn large_overlapping_regions_coarsen_instead_of_overflowing() {
        // Every OVR spans the whole domain: at the base side each would be
        // listed in every cell (n · 2n ids). The build must halve the side
        // until the ids fit the per-OVR budget.
        let bounds = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let n = 3000;
        let rects: Vec<Mbr> = (0..n)
            .map(|i| {
                let d = (i % 7) as f64 * 0.1;
                Mbr::new(d, d, 100.0 - d, 100.0 - d)
            })
            .collect();
        let arena = MovdArena::from_movd(&rect_movd(bounds, &rects));
        let grid = LocateGrid::build_arena(&arena);
        assert!(grid.ids().len() as u64 <= MAX_IDS_PER_OVR * n as u64);
        assert!(grid.cols() < base_side(n), "grid was not coarsened");
        for gi in 0..50 {
            let p = Point::new(gi as f64 * 2.0 + 0.3, (gi * 37 % 100) as f64 + 0.4);
            let cand = grid.candidates(p);
            assert!(cand.windows(2).all(|w| w[0] < w[1]), "unsorted {cand:?}");
            for (id, m) in rects.iter().enumerate() {
                if m.contains(p) {
                    assert!(cand.contains(&(id as u32)), "{p} misses rect {id}");
                }
            }
        }
        // A coarsened grid never patches: the rebuild decides the side.
        let same: Vec<Option<u32>> = (0..n as u32).map(Some).collect();
        assert!(grid.patched_arena(&arena, &same, &[]).is_none());
    }

    #[test]
    fn roundtrips_through_raw_arrays() {
        let bounds = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let rects: Vec<Mbr> = (0..17)
            .map(|i| {
                let x = (i * 13 % 90) as f64;
                let y = (i * 29 % 90) as f64;
                Mbr::new(x, y, x + 10.0, y + 10.0)
            })
            .collect();
        let movd = rect_movd(bounds, &rects);
        let grid = LocateGrid::build(&movd);
        let rebuilt = LocateGrid::from_raw(
            grid.bounds(),
            grid.cols(),
            grid.rows(),
            grid.offsets().to_vec(),
            grid.ids().to_vec(),
            movd.len(),
        )
        .unwrap();
        assert_eq!(grid, rebuilt);
    }
}
