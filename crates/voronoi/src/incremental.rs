//! Incrementally maintained ordinary Voronoi diagrams, bit-identical to a
//! from-scratch [`OrdinaryVoronoi`] build after every update.
//!
//! `OrdinaryVoronoi::cell_of_site` computes each cell as a pure function
//! of the site set (through kd-tree nearest-neighbour queries), so any cell
//! may be recomputed in isolation. The trick is knowing which cells an
//! insert or remove can possibly change *without* recomputing all of them.
//! [`IncrementalVoronoi`] records, per cell, the construction's **query
//! trace**:
//!
//! * an *influence disk* per query — the query answer is provably unchanged
//!   by any new site strictly outside the disk;
//! * the *answer ids* — the sites the queries returned; removing any other
//!   site leaves every answer (and the certify loop's control flow) intact.
//!
//! By induction over the construction, a cell whose trace is untouched by
//! an update replays the exact same clip sequence and reproduces the exact
//! same polygon bits — so the old polygon is reused as-is. Everything bits
//! could depend on but the trace cannot vouch for (exact distance ties,
//! whose winner is decided by kd-tree shape rather than geometry; seed
//! lists covering the whole site set) is recorded as an infinite disk,
//! forcing recomputation of that cell on every update.
//!
//! Updates therefore cost one kd-tree rebuild plus a handful of cell
//! recomputations — typically well under a millisecond against the tens of
//! milliseconds of a full rebuild — while remaining *provably* equal, bit
//! for bit, to `OrdinaryVoronoi::build` over the updated site list.

use crate::ordinary::{OrdinaryVoronoi, TraceSink, VoronoiError};
use molq_geom::{ConvexPolygon, Mbr, Point};
use molq_index::KdTree;

/// The recorded query trace of one cell's construction.
#[derive(Debug, Clone, Default)]
struct CellTrace {
    /// `(center, radius_sq)`: a new site at `q` can only perturb this cell
    /// if `d²(q, center) <= radius_sq` for some disk. `INFINITY` marks the
    /// cell as unconditionally suspect.
    disks: Vec<(Point, f64)>,
    /// Site ids some query answered with: removing any of them invalidates
    /// the recorded construction.
    answers: Vec<u32>,
}

impl TraceSink for CellTrace {
    fn disk(&mut self, center: Point, radius_sq: f64) {
        self.disks.push((center, radius_sq));
    }

    fn answer(&mut self, id: usize) {
        let id = id as u32;
        if !self.answers.contains(&id) {
            self.answers.push(id);
        }
    }
}

impl CellTrace {
    /// Could a new site at `q` change any recorded query answer?
    fn hit_by(&self, q: Point) -> bool {
        self.disks.iter().any(|&(c, r_sq)| q.dist_sq(c) <= r_sq)
    }

    /// Did any recorded query answer with site `d`?
    fn answered_by(&self, d: usize) -> bool {
        self.answers.contains(&(d as u32))
    }

    /// `true` when some recorded query hit an exact distance tie: its answer
    /// is decided by kd-tree shape, and *any* change of the site set
    /// rebuilds the tree, so the cell must be recomputed every time.
    fn tree_shape_dependent(&self) -> bool {
        self.disks.iter().any(|&(_, r_sq)| r_sq == f64::INFINITY)
    }

    /// Rewrites answer ids after site `d` was removed (later ids shift
    /// down). Only valid for traces that never answered with `d`.
    fn shift_answers_past(&mut self, d: usize) {
        for id in &mut self.answers {
            debug_assert_ne!(*id as usize, d);
            if *id as usize > d {
                *id -= 1;
            }
        }
    }
}

/// An ordinary Voronoi diagram that applies single-site inserts and removes
/// in place, maintaining cells bit-identical to a from-scratch
/// [`OrdinaryVoronoi::build`] over the current site list (see the module
/// docs for the argument).
#[derive(Debug, Clone)]
pub struct IncrementalVoronoi {
    sites: Vec<Point>,
    bounds: Mbr,
    cells: Vec<ConvexPolygon>,
    traces: Vec<CellTrace>,
    tree: KdTree,
}

impl IncrementalVoronoi {
    /// Builds the diagram with recorded traces on `threads` workers. Cell
    /// output is identical to [`OrdinaryVoronoi::build_parallel`].
    pub fn build(sites: &[Point], bounds: Mbr, threads: usize) -> Result<Self, VoronoiError> {
        assert!(threads >= 1);
        let vd = OrdinaryVoronoi::validate_inputs(sites, bounds)?;
        let n = sites.len();
        let tree = &vd.tree;
        let cell_range = |lo: usize, hi: usize| {
            let mut cells = Vec::with_capacity(hi - lo);
            let mut traces = Vec::with_capacity(hi - lo);
            for i in lo..hi {
                let mut trace = CellTrace::default();
                let (c, _) =
                    OrdinaryVoronoi::cell_of_site(tree, sites, i, sites[i], &bounds, &mut trace);
                cells.push(c);
                traces.push(trace);
            }
            (cells, traces)
        };
        let mut cells = Vec::with_capacity(n);
        let mut traces = Vec::with_capacity(n);
        if threads == 1 || n < 256 {
            let (c, t) = cell_range(0, n);
            cells = c;
            traces = t;
        } else {
            let chunk = n.div_ceil(threads);
            let results: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let lo = (t * chunk).min(n);
                        let hi = ((t + 1) * chunk).min(n);
                        let cell_range = &cell_range;
                        scope.spawn(move || cell_range(lo, hi))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            });
            for (c, t) in results {
                cells.extend(c);
                traces.extend(t);
            }
        }
        Ok(IncrementalVoronoi {
            sites: vd.sites,
            bounds,
            cells,
            traces,
            tree: vd.tree,
        })
    }

    /// The sites, in input order.
    pub fn sites(&self) -> &[Point] {
        &self.sites
    }

    /// Number of sites (= number of cells).
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` when the diagram has no sites (never: construction rejects it).
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The search-space rectangle.
    pub fn bounds(&self) -> &Mbr {
        &self.bounds
    }

    /// The cell of site `i`.
    pub fn cell(&self, i: usize) -> &ConvexPolygon {
        &self.cells[i]
    }

    /// All cells, indexed by site.
    pub fn cells(&self) -> &[ConvexPolygon] {
        &self.cells
    }

    /// Appends a site (its index becomes `len()`), recomputing exactly the
    /// cells whose recorded traces the new site can touch. Rejects a site
    /// duplicating existing coordinates, like the from-scratch build.
    pub fn insert(&mut self, p: Point) -> Result<(), VoronoiError> {
        if let Some((q, j)) = self.tree.nearest(p) {
            if q.dist_sq(p) == 0.0 {
                return Err(VoronoiError::DuplicateSites(j, self.sites.len()));
            }
        }
        let suspects: Vec<usize> = (0..self.cells.len())
            .filter(|&i| self.traces[i].hit_by(p))
            .collect();
        self.sites.push(p);
        self.tree = KdTree::from_points(&self.sites);
        self.recompute(&suspects);
        let (cell, trace) = self.compute_cell(self.sites.len() - 1);
        self.cells.push(cell);
        self.traces.push(trace);
        Ok(())
    }

    /// Removes site `d` (later sites shift down by one), recomputing exactly
    /// the cells whose recorded constructions involved it.
    pub fn remove(&mut self, d: usize) -> Result<(), VoronoiError> {
        if d >= self.sites.len() {
            return Err(VoronoiError::NoSites);
        }
        if self.sites.len() == 1 {
            return Err(VoronoiError::NoSites);
        }
        let suspects: Vec<usize> = (0..self.cells.len())
            .filter(|&i| {
                i != d && (self.traces[i].answered_by(d) || self.traces[i].tree_shape_dependent())
            })
            // Post-removal numbering, in which the recompute runs.
            .map(|i| if i > d { i - 1 } else { i })
            .collect();
        self.sites.remove(d);
        self.cells.remove(d);
        self.traces.remove(d);
        for &i in &suspects {
            // About to be recomputed; dropping the stale trace now keeps the
            // shift below free of the removed id.
            self.traces[i] = CellTrace::default();
        }
        for trace in &mut self.traces {
            trace.shift_answers_past(d);
        }
        self.tree = KdTree::from_points(&self.sites);
        self.recompute(&suspects);
        Ok(())
    }

    fn compute_cell(&self, i: usize) -> (ConvexPolygon, CellTrace) {
        let mut trace = CellTrace::default();
        let (cell, _) = OrdinaryVoronoi::cell_of_site(
            &self.tree,
            &self.sites,
            i,
            self.sites[i],
            &self.bounds,
            &mut trace,
        );
        (cell, trace)
    }

    fn recompute(&mut self, suspects: &[usize]) {
        for &i in suspects {
            let (cell, trace) = self.compute_cell(i);
            self.cells[i] = cell;
            self.traces[i] = trace;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_points(n: usize, seed: u64, extent: f64) -> Vec<Point> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as f64 / u32::MAX as f64
        };
        (0..n)
            .map(|_| Point::new(next() * extent, next() * extent))
            .collect()
    }

    fn polys_bits_eq(a: &ConvexPolygon, b: &ConvexPolygon) -> bool {
        a.vertices().len() == b.vertices().len()
            && a.vertices()
                .iter()
                .zip(b.vertices())
                .all(|(p, q)| p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits())
    }

    /// Every cell must match a from-scratch build, bit for bit.
    fn assert_matches_scratch(ivd: &IncrementalVoronoi) {
        let scratch = OrdinaryVoronoi::build(ivd.sites(), *ivd.bounds()).unwrap();
        assert_eq!(ivd.len(), scratch.len());
        for i in 0..ivd.len() {
            assert!(
                polys_bits_eq(ivd.cell(i), scratch.cell(i)),
                "cell {i} diverged from the scratch build"
            );
        }
    }

    #[test]
    fn build_matches_plain_build() {
        let b = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let pts = pseudo_points(300, 9, 100.0);
        let ivd = IncrementalVoronoi::build(&pts, b, 1).unwrap();
        let par = IncrementalVoronoi::build(&pts, b, 4).unwrap();
        assert_matches_scratch(&ivd);
        for i in 0..ivd.len() {
            assert!(polys_bits_eq(ivd.cell(i), par.cell(i)), "cell {i}");
        }
    }

    #[test]
    fn interleaved_updates_match_scratch() {
        let b = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let pts = pseudo_points(120, 31, 100.0);
        let mut ivd = IncrementalVoronoi::build(&pts, b, 1).unwrap();
        let extra = pseudo_points(12, 77, 100.0);
        for (k, &p) in extra.iter().enumerate() {
            if k % 3 == 2 {
                ivd.remove((k * 53) % ivd.len()).unwrap();
            } else {
                ivd.insert(p).unwrap();
            }
            assert_matches_scratch(&ivd);
        }
    }

    #[test]
    fn grid_sites_with_exact_ties_stay_identical() {
        // A lattice maximizes exact distance ties — the case the infinite
        // disks exist for.
        let b = Mbr::new(0.0, 0.0, 8.0, 8.0);
        let mut pts = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                pts.push(Point::new(0.5 + i as f64, 0.5 + j as f64));
            }
        }
        let mut ivd = IncrementalVoronoi::build(&pts, b, 1).unwrap();
        assert_matches_scratch(&ivd);
        ivd.insert(Point::new(3.25, 3.75)).unwrap();
        assert_matches_scratch(&ivd);
        ivd.remove(27).unwrap();
        assert_matches_scratch(&ivd);
        ivd.remove(0).unwrap();
        assert_matches_scratch(&ivd);
    }

    #[test]
    fn duplicate_insert_is_rejected_without_corruption() {
        let b = Mbr::new(0.0, 0.0, 10.0, 10.0);
        let pts = pseudo_points(20, 3, 10.0);
        let mut ivd = IncrementalVoronoi::build(&pts, b, 1).unwrap();
        let err = ivd.insert(pts[7]).unwrap_err();
        assert_eq!(err, VoronoiError::DuplicateSites(7, 20));
        assert_eq!(ivd.len(), 20);
        assert_matches_scratch(&ivd);
    }

    #[test]
    fn shrinks_to_two_sites_and_refuses_the_last() {
        let b = Mbr::new(0.0, 0.0, 10.0, 10.0);
        let pts = pseudo_points(4, 15, 10.0);
        let mut ivd = IncrementalVoronoi::build(&pts, b, 1).unwrap();
        ivd.remove(3).unwrap();
        ivd.remove(0).unwrap();
        assert_matches_scratch(&ivd);
        assert_eq!(ivd.len(), 2);
        ivd.remove(1).unwrap();
        assert_eq!(ivd.len(), 1);
        assert!(ivd.remove(0).is_err());
        assert!(ivd.remove(5).is_err());
    }
}
