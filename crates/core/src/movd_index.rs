//! Point location over a built MOVD: "which objects serve this location?"
//!
//! Once the MOVD Overlapper has run, the diagram is a reusable data product:
//! any location can be mapped to the OVR containing it, whose group holds
//! the weighted-nearest object of every type (Property 5). The index owns the
//! diagram in its flat [`MovdArena`] form — the same buffers the snapshot
//! store persists verbatim and the group scan streams over — plus a
//! [`LocateGrid`] over the OVR MBRs that answers probes in near-constant
//! time. It keeps no pointer-based [`Movd`]; [`MovdArena::to_movd`] rebuilds
//! one for callers (mostly tests) that want owned `Ovr` structures.

use crate::arena::{MovdArena, KIND_RECT};
use crate::locate_grid::LocateGrid;
use crate::movd::Movd;
use molq_geom::{Mbr, Point};

/// A point-location index over a built MOVD.
#[derive(Debug, Clone)]
pub struct MovdIndex {
    arena: MovdArena,
    grid: LocateGrid,
}

impl MovdIndex {
    /// Builds the index (a uniform candidate grid over the OVR MBRs),
    /// lowering the diagram into its arena and dropping it.
    pub fn build(movd: Movd) -> Self {
        let arena = MovdArena::from_movd(&movd);
        drop(movd);
        let grid = LocateGrid::build_arena(&arena);
        MovdIndex { arena, grid }
    }

    /// Reassembles an index straight from arena buffers (the snapshot-load
    /// and live-patch paths); fails when the grid references OVR ids the
    /// arena does not have.
    pub fn from_arena(arena: MovdArena, grid: LocateGrid) -> Result<Self, String> {
        if let Some(&bad) = grid.ids().iter().find(|&&id| id as usize >= arena.len()) {
            return Err(format!(
                "grid references OVR {bad} but the diagram has {}",
                arena.len()
            ));
        }
        Ok(MovdIndex { arena, grid })
    }

    /// The flat diagram buffers (single source of truth).
    pub fn arena(&self) -> &MovdArena {
        &self.arena
    }

    /// The point-location grid (exposed for snapshot serialization).
    pub fn grid(&self) -> &LocateGrid {
        &self.grid
    }

    /// Number of OVRs.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// `true` when the diagram holds no OVRs.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// The search space.
    pub fn bounds(&self) -> Mbr {
        self.arena.bounds()
    }

    /// The group of OVR `id` (one object per overlapped type).
    pub fn group(&self, id: usize) -> &[crate::object::ObjectRef] {
        self.arena.group(id)
    }

    /// Id of the OVR containing `l`, if any; its objects are
    /// [`group`](Self::group)`(id)`.
    ///
    /// For exact (RRB) MOVDs this succeeds for every location in the search
    /// space (Property 3) and the group holds the weighted-nearest objects
    /// per type. For MBRB MOVDs the candidate rectangles are false
    /// positives supersets; exact region hits are preferred over bare
    /// rectangle hits, and ties within either class are broken
    /// deterministically towards the lowest OVR id. Callers who need the
    /// true serving group under MBRB should disambiguate the full
    /// [`locate_candidate_ids`](Self::locate_candidate_ids) list by
    /// evaluating actual group cost.
    pub fn locate_id(&self, l: Point) -> Option<usize> {
        // Grid cells list candidates in ascending id order, so the first
        // exact-region hit is the lowest-id exact hit; rectangle hits only
        // matter when no exact region contains the probe.
        let mut rect_hit: Option<usize> = None;
        for &id in self.grid.candidates(l) {
            let id = id as usize;
            match self.arena.kind(id) {
                KIND_RECT => {
                    if rect_hit.is_none() && self.arena.contains(id, l) {
                        rect_hit = Some(id);
                    }
                }
                _ => {
                    if self.arena.contains(id, l) {
                        return Some(id);
                    }
                }
            }
        }
        rect_hit
    }

    /// Ids of every OVR whose region contains `l`, ascending.
    ///
    /// For exact MOVDs the list has at most one entry away from region
    /// boundaries. For MBRB MOVDs overlapping false-positive rectangles make
    /// multiple candidates common; callers disambiguate by evaluating the
    /// actual group cost of each candidate (as the server's `locate`
    /// endpoint does).
    pub fn locate_candidate_ids(&self, l: Point) -> Vec<usize> {
        self.grid
            .candidates(l)
            .iter()
            .map(|&id| id as usize)
            .filter(|&id| self.arena.contains(id, l))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectSet;
    use crate::region::Boundary;
    use crate::weights::{mwgd, wgd};
    use crate::MolqQuery;

    fn pseudo_set(name: &str, n: usize, seed: u64) -> ObjectSet {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as f64 / u32::MAX as f64
        };
        ObjectSet::uniform(
            name,
            1.0,
            (0..n)
                .map(|_| Point::new(next() * 100.0, next() * 100.0))
                .collect(),
        )
    }

    #[test]
    fn locate_returns_the_weighted_nearest_group() {
        let bounds = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let sets = vec![pseudo_set("a", 15, 1), pseudo_set("b", 20, 2)];
        let query = MolqQuery::new(sets.clone(), bounds);
        let movd = Movd::overlap_all(&sets, bounds, Boundary::Rrb).unwrap();
        let index = MovdIndex::build(movd);
        for gi in 0..30 {
            let l = Point::new(
                (gi as f64 * 7.3 + 0.2) % 100.0,
                (gi as f64 * 13.1 + 0.7) % 100.0,
            );
            let id = index.locate_id(l).expect("RRB MOVD covers the space");
            // Property 5: the OVR's group realises MWGD at l.
            let via_group = wgd(l, &query, index.group(id));
            let direct = mwgd(l, &query);
            assert!(
                (via_group - direct).abs() < 1e-9 * direct.max(1.0),
                "at {l}: group {via_group} vs direct {direct}"
            );
        }
    }

    #[test]
    fn locate_outside_bounds_is_none_for_rrb() {
        let bounds = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let sets = vec![pseudo_set("a", 5, 3)];
        let movd = Movd::overlap_all(&sets, bounds, Boundary::Rrb).unwrap();
        let index = MovdIndex::build(movd);
        assert!(index.locate_id(Point::new(500.0, 500.0)).is_none());
    }

    #[test]
    fn mbrb_locate_is_deterministic_and_candidates_are_sorted() {
        let bounds = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let sets = vec![pseudo_set("a", 12, 6), pseudo_set("b", 12, 7)];
        let movd = Movd::overlap_all(&sets, bounds, Boundary::Mbrb).unwrap();
        let index = MovdIndex::build(movd.clone());
        for gi in 0..40 {
            let l = Point::new(
                (gi as f64 * 11.7 + 0.3) % 100.0,
                (gi as f64 * 5.9 + 0.9) % 100.0,
            );
            let ids = index.locate_candidate_ids(l);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "unsorted ids {ids:?}");
            // The candidates are exactly the OVRs whose region contains the
            // probe, and the chosen OVR is the lowest-id candidate (all
            // regions are rectangles here).
            let brute: Vec<usize> = (0..movd.len())
                .filter(|&id| movd.ovrs[id].region.contains(l))
                .collect();
            assert_eq!(ids, brute);
            assert_eq!(index.locate_id(l), ids.first().copied());
        }
    }

    #[test]
    fn mbrb_locate_returns_a_candidate() {
        let bounds = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let sets = vec![pseudo_set("a", 10, 4), pseudo_set("b", 10, 5)];
        let movd = Movd::overlap_all(&sets, bounds, Boundary::Mbrb).unwrap();
        let index = MovdIndex::build(movd);
        // Every in-bounds probe hits at least one rectangle (Property 3's
        // superset form).
        for gi in 0..10 {
            let l = Point::new(gi as f64 * 9.9 + 0.5, gi as f64 * 3.3 + 0.5);
            assert!(index.locate_id(l).is_some(), "no candidate at {l}");
        }
    }

    #[test]
    fn from_arena_roundtrips_and_validates() {
        let bounds = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let sets = vec![pseudo_set("a", 9, 12), pseudo_set("b", 9, 13)];
        let movd = Movd::overlap_all(&sets, bounds, Boundary::Rrb).unwrap();
        let built = MovdIndex::build(movd.clone());
        let restored = MovdIndex::from_arena(built.arena().clone(), built.grid().clone()).unwrap();
        for gi in 0..25 {
            let l = Point::new(
                (gi as f64 * 4.3 + 0.2) % 100.0,
                (gi as f64 * 8.9 + 0.6) % 100.0,
            );
            assert_eq!(built.locate_id(l), restored.locate_id(l));
            assert_eq!(
                built.locate_candidate_ids(l),
                restored.locate_candidate_ids(l)
            );
        }
        // The arena reconstructs the built diagram bit-identically.
        assert!(crate::incr::movd_bits_eq(
            &restored.arena().to_movd(),
            &movd
        ));
        // A grid over a larger diagram is rejected for a truncated arena.
        let truncated = MovdArena::from_movd(&Movd {
            bounds,
            ovrs: movd.ovrs[..1].to_vec(),
        });
        assert!(MovdIndex::from_arena(truncated, built.grid().clone()).is_err());
    }
}
