//! Live MOVD maintenance: single-object insert/delete without a full
//! rebuild.
//!
//! A built MOVD is a pure function of the object sets: every OVR is the
//! intersection of one *chain* of basic-diagram cells (one cell per set,
//! identified by the OVR's `pois`), folded in set order by the ⊕ sweep.
//! Inserting or deleting one object only perturbs its own layer — cells of
//! the other layers are untouched — and within that layer only a bounded
//! neighbourhood of cells actually moves. [`LiveMovd`] exploits this:
//!
//! 1. patch the updated layer's basic diagram: uniform-weight layers keep
//!    an [`IncrementalVoronoi`] that re-clips only the cells the update can
//!    touch while staying bit-identical to the from-scratch build; weighted
//!    layers fall back to the exact from-scratch path
//!    ([`Movd::basic_with`]);
//! 2. bitwise-diff the old and new layer cells (raw IEEE-754 bits, the
//!    identity `molq-store` persists) to find the cells that moved;
//! 3. keep every OVR whose chain avoids the moved cells (their regions
//!    cannot have changed), re-derive only the chains through moved cells by
//!    replaying the ⊕ fold — [`fold_step`] reproduces the sweep's
//!    intersection *argument order*, which matters bitwise for
//!    convex–convex clips;
//! 4. splice kept + re-derived OVRs back into canonical order
//!    ([`Movd::canonicalize`]) and patch the locate grid in place
//!    ([`LocateGrid::patched_arena`]).
//!
//! The invariant, checked by this module's tests and the store-level
//! proptests: **a patched [`LiveMovd`] is byte-identical to a from-scratch
//! rebuild of the same object sets** — same OVR order, same region bits,
//! same grid arrays.

use crate::arena::{MovdArena, PatchEntry};
use crate::error::MolqError;
use crate::exec::ExecConfig;
use crate::locate_grid::LocateGrid;
use crate::movd::{Movd, Ovr};
use crate::movd_index::MovdIndex;
use crate::object::{ObjectRef, ObjectSet, SpatialObject};
use crate::region::{Boundary, Region};
use molq_geom::Mbr;
use molq_voronoi::IncrementalVoronoi;
use std::cmp::Ordering;
use std::time::{Duration, Instant};

/// One live update to an object set.
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    /// Insert `object` at the end of set `set` (its index becomes the set's
    /// previous length).
    Insert {
        /// Index of the target object set.
        set: usize,
        /// The object to insert.
        object: SpatialObject,
    },
    /// Remove the object at `index` from set `set`; later objects shift down
    /// by one.
    Remove {
        /// Index of the target object set.
        set: usize,
        /// Index of the object to remove.
        index: usize,
    },
}

/// What one applied update did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchStats {
    /// Basic-diagram cells of the updated layer whose bits changed (the
    /// cells whose chains were re-clipped).
    pub cells_reclipped: usize,
    /// OVRs carried over untouched (their chains avoid every moved cell).
    pub ovrs_kept: usize,
    /// OVRs re-derived by replaying the ⊕ fold over moved cells.
    pub ovrs_rederived: usize,
    /// `true` when the locate grid was patched in place; `false` when the
    /// grid resolution changed and it was rebuilt from scratch.
    pub grid_patched: bool,
    /// Contiguous old-arena segments bulk-copied into the patched arena
    /// (adjacent kept OVRs coalesce into one segment; fewer segments =
    /// cheaper copy-on-write).
    pub segments_copied: usize,
    /// Wall time of the whole patch.
    pub wall: Duration,
}

/// A built MOVD that accepts live single-object updates.
///
/// Holds the object sets, the per-set basic diagrams (the ⊕ operands), and
/// the canonical overlapped diagram with its locate grid. All state is kept
/// mutually consistent by [`LiveMovd::apply`]; failed updates leave the
/// state untouched.
#[derive(Debug, Clone)]
pub struct LiveMovd {
    sets: Vec<ObjectSet>,
    bounds: Mbr,
    mode: Boundary,
    exec: ExecConfig,
    layers: Vec<Movd>,
    /// Per set: the incrementally maintained ordinary diagram behind
    /// `layers[k]` when the set has uniform object weights; `None` for
    /// weighted sets, whose layers rebuild from scratch on every update.
    ivds: Vec<Option<IncrementalVoronoi>>,
    index: MovdIndex,
}

impl LiveMovd {
    /// Builds from scratch: basic diagrams, the ⊕ fold, the canonical order,
    /// and the locate grid — bit-identical to
    /// [`Movd::overlap_all_with`] + [`MovdIndex::build`].
    pub fn build(
        sets: Vec<ObjectSet>,
        bounds: Mbr,
        mode: Boundary,
        exec: ExecConfig,
    ) -> Result<Self, MolqError> {
        let mut layers = Vec::with_capacity(sets.len());
        let mut ivds = Vec::with_capacity(sets.len());
        let mut acc = Movd::identity(bounds);
        for (i, set) in sets.iter().enumerate() {
            let (basic, ivd) = layer_and_ivd(set, i, bounds, exec)?;
            acc = acc.overlap_with(&basic, mode, exec);
            layers.push(basic);
            ivds.push(ivd);
        }
        acc.canonicalize();
        let index = MovdIndex::build(acc);
        Ok(LiveMovd {
            sets,
            bounds,
            mode,
            exec,
            layers,
            ivds,
            index,
        })
    }

    /// Rehydrates from an already-built index (the snapshot-restore path):
    /// only the per-set basic diagrams are rebuilt — no ⊕ folds. An index in
    /// pre-canonical (sweep) order is normalized first, so diagrams saved by
    /// older builds still patch correctly.
    pub fn from_index(
        sets: Vec<ObjectSet>,
        index: MovdIndex,
        mode: Boundary,
        exec: ExecConfig,
    ) -> Result<Self, MolqError> {
        let bounds = index.bounds();
        let mut layers = Vec::with_capacity(sets.len());
        let mut ivds = Vec::with_capacity(sets.len());
        for (i, set) in sets.iter().enumerate() {
            let (basic, ivd) = layer_and_ivd(set, i, bounds, exec)?;
            layers.push(basic);
            ivds.push(ivd);
        }
        let canonical = (1..index.len()).all(|i| index.group(i - 1) <= index.group(i));
        let index = if canonical {
            index
        } else {
            let mut movd = index.arena().to_movd();
            movd.canonicalize();
            MovdIndex::build(movd)
        };
        Ok(LiveMovd {
            sets,
            bounds,
            mode,
            exec,
            layers,
            ivds,
            index,
        })
    }

    /// The current object sets.
    pub fn sets(&self) -> &[ObjectSet] {
        &self.sets
    }

    /// The search space.
    pub fn bounds(&self) -> Mbr {
        self.bounds
    }

    /// The boundary mode the diagram is maintained under.
    pub fn mode(&self) -> Boundary {
        self.mode
    }

    /// The execution configuration layer rebuilds run with.
    pub fn exec(&self) -> ExecConfig {
        self.exec
    }

    /// The point-location index over the canonical diagram (which it owns
    /// in arena form).
    pub fn index(&self) -> &MovdIndex {
        &self.index
    }

    /// The basic diagram of set `k` (one ⊕ operand).
    pub fn layer(&self, k: usize) -> &Movd {
        &self.layers[k]
    }

    /// Applies one update in place. On error (invalid set/index/object,
    /// duplicate coordinates, removing a set's last object) nothing changes.
    pub fn apply(&mut self, update: &Update) -> Result<PatchStats, MolqError> {
        let t0 = Instant::now();
        let (s, new_set, removed) = self.validated_new_set(update)?;

        // 1. The updated layer. A uniform-weight layer patches its
        //    incremental diagram (re-clipping only the cells the update can
        //    touch); anything else rebuilds through the from-scratch path.
        //    Both produce the exact bits `Movd::basic_with` would.
        //
        //    The diagram is taken out and mutated directly — its update
        //    checks all precede mutation, so putting it back on error
        //    restores the old state without paying a clone per patch.
        let (new_layer, new_ivd) = match (self.ivds[s].take(), new_set.has_uniform_object_weights())
        {
            (Some(mut ivd), true) => {
                let patched = match removed {
                    None => ivd.insert(new_set.objects.last().unwrap().loc),
                    Some(d) => ivd.remove(d),
                };
                if let Err(e) = patched {
                    self.ivds[s] = Some(ivd);
                    return Err(e.into());
                }
                (layer_from_ivd(&ivd, s), Some(ivd))
            }
            (old, _) => {
                self.ivds[s] = old;
                layer_and_ivd(&new_set, s, self.bounds, self.exec)?
            }
        };

        // 2. Bitwise diff under the index remap. Cell regions are keyed by
        //    site index; a removal shifts every later site down by one.
        let old_cells = cell_regions(&self.layers[s]);
        let new_cells = cell_regions(&new_layer);
        let old_len = self.sets[s].objects.len();
        // old site index -> new site index (None = the removed site).
        let old_to_new_site = |i: usize| -> Option<usize> {
            match removed {
                None => Some(i),
                Some(d) if i == d => None,
                Some(d) if i > d => Some(i - 1),
                Some(_) => Some(i),
            }
        };
        let mut moved: Vec<bool> = vec![false; new_set.objects.len()];
        for (j, new_region) in new_cells.iter().enumerate() {
            // The new site an insert appends has no old counterpart.
            let old_region = back_map(j, removed, old_len).and_then(|i| old_cells[i].as_ref());
            moved[j] = match (old_region, new_region) {
                (None, None) => false,
                (Some(a), Some(b)) => !region_bits_eq(a, b),
                _ => true,
            };
        }

        // 3. Re-derive the chains through every moved cell, sorted into
        //    canonical order (the keys are ready for the merge below).
        let moved_cells: Vec<usize> = (0..moved.len())
            .filter(|&j| moved[j] && new_cells[j].is_some())
            .collect();
        let cells_reclipped = moved.iter().filter(|&&m| m).count();
        let mut derived = Vec::new();
        for &j in &moved_cells {
            self.derive_chains(s, j, &new_layer, &mut derived);
        }
        let ovrs_rederived = derived.len();
        derived.sort_by(|a, b| a.pois.cmp(&b.pois));

        // 4. Keep OVRs whose layer-s cell kept its bits; drop chains through
        //    moved cells (re-derived above) or the removed site. Kept OVRs
        //    are a subsequence of the old canonical order and the site remap
        //    is strictly monotone, so merging the kept run with the sorted
        //    derived run — chain keys are unique — lands everything in
        //    canonical order without a full sort. The old index stays in
        //    place and is only *read*: kept geometry is bulk-copied out of
        //    its arena by the patch below, never re-encoded.
        let old_arena = self.index.arena();
        let old_ovr_count = old_arena.len();
        let mut entries: Vec<PatchEntry> = Vec::with_capacity(old_ovr_count + derived.len());
        let mut derived = derived.into_iter().peekable();
        let mut ovrs_kept = 0usize;
        for old_id in 0..old_ovr_count {
            let group = old_arena.group(old_id);
            let slot = group
                .iter()
                .position(|p| p.set == s)
                .expect("every OVR chain has one cell per set");
            let Some(j) = old_to_new_site(group[slot].index) else {
                continue; // chain through the removed site
            };
            if moved[j] {
                continue; // chain through a moved cell: re-derived above
            }
            let mut pois = group.to_vec();
            pois[slot].index = j;
            while derived.peek().is_some_and(|d| d.pois < pois) {
                entries.push(PatchEntry::New(derived.next().unwrap()));
            }
            entries.push(PatchEntry::Kept {
                old_id: old_id as u32,
                pois,
            });
            ovrs_kept += 1;
        }
        entries.extend(derived.map(PatchEntry::New));

        // 5. Canonical ids, copy-on-write arena, in-place grid patch.
        let mut old_to_new_id: Vec<Option<u32>> = vec![None; old_ovr_count];
        let mut inserted = Vec::new();
        for (new_id, entry) in entries.iter().enumerate() {
            match entry {
                PatchEntry::Kept { old_id, .. } => {
                    old_to_new_id[*old_id as usize] = Some(new_id as u32)
                }
                PatchEntry::New(_) => inserted.push(new_id as u32),
            }
        }
        let (arena, segments_copied) = MovdArena::from_patch(old_arena, self.bounds, &entries);
        let (grid, grid_patched) =
            match self
                .index
                .grid()
                .patched_arena(&arena, &old_to_new_id, &inserted)
            {
                Some(g) => (g, true),
                None => (LocateGrid::build_arena(&arena), false),
            };
        // Both grid arms reference only ids of `arena` by construction.
        let index = MovdIndex::from_arena(arena, grid)
            .expect("patched grid ids are in range by construction");

        self.sets[s] = new_set;
        self.layers[s] = new_layer;
        self.ivds[s] = new_ivd;
        self.index = index;
        Ok(PatchStats {
            cells_reclipped,
            ovrs_kept,
            ovrs_rederived,
            grid_patched,
            segments_copied,
            wall: t0.elapsed(),
        })
    }

    /// Validates `update` and produces the would-be new object set without
    /// touching `self`. Returns `(set index, new set, removed index)`.
    fn validated_new_set(
        &self,
        update: &Update,
    ) -> Result<(usize, ObjectSet, Option<usize>), MolqError> {
        let check_set = |s: usize| -> Result<(), MolqError> {
            if s >= self.sets.len() {
                return Err(MolqError::InvalidQuery(format!(
                    "set {s} out of range ({} sets)",
                    self.sets.len()
                )));
            }
            Ok(())
        };
        match update {
            Update::Insert { set, object } => {
                check_set(*set)?;
                if !object.loc.x.is_finite() || !object.loc.y.is_finite() {
                    return Err(MolqError::InvalidQuery(format!(
                        "object location {} is not finite",
                        object.loc
                    )));
                }
                if !(object.w_t.is_finite() && object.w_t > 0.0) {
                    return Err(MolqError::InvalidQuery(format!(
                        "type weight {} must be positive and finite",
                        object.w_t
                    )));
                }
                if !(object.w_o.is_finite() && object.w_o > 0.0) {
                    return Err(MolqError::InvalidQuery(format!(
                        "object weight {} must be positive and finite",
                        object.w_o
                    )));
                }
                let mut new_set = self.sets[*set].clone();
                new_set.objects.push(*object);
                Ok((*set, new_set, None))
            }
            Update::Remove { set, index } => {
                check_set(*set)?;
                let n = self.sets[*set].objects.len();
                if *index >= n {
                    return Err(MolqError::InvalidQuery(format!(
                        "object {index} out of range (set has {n} objects)"
                    )));
                }
                if n == 1 {
                    return Err(MolqError::InvalidQuery(
                        "cannot remove the last object of a set".into(),
                    ));
                }
                let mut new_set = self.sets[*set].clone();
                new_set.objects.remove(*index);
                Ok((*set, new_set, Some(*index)))
            }
        }
    }

    /// Replays the ⊕ fold for every chain through cell `cell` of layer `s`
    /// (taken from `new_layer`), appending the surviving OVRs to `out`.
    ///
    /// Candidate cells of the other layers are prefiltered to those whose
    /// MBR closed-overlaps the moved cell's MBR — the sweep pairs regions
    /// under exactly that predicate, so no surviving chain is missed.
    fn derive_chains(&self, s: usize, cell: usize, new_layer: &Movd, out: &mut Vec<Ovr>) {
        let cell_ovr = new_layer
            .ovrs
            .iter()
            .find(|o| o.pois[0].index == cell)
            .expect("moved cell is present in the new layer");
        let cell_mbr = cell_ovr.region.mbr();
        // Per layer: the candidate cells (layer s has exactly one).
        let candidates: Vec<Vec<&Ovr>> = (0..self.sets.len())
            .map(|k| {
                if k == s {
                    vec![cell_ovr]
                } else {
                    self.layers[k]
                        .ovrs
                        .iter()
                        .filter(|o| mbrs_closed_overlap(&o.region.mbr(), &cell_mbr))
                        .collect()
                }
            })
            .collect();
        let mut pois = Vec::with_capacity(self.sets.len());
        self.dfs(&candidates, 0, &Region::Rect(self.bounds), &mut pois, out);
    }

    fn dfs(
        &self,
        candidates: &[Vec<&Ovr>],
        k: usize,
        acc: &Region,
        pois: &mut Vec<ObjectRef>,
        out: &mut Vec<Ovr>,
    ) {
        if k == candidates.len() {
            out.push(Ovr {
                region: acc.clone(),
                pois: pois.clone(),
            });
            return;
        }
        for cell in &candidates[k] {
            if let Some(next) = fold_step(acc, &cell.region, self.mode) {
                pois.push(cell.pois[0]);
                self.dfs(candidates, k + 1, &next, pois, out);
                pois.pop();
            }
        }
    }
}

/// Builds set `s`'s basic layer together with its incremental diagram when
/// the set has uniform object weights (the diagram is then ordinary), or via
/// the weighted from-scratch path otherwise. The layer's bits equal
/// [`Movd::basic_with`]'s in both arms.
fn layer_and_ivd(
    set: &ObjectSet,
    s: usize,
    bounds: Mbr,
    exec: ExecConfig,
) -> Result<(Movd, Option<IncrementalVoronoi>), MolqError> {
    if set.has_uniform_object_weights() {
        let sites: Vec<_> = set.objects.iter().map(|o| o.loc).collect();
        let ivd = IncrementalVoronoi::build(&sites, bounds, exec.threads)?;
        let layer = layer_from_ivd(&ivd, s);
        Ok((layer, Some(ivd)))
    } else {
        Ok((Movd::basic_with(set, s, bounds, exec)?, None))
    }
}

/// The basic-layer [`Movd`] view of an incremental diagram — the same
/// non-empty-cell filter and `Region::Convex` wrapping as
/// [`Movd::basic_with`]'s ordinary arm, over bit-identical cells.
fn layer_from_ivd(ivd: &IncrementalVoronoi, set_index: usize) -> Movd {
    let ovrs = (0..ivd.len())
        .filter(|&i| !ivd.cell(i).is_empty())
        .map(|i| Ovr {
            region: Region::Convex(ivd.cell(i).clone()),
            pois: vec![ObjectRef {
                set: set_index,
                index: i,
            }],
        })
        .collect();
    Movd {
        bounds: *ivd.bounds(),
        ovrs,
    }
}

/// One ⊕ fold step, reproducing the sweep's intersection argument order.
///
/// The sweep (Algorithm 2) emits a pair when the *later-starting* region's
/// top edge enters the status structure, and intersects `later ∩ earlier`.
/// The accumulator is side 0 and the basic layer side 1, and at equal
/// `max_y` side 0's start event is processed first — so the basic cell is
/// the "current" region unless it starts strictly higher than the
/// accumulator. Convex–convex clipping is bitwise sensitive to this order;
/// replaying it is what keeps re-derived OVRs identical to swept ones.
pub fn fold_step(acc: &Region, basic: &Region, mode: Boundary) -> Option<Region> {
    if basic.mbr().max_y.total_cmp(&acc.mbr().max_y) != Ordering::Greater {
        basic.intersect(acc, mode)
    } else {
        acc.intersect(basic, mode)
    }
}

/// The cell regions of a basic layer, indexed by site: `None` for sites
/// whose clipped cell is empty (they own nothing inside the bounds).
fn cell_regions(layer: &Movd) -> Vec<Option<&Region>> {
    let n = layer
        .ovrs
        .iter()
        .map(|o| o.pois[0].index + 1)
        .max()
        .unwrap_or(0);
    let mut cells = vec![None; n];
    for ovr in &layer.ovrs {
        cells[ovr.pois[0].index] = Some(&ovr.region);
    }
    cells
}

/// New site index -> old site index (inverse of the update's remap).
fn back_map(j: usize, removed: Option<usize>, old_len: usize) -> Option<usize> {
    match removed {
        Some(d) => Some(if j >= d { j + 1 } else { j }),
        // Insert appends at old_len; earlier sites keep their index.
        None => (j < old_len).then_some(j),
    }
}

/// Closed-interval MBR overlap in both axes — the sweep's pairing predicate
/// (start events are processed before end events at equal `y`, and the
/// status query is inclusive in `x`).
fn mbrs_closed_overlap(a: &Mbr, b: &Mbr) -> bool {
    a.min_x <= b.max_x && b.min_x <= a.max_x && a.min_y <= b.max_y && b.min_y <= a.max_y
}

/// Bitwise region equality: same representation and identical IEEE-754 bits
/// for every coordinate — the identity `molq-store` persists (`PartialEq`
/// would conflate `-0.0` with `0.0`).
pub fn region_bits_eq(a: &Region, b: &Region) -> bool {
    fn pts_eq(a: &[molq_geom::Point], b: &[molq_geom::Point]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(p, q)| p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits())
    }
    match (a, b) {
        (Region::Convex(a), Region::Convex(b)) => pts_eq(a.vertices(), b.vertices()),
        (Region::Rect(a), Region::Rect(b)) => mbr_bits_eq(a, b),
        (Region::General(a), Region::General(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(p, q)| pts_eq(p.vertices(), q.vertices()))
        }
        _ => false,
    }
}

fn mbr_bits_eq(a: &Mbr, b: &Mbr) -> bool {
    a.min_x.to_bits() == b.min_x.to_bits()
        && a.min_y.to_bits() == b.min_y.to_bits()
        && a.max_x.to_bits() == b.max_x.to_bits()
        && a.max_y.to_bits() == b.max_y.to_bits()
}

/// Bitwise MOVD equality: same bounds, same OVR order, same groups, same
/// region bits. This is exactly "the store would encode identical bytes"
/// for the MOVD section.
pub fn movd_bits_eq(a: &Movd, b: &Movd) -> bool {
    mbr_bits_eq(&a.bounds, &b.bounds)
        && a.ovrs.len() == b.ovrs.len()
        && a.ovrs
            .iter()
            .zip(&b.ovrs)
            .all(|(x, y)| x.pois == y.pois && region_bits_eq(&x.region, &y.region))
}

#[cfg(test)]
mod tests {
    use super::*;
    use molq_geom::Point;

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

    fn sets(n: usize) -> Vec<ObjectSet> {
        vec![
            ObjectSet::uniform("a", 1.0, pseudo_points(n, 11, 100.0)),
            ObjectSet::uniform("b", 2.0, pseudo_points(n, 22, 100.0)),
            ObjectSet::uniform("c", 1.5, pseudo_points(n, 33, 100.0)),
        ]
    }

    fn bounds() -> Mbr {
        Mbr::new(0.0, 0.0, 100.0, 100.0)
    }

    /// Fresh rebuild of `live`'s current object sets, for comparison.
    fn fresh(live: &LiveMovd) -> Movd {
        Movd::overlap_all_with(
            live.sets(),
            live.bounds(),
            live.mode(),
            ExecConfig::serial(),
        )
        .unwrap()
    }

    /// The pointer view of `live`'s canonical diagram.
    fn diagram(live: &LiveMovd) -> Movd {
        live.index().arena().to_movd()
    }

    fn assert_identical_to_fresh(live: &LiveMovd) {
        let want = fresh(live);
        assert!(
            movd_bits_eq(&diagram(live), &want),
            "patched MOVD diverged from fresh rebuild ({} vs {} OVRs)",
            live.index().len(),
            want.len()
        );
        let want_grid = LocateGrid::build(&want);
        assert_eq!(live.index().grid().offsets(), want_grid.offsets());
        assert_eq!(live.index().grid().ids(), want_grid.ids());
        assert_eq!(live.index().grid().cols(), want_grid.cols());
        assert_eq!(live.index().grid().rows(), want_grid.rows());
    }

    #[test]
    fn build_matches_overlap_all() {
        for mode in [Boundary::Rrb, Boundary::Mbrb] {
            let live = LiveMovd::build(sets(12), bounds(), mode, ExecConfig::serial()).unwrap();
            assert_identical_to_fresh(&live);
        }
    }

    #[test]
    fn insert_patches_to_fresh_rebuild() {
        for mode in [Boundary::Rrb, Boundary::Mbrb] {
            let mut live = LiveMovd::build(sets(15), bounds(), mode, ExecConfig::serial()).unwrap();
            let stats = live
                .apply(&Update::Insert {
                    set: 1,
                    object: SpatialObject {
                        loc: Point::new(41.5, 58.25),
                        w_t: 2.0,
                        w_o: 1.0,
                    },
                })
                .unwrap();
            assert!(stats.cells_reclipped > 0);
            assert!(stats.ovrs_kept > 0, "a local insert must keep most OVRs");
            assert_identical_to_fresh(&live);
        }
    }

    #[test]
    fn remove_patches_to_fresh_rebuild() {
        for mode in [Boundary::Rrb, Boundary::Mbrb] {
            let mut live = LiveMovd::build(sets(15), bounds(), mode, ExecConfig::serial()).unwrap();
            let stats = live.apply(&Update::Remove { set: 0, index: 7 }).unwrap();
            assert!(stats.cells_reclipped > 0);
            assert_identical_to_fresh(&live);
        }
    }

    #[test]
    fn interleaved_sequence_stays_identical() {
        let mut live =
            LiveMovd::build(sets(10), bounds(), Boundary::Rrb, ExecConfig::serial()).unwrap();
        let updates = [
            Update::Insert {
                set: 0,
                object: SpatialObject {
                    loc: Point::new(3.0, 97.0),
                    w_t: 1.0,
                    w_o: 1.0,
                },
            },
            Update::Remove { set: 2, index: 0 },
            Update::Insert {
                set: 2,
                object: SpatialObject {
                    loc: Point::new(50.0, 50.0),
                    w_t: 1.5,
                    w_o: 1.0,
                },
            },
            Update::Remove { set: 0, index: 10 }, // the object just inserted
            Update::Remove { set: 1, index: 9 },
        ];
        for (i, u) in updates.iter().enumerate() {
            live.apply(u).unwrap_or_else(|e| panic!("update {i}: {e}"));
            assert_identical_to_fresh(&live);
        }
    }

    #[test]
    fn weighted_layers_patch_too() {
        // Non-uniform object weights: the layer is a weighted diagram with
        // Rect regions; the same diff/replay machinery must hold.
        let objs: Vec<SpatialObject> = pseudo_points(8, 44, 100.0)
            .into_iter()
            .enumerate()
            .map(|(i, loc)| SpatialObject {
                loc,
                w_t: 1.0,
                w_o: 1.0 + (i % 3) as f64,
            })
            .collect();
        let mut all = sets(8);
        all[1] = ObjectSet::weighted("w", objs, crate::weights::WeightFunction::Multiplicative);
        let mut live =
            LiveMovd::build(all, bounds(), Boundary::Mbrb, ExecConfig::serial()).unwrap();
        live.apply(&Update::Insert {
            set: 1,
            object: SpatialObject {
                loc: Point::new(10.0, 20.0),
                w_t: 1.0,
                w_o: 2.5,
            },
        })
        .unwrap();
        assert_identical_to_fresh(&live);
        live.apply(&Update::Remove { set: 1, index: 3 }).unwrap();
        assert_identical_to_fresh(&live);
    }

    #[test]
    fn weight_uniformity_flip_is_handled() {
        // Inserting a differently-weighted object flips the layer from an
        // ordinary to a weighted diagram: every cell changes representation.
        let mut live =
            LiveMovd::build(sets(8), bounds(), Boundary::Mbrb, ExecConfig::serial()).unwrap();
        let stats = live
            .apply(&Update::Insert {
                set: 0,
                object: SpatialObject {
                    loc: Point::new(33.0, 66.0),
                    w_t: 1.0,
                    w_o: 4.0,
                },
            })
            .unwrap();
        assert_eq!(stats.ovrs_kept, 0, "representation flip moves every cell");
        assert_identical_to_fresh(&live);
    }

    #[test]
    fn negative_zero_coordinates_round_trip() {
        let mut live =
            LiveMovd::build(sets(6), bounds(), Boundary::Rrb, ExecConfig::serial()).unwrap();
        live.apply(&Update::Insert {
            set: 0,
            object: SpatialObject {
                loc: Point::new(-0.0, 12.0),
                w_t: 1.0,
                w_o: 1.0,
            },
        })
        .unwrap();
        assert_identical_to_fresh(&live);
        let x = live.sets()[0].objects.last().unwrap().loc.x;
        assert_eq!(x.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn rejected_updates_leave_state_untouched() {
        let mut live =
            LiveMovd::build(sets(6), bounds(), Boundary::Rrb, ExecConfig::serial()).unwrap();
        let before = diagram(&live);
        let dup = live.sets()[1].objects[2].loc;
        // Duplicate coordinates are rejected by Voronoi construction.
        let err = live
            .apply(&Update::Insert {
                set: 1,
                object: SpatialObject {
                    loc: dup,
                    w_t: 1.0,
                    w_o: 1.0,
                },
            })
            .unwrap_err();
        assert!(matches!(err, MolqError::Voronoi(_)), "{err}");
        // Out-of-range and invalid updates.
        for bad in [
            Update::Remove { set: 9, index: 0 },
            Update::Remove { set: 0, index: 99 },
            Update::Insert {
                set: 0,
                object: SpatialObject {
                    loc: Point::new(f64::NAN, 0.0),
                    w_t: 1.0,
                    w_o: 1.0,
                },
            },
            Update::Insert {
                set: 0,
                object: SpatialObject {
                    loc: Point::new(1.0, 1.0),
                    w_t: -1.0,
                    w_o: 1.0,
                },
            },
            Update::Insert {
                set: 0,
                object: SpatialObject {
                    loc: Point::new(1.0, 1.0),
                    w_t: 1.0,
                    w_o: 0.0,
                },
            },
        ] {
            assert!(matches!(live.apply(&bad), Err(MolqError::InvalidQuery(_))));
        }
        assert!(movd_bits_eq(&diagram(&live), &before));
        // Removing down to one object, then the last removal is rejected.
        let mut tiny = LiveMovd::build(
            vec![ObjectSet::uniform(
                "t",
                1.0,
                vec![Point::new(1.0, 1.0), Point::new(9.0, 9.0)],
            )],
            Mbr::new(0.0, 0.0, 10.0, 10.0),
            Boundary::Rrb,
            ExecConfig::serial(),
        )
        .unwrap();
        tiny.apply(&Update::Remove { set: 0, index: 0 }).unwrap();
        assert!(tiny.apply(&Update::Remove { set: 0, index: 0 }).is_err());
    }

    #[test]
    fn from_index_rehydrates_and_patches() {
        let built =
            LiveMovd::build(sets(10), bounds(), Boundary::Rrb, ExecConfig::serial()).unwrap();
        let mut live = LiveMovd::from_index(
            built.sets().to_vec(),
            built.index().clone(),
            Boundary::Rrb,
            ExecConfig::serial(),
        )
        .unwrap();
        assert!(movd_bits_eq(&diagram(&live), &diagram(&built)));
        live.apply(&Update::Remove { set: 1, index: 4 }).unwrap();
        assert_identical_to_fresh(&live);
    }

    #[test]
    fn from_index_normalizes_sweep_ordered_diagrams() {
        // A diagram in raw sweep order (as an old snapshot would hold it)
        // must be re-canonicalized on rehydration.
        let s = sets(8);
        let b = bounds();
        let mut acc = Movd::identity(b);
        for (i, set) in s.iter().enumerate() {
            let basic = Movd::basic_with(set, i, b, ExecConfig::serial()).unwrap();
            acc = acc.overlap_with(&basic, Boundary::Rrb, ExecConfig::serial());
        }
        // `acc` is unsorted sweep output.
        let live = LiveMovd::from_index(
            s.clone(),
            MovdIndex::build(acc),
            Boundary::Rrb,
            ExecConfig::serial(),
        )
        .unwrap();
        let want = Movd::overlap_all_with(&s, b, Boundary::Rrb, ExecConfig::serial()).unwrap();
        assert!(movd_bits_eq(&diagram(&live), &want));
    }

    #[test]
    fn single_set_diagram_patches() {
        let mut live = LiveMovd::build(
            vec![ObjectSet::uniform("only", 1.0, pseudo_points(9, 77, 50.0))],
            Mbr::new(0.0, 0.0, 50.0, 50.0),
            Boundary::Rrb,
            ExecConfig::serial(),
        )
        .unwrap();
        live.apply(&Update::Insert {
            set: 0,
            object: SpatialObject {
                loc: Point::new(25.0, 25.0),
                w_t: 1.0,
                w_o: 1.0,
            },
        })
        .unwrap();
        assert_identical_to_fresh(&live);
        live.apply(&Update::Remove { set: 0, index: 2 }).unwrap();
        assert_identical_to_fresh(&live);
    }
}
