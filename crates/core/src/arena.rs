//! Contiguous arena layout for a built MOVD.
//!
//! A pointer-rich [`Movd`] scatters every OVR's polygon vertices, group
//! references, and per-region `Vec` headers across the heap: the per-group
//! scan pays a cache miss per hop and the snapshot store re-encodes the
//! structures one by one. [`MovdArena`] flattens the whole diagram into six
//! flat buffers in CSR style (the same layout discipline as
//! [`crate::locate_grid::LocateGrid`]):
//!
//! ```text
//! kinds      [n]          region kind per OVR (convex / rect / general)
//! poly_off   [n + 1]      OVR i owns polygons poly_off[i]..poly_off[i+1]
//! vert_off   [npolys + 1] polygon p owns verts vert_off[p]..vert_off[p+1]
//! verts      [nverts]     every polygon vertex, in OVR order
//! group_off  [n + 1]      OVR i owns pois group_off[i]..group_off[i+1]
//! pois       [npois]      every group member, in OVR order
//! ```
//!
//! A `Rect` region is stored as one two-vertex "polygon" (min corner, max
//! corner), so all three representations share the vertex buffer. The arena
//! is bit-exact: [`MovdArena::to_movd`] reconstructs a diagram whose every
//! IEEE-754 coordinate equals the original's, and the snapshot store
//! (`molq-store`) writes the buffers verbatim — save is a bulk copy, restore
//! is [`MovdArena::from_raw`] validation plus a bulk copy.
//!
//! [`FwLanes`] is the derived (never persisted) SoA cost block: per group
//! one contiguous run of Fermat–Weber weighted points plus an additive
//! constant, precomputed from a query so the optimizer scan streams over
//! flat `f64` lanes instead of chasing `ObjectRef`s through the object sets.

use crate::movd::{Movd, Ovr};
use crate::object::{MolqQuery, ObjectRef};
use crate::region::Region;
use molq_fw::WeightedPoint;
use molq_geom::{convex_contains, ring_contains, ConvexPolygon, Mbr, Point, Polygon};

/// Region kind tag: exact convex region ([`Region::Convex`]).
pub const KIND_CONVEX: u8 = 0;
/// Region kind tag: bounding rectangle ([`Region::Rect`]).
pub const KIND_RECT: u8 = 1;
/// Region kind tag: general multi-polygon ([`Region::General`]).
pub const KIND_GENERAL: u8 = 2;

/// Size of a `Vec` header — kept in the byte accounting so the arena reports
/// the same `movd_bytes` the pointer layout did (see [`crate::footprint`]).
const VEC_HEADER: usize = 24;

/// A complete MOVD flattened into contiguous index-based buffers.
///
/// Invariants (validated by [`MovdArena::from_raw`]):
/// * `poly_off` and `group_off` have `len() + 1` entries, start at 0, are
///   non-decreasing, and end at the owned buffer's length;
/// * `vert_off` has `poly_off[n] + 1` entries with the same CSR shape over
///   `verts`;
/// * every kind is one of the three tags; convex and rect OVRs own exactly
///   one polygon, and a rect polygon has exactly two vertices.
///
/// Group (`pois`) ordering is *not* an invariant — diagrams in pre-canonical
/// sweep order are representable, exactly as they were with [`Movd`].
#[derive(Debug, Clone, PartialEq)]
pub struct MovdArena {
    bounds: Mbr,
    kinds: Vec<u8>,
    poly_off: Vec<u32>,
    vert_off: Vec<u32>,
    verts: Vec<Point>,
    group_off: Vec<u32>,
    pois: Vec<ObjectRef>,
}

/// Byte sizes of the arena's buffers (reported by `/stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaBufferBytes {
    /// `kinds` buffer bytes.
    pub kinds: usize,
    /// `poly_off` buffer bytes.
    pub poly_off: usize,
    /// `vert_off` buffer bytes.
    pub vert_off: usize,
    /// `verts` buffer bytes.
    pub verts: usize,
    /// `group_off` buffer bytes.
    pub group_off: usize,
    /// `pois` buffer bytes.
    pub pois: usize,
}

impl ArenaBufferBytes {
    /// Sum over all buffers.
    pub fn total(&self) -> usize {
        self.kinds + self.poly_off + self.vert_off + self.verts + self.group_off + self.pois
    }
}

/// One entry of an incremental patch: either an OVR carried over from the
/// old arena (geometry copied bit-for-bit, group re-targeted through the
/// site remap) or a freshly re-derived OVR.
#[derive(Debug, Clone)]
pub enum PatchEntry {
    /// Keep old OVR `old_id`'s region; its group becomes `pois`.
    Kept {
        /// Id in the old arena whose geometry is copied.
        old_id: u32,
        /// The (remapped) group of the kept OVR.
        pois: Vec<ObjectRef>,
    },
    /// A re-derived OVR, encoded from scratch.
    New(Ovr),
}

impl MovdArena {
    /// Flattens a pointer-based diagram. Lossless: every vertex coordinate
    /// keeps its exact bits and [`MovdArena::to_movd`] inverts it.
    pub fn from_movd(movd: &Movd) -> Self {
        let n = movd.ovrs.len();
        let mut a = MovdArena::with_capacity(movd.bounds, n);
        for ovr in &movd.ovrs {
            a.push_region(&ovr.region);
            a.push_group(&ovr.pois);
        }
        a
    }

    fn with_capacity(bounds: Mbr, n: usize) -> Self {
        let mut a = MovdArena {
            bounds,
            kinds: Vec::with_capacity(n),
            poly_off: Vec::with_capacity(n + 1),
            vert_off: Vec::with_capacity(n + 1),
            verts: Vec::new(),
            group_off: Vec::with_capacity(n + 1),
            pois: Vec::new(),
        };
        a.poly_off.push(0);
        a.vert_off.push(0);
        a.group_off.push(0);
        a
    }

    fn push_poly(&mut self, verts: &[Point]) {
        self.verts.extend_from_slice(verts);
        self.vert_off.push(self.verts.len() as u32);
    }

    fn push_region(&mut self, region: &Region) {
        match region {
            Region::Convex(p) => {
                self.kinds.push(KIND_CONVEX);
                self.push_poly(p.vertices());
            }
            Region::Rect(m) => {
                self.kinds.push(KIND_RECT);
                self.push_poly(&[Point::new(m.min_x, m.min_y), Point::new(m.max_x, m.max_y)]);
            }
            Region::General(ps) => {
                self.kinds.push(KIND_GENERAL);
                for p in ps {
                    self.push_poly(p.vertices());
                }
            }
        }
        self.poly_off.push(self.vert_off.len() as u32 - 1);
    }

    fn push_group(&mut self, pois: &[ObjectRef]) {
        self.pois.extend_from_slice(pois);
        self.group_off.push(self.pois.len() as u32);
    }

    /// Reassembles an arena from raw buffers (the snapshot-restore path),
    /// validating every CSR invariant so later indexing cannot go out of
    /// bounds. Group object references are *not* range-checked here — the
    /// store validates them against the object sets it decodes alongside.
    pub fn from_raw(
        bounds: Mbr,
        kinds: Vec<u8>,
        poly_off: Vec<u32>,
        vert_off: Vec<u32>,
        verts: Vec<Point>,
        group_off: Vec<u32>,
        pois: Vec<ObjectRef>,
    ) -> Result<Self, String> {
        let n = kinds.len();
        let check_csr = |off: &[u32], end: usize, name: &str| -> Result<(), String> {
            if off.len() != n + 1 {
                return Err(format!(
                    "arena {name} has {} entries for {n} OVRs (want {})",
                    off.len(),
                    n + 1
                ));
            }
            if off[0] != 0 || *off.last().expect("non-empty") as usize != end {
                return Err(format!("arena {name} must start at 0 and end at {end}"));
            }
            if off.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("arena {name} must be non-decreasing"));
            }
            Ok(())
        };
        check_csr(&poly_off, vert_off.len().saturating_sub(1), "poly_off")?;
        check_csr(&group_off, pois.len(), "group_off")?;
        let npolys = *poly_off.last().expect("validated") as usize;
        if vert_off.len() != npolys + 1 {
            return Err(format!(
                "arena vert_off has {} entries for {npolys} polygons (want {})",
                vert_off.len(),
                npolys + 1
            ));
        }
        if vert_off[0] != 0 || *vert_off.last().expect("non-empty") as usize != verts.len() {
            return Err(format!(
                "arena vert_off must start at 0 and end at {}",
                verts.len()
            ));
        }
        if vert_off.windows(2).any(|w| w[0] > w[1]) {
            return Err("arena vert_off must be non-decreasing".into());
        }
        for (i, &kind) in kinds.iter().enumerate() {
            let polys = (poly_off[i + 1] - poly_off[i]) as usize;
            match kind {
                KIND_CONVEX => {
                    if polys != 1 {
                        return Err(format!("convex OVR {i} has {polys} polygons (want 1)"));
                    }
                }
                KIND_RECT => {
                    if polys != 1 {
                        return Err(format!("rect OVR {i} has {polys} polygons (want 1)"));
                    }
                    let p = poly_off[i] as usize;
                    let nv = (vert_off[p + 1] - vert_off[p]) as usize;
                    if nv != 2 {
                        return Err(format!("rect OVR {i} has {nv} vertices (want 2)"));
                    }
                }
                KIND_GENERAL => {}
                other => return Err(format!("OVR {i} has unknown region kind {other}")),
            }
        }
        Ok(MovdArena {
            bounds,
            kinds,
            poly_off,
            vert_off,
            verts,
            group_off,
            pois,
        })
    }

    /// Reconstructs the pointer-based diagram, bit-identical to the one the
    /// arena was built from (same constructors the old snapshot decode used).
    pub fn to_movd(&self) -> Movd {
        let ovrs = (0..self.len())
            .map(|i| {
                let region = match self.kinds[i] {
                    KIND_CONVEX => {
                        Region::Convex(ConvexPolygon::from_ccw(self.poly(i, 0).to_vec()))
                    }
                    KIND_RECT => Region::Rect(self.rect(i)),
                    _ => Region::General(self.polys(i).map(|v| Polygon::new(v.to_vec())).collect()),
                };
                Ovr {
                    region,
                    pois: self.group(i).to_vec(),
                }
            })
            .collect();
        Movd {
            bounds: self.bounds,
            ovrs,
        }
    }

    /// Number of OVRs.
    #[inline]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` when the diagram holds no OVRs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The search space.
    #[inline]
    pub fn bounds(&self) -> Mbr {
        self.bounds
    }

    /// Region kind tag of OVR `i`.
    #[inline]
    pub fn kind(&self, i: usize) -> u8 {
        self.kinds[i]
    }

    /// The group of OVR `i` (one object per overlapped type).
    #[inline]
    pub fn group(&self, i: usize) -> &[ObjectRef] {
        &self.pois[self.group_off[i] as usize..self.group_off[i + 1] as usize]
    }

    /// Vertex slice of polygon `j` (0-based within OVR `i`).
    #[inline]
    fn poly(&self, i: usize, j: usize) -> &[Point] {
        let p = self.poly_off[i] as usize + j;
        &self.verts[self.vert_off[p] as usize..self.vert_off[p + 1] as usize]
    }

    /// All polygon vertex slices of OVR `i`.
    pub fn polys(&self, i: usize) -> impl Iterator<Item = &[Point]> {
        let lo = self.poly_off[i] as usize;
        let hi = self.poly_off[i + 1] as usize;
        (lo..hi).map(move |p| &self.verts[self.vert_off[p] as usize..self.vert_off[p + 1] as usize])
    }

    /// The rectangle of a [`KIND_RECT`] OVR, bit-exact (no re-derivation
    /// from vertex ordering, which would lose `-0.0` vs `0.0`).
    fn rect(&self, i: usize) -> Mbr {
        let v = self.poly(i, 0);
        Mbr {
            min_x: v[0].x,
            min_y: v[0].y,
            max_x: v[1].x,
            max_y: v[1].y,
        }
    }

    /// OVR `i`'s bounding rectangle — same bits as
    /// [`Region::mbr`] on the reconstructed region.
    pub fn ovr_mbr(&self, i: usize) -> Mbr {
        match self.kinds[i] {
            KIND_CONVEX => Mbr::of_points(self.poly(i, 0).iter().copied()),
            KIND_RECT => self.rect(i),
            _ => self.polys(i).fold(Mbr::EMPTY, |acc, v| {
                acc.union(&Mbr::of_points(v.iter().copied()))
            }),
        }
    }

    /// `true` when `p` lies in OVR `i`'s region — same decision as
    /// [`Region::contains`] on the reconstructed region (shared slice
    /// kernels).
    pub fn contains(&self, i: usize, p: Point) -> bool {
        match self.kinds[i] {
            KIND_CONVEX => convex_contains(self.poly(i, 0), p),
            KIND_RECT => self.rect(i).contains(p),
            _ => self.polys(i).any(|v| ring_contains(v, p)),
        }
    }

    /// Raw buffer accessors for the snapshot store (bulk write path).
    #[inline]
    pub fn kinds(&self) -> &[u8] {
        &self.kinds
    }
    /// See [`MovdArena::kinds`].
    #[inline]
    pub fn poly_off(&self) -> &[u32] {
        &self.poly_off
    }
    /// See [`MovdArena::kinds`].
    #[inline]
    pub fn vert_off(&self) -> &[u32] {
        &self.vert_off
    }
    /// See [`MovdArena::kinds`].
    #[inline]
    pub fn verts(&self) -> &[Point] {
        &self.verts
    }
    /// See [`MovdArena::kinds`].
    #[inline]
    pub fn group_off(&self) -> &[u32] {
        &self.group_off
    }
    /// See [`MovdArena::kinds`].
    #[inline]
    pub fn pois(&self) -> &[ObjectRef] {
        &self.pois
    }

    /// Byte sizes of the flat buffers, for `/stats`.
    pub fn buffer_bytes(&self) -> ArenaBufferBytes {
        ArenaBufferBytes {
            kinds: self.kinds.len(),
            poly_off: self.poly_off.len() * 4,
            vert_off: self.vert_off.len() * 4,
            verts: self.verts.len() * 16,
            group_off: self.group_off.len() * 4,
            pois: self.pois.len() * std::mem::size_of::<ObjectRef>(),
        }
    }

    /// Deep payload bytes of the *pointer-based* diagram this arena
    /// represents — the paper's memory-accounting number
    /// ([`crate::footprint::Footprint`]), computed from counts so answers
    /// report the same `movd_bytes` they always did.
    pub fn footprint_bytes(&self) -> usize {
        let mut total = VEC_HEADER + 4 * std::mem::size_of::<f64>(); // ovrs header + bounds
        for i in 0..self.len() {
            let region = match self.kinds[i] {
                KIND_RECT => 4 * std::mem::size_of::<f64>(),
                KIND_CONVEX => {
                    let nv = (self.vert_off[self.poly_off[i] as usize + 1]
                        - self.vert_off[self.poly_off[i] as usize])
                        as usize;
                    nv * 2 * std::mem::size_of::<f64>() + VEC_HEADER
                }
                _ => {
                    let polys = self.poly_off[i] as usize..self.poly_off[i + 1] as usize;
                    polys
                        .map(|p| {
                            (self.vert_off[p + 1] - self.vert_off[p]) as usize
                                * 2
                                * std::mem::size_of::<f64>()
                                + VEC_HEADER
                        })
                        .sum::<usize>()
                        + VEC_HEADER
                }
            };
            let group = (self.group_off[i + 1] - self.group_off[i]) as usize;
            total += region + group * std::mem::size_of::<ObjectRef>() + VEC_HEADER;
        }
        total
    }

    /// Builds a patched arena by copy-on-write: `Kept` entries bulk-copy
    /// their geometry segments out of `old` (bit-identical to what a
    /// from-scratch rebuild would encode, because kept regions are exactly
    /// the regions whose bits did not move), `New` entries encode their
    /// regions from scratch. Returns the arena and the number of contiguous
    /// old-arena segments copied (adjacent kept OVRs coalesce into one
    /// segment — the number a `memcpy`-style implementation would issue).
    pub fn from_patch(old: &MovdArena, bounds: Mbr, entries: &[PatchEntry]) -> (Self, usize) {
        let mut a = MovdArena::with_capacity(bounds, entries.len());
        let mut segments = 0usize;
        let mut prev_kept: Option<u32> = None;
        for e in entries {
            match e {
                PatchEntry::Kept { old_id, pois } => {
                    let i = *old_id as usize;
                    if prev_kept != Some(old_id.wrapping_sub(1)) {
                        segments += 1;
                    }
                    prev_kept = Some(*old_id);
                    a.kinds.push(old.kinds[i]);
                    for p in old.poly_off[i] as usize..old.poly_off[i + 1] as usize {
                        let lo = old.vert_off[p] as usize;
                        let hi = old.vert_off[p + 1] as usize;
                        a.verts.extend_from_slice(&old.verts[lo..hi]);
                        a.vert_off.push(a.verts.len() as u32);
                    }
                    a.poly_off.push(a.vert_off.len() as u32 - 1);
                    a.push_group(pois);
                }
                PatchEntry::New(ovr) => {
                    prev_kept = None;
                    a.push_region(&ovr.region);
                    a.push_group(&ovr.pois);
                }
            }
        }
        (a, segments)
    }
}

/// The derived SoA cost block: per OVR group, a contiguous run of
/// Fermat–Weber weighted points and the additive constant of the group's
/// `WGD` under a fixed query (see [`MolqQuery::fw_terms`]). Query-dependent,
/// cheap to build, never persisted — a server pins one per (snapshot,
/// query) so every solve/topk scan streams flat lanes.
#[derive(Debug, Clone)]
pub struct FwLanes {
    group_off: Vec<u32>,
    pts: Vec<WeightedPoint>,
    consts: Vec<f64>,
}

impl FwLanes {
    /// Lanes for an arena-backed diagram: [`MolqQuery::fw_terms`] of every
    /// group, in OVR order.
    pub fn from_arena(query: &MolqQuery, arena: &MovdArena) -> Self {
        let mut lanes = FwLanes {
            group_off: vec![0],
            pts: Vec::new(),
            consts: Vec::new(),
        };
        for i in 0..arena.len() {
            let (pts, constant) = query.fw_terms(arena.group(i));
            lanes.pts.extend_from_slice(&pts);
            lanes.group_off.push(lanes.pts.len() as u32);
            lanes.consts.push(constant);
        }
        lanes
    }

    /// Number of groups.
    #[inline]
    pub fn len(&self) -> usize {
        self.consts.len()
    }

    /// `true` when no groups are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.consts.is_empty()
    }

    /// Group `i`'s weighted points and additive constant.
    #[inline]
    pub fn group(&self, i: usize) -> (&[WeightedPoint], f64) {
        (
            &self.pts[self.group_off[i] as usize..self.group_off[i + 1] as usize],
            self.consts[i],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::Footprint;
    use crate::incr::movd_bits_eq;
    use crate::object::ObjectSet;
    use crate::region::Boundary;

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

    fn built(mode: Boundary) -> Movd {
        let bounds = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let sets = vec![pseudo_set("a", 10, 1), pseudo_set("b", 12, 2)];
        Movd::overlap_all(&sets, bounds, mode).unwrap()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        for mode in [Boundary::Rrb, Boundary::Mbrb] {
            let movd = built(mode);
            let arena = MovdArena::from_movd(&movd);
            assert!(movd_bits_eq(&arena.to_movd(), &movd));
        }
    }

    #[test]
    fn mixed_kinds_round_trip_including_special_floats() {
        let movd = Movd {
            bounds: Mbr::new(0.0, 0.0, 10.0, 10.0),
            ovrs: vec![
                Ovr {
                    region: Region::Convex(ConvexPolygon::from_ccw(vec![
                        Point::new(-0.0, 0.0),
                        Point::new(5e-324, 1.0),
                        Point::new(1e300, 2.0),
                    ])),
                    pois: vec![ObjectRef { set: 0, index: 3 }],
                },
                Ovr {
                    region: Region::Rect(Mbr::EMPTY),
                    pois: vec![ObjectRef { set: 1, index: 0 }],
                },
                Ovr {
                    region: Region::General(vec![
                        Polygon::new(vec![
                            Point::new(0.0, 0.0),
                            Point::new(1.0, -0.0),
                            Point::new(0.5, 1.0),
                        ]),
                        Polygon::new(Vec::new()),
                    ]),
                    pois: Vec::new(),
                },
            ],
        };
        let arena = MovdArena::from_movd(&movd);
        assert!(movd_bits_eq(&arena.to_movd(), &movd));
        // The empty rect survives with its exact ±inf bits.
        assert!(arena.ovr_mbr(1).is_empty());
    }

    #[test]
    fn views_match_the_pointer_layout() {
        for mode in [Boundary::Rrb, Boundary::Mbrb] {
            let movd = built(mode);
            let arena = MovdArena::from_movd(&movd);
            assert_eq!(arena.len(), movd.len());
            assert_eq!(arena.footprint_bytes(), movd.footprint_bytes());
            for (i, ovr) in movd.ovrs.iter().enumerate() {
                assert_eq!(arena.group(i), ovr.pois.as_slice());
                let am = arena.ovr_mbr(i);
                let rm = ovr.region.mbr();
                assert_eq!(
                    [
                        am.min_x.to_bits(),
                        am.min_y.to_bits(),
                        am.max_x.to_bits(),
                        am.max_y.to_bits()
                    ],
                    [
                        rm.min_x.to_bits(),
                        rm.min_y.to_bits(),
                        rm.max_x.to_bits(),
                        rm.max_y.to_bits()
                    ],
                );
                for gi in 0..40 {
                    let p = Point::new(
                        (gi as f64 * 7.7 + 0.1) % 100.0,
                        (gi as f64 * 3.9 + 0.6) % 100.0,
                    );
                    assert_eq!(arena.contains(i, p), ovr.region.contains(p));
                }
            }
        }
    }

    #[test]
    fn lanes_hold_the_fw_terms_of_every_group() {
        let bounds = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let sets = vec![pseudo_set("a", 8, 5), pseudo_set("b", 9, 6)];
        let query = MolqQuery::new(sets.clone(), bounds);
        let movd = Movd::overlap_all(&sets, bounds, Boundary::Rrb).unwrap();
        let arena = MovdArena::from_movd(&movd);
        let lanes = FwLanes::from_arena(&query, &arena);
        assert_eq!(lanes.len(), movd.len());
        for (i, ovr) in movd.ovrs.iter().enumerate() {
            let (pts, c) = lanes.group(i);
            let (direct, dc) = query.fw_terms(&ovr.pois);
            assert_eq!(c.to_bits(), dc.to_bits());
            assert_eq!(pts.len(), direct.len());
            for (x, y) in pts.iter().zip(&direct) {
                assert_eq!(x.weight.to_bits(), y.weight.to_bits());
                assert_eq!(x.loc.x.to_bits(), y.loc.x.to_bits());
                assert_eq!(x.loc.y.to_bits(), y.loc.y.to_bits());
            }
        }
    }

    #[test]
    fn from_raw_rejects_malformed_buffers() {
        let movd = built(Boundary::Rrb);
        let good = MovdArena::from_movd(&movd);
        let parts = |a: &MovdArena| {
            (
                a.bounds(),
                a.kinds().to_vec(),
                a.poly_off().to_vec(),
                a.vert_off().to_vec(),
                a.verts().to_vec(),
                a.group_off().to_vec(),
                a.pois().to_vec(),
            )
        };
        let (b, k, po, vo, v, go, p) = parts(&good);
        assert!(MovdArena::from_raw(
            b,
            k.clone(),
            po.clone(),
            vo.clone(),
            v.clone(),
            go.clone(),
            p.clone()
        )
        .is_ok());
        // Truncated poly offsets.
        assert!(MovdArena::from_raw(
            b,
            k.clone(),
            po[..po.len() - 1].to_vec(),
            vo.clone(),
            v.clone(),
            go.clone(),
            p.clone()
        )
        .is_err());
        // Unsorted group offsets.
        let mut bad_go = go.clone();
        if bad_go.len() > 2 {
            bad_go.swap(1, 2);
        }
        assert!(MovdArena::from_raw(
            b,
            k.clone(),
            po.clone(),
            vo.clone(),
            v.clone(),
            bad_go,
            p.clone()
        )
        .is_err());
        // Offsets pointing past the vertex buffer.
        let mut bad_vo = vo.clone();
        *bad_vo.last_mut().unwrap() += 7;
        assert!(MovdArena::from_raw(
            b,
            k.clone(),
            po.clone(),
            bad_vo,
            v.clone(),
            go.clone(),
            p.clone()
        )
        .is_err());
        // Unknown kind tag.
        let mut bad_k = k.clone();
        bad_k[0] = 9;
        assert!(MovdArena::from_raw(b, bad_k, po, vo, v, go, p).is_err());
    }

    #[test]
    fn patch_copies_kept_segments_bit_identically() {
        let movd = built(Boundary::Rrb);
        let old = MovdArena::from_movd(&movd);
        // Keep everything except OVR 2, insert one new OVR at the end.
        let mut entries: Vec<PatchEntry> = (0..old.len())
            .filter(|&i| i != 2)
            .map(|i| PatchEntry::Kept {
                old_id: i as u32,
                pois: old.group(i).to_vec(),
            })
            .collect();
        entries.push(PatchEntry::New(Ovr {
            region: Region::Rect(Mbr::new(1.0, 1.0, 2.0, 2.0)),
            pois: vec![ObjectRef { set: 0, index: 0 }],
        }));
        let (patched, segments) = MovdArena::from_patch(&old, old.bounds(), &entries);
        // One gap at old id 2 splits the kept run into two segments.
        assert_eq!(segments, 2);
        assert_eq!(patched.len(), old.len());
        // Rebuild the same diagram from the pointer layout and compare bits.
        let mut want = movd.clone();
        want.ovrs.remove(2);
        want.ovrs.push(Ovr {
            region: Region::Rect(Mbr::new(1.0, 1.0, 2.0, 2.0)),
            pois: vec![ObjectRef { set: 0, index: 0 }],
        });
        assert!(movd_bits_eq(&patched.to_movd(), &want));
        assert_eq!(patched, MovdArena::from_movd(&want));
    }
}
