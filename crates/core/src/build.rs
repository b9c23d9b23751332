//! The tiered, mode-aware MOVD build pipeline.
//!
//! Construction used to be a single hard-wired exact path
//! ([`Movd::overlap_all_with`]: per-set basic diagrams folded with the ⊕
//! plane sweep). This module stages it behind a [`BuildPlan`] that every
//! layer of the system threads through:
//!
//! * [`BuildMode::Exact`] runs the historical pipeline unchanged — its
//!   output is **bit-identical** to a direct [`Movd::overlap_all_with`]
//!   call, so every determinism suite and stored snapshot stays valid.
//! * [`BuildMode::Approx`] skips both exact clipping and the ⊕ sweep
//!   entirely: one joint quadtree (`molq_voronoi::approx`) is refined over
//!   all object sets until every leaf's per-type dominant object is
//!   certified within a `(1+ε)` weighted-distance factor, and the leaves
//!   are coalesced by their object group directly into OVRs. Construction
//!   is near-linear in the object count — the mode that scales to ~10⁶
//!   objects per layer.
//!
//! # The certified cost bound
//!
//! In an approximate MOVD every point `x` of a leaf satisfies
//! `WD(x, owner_t) ≤ (1+ε)·min_p WD(x, p)` per type `t` (see
//! `molq_voronoi::approx` for the certificate), so summing over types:
//! `WGD(x, G_leaf) ≤ (1+ε)·MWGD(x)`. The optimizer minimizes true group
//! costs over all groups, hence for the reported answer
//!
//! ```text
//! exact_opt ≤ approx_cost ≤ (1+ε) · exact_opt
//! ```
//!
//! (left: any group's WGD dominates MWGD pointwise; right: instantiate the
//! leaf certificate at the exact optimum's location). The factor is carried
//! as [`BuildMeta::certified_factor`] into answers, snapshots, and `/stats`.
//!
//! The per-type certificate is stated for the object-weight function `ς^o`;
//! it transfers to full `WD` for per-set-uniform type weights under both
//! `ς^t` families (multiplying by `w^t` preserves ratios; adding `w^t ≥ 0`
//! only slackens them). Sets with per-object type weights fall back to the
//! same nearest-by-`ς^o` group semantics the exact pipeline uses.

use crate::error::MolqError;
use crate::exec::ExecConfig;
use crate::movd::{Movd, Ovr};
use crate::object::{ObjectRef, ObjectSet};
use crate::region::{Boundary, Region};
use crate::weights::WeightFunction;
use molq_geom::Mbr;
use molq_voronoi::{refine_multi, ApproxConfig, ApproxLayer, WeightScheme, WeightedSite};
use std::collections::HashMap;

/// Which construction pipeline a dataset is built with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BuildMode {
    /// Exact clipping + plane-sweep overlap (the historical pipeline).
    Exact,
    /// Joint quadtree refinement with a `(1+ε)` dominance certificate.
    Approx {
        /// The approximation parameter ε > 0.
        epsilon: f64,
    },
}

impl BuildMode {
    /// Normalizes an optional ε into a mode: `None` or ε ≤ 0 is exact (so
    /// ε → 0 degenerates to the bit-identical exact pipeline), anything
    /// positive is approximate.
    pub fn from_epsilon(epsilon: Option<f64>) -> Self {
        match epsilon {
            Some(e) if e > 0.0 && e.is_finite() => BuildMode::Approx { epsilon: e },
            _ => BuildMode::Exact,
        }
    }

    /// The mode's ε (0 for exact).
    pub fn epsilon(&self) -> f64 {
        match self {
            BuildMode::Exact => 0.0,
            BuildMode::Approx { epsilon } => *epsilon,
        }
    }

    /// `true` for the approximate mode.
    pub fn is_approx(&self) -> bool {
        matches!(self, BuildMode::Approx { .. })
    }

    /// The certified approximation factor: answers cost at most this
    /// multiple of the true optimum (1 for exact).
    pub fn certified_factor(&self) -> f64 {
        1.0 + self.epsilon()
    }

    /// Bit-exact mode equality (ε compared by IEEE-754 bits) — the identity
    /// used to decide whether a stored snapshot matches a requested build.
    pub fn bits_eq(&self, other: &BuildMode) -> bool {
        match (self, other) {
            (BuildMode::Exact, BuildMode::Exact) => true,
            (BuildMode::Approx { epsilon: a }, BuildMode::Approx { epsilon: b }) => {
                a.to_bits() == b.to_bits()
            }
            _ => false,
        }
    }
}

/// A staged build request. Approximate builds refine under
/// [`ApproxConfig`]'s default safety caps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildPlan {
    /// The construction mode.
    pub mode: BuildMode,
}

impl BuildPlan {
    /// The exact plan.
    pub fn exact() -> Self {
        BuildPlan::for_mode(BuildMode::Exact)
    }

    /// A plan from an optional ε (normalized via [`BuildMode::from_epsilon`]).
    pub fn approx(epsilon: f64) -> Self {
        BuildPlan::for_mode(BuildMode::from_epsilon(Some(epsilon)))
    }

    /// A plan for a mode.
    pub fn for_mode(mode: BuildMode) -> Self {
        BuildPlan { mode }
    }
}

/// What a build produced: the mode it ran, its certified factor, and the
/// refinement counters (all zero for exact builds). Persisted alongside the
/// diagram so a restored snapshot knows how it was built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildMeta {
    /// The mode the diagram was built with.
    pub mode: BuildMode,
    /// Quadtree leaves emitted (0 for exact builds).
    pub leaves: u64,
    /// Quadtree cells visited (0 for exact builds).
    pub cells_visited: u64,
    /// Deepest refinement level reached (0 for exact builds).
    pub refinement_depth: u32,
    /// Leaves whose owners were forced by the safety caps instead of the
    /// certificate (0 means the whole diagram is certified).
    pub forced_leaves: u64,
}

impl BuildMeta {
    /// Metadata of an exact build.
    pub fn exact() -> Self {
        BuildMeta {
            mode: BuildMode::Exact,
            leaves: 0,
            cells_visited: 0,
            refinement_depth: 0,
            forced_leaves: 0,
        }
    }

    /// The certified approximation factor of answers over this diagram.
    pub fn certified_factor(&self) -> f64 {
        self.mode.certified_factor()
    }

    /// `true` when every leaf carries a certificate (vacuously true for
    /// exact builds).
    pub fn fully_certified(&self) -> bool {
        self.forced_leaves == 0
    }
}

/// Builds the MOVD of `sets` under `plan`. Exact plans delegate to
/// [`Movd::overlap_all_with`] (bit-identical, canonical order); approximate
/// plans refine one joint quadtree and lower its leaves into OVRs (also in
/// canonical order). Both return the metadata the rest of the pipeline
/// threads through.
pub fn build_movd(
    sets: &[ObjectSet],
    bounds: Mbr,
    boundary: Boundary,
    plan: &BuildPlan,
    exec: ExecConfig,
) -> Result<(Movd, BuildMeta), MolqError> {
    let BuildMode::Approx { epsilon } = plan.mode else {
        let movd = Movd::overlap_all_with(sets, bounds, boundary, exec)
            .map_err(|e| MolqError::InvalidQuery(e.to_string()))?;
        return Ok((movd, BuildMeta::exact()));
    };
    for (si, set) in sets.iter().enumerate() {
        if set.is_empty() {
            return Err(MolqError::InvalidQuery(format!(
                "object set {si} ({}) is empty",
                set.name
            )));
        }
        // NaN weights must fail too, so "not strictly positive" it is.
        if !set.objects.iter().all(|o| o.w_o > 0.0) {
            return Err(MolqError::InvalidQuery(format!(
                "object set {si} ({}) has a non-positive object weight",
                set.name
            )));
        }
    }
    let site_lists: Vec<Vec<WeightedSite>> = sets
        .iter()
        .map(|set| {
            set.objects
                .iter()
                .map(|o| WeightedSite::new(o.loc, o.w_o))
                .collect()
        })
        .collect();
    let layers: Vec<ApproxLayer> = site_lists
        .iter()
        .zip(sets)
        .map(|(sites, set)| ApproxLayer {
            sites,
            scheme: match set.object_weight_fn {
                WeightFunction::Multiplicative => WeightScheme::Multiplicative,
                WeightFunction::Additive => WeightScheme::Additive,
            },
        })
        .collect();
    let cfg = ApproxConfig::new(epsilon);

    // Coalesce leaves by object group: groups index OVRs in first-seen
    // (deterministic) order; canonicalize() then sorts exactly like the
    // exact pipeline does.
    let mut group_ids: HashMap<Vec<u32>, usize> = HashMap::new();
    let mut groups: Vec<Vec<u32>> = Vec::new();
    let mut tiles: Vec<Vec<Mbr>> = Vec::new();
    let stats = refine_multi(&layers, bounds, &cfg, |rect, owners| {
        let id = *group_ids.entry(owners.to_vec()).or_insert_with(|| {
            groups.push(owners.to_vec());
            tiles.push(Vec::new());
            groups.len() - 1
        });
        tiles[id].push(rect);
    });

    let ovrs = groups
        .into_iter()
        .zip(tiles)
        .map(|(owners, rects)| Ovr {
            region: Region::from_tiles(rects),
            pois: owners
                .into_iter()
                .enumerate()
                .map(|(set, index)| ObjectRef {
                    set,
                    index: index as usize,
                })
                .collect(),
        })
        .collect();
    let mut movd = Movd { bounds, ovrs };
    movd.canonicalize();
    let meta = BuildMeta {
        mode: plan.mode,
        leaves: stats.leaves as u64,
        cells_visited: stats.cells_visited as u64,
        refinement_depth: stats.deepest,
        forced_leaves: stats.forced_leaves as u64,
    };
    Ok((movd, meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{FwLanes, MovdArena};
    use crate::cancel::CancelToken;
    use crate::incr::movd_bits_eq;
    use crate::object::MolqQuery;
    use crate::solutions::movd_based::{solve_arena_cancellable_with, MovdAnswer};
    use crate::weights::mwgd;
    use molq_geom::Point;

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
            1.0 + (seed % 3) as f64,
            (0..n)
                .map(|_| Point::new(next() * 100.0, next() * 100.0))
                .collect(),
        )
    }

    fn bounds() -> Mbr {
        Mbr::new(0.0, 0.0, 100.0, 100.0)
    }

    fn solve_built(query: &MolqQuery, movd: &Movd) -> MovdAnswer {
        let arena = MovdArena::from_movd(movd);
        let lanes = FwLanes::from_arena(query, &arena);
        let never = CancelToken::never();
        solve_arena_cancellable_with(query, &arena, &lanes, &never, ExecConfig::serial()).unwrap()
    }

    #[test]
    fn mode_normalization() {
        assert!(!BuildMode::from_epsilon(None).is_approx());
        assert!(!BuildMode::from_epsilon(Some(0.0)).is_approx());
        assert!(!BuildMode::from_epsilon(Some(-1.0)).is_approx());
        assert!(!BuildMode::from_epsilon(Some(f64::NAN)).is_approx());
        let m = BuildMode::from_epsilon(Some(0.25));
        assert!(m.is_approx());
        assert_eq!(m.epsilon(), 0.25);
        assert_eq!(m.certified_factor(), 1.25);
        assert!(m.bits_eq(&BuildMode::Approx { epsilon: 0.25 }));
        assert!(!m.bits_eq(&BuildMode::Approx { epsilon: 0.5 }));
        assert!(!m.bits_eq(&BuildMode::Exact));
    }

    #[test]
    fn exact_plan_is_bit_identical_to_direct_overlap() {
        let sets = vec![pseudo_set("a", 12, 1), pseudo_set("b", 10, 2)];
        for mode in [Boundary::Rrb, Boundary::Mbrb] {
            let direct =
                Movd::overlap_all_with(&sets, bounds(), mode, ExecConfig::serial()).unwrap();
            let (piped, meta) = build_movd(
                &sets,
                bounds(),
                mode,
                &BuildPlan::exact(),
                ExecConfig::serial(),
            )
            .unwrap();
            assert!(movd_bits_eq(&piped, &direct));
            assert_eq!(meta, BuildMeta::exact());
            assert_eq!(meta.certified_factor(), 1.0);
        }
    }

    #[test]
    fn epsilon_zero_normalizes_to_exact() {
        let sets = vec![pseudo_set("a", 8, 3), pseudo_set("b", 9, 4)];
        let direct =
            Movd::overlap_all_with(&sets, bounds(), Boundary::Rrb, ExecConfig::serial()).unwrap();
        let (piped, meta) = build_movd(
            &sets,
            bounds(),
            Boundary::Rrb,
            &BuildPlan::approx(0.0),
            ExecConfig::serial(),
        )
        .unwrap();
        assert!(!meta.mode.is_approx());
        assert!(movd_bits_eq(&piped, &direct));
    }

    #[test]
    fn approx_build_tiles_bounds_and_groups_every_type() {
        let sets = vec![pseudo_set("a", 15, 5), pseudo_set("b", 12, 6)];
        let (movd, meta) = build_movd(
            &sets,
            bounds(),
            Boundary::Rrb,
            &BuildPlan::approx(0.25),
            ExecConfig::serial(),
        )
        .unwrap();
        assert!(meta.mode.is_approx());
        assert!(meta.fully_certified());
        assert!(meta.leaves >= movd.len() as u64);
        assert!((movd.total_area() - bounds().area()).abs() < 1e-6 * bounds().area());
        for ovr in &movd.ovrs {
            assert_eq!(ovr.pois.len(), sets.len());
            for (t, poi) in ovr.pois.iter().enumerate() {
                assert_eq!(poi.set, t);
                assert!(poi.index < sets[t].len());
            }
        }
        // Canonical order, same law as the exact pipeline.
        assert!(movd.ovrs.windows(2).all(|w| w[0].pois < w[1].pois));
    }

    #[test]
    fn approx_solve_cost_is_within_the_certified_factor() {
        let sets = vec![pseudo_set("a", 10, 7), pseudo_set("b", 8, 8)];
        let query = MolqQuery::new(sets.clone(), bounds());
        let epsilon = 0.1;
        let (exact_movd, _) = build_movd(
            &sets,
            bounds(),
            Boundary::Rrb,
            &BuildPlan::exact(),
            ExecConfig::serial(),
        )
        .unwrap();
        let (approx_movd, meta) = build_movd(
            &sets,
            bounds(),
            Boundary::Rrb,
            &BuildPlan::approx(epsilon),
            ExecConfig::serial(),
        )
        .unwrap();
        let exact = solve_built(&query, &exact_movd);
        let approx = solve_built(&query, &approx_movd);
        // exact_opt ≤ approx_cost ≤ (1+ε)·exact_opt, with a hair of
        // Fermat–Weber stopping-rule slack.
        let slack = 1.0 + 1e-6;
        assert!(approx.cost >= exact.cost / slack);
        assert!(approx.cost <= meta.certified_factor() * exact.cost * slack);
        // And the reported location's true MWGD certifies the measured error.
        let measured = approx.cost / mwgd(approx.location, &query) - 1.0;
        assert!(measured <= epsilon + 1e-9, "measured error {measured}");
    }

    #[test]
    fn approx_rejects_degenerate_sets() {
        let empty = ObjectSet::uniform("e", 1.0, Vec::new());
        assert!(build_movd(
            &[empty],
            bounds(),
            Boundary::Rrb,
            &BuildPlan::approx(0.5),
            ExecConfig::serial(),
        )
        .is_err());
    }
}
