//! The MOVD-based solutions (§5): VD Generator → MOVD Overlapper →
//! cost-bound Optimizer, with either the RRB or the MBRB boundary
//! representation.

use crate::arena::{FwLanes, MovdArena};
use crate::cancel::CancelToken;
use crate::error::MolqError;
use crate::exec::{ExecConfig, GroupScan, SharedBound};
use crate::movd::Movd;
use crate::object::MolqQuery;
use crate::region::Boundary;
use molq_fw::{solve_group_bounded, BatchStats, GroupOutcome};
use molq_geom::Point;

/// Answer of an MOVD-based solve, with the instrumentation the experiments
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct MovdAnswer {
    /// The optimal location.
    pub location: Point,
    /// `MWGD` at the optimal location.
    pub cost: f64,
    /// Number of OVRs the overlapper produced (Fig 12 / Fig 14(c)).
    pub ovr_count: usize,
    /// Deep memory footprint of the final MOVD in bytes (Fig 13 / Fig 14(d)).
    pub movd_bytes: usize,
    /// The certified approximation factor of the diagram the answer was
    /// computed over: `cost ≤ certified_factor · exact_opt`. Exactly `1.0`
    /// for exact diagrams; `1 + ε` for approximate builds (the serving layer
    /// stamps it from the snapshot's build metadata).
    pub certified_factor: f64,
    /// Optimizer work counters.
    pub stats: BatchStats,
}

impl MovdAnswer {
    /// The answer with its certified approximation factor stamped on —
    /// called by the serving layer with the snapshot's build metadata.
    pub fn with_certified_factor(mut self, factor: f64) -> MovdAnswer {
        self.certified_factor = factor;
        self
    }

    /// A lower bound on the true optimal cost implied by the certificate:
    /// `cost / certified_factor ≤ exact_opt ≤ cost`.
    pub fn cost_lower_bound(&self) -> f64 {
        self.cost / self.certified_factor
    }
}

/// Solves the query through the MOVD pipeline with the given boundary mode.
pub fn solve_movd(query: &MolqQuery, mode: Boundary) -> Result<MovdAnswer, MolqError> {
    solve_movd_with(query, mode, ExecConfig::default())
}

/// [`solve_movd`] with an explicit execution configuration: both the MOVD
/// rebuild (pairwise overlap intersections) and the Optimizer scan use
/// `exec.threads` workers.
pub fn solve_movd_with(
    query: &MolqQuery,
    mode: Boundary,
    exec: ExecConfig,
) -> Result<MovdAnswer, MolqError> {
    query.validate()?;
    let movd = Movd::overlap_all_with(&query.sets, query.bounds, mode, exec)?;
    optimize(query, &movd, &CancelToken::never(), exec)
}

/// The Real Region as Boundary solution (§5.2).
pub fn solve_rrb(query: &MolqQuery) -> Result<MovdAnswer, MolqError> {
    solve_movd(query, Boundary::Rrb)
}

/// The Minimum Bounding Rectangle as Boundary solution (§5.3).
pub fn solve_mbrb(query: &MolqQuery) -> Result<MovdAnswer, MolqError> {
    solve_movd(query, Boundary::Mbrb)
}

/// The general RRB solution for queries with *non-uniform object weights*:
/// weighted dominance regions are approximated by dilated raster contours
/// (supersets of the true regions, so the answer stays exact) and
/// intersected with the Greiner–Hormann clipper — the configuration where
/// the paper used the GPC library. `raster_res` trades false positives for
/// raster cost (64–256 is typical).
pub fn solve_weighted_rrb(query: &MolqQuery, raster_res: usize) -> Result<MovdAnswer, MolqError> {
    solve_weighted_rrb_cancellable(query, raster_res, &CancelToken::never())
}

/// [`solve_weighted_rrb`] with cooperative cancellation, so weighted queries
/// respect serving deadlines like `solve`/`topk`/`locate` do. The build phase
/// checks `cancel` once per object set (reporting `completed/total` in sets);
/// the Optimizer scan checks it per group as usual.
pub fn solve_weighted_rrb_cancellable(
    query: &MolqQuery,
    raster_res: usize,
    cancel: &CancelToken,
) -> Result<MovdAnswer, MolqError> {
    solve_weighted_rrb_with(query, raster_res, cancel, ExecConfig::default())
}

/// [`solve_weighted_rrb_cancellable`] with an explicit execution
/// configuration.
pub fn solve_weighted_rrb_with(
    query: &MolqQuery,
    raster_res: usize,
    cancel: &CancelToken,
    exec: ExecConfig,
) -> Result<MovdAnswer, MolqError> {
    query.validate()?;
    let mut movd = Movd::identity(query.bounds);
    for (i, set) in query.sets.iter().enumerate() {
        if cancel.checkpoint() {
            return Err(MolqError::Cancelled {
                completed: i,
                total: query.sets.len(),
            });
        }
        let basic = Movd::basic_approx(set, i, query.bounds, raster_res)?;
        movd = movd.overlap_with(&basic, Boundary::Rrb, exec);
    }
    optimize(query, &movd, cancel, exec)
}

/// Runs the cost-bound Optimizer (Algorithm 5) over an already-built,
/// arena-backed MOVD with prebuilt cost lanes.
///
/// This is the serving-path entry point: a long-lived system builds the
/// MOVD once (the expensive part), pins one [`FwLanes`] per snapshot, and
/// answers every later query by streaming contiguous weighted-point runs.
/// The arena must have been built from `query`'s object sets. The scan
/// checks `cancel` once per OVR group and returns
/// [`MolqError::Cancelled`] (with progress counters) when it has fired.
///
/// Answers are bit-identical to the one-shot [`solve_movd_with`], which
/// lowers its freshly built diagram and runs this same scan.
pub fn solve_arena_cancellable_with(
    query: &MolqQuery,
    arena: &MovdArena,
    lanes: &FwLanes,
    cancel: &CancelToken,
    exec: ExecConfig,
) -> Result<MovdAnswer, MolqError> {
    query.validate()?;
    optimize_lanes(query, lanes, arena.footprint_bytes(), cancel, exec)
}

/// The one-shot paper pipeline's Optimizer: lowers the freshly built
/// diagram into its arena and runs the same scan the serving path does.
fn optimize(
    query: &MolqQuery,
    movd: &Movd,
    cancel: &CancelToken,
    exec: ExecConfig,
) -> Result<MovdAnswer, MolqError> {
    let arena = MovdArena::from_movd(movd);
    let lanes = FwLanes::from_arena(query, &arena);
    optimize_lanes(query, &lanes, arena.footprint_bytes(), cancel, exec)
}

/// The Optimizer over the SoA cost lanes: one Fermat–Weber problem per OVR,
/// sharing a global cost bound (Algorithm 5), executed on the [`GroupScan`]
/// layer. Correctness does not require the local optimum to stay inside its
/// OVR (§5.3, Fig 7): each candidate's `WGD` upper-bounds the global
/// optimum, and the OVR containing the true optimum contributes a candidate
/// at least as good. (MBRB false positives could merge fewer types than the
/// query has only if a type's diagram failed to cover the OVR — impossible
/// by Property 3 — so every group has one object per type.)
///
/// Determinism: a candidate is emitted whenever its cost is within the bound
/// it was solved under (`<=`, so equal-cost candidates all survive), and the
/// winner is the minimum by `(cost, group index)` — which is exactly the
/// group the old sequential strict-`<` update would have kept.
fn optimize_lanes(
    query: &MolqQuery,
    lanes: &FwLanes,
    movd_bytes: usize,
    cancel: &CancelToken,
    exec: ExecConfig,
) -> Result<MovdAnswer, MolqError> {
    let bound = SharedBound::new(f64::INFINITY);
    let scan = GroupScan::new(lanes.len(), exec, cancel);
    let out = scan.run(|i, stats| {
        let (pts, constant) = lanes.group(i);
        let cbound = bound.get();
        match solve_group_bounded(pts, constant, query.rule, cbound, stats) {
            GroupOutcome::Solved(sol) if sol.cost <= cbound => {
                bound.propose(sol.cost);
                Some((sol.cost, sol.location))
            }
            _ => None,
        }
    })?;

    let mut best: Option<(f64, Point)> = None;
    for &(_, (cost, location)) in &out.items {
        if best.is_none_or(|(c, _)| cost < c) {
            best = Some((cost, location));
        }
    }
    let (cost, location) = best.ok_or(MolqError::NoCandidates)?;
    Ok(MovdAnswer {
        location,
        cost,
        ovr_count: lanes.len(),
        movd_bytes,
        certified_factor: 1.0,
        stats: out.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_movd, BuildPlan};
    use crate::object::ObjectSet;
    use crate::solutions::ssc::solve_ssc;
    use crate::weights::mwgd;
    use molq_fw::StoppingRule;
    use molq_geom::{Mbr, Point};

    fn pseudo_set(name: &str, w_t: f64, n: usize, seed: u64) -> ObjectSet {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as f64 / u32::MAX as f64
        };
        ObjectSet::uniform(
            name,
            w_t,
            (0..n)
                .map(|_| Point::new(next() * 100.0, next() * 100.0))
                .collect(),
        )
    }

    fn three_type_query(sizes: [usize; 3]) -> MolqQuery {
        MolqQuery::new(
            vec![
                pseudo_set("a", 2.0, sizes[0], 101),
                pseudo_set("b", 1.0, sizes[1], 202),
                pseudo_set("c", 3.0, sizes[2], 303),
            ],
            Mbr::new(0.0, 0.0, 100.0, 100.0),
        )
        .with_rule(StoppingRule::Either(1e-9, 50_000))
    }

    #[test]
    fn rrb_matches_ssc() {
        let q = three_type_query([5, 6, 4]);
        let ssc = solve_ssc(&q).unwrap();
        let rrb = solve_rrb(&q).unwrap();
        assert!(
            (ssc.cost - rrb.cost).abs() < 1e-6 * ssc.cost,
            "ssc {} vs rrb {}",
            ssc.cost,
            rrb.cost
        );
    }

    #[test]
    fn mbrb_matches_ssc() {
        let q = three_type_query([5, 6, 4]);
        let ssc = solve_ssc(&q).unwrap();
        let mbrb = solve_mbrb(&q).unwrap();
        assert!(
            (ssc.cost - mbrb.cost).abs() < 1e-6 * ssc.cost,
            "ssc {} vs mbrb {}",
            ssc.cost,
            mbrb.cost
        );
    }

    /// The serving path: the Optimizer over a prebuilt arena and its lanes.
    fn solve_served(
        q: &MolqQuery,
        arena: &MovdArena,
        cancel: &CancelToken,
        exec: ExecConfig,
    ) -> Result<MovdAnswer, MolqError> {
        solve_arena_cancellable_with(q, arena, &FwLanes::from_arena(q, arena), cancel, exec)
    }

    fn rrb_arena(q: &MolqQuery) -> MovdArena {
        MovdArena::from_movd(&Movd::overlap_all(&q.sets, q.bounds, Boundary::Rrb).unwrap())
    }

    #[test]
    fn prebuilt_solve_matches_fresh_solve() {
        let q = three_type_query([6, 5, 7]);
        let arena = rrb_arena(&q);
        let fresh = solve_rrb(&q).unwrap();
        // Serving path: solve twice from the same prebuilt diagram.
        for _ in 0..2 {
            let served =
                solve_served(&q, &arena, &CancelToken::never(), ExecConfig::default()).unwrap();
            assert_eq!(served.location, fresh.location);
            assert_eq!(served.cost, fresh.cost);
            assert_eq!(served.ovr_count, fresh.ovr_count);
        }
    }

    #[test]
    fn one_shot_solve_is_bit_identical_to_built_arena_solve() {
        let q = three_type_query([6, 5, 7]);
        for mode in [Boundary::Rrb, Boundary::Mbrb] {
            for threads in [1, 4] {
                let exec = ExecConfig { threads };
                let (movd, _) =
                    build_movd(&q.sets, q.bounds, mode, &BuildPlan::exact(), exec).unwrap();
                let arena = MovdArena::from_movd(&movd);
                let one_shot = solve_movd_with(&q, mode, exec).unwrap();
                let served = solve_served(&q, &arena, &CancelToken::never(), exec).unwrap();
                assert_eq!(one_shot.location.x.to_bits(), served.location.x.to_bits());
                assert_eq!(one_shot.location.y.to_bits(), served.location.y.to_bits());
                assert_eq!(one_shot.cost.to_bits(), served.cost.to_bits());
                assert_eq!(one_shot.ovr_count, served.ovr_count);
                assert_eq!(one_shot.movd_bytes, served.movd_bytes);
            }
        }
    }

    #[test]
    fn cancelled_solve_stops_with_partial_progress() {
        let q = three_type_query([6, 5, 7]);
        let arena = rrb_arena(&q);
        let exec = ExecConfig::default();

        // A pre-cancelled token stops before any group.
        let token = CancelToken::new();
        token.cancel();
        match solve_served(&q, &arena, &token, exec) {
            Err(MolqError::Cancelled { completed, total }) => {
                assert_eq!(completed, 0);
                assert_eq!(total, arena.len());
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }

        // An expired deadline stops mid-scan too (first checkpoint).
        let expired = CancelToken::with_deadline(std::time::Instant::now());
        assert!(matches!(
            solve_served(&q, &arena, &expired, exec),
            Err(MolqError::Cancelled { .. })
        ));

        // A token that never fires matches the plain solve exactly.
        let fresh = solve_served(&q, &arena, &CancelToken::never(), exec).unwrap();
        let open = CancelToken::new();
        let answered = solve_served(&q, &arena, &open, exec).unwrap();
        assert_eq!(fresh.location, answered.location);
        assert_eq!(fresh.cost, answered.cost);
    }

    #[test]
    fn rrb_evaluates_far_fewer_groups_than_ssc() {
        let q = three_type_query([10, 10, 10]);
        let rrb = solve_rrb(&q).unwrap();
        // SSC would enumerate 1000 combinations; the MOVD filters most.
        assert!(
            (rrb.ovr_count as u128) < q.combination_count() / 2,
            "ovr count {} vs {} combinations",
            rrb.ovr_count,
            q.combination_count()
        );
    }

    #[test]
    fn mbrb_produces_more_ovrs_but_same_answer() {
        let q = three_type_query([8, 8, 8]);
        let rrb = solve_rrb(&q).unwrap();
        let mbrb = solve_mbrb(&q).unwrap();
        assert!(mbrb.ovr_count >= rrb.ovr_count);
        assert!((rrb.cost - mbrb.cost).abs() < 1e-6 * rrb.cost);
    }

    #[test]
    fn answer_cost_equals_mwgd_at_location() {
        let q = three_type_query([7, 5, 6]);
        for solve in [solve_rrb, solve_mbrb] {
            let ans = solve(&q).unwrap();
            let direct = mwgd(ans.location, &q);
            assert!(
                (ans.cost - direct).abs() < 1e-6 * direct.max(1.0),
                "cost {} vs mwgd {}",
                ans.cost,
                direct
            );
        }
    }

    #[test]
    fn beats_dense_grid_scan() {
        let q = three_type_query([6, 6, 6]);
        let ans = solve_rrb(&q).unwrap();
        let mut grid_best = f64::INFINITY;
        for i in 0..=100 {
            for j in 0..=100 {
                grid_best = grid_best.min(mwgd(Point::new(i as f64, j as f64), &q));
            }
        }
        assert!(
            ans.cost <= grid_best + 1e-6,
            "{} vs {}",
            ans.cost,
            grid_best
        );
    }

    #[test]
    fn single_type_query_works() {
        // One type: the answer is at (weighted) distance 0 from some object.
        let q = MolqQuery::new(
            vec![pseudo_set("a", 1.0, 10, 5)],
            Mbr::new(0.0, 0.0, 100.0, 100.0),
        );
        let ans = solve_rrb(&q).unwrap();
        assert!(ans.cost < 1e-9);
    }

    #[test]
    fn weighted_rrb_matches_ssc_on_nonuniform_weights() {
        use crate::object::SpatialObject;
        use crate::weights::WeightFunction;
        // Two types with genuinely non-uniform object weights: the basic
        // diagrams are weighted, exercising the General-region RRB path.
        let mut s = 77u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as f64 / u32::MAX as f64
        };
        let mut mk = |name: &str, n: usize, w_t: f64| {
            let objects = (0..n)
                .map(|_| SpatialObject {
                    loc: Point::new(next() * 100.0, next() * 100.0),
                    w_t,
                    w_o: 0.5 + next() * 2.0,
                })
                .collect();
            ObjectSet::weighted(name, objects, WeightFunction::Multiplicative)
        };
        let q = MolqQuery::new(
            vec![mk("a", 6, 2.0), mk("b", 7, 1.0)],
            Mbr::new(0.0, 0.0, 100.0, 100.0),
        )
        .with_rule(StoppingRule::Either(1e-9, 50_000));
        let ssc = solve_ssc(&q).unwrap();
        let wrrb = solve_weighted_rrb(&q, 96).unwrap();
        let mbrb = solve_mbrb(&q).unwrap();
        let tol = 1e-6 * ssc.cost;
        assert!(
            (ssc.cost - wrrb.cost).abs() < tol,
            "ssc {} wrrb {}",
            ssc.cost,
            wrrb.cost
        );
        assert!(
            (ssc.cost - mbrb.cost).abs() < tol,
            "ssc {} mbrb {}",
            ssc.cost,
            mbrb.cost
        );
        // The approximated real regions filter better than bare MBRs.
        assert!(wrrb.ovr_count <= mbrb.ovr_count);
    }

    #[test]
    fn weighted_rrb_keeps_subraster_bubbles() {
        use crate::object::SpatialObject;
        use crate::weights::WeightFunction;
        // Regression: a very heavy site's dominance bubble is smaller than a
        // raster cell; the object must still reach the optimizer (via its
        // analytic MBR fallback), not be silently dropped.
        let a = ObjectSet::weighted(
            "a",
            vec![
                SpatialObject {
                    loc: Point::new(20.0, 50.0),
                    w_t: 1.0,
                    w_o: 1.0,
                },
                // Bubble radius shrinks with the weight ratio: w_o = 200
                // against a neighbour at distance ~30 leaves well under one
                // 96-cell raster pixel of a 100-unit domain.
                SpatialObject {
                    loc: Point::new(50.0, 50.0),
                    w_t: 1.0,
                    w_o: 200.0,
                },
            ],
            WeightFunction::Multiplicative,
        );
        let b = ObjectSet::uniform(
            "b",
            1.0,
            vec![Point::new(50.0, 50.5), Point::new(90.0, 90.0)],
        );
        let q = MolqQuery::new(vec![a, b], Mbr::new(0.0, 0.0, 100.0, 100.0))
            .with_rule(StoppingRule::Either(1e-9, 50_000));
        let ssc = solve_ssc(&q).unwrap();
        let wrrb = solve_weighted_rrb(&q, 96).unwrap();
        assert!(
            (ssc.cost - wrrb.cost).abs() < 1e-6 * ssc.cost.max(1.0),
            "ssc {} vs wrrb {}",
            ssc.cost,
            wrrb.cost
        );
    }

    #[test]
    fn four_types_agree_across_solutions() {
        let q = MolqQuery::new(
            vec![
                pseudo_set("a", 1.0, 4, 11),
                pseudo_set("b", 2.0, 4, 12),
                pseudo_set("c", 1.5, 4, 13),
                pseudo_set("d", 0.5, 4, 14),
            ],
            Mbr::new(0.0, 0.0, 100.0, 100.0),
        )
        .with_rule(StoppingRule::Either(1e-6, 50_000));
        let ssc = solve_ssc(&q).unwrap();
        let rrb = solve_rrb(&q).unwrap();
        let mbrb = solve_mbrb(&q).unwrap();
        let tol = 1e-3 * ssc.cost;
        assert!(
            (ssc.cost - rrb.cost).abs() < tol,
            "{} {}",
            ssc.cost,
            rrb.cost
        );
        assert!(
            (ssc.cost - mbrb.cost).abs() < tol,
            "{} {}",
            ssc.cost,
            mbrb.cost
        );
    }
}
