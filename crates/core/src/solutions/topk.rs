//! Top-k optimal locations.
//!
//! Planners rarely want a single coordinate: land may be unavailable, prices
//! differ, stakeholders veto. This extension returns the `k` best *distinct*
//! candidate locations, each being the Fermat–Weber optimum of some
//! overlapped Voronoi region's object group, ranked by `MWGD`.
//!
//! The cost-bound machinery generalises cleanly: the pruning bound is the
//! current k-th best cost instead of the single best.

use crate::arena::{FwLanes, MovdArena};
use crate::cancel::CancelToken;
use crate::error::MolqError;
use crate::exec::{ExecConfig, GroupScan, SharedBound};
use crate::movd::Movd;
use crate::object::{MolqQuery, ObjectRef};
use crate::region::Boundary;
use molq_fw::{solve_group_bounded, BatchStats, GroupOutcome};
use molq_geom::Point;
use std::sync::Mutex;

/// One ranked candidate location.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The location.
    pub location: Point,
    /// `MWGD` at the location (the group's `WGD`).
    pub cost: f64,
    /// The serving object group (one object per type).
    pub group: Vec<ObjectRef>,
}

/// Answer of a top-k solve.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKAnswer {
    /// The `k` (or fewer, when the diagram has fewer distinct groups)
    /// best candidates, ascending by cost.
    pub candidates: Vec<Candidate>,
    /// OVRs the overlapper produced.
    pub ovr_count: usize,
    /// The certified approximation factor of the diagram (see
    /// `MovdAnswer::certified_factor`): every candidate's cost is at most
    /// this multiple of the best cost any group could achieve at its rank.
    pub certified_factor: f64,
    /// Optimizer work counters.
    pub stats: BatchStats,
}

impl TopKAnswer {
    /// The answer with its certified approximation factor stamped on —
    /// called by the serving layer with the snapshot's build metadata.
    pub fn with_certified_factor(mut self, factor: f64) -> TopKAnswer {
        self.certified_factor = factor;
        self
    }
}

/// Minimum separation between reported locations, as a fraction of the
/// search-space diagonal — distinct candidates should be *usefully*
/// distinct, not the same corner reached from two adjacent OVRs.
const DISTINCT_FRACTION: f64 = 1e-6;

/// Solves the query and returns the `k` best distinct candidate locations.
pub fn solve_topk(query: &MolqQuery, mode: Boundary, k: usize) -> Result<TopKAnswer, MolqError> {
    solve_topk_with(query, mode, k, ExecConfig::default())
}

/// [`solve_topk`] with an explicit execution configuration: both the MOVD
/// rebuild and the top-k scan use `exec.threads` workers.
pub fn solve_topk_with(
    query: &MolqQuery,
    mode: Boundary,
    k: usize,
    exec: ExecConfig,
) -> Result<TopKAnswer, MolqError> {
    query.validate()?;
    let movd = Movd::overlap_all_with(&query.sets, query.bounds, mode, exec)?;
    let arena = MovdArena::from_movd(&movd);
    let lanes = FwLanes::from_arena(query, &arena);
    solve_topk_arena_cancellable_with(query, &arena, &lanes, k, &CancelToken::never(), exec)
}

/// Top-k over an arena-backed diagram with prebuilt cost lanes (the serving
/// path — see `solve_arena_cancellable_with`), on the [`GroupScan`] layer.
/// Checks `cancel` once per OVR group and returns [`MolqError::Cancelled`]
/// (with progress counters) when the token has fired. Bit-identical to the
/// one-shot [`solve_topk_with`], which lowers its diagram and runs this scan.
///
/// Top-k selection is order-sensitive (spatial dedup can merge candidates),
/// so the scan emits *every* solved, contained candidate and the final
/// ranking is decided by replaying them in group-index order through
/// [`admit`] — exactly what the sequential loop would do. During the scan, a
/// mutex-guarded ranking maintained with the same admission rules feeds the
/// k-th-best cost into a [`SharedBound`] used purely for pruning: the list
/// only ever improves, so that bound is monotonically non-increasing and can
/// never prune a candidate that belongs in the final top-k.
pub fn solve_topk_arena_cancellable_with(
    query: &MolqQuery,
    arena: &MovdArena,
    lanes: &FwLanes,
    k: usize,
    cancel: &CancelToken,
    exec: ExecConfig,
) -> Result<TopKAnswer, MolqError> {
    query.validate()?;
    assert!(k >= 1, "k must be at least 1");
    let min_sep =
        DISTINCT_FRACTION * (query.bounds.width().powi(2) + query.bounds.height().powi(2)).sqrt();

    let ranking: Mutex<Vec<Candidate>> = Mutex::new(Vec::with_capacity(k + 1));
    let bound = SharedBound::new(f64::INFINITY);
    let scan = GroupScan::new(arena.len(), exec, cancel);
    let out = scan.run(|i, stats| {
        // Prune against the current k-th best (∞ until the list fills).
        let kth = bound.get();
        let (pts, constant) = lanes.group(i);
        let GroupOutcome::Solved(sol) = solve_group_bounded(pts, constant, query.rule, kth, stats)
        else {
            return None;
        };
        // The unconstrained Fermat–Weber optimum is only a valid candidate
        // inside the group's own OVR: there Property 5 makes the group the
        // minimal server, so the reported cost is the true MWGD at the
        // location. Outside, another group serves more cheaply and that
        // region's own solve covers the area.
        if !arena.contains(i, sol.location) {
            return None;
        }
        if sol.cost < kth {
            // Feed the pruning bound; groups are attached only in the replay.
            let mut list = ranking.lock().expect("ranking mutex poisoned");
            admit(&mut list, sol.location, sol.cost, &[], k, min_sep);
            if list.len() == k {
                bound.propose(list[k - 1].cost);
            }
        }
        Some((sol.location, sol.cost))
    })?;

    let mut best: Vec<Candidate> = Vec::with_capacity(k + 1);
    for &(i, (location, cost)) in &out.items {
        admit(&mut best, location, cost, arena.group(i), k, min_sep);
    }
    if best.is_empty() {
        return Err(MolqError::NoCandidates);
    }
    Ok(TopKAnswer {
        candidates: best,
        ovr_count: arena.len(),
        certified_factor: 1.0,
        stats: out.stats,
    })
}

/// Admits one candidate into a cost-ascending top-k list, preserving the
/// invariant that the list is sorted at all times — so `best[k-1].cost` is
/// always the true k-th best pruning bound.
///
/// A near-coincident cheaper candidate *replaces* its existing twin by
/// remove-and-reinsert rather than in-place mutation: mutating `cost` in
/// place would leave the list non-ascending until the next sort, corrupting
/// the bound and the final ranking.
fn admit(
    best: &mut Vec<Candidate>,
    location: Point,
    cost: f64,
    group: &[ObjectRef],
    k: usize,
    min_sep: f64,
) {
    let kth = if best.len() < k {
        f64::INFINITY
    } else {
        best[k - 1].cost
    };
    if cost >= kth {
        return;
    }
    // Spatial dedup: keep the cheaper of two near-coincident candidates.
    if let Some(pos) = best
        .iter()
        .position(|c| c.location.dist(location) <= min_sep)
    {
        if cost >= best[pos].cost {
            return;
        }
        best.remove(pos);
    }
    let at = best.partition_point(|c| c.cost <= cost);
    best.insert(
        at,
        Candidate {
            location,
            cost,
            group: group.to_vec(),
        },
    );
    best.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_movd, BuildPlan};
    use crate::object::ObjectSet;
    use crate::solutions::movd_based::solve_rrb;
    use crate::weights::mwgd;
    use molq_fw::StoppingRule;
    use molq_geom::Mbr;

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

    fn query() -> MolqQuery {
        MolqQuery::new(
            vec![
                pseudo_set("a", 2.0, 12, 81),
                pseudo_set("b", 1.0, 14, 82),
                pseudo_set("c", 1.5, 10, 83),
            ],
            Mbr::new(0.0, 0.0, 100.0, 100.0),
        )
        .with_rule(StoppingRule::Either(1e-9, 50_000))
    }

    #[test]
    fn top1_matches_solve_rrb() {
        let q = query();
        let single = solve_rrb(&q).unwrap();
        let topk = solve_topk(&q, Boundary::Rrb, 1).unwrap();
        assert_eq!(topk.candidates.len(), 1);
        assert!(
            (topk.candidates[0].cost - single.cost).abs() < 1e-9 * single.cost,
            "{} vs {}",
            topk.candidates[0].cost,
            single.cost
        );
    }

    #[test]
    fn candidates_are_sorted_distinct_and_consistent() {
        let q = query();
        let topk = solve_topk(&q, Boundary::Rrb, 5).unwrap();
        assert_eq!(topk.candidates.len(), 5);
        for w in topk.candidates.windows(2) {
            assert!(w[0].cost <= w[1].cost);
            assert!(w[0].location.dist(w[1].location) > 1e-9);
        }
        // Reported costs equal the direct MWGD at each location.
        for c in &topk.candidates {
            let direct = mwgd(c.location, &q);
            assert!(
                (c.cost - direct).abs() < 1e-6 * direct.max(1.0),
                "cost {} vs mwgd {}",
                c.cost,
                direct
            );
        }
    }

    /// The serving path: top-k over a prebuilt arena and its lanes.
    fn topk_served(
        q: &MolqQuery,
        arena: &MovdArena,
        k: usize,
        cancel: &CancelToken,
        exec: ExecConfig,
    ) -> Result<TopKAnswer, MolqError> {
        let lanes = FwLanes::from_arena(q, arena);
        solve_topk_arena_cancellable_with(q, arena, &lanes, k, cancel, exec)
    }

    fn rrb_arena(q: &MolqQuery) -> MovdArena {
        MovdArena::from_movd(&Movd::overlap_all(&q.sets, q.bounds, Boundary::Rrb).unwrap())
    }

    #[test]
    fn prebuilt_topk_matches_fresh_topk() {
        let q = query();
        let arena = rrb_arena(&q);
        let fresh = solve_topk(&q, Boundary::Rrb, 4).unwrap();
        let served =
            topk_served(&q, &arena, 4, &CancelToken::never(), ExecConfig::default()).unwrap();
        assert_eq!(fresh.candidates, served.candidates);
    }

    #[test]
    fn mbrb_topk_matches_rrb_topk_costs() {
        let q = query();
        let a = solve_topk(&q, Boundary::Rrb, 3).unwrap();
        let b = solve_topk(&q, Boundary::Mbrb, 3).unwrap();
        for (x, y) in a.candidates.iter().zip(b.candidates.iter()) {
            assert!(
                (x.cost - y.cost).abs() < 1e-6 * x.cost.max(1.0),
                "{} vs {}",
                x.cost,
                y.cost
            );
        }
    }

    #[test]
    fn one_shot_topk_is_bit_identical_to_built_arena_topk() {
        let q = query();
        for mode in [Boundary::Rrb, Boundary::Mbrb] {
            for threads in [1, 4] {
                let exec = ExecConfig { threads };
                let (movd, _) =
                    build_movd(&q.sets, q.bounds, mode, &BuildPlan::exact(), exec).unwrap();
                let arena = MovdArena::from_movd(&movd);
                let one_shot = solve_topk_with(&q, mode, 4, exec).unwrap();
                let served = topk_served(&q, &arena, 4, &CancelToken::never(), exec).unwrap();
                assert_eq!(one_shot.candidates, served.candidates);
                assert_eq!(one_shot.ovr_count, served.ovr_count);
            }
        }
    }

    #[test]
    fn cancelled_topk_reports_progress() {
        let q = query();
        let arena = rrb_arena(&q);
        let exec = ExecConfig::default();
        let token = CancelToken::new();
        token.cancel();
        match topk_served(&q, &arena, 3, &token, exec) {
            Err(crate::error::MolqError::Cancelled { completed, total }) => {
                assert_eq!(completed, 0);
                assert_eq!(total, arena.len());
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // An open token answers identically to a token that never fires.
        let open = CancelToken::new();
        assert_eq!(
            topk_served(&q, &arena, 3, &CancelToken::never(), exec)
                .unwrap()
                .candidates,
            topk_served(&q, &arena, 3, &open, exec).unwrap().candidates
        );
    }

    #[test]
    fn cheaper_duplicate_into_full_list_stays_sorted() {
        // Regression for the ordering bug: admitting a cheaper near-twin of
        // an already-ranked candidate must keep the list cost-ascending (the
        // old in-place `existing.cost = ...` mutation left it unsorted, so
        // `best[k-1].cost` — the pruning bound — could be wrong).
        let k = 3;
        let min_sep = 0.5;
        let mut best = Vec::new();
        for (i, cost) in [1.0, 2.0, 3.0].into_iter().enumerate() {
            admit(
                &mut best,
                Point::new(10.0 * i as f64, 0.0),
                cost,
                &[],
                k,
                min_sep,
            );
        }
        assert_eq!(best.len(), k);
        // A near-coincident twin of the worst (cost 3.0 at x = 20) arrives
        // cheaper than everything: it must replace its twin AND move to the
        // front, leaving the bound at 2.0 — not stay third with cost 0.5.
        admit(&mut best, Point::new(20.1, 0.0), 0.5, &[], k, min_sep);
        assert_eq!(best.len(), k);
        let costs: Vec<f64> = best.iter().map(|c| c.cost).collect();
        assert_eq!(costs, vec![0.5, 1.0, 2.0]);
        assert!(best.windows(2).all(|w| w[0].cost <= w[1].cost));
        // The replaced twin is gone, not duplicated.
        assert_eq!(
            best.iter()
                .filter(|c| c.location.dist(Point::new(20.1, 0.0)) <= min_sep)
                .count(),
            1
        );
        // And a more expensive near-twin never downgrades an entry.
        admit(&mut best, Point::new(0.05, 0.0), 1.5, &[], k, min_sep);
        let costs: Vec<f64> = best.iter().map(|c| c.cost).collect();
        assert_eq!(costs, vec![0.5, 1.0, 2.0]);
    }

    #[test]
    fn k_larger_than_groups_returns_what_exists() {
        let q = MolqQuery::new(
            vec![pseudo_set("a", 1.0, 2, 9)],
            Mbr::new(0.0, 0.0, 100.0, 100.0),
        );
        let topk = solve_topk(&q, Boundary::Rrb, 10).unwrap();
        assert!(topk.candidates.len() <= 2);
        assert!(!topk.candidates.is_empty());
    }
}
