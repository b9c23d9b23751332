//! The Sequential Scan Combinations baseline (Algorithm 1).
//!
//! Enumerates every object combination `G ∈ P₁ × … × Pₙ`, computes the
//! Fermat–Weber optimum of each, and keeps the best. The exact two-point
//! optimum of each combination's first two objects provides the upper-bound
//! filter of lines 4–5, and the cost-bound prune of Algorithm 5 is applied
//! inside the iteration (§5.4: "the cost-bound approach can be used in the
//! SSC solution as well").

use crate::cancel::CancelToken;
use crate::error::MolqError;
use crate::exec::{ExecConfig, GroupScan, SharedBound};
use crate::object::{MolqQuery, ObjectRef};
use molq_fw::{solve_group_bounded, BatchStats, GroupOutcome};
use molq_geom::Point;

/// Answer of the SSC baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct SscAnswer {
    /// The optimal location.
    pub location: Point,
    /// `MWGD` at the optimal location (= the winning group's `WGD`).
    pub cost: f64,
    /// The winning combination.
    pub group: Vec<ObjectRef>,
    /// Combinations enumerated (`∏|Pᵢ|`).
    pub combinations: u128,
    /// Work counters (prefiltered counts are the Algorithm 1 line-5 skips).
    pub stats: BatchStats,
}

/// Solves the query by sequential scan (Algorithm 1).
///
/// Cost grows with `∏|Pᵢ|`; the caller is expected to keep set sizes small
/// (this is the paper's baseline, not a practical solution).
pub fn solve_ssc(query: &MolqQuery) -> Result<SscAnswer, MolqError> {
    solve_ssc_with(query, ExecConfig::default())
}

/// [`solve_ssc`] with an explicit execution configuration: the combination
/// scan runs on the [`GroupScan`] layer. Each scan index decodes to the
/// odometer's digits (mixed radix, last set fastest), so the enumeration
/// order — and with it the serial answer — is exactly Algorithm 1's.
pub fn solve_ssc_with(query: &MolqQuery, exec: ExecConfig) -> Result<SscAnswer, MolqError> {
    query.validate()?;
    let combos = query.combination_count();
    if combos > 50_000_000 {
        return Err(MolqError::TooManyCombinations(combos));
    }

    let ubound = SharedBound::new(f64::INFINITY);
    let never = CancelToken::never();
    let scan = GroupScan::new(combos as usize, exec, &never);
    let out = scan
        .run(|i, stats| {
            let group = decode_combo(query, i);
            let (pts, constant) = query.fw_terms(&group);
            let bound = ubound.get();
            match solve_group_bounded(&pts, constant, query.rule, bound, stats) {
                GroupOutcome::Solved(sol) if sol.cost <= bound => {
                    ubound.propose(sol.cost);
                    Some((sol.cost, sol.location))
                }
                _ => None,
            }
        })
        .expect("never-token scan cannot be cancelled");

    // Reduce by (cost, combination index): the first combination achieving
    // the global minimum, as the sequential strict-< update would keep.
    let mut best: Option<(usize, f64, Point)> = None;
    for &(i, (cost, location)) in &out.items {
        if best.is_none_or(|(_, c, _)| cost < c) {
            best = Some((i, cost, location));
        }
    }
    let (winner, cost, location) = best.expect("at least one combination solved");
    Ok(SscAnswer {
        location,
        cost,
        group: decode_combo(query, winner),
        combinations: combos,
        stats: out.stats,
    })
}

/// Decodes a combination index into the odometer's object group: the index
/// is the mixed-radix number whose least-significant digit is the last set
/// (the digit Algorithm 1's odometer increments first).
fn decode_combo(query: &MolqQuery, mut index: usize) -> Vec<ObjectRef> {
    let n = query.sets.len();
    let mut group: Vec<ObjectRef> = (0..n).map(|s| ObjectRef { set: s, index: 0 }).collect();
    for s in (0..n).rev() {
        let len = query.sets[s].len();
        group[s].index = index % len;
        index /= len;
    }
    group
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectSet;
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

    #[test]
    fn single_combination() {
        let a = ObjectSet::uniform("a", 1.0, vec![Point::new(0.0, 0.0)]);
        let b = ObjectSet::uniform("b", 1.0, vec![Point::new(10.0, 0.0)]);
        let q = MolqQuery::new(vec![a, b], Mbr::new(0.0, 0.0, 10.0, 10.0));
        let ans = solve_ssc(&q).unwrap();
        assert_eq!(ans.combinations, 1);
        // Equal weights: anywhere on the segment is optimal, cost = 10.
        assert!((ans.cost - 10.0).abs() < 1e-9);
    }

    #[test]
    fn answer_cost_matches_mwgd_at_location() {
        let q = MolqQuery::new(
            vec![
                pseudo_set("a", 2.0, 4, 1),
                pseudo_set("b", 1.0, 5, 2),
                pseudo_set("c", 3.0, 3, 3),
            ],
            Mbr::new(0.0, 0.0, 100.0, 100.0),
        )
        .with_rule(StoppingRule::Either(1e-9, 50_000));
        let ans = solve_ssc(&q).unwrap();
        assert_eq!(ans.combinations, 60);
        let direct = mwgd(ans.location, &q);
        assert!(
            (ans.cost - direct).abs() < 1e-6 * direct.max(1.0),
            "cost {} vs mwgd {}",
            ans.cost,
            direct
        );
    }

    #[test]
    fn beats_dense_grid_scan() {
        let q = MolqQuery::new(
            vec![pseudo_set("a", 1.0, 5, 7), pseudo_set("b", 2.0, 5, 8)],
            Mbr::new(0.0, 0.0, 100.0, 100.0),
        )
        .with_rule(StoppingRule::Either(1e-9, 50_000));
        let ans = solve_ssc(&q).unwrap();
        let mut grid_best = f64::INFINITY;
        for i in 0..=50 {
            for j in 0..=50 {
                let p = Point::new(i as f64 * 2.0, j as f64 * 2.0);
                grid_best = grid_best.min(mwgd(p, &q));
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
    fn filter_reduces_work() {
        let q = MolqQuery::new(
            vec![
                pseudo_set("a", 1.0, 8, 21),
                pseudo_set("b", 1.0, 8, 22),
                pseudo_set("c", 1.0, 8, 23),
                pseudo_set("d", 1.0, 8, 24),
            ],
            Mbr::new(0.0, 0.0, 100.0, 100.0),
        );
        let ans = solve_ssc(&q).unwrap();
        assert!(
            ans.stats.prefiltered_groups + ans.stats.pruned_groups > 0,
            "no filtering happened: {:?}",
            ans.stats
        );
    }

    #[test]
    fn refuses_explosive_products() {
        let q = MolqQuery::new(
            vec![
                pseudo_set("a", 1.0, 5000, 1),
                pseudo_set("b", 1.0, 5000, 2),
                pseudo_set("c", 1.0, 5000, 3),
            ],
            Mbr::new(0.0, 0.0, 100.0, 100.0),
        );
        assert!(solve_ssc(&q).is_err());
    }
}
