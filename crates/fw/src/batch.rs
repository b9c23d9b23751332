//! Batched Fermat–Weber solving: the sequential baseline and the cost-bound
//! approach (Algorithm 5 of the paper).

use crate::exact;
use crate::types::{cost, FwSolution, StoppingRule, WeightedPoint};
use crate::weiszfeld::{lower_bound, vardi_zhang_step};
use molq_geom::Point;

/// Statistics from a batch solve, used by the Fig 10 experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Groups solved through the exact closed-form cases.
    pub exact_groups: usize,
    /// Groups skipped by the two-point prefilter (lines 9–12 of Algorithm 5).
    pub prefiltered_groups: usize,
    /// Groups whose iteration was abandoned by the lower-bound prune
    /// (line 16, `Lbound ≥ Cbound`).
    pub pruned_groups: usize,
    /// Total iterations performed across all groups.
    pub iterations: usize,
}

/// Result of a batch solve: the best location over all groups plus counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchSolution {
    /// Best location found.
    pub location: Point,
    /// Its cost (within the group that produced it).
    pub cost: f64,
    /// Index of the winning group.
    pub group: usize,
    /// Work counters.
    pub stats: BatchStats,
}

/// The baseline ("Original" in Fig 10): solve every group to the stopping
/// rule independently and keep the best.
pub fn solve_sequential(
    groups: &[Vec<WeightedPoint>],
    rule: StoppingRule,
) -> Option<BatchSolution> {
    let mut best: Option<BatchSolution> = None;
    let mut stats = BatchStats::default();
    for (gi, g) in groups.iter().enumerate() {
        if g.is_empty() {
            continue;
        }
        let sol = crate::weiszfeld::solve(g, rule);
        stats.iterations += sol.iterations;
        if sol.exact {
            stats.exact_groups += 1;
        }
        if best.map(|b| sol.cost < b.cost).unwrap_or(true) {
            best = Some(BatchSolution {
                location: sol.location,
                cost: sol.cost,
                group: gi,
                stats,
            });
        }
    }
    best.map(|mut b| {
        b.stats = stats;
        b
    })
}

/// Outcome of [`solve_group_bounded`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroupOutcome {
    /// Solved to the stopping rule; the cost includes the group's additive
    /// constant.
    Solved(FwSolution),
    /// Skipped before any iteration by the two-point prefilter.
    Prefiltered,
    /// Iteration abandoned by the lower-bound prune (`Lbound ≥ Cbound`).
    Pruned,
}

/// Which parts of the cost-bound machinery are active — used by the
/// ablation benches to isolate the contribution of each filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostBoundConfig {
    /// Apply the exact two-point prefilter before iterating (lines 9–12).
    pub prefilter: bool,
    /// Apply the per-iteration lower-bound prune (line 16).
    pub prune: bool,
}

impl Default for CostBoundConfig {
    fn default() -> Self {
        CostBoundConfig {
            prefilter: true,
            prune: true,
        }
    }
}

/// Solves one Fermat–Weber group against a shared global bound `cbound`
/// (lines 4–17 of Algorithm 5), updating `stats`.
///
/// `constant` is an additive cost offset (non-negative), arising from
/// additive object-weight functions; the prefilter, the prune, and the
/// returned costs all include it.
pub fn solve_group_bounded(
    g: &[WeightedPoint],
    constant: f64,
    rule: StoppingRule,
    cbound: f64,
    stats: &mut BatchStats,
) -> GroupOutcome {
    solve_group_bounded_with(g, constant, rule, cbound, stats, CostBoundConfig::default())
}

/// [`solve_group_bounded`] with explicit filter configuration.
pub fn solve_group_bounded_with(
    g: &[WeightedPoint],
    constant: f64,
    rule: StoppingRule,
    cbound: f64,
    stats: &mut BatchStats,
    config: CostBoundConfig,
) -> GroupOutcome {
    debug_assert!(constant >= 0.0);
    // The exact small-group solvers still iterate (an interior 3-point
    // optimum runs Weiszfeld to machine precision); count that work too.
    let mut solved_exactly = |mut s: FwSolution| {
        stats.exact_groups += 1;
        stats.iterations += s.iterations;
        s.cost += constant;
        GroupOutcome::Solved(s)
    };
    if g.len() <= 2 {
        return solved_exactly(crate::weiszfeld::solve(g, rule));
    }
    if exact::is_collinear(g) {
        return solved_exactly(exact::collinear(g));
    }
    if g.len() == 3 {
        return solved_exactly(exact::three_point(&[g[0], g[1], g[2]]));
    }
    // Two-point prefilter: the pair optimum cost (plus the full constant)
    // lower-bounds the group cost at any location.
    if config.prefilter {
        let pair = exact::two_point(g[0], g[1]);
        if pair.cost + constant > cbound {
            stats.prefiltered_groups += 1;
            return GroupOutcome::Prefiltered;
        }
    }
    // Iterate with the lower-bound prune.
    let eps = rule.epsilon();
    let max_iters = rule.max_iterations();
    let mut q = exact::centroid(g);
    let mut iters = 0usize;
    while iters < max_iters {
        let next = vardi_zhang_step(q, g);
        iters += 1;
        let moved = next.dist(q);
        q = next;
        let lb = lower_bound(q, g) + constant;
        if config.prune && lb >= cbound {
            stats.iterations += iters;
            stats.pruned_groups += 1;
            return GroupOutcome::Pruned;
        }
        if let Some(eps) = eps {
            let c = cost(q, g) + constant;
            if lb > 0.0 && (c - lb) / lb <= eps {
                break;
            }
        }
        if moved <= 1e-15 * (1.0 + q.norm()) {
            break;
        }
    }
    stats.iterations += iters;
    GroupOutcome::Solved(FwSolution {
        location: q,
        cost: cost(q, g) + constant,
        iterations: iters,
        exact: false,
    })
}

/// Algorithm 5: the cost-bound approach.
///
/// Maintains a global upper bound `Cbound` (the best cost found so far).
/// Before iterating a group, the exact two-point optimum of its first two
/// points prefilters hopeless groups; during iteration, the Eq. 10 lower
/// bound abandons groups that provably cannot beat `Cbound`, even though the
/// ε stopping rule has not fired yet.
pub fn solve_cost_bound(
    groups: &[Vec<WeightedPoint>],
    rule: StoppingRule,
) -> Option<BatchSolution> {
    solve_cost_bound_with(groups, rule, CostBoundConfig::default())
}

/// [`solve_cost_bound`] with explicit filter configuration (for ablations).
pub fn solve_cost_bound_with(
    groups: &[Vec<WeightedPoint>],
    rule: StoppingRule,
    config: CostBoundConfig,
) -> Option<BatchSolution> {
    let mut cbound = f64::INFINITY;
    let mut best: Option<(Point, usize)> = None;
    let mut stats = BatchStats::default();

    for (gi, g) in groups.iter().enumerate() {
        if g.is_empty() {
            continue;
        }
        if let GroupOutcome::Solved(sol) =
            solve_group_bounded_with(g, 0.0, rule, cbound, &mut stats, config)
        {
            if sol.cost < cbound {
                cbound = sol.cost;
                best = Some((sol.location, gi));
            }
        }
    }

    best.map(|(location, group)| BatchSolution {
        location,
        cost: cbound,
        group,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wp(x: f64, y: f64, w: f64) -> WeightedPoint {
        WeightedPoint::new(Point::new(x, y), w)
    }

    fn pseudo_groups(count: usize, size: usize, seed: u64) -> Vec<Vec<WeightedPoint>> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as f64 / u32::MAX as f64
        };
        (0..count)
            .map(|_| {
                (0..size)
                    .map(|_| wp(next() * 100.0, next() * 100.0, next() * 10.0 + 0.1))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn empty_input() {
        let rule = StoppingRule::ErrorBound(1e-6);
        assert!(solve_sequential(&[], rule).is_none());
        assert!(solve_cost_bound(&[], rule).is_none());
        assert!(solve_cost_bound(&[vec![]], rule).is_none());
    }

    #[test]
    fn both_approaches_agree_on_best_group() {
        let groups = pseudo_groups(50, 5, 7);
        let rule = StoppingRule::ErrorBound(1e-9);
        let a = solve_sequential(&groups, rule).unwrap();
        let b = solve_cost_bound(&groups, rule).unwrap();
        assert_eq!(a.group, b.group);
        assert!(
            (a.cost - b.cost).abs() <= 1e-6 * a.cost,
            "{} vs {}",
            a.cost,
            b.cost
        );
    }

    #[test]
    fn cost_bound_does_less_work() {
        let groups = pseudo_groups(200, 5, 11);
        let rule = StoppingRule::ErrorBound(1e-9);
        let a = solve_sequential(&groups, rule).unwrap();
        let b = solve_cost_bound(&groups, rule).unwrap();
        assert!(
            b.stats.iterations < a.stats.iterations,
            "cost-bound {} vs sequential {}",
            b.stats.iterations,
            a.stats.iterations
        );
        assert!(b.stats.pruned_groups + b.stats.prefiltered_groups > 0);
    }

    #[test]
    fn exact_small_groups_are_dispatched() {
        let groups = vec![
            vec![wp(0.0, 0.0, 1.0)],
            vec![wp(0.0, 0.0, 1.0), wp(1.0, 0.0, 2.0)],
            vec![wp(0.0, 0.0, 1.0), wp(1.0, 1.0, 1.0), wp(2.0, 2.0, 1.0)], // collinear
            vec![wp(0.0, 0.0, 5.0), wp(9.0, 0.0, 1.0), wp(0.0, 9.0, 1.0)], // 3-point vertex
        ];
        let sol = solve_cost_bound(&groups, StoppingRule::ErrorBound(1e-6)).unwrap();
        assert_eq!(sol.stats.exact_groups, 4);
        // The single point gives cost 0, unbeatable.
        assert_eq!(sol.group, 0);
        assert_eq!(sol.cost, 0.0);
    }

    #[test]
    fn exact_branches_count_their_iterations() {
        // An interior 3-point optimum iterates to machine precision.
        let g = [wp(0.0, 0.0, 1.0), wp(10.0, 0.0, 1.0), wp(5.0, 8.0, 1.0)];
        let direct = exact::three_point(&g);
        assert!(direct.iterations > 0);
        let mut stats = BatchStats::default();
        let rule = StoppingRule::ErrorBound(1e-6);
        let GroupOutcome::Solved(sol) =
            solve_group_bounded(&g, 0.5, rule, f64::INFINITY, &mut stats)
        else {
            panic!("an unbounded exact group is always solved");
        };
        assert_eq!(stats.exact_groups, 1);
        assert_eq!(stats.iterations, direct.iterations);
        // Counting changes no answer.
        assert_eq!(sol.location, direct.location);
        assert_eq!(sol.cost, direct.cost + 0.5);
        // A vertex optimum is closed-form: nothing to count.
        let mut stats = BatchStats::default();
        let vertex = [wp(0.0, 0.0, 5.0), wp(9.0, 0.0, 1.0), wp(0.0, 9.0, 1.0)];
        solve_group_bounded(&vertex, 0.0, rule, f64::INFINITY, &mut stats);
        assert_eq!((stats.exact_groups, stats.iterations), (1, 0));
    }

    #[test]
    fn winner_is_truly_the_minimum() {
        let groups = pseudo_groups(30, 6, 3);
        let rule = StoppingRule::ErrorBound(1e-10);
        let b = solve_cost_bound(&groups, rule).unwrap();
        // Re-solve every group independently; none may beat the winner by
        // more than the tolerance.
        for (gi, g) in groups.iter().enumerate() {
            let s = crate::weiszfeld::solve(g, rule);
            assert!(
                b.cost <= s.cost * (1.0 + 1e-6),
                "group {gi} beats winner: {} < {}",
                s.cost,
                b.cost
            );
        }
    }

    #[test]
    fn ablation_configs_agree_on_the_answer() {
        let groups = pseudo_groups(80, 5, 19);
        let rule = StoppingRule::ErrorBound(1e-9);
        let full = solve_cost_bound(&groups, rule).unwrap();
        for (prefilter, prune) in [(false, true), (true, false), (false, false)] {
            let cfg = CostBoundConfig { prefilter, prune };
            let ablated = solve_cost_bound_with(&groups, rule, cfg).unwrap();
            assert_eq!(full.group, ablated.group, "{cfg:?}");
            assert!(
                (full.cost - ablated.cost).abs() < 1e-6 * full.cost,
                "{cfg:?}"
            );
            // Each disabled filter can only increase the work done.
            assert!(
                ablated.stats.iterations >= full.stats.iterations,
                "{cfg:?}: {} < {}",
                ablated.stats.iterations,
                full.stats.iterations
            );
        }
    }

    #[test]
    fn disabled_filters_report_zero_counts() {
        let groups = pseudo_groups(50, 5, 23);
        let rule = StoppingRule::ErrorBound(1e-6);
        let cfg = CostBoundConfig {
            prefilter: false,
            prune: false,
        };
        let sol = solve_cost_bound_with(&groups, rule, cfg).unwrap();
        assert_eq!(sol.stats.prefiltered_groups, 0);
        assert_eq!(sol.stats.pruned_groups, 0);
    }

    #[test]
    fn prefilter_counts_with_tight_bound() {
        // First group is excellent (tiny spread), the rest are terrible and
        // get prefiltered by their two-point bound.
        let mut groups = vec![vec![
            wp(50.0, 50.0, 1.0),
            wp(50.1, 50.0, 1.0),
            wp(50.0, 50.1, 1.0),
            wp(50.1, 50.1, 1.0),
        ]];
        for i in 0..10 {
            let off = 1000.0 + i as f64;
            groups.push(vec![
                wp(0.0, 0.0, 5.0),
                wp(off, off, 5.0),
                wp(off, 0.0, 1.0),
                wp(0.0, off, 1.0),
            ]);
        }
        let sol = solve_cost_bound(&groups, StoppingRule::ErrorBound(1e-6)).unwrap();
        assert_eq!(sol.group, 0);
        assert_eq!(sol.stats.prefiltered_groups, 10);
    }
}
