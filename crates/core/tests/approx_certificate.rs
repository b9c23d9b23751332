//! Property tests for the tiered build pipeline's (1+ε) certificate.
//!
//! Over random small multi-layer inputs: the approximate solve cost is
//! bracketed by `exact_opt ≤ approx_cost ≤ (1+ε)·exact_opt` for every
//! ε ∈ {0.5, 0.1, 0.01}, the measured relative error of the reported
//! location (via the MWGD oracle) never exceeds ε, and ε → 0 degenerates
//! to the exact pipeline bit-for-bit.

use molq_core::prelude::*;
use proptest::prelude::*;

/// Distinct jittered-grid points so layers never contain duplicate
/// generators (which the Voronoi substrate rejects).
fn grid_points(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::btree_set((0i32..24, 0i32..24), min..=max).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(i, j)| Point::new(3.0 + i as f64 * 4.0, 3.0 + j as f64 * 4.0))
            .collect()
    })
}

fn arb_sets() -> impl Strategy<Value = Vec<ObjectSet>> {
    prop::collection::vec((grid_points(2, 8), 1u32..=4), 2..=3).prop_map(|layers| {
        layers
            .into_iter()
            .enumerate()
            .map(|(i, (pts, w))| ObjectSet::uniform(&format!("t{i}"), w as f64, pts))
            .collect()
    })
}

use molq_geom::{Mbr, Point};

const BOUNDS: (f64, f64, f64, f64) = (0.0, 0.0, 100.0, 100.0);

fn bounds() -> Mbr {
    Mbr::new(BOUNDS.0, BOUNDS.1, BOUNDS.2, BOUNDS.3)
}

/// The serving-path solve over a built diagram lowered into its arena.
fn solve_built(query: &MolqQuery, movd: &Movd) -> Result<MovdAnswer, MolqError> {
    let arena = MovdArena::from_movd(movd);
    let lanes = FwLanes::from_arena(query, &arena);
    solve_arena_cancellable_with(
        query,
        &arena,
        &lanes,
        &CancelToken::never(),
        ExecConfig::serial(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn approx_cost_is_bracketed_by_the_certificate(sets in arb_sets()) {
        let query = MolqQuery::new(sets.clone(), bounds());
        let (exact_movd, exact_meta) = build_movd(
            &sets, bounds(), Boundary::Rrb, &BuildPlan::exact(), ExecConfig::serial(),
        ).unwrap();
        prop_assert_eq!(exact_meta.certified_factor(), 1.0);
        let exact = solve_built(&query, &exact_movd).unwrap();

        for epsilon in [0.5, 0.1, 0.01] {
            let (approx_movd, meta) = build_movd(
                &sets, bounds(), Boundary::Rrb, &BuildPlan::approx(epsilon), ExecConfig::serial(),
            ).unwrap();
            prop_assert!(meta.mode.is_approx());
            prop_assert!(meta.fully_certified(), "ε = {epsilon}: forced leaves");
            let approx = solve_built(&query, &approx_movd).unwrap();

            // The certificate, with a hair of Fermat–Weber stopping slack:
            // the approximate optimum can never beat the exact one, and can
            // never be worse than (1+ε) times it.
            let slack = 1.0 + 1e-6;
            prop_assert!(
                approx.cost >= exact.cost / slack,
                "ε = {epsilon}: approx {} beat exact {}", approx.cost, exact.cost,
            );
            prop_assert!(
                approx.cost <= (1.0 + epsilon) * exact.cost * slack,
                "ε = {epsilon}: approx {} exceeds (1+ε)·{}", approx.cost, exact.cost,
            );

            // The reported location is a real point whose true aggregate
            // cost measures the realized error — also ≤ ε.
            let realized = mwgd(approx.location, &query);
            prop_assert!(
                realized <= (1.0 + epsilon) * exact.cost * slack,
                "ε = {epsilon}: realized {} exceeds the bound", realized,
            );
        }
    }

    #[test]
    fn epsilon_zero_is_bit_identical_to_the_exact_pipeline(sets in arb_sets()) {
        let query = MolqQuery::new(sets.clone(), bounds());
        for boundary in [Boundary::Rrb, Boundary::Mbrb] {
            let direct = Movd::overlap_all_with(
                &sets, bounds(), boundary, ExecConfig::serial(),
            ).unwrap();
            let (piped, meta) = build_movd(
                &sets, bounds(), boundary, &BuildPlan::approx(0.0), ExecConfig::serial(),
            ).unwrap();
            prop_assert!(!meta.mode.is_approx());
            prop_assert_eq!(meta, BuildMeta::exact());
            prop_assert!(movd_bits_eq(&piped, &direct), "{boundary:?}");

            let a = solve_built(&query, &direct).unwrap();
            let b = solve_built(&query, &piped).unwrap();
            prop_assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            prop_assert_eq!(a.location.x.to_bits(), b.location.x.to_bits());
            prop_assert_eq!(a.location.y.to_bits(), b.location.y.to_bits());
        }
    }
}
