//! Thread-count determinism: every scan-layer answer must be bit-identical
//! at `threads ∈ {1, 2, 8}`, and the Cancelled partial-progress path must
//! keep its counters monotone and ≤ total at any thread count.

use molq_core::prelude::*;
use molq_fw::StoppingRule;
use molq_geom::{Mbr, Point};
use std::time::{Duration, Instant};

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
            pseudo_set("a", 2.0, 24, 901),
            pseudo_set("b", 1.0, 26, 902),
            pseudo_set("c", 1.5, 22, 903),
        ],
        Mbr::new(0.0, 0.0, 100.0, 100.0),
    )
    .with_rule(StoppingRule::Either(1e-9, 50_000))
}

const THREADS: [usize; 3] = [1, 2, 8];

fn bits(p: Point) -> (u64, u64) {
    (p.x.to_bits(), p.y.to_bits())
}

fn served_solve(
    q: &MolqQuery,
    arena: &MovdArena,
    cancel: &CancelToken,
    exec: ExecConfig,
) -> Result<MovdAnswer, MolqError> {
    solve_arena_cancellable_with(q, arena, &FwLanes::from_arena(q, arena), cancel, exec)
}

fn served_topk(
    q: &MolqQuery,
    arena: &MovdArena,
    k: usize,
    cancel: &CancelToken,
    exec: ExecConfig,
) -> Result<TopKAnswer, MolqError> {
    solve_topk_arena_cancellable_with(q, arena, &FwLanes::from_arena(q, arena), k, cancel, exec)
}

#[test]
fn solve_is_bit_identical_across_thread_counts() {
    let q = query();
    let baseline = solve_movd_with(&q, Boundary::Rrb, ExecConfig::serial()).unwrap();
    for threads in THREADS {
        let ans = solve_movd_with(&q, Boundary::Rrb, ExecConfig::new(threads)).unwrap();
        assert_eq!(bits(ans.location), bits(baseline.location), "{threads}");
        assert_eq!(ans.cost.to_bits(), baseline.cost.to_bits(), "{threads}");
        assert_eq!(ans.ovr_count, baseline.ovr_count, "{threads}");
        assert_eq!(ans.movd_bytes, baseline.movd_bytes, "{threads}");
    }
}

#[test]
fn prebuilt_solve_is_bit_identical_across_thread_counts() {
    let q = query();
    let movd =
        Movd::overlap_all_with(&q.sets, q.bounds, Boundary::Rrb, ExecConfig::serial()).unwrap();
    let arena = MovdArena::from_movd(&movd);
    let open = CancelToken::new();
    let baseline = served_solve(&q, &arena, &open, ExecConfig::serial()).unwrap();
    for threads in THREADS {
        let ans = served_solve(&q, &arena, &open, ExecConfig::new(threads)).unwrap();
        assert_eq!(bits(ans.location), bits(baseline.location), "{threads}");
        assert_eq!(ans.cost.to_bits(), baseline.cost.to_bits(), "{threads}");
    }
}

#[test]
fn rebuild_is_bit_identical_across_thread_counts() {
    let q = query();
    for mode in [Boundary::Rrb, Boundary::Mbrb] {
        let baseline =
            Movd::overlap_all_with(&q.sets, q.bounds, mode, ExecConfig::serial()).unwrap();
        for threads in THREADS {
            let movd =
                Movd::overlap_all_with(&q.sets, q.bounds, mode, ExecConfig::new(threads)).unwrap();
            assert_eq!(movd.ovrs, baseline.ovrs, "{mode:?} at {threads} threads");
        }
    }
}

#[test]
fn topk_is_bit_identical_across_thread_counts() {
    let q = query();
    let baseline = solve_topk_with(&q, Boundary::Rrb, 5, ExecConfig::serial()).unwrap();
    assert_eq!(baseline.candidates.len(), 5);
    for threads in THREADS {
        let ans = solve_topk_with(&q, Boundary::Rrb, 5, ExecConfig::new(threads)).unwrap();
        assert_eq!(ans.candidates.len(), baseline.candidates.len(), "{threads}");
        for (got, want) in ans.candidates.iter().zip(baseline.candidates.iter()) {
            assert_eq!(bits(got.location), bits(want.location), "{threads}");
            assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{threads}");
            assert_eq!(got.group, want.group, "{threads}");
        }
    }
}

#[test]
fn ssc_is_bit_identical_across_thread_counts() {
    let q = MolqQuery::new(
        vec![
            pseudo_set("a", 2.0, 9, 911),
            pseudo_set("b", 1.0, 8, 912),
            pseudo_set("c", 1.5, 7, 913),
        ],
        Mbr::new(0.0, 0.0, 100.0, 100.0),
    )
    .with_rule(StoppingRule::Either(1e-9, 50_000));
    let baseline = solve_ssc_with(&q, ExecConfig::serial()).unwrap();
    for threads in THREADS {
        let ans = solve_ssc_with(&q, ExecConfig::new(threads)).unwrap();
        assert_eq!(bits(ans.location), bits(baseline.location), "{threads}");
        assert_eq!(ans.cost.to_bits(), baseline.cost.to_bits(), "{threads}");
        assert_eq!(ans.group, baseline.group, "{threads}");
        assert_eq!(ans.combinations, baseline.combinations, "{threads}");
    }
}

#[test]
fn weighted_rrb_cancellable_matches_plain_and_cancels() {
    let q = query();
    let plain = solve_weighted_rrb(&q, 64).unwrap();
    for threads in THREADS {
        let open = CancelToken::new();
        let ans = solve_weighted_rrb_with(&q, 64, &open, ExecConfig::new(threads)).unwrap();
        assert_eq!(bits(ans.location), bits(plain.location), "{threads}");
        assert_eq!(ans.cost.to_bits(), plain.cost.to_bits(), "{threads}");

        // A pre-cancelled token stops before any work, at any thread count.
        let token = CancelToken::new();
        token.cancel();
        match solve_weighted_rrb_with(&q, 64, &token, ExecConfig::new(threads)) {
            Err(MolqError::Cancelled { completed, total }) => {
                assert_eq!(completed, 0, "{threads}");
                assert!(total > 0, "{threads}");
            }
            other => panic!("{threads}: expected Cancelled, got {other:?}"),
        }
    }
}

#[test]
fn cancelled_scans_report_monotone_progress_at_any_thread_count() {
    let q = query();
    let arena = MovdArena::from_movd(&Movd::overlap_all(&q.sets, q.bounds, Boundary::Rrb).unwrap());
    for threads in THREADS {
        let exec = ExecConfig::new(threads);

        // Pre-cancelled: zero progress, exact totals.
        let token = CancelToken::new();
        token.cancel();
        match served_solve(&q, &arena, &token, exec) {
            Err(MolqError::Cancelled { completed, total }) => {
                assert_eq!(completed, 0, "{threads}");
                assert_eq!(total, arena.len(), "{threads}");
            }
            other => panic!("{threads}: expected Cancelled, got {other:?}"),
        }
        match served_topk(&q, &arena, 3, &token, exec) {
            Err(MolqError::Cancelled { completed, total }) => {
                assert_eq!(completed, 0, "{threads}");
                assert_eq!(total, arena.len(), "{threads}");
            }
            other => panic!("{threads}: expected Cancelled, got {other:?}"),
        }

        // Cancelled mid-scan by an expired deadline with a per-checkpoint
        // delay: progress stays within [0, total].
        let expiring = CancelToken::with_deadline(Instant::now() + Duration::from_micros(200))
            .with_checkpoint_delay(Duration::from_micros(100));
        match served_solve(&q, &arena, &expiring, exec) {
            Err(MolqError::Cancelled { completed, total }) => {
                assert_eq!(total, arena.len(), "{threads}");
                assert!(completed <= total, "{threads}: {completed}/{total}");
            }
            Ok(_) => {} // the scan can win the race on a fast machine
            other => panic!("{threads}: unexpected {other:?}"),
        }
    }
}
