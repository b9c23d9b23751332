//! `approxbench` — construction + solve scaling of the ε-approximate mode.
//!
//! Builds the tiered pipeline's approximate MOVD over three Zipf-weighted
//! clustered layers at increasing object counts (default up to 500,000 per
//! layer — 1.5M objects total), solves over it, and certifies the measured
//! error at every scale:
//!
//! - at the small **exact check** scale the answer is compared against the
//!   exact pipeline directly: `approx_cost / exact_opt - 1 ≤ ε`;
//! - at every benchmark scale (where exact construction is infeasible —
//!   that is the point) the true aggregate cost of the reported location
//!   (the MWGD oracle, a linear scan over all objects) is compared against
//!   a certified lower bound on the exact optimum derived from an
//!   independent *reference* build at a finer ε_ref: since
//!   `ref_cost ≤ (1+ε_ref)·opt`, the quantity
//!   `mwgd(loc)·(1+ε_ref)/ref_cost - 1` over-estimates the true relative
//!   error, and must still come in at or below the configured ε.
//!
//! Any uncertified leaf (safety-cap forcing), certificate violation, or
//! error above ε exits non-zero. The measurements land in a JSON report:
//!
//! ```text
//! cargo run --release -p molq-bench --bin approxbench -- --out BENCH_PR10.json
//! ```
//!
//! `--max-objects` drops the scales above the cap — the CI smoke run uses
//! a small cap so the full certification logic runs in seconds.

use molq_core::prelude::*;
use molq_datagen::{layer_object_set_zipf, GeoLayer};
use molq_fw::StoppingRule;
use molq_geom::Mbr;
use std::fmt::Write as _;
use std::time::Instant;

const SETS: usize = 3;
const SPACE: f64 = 10_000.0;
/// Objects per layer at the exact cross-check scale: large enough to be a
/// real diagram, small enough that exact clipping stays cheap.
const EXACT_CHECK_OBJECTS: usize = 200;

struct Measurement {
    objects: usize,
    build_s: f64,
    solve_s: f64,
    ovrs: usize,
    leaves: u64,
    depth: u32,
    forced: u64,
    cost: f64,
    realized: f64,
    ref_cost: f64,
    measured_err: f64,
}

fn build_query(objects: usize, zipf: f64) -> MolqQuery {
    let bounds = Mbr::new(0.0, 0.0, SPACE, SPACE);
    let sets = (0..SETS)
        .map(|i| {
            layer_object_set_zipf(
                GeoLayer::ALL[i % GeoLayer::ALL.len()],
                objects,
                1.0 + i as f64 * 0.5,
                bounds,
                7_000 + i as u64,
                zipf,
            )
        })
        .collect();
    MolqQuery::new(sets, bounds).with_rule(StoppingRule::Either(1e-6, 100_000))
}

fn build_and_solve(
    query: &MolqQuery,
    epsilon: f64,
    exec: ExecConfig,
) -> Result<(MovdAnswer, BuildMeta, usize, f64, f64), MolqError> {
    let t0 = Instant::now();
    let (movd, meta) = build_movd(
        &query.sets,
        query.bounds,
        Boundary::Rrb,
        &BuildPlan::approx(epsilon),
        exec,
    )?;
    let build_s = t0.elapsed().as_secs_f64();
    let ovrs = movd.len();
    let arena = MovdArena::from_movd(&movd);
    drop(movd);
    let t1 = Instant::now();
    let answer = solve(query, &arena, exec)?;
    let solve_s = t1.elapsed().as_secs_f64();
    Ok((answer, meta, ovrs, build_s, solve_s))
}

/// One cost-bound solve over a prebuilt arena, deriving its cost lanes.
fn solve(query: &MolqQuery, arena: &MovdArena, exec: ExecConfig) -> Result<MovdAnswer, MolqError> {
    let lanes = FwLanes::from_arena(query, arena);
    solve_arena_cancellable_with(query, arena, &lanes, &CancelToken::never(), exec)
}

/// Exact cross-check at a feasible scale: the approximate answer's true
/// cost must be within (1+ε) of the exact optimum, measured directly.
fn exact_check(epsilon: f64, zipf: f64, exec: ExecConfig) -> Result<(f64, f64, f64), MolqError> {
    let query = build_query(EXACT_CHECK_OBJECTS, zipf);
    let (exact_movd, _) = build_movd(
        &query.sets,
        query.bounds,
        Boundary::Rrb,
        &BuildPlan::exact(),
        exec,
    )?;
    let exact = solve(&query, &MovdArena::from_movd(&exact_movd), exec)?;
    let (approx, _, _, _, _) = build_and_solve(&query, epsilon, exec)?;
    let realized = mwgd(approx.location, &query);
    let err = realized / exact.cost - 1.0;
    Ok((exact.cost, realized, err))
}

fn run(
    scales: &[usize],
    epsilon: f64,
    epsilon_ref: f64,
    zipf: f64,
) -> Result<(String, Vec<Measurement>, f64, bool), MolqError> {
    let exec = ExecConfig::default();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());

    let (exact_cost, exact_realized, exact_err) = exact_check(epsilon, zipf, exec)?;
    eprintln!(
        "exact check ({EXACT_CHECK_OBJECTS}/set): exact {exact_cost:.4}, \
         approx realized {exact_realized:.4}, err {exact_err:.2e}"
    );

    let mut measurements = Vec::new();
    for &objects in scales {
        let query = build_query(objects, zipf);
        let (answer, meta, ovrs, build_s, solve_s) = build_and_solve(&query, epsilon, exec)?;
        let realized = mwgd(answer.location, &query);

        // Independent certified lower bound on the exact optimum from a
        // finer reference build: opt ≥ ref_cost / (1 + ε_ref).
        let (reference, ref_meta, _, ref_build_s, _) = build_and_solve(&query, epsilon_ref, exec)?;
        let measured_err = realized * (1.0 + epsilon_ref) / reference.cost - 1.0;
        eprintln!(
            "{objects}/set: build {build_s:.2}s solve {solve_s:.2}s ({ovrs} OVRs, \
             {} leaves, depth {}, {} forced) err {measured_err:.2e} \
             (ref ε {epsilon_ref}: build {ref_build_s:.2}s, {} forced)",
            meta.leaves, meta.refinement_depth, meta.forced_leaves, ref_meta.forced_leaves
        );
        measurements.push(Measurement {
            objects,
            build_s,
            solve_s,
            ovrs,
            leaves: meta.leaves,
            depth: meta.refinement_depth,
            forced: meta.forced_leaves + ref_meta.forced_leaves,
            cost: answer.cost,
            realized,
            ref_cost: reference.cost,
            measured_err,
        });
    }

    let max_err = measurements
        .iter()
        .map(|m| m.measured_err)
        .fold(exact_err, f64::max);
    let ok = max_err <= epsilon && measurements.iter().all(|m| m.forced == 0);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"approxbench\",");
    let _ = writeln!(json, "  \"sets\": {SETS},");
    let _ = writeln!(json, "  \"epsilon\": {epsilon},");
    let _ = writeln!(json, "  \"epsilon_ref\": {epsilon_ref},");
    let _ = writeln!(json, "  \"zipf_s\": {zipf},");
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");
    let _ = writeln!(
        json,
        "  \"note\": \"measured_err over-estimates the true relative error: it compares the \
         answer's true aggregate cost against a certified lower bound from an independent \
         finer-epsilon reference build\","
    );
    let _ = writeln!(json, "  \"exact_check\": {{");
    let _ = writeln!(json, "    \"objects_per_set\": {EXACT_CHECK_OBJECTS},");
    let _ = writeln!(json, "    \"exact_cost\": {exact_cost},");
    let _ = writeln!(json, "    \"approx_realized_cost\": {exact_realized},");
    let _ = writeln!(json, "    \"measured_err\": {exact_err},");
    let _ = writeln!(json, "    \"ok\": {}", exact_err <= epsilon);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, m) in measurements.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"objects_per_set\": {}, \"build_s\": {:.6}, \"solve_s\": {:.6}, \
             \"ovrs\": {}, \"leaves\": {}, \"refinement_depth\": {}, \"forced_leaves\": {}, \
             \"solve_cost\": {}, \"realized_cost\": {}, \"ref_cost\": {}, \
             \"measured_err\": {}}}{}",
            m.objects,
            m.build_s,
            m.solve_s,
            m.ovrs,
            m.leaves,
            m.depth,
            m.forced,
            m.cost,
            m.realized,
            m.ref_cost,
            m.measured_err,
            if i + 1 < measurements.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"max_measured_err\": {max_err},");
    let _ = writeln!(json, "  \"err_ok\": {ok}");
    let _ = writeln!(json, "}}");
    Ok((json, measurements, max_err, ok))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scales: Vec<usize> = vec![125_000, 250_000, 500_000];
    let mut epsilon = 0.5f64;
    let mut zipf = 0.5f64;
    let mut max_objects: Option<usize> = None;
    let mut out = "BENCH_PR10.json".to_string();
    let mut i = 0;
    while i < args.len() {
        let value = match args.get(i + 1) {
            Some(v) => v,
            None => {
                eprintln!("flag {} needs a value", args[i]);
                std::process::exit(2);
            }
        };
        match args[i].as_str() {
            "--scales" => {
                scales = match value.split(',').map(str::parse).collect() {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("--scales: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--epsilon" => match value.parse() {
                Ok(e) if e > 0.0 => epsilon = e,
                _ => {
                    eprintln!("--epsilon must be a positive f64");
                    std::process::exit(2);
                }
            },
            "--zipf" => match value.parse() {
                Ok(s) if s >= 0.0 => zipf = s,
                _ => {
                    eprintln!("--zipf must be a non-negative f64");
                    std::process::exit(2);
                }
            },
            "--max-objects" => match value.parse() {
                Ok(n) => max_objects = Some(n),
                Err(e) => {
                    eprintln!("--max-objects: {e}");
                    std::process::exit(2);
                }
            },
            "--out" => out = value.clone(),
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if let Some(cap) = max_objects {
        scales.retain(|&s| s <= cap);
        if scales.is_empty() {
            scales = vec![cap];
        }
    }
    // The reference build must be meaningfully finer than the mode under
    // test for its lower bound to have any bite.
    let epsilon_ref = epsilon / 5.0;

    match run(&scales, epsilon, epsilon_ref, zipf) {
        Ok((json, _, max_err, ok)) => {
            if !ok {
                eprintln!(
                    "FAIL: measured error {max_err:.3e} exceeds ε = {epsilon}, or a build \
                     hit the safety caps (uncertified leaves)"
                );
                // Still write the report so the failure is inspectable.
                let _ = std::fs::write(&out, &json);
                std::process::exit(1);
            }
            if let Err(e) = std::fs::write(&out, &json) {
                eprintln!("{out}: {e}");
                std::process::exit(1);
            }
            println!("wrote {out}");
            print!("{json}");
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_certifies_and_emits_json() {
        let (json, measurements, max_err, ok) = run(&[250], 0.25, 0.1, 0.5).unwrap();
        assert_eq!(measurements.len(), 1);
        assert!(ok, "measured error {max_err} above ε:\n{json}");
        assert!(measurements[0].ovrs > 0);
        assert!(measurements[0].leaves >= measurements[0].ovrs as u64);
        assert!(measurements[0].forced == 0);
        for key in [
            "\"bench\": \"approxbench\"",
            "\"exact_check\"",
            "\"measured_err\"",
            "\"max_measured_err\"",
            "\"err_ok\": true",
        ] {
            assert!(json.contains(key), "missing {key}:\n{json}");
        }
    }
}
