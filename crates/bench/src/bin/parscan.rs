//! `parscan` — wall-clock scaling of the parallel scan layer.
//!
//! Times the two scan-layer workloads at 1/2/4/8 threads over the same
//! dataset — the Overlapper rebuild (`Movd::overlap_all_with`) and the
//! cost-bound solve (`solve_arena_cancellable_with`, lanes included) —
//! verifies that every multi-threaded run is bit-identical to the serial
//! one, and writes the measurements to a JSON report:
//!
//! ```text
//! cargo run --release -p molq-bench --bin parscan -- --objects 1600 --out BENCH_PR5.json
//! ```
//!
//! The report includes the host's `available_parallelism`; speedups are
//! bounded by the physical cores actually present.

use molq_core::prelude::*;
use molq_datagen::{geonames::layer_object_set, GeoLayer};
use molq_fw::StoppingRule;
use molq_geom::Mbr;
use std::fmt::Write as _;
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const SETS: usize = 3;
const SPACE: f64 = 10_000.0;

/// Objects per set for the tiny-group-set regression check: small enough
/// that every scan stays under `exec`'s sequential-work threshold.
const TINY_OBJECTS: usize = 24;
/// Repeated solves per thread count in the tiny check (amortizes timer
/// noise on sub-millisecond scans).
const TINY_ITERS: usize = 30;
/// A multi-threaded tiny scan may be at most this much slower than serial.
/// Tiny totals take the identical sequential path, so the only tolerated
/// slack is scheduler/timer noise.
const TINY_MARGIN: f64 = 2.0;
/// A multi-threaded main run (rebuild + solve at the full object count) may
/// be at most this much slower than serial. With the worker count capped at
/// the host's cores, extra configured threads change nothing on a small
/// host and help on a big one — so the only tolerated slack is timer noise.
const SCALE_MARGIN: f64 = 1.5;

struct Measurement {
    threads: usize,
    rebuild_s: f64,
    solve_s: f64,
    bit_identical: bool,
}

struct TinyMeasurement {
    threads: usize,
    solve_s: f64,
}

/// Regression guard for the BENCH_PR5 finding that 2–8 threads were slower
/// than 1 on tiny group sets: times repeated solves over a prebuilt tiny
/// MOVD and checks no multi-threaded run exceeds serial by [`TINY_MARGIN`].
fn run_tiny() -> Result<(Vec<TinyMeasurement>, bool), MolqError> {
    let query = build_query(TINY_OBJECTS);
    let open = CancelToken::new();
    let arena = MovdArena::from_movd(&Movd::overlap_all_with(
        &query.sets,
        query.bounds,
        Boundary::Rrb,
        ExecConfig::serial(),
    )?);

    let mut measurements = Vec::new();
    for threads in THREADS {
        let exec = ExecConfig::new(threads);
        let t0 = Instant::now();
        for _ in 0..TINY_ITERS {
            solve(&query, &arena, &open, exec)?;
        }
        let solve_s = t0.elapsed().as_secs_f64();
        eprintln!(
            "tiny ({TINY_OBJECTS}/set) threads {threads}: {TINY_ITERS} solves in {solve_s:.4}s"
        );
        measurements.push(TinyMeasurement { threads, solve_s });
    }
    let serial = measurements[0].solve_s;
    let ok = measurements
        .iter()
        .all(|m| m.solve_s <= serial * TINY_MARGIN);
    Ok((measurements, ok))
}

/// One cost-bound solve over a prebuilt arena, deriving its cost lanes.
fn solve(
    query: &MolqQuery,
    arena: &MovdArena,
    cancel: &CancelToken,
    exec: ExecConfig,
) -> Result<MovdAnswer, MolqError> {
    let lanes = FwLanes::from_arena(query, arena);
    solve_arena_cancellable_with(query, arena, &lanes, cancel, exec)
}

fn build_query(objects: usize) -> MolqQuery {
    let bounds = Mbr::new(0.0, 0.0, SPACE, SPACE);
    let sets = (0..SETS)
        .map(|i| {
            layer_object_set(
                GeoLayer::ALL[i % GeoLayer::ALL.len()],
                objects,
                1.0 + i as f64 * 0.5,
                bounds,
                5_000 + i as u64,
            )
        })
        .collect();
    MolqQuery::new(sets, bounds).with_rule(StoppingRule::Either(1e-6, 100_000))
}

fn run(objects: usize) -> Result<(String, Vec<Measurement>, usize, bool), MolqError> {
    let query = build_query(objects);
    let open = CancelToken::new();

    let mut measurements = Vec::new();
    let mut baseline: Option<(Movd, MovdAnswer)> = None;
    let mut ovrs = 0;
    for threads in THREADS {
        let exec = ExecConfig::new(threads);
        let t0 = Instant::now();
        let movd = Movd::overlap_all_with(&query.sets, query.bounds, Boundary::Rrb, exec)?;
        let rebuild_s = t0.elapsed().as_secs_f64();
        ovrs = movd.len();

        let arena = MovdArena::from_movd(&movd);
        let t1 = Instant::now();
        let answer = solve(&query, &arena, &open, exec)?;
        let solve_s = t1.elapsed().as_secs_f64();

        let bit_identical = match &baseline {
            None => {
                baseline = Some((movd, answer));
                true
            }
            Some((base_movd, base)) => {
                base_movd.ovrs == movd.ovrs
                    && base.location.x.to_bits() == answer.location.x.to_bits()
                    && base.location.y.to_bits() == answer.location.y.to_bits()
                    && base.cost.to_bits() == answer.cost.to_bits()
            }
        };
        eprintln!(
            "threads {threads}: rebuild {rebuild_s:.3}s solve {solve_s:.3}s \
             ({ovrs} OVRs, bit_identical: {bit_identical})"
        );
        measurements.push(Measurement {
            threads,
            rebuild_s,
            solve_s,
            bit_identical,
        });
    }

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let serial = &measurements[0];
    let at4 = measurements
        .iter()
        .find(|m| m.threads == 4)
        .expect("4-thread run");
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"parscan\",");
    let _ = writeln!(json, "  \"sets\": {SETS},");
    let _ = writeln!(json, "  \"objects_per_set\": {objects},");
    let _ = writeln!(json, "  \"ovrs\": {ovrs},");
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");
    let _ = writeln!(
        json,
        "  \"note\": \"measured on a {cores}-core host; speedup over serial is bounded by the cores present\","
    );
    let _ = writeln!(
        json,
        "  \"rebuild_speedup_4t\": {:.3},",
        serial.rebuild_s / at4.rebuild_s
    );
    let _ = writeln!(
        json,
        "  \"solve_speedup_4t\": {:.3},",
        serial.solve_s / at4.solve_s
    );
    let scale_ok = measurements.iter().all(|m| {
        m.rebuild_s <= serial.rebuild_s * SCALE_MARGIN && m.solve_s <= serial.solve_s * SCALE_MARGIN
    });
    let _ = writeln!(json, "  \"scale_margin\": {SCALE_MARGIN},");
    let _ = writeln!(json, "  \"scale_regression_ok\": {scale_ok},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, m) in measurements.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"threads\": {}, \"rebuild_s\": {:.6}, \"solve_s\": {:.6}, \"bit_identical\": {}}}{}",
            m.threads,
            m.rebuild_s,
            m.solve_s,
            m.bit_identical,
            if i + 1 < measurements.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");

    let (tiny, tiny_ok) = run_tiny()?;
    let _ = writeln!(json, "  \"tiny_scan\": {{");
    let _ = writeln!(json, "    \"objects_per_set\": {TINY_OBJECTS},");
    let _ = writeln!(json, "    \"iterations\": {TINY_ITERS},");
    let _ = writeln!(json, "    \"margin\": {TINY_MARGIN},");
    let _ = writeln!(json, "    \"regression_ok\": {tiny_ok},");
    let _ = writeln!(json, "    \"results\": [");
    for (i, m) in tiny.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"threads\": {}, \"solve_s\": {:.6}}}{}",
            m.threads,
            m.solve_s,
            if i + 1 < tiny.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    Ok((json, measurements, ovrs, tiny_ok))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut objects = 1600usize;
    let mut out = "BENCH_PR5.json".to_string();
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
            "--objects" => match value.parse() {
                Ok(n) => objects = n,
                Err(e) => {
                    eprintln!("--objects: {e}");
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

    match run(objects) {
        Ok((json, measurements, _, tiny_ok)) => {
            if measurements.iter().any(|m| !m.bit_identical) {
                eprintln!("FAIL: a multi-threaded answer diverged from the serial one");
                std::process::exit(1);
            }
            if !tiny_ok {
                eprintln!(
                    "FAIL: a multi-threaded tiny scan exceeded the serial wall by more than {TINY_MARGIN}x"
                );
                std::process::exit(1);
            }
            let serial = &measurements[0];
            if !measurements.iter().all(|m| {
                m.rebuild_s <= serial.rebuild_s * SCALE_MARGIN
                    && m.solve_s <= serial.solve_s * SCALE_MARGIN
            }) {
                eprintln!(
                    "FAIL: a multi-threaded rebuild or solve exceeded the serial wall by more than {SCALE_MARGIN}x"
                );
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
    fn small_run_is_bit_identical_and_emits_json() {
        let (json, measurements, ovrs, tiny_ok) = run(40).unwrap();
        assert_eq!(measurements.len(), THREADS.len());
        assert!(measurements.iter().all(|m| m.bit_identical));
        assert!(ovrs > 0);
        assert!(
            tiny_ok,
            "multi-threaded tiny scan regressed past the serial wall:\n{json}"
        );
        for key in [
            "\"bench\": \"parscan\"",
            "\"available_parallelism\"",
            "\"rebuild_speedup_4t\"",
            "\"solve_speedup_4t\"",
            "\"scale_margin\"",
            "\"bit_identical\": true",
            "\"tiny_scan\"",
            "\"regression_ok\": true",
        ] {
            assert!(json.contains(key), "missing {key}:\n{json}");
        }
    }
}
