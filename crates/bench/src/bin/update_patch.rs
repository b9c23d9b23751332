//! `update_patch` — per-update patch latency vs. a from-scratch rebuild.
//!
//! Builds a live MOVD at serving scale (default 3 sets × 1,600 objects =
//! 4,800), applies a battery of single-object inserts and removes through
//! `LiveMovd::apply`, and compares the mean patch wall against rebuilding
//! the whole diagram with `Movd::overlap_all_with`. After the battery, the
//! patched diagram must be **bit-identical** to a fresh rebuild over the
//! updated sets — the invariant the live-update subsystem is built on.
//!
//! ```text
//! cargo run --release -p molq-bench --bin update_patch -- --out BENCH_PR6.json
//! ```
//!
//! At report scale (≥ 4,000 objects) the run fails unless patching is at
//! least [`MIN_SPEEDUP`]× faster than the rebuild; smoke-scale runs (CI)
//! only enforce bit-identity.

use molq_core::prelude::*;
use molq_datagen::{geonames::layer_object_set, GeoLayer};
use molq_geom::{Mbr, Point};
use std::fmt::Write as _;
use std::time::Instant;

const SETS: usize = 3;
const SPACE: f64 = 10_000.0;
/// Updates applied (and timed) per run, alternating insert/remove.
const UPDATES: usize = 12;
/// Patch latency must beat the full rebuild by at least this factor at
/// report scale.
const MIN_SPEEDUP: f64 = 10.0;
/// Total-object threshold above which the speedup gate is enforced.
const REPORT_SCALE: usize = 4_000;

struct PatchMeasurement {
    kind: &'static str,
    patch_s: f64,
    cells_reclipped: usize,
    ovrs_rederived: usize,
}

struct Report {
    json: String,
    byte_identical: bool,
    speedup: f64,
    speedup_enforced: bool,
}

fn build_sets(objects: usize) -> Vec<ObjectSet> {
    (0..SETS)
        .map(|i| {
            layer_object_set(
                GeoLayer::ALL[i % GeoLayer::ALL.len()],
                objects,
                1.0 + i as f64 * 0.25,
                Mbr::new(0.0, 0.0, SPACE, SPACE),
                6_000 + i as u64,
            )
        })
        .collect()
}

/// Distinct off-lattice insert locations, clear of the generator's points.
fn insert_point(i: usize) -> Point {
    Point::new(
        (i as f64 * 937.3125 + 211.203125) % SPACE,
        (i as f64 * 541.578125 + 97.59375) % SPACE,
    )
}

fn run(objects: usize) -> Result<Report, MolqError> {
    let bounds = Mbr::new(0.0, 0.0, SPACE, SPACE);
    let exec = ExecConfig::serial();
    let sets = build_sets(objects);

    // Baseline: the full Overlapper rebuild the patch path replaces.
    let t0 = Instant::now();
    let full = Movd::overlap_all_with(&sets, bounds, Boundary::Rrb, exec)?;
    let rebuild_s = t0.elapsed().as_secs_f64();
    let ovrs = full.len();
    eprintln!("full rebuild: {ovrs} OVRs in {rebuild_s:.3}s");

    let mut live = LiveMovd::build(sets, bounds, Boundary::Rrb, exec)?;
    let mut measurements = Vec::new();
    for i in 0..UPDATES {
        let set = i % SETS;
        let update = if i % 2 == 0 {
            Update::Insert {
                set,
                object: SpatialObject {
                    loc: insert_point(i),
                    w_t: 1.0 + set as f64 * 0.25,
                    // Unit object weight, like every generated site: a heavier
                    // site turns its cell into a multiplicatively-weighted
                    // monster that legitimately fragments the whole layer —
                    // a rebuild-shaped workload, not a patch-shaped one.
                    w_o: 1.0,
                },
            }
        } else {
            Update::Remove {
                set,
                index: (i * 97) % live.sets()[set].objects.len(),
            }
        };
        let kind = match update {
            Update::Insert { .. } => "insert",
            Update::Remove { .. } => "remove",
        };
        let t = Instant::now();
        let stats = live.apply(&update)?;
        let patch_s = t.elapsed().as_secs_f64();
        eprintln!(
            "{kind} #{i}: {patch_s:.4}s ({} cells re-clipped, {} OVRs re-derived)",
            stats.cells_reclipped, stats.ovrs_rederived
        );
        measurements.push(PatchMeasurement {
            kind,
            patch_s,
            cells_reclipped: stats.cells_reclipped,
            ovrs_rederived: stats.ovrs_rederived,
        });
    }

    // The whole point: the patched diagram equals a fresh rebuild over the
    // updated sets, bit for bit (grid included).
    let fresh = Movd::overlap_all_with(live.sets(), bounds, Boundary::Rrb, exec)?;
    let byte_identical = movd_bits_eq(&live.index().arena().to_movd(), &fresh)
        && *live.index().grid() == LocateGrid::build(&fresh);

    let mean_patch_s = measurements.iter().map(|m| m.patch_s).sum::<f64>() / UPDATES as f64;
    let max_patch_s = measurements.iter().map(|m| m.patch_s).fold(0.0, f64::max);
    let speedup = rebuild_s / mean_patch_s;
    let total_objects = objects * SETS;
    let speedup_enforced = total_objects >= REPORT_SCALE;

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"update_patch\",");
    let _ = writeln!(json, "  \"sets\": {SETS},");
    let _ = writeln!(json, "  \"objects_per_set\": {objects},");
    let _ = writeln!(json, "  \"total_objects\": {total_objects},");
    let _ = writeln!(json, "  \"ovrs\": {ovrs},");
    let _ = writeln!(json, "  \"rebuild_s\": {rebuild_s:.6},");
    let _ = writeln!(json, "  \"updates\": {UPDATES},");
    let _ = writeln!(json, "  \"mean_patch_s\": {mean_patch_s:.6},");
    let _ = writeln!(json, "  \"max_patch_s\": {max_patch_s:.6},");
    let _ = writeln!(json, "  \"patch_speedup\": {speedup:.3},");
    let _ = writeln!(json, "  \"min_speedup\": {MIN_SPEEDUP},");
    let _ = writeln!(json, "  \"speedup_enforced\": {speedup_enforced},");
    let _ = writeln!(json, "  \"byte_identical\": {byte_identical},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, m) in measurements.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"kind\": \"{}\", \"patch_s\": {:.6}, \"cells_reclipped\": {}, \"ovrs_rederived\": {}}}{}",
            m.kind,
            m.patch_s,
            m.cells_reclipped,
            m.ovrs_rederived,
            if i + 1 < measurements.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    Ok(Report {
        json,
        byte_identical,
        speedup,
        speedup_enforced,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut objects = 1_600usize;
    let mut out = "BENCH_PR6.json".to_string();
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
        Ok(report) => {
            if !report.byte_identical {
                eprintln!("FAIL: the patched diagram diverged from a fresh rebuild");
                std::process::exit(1);
            }
            if report.speedup_enforced && report.speedup < MIN_SPEEDUP {
                eprintln!(
                    "FAIL: patch speedup {:.2}x is below the required {MIN_SPEEDUP}x",
                    report.speedup
                );
                std::process::exit(1);
            }
            if let Err(e) = std::fs::write(&out, &report.json) {
                eprintln!("{out}: {e}");
                std::process::exit(1);
            }
            println!("wrote {out}");
            print!("{}", report.json);
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
    fn small_run_is_byte_identical_and_emits_json() {
        let report = run(40).unwrap();
        assert!(
            report.byte_identical,
            "patched diagram diverged:\n{}",
            report.json
        );
        // Speedup is only enforced at report scale; a 120-object run just
        // records it.
        assert!(!report.speedup_enforced);
        for key in [
            "\"bench\": \"update_patch\"",
            "\"rebuild_s\"",
            "\"mean_patch_s\"",
            "\"patch_speedup\"",
            "\"byte_identical\": true",
        ] {
            assert!(report.json.contains(key), "missing {key}:\n{}", report.json);
        }
    }
}
