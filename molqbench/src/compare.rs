//! `compare A.json… -- B.json…`: two sets of result files, one verdict per
//! (workload, metric) pair.
//!
//! For each pair both sides' medians and quartiles are printed next to the
//! metric's bound from `BENCHMARK.json`, and the verdict is:
//!
//! * `unresolved` when either side's spread (interquartile distance over
//!   median) exceeds the bound — unless every B run beats (or loses to)
//!   every A run by more than the bound, which decides it anyway;
//! * `worse` / `better` when B's median moved by more than the bound in the
//!   metric's bad / good direction;
//! * `same` otherwise.
//!
//! `error_rate` (failed ÷ attempted) has no tolerance: any rise is `worse`.

use crate::catalog::{Better, Catalog};
use crate::stats;
use molq_server::Json;
use std::collections::BTreeMap;

/// A comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// B improved by more than the bound.
    Better,
    /// B regressed by more than the bound.
    Worse,
    /// The runs spread wider than the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median, quartiles and spread of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile (the single value for one run).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Interquartile distance over the median.
    pub spread: f64,
}

impl Summary {
    /// Summarizes a non-empty set of run values.
    pub fn of(values: &[f64]) -> Summary {
        let median = stats::median(values).expect("a side has at least one run");
        let (q1, q3) = stats::quartiles(values).unwrap_or((median, median));
        let spread = if median == 0.0 {
            if q3 > q1 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            (q3 - q1) / median.abs()
        };
        Summary {
            median,
            q1,
            q3,
            spread,
        }
    }
}

/// The verdict for one pair: A is the baseline, B the candidate.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, better: Better) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    // Positive = B is worse, as a share of A's median.
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = if sa.median == 0.0 {
        sign * (sb.median - sa.median).signum()
            * if sb.median == sa.median {
                0.0
            } else {
                f64::INFINITY
            }
    } else {
        sign * (sb.median - sa.median) / sa.median.abs()
    };
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    let all_better = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    let all_worse = b.iter().all(|&x| a.iter().all(|&y| beats(y, x)));
    if sa.spread > bound || sb.spread > bound {
        return if all_better && -worse_by > bound {
            Verdict::Better
        } else if all_worse && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The `error_rate` verdict: any rise of the median is a regression.
pub fn error_verdict(a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (
        stats::median(a).unwrap_or(0.0),
        stats::median(b).unwrap_or(0.0),
    );
    match mb.total_cmp(&ma) {
        std::cmp::Ordering::Greater => Verdict::Worse,
        std::cmp::Ordering::Less => Verdict::Better,
        std::cmp::Ordering::Equal => Verdict::Same,
    }
}

/// (workload, metric) → one value per run file.
type Side = BTreeMap<(String, String), Vec<f64>>;

fn load(paths: &[String]) -> Result<Side, String> {
    let mut side = Side::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let results = doc
            .get("results")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}: not a molqbench result file"))?;
        for r in results {
            let workload = r
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: result without a workload"))?;
            let count = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            side.entry((workload.to_string(), "error_rate".to_string()))
                .or_default()
                .push(count("failed") / count("attempted").max(1.0));
            if let Some(Json::Obj(metrics)) = r.get("metrics") {
                for (name, m) in metrics {
                    if let Some(v) = m.get("value").and_then(Json::as_f64) {
                        side.entry((workload.to_string(), name.clone()))
                            .or_default()
                            .push(v);
                    }
                }
            }
        }
    }
    Ok(side)
}

/// Compares two sets of result files; returns the report and whether any
/// pair got worse.
pub fn compare(
    catalog: &Catalog,
    a_paths: &[String],
    b_paths: &[String],
) -> Result<(String, bool), String> {
    if a_paths.is_empty() || b_paths.is_empty() {
        return Err("usage: molqbench compare A.json... -- B.json...".into());
    }
    let (a, b) = (load(a_paths)?, load(b_paths)?);
    let mut report = format!(
        "A: {} run(s), B: {} run(s)\n{:<14} {:<26} {:<6} {:>26} {:>26} {:>6}  verdict\n",
        a_paths.len(),
        b_paths.len(),
        "workload",
        "metric",
        "unit",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "bound"
    );
    let mut worse = false;
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for ((workload, metric), av) in &a {
        let Some(bv) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (unit, bound, v) = if metric == "error_rate" {
            ("ratio".to_string(), 0.0, error_verdict(av, bv))
        } else {
            let Some(spec) = catalog.metric(metric) else {
                continue;
            };
            let Some(bound) = spec.bound else {
                // Per-layer metrics carry no bound and get no verdict.
                continue;
            };
            (
                spec.unit.clone(),
                bound,
                verdict(av, bv, bound, spec.better),
            )
        };
        worse |= v == Verdict::Worse;
        *counts.entry(v.name()).or_default() += 1;
        let (sa, sb) = (Summary::of(av), Summary::of(bv));
        let fmt = |s: Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
        report.push_str(&format!(
            "{workload:<14} {metric:<26} {unit:<6} {:>26} {:>26} {:>6.2}  {}\n",
            fmt(sa),
            fmt(sb),
            bound,
            v.name()
        ));
    }
    let summary: Vec<String> = counts.iter().map(|(k, n)| format!("{n} {k}")).collect();
    report.push_str(&format!("verdicts: {}\n", summary.join(", ")));
    Ok((report, worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn steady_runs_within_the_bound_are_the_same() {
        let a = [100.0, 101.0, 102.0];
        let b = [103.0, 104.0, 105.0];
        assert_eq!(verdict(&a, &b, 0.10, Lower), Verdict::Same);
        assert_eq!(verdict(&a, &a, 0.10, Higher), Verdict::Same);
    }

    #[test]
    fn moves_beyond_the_bound_are_judged_by_direction() {
        let a = [100.0, 101.0, 102.0];
        let slower = [120.0, 121.0, 122.0];
        assert_eq!(verdict(&a, &slower, 0.10, Lower), Verdict::Worse);
        assert_eq!(verdict(&a, &slower, 0.10, Higher), Verdict::Better);
        assert_eq!(verdict(&slower, &a, 0.10, Lower), Verdict::Better);
        assert_eq!(verdict(&slower, &a, 0.10, Higher), Verdict::Worse);
        // A 15% move passes a 25% bound.
        assert_eq!(
            verdict(&a, &[115.0, 116.0, 117.0], 0.25, Lower),
            Verdict::Same
        );
    }

    #[test]
    fn wide_spreads_are_unresolved_unless_every_run_decides_it() {
        let noisy = [60.0, 100.0, 140.0];
        let steady = [100.0, 101.0, 102.0];
        assert_eq!(verdict(&steady, &noisy, 0.10, Lower), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &steady, 0.10, Lower), Verdict::Unresolved);
        // Every B run beats every A run by far: better despite the spread.
        let fast = [20.0, 30.0, 45.0];
        assert_eq!(verdict(&noisy, &fast, 0.10, Lower), Verdict::Better);
        assert_eq!(verdict(&fast, &noisy, 0.10, Lower), Verdict::Worse);
        // The spread test uses the same quartiles as the external check.
        assert!(Summary::of(&noisy).spread > 0.10);
    }

    #[test]
    fn single_runs_compare_by_value() {
        assert_eq!(verdict(&[10.0], &[10.5], 0.10, Lower), Verdict::Same);
        assert_eq!(verdict(&[10.0], &[12.0], 0.10, Lower), Verdict::Worse);
    }

    #[test]
    fn any_rise_in_errors_is_worse() {
        assert_eq!(error_verdict(&[0.0, 0.0], &[0.0, 0.0]), Verdict::Same);
        assert_eq!(
            error_verdict(&[0.0, 0.0, 0.0], &[0.0, 0.01, 0.02]),
            Verdict::Worse
        );
        assert_eq!(error_verdict(&[0.1], &[0.0]), Verdict::Better);
    }

    #[test]
    fn compare_reads_result_files() {
        let catalog = Catalog::load().unwrap();
        let dir = std::env::temp_dir().join(format!("molqbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, p50: f64, failed: u64| {
            let doc = Json::obj().set(
                "results",
                vec![Json::obj()
                    .set("workload", "optimum")
                    .set("attempted", 100u64)
                    .set("failed", failed)
                    .set(
                        "metrics",
                        Json::obj().set(
                            "lat_p50_us",
                            Json::obj().set("value", p50).set("unit", "us"),
                        ),
                    )],
            );
            let path = dir.join(name);
            std::fs::write(&path, doc.encode()).unwrap();
            path.display().to_string()
        };
        let a = vec![write("a1", 100.0, 0), write("a2", 101.0, 0)];
        let same = vec![write("b1", 102.0, 0), write("b2", 100.0, 0)];
        let (report, worse) = compare(&catalog, &a, &same).unwrap();
        assert!(!worse, "{report}");
        assert!(
            report.contains("lat_p50_us") && report.contains("same"),
            "{report}"
        );
        let slow = vec![write("c1", 150.0, 0), write("c2", 151.0, 1)];
        let (report, worse) = compare(&catalog, &a, &slow).unwrap();
        assert!(worse, "{report}");
        assert!(report.contains("2 worse"), "{report}");
        assert!(compare(&catalog, &a, &[]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
