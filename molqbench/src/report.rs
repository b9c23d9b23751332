//! Printing results: a human-readable table, the one-line JSON result, and
//! the result file `compare` reads.

use crate::catalog::{Catalog, MetricSpec};
use crate::run::Outcome;
use molq_server::Json;
use std::path::Path;

/// Facts recorded with every result.
#[derive(Debug, Clone)]
pub struct Meta {
    /// `run` or `trace`.
    pub mode: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: f64,
    /// Cores available to the bench.
    pub nproc: usize,
    /// The commit measured, or `unknown` outside a git checkout.
    pub commit: String,
    /// Shrunk smoke-test scale.
    pub smoke: bool,
}

/// The metrics a mode must print.
pub fn expected<'c>(catalog: &'c Catalog, mode: &str) -> &'c [MetricSpec] {
    match mode {
        "trace" => &catalog.per_layer,
        _ => &catalog.end_to_end,
    }
}

/// Checks that an outcome carries exactly the catalogue's metrics, each a
/// finite number unless the run failed (a run whose every op failed has no
/// latency to report; its result line still says so).
pub fn validate(out: &Outcome, specs: &[MetricSpec]) -> Result<(), String> {
    for s in specs {
        let n = out.metrics.iter().filter(|m| m.name == s.name).count();
        if n != 1 {
            return Err(format!(
                "{}: metric {} reported {n} times",
                out.workload, s.name
            ));
        }
    }
    if let Some(m) = out
        .metrics
        .iter()
        .find(|m| !specs.iter().any(|s| s.name == m.name))
    {
        return Err(format!(
            "{}: metric {} is not in BENCHMARK.json",
            out.workload, m.name
        ));
    }
    if let Some(m) = out
        .metrics
        .iter()
        .find(|m| out.correct() && !m.value.is_finite())
    {
        return Err(format!("{}: metric {} = {}", out.workload, m.name, m.value));
    }
    Ok(())
}

/// The human-readable report of one outcome: every metric by name, with
/// its unit and sample count.
pub fn human(out: &Outcome, specs: &[MetricSpec], meta: &Meta) -> String {
    let mut s = format!(
        "molqbench {} {}: seed {} window {} s, nproc {}, commit {}",
        meta.mode, out.workload, meta.seed, meta.seconds, meta.nproc, meta.commit
    );
    for (k, v) in &out.facts {
        s.push_str(&format!(", {k} {v}"));
    }
    s.push('\n');
    for spec in specs {
        if let Some(m) = out.metrics.iter().find(|m| m.name == spec.name) {
            s.push_str(&format!(
                "  {:<34} {:>16.4} {:<6} n={:<8} {}\n",
                m.name, m.value, spec.unit, m.samples, m.note
            ));
        }
    }
    s.push_str(&format!(
        "  {:<34} {:>16.4} {:<6} n={:<8} failed {} of {}\n",
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.attempted,
        out.failed,
        out.attempted
    ));
    for e in &out.errors {
        s.push_str(&format!("  FAILED: {e}\n"));
    }
    s
}

fn metrics_json(out: &Outcome, specs: &[MetricSpec], prefix: &str) -> Vec<(String, Json)> {
    specs
        .iter()
        .filter_map(|spec| {
            let m = out.metrics.iter().find(|m| m.name == spec.name)?;
            Some((
                format!("{prefix}{}", m.name),
                Json::obj()
                    .set("value", m.value)
                    .set("unit", spec.unit.as_str()),
            ))
        })
        .collect()
}

/// The one-line result: `correct`, `attempted`, `failed` and every metric
/// with its unit. Several workloads prefix metric names with theirs.
pub fn result_line(outs: &[Outcome], specs: &[MetricSpec]) -> String {
    let prefixed = outs.len() > 1;
    let mut metrics = Vec::new();
    for o in outs {
        let prefix = if prefixed {
            format!("{}.", o.workload)
        } else {
            String::new()
        };
        metrics.extend(metrics_json(o, specs, &prefix));
    }
    Json::obj()
        .set("correct", outs.iter().all(Outcome::correct))
        .set("attempted", outs.iter().map(|o| o.attempted).sum::<u64>())
        .set("failed", outs.iter().map(|o| o.failed).sum::<u64>())
        .set("metrics", Json::Obj(metrics))
        .encode()
}

/// The result file: the meta facts plus each workload's outcome.
pub fn result_file(outs: &[Outcome], specs: &[MetricSpec], meta: &Meta) -> Json {
    let results = outs
        .iter()
        .map(|o| {
            let facts = o
                .facts
                .iter()
                .fold(Json::obj(), |j, (k, v)| j.set(k, v.as_str()));
            Json::obj()
                .set("workload", o.workload.as_str())
                .set("correct", o.correct())
                .set("attempted", o.attempted)
                .set("failed", o.failed)
                .set("facts", facts)
                .set(
                    "errors",
                    o.errors
                        .iter()
                        .map(|e| Json::from(e.as_str()))
                        .collect::<Vec<_>>(),
                )
                .set("metrics", Json::Obj(metrics_json(o, specs, "")))
        })
        .collect::<Vec<_>>();
    Json::obj()
        .set(
            "meta",
            Json::obj()
                .set("mode", meta.mode)
                .set("seed", meta.seed)
                .set("seconds", meta.seconds)
                .set("nproc", meta.nproc)
                .set("commit", meta.commit.as_str())
                .set("smoke", meta.smoke),
        )
        .set("results", results)
}

/// The commit of a git checkout, read from `.git` directly (no `git`
/// process, and nothing above `root` is consulted).
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(name: &str, values: &[(&str, f64)]) -> Outcome {
        let mut o = Outcome {
            workload: name.into(),
            attempted: 10,
            ..Outcome::default()
        };
        for (n, v) in values {
            o.push(n, *v, 1, "");
        }
        o
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let c = Catalog::load().unwrap();
        let values: Vec<(&str, f64)> = c
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), 1.5))
            .collect();
        let o = outcome("optimum", &values);
        validate(&o, &c.end_to_end).unwrap();
        let line = Json::parse(&result_line(std::slice::from_ref(&o), &c.end_to_end)).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(10));
        let m = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.5));
        let two = Json::parse(&result_line(
            &[o.clone(), outcome("churn", &values)],
            &c.end_to_end,
        ))
        .unwrap();
        assert!(two.get("metrics").unwrap().get("churn.setup_s").is_some());

        let mut missing = o.clone();
        missing.metrics.pop();
        assert!(validate(&missing, &c.end_to_end).is_err());
        let mut nan = o;
        nan.metrics[0].value = f64::NAN;
        assert!(validate(&nan, &c.end_to_end).is_err());
        nan.failed = 1;
        validate(&nan, &c.end_to_end).expect("a failed run may lack a value");
    }

    #[test]
    fn commit_is_unknown_outside_a_checkout() {
        assert_eq!(commit(Path::new("/nonexistent")), "unknown");
    }
}
