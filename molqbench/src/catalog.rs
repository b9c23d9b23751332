//! The metric and workload catalogue.
//!
//! `BENCHMARK.json` at the repository root is the single source of metric
//! names, units, directions and regression bounds; it is compiled in, and
//! every result the harness prints is checked against it.

use molq_server::Json;

/// The benchmark definition, verbatim.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (latency, bytes, seconds).
    Lower,
    /// Larger values are better (throughput, hit ratios).
    Higher,
}

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark definition.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Seconds one measured window lasts by default.
    pub run_seconds: f64,
    /// Workload names, in definition order.
    pub workloads: Vec<String>,
    /// Metrics a `run` (tracing off) prints.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics a `trace` prints.
    pub per_layer: Vec<MetricSpec>,
}

impl Catalog {
    /// Parses the compiled-in `BENCHMARK.json`.
    pub fn load() -> Result<Catalog, String> {
        Catalog::parse(BENCHMARK_JSON)
    }

    /// Parses a benchmark definition.
    pub fn parse(text: &str) -> Result<Catalog, String> {
        let root = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            root.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: missing list {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry lacks {f:?}"))
                    };
                    let better = match field("better")? {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                    };
                    Ok(MetricSpec {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        better,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "BENCHMARK.json: workload lacks a name".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Catalog {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Looks a metric up in either list.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_well_formed() {
        let c = Catalog::load().unwrap();
        assert!(c.run_seconds >= 1.0);
        assert!(!c.end_to_end.is_empty() && !c.per_layer.is_empty());
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
        // Every end-to-end metric has a bound; setup_s has the largest.
        let setup = c.metric("setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        for m in &c.end_to_end {
            let b = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
            assert!(b <= setup.bound.unwrap(), "{} outranks setup_s", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn malformed_definitions_are_rejected() {
        assert!(Catalog::parse("{}").is_err());
        assert!(Catalog::parse(
            r#"{"run_seconds": 1, "workloads": [], "end_to_end": [{"name": "a", "unit": "s", "better": "sideways"}], "per_layer": []}"#
        )
        .is_err());
    }
}
