//! Smoke test of the benchmark binary at tiny scale (~1 s windows).
//!
//! Needs a release `molq` (`cargo build --release -p molq-cli` at the
//! repository root); without one the tests fail and say so.

use molq_server::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .to_path_buf()
}

/// The release `molq` the benchmark drives; panics with instructions when
/// it has not been built.
fn molq() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| root().join("target"), |t| root().join(t));
    let candidates = [
        target.join("release/molq"),
        root().join("target/release/molq"),
    ];
    candidates
        .iter()
        .find(|p| p.is_file())
        .cloned()
        .unwrap_or_else(|| {
            panic!(
                "molq is not built (looked for {}); run `cargo build --release -p molq-cli` \
                 at the repository root first",
                candidates[0].display()
            )
        })
}

fn bench(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_molqbench"));
    cmd.args(args).arg("--molq").arg(molq());
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("molqbench runs")
}

fn last_json(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}):\n{stdout}"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn catalog(list: &str) -> Vec<(String, String)> {
    let doc = Json::parse(BENCHMARK_JSON).unwrap();
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let f = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (f("name"), f("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let doc = Json::parse(BENCHMARK_JSON).unwrap();
    doc.get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

/// Every metric line names the metric and its unit, once per workload.
fn assert_printed(stdout: &str, list: &str) {
    for w in workloads() {
        let block: String = stdout
            .split("molqbench ")
            .find(|b| {
                b.split(':')
                    .next()
                    .is_some_and(|head| head.ends_with(&format!(" {w}")))
            })
            .unwrap_or_else(|| panic!("no report for {w}:\n{stdout}"))
            .to_string();
        for (name, unit) in catalog(list) {
            let line = block
                .lines()
                .find(|l| l.split_whitespace().next() == Some(name.as_str()))
                .unwrap_or_else(|| panic!("{w}: {name} not printed:\n{block}"));
            assert!(
                line.split_whitespace().nth(2) == Some(unit.as_str()),
                "{w}: {line}"
            );
            assert!(line.contains("n="), "{w}: no sample count: {line}");
        }
        let errors = block
            .lines()
            .find(|l| l.trim_start().starts_with("error_rate"))
            .unwrap();
        assert!(errors.contains(" 0.0000 "), "{w}: {errors}");
    }
}

#[test]
fn run_prints_every_metric_checks_answers_and_sanitizes_the_child() {
    let dir = scratch("run");
    let result = dir.join("result.json");
    // Were any of these to reach the child, every request would fail
    // (MOLQ_FAULTS) or the banner would report another transport/threads.
    let out = bench(
        &[
            "run",
            "--smoke",
            "--seed",
            "5",
            "--out",
            result.to_str().unwrap(),
        ],
        &[
            ("MOLQ_FAULTS", "service.handle=fail:leaked into the child"),
            ("MOLQ_TRANSPORT", "epoll"),
            ("MOLQ_THREADS", "1"),
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_printed(&stdout, "end_to_end");
    let line = last_json(&out);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
    assert!(line.get("attempted").and_then(Json::as_u64).unwrap() > 0);

    let file = Json::parse(&std::fs::read_to_string(&result).unwrap()).unwrap();
    let meta = file.get("meta").unwrap();
    assert_eq!(meta.get("seed").and_then(Json::as_u64), Some(5));
    assert!(meta.get("nproc").and_then(Json::as_u64).unwrap() >= 1);
    assert!(meta.get("commit").and_then(Json::as_str).is_some());
    let nproc = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .to_string();
    for r in file.get("results").and_then(Json::as_arr).unwrap() {
        let facts = r.get("facts").unwrap();
        let fact = |k: &str| {
            facts
                .get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        assert_eq!(
            fact("transport"),
            "pool",
            "MOLQ_TRANSPORT reached the child"
        );
        assert_eq!(fact("threads"), nproc, "MOLQ_THREADS reached the child");
        assert!(fact("ovrs").parse::<usize>().unwrap() > 0);
        assert!(!fact("setup_repeats").is_empty() && !fact("restart_repeats").is_empty());
    }
}

#[test]
fn trace_writes_linked_spans_and_every_layer_metric() {
    let spans = scratch("trace").join("spans.json");
    let out = bench(
        &[
            "trace",
            "--smoke",
            "--seed",
            "6",
            "--spans",
            spans.to_str().unwrap(),
        ],
        &[],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_printed(&stdout, "per_layer");
    assert_eq!(last_json(&out).get("correct"), Some(&Json::Bool(true)));

    let doc = Json::parse(&std::fs::read_to_string(&spans).unwrap()).unwrap();
    for w in workloads() {
        let log = doc.get(&w).unwrap_or_else(|| panic!("no spans for {w}"));
        let names: Vec<&str> = log
            .get("names")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|n| n.as_str().unwrap())
            .collect();
        // [id, name, op, parent, link, start_us, end_us]
        let rows: Vec<Vec<f64>> = log
            .get("spans")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|r| {
                r.as_arr()
                    .unwrap()
                    .iter()
                    .map(|v| v.as_f64().unwrap())
                    .collect()
            })
            .collect();
        let name = |r: &[f64]| names[r[1] as usize];
        // Serving boundaries share op ids; build stages nest under a load.
        assert!(
            rows.iter().any(|r| r[4] == 2.0 && r[3] >= 0.0),
            "{w}: no replay-linked spans"
        );
        assert!(
            rows.iter().any(|r| r[4] == 1.0 && r[3] >= 0.0),
            "{w}: no nested build spans"
        );
        let service = rows
            .iter()
            .find(|r| name(r) == "service.handle")
            .unwrap_or_else(|| panic!("{w}: no service.handle span"));
        let http = &rows[service[3] as usize];
        assert_eq!(name(http), "http.request");
        assert_eq!(
            http[2], service[2],
            "{w}: the boundaries of one op share its id"
        );
        assert!(
            rows.iter().all(|r| r[6] >= r[5]),
            "{w}: a span ends before it starts"
        );
    }
}

#[test]
fn a_tampered_reference_fails_the_run() {
    let out = bench(
        &[
            "run",
            "--smoke",
            "--workload",
            "optimum",
            "--tamper-reference",
        ],
        &[],
    );
    assert!(!out.status.success(), "a wrong reference must fail the run");
    let line = last_json(&out);
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert!(line.get("failed").and_then(Json::as_u64).unwrap() > 0);
}

#[test]
fn a_missing_molq_is_an_error_not_a_skip() {
    let out = Command::new(env!("CARGO_BIN_EXE_molqbench"))
        .args([
            "run",
            "--smoke",
            "--workload",
            "optimum",
            "--molq",
            "/nonexistent/molq",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result may be printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("molq is not built"));
}
