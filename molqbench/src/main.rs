//! `molqbench` — one seeded benchmark of `molq serve`.
//!
//! ```text
//! molqbench [run] --workload <name|all> --seed <n> [--seconds <s>] [--out FILE]
//! molqbench trace --workload <name|all> --seed <n> [--seconds <s>] [--spans FILE] [--out FILE]
//! molqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! molqbench compare A.json... -- B.json...
//! ```
//!
//! `run` builds `molq` from this checkout, serves seeded CSVs from a real
//! `molq serve` child, and prints every end-to-end metric of
//! `BENCHMARK.json` by name, with unit and sample count; `trace` prints the
//! per-layer metrics instead. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. A wrong answer
//! fails the run and makes the exit code non-zero. `--smoke` shrinks data,
//! windows and repeats for tests; `--molq` uses a prebuilt binary.

mod catalog;
mod child;
mod client;
mod compare;
mod report;
mod run;
mod stats;
mod trace;
mod traffic;
mod verify;
mod workload;

use catalog::Catalog;
use molq_server::Json;
use report::Meta;
use run::{Ctx, Outcome};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Parsed command line of `run` / `trace`.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    trace: bool,
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    smoke: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    molq: Option<PathBuf>,
    tamper: bool,
}

fn parse(catalog: &Catalog, argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        trace: false,
        workloads: catalog.workloads.clone(),
        seed: 1,
        seconds: None,
        smoke: false,
        out: None,
        spans: None,
        molq: None,
        tamper: false,
    };
    let mut it = argv.iter().peekable();
    match it.peek().map(|s| s.as_str()) {
        Some("run") => {
            it.next();
        }
        Some("trace") => {
            it.next();
            args.trace = true;
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads = if v == "all" {
                    catalog.workloads.clone()
                } else if catalog.workloads.contains(&v) {
                    vec![v]
                } else {
                    return Err(format!(
                        "unknown workload {v:?} ({})",
                        catalog.workloads.join(", ")
                    ));
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--tamper-reference" => args.tamper = true,
            "--out" => args.out = Some(value()?.into()),
            "--spans" => args.spans = Some(value()?.into()),
            "--molq" => args.molq = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The checkout this benchmark belongs to (the parent of its package).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Builds `molq` from the checkout (a no-op when it is current) and returns
/// its path.
fn build_molq(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "molq-cli",
            "--bin",
            "molq",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building molq failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |t| root.join(t));
    let molq = target.join("release").join("molq");
    if molq.is_file() {
        Ok(molq)
    } else {
        Err(format!(
            "molq is not built: {} does not exist",
            molq.display()
        ))
    }
}

/// A run's scratch directory inside the checkout, removed when the run
/// ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only when no concurrent run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn measure(catalog: &Catalog, args: &Args) -> Result<ExitCode, String> {
    let root = repo_root();
    let molq = match &args.molq {
        Some(path) if path.is_file() => path.clone(),
        Some(path) => {
            return Err(format!(
                "molq is not built: {} does not exist",
                path.display()
            ))
        }
        None => build_molq(&root)?,
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 1.0 } else { catalog.run_seconds });
    let meta = Meta {
        mode: if args.trace { "trace" } else { "run" },
        seed: args.seed,
        seconds,
        nproc: available_cores(),
        commit: report::commit(&root),
        smoke: args.smoke,
    };
    let specs = report::expected(catalog, meta.mode);
    let scratch = Scratch(root.join(".molqbench-work").join(format!(
        "{}-{}",
        meta.mode,
        std::process::id()
    )));
    let mut outs: Vec<Outcome> = Vec::new();
    let mut spans = Json::obj().set("seed", args.seed);
    for name in &args.workloads {
        let w = workload::workload(name, args.smoke).ok_or_else(|| {
            format!("BENCHMARK.json names workload {name:?}, which molqbench does not define")
        })?;
        let ctx = Ctx {
            molq: molq.clone(),
            work: scratch.0.join(name),
            nproc: meta.nproc,
            smoke: args.smoke,
            tamper: args.tamper,
        };
        eprintln!(
            "molqbench: {} {name} (seed {}, {seconds} s)",
            meta.mode, args.seed
        );
        let out = if args.trace {
            let (out, log) = trace::trace(&ctx, &w, args.seed, seconds, args.spans.is_some())?;
            if let Some(log) = log {
                spans = std::mem::replace(&mut spans, Json::Null).set(name, log);
            }
            out
        } else {
            run::run(&ctx, &w, args.seed, seconds)?
        };
        report::validate(&out, specs)?;
        print!("{}", report::human(&out, specs, &meta));
        outs.push(out);
    }
    drop(scratch);
    if let Some(path) = &args.spans {
        std::fs::write(path, spans.encode()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = &args.out {
        std::fs::write(path, report::result_file(&outs, specs, &meta).encode())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", report::result_line(&outs, specs));
    Ok(if outs.iter().all(Outcome::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let catalog = match Catalog::load() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("molqbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        let rest = &argv[1..];
        let split = rest.iter().position(|a| a == "--").unwrap_or(rest.len());
        let b = rest.get(split + 1..).unwrap_or_default();
        compare::compare(&catalog, &rest[..split], b).map(|(report, worse)| {
            print!("{report}");
            if worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        })
    } else {
        parse(&catalog, &argv).and_then(|args| measure(&catalog, &args))
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("molqbench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flag_and_subcommand_forms_parse() {
        let c = Catalog::load().unwrap();
        let parse = |v: &[String]| parse(&c, v);
        let a = parse(&argv("--workload churn --seed 7 --seconds 10 --trace 1")).unwrap();
        assert!(a.trace);
        assert_eq!(a.workloads, ["churn"]);
        assert_eq!((a.seed, a.seconds), (7, Some(10.0)));
        let r = parse(&argv("run --workload all --smoke --out r.json")).unwrap();
        assert!(!r.trace && r.smoke);
        assert_eq!(r.workloads.len(), 4);
        assert_eq!(r.out, Some(PathBuf::from("r.json")));
        assert!(parse(&argv("trace")).unwrap().trace);
        assert!(!parse(&argv("--trace 0")).unwrap().trace);
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--bogus",
            "--seed",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
