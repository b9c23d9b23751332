//! `netbench` — connection scaling and batch amortization of the MOLQ
//! server's transport.
//!
//! Two sweeps against in-process servers over the same synthetic dataset,
//! results written as `BENCH_PR7.json`:
//!
//! * **Connection sweep.** For each `--conns` point (default 64, 256,
//!   1024), that many closed-loop keep-alive clients hit `/locate` for
//!   `--duration-ms`; the cell records completed requests, errors (shed
//!   `503`s, reconnects), and latency quantiles. The `--workers` event loops
//!   multiplex every connection, so every cell must finish without errors:
//!   the bench exits non-zero (after writing its report) if any does.
//! * **Batch sweep.** A small fixed client count posts `/topk_batch?n=B`
//!   for each `--batches` point (default 1, 8, 32, 128), recording item
//!   throughput and the server's per-batch scan amortization — the payoff
//!   of pinning one snapshot and running one sweep per distinct key.
//!
//! Every client reconnects on error (the server closes a connection after a
//! shed `503`), so cells complete even when most connections are being
//! pushed back.
//!
//! ```text
//! cargo run --release -p molq-bench --bin netbench -- --duration-ms 2000 --out BENCH_PR7.json
//! ```

use molq_datagen::{geonames::layer_object_set, GeoLayer};
use molq_geom::Mbr;
use molq_server::engine::{DatasetSpec, Engine};
use molq_server::http::{start, ServerConfig, ServerHandle};
use molq_server::service::Service;
use molq_server::Client;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Space the in-process dataset lives in.
const SPACE: f64 = 1000.0;
/// Client socket read timeout — bounds how long a starved client blocks
/// past the cell deadline.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);
/// Clients driving the batch sweep (few on purpose: the variable is the
/// batch size, not the connection count).
const BATCH_CONNS: usize = 4;

struct Config {
    duration_ms: u64,
    conns: Vec<usize>,
    batches: Vec<usize>,
    workers: usize,
    sets: usize,
    objects: usize,
    out: String,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            duration_ms: 2000,
            conns: vec![64, 256, 1024],
            batches: vec![1, 8, 32, 128],
            workers: 4,
            sets: 3,
            objects: 40,
            out: "BENCH_PR7.json".into(),
        }
    }
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config::default();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].as_str();
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag {key} needs a value"))?;
        let list = |v: &str, key: &str| -> Result<Vec<usize>, String> {
            let parsed: Vec<usize> = v
                .split(',')
                .map(|p| p.parse().map_err(|e| format!("{key}: {e}")))
                .collect::<Result<_, _>>()?;
            if parsed.is_empty() || parsed.contains(&0) {
                return Err(format!("{key}: needs positive comma-separated counts"));
            }
            Ok(parsed)
        };
        match key {
            "--duration-ms" => {
                cfg.duration_ms = value.parse().map_err(|e| format!("{key}: {e}"))?
            }
            "--conns" => cfg.conns = list(value, key)?,
            "--batches" => cfg.batches = list(value, key)?,
            "--workers" => cfg.workers = value.parse().map_err(|e| format!("{key}: {e}"))?,
            "--sets" => cfg.sets = value.parse().map_err(|e| format!("{key}: {e}"))?,
            "--objects" => cfg.objects = value.parse().map_err(|e| format!("{key}: {e}"))?,
            "--out" => cfg.out = value.clone(),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    if cfg.duration_ms == 0 || cfg.workers == 0 {
        return Err("--duration-ms and --workers must be positive".into());
    }
    Ok(cfg)
}

fn spawn_server(cfg: &Config) -> Result<ServerHandle, String> {
    let bounds = Mbr::new(0.0, 0.0, SPACE, SPACE);
    let sets = (0..cfg.sets)
        .map(|i| {
            layer_object_set(
                GeoLayer::ALL[i % GeoLayer::ALL.len()],
                cfg.objects,
                1.0 + i as f64 * 0.5,
                bounds,
                77 + i as u64,
            )
        })
        .collect();
    let engine = Engine::new();
    engine.load_from_sets(
        DatasetSpec {
            bounds: Some(bounds),
            ..DatasetSpec::new("default", Vec::new())
        },
        sets,
    )?;
    start(
        Arc::new(Service::new(engine)),
        ServerConfig {
            workers: cfg.workers,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))
}

#[derive(Default)]
struct CellOutcome {
    latencies_micros: Vec<u64>,
    completed: usize,
    items: usize,
    errors: usize,
}

/// One cell's aggregate: completed-request throughput plus latency
/// quantiles over the `200`s.
struct Cell {
    completed: usize,
    errors: usize,
    throughput: f64,
    items_per_s: f64,
    p50_us: u64,
    p99_us: u64,
}

/// The latency percentile (`q` in [0, 1]) of an unsorted sample, in µs.
fn percentile_micros(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// One client: closed-loop requests against `target` until `deadline`,
/// reconnecting whenever the server closes or sheds the connection.
fn bench_client(
    addr: SocketAddr,
    deadline: Instant,
    target: &str,
    batch_items: usize,
) -> CellOutcome {
    let mut outcome = CellOutcome::default();
    let mut client: Option<Client> = None;
    while Instant::now() < deadline {
        if client.is_none() {
            match Client::connect_with_timeout(addr, CLIENT_TIMEOUT) {
                Ok(c) => client = Some(c),
                Err(_) => {
                    outcome.errors += 1;
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            }
        }
        let c = client.as_mut().expect("client just connected");
        let started = Instant::now();
        let result = if batch_items > 0 {
            c.post_body(target, b"")
        } else {
            c.get(target)
        };
        match result {
            Ok(r) if r.status == 200 => {
                outcome.completed += 1;
                outcome.items += batch_items.max(1);
                outcome
                    .latencies_micros
                    .push(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
            }
            Ok(_) => {
                // Shed (`503`) or failed; the server closes the connection
                // after a shed, so start fresh and yield briefly rather
                // than hammering the accept loop.
                outcome.errors += 1;
                client = None;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => {
                outcome.errors += 1;
                client = None;
            }
        }
    }
    outcome
}

/// Runs one (conns, target) cell against a fresh server.
fn run_cell(cfg: &Config, conns: usize, target: &str, batch_items: usize) -> Result<Cell, String> {
    let handle = spawn_server(cfg)?;
    let addr = handle.addr();
    let started = Instant::now();
    let deadline = started + Duration::from_millis(cfg.duration_ms);
    let outcomes: Vec<CellOutcome> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..conns)
            .map(|_| {
                std::thread::Builder::new()
                    // 1024 client threads at the default 8 MiB stack would
                    // reserve 8 GiB of address space; the client loop is
                    // shallow.
                    .stack_size(256 * 1024)
                    .spawn_scoped(scope, || bench_client(addr, deadline, target, batch_items))
                    .expect("spawn bench client")
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("bench client panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    handle.shutdown();

    let mut latencies = Vec::new();
    let mut completed = 0;
    let mut errors = 0;
    let mut items = 0;
    for o in outcomes {
        latencies.extend(o.latencies_micros);
        completed += o.completed;
        errors += o.errors;
        items += o.items;
    }
    Ok(Cell {
        completed,
        errors,
        throughput: completed as f64 / elapsed.as_secs_f64(),
        items_per_s: items as f64 / elapsed.as_secs_f64(),
        p50_us: percentile_micros(&mut latencies, 0.50),
        p99_us: percentile_micros(&mut latencies, 0.99),
    })
}

/// A finished sweep: the JSON report and the connection counts whose cell
/// saw errors.
struct Report {
    json: String,
    failed_conns: Vec<usize>,
}

fn run(cfg: &Config) -> Result<Report, String> {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"netbench\",");
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");
    let _ = writeln!(json, "  \"workers\": {},", cfg.workers);
    let _ = writeln!(json, "  \"duration_ms_per_cell\": {},", cfg.duration_ms);

    // Connection sweep: /locate, closed loop.
    let mut failed_conns = Vec::new();
    let _ = writeln!(json, "  \"connection_sweep\": [");
    for (i, &conns) in cfg.conns.iter().enumerate() {
        eprintln!("connection sweep: {conns} conns...");
        let cell = run_cell(cfg, conns, "/locate?x=500&y=500", 0)?;
        eprintln!(
            "  conns={conns}: {:.0} req/s p99={}us errors={}",
            cell.throughput, cell.p99_us, cell.errors
        );
        if cell.errors > 0 {
            failed_conns.push(conns);
        }
        if i > 0 {
            let _ = writeln!(json, ",");
        }
        let _ = write!(
            json,
            "    {{\"conns\": {conns}, \"completed\": {}, \"errors\": {}, \
             \"throughput_rps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}}}",
            cell.completed, cell.errors, cell.throughput, cell.p50_us, cell.p99_us,
        );
    }
    let _ = writeln!(json, "\n  ],");

    // Batch sweep: few connections, varying items per request.
    let _ = writeln!(json, "  \"batch_sweep\": [");
    for (i, &batch) in cfg.batches.iter().enumerate() {
        eprintln!("batch sweep: {batch} items...");
        let target = format!("/topk_batch?n={batch}&k=3");
        let cell = run_cell(cfg, BATCH_CONNS, &target, batch)?;
        eprintln!(
            "  batch={batch}: {:.0} items/s p99={}us",
            cell.items_per_s, cell.p99_us
        );
        if i > 0 {
            let _ = writeln!(json, ",");
        }
        let _ = write!(
            json,
            "    {{\"batch\": {batch}, \"conns\": {BATCH_CONNS}, \"completed\": {}, \
             \"errors\": {}, \"items_per_s\": {:.1}, \"p50_us\": {}, \"p99_us\": {}}}",
            cell.completed, cell.errors, cell.items_per_s, cell.p50_us, cell.p99_us,
        );
    }
    let _ = writeln!(json, "\n  ]");
    let _ = writeln!(json, "}}");
    Ok(Report { json, failed_conns })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            if let Err(e) = std::fs::write(&cfg.out, &report.json) {
                eprintln!("{}: {e}", cfg.out);
                std::process::exit(1);
            }
            println!("wrote {}", cfg.out);
            print!("{}", report.json);
            if !report.failed_conns.is_empty() {
                eprintln!(
                    "error: connection sweep cells with errors at conns = {:?}",
                    report.failed_conns
                );
                std::process::exit(1);
            }
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

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_flags_and_rejects_nonsense() {
        let cfg = parse_args(&argv(
            "--duration-ms 500 --conns 2,4 --batches 1,8 --workers 2",
        ))
        .unwrap();
        assert_eq!(cfg.duration_ms, 500);
        assert_eq!(cfg.conns, vec![2, 4]);
        assert_eq!(cfg.batches, vec![1, 8]);
        assert_eq!(cfg.workers, 2);
        assert_eq!(parse_args(&[]).unwrap().conns, vec![64, 256, 1024]);
        assert!(parse_args(&argv("--conns 0,2")).is_err());
        assert!(parse_args(&argv("--duration-ms 0")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn smoke_sweep_emits_every_section() {
        let cfg = Config {
            duration_ms: 200,
            conns: vec![2],
            batches: vec![1, 4],
            workers: 2,
            sets: 2,
            objects: 12,
            ..Config::default()
        };
        let report = run(&cfg).unwrap();
        let json = report.json;
        for key in [
            "\"bench\": \"netbench\"",
            "\"connection_sweep\"",
            "\"batch_sweep\"",
            "\"throughput_rps\"",
            "\"items_per_s\"",
        ] {
            assert!(json.contains(key), "missing {key}:\n{json}");
        }
        assert!(report.failed_conns.is_empty(), "{json}");
    }
}
