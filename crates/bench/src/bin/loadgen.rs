//! `loadgen` — a load generator for the MOLQ server.
//!
//! Spawns `--threads` clients, each issuing `--requests` requests over one
//! keep-alive connection, then reports throughput, error counts, a `5xx`
//! breakdown with shed rate, and latency quantiles per endpoint mix.
//!
//! Two arrival models:
//!
//! * **closed** (default): the next request starts when the previous
//!   response lands — server push-back shows up as latency.
//! * **open** (`--arrival open --rate R`): requests are *scheduled* at a
//!   fixed aggregate rate of `R`/s regardless of responses, and latency is
//!   measured from the scheduled arrival — so a slow server accrues queueing
//!   delay instead of silently slowing the generator (no coordinated
//!   omission).
//!
//! `--batch N` sends the solve/topk share of the mix to the batch endpoints
//! (`/solve_batch?n=N`, `/topk_batch?n=N`), `--duration-ms` bounds the run
//! by wall clock instead of request count (soak mode), and
//! `--sweep 64,256,1024` repeats the workload once per listed connection
//! count and prints a summary table.
//!
//! `503`s (connection-cap overload or deadline shedding) are retried up to
//! `--retries` times with jittered exponential backoff, honoring the
//! server's `Retry-After` hint as the floor.
//!
//! By default an in-process server is started over synthetic GeoNames-style
//! layers, so the binary is self-contained:
//!
//! ```text
//! cargo run --release -p molq-bench --bin loadgen -- --threads 4 --requests 500
//! cargo run --release -p molq-bench --bin loadgen -- --arrival open --rate 2000 --duration-ms 5000
//! cargo run --release -p molq-bench --bin loadgen -- --addr 127.0.0.1:8080
//! ```

use molq_datagen::{geonames::layer_object_set, GeoLayer};
use molq_geom::Mbr;
use molq_server::engine::{DatasetSpec, Engine};
use molq_server::http::{start, ServerConfig, ServerHandle};
use molq_server::service::Service;
use molq_server::Client;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When a request fires, relative to the others on its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Arrival {
    /// Fire as soon as the previous response lands.
    #[default]
    Closed,
    /// Fire on a fixed schedule derived from `--rate`, response or not.
    Open,
}

#[derive(Debug, Clone, PartialEq)]
struct Config {
    threads: usize,
    requests: usize,
    addr: Option<SocketAddr>,
    sets: usize,
    objects: usize,
    /// Relative weights of locate / solve / topk traffic.
    mix: (u32, u32, u32),
    /// Retries per request on a `503` (shed / overload), with jittered
    /// exponential backoff honoring the server's `Retry-After`.
    retries: usize,
    /// Arrival model; [`Arrival::Open`] requires `rate`.
    arrival: Arrival,
    /// Aggregate scheduled request rate (per second, across all threads)
    /// for the open arrival model.
    rate: f64,
    /// When > 0, the solve/topk share of the mix goes to the batch
    /// endpoints with this many items per request.
    batch: usize,
    /// When set, threads loop until this wall-clock budget elapses instead
    /// of stopping after `requests` (soak mode).
    duration_ms: Option<u64>,
    /// Connection counts to sweep; empty runs a single measurement at
    /// `threads`.
    sweep: Vec<usize>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            threads: 4,
            requests: 200,
            addr: None,
            sets: 3,
            objects: 40,
            mix: (90, 5, 5),
            retries: 3,
            arrival: Arrival::Closed,
            rate: 0.0,
            batch: 0,
            duration_ms: None,
            sweep: Vec::new(),
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
        match key {
            "--threads" => cfg.threads = value.parse().map_err(|e| format!("{key}: {e}"))?,
            "--requests" => cfg.requests = value.parse().map_err(|e| format!("{key}: {e}"))?,
            "--addr" => cfg.addr = Some(value.parse().map_err(|e| format!("{key}: {e}"))?),
            "--sets" => cfg.sets = value.parse().map_err(|e| format!("{key}: {e}"))?,
            "--objects" => cfg.objects = value.parse().map_err(|e| format!("{key}: {e}"))?,
            "--mix" => cfg.mix = parse_mix(value)?,
            "--retries" => cfg.retries = value.parse().map_err(|e| format!("{key}: {e}"))?,
            "--arrival" => {
                cfg.arrival = match value.as_str() {
                    "closed" => Arrival::Closed,
                    "open" => Arrival::Open,
                    other => return Err(format!("--arrival: unknown model {other:?}")),
                }
            }
            "--rate" => cfg.rate = value.parse().map_err(|e| format!("{key}: {e}"))?,
            "--batch" => cfg.batch = value.parse().map_err(|e| format!("{key}: {e}"))?,
            "--duration-ms" => {
                cfg.duration_ms = Some(value.parse().map_err(|e| format!("{key}: {e}"))?)
            }
            "--sweep" => {
                cfg.sweep = value
                    .split(',')
                    .map(|p| p.parse().map_err(|e| format!("--sweep: {e}")))
                    .collect::<Result<_, _>>()?;
                if cfg.sweep.contains(&0) {
                    return Err("--sweep: connection counts must be positive".into());
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    if cfg.threads == 0 || cfg.requests == 0 {
        return Err("--threads and --requests must be positive".into());
    }
    if cfg.arrival == Arrival::Open && cfg.rate <= 0.0 {
        return Err("--arrival open needs --rate <requests/s>".into());
    }
    Ok(cfg)
}

/// Parses `locate:solve:topk` weights, e.g. `90:5:5`.
fn parse_mix(s: &str) -> Result<(u32, u32, u32), String> {
    let parts: Vec<u32> = s
        .split(':')
        .map(|p| p.parse().map_err(|e| format!("--mix: {e}")))
        .collect::<Result<_, _>>()?;
    match parts.as_slice() {
        [l, v, t] if l + v + t > 0 => Ok((*l, *v, *t)),
        _ => Err("--mix must be locate:solve:topk with a positive sum".into()),
    }
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

/// Space the in-process dataset lives in.
const SPACE: f64 = 1000.0;

fn spawn_in_process_server(cfg: &Config) -> Result<ServerHandle, String> {
    let bounds = Mbr::new(0.0, 0.0, SPACE, SPACE);
    let sets = (0..cfg.sets)
        .map(|i| {
            let layer = GeoLayer::ALL[i % GeoLayer::ALL.len()];
            layer_object_set(
                layer,
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
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))
}

#[derive(Default)]
struct ThreadOutcome {
    latencies_micros: Vec<u64>,
    /// Requests whose *final* response (after retries) was non-200.
    errors: usize,
    /// Every 5xx response seen, including retried ones: (500, 503, 504, other).
    status_500: usize,
    status_503: usize,
    status_504: usize,
    other_5xx: usize,
    /// Total responses received (requests + retries) — the shed-rate base.
    responses: usize,
    /// Work items acknowledged with a `200` (`--batch N` counts `N` per
    /// batch response; plain requests count 1).
    items: usize,
}

impl ThreadOutcome {
    fn count(&mut self, status: u16) {
        self.responses += 1;
        match status {
            500 => self.status_500 += 1,
            503 => self.status_503 += 1,
            504 => self.status_504 += 1,
            s if s >= 500 => self.other_5xx += 1,
            _ => {}
        }
    }
}

/// Issues one request, transparently reconnecting once if the server closed
/// the keep-alive connection (the server closes it after a shed `503`).
fn issue(
    client: &mut Option<Client>,
    addr: SocketAddr,
    target: &str,
    post: bool,
) -> Result<molq_server::ClientResponse, String> {
    for fresh in [false, true] {
        if client.is_none() {
            *client = Some(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
        }
        let c = client.as_mut().expect("client just connected");
        let result = if post {
            c.post_body(target, b"")
        } else {
            c.get(target)
        };
        match result {
            Ok(response) => return Ok(response),
            Err(e) if !fresh => {
                // Stale keep-alive socket — drop it and retry once on a
                // fresh connection.
                let _ = e;
                *client = None;
            }
            Err(e) => return Err(e),
        }
    }
    unreachable!("the loop returns on its second pass")
}

fn client_thread(
    addr: SocketAddr,
    cfg: &Config,
    threads: usize,
    thread_id: usize,
) -> Result<ThreadOutcome, String> {
    let mut client = Some(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
    let (l, v, t) = cfg.mix;
    let total_weight = u64::from(l + v + t);
    let mut outcome = ThreadOutcome {
        latencies_micros: Vec::with_capacity(cfg.requests),
        ..ThreadOutcome::default()
    };
    let mut state = 0x9E3779B97F4A7C15u64 ^ (thread_id as u64).wrapping_mul(0xA24BAED4963EE407);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    // Open-loop schedule: this thread owns every `threads`-th slot of the
    // aggregate arrival process, so thread 0 starts at `phase` and each
    // subsequent arrival is `interval` later.
    let interval = Duration::from_secs_f64(threads as f64 / cfg.rate.max(1e-9));
    let phase = interval.mul_f64(thread_id as f64 / threads as f64);
    let started_at = Instant::now();
    let deadline = cfg
        .duration_ms
        .map(|ms| started_at + Duration::from_millis(ms));
    let mut sent = 0usize;
    loop {
        // Soak mode runs on wall clock; otherwise on the request budget.
        match deadline {
            Some(d) => {
                if Instant::now() >= d {
                    break;
                }
            }
            None => {
                if sent >= cfg.requests {
                    break;
                }
            }
        }
        let roll = next() % total_weight;
        let (target, post) = if roll < u64::from(l) {
            // Cluster probes so the locate cache sees realistic reuse.
            let x = (next() % 1000) as f64 / 1000.0 * SPACE;
            let y = (next() % 1000) as f64 / 1000.0 * SPACE;
            (format!("/locate?x={x:.3}&y={y:.3}"), false)
        } else if roll < u64::from(l + v) {
            match cfg.batch {
                0 => ("/solve".to_string(), false),
                n => (format!("/solve_batch?n={n}"), true),
            }
        } else {
            match cfg.batch {
                0 => ("/topk?k=3".to_string(), false),
                n => (format!("/topk_batch?n={n}&k=3"), true),
            }
        };
        // Open arrivals fire on schedule and time from the *scheduled*
        // start, so server slowness shows up as queueing delay instead of
        // stretching the schedule (closed-loop coordinated omission).
        let scheduled = match cfg.arrival {
            Arrival::Closed => Instant::now(),
            Arrival::Open => {
                let at = started_at + phase + interval.mul_f64(sent as f64);
                if let Some(pause) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(pause);
                }
                at
            }
        };
        let mut attempt = 0;
        let status = loop {
            let response = issue(&mut client, addr, &target, post)?;
            outcome.count(response.status);
            if response.status != 503 || attempt >= cfg.retries {
                break response.status;
            }
            // Shed or overloaded: back off and retry. The server's
            // Retry-After is the floor; without one, exponential from 25 ms;
            // either way plus up to +50% jitter so retriers don't re-arrive
            // in lockstep.
            let base_ms = response
                .retry_after
                .map(|secs| secs * 1000)
                .unwrap_or(25u64 << attempt.min(6));
            let wait_ms = base_ms + next() % (base_ms / 2 + 1);
            std::thread::sleep(Duration::from_millis(wait_ms));
            attempt += 1;
        };
        // Latency includes the retries the client sat through (and, open
        // loop, any lateness against the schedule).
        outcome
            .latencies_micros
            .push(scheduled.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        if status != 200 {
            outcome.errors += 1;
        } else {
            outcome.items += cfg.batch.max(1);
        }
        sent += 1;
    }
    Ok(outcome)
}

fn run(cfg: &Config) -> Result<String, String> {
    if cfg.sweep.is_empty() {
        return measure(cfg, cfg.threads);
    }
    // Connection sweep: the same workload once per listed connection count,
    // then a compact table (the full per-point reports go to stderr).
    let mut table = String::from("conns  throughput  p50_us  p99_us  errors\n");
    for &conns in &cfg.sweep {
        let report = measure(cfg, conns)?;
        eprintln!("--- {conns} connections ---\n{report}");
        let field = |name: &str| {
            report
                .lines()
                .find_map(|l| l.strip_prefix(name))
                .map(|l| {
                    l.trim_start_matches([' ', ':'])
                        .split_whitespace()
                        .next()
                        .unwrap_or("?")
                        .to_string()
                })
                .unwrap_or_else(|| "?".into())
        };
        let errors = report
            .lines()
            .find(|l| l.starts_with("requests"))
            .and_then(|l| l.split_once('(').map(|(_, e)| e.trim_end_matches(')')))
            .unwrap_or("?")
            .to_string();
        table.push_str(&format!(
            "{conns:<6} {:<11} {:<7} {:<7} {}\n",
            field("throughput"),
            field("p50"),
            field("p99"),
            errors
        ));
    }
    Ok(table)
}

/// One full measurement at `threads` concurrent connections.
fn measure(cfg: &Config, threads: usize) -> Result<String, String> {
    let handle = match cfg.addr {
        Some(_) => None,
        None => Some(spawn_in_process_server(cfg)?),
    };
    let addr = cfg
        .addr
        .unwrap_or_else(|| handle.as_ref().expect("in-process server").addr());

    let started = Instant::now();
    let outcomes: Vec<Result<ThreadOutcome, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| scope.spawn(move || client_thread(addr, cfg, threads, t)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    // Pull the server's scan and arena telemetry before a possible
    // in-process shutdown: thread count, what the group scans actually did,
    // and the arena buffer/patch counters.
    let scan_line = scan_report(addr);
    let arena_line = arena_report(addr);
    if let Some(h) = handle {
        h.shutdown();
    }

    let mut latencies = Vec::new();
    let mut errors = 0;
    let mut sum = ThreadOutcome::default();
    for outcome in outcomes {
        let outcome = outcome?;
        latencies.extend(outcome.latencies_micros);
        errors += outcome.errors;
        sum.status_500 += outcome.status_500;
        sum.status_503 += outcome.status_503;
        sum.status_504 += outcome.status_504;
        sum.other_5xx += outcome.other_5xx;
        sum.responses += outcome.responses;
        sum.items += outcome.items;
    }
    let total = latencies.len();
    let throughput = total as f64 / elapsed.as_secs_f64();
    let items_rate = sum.items as f64 / elapsed.as_secs_f64();
    let p50 = percentile_micros(&mut latencies, 0.50);
    let p99 = percentile_micros(&mut latencies, 0.99);
    let shed_rate = 100.0 * sum.status_503 as f64 / sum.responses.max(1) as f64;
    let (l, v, t) = cfg.mix;
    let arrival_line = match cfg.arrival {
        Arrival::Closed => "closed".to_string(),
        Arrival::Open => format!("open at {} req/s scheduled", cfg.rate),
    };
    let batch_line = match cfg.batch {
        0 => String::new(),
        n => format!("batch      : {n} items/request ({items_rate:.0} items/s)\n"),
    };
    Ok(format!(
        "threads    : {threads}\n\
         arrival    : {arrival_line}\n\
         requests   : {} ({errors} errors)\n\
         mix        : locate:solve:topk = {l}:{v}:{t}\n\
         {batch_line}5xx        : 500={} 503={} 504={} other={}\n\
         shed rate  : {shed_rate:.1}% (503s over {} responses incl. retries)\n\
         elapsed    : {elapsed:?}\n\
         throughput : {throughput:.0} req/s\n\
         p50        : {p50} \u{b5}s\n\
         p99        : {p99} \u{b5}s\n{}{}",
        total,
        sum.status_500,
        sum.status_503,
        sum.status_504,
        sum.other_5xx,
        sum.responses,
        scan_line.unwrap_or_default(),
        arena_line.unwrap_or_default(),
    ))
}

/// One report line from the server's `/stats` scan section: the server-side
/// scan pool width and what the group scans did over the whole run. `None`
/// when the server is unreachable or predates the scan telemetry.
fn scan_report(addr: SocketAddr) -> Option<String> {
    let mut client = Client::connect(addr).ok()?;
    let resp = client.get("/stats").ok()?;
    let scan = resp.body.get("scan")?;
    Some(format!(
        "server scan: threads={} scans={} groups_evaluated={} groups_pruned={} scan_time={} \u{b5}s\n",
        scan.get("threads")?.as_u64()?,
        scan.get("scans")?.as_u64()?,
        scan.get("groups_evaluated")?.as_u64()?,
        scan.get("groups_pruned")?.as_u64()?,
        scan.get("scan_time_us")?.as_u64()?,
    ))
}

/// One report line from the server's `/stats` arena section: total arena
/// buffer bytes across datasets, patch segment copies, and how the last
/// snapshot restore's decode split between copy and validation. `None` when
/// the server is unreachable or predates the arena telemetry.
fn arena_report(addr: SocketAddr) -> Option<String> {
    let mut client = Client::connect(addr).ok()?;
    let resp = client.get("/stats").ok()?;
    let arena = resp.body.get("arena_stats")?;
    let bytes: u64 = arena
        .get("buffers")?
        .as_arr()?
        .iter()
        .filter_map(|b| b.get("total")?.as_u64())
        .sum();
    Some(format!(
        "server arena: buffer_bytes={bytes} segments_copied={} last_restore copy={} \u{b5}s \
         validate={} \u{b5}s\n",
        arena.get("segments_copied_total")?.as_u64()?,
        arena.get("last_restore_copy_us")?.as_u64()?,
        arena.get("last_restore_validate_us")?.as_u64()?,
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let report = parse_args(&args).and_then(|cfg| run(&cfg));
    match report {
        Ok(report) => print!("{report}"),
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
        let cfg = parse_args(&argv("--threads 2 --requests 10 --mix 1:1:1 --retries 5")).unwrap();
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.requests, 10);
        assert_eq!(cfg.mix, (1, 1, 1));
        assert_eq!(cfg.retries, 5);
        assert_eq!(parse_args(&[]).unwrap().retries, 3);
        assert!(parse_args(&argv("--threads")).is_err());
        assert!(parse_args(&argv("--threads 0 --requests 5")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
        assert!(parse_mix("0:0:0").is_err());
        assert!(parse_mix("1:2").is_err());

        let cfg = parse_args(&argv(
            "--arrival open --rate 500 --batch 8 --duration-ms 250 --sweep 2,4",
        ))
        .unwrap();
        assert_eq!(cfg.arrival, Arrival::Open);
        assert_eq!(cfg.rate, 500.0);
        assert_eq!(cfg.batch, 8);
        assert_eq!(cfg.duration_ms, Some(250));
        assert_eq!(cfg.sweep, vec![2, 4]);
        assert!(parse_args(&argv("--arrival open")).is_err());
        assert!(parse_args(&argv("--arrival sometimes --rate 1")).is_err());
        assert!(parse_args(&argv("--sweep 4,0")).is_err());
    }

    #[test]
    fn percentiles_pick_rank_order_statistics() {
        let mut samples = vec![50, 10, 40, 20, 30];
        assert_eq!(percentile_micros(&mut samples, 0.5), 30);
        assert_eq!(percentile_micros(&mut samples, 1.0), 50);
        assert_eq!(percentile_micros(&mut samples, 0.0), 10);
        assert_eq!(percentile_micros(&mut [], 0.5), 0);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn end_to_end_against_an_in_process_server() {
        let cfg = Config {
            threads: 2,
            requests: 25,
            sets: 2,
            objects: 12,
            mix: (8, 1, 1),
            ..Config::default()
        };
        let report = run(&cfg).unwrap();
        assert!(report.contains("requests   : 50 (0 errors)"), "{report}");
        assert!(
            report.contains("5xx        : 500=0 503=0 504=0"),
            "{report}"
        );
        assert!(report.contains("shed rate  : 0.0%"), "{report}");
        assert!(report.contains("throughput"), "{report}");
        assert!(report.contains("server scan: threads="), "{report}");
        assert!(report.contains("groups_evaluated="), "{report}");
        assert!(report.contains("server arena: buffer_bytes="), "{report}");
        assert!(report.contains("segments_copied="), "{report}");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn open_loop_batched_soak_reports_items() {
        let cfg = Config {
            threads: 2,
            sets: 2,
            objects: 12,
            mix: (0, 1, 1),
            arrival: Arrival::Open,
            rate: 200.0,
            batch: 4,
            duration_ms: Some(300),
            ..Config::default()
        };
        let report = run(&cfg).unwrap();
        assert!(
            report.contains("arrival    : open at 200 req/s"),
            "{report}"
        );
        assert!(report.contains("batch      : 4 items/request"), "{report}");
        assert!(report.contains("(0 errors)"), "{report}");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn connection_sweep_prints_one_row_per_point() {
        let cfg = Config {
            requests: 10,
            sets: 2,
            objects: 12,
            mix: (1, 0, 0),
            sweep: vec![1, 2],
            ..Config::default()
        };
        let table = run(&cfg).unwrap();
        assert!(table.contains("conns  throughput"), "{table}");
        let rows: Vec<&str> = table.lines().skip(1).collect();
        assert_eq!(rows.len(), 2, "{table}");
        assert!(rows[0].starts_with("1 "), "{table}");
        assert!(rows[1].starts_with("2 "), "{table}");
    }
}
