//! Chaos end-to-end test: the server keeps answering while faults are
//! injected underneath it.
//!
//! Everything runs in ONE `#[test]` on purpose: the fault registry is
//! process-global, and a single sequential scenario is the only way to keep
//! arming/disarming race-free. The scenarios, in order:
//!
//! 1. handler panics → `500` + `panics_caught`, event loop and connection live on;
//! 2. slow query → `504` within `request_timeout` + one checkpoint interval,
//!    with partial-progress counters;
//! 3. loop-killing panics → the supervisor's respawn restores full capacity;
//! 4. failing rebuilds → circuit breaker opens, `/health` degrades, reloads
//!    shed `503` + `Retry-After`, the old generation serves byte-for-byte,
//!    and the breaker recovers after the backoff;
//! 5. a panicking background rebuild → counted as a failed rebuild, its
//!    in-flight entry cleared, and the next reload builds and publishes;
//! 6. snapshot read corruption → engine falls back to a CSV rebuild.

// Serving runs on epoll: Linux only.
#![cfg(target_os = "linux")]

use molq_core::prelude::*;
use molq_geom::{Mbr, Point};
use molq_server::engine::{BreakerConfig, DatasetSpec, Engine, LoadOutcome};
use molq_server::fault;
use molq_server::http::{start, ServerConfig};
use molq_server::service::{Service, ServiceConfig};
use molq_server::{Client, Json};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn pseudo_set(name: &str, n: usize, seed: u64) -> ObjectSet {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) as f64 / u32::MAX as f64
    };
    ObjectSet::uniform(
        name,
        1.0 + (seed % 3) as f64,
        (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect(),
    )
}

fn fixture(tag: &str) -> (PathBuf, Vec<PathBuf>) {
    let dir = std::env::temp_dir().join(format!("molq_chaos_e2e_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let paths = [("stm", 16usize, 71u64), ("ch", 14, 72), ("sch", 12, 73)]
        .iter()
        .map(|&(name, n, seed)| {
            let path = dir.join(format!("{name}.csv"));
            let mut f = std::fs::File::create(&path).unwrap();
            molq_datagen::csv::write_csv(&pseudo_set(name, n, seed), &mut f).unwrap();
            path
        })
        .collect();
    (dir, paths)
}

/// Polls `/stats` until no build is in flight; the served generation of
/// the default dataset.
fn wait_for_builds(client: &mut Client) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.get("/stats").unwrap();
        assert_eq!(stats.status, 200, "{:?}", stats.body);
        if stats
            .body
            .get("builds")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty()
        {
            let datasets = stats.body.get("datasets").unwrap().as_arr().unwrap();
            return datasets[0].get("generation").unwrap().as_u64().unwrap();
        }
        assert!(
            Instant::now() < deadline,
            "build still in flight: {:?}",
            stats.body
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn resilience_counter(client: &mut Client, name: &str) -> u64 {
    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200, "{:?}", stats.body);
    stats
        .body
        .get("resilience")
        .unwrap()
        .get(name)
        .unwrap()
        .as_u64()
        .unwrap()
}

#[test]
fn chaos_server_survives_injected_faults() {
    let request_timeout = Duration::from_millis(500);
    let checkpoint_delay = Duration::from_millis(100);

    let (_dir, paths) = fixture("serve");
    let engine = Engine::new();
    engine.set_breaker_config(BreakerConfig {
        threshold: 2,
        base_backoff: Duration::from_secs(1),
        max_backoff: Duration::from_secs(5),
    });
    engine
        .load(DatasetSpec {
            bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
            ..DatasetSpec::new("default", paths)
        })
        .unwrap();
    // threads: 1 — the slow-fault scenario's timing bounds are calibrated
    // for serial per-group checkpoints; the parallel 504 path has its own
    // coverage in parallel_determinism.rs.
    let service = Arc::new(Service::with_config(
        engine,
        ServiceConfig {
            request_timeout,
            threads: 1,
        },
    ));
    let handle = start(
        Arc::clone(&service),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let mut client = Client::connect(addr).unwrap();
    let baseline = client.get("/solve").unwrap();
    assert_eq!(baseline.status, 200, "{:?}", baseline.body);

    // --- 1. Handler panics are isolated: 500, same loop, same connection.
    fault::arm_spec("service.handle=panic*2").unwrap();
    for _ in 0..2 {
        let resp = client.get("/solve").unwrap();
        assert_eq!(resp.status, 500, "{:?}", resp.body);
        assert!(resp
            .body
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("panicked"));
    }
    // The fault is exhausted; the very same keep-alive connection recovers.
    assert_eq!(client.get("/solve").unwrap().status, 200);
    assert_eq!(resilience_counter(&mut client, "panics_caught"), 2);

    // --- 2. A slow query is cancelled at the deadline: 504 with progress,
    // answered within request_timeout + one checkpoint interval.
    fault::arm_spec("service.slow=sleep:100*1").unwrap();
    let started = Instant::now();
    let slow = client.get("/solve").unwrap();
    let elapsed = started.elapsed();
    assert_eq!(slow.status, 504, "{:?}", slow.body);
    let completed = slow.body.get("completed_groups").unwrap().as_u64().unwrap();
    let total = slow.body.get("total_groups").unwrap().as_u64().unwrap();
    assert!(completed >= 1 && completed < total, "{completed}/{total}");
    assert!(elapsed >= request_timeout, "answered early: {elapsed:?}");
    assert!(
        elapsed < request_timeout + 4 * checkpoint_delay,
        "cancelled too late: {elapsed:?}"
    );
    assert_eq!(resilience_counter(&mut client, "deadline_timeouts"), 1);

    // --- 3. Panics outside request isolation kill event loops; the supervisor
    // restores full capacity within one respawn interval.
    fault::arm_spec("http.worker=panic*2").unwrap();
    for _ in 0..2 {
        // The dispatching loop dies before serving, so the connection just
        // drops — the request fails, the *server* must not.
        let died = Client::connect(addr).unwrap().get("/health");
        assert!(died.is_err(), "expected a dropped connection: {died:?}");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut probe = Client::connect(addr).unwrap();
        if probe.get("/health").is_ok_and(|r| r.status == 200)
            && resilience_counter(&mut probe, "workers_respawned") == 2
        {
            break;
        }
        assert!(Instant::now() < deadline, "worker pool never recovered");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Full capacity: every follow-up request succeeds.
    let mut client = Client::connect(addr).unwrap();
    for _ in 0..10 {
        assert_eq!(client.get("/solve").unwrap().status, 200);
    }

    // --- 4. Failing rebuilds trip the breaker; the old generation keeps
    // serving byte-for-byte until recovery.
    let before = client.get("/solve").unwrap();
    assert_eq!(before.status, 200);
    fault::arm_spec("engine.rebuild=fail:injected disk failure*2").unwrap();
    for _ in 0..2 {
        let failed = client.post("/reload?wait=1").unwrap();
        assert_eq!(failed.status, 400, "{:?}", failed.body);
        assert!(failed
            .body
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("injected disk failure"));
    }
    // Threshold reached: the breaker is open, reloads shed with Retry-After.
    let shed = client.post("/reload?wait=1").unwrap();
    assert_eq!(shed.status, 503, "{:?}", shed.body);
    assert_eq!(shed.retry_after, Some(1));
    let health = client.get("/health").unwrap();
    assert_eq!(
        health.body.get("status").unwrap().as_str(),
        Some("degraded")
    );
    let breakers = health.body.get("breakers").unwrap().as_arr().unwrap();
    assert_eq!(breakers.len(), 1);
    assert_eq!(breakers[0].get("open"), Some(&Json::Bool(true)));
    // Queries are untouched: same generation, byte-identical answer.
    let during = client.get("/solve").unwrap();
    assert_eq!(during.status, 200);
    assert_eq!(during.body.encode(), before.body.encode());
    // The injected failures are exhausted; after the backoff the half-open
    // probe rebuilds for real and the breaker closes.
    std::thread::sleep(Duration::from_millis(1200));
    let recovered = client.post("/reload?wait=1").unwrap();
    assert_eq!(recovered.status, 200, "{:?}", recovered.body);
    assert_eq!(recovered.body.get("generation").unwrap().as_u64(), Some(2));
    let health = client.get("/health").unwrap();
    assert_eq!(health.body.get("status").unwrap().as_str(), Some("ok"));
    assert!(health
        .body
        .get("breakers")
        .unwrap()
        .as_arr()
        .unwrap()
        .is_empty());

    // --- 5. A panicking background build is a failed rebuild, not a wedge.
    fault::arm_spec("engine.rebuild=panic*1").unwrap();
    let panicked = client.post("/reload").unwrap();
    assert_eq!(panicked.status, 202, "{:?}", panicked.body);
    assert_eq!(
        panicked.body.get("already_building"),
        Some(&Json::Bool(false))
    );
    assert_eq!(wait_for_builds(&mut client), 2);
    let health = client.get("/health").unwrap();
    let breakers = health.body.get("breakers").unwrap().as_arr().unwrap();
    assert_eq!(breakers.len(), 1, "{breakers:?}");
    assert_eq!(
        breakers[0].get("consecutive_failures").unwrap().as_u64(),
        Some(1)
    );
    assert!(breakers[0]
        .get("last_error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("panicked"));
    // The next reload starts a new build, which publishes.
    let rebuilt = client.post("/reload").unwrap();
    assert_eq!(rebuilt.status, 202, "{:?}", rebuilt.body);
    assert_eq!(
        rebuilt.body.get("already_building"),
        Some(&Json::Bool(false))
    );
    assert_eq!(rebuilt.body.get("generation").unwrap().as_u64(), Some(3));
    assert_eq!(wait_for_builds(&mut client), 3);
    let health = client.get("/health").unwrap();
    assert!(health
        .body
        .get("breakers")
        .unwrap()
        .as_arr()
        .unwrap()
        .is_empty());

    handle.shutdown();

    // --- 6. Snapshot read corruption: restore is abandoned, the engine
    // rebuilds from CSVs and still serves.
    let (dir, paths) = fixture("snapshot");
    let spec = DatasetSpec {
        bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
        snapshot_dir: Some(dir.clone()),
        ..DatasetSpec::new("default", paths)
    };
    let (_, outcome) = Engine::new().load_traced(spec.clone()).unwrap();
    assert_eq!(outcome, LoadOutcome::BuiltFromCsv);
    let (_, outcome) = Engine::new().load_traced(spec.clone()).unwrap();
    assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
    fault::arm_spec("engine.snapshot_read=fail:injected corruption*1").unwrap();
    let (snap, outcome) = Engine::new().load_traced(spec).unwrap();
    assert_eq!(outcome, LoadOutcome::BuiltFromCsv);
    assert_eq!(snap.set_count(), 3);

    fault::disarm_all();
}
