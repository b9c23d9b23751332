//! Served answers must not depend on the service's thread count.
//!
//! Two services over identical datasets — one scanning serially, one on an
//! 8-thread pool — must produce **byte-identical** response bodies for
//! `/solve`, `/topk`, and `/locate` (the scan layer's determinism
//! contract, surfaced end to end). The 504 partial-progress path must stay
//! well-formed at any thread count: `completed_groups ≤ total_groups`.

use molq_core::prelude::*;
use molq_geom::{Mbr, Point};
use molq_server::engine::{DatasetSpec, Engine};
use molq_server::service::{Request, Service, ServiceConfig};
use std::time::Duration;

fn pseudo_set(name: &str, w_t: f64, n: usize, seed: u64) -> ObjectSet {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) as f64 / u32::MAX as f64
    };
    ObjectSet::uniform(
        name,
        w_t,
        (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect(),
    )
}

fn service(boundary: Boundary, threads: usize) -> Service {
    let engine = Engine::new();
    engine
        .load_from_sets(
            DatasetSpec {
                boundary,
                bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
                eps: 1e-9,
                ..DatasetSpec::new("default", Vec::new())
            },
            vec![
                pseudo_set("a", 2.0, 16, 71),
                pseudo_set("b", 1.0, 18, 72),
                pseudo_set("c", 1.5, 14, 73),
            ],
        )
        .unwrap();
    Service::with_config(
        engine,
        ServiceConfig {
            request_timeout: Duration::from_secs(30),
            threads,
        },
    )
}

#[test]
fn served_bodies_are_byte_identical_across_thread_counts() {
    for boundary in [Boundary::Rrb, Boundary::Mbrb] {
        let serial = service(boundary, 1);
        let parallel = service(boundary, 8);
        let mut requests = vec![
            Request::get("/solve", &[]),
            Request::get("/topk", &[("k", "4")]),
        ];
        for gi in 0..12 {
            let x = format!("{}", (gi as f64 * 8.3 + 1.7) % 100.0);
            let y = format!("{}", (gi as f64 * 5.9 + 3.1) % 100.0);
            requests.push(Request::get("/locate", &[("x", &x), ("y", &y)]));
        }
        for req in &requests {
            let a = serial.handle(req);
            let b = parallel.handle(req);
            assert_eq!(a.status, 200, "{boundary:?} {req:?}: {:?}", a.body);
            assert_eq!(b.status, 200, "{boundary:?} {req:?}: {:?}", b.body);
            assert_eq!(
                a.body.encode(),
                b.body.encode(),
                "{boundary:?} {req:?}: serial and 8-thread bodies differ"
            );
        }
    }
}

#[test]
fn rebuilt_snapshots_match_across_thread_counts() {
    // A reload re-runs the Overlapper on the service's pool; the rebuilt
    // diagram (and therefore every subsequent answer) must not change.
    let serial = service(Boundary::Rrb, 1);
    let parallel = service(Boundary::Rrb, 8);
    for svc in [&serial, &parallel] {
        let resp = svc.handle(&Request {
            method: "POST".into(),
            ..Request::get("/reload", &[("wait", "1")])
        });
        assert_eq!(resp.status, 200, "{:?}", resp.body);
    }
    let a = serial.engine().get("default").unwrap();
    let b = parallel.engine().get("default").unwrap();
    assert_eq!(a.generation, 2);
    assert_eq!(b.generation, 2);
    assert_eq!(a.index.arena(), b.index.arena());
}

#[test]
fn deadline_timeouts_report_sane_progress_at_any_thread_count() {
    for threads in [1, 2, 8] {
        let svc = service(Boundary::Rrb, threads);
        for path in ["/solve", "/topk"] {
            let resp = svc.handle(&Request::get(path, &[("deadline_ms", "0")]));
            assert_eq!(
                resp.status, 504,
                "{threads} threads {path}: {:?}",
                resp.body
            );
            let completed = resp.body.get("completed_groups").unwrap().as_u64().unwrap();
            let total = resp.body.get("total_groups").unwrap().as_u64().unwrap();
            assert!(total > 0, "{threads} threads {path}");
            assert!(
                completed <= total,
                "{threads} threads {path}: {completed}/{total}"
            );
        }
    }
}

#[test]
fn stats_surface_scan_telemetry() {
    let svc = service(Boundary::Rrb, 2);
    svc.handle(&Request::get("/solve", &[]));
    svc.handle(&Request::get("/locate", &[("x", "42.0"), ("y", "17.0")]));
    let stats = svc.handle(&Request::get("/stats", &[]));
    assert_eq!(stats.status, 200);
    let scan = stats.body.get("scan").unwrap();
    assert_eq!(scan.get("threads").unwrap().as_u64(), Some(2));
    assert_eq!(scan.get("scans").unwrap().as_u64(), Some(2));
    let snap = svc.engine().get("default").unwrap();
    let evaluated = scan.get("groups_evaluated").unwrap().as_u64().unwrap();
    // /solve walks every OVR group; /locate adds its candidate set.
    assert!(
        evaluated >= snap.index.len() as u64,
        "groups_evaluated = {evaluated}"
    );
    assert!(scan.get("groups_pruned").unwrap().as_u64().is_some());
    assert!(scan
        .get("last_groups_evaluated")
        .unwrap()
        .as_u64()
        .is_some());
    assert!(scan.get("last_scan_us").unwrap().as_u64().is_some());
    // Cached locate answers skip the scan: counters stay put.
    svc.handle(&Request::get("/locate", &[("x", "42.0"), ("y", "17.0")]));
    let stats = svc.handle(&Request::get("/stats", &[]));
    assert_eq!(
        stats
            .body
            .get("scan")
            .unwrap()
            .get("scans")
            .unwrap()
            .as_u64(),
        Some(2)
    );
}
