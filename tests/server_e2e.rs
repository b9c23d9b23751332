//! End-to-end test of the serving system: a real HTTP server on an ephemeral
//! port, concurrent clients mixing `locate` / `solve` / `topk`, every answer
//! checked against direct library calls, then a graceful shutdown.

// Serving runs on epoll: Linux only.
#![cfg(target_os = "linux")]

use molq::prelude::*;
use molq_geom::{Mbr, Point};
use molq_server::engine::{DatasetSpec, Engine};
use molq_server::http::{start, ServerConfig};
use molq_server::service::Service;
use molq_server::Client;
use std::sync::Arc;

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

#[test]
fn concurrent_clients_get_library_exact_answers() {
    let bounds = Mbr::new(0.0, 0.0, 100.0, 100.0);
    let sets = vec![
        pseudo_set("stations", 2.0, 12, 51),
        pseudo_set("churches", 1.0, 14, 52),
        pseudo_set("schools", 1.5, 10, 53),
    ];

    // Library-side ground truth: the same query, solved directly.
    let query = MolqQuery::new(sets.clone(), bounds)
        .with_rule(molq_fw::StoppingRule::Either(1e-9, 100_000));
    let direct_answer = solve_rrb(&query).unwrap();
    let direct_topk = solve_topk(&query, Boundary::Rrb, 3).unwrap();
    let oracle_index =
        MovdIndex::build(Movd::overlap_all(&query.sets, bounds, Boundary::Rrb).unwrap());

    // Server side: the same sets behind HTTP on an ephemeral port.
    let engine = Engine::new();
    engine
        .load_from_sets(
            DatasetSpec {
                bounds: Some(bounds),
                eps: 1e-9,
                ..DatasetSpec::new("default", Vec::new())
            },
            sets,
        )
        .unwrap();
    let service = Arc::new(Service::new(engine));
    let handle = start(
        Arc::clone(&service),
        ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let query = Arc::new(query);
    let oracle_index = Arc::new(oracle_index);
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let query = Arc::clone(&query);
            let oracle_index = Arc::clone(&oracle_index);
            let direct_answer = direct_answer.clone();
            let direct_topk = direct_topk.clone();
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..25usize {
                    match (t + i) % 3 {
                        0 => {
                            let x = ((t * 31 + i * 7) as f64 * 1.37 + 0.8) % 100.0;
                            let y = ((t * 17 + i * 13) as f64 * 2.11 + 0.4) % 100.0;
                            let resp = client.get(&format!("/locate?x={x}&y={y}")).unwrap();
                            assert_eq!(resp.status, 200, "{:?}", resp.body);
                            let at = resp.body.get("evaluated_at").unwrap();
                            let snapped = Point::new(
                                at.get("x").unwrap().as_f64().unwrap(),
                                at.get("y").unwrap().as_f64().unwrap(),
                            );
                            // The server's group cost at the evaluated point
                            // equals what MovdIndex::locate_id yields directly.
                            let id = oracle_index.locate_id(snapped).unwrap();
                            let oracle =
                                molq_core::weights::wgd(snapped, &query, oracle_index.group(id));
                            let cost = resp.body.get("cost").unwrap().as_f64().unwrap();
                            assert!(
                                (cost - oracle).abs() <= 1e-9 * oracle.max(1.0),
                                "locate({x}, {y}): {cost} vs {oracle}"
                            );
                        }
                        1 => {
                            let resp = client.get("/solve").unwrap();
                            assert_eq!(resp.status, 200, "{:?}", resp.body);
                            let cost = resp.body.get("cost").unwrap().as_f64().unwrap();
                            assert!(
                                (cost - direct_answer.cost).abs() <= 1e-9 * direct_answer.cost,
                                "solve: {cost} vs {}",
                                direct_answer.cost
                            );
                            let loc = resp.body.get("location").unwrap();
                            let p = Point::new(
                                loc.get("x").unwrap().as_f64().unwrap(),
                                loc.get("y").unwrap().as_f64().unwrap(),
                            );
                            assert!(p.dist(direct_answer.location) <= 1e-6);
                        }
                        _ => {
                            let resp = client.get("/topk?k=3").unwrap();
                            assert_eq!(resp.status, 200, "{:?}", resp.body);
                            let got = resp.body.get("candidates").unwrap().as_arr().unwrap();
                            assert_eq!(got.len(), direct_topk.candidates.len());
                            for (g, want) in got.iter().zip(&direct_topk.candidates) {
                                let c = g.get("cost").unwrap().as_f64().unwrap();
                                assert!(
                                    (c - want.cost).abs() <= 1e-9 * want.cost.max(1.0),
                                    "topk: {c} vs {}",
                                    want.cost
                                );
                            }
                        }
                    }
                }
            });
        }
    });

    // All 100 requests were served and the locate cache saw traffic.
    let mut client = Client::connect(addr).unwrap();
    let stats = client.get("/stats").unwrap();
    let endpoints = stats.body.get("endpoints").unwrap();
    let count = |name: &str| {
        endpoints
            .get(name)
            .unwrap()
            .get("requests")
            .unwrap()
            .as_u64()
            .unwrap()
    };
    assert_eq!(count("locate") + count("solve") + count("topk"), 100);
    assert_eq!(
        endpoints
            .get("locate")
            .unwrap()
            .get("errors")
            .unwrap()
            .as_u64(),
        Some(0)
    );

    // Graceful shutdown: joins every worker; afterwards connections fail.
    handle.shutdown();
    assert!(
        molq_server::Client::connect(addr).is_err(),
        "listener should be closed after shutdown"
    );
}
