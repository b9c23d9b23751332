//! Transport and batch end-to-end tests over real sockets:
//!
//! * batch endpoints answer byte-identically to N individual requests,
//!   including `404` unknown-dataset and `504` deadline bodies;
//! * pipelined keep-alive requests all get answers, in order;
//! * a slow-loris connection (header drip, then silence) is reaped without
//!   wedging concurrent well-behaved clients;
//! * a client that closes mid-exchange doesn't take the server down;
//! * several datasets on one engine all resolve over HTTP;
//! * a dataset whose rebuilds keep failing trips only its own breaker.

// Serving runs on epoll: Linux only.
#![cfg(target_os = "linux")]

use molq_core::prelude::*;
use molq_geom::{Mbr, Point};
use molq_server::engine::{BreakerConfig, DatasetSpec, Engine};
use molq_server::http::{start, ServerConfig};
use molq_server::service::{Service, ServiceConfig};
use molq_server::{Client, Json};
use std::io::{Read, Write};
use std::net::TcpStream;
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

fn load_dataset(engine: &Engine, name: &str, seed: u64) {
    engine
        .load_from_sets(
            DatasetSpec {
                bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
                ..DatasetSpec::new(name, Vec::new())
            },
            vec![
                pseudo_set("a", 12, seed),
                pseudo_set("b", 10, seed + 1),
                pseudo_set("c", 8, seed + 2),
            ],
        )
        .unwrap();
}

fn sample_service() -> Arc<Service> {
    let engine = Engine::new();
    load_dataset(&engine, "default", 81);
    load_dataset(&engine, "beta", 91);
    Arc::new(Service::new(engine))
}

fn config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }
}

#[test]
fn batch_items_answer_byte_identically_to_individual_requests() {
    let handle = start(sample_service(), config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // The oracle: one individual request per batch item, same order.
    let singles = [
        client.get("/solve").unwrap(),
        client.get("/solve?dataset=beta").unwrap(),
        client.get("/solve?dataset=missing").unwrap(),
    ];
    let body = r#"[
        {},
        {"dataset": "beta"},
        {"dataset": "missing"}
    ]"#;
    let batch = client.post_body("/solve_batch", body.as_bytes()).unwrap();
    assert_eq!(batch.status, 200, "{:?}", batch.body);
    let results = batch.body.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), singles.len());
    for (i, (single, item)) in singles.iter().zip(results).enumerate() {
        assert_eq!(
            item.get("status").unwrap().as_u64().unwrap(),
            u64::from(single.status),
            "item {i}"
        );
        assert_eq!(
            item.get("body").unwrap().encode(),
            single.body.encode(),
            "item {i}"
        );
    }

    // Top-k items: default k, explicit k, invalid k — same bodies as
    // the individual endpoint, including the 400 message.
    let singles = [
        client.get("/topk").unwrap(),
        client.get("/topk?k=3").unwrap(),
        client.get("/topk?k=0").unwrap(),
    ];
    let body = r#"{"queries": [{}, {"k": 3}, {"k": 0}]}"#;
    let batch = client.post_body("/topk_batch", body.as_bytes()).unwrap();
    assert_eq!(batch.status, 200, "{:?}", batch.body);
    let results = batch.body.get("results").unwrap().as_arr().unwrap();
    for (i, (single, item)) in singles.iter().zip(results).enumerate() {
        assert_eq!(
            item.get("status").unwrap().as_u64().unwrap(),
            u64::from(single.status),
            "topk item {i}"
        );
        assert_eq!(
            item.get("body").unwrap().encode(),
            single.body.encode(),
            "topk item {i}"
        );
    }

    // Deadline exhaustion: item bodies carry the same 504 partial
    // progress the individual endpoint reports.
    let single = client.get("/solve?deadline_ms=0").unwrap();
    assert_eq!(single.status, 504);
    let batch = client
        .post_body("/solve_batch?deadline_ms=0", b"[{}]")
        .unwrap();
    assert_eq!(batch.status, 200);
    let item = &batch.body.get("results").unwrap().as_arr().unwrap()[0];
    assert_eq!(item.get("status").unwrap().as_u64(), Some(504));
    assert_eq!(
        item.get("body").unwrap().encode(),
        single.body.encode(),
        "504 body"
    );

    // Amortization: N identical items cost one scan, and the response
    // says so.
    let batch = client.post_body("/solve_batch?n=8", b"").unwrap();
    assert_eq!(batch.status, 200, "{:?}", batch.body);
    let meta = batch.body.get("batch").unwrap();
    assert_eq!(meta.get("items").unwrap().as_u64(), Some(8));
    assert_eq!(meta.get("scans").unwrap().as_u64(), Some(1));
    assert_eq!(meta.get("amortized_items").unwrap().as_u64(), Some(7));
    let results = batch.body.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), 8);
    let first = results[0].encode();
    assert!(results.iter().all(|r| r.encode() == first));

    // Malformed batches are request-level 400s.
    for (target, body) in [
        ("/solve_batch", &b"[]"[..]),
        ("/solve_batch", b"not json"),
        ("/topk_batch", b"{\"nope\": 1}"),
    ] {
        let resp = client.post_body(target, body).unwrap();
        assert_eq!(resp.status, 400, "{target}");
        assert!(resp.body.get("error").is_some());
    }
    // GET on a batch endpoint is a 400 too.
    assert_eq!(client.get("/solve_batch").unwrap().status, 400);

    // /stats saw the amortization.
    let stats = client.get("/stats").unwrap();
    let batch_stats = stats.body.get("batch").unwrap();
    assert!(batch_stats.get("batches").unwrap().as_u64().unwrap() >= 3);
    assert!(
        batch_stats
            .get("amortized_items")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 7
    );
    handle.shutdown();
}

#[test]
fn pipelined_keep_alive_requests_answer_in_order() {
    let handle = start(sample_service(), config()).unwrap();
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Three requests in ONE write; answers must come back in order on
    // the same connection.
    let pipelined = "GET /health HTTP/1.1\r\nHost: m\r\n\r\n\
                     GET /stats HTTP/1.1\r\nHost: m\r\n\r\n\
                     GET /nope HTTP/1.1\r\nHost: m\r\n\r\n";
    raw.write_all(pipelined.as_bytes()).unwrap();
    let mut seen = Vec::new();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    while seen.len() < 3 {
        let n = raw.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed after {seen:?}");
        buf.extend_from_slice(&chunk[..n]);
        // Count complete responses by their status lines.
        let text = String::from_utf8_lossy(&buf);
        seen = text
            .match_indices("HTTP/1.1 ")
            .map(|(i, _)| text[i + 9..i + 12].to_string())
            .collect();
    }
    assert_eq!(seen, ["200", "200", "404"]);
    handle.shutdown();
}

#[test]
fn slow_loris_is_reaped_without_wedging_other_clients() {
    let read_timeout = Duration::from_millis(300);
    let handle = start(
        sample_service(),
        ServerConfig {
            read_timeout,
            ..config()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // The loris: drip half a request head, then go silent.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(b"GET /health HT").unwrap();
    loris.set_read_timeout(Some(read_timeout * 10)).unwrap();

    // While it hangs, a well-behaved client is served immediately.
    let mut client = Client::connect(addr).unwrap();
    let resp = client.get("/health").unwrap();
    assert_eq!(resp.status, 200);

    // The loris connection is closed (EOF) within the idle timeout
    // plus scheduling slack, not held forever.
    let start_wait = Instant::now();
    let mut sink = [0u8; 64];
    let n = loris.read(&mut sink).unwrap_or(0);
    assert_eq!(n, 0, "expected EOF, got {n} bytes");
    assert!(
        start_wait.elapsed() < read_timeout * 8,
        "loris held open {:?}",
        start_wait.elapsed()
    );
    handle.shutdown();
}

#[test]
fn premature_close_leaves_the_server_serving() {
    let handle = start(sample_service(), config()).unwrap();
    let addr = handle.addr();
    // Fire a request and slam the connection without reading the answer,
    // several times in a row.
    for _ in 0..5 {
        let mut rude = TcpStream::connect(addr).unwrap();
        rude.write_all(b"GET /solve HTTP/1.1\r\nHost: m\r\n\r\n")
            .unwrap();
        drop(rude);
    }
    // The server still answers politely afterwards.
    let mut client = Client::connect(addr).unwrap();
    for _ in 0..3 {
        assert_eq!(client.get("/solve").unwrap().status, 200);
    }
    handle.shutdown();
}

#[test]
fn datasets_on_one_engine_resolve_over_http() {
    let engine = Engine::new();
    let names = ["default", "alpha", "beta", "gamma", "delta"];
    for (i, name) in names.iter().enumerate() {
        load_dataset(&engine, name, 100 + i as u64 * 10);
    }

    let service = Arc::new(Service::with_config(engine, ServiceConfig::default()));
    let handle = start(Arc::clone(&service), config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for name in names {
        let resp = client.get(&format!("/solve?dataset={name}")).unwrap();
        assert_eq!(resp.status, 200, "{name}: {:?}", resp.body);
        assert_eq!(resp.body.get("dataset").unwrap().as_str(), Some(name));
    }
    // /health lists every dataset.
    let health = client.get("/health").unwrap();
    let mut listed: Vec<&str> = health
        .body
        .get("datasets")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|n| n.as_str().unwrap())
        .collect();
    listed.sort_unstable();
    let mut expected = names.to_vec();
    expected.sort_unstable();
    assert_eq!(listed, expected);
    // A batch addressed across datasets answers every item.
    let body = Json::from(
        names
            .iter()
            .map(|n| Json::obj().set("dataset", *n))
            .collect::<Vec<_>>(),
    )
    .encode();
    let batch = client.post_body("/solve_batch", body.as_bytes()).unwrap();
    assert_eq!(batch.status, 200, "{:?}", batch.body);
    let results = batch.body.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), names.len());
    for (name, item) in names.iter().zip(results) {
        assert_eq!(item.get("status").unwrap().as_u64(), Some(200), "{name}");
    }
    handle.shutdown();
}

#[test]
fn a_failing_dataset_trips_only_its_own_breaker() {
    let dir = std::env::temp_dir().join("molq_transport_e2e_isolation");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let engine = Engine::new();
    engine.set_breaker_config(BreakerConfig {
        threshold: 2,
        base_backoff: Duration::from_secs(60),
        max_backoff: Duration::from_secs(60),
    });
    for (i, name) in ["steady", "doomed"].into_iter().enumerate() {
        let paths = ["a", "b"]
            .iter()
            .enumerate()
            .map(|(j, layer)| {
                let path = dir.join(format!("{name}_{layer}.csv"));
                let set = pseudo_set(layer, 10, 200 + (2 * i + j) as u64);
                let mut f = std::fs::File::create(&path).unwrap();
                molq_datagen::csv::write_csv(&set, &mut f).unwrap();
                path
            })
            .collect();
        engine
            .load(DatasetSpec {
                bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
                ..DatasetSpec::new(name, paths)
            })
            .unwrap();
    }
    let service = Arc::new(Service::new(engine));
    let handle = start(Arc::clone(&service), config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Without one of its CSVs, every rebuild of `doomed` fails until its
    // breaker opens.
    std::fs::remove_file(dir.join("doomed_a.csv")).unwrap();
    for _ in 0..2 {
        let failed = client.post("/reload?dataset=doomed&wait=1").unwrap();
        assert_eq!(failed.status, 400, "{:?}", failed.body);
    }
    let shed = client.post("/reload?dataset=doomed&wait=1").unwrap();
    assert_eq!(shed.status, 503, "{:?}", shed.body);

    // `steady` still reloads, publishes and answers; `doomed` keeps serving
    // its last good generation.
    let reloaded = client.post("/reload?dataset=steady&wait=1").unwrap();
    assert_eq!(reloaded.status, 200, "{:?}", reloaded.body);
    assert_eq!(reloaded.body.get("generation").unwrap().as_u64(), Some(2));
    for (name, generation) in [("steady", 2), ("doomed", 1)] {
        let solve = client.get(&format!("/solve?dataset={name}")).unwrap();
        assert_eq!(solve.status, 200, "{name}: {:?}", solve.body);
        assert_eq!(
            solve.body.get("generation").unwrap().as_u64(),
            Some(generation),
            "{name}"
        );
    }

    // Only the failing dataset shows up in /health's breakers.
    let health = client.get("/health").unwrap();
    let breakers = health.body.get("breakers").unwrap().as_arr().unwrap();
    assert_eq!(breakers.len(), 1, "{breakers:?}");
    assert_eq!(breakers[0].get("dataset").unwrap().as_str(), Some("doomed"));
    assert_eq!(breakers[0].get("open"), Some(&Json::Bool(true)));
    handle.shutdown();
}
