//! Transport and batch end-to-end tests over real sockets:
//!
//! * batch endpoints answer byte-identically to N individual requests,
//!   including `404` unknown-dataset and `504` deadline bodies;
//! * pipelined keep-alive requests all get answers, in order;
//! * a slow-loris connection (header drip, then silence) is reaped without
//!   wedging concurrent well-behaved clients;
//! * a client that closes mid-exchange doesn't take the server down;
//! * sharded dataset routing resolves every dataset over HTTP.

// Serving runs on epoll: Linux only.
#![cfg(target_os = "linux")]

use molq_core::prelude::*;
use molq_geom::{Mbr, Point};
use molq_server::engine::{DatasetSpec, Engine};
use molq_server::http::{start, ServerConfig};
use molq_server::service::{Service, ServiceConfig};
use molq_server::{Client, Json, ShardedEngine};
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
    let engines = ShardedEngine::new(1);
    load_dataset(engines.engine_for("default"), "default", 81);
    load_dataset(engines.engine_for("beta"), "beta", 91);
    Arc::new(Service::sharded(engines, ServiceConfig::default()))
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
fn sharded_datasets_resolve_over_http() {
    let engines = ShardedEngine::new(3);
    let names = ["default", "alpha", "beta", "gamma", "delta"];
    for (i, name) in names.iter().enumerate() {
        load_dataset(engines.engine_for(name), name, 100 + i as u64 * 10);
    }
    // Routing is deterministic and uses more than one shard for this set.
    let expected: Vec<usize> = names.iter().map(|n| engines.shard_of(n)).collect();
    let distinct = {
        let mut d = expected.clone();
        d.sort_unstable();
        d.dedup();
        d.len()
    };
    assert!(distinct > 1, "all of {names:?} landed on one shard");

    let service = Arc::new(Service::sharded(engines, ServiceConfig::default()));
    let handle = start(Arc::clone(&service), config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for name in names {
        let resp = client.get(&format!("/solve?dataset={name}")).unwrap();
        assert_eq!(resp.status, 200, "{name}: {:?}", resp.body);
        assert_eq!(resp.body.get("dataset").unwrap().as_str(), Some(name));
    }
    // /health lists every dataset across shards; /stats describes the
    // shard layout.
    let health = client.get("/health").unwrap();
    let listed = health.body.get("datasets").unwrap().as_arr().unwrap();
    assert_eq!(listed.len(), names.len());
    let stats = client.get("/stats").unwrap();
    let shards = stats.body.get("shards").unwrap();
    assert_eq!(shards.get("count").unwrap().as_u64(), Some(3));
    let rows = shards.get("assignments").unwrap().as_arr().unwrap();
    assert_eq!(rows.len(), 3);
    let total: u64 = rows
        .iter()
        .map(|r| r.get("datasets").unwrap().as_u64().unwrap())
        .sum();
    assert_eq!(total, names.len() as u64);
    // A batch addressed across shards answers every item.
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
