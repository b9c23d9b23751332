//! Deadline-aware shedding and loop isolation end to end.
//!
//! A test binary of its own: the fault registry is process-global, and the
//! `service.slow` fault armed here must not slow other suites' requests.

// Serving runs on epoll: Linux only.
#![cfg(target_os = "linux")]

use molq_core::prelude::*;
use molq_geom::{Mbr, Point};
use molq_server::engine::{DatasetSpec, Engine};
use molq_server::fault;
use molq_server::http::{start, ServerConfig};
use molq_server::service::{Service, ServiceConfig};
use molq_server::Client;
use std::io::{ErrorKind, Read, Write};
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

fn get(target: &str) -> String {
    format!("GET {target} HTTP/1.1\r\nHost: m\r\n\r\n")
}

/// Sends one keep-alive `/health` and returns the first chunk of the
/// answer, which holds its status line.
fn health(conn: &mut TcpStream) -> String {
    conn.write_all(get("/health").as_bytes()).unwrap();
    let mut buf = [0u8; 8192];
    let n = conn.read(&mut buf).unwrap();
    String::from_utf8_lossy(&buf[..n]).into_owned()
}

/// One slow `/solve` holds the event loop that owns its connection for the
/// whole request timeout. A connection on the other loop is answered
/// meanwhile; a request pipelined behind the slow one on its loop has
/// waited longer than its evaluation may take when its turn comes, so it
/// is shed with `503` + `Retry-After`.
#[test]
fn a_slow_request_holds_only_its_loop_and_what_waited_behind_it_is_shed() {
    let request_timeout = Duration::from_secs(1);
    let engine = Engine::new();
    engine
        .load_from_sets(
            DatasetSpec {
                bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
                ..DatasetSpec::new("default", Vec::new())
            },
            vec![
                pseudo_set("a", 16, 71),
                pseudo_set("b", 14, 72),
                pseudo_set("c", 12, 73),
            ],
        )
        .unwrap();
    // threads: 1 so the slow fault throttles serial per-group checkpoints.
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

    // A is accepted first, onto one loop; a round trip makes sure of it.
    let mut a = TcpStream::connect(addr).unwrap();
    a.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let resp = health(&mut a);
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp:?}");

    // One write puts both requests in A's loop's same read, so they share
    // one event batch: the slow /solve runs until the request timeout and
    // the /health behind it is dispatched more than the timeout after the
    // batch began.
    fault::arm_spec("service.slow=sleep:250*1").unwrap();
    let pipelined = get("/solve") + &get("/health");
    a.write_all(pipelined.as_bytes()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while fault::fired("service.slow") == 0 {
        assert!(Instant::now() < deadline, "the slow /solve never started");
        std::thread::sleep(Duration::from_millis(1));
    }

    // B goes to the other loop (the fewest open connections) and is
    // answered while A's loop is still inside the slow /solve.
    let mut b = TcpStream::connect(addr).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let resp = health(&mut b);
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp:?}");
    a.set_nonblocking(true).unwrap();
    let pending = a.peek(&mut [0u8; 1]).map_err(|e| e.kind());
    assert_eq!(pending, Err(ErrorKind::WouldBlock), "A was answered first");
    a.set_nonblocking(false).unwrap();

    // The shed answer closes the connection, so A reads to EOF.
    let mut answers = String::new();
    a.read_to_string(&mut answers).unwrap();
    fault::disarm_all();
    assert!(answers.starts_with("HTTP/1.1 504"), "{answers:?}");
    let shed = answers.find("HTTP/1.1 503").expect("the /health was shed");
    assert!(
        answers[shed..].contains("Retry-After: 1\r\n"),
        "{answers:?}"
    );

    let stats = Client::connect(addr).unwrap().get("/stats").unwrap();
    let shed = stats
        .body
        .get("resilience")
        .unwrap()
        .get("queue_shed")
        .unwrap()
        .as_u64();
    assert_eq!(shed, Some(1), "{:?}", stats.body);
    handle.shutdown();
}
