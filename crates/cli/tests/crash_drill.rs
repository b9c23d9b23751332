//! The `kill -9` process drill: a real `molq serve` process takes
//! acknowledged live updates, dies by SIGKILL with one more update still
//! in flight, and a restarted process must recover every acknowledged
//! update — the in-flight one may or may not have reached the journal, so
//! the recovered count is allowed to land on either side of it.
//!
//! This is the end-to-end companion to the in-process crash-point
//! enumeration in `molq-store`: same invariant, but with an actual
//! process boundary, real files, and real fsyncs.

#![cfg(target_os = "linux")]

use molq_server::Client;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Starts `molq serve` against `csv` with `snap` as the snapshot dir and
/// returns the child plus the bound address parsed from the banner.
fn spawn_serve(csv: &std::path::Path, snap: &std::path::Path) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_molq"))
        .args([
            "serve",
            "--input",
            csv.to_str().unwrap(),
            "--bounds",
            "0,0,100,100",
            "--port",
            "0",
            "--workers",
            "2",
            "--snapshot-dir",
            snap.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn molq serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = match lines.next() {
            Some(Ok(line)) => line,
            other => {
                let _ = child.kill();
                panic!("serve exited before printing its address: {other:?}");
            }
        };
        if let Some(rest) = line.split("http://").nth(1) {
            break rest.trim().parse::<SocketAddr>().expect("bind address");
        }
    };
    // Keep draining so the child never blocks on a full stderr pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// Inserts one object and returns the server's post-update object count.
fn insert(client: &mut Client, i: usize) -> usize {
    let target = format!(
        "/datasets/default/objects?set=0&x={}&y={}",
        2.125 + i as f64 * 3.5,
        91.375 - i as f64 * 2.25,
    );
    let resp = client.post(&target).expect("insert");
    assert_eq!(resp.status, 200, "insert {i}: {:?}", resp.body);
    resp.body
        .get("objects")
        .and_then(|j| j.as_u64())
        .expect("objects") as usize
}

/// Writes a 20-object STM layer to `csv`.
fn generate(csv: &std::path::Path) {
    let gen = Command::new(env!("CARGO_BIN_EXE_molq"))
        .args([
            "generate",
            "--layer",
            "STM",
            "--n",
            "20",
            "--seed",
            "42",
            "--out",
            csv.to_str().unwrap(),
            "--bounds",
            "0,0,100,100",
        ])
        .output()
        .expect("molq generate");
    assert!(gen.status.success(), "{gen:?}");
}

/// A fresh scratch dir for one drill.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("molq_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn kill_nine_preserves_every_acknowledged_update() {
    let dir = scratch("crash_drill");
    let csv = dir.join("stm.csv");
    let snap = dir.join("snap");
    generate(&csv);

    let (mut child, addr) = spawn_serve(&csv, &snap);
    let mut client = Client::connect(addr).expect("connect");

    // Acknowledged updates: each 200 means the journal append fsync'd.
    const ACKED: usize = 6;
    let mut count = 0;
    for i in 0..ACKED {
        count = insert(&mut client, i);
    }
    let base = count - ACKED;

    // One more update fired into the socket without reading the response,
    // then SIGKILL: the record is either durable or absent, never torn
    // into the recovered state.
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    raw.write_all(
        b"POST /datasets/default/objects?set=0&x=77.625&y=3.875 HTTP/1.1\r\n\
          Host: drill\r\nContent-Length: 0\r\n\r\n",
    )
    .expect("fire and forget");
    raw.flush().expect("flush");
    // Give the request a moment to reach the handler so the drill
    // actually races the append, then pull the plug.
    std::thread::sleep(Duration::from_millis(30));
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
    drop(raw);

    // Restart over the same snapshot dir: base + journal replay.
    let (mut child2, addr2) = spawn_serve(&csv, &snap);
    let mut client2 = Client::connect(addr2).expect("reconnect");
    let after = insert(&mut client2, ACKED + 1) - 1;
    assert!(
        (base + ACKED..=base + ACKED + 1).contains(&after),
        "recovered {after} objects; expected {} acknowledged (+1 in-flight at most), base {base}",
        base + ACKED
    );
    child2.kill().expect("stop restarted server");
    child2.wait().expect("reap restarted server");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The compact probe: while `molq serve` owns a snapshot dir, `molq update
/// compact` and `molq update add` on it exit non-zero and leave the base
/// and journal byte-identical; the server keeps acknowledging inserts, and
/// after kill + restart every acknowledged insert is served.
#[test]
fn a_served_dir_refuses_offline_updates_and_loses_nothing() {
    let dir = scratch("compact_probe");
    let csv = dir.join("stm.csv");
    let snap = dir.join("snap");
    generate(&csv);

    let (mut child, addr) = spawn_serve(&csv, &snap);
    let mut client = Client::connect(addr).expect("connect");
    let first = insert(&mut client, 0);

    let files = [snap.join("default.molq"), snap.join("default.journal")];
    let read = || {
        files
            .iter()
            .map(|f| std::fs::read(f).unwrap())
            .collect::<Vec<_>>()
    };
    let before = read();
    let snap_dir = snap.to_str().unwrap();
    for args in [
        vec!["update", "compact", "--dir", snap_dir],
        vec![
            "update", "add", "--dir", snap_dir, "--set", "0", "--x", "50.5", "--y", "49.25",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_molq"))
            .args(&args)
            .output()
            .expect("molq update");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} ran on a served dir");
        assert!(
            stderr.contains("another process or engine owns") && stderr.contains(snap_dir),
            "{args:?}: {stderr}"
        );
    }
    assert!(
        read() == before,
        "a refused update changed the dataset's files"
    );

    // The server still owns its journal: one more insert is acknowledged.
    let second = insert(&mut client, 1);
    assert_eq!(second, first + 1);
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");

    let (mut child2, addr2) = spawn_serve(&csv, &snap);
    let mut client2 = Client::connect(addr2).expect("reconnect");
    let after = insert(&mut client2, 2) - 1;
    assert_eq!(after, second, "a restart lost acknowledged inserts");
    child2.kill().expect("stop restarted server");
    child2.wait().expect("reap restarted server");
    let _ = std::fs::remove_dir_all(&dir);
}
