//! End-to-end live-update durability: a served dataset takes inserts and
//! deletes over the service API, the process "dies" (the engine is simply
//! dropped — nothing is flushed beyond what the write-ahead journal already
//! made durable), and a fresh engine restoring from base + journal answers
//! `solve`, `topk`, and `locate` **byte-identically** to an engine built
//! directly over the updated object sets. A torn trailing journal record —
//! the fingerprint of a crash mid-append — must not change any of that.

use molq_core::prelude::*;
use molq_geom::{Mbr, Point};
use molq_server::engine::{DatasetSpec, Engine, LoadOutcome};
use molq_server::metrics::Metric;
use molq_server::service::{Request, Service};

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

fn spec(dir: Option<&std::path::Path>, paths: Vec<std::path::PathBuf>) -> DatasetSpec {
    DatasetSpec {
        paths,
        bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
        eps: 1e-6,
        snapshot_dir: dir.map(|d| d.to_path_buf()),
        ..DatasetSpec::new("d", Vec::new())
    }
}

fn post(path: &str, params: &[(&str, &str)]) -> Request {
    Request {
        method: "POST".into(),
        ..Request::get(path, params)
    }
}

fn delete(path: &str, params: &[(&str, &str)]) -> Request {
    Request {
        method: "DELETE".into(),
        ..Request::get(path, params)
    }
}

/// The query battery whose response bodies must match byte-for-byte.
fn probe(svc: &Service) -> Vec<String> {
    let mut out = Vec::new();
    for req in [
        Request::get("/solve", &[("dataset", "d")]),
        Request::get("/topk", &[("dataset", "d"), ("k", "4")]),
        Request::get(
            "/locate",
            &[("dataset", "d"), ("x", "41.125"), ("y", "58.5")],
        ),
        Request::get(
            "/locate",
            &[("dataset", "d"), ("x", "7.25"), ("y", "91.75")],
        ),
    ] {
        let resp = svc.handle(&req);
        assert_eq!(resp.status, 200, "{:?}: {:?}", req.path, resp.body);
        out.push(resp.body.encode());
    }
    out
}

#[test]
fn restart_replays_the_journal_to_identical_served_bytes() {
    let dir = std::env::temp_dir().join("molq_update_e2e");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Source CSVs, built once and persisted with a clean journal.
    let mut sets = vec![
        pseudo_set("a", 2.0, 9, 71),
        pseudo_set("b", 1.0, 11, 72),
        pseudo_set("c", 1.5, 8, 73),
    ];
    let mut paths = Vec::new();
    for set in &sets {
        let path = dir.join(format!("{}.csv", set.name));
        let mut f = std::fs::File::create(&path).unwrap();
        molq_datagen::csv::write_csv(set, &mut f).unwrap();
        paths.push(path);
    }

    let engine = Engine::new();
    let (_, outcome) = engine.load_traced(spec(Some(&dir), paths.clone())).unwrap();
    assert_eq!(outcome, LoadOutcome::BuiltFromCsv);
    let svc = Service::new(engine);

    // Live traffic: three inserts and one delete through the API. Mirror
    // every accepted update into `sets` for the reference build.
    for (set, x, y, w_o) in [
        ("a", 33.25, 44.5, 2.0),
        ("b", 61.75, 12.125, 1.0),
        ("c", 18.5, 77.25, 3.0),
    ] {
        let target = sets.iter_mut().find(|s| s.name == set).unwrap();
        let w_t = target.objects[0].w_t;
        let resp = svc.handle(&post(
            "/datasets/d/objects",
            &[
                ("set", set),
                ("x", &x.to_string()),
                ("y", &y.to_string()),
                ("w_t", &w_t.to_string()),
                ("w_o", &w_o.to_string()),
            ],
        ));
        assert_eq!(resp.status, 200, "{:?}", resp.body);
        target.objects.push(SpatialObject {
            loc: Point::new(x, y),
            w_t,
            w_o,
        });
    }
    let resp = svc.handle(&delete("/datasets/d/objects/2", &[("set", "b")]));
    assert_eq!(resp.status, 200, "{:?}", resp.body);
    sets[1].objects.remove(2);

    let live_answers = probe(&svc);
    drop(svc); // "kill" the server: nothing beyond the journal survives

    // The journal is durable and the base file untouched.
    let journal = dir.join("d.journal");
    assert!(journal.exists());
    let clean_len = std::fs::metadata(&journal).unwrap().len();

    // Crash fingerprint: a torn partial record at the journal tail (the
    // append was cut mid-write). The prefix must replay; the tail must go.
    let mut bytes = std::fs::read(&journal).unwrap();
    bytes.extend_from_slice(&[0xABu8; 30]);
    std::fs::write(&journal, &bytes).unwrap();

    // Restart: base + journal replay.
    let engine = Engine::new();
    let (snap, outcome) = engine.load_traced(spec(Some(&dir), paths)).unwrap();
    assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
    assert_eq!(
        snap.object_count(),
        sets.iter().map(|s| s.objects.len()).sum::<usize>()
    );
    let restored = Service::new(engine);
    assert_eq!(restored.metrics().get(Metric::UpdatesReplayed), 4);
    // Reopening truncated the torn tail.
    assert_eq!(std::fs::metadata(&journal).unwrap().len(), clean_len);

    // Reference: a fresh engine built directly over the updated sets (no
    // snapshot dir, same spec otherwise) — both serve generation 1.
    let reference = Engine::new();
    reference
        .load_from_sets(spec(None, Vec::new()), sets)
        .unwrap();
    let reference = Service::new(reference);

    let restored_answers = probe(&restored);
    assert_eq!(restored_answers, probe(&reference));

    // And the restart changed no served byte relative to the live process,
    // apart from the generation counter it restarted from.
    for (live, replayed) in live_answers.iter().zip(&restored_answers) {
        assert_eq!(
            live.replace("\"generation\":5", "\"generation\":1"),
            *replayed
        );
    }

    // The replayed state also survives further updates: one more insert on
    // the restored engine answers and journals normally.
    let resp = restored.handle(&post(
        "/datasets/d/objects",
        &[("set", "a"), ("x", "3.5"), ("y", "2.25")],
    ));
    assert_eq!(resp.status, 200, "{:?}", resp.body);
    assert!(std::fs::metadata(&journal).unwrap().len() > clean_len);

    let _ = std::fs::remove_dir_all(&dir);
}
