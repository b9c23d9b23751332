//! Cross-version degradation: a snapshot written by the previous container
//! format (v1, pointer-shaped MOVD section) must fail **cleanly** into the
//! recovery ladder's CSV-rebuild rung — a typed `UnsupportedVersion`, never
//! a panic or a garbled diagram — and the rebuilt engine must answer
//! exactly like one that never saw the old file.
//!
//! The committed fixture in `tests/fixtures/pre_arena/` holds a `.molq`
//! file produced by the pre-arena code (format version 1) together with the
//! source CSVs it was built from, so this test keeps guarding the upgrade
//! path long after the v1 writer is gone.

use molq_server::engine::{DatasetSpec, Engine, LoadOutcome};
use molq_server::metrics::Metric;
use molq_server::service::{Request, Service};
use molq_store::StoreError;
use std::path::{Path, PathBuf};

/// Repo-root fixture directory with the v1 snapshot and its CSVs.
fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/pre_arena")
}

/// Copies the fixture into a scratch dir (the load overwrites the stale
/// snapshot with a current-format one; the committed fixture must stay v1).
fn stage(tag: &str) -> (PathBuf, Vec<PathBuf>) {
    let src = fixture_dir();
    let dir = std::env::temp_dir().join(format!("molq_cross_version_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut paths = Vec::new();
    for name in ["a.csv", "b.csv", "c.csv", "default.molq"] {
        let to = dir.join(name);
        std::fs::copy(src.join(name), &to).unwrap();
        if name.ends_with(".csv") {
            paths.push(to);
        }
    }
    (dir, paths)
}

fn spec(dir: &Path, paths: &[PathBuf]) -> DatasetSpec {
    DatasetSpec {
        bounds: Some(molq_geom::Mbr::new(0.0, 0.0, 100.0, 100.0)),
        snapshot_dir: Some(dir.to_path_buf()),
        ..DatasetSpec::new("default", paths.to_vec())
    }
}

#[test]
fn v1_snapshot_is_rejected_typed_not_panicking() {
    // Decoding the old file directly is a typed version error — the exact
    // shape the recovery ladder keys its CSV-rebuild rung on.
    let err = molq_store::StoredSnapshot::load_file(&fixture_dir().join("default.molq"))
        .expect_err("a v1 snapshot must not decode under the v2 reader");
    match err {
        StoreError::UnsupportedVersion { found, supported } => {
            assert_eq!(found, 1);
            assert_eq!(supported, molq_store::FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn v1_snapshot_degrades_to_csv_rebuild_with_matching_answers() {
    let (dir, paths) = stage("rebuild");

    // Load over the stale v1 snapshot: the version check fails the restore,
    // the engine warns and rebuilds from the CSVs — no panic, no error.
    let engine = Engine::new();
    let (_, outcome) = engine.load_traced(spec(&dir, &paths)).unwrap();
    assert_eq!(
        outcome,
        LoadOutcome::BuiltFromCsv,
        "a v1 snapshot must fall through to the CSV rung"
    );

    // A rejected old-format file is staleness, not storage damage: the
    // durability counters stay untouched and the engine is not degraded.
    let m = engine.metrics();
    for counter in [
        Metric::SaveFailures,
        Metric::Salvages,
        Metric::TornTails,
        Metric::JournalsSetAside,
    ] {
        assert_eq!(m.get(counter), 0, "{counter:?}");
    }
    assert!(
        !engine.durability().degraded,
        "version staleness must not degrade the engine"
    );

    // The rebuilt engine answers byte-for-byte like one built from the same
    // CSVs with no snapshot machinery at all.
    let plain = Engine::new();
    plain
        .load_traced(DatasetSpec {
            snapshot_dir: None,
            ..spec(&dir, &paths)
        })
        .unwrap();
    let svc = Service::new(engine);
    let oracle = Service::new(plain);
    for req in [
        Request::get("/solve", &[]),
        Request::get("/topk", &[("k", "4")]),
        Request::get("/locate", &[("x", "37.5"), ("y", "61.25")]),
    ] {
        let got = svc.handle(&req);
        let want = oracle.handle(&req);
        assert_eq!(got.status, want.status, "{req:?}");
        assert_eq!(got.body.encode(), want.body.encode(), "{req:?}");
    }

    // The rebuild re-persisted the dataset in the current format: the next
    // load restores instead of rebuilding.
    let (_, outcome) = Engine::new().load_traced(spec(&dir, &paths)).unwrap();
    assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
    let _ = std::fs::remove_dir_all(&dir);
}
