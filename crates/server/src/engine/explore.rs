//! Interleaving explorer, first cut: every ordered pair of engine
//! operations, with the first op held at a test hold point while the second
//! runs, checked against a sequential model of the dataset's object sets.
//!
//! The ops are a live update, a blocking reload, a background reload,
//! `load_from_sets`, a CSV load, a CSV edit that is reverted mid-build, a
//! restart (a fresh engine loading the same spec from disk) and a second
//! owner's compaction (a fresh engine running [`Engine::open_dir`] and
//! [`Engine::compact`] on the same dir, what `molq update compact` does).
//! The hold points are `build.start` (a build is about to start, no lock
//! held), `update.publish` (a live update's record is durable, its
//! publication pending, the writer held) and `publish.persist` (a CSV
//! build won its compare-and-swap, its base neither saved nor served, the
//! writer held). Op A runs until it reaches the point; op B then runs to
//! completion, or, when A holds the writer, until B waits on it; then A is
//! released. A pair is explored only at the points op A can reach. The CSV
//! edit is reverted while it is held at `publish.persist`, so it is
//! explored only there. Every schedule then makes one more update, and
//! drops the fixture's engine before the final restart.
//!
//! Invariants, per schedule:
//! - generations strictly increase: every publication gets a distinct
//!   generation, above the one served when it started, and the served
//!   generation never goes back;
//! - each publication serves what the model says: an update adds exactly
//!   its object to the previous publication, a CSV build serves a CSV that
//!   was written, and everything else republishes the model's sets;
//! - every acknowledged update survives a restart, and a restart in the
//!   middle of a schedule serves some prefix of the model;
//! - a `409` leaves no journal record: the base on disk plus its journal
//!   is exactly the model, and every record is an acknowledged insert;
//! - the served arena is byte-identical to a rebuild from the model's sets
//!   and to what a restart serves;
//! - a second owner gets the typed refusal ([`DirError::Busy`]) while the
//!   fixture's engine holds the dir.
//!
//! Run it alone with `cargo test --release -p molq-server --lib explore`.

use super::*;
use molq_store::load_journal;
use std::sync::mpsc;

const NAME: &str = "d";
const POINTS: [&str; 3] = ["build.start", "update.publish", "publish.persist"];
const OPS: [Op; 8] = [
    Op::Update,
    Op::Reload,
    Op::ReloadBackground,
    Op::LoadFromSets,
    Op::CsvLoad,
    Op::CsvRevert,
    Op::Restart,
    Op::Compact,
];
const WAIT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Update,
    Reload,
    ReloadBackground,
    LoadFromSets,
    CsvLoad,
    CsvRevert,
    Restart,
    Compact,
}

impl Op {
    /// Whether the op, started from the fixture's state, is explored held
    /// at `point`.
    fn reaches(self, point: &str) -> bool {
        match point {
            "build.start" => !matches!(self, Op::Update | Op::CsvRevert | Op::Compact),
            "update.publish" => self == Op::Update,
            "publish.persist" => matches!(self, Op::CsvLoad | Op::CsvRevert),
            _ => unreachable!("unknown hold point {point}"),
        }
    }
}

/// What a publication did to the dataset's sets, as the model applies it.
#[derive(Debug)]
enum Effect {
    /// A live update appended this object to set 0.
    Insert(SpatialObject),
    /// A CSV build replaced the sets with a CSV's contents.
    Csv,
    /// A reload, restore or `load_from_sets` republished the sets.
    Keep,
}

/// How one op ended.
#[derive(Debug)]
enum Done {
    /// A publication on the fixture's engine.
    Published {
        generation: u64,
        sets: Vec<ObjectSet>,
        effect: Effect,
    },
    /// Lost a publish race (`409`): nothing was published.
    Lost,
    /// A background reload ran to its end (published or lost).
    Background,
    /// A restart on a fresh engine served these sets.
    Restarted(Vec<ObjectSet>),
    /// A second owner was refused the dir, typed.
    Refused,
    /// A second owner opened and compacted the dir.
    Compacted,
}

/// One schedule's world: a snapshot directory with CSV sources, an engine
/// serving the dataset, and every CSV content written so far with the
/// fingerprint it gave the sources.
struct Fixture {
    dir: PathBuf,
    spec: DatasetSpec,
    engine: Engine,
    csvs: Mutex<Vec<(Vec<ObjectSet>, SourceFingerprint)>>,
}

impl Fixture {
    /// CSVs written, loaded (built and persisted), and one update applied,
    /// so the journal is open and holds a record.
    fn new(tag: &str) -> (Fixture, Vec<ObjectSet>, u64) {
        let dir = std::env::temp_dir().join(format!("molq_explore_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sets = vec![scatter("a", 14, 3), scatter("b", 12, 4)];
        let paths = sets
            .iter()
            .map(|s| dir.join(format!("{}.csv", s.name)))
            .collect();
        let spec = DatasetSpec {
            bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
            snapshot_dir: Some(dir.join("snap")),
            ..DatasetSpec::new(NAME, paths)
        };
        let fx = Fixture {
            dir,
            spec,
            engine: Engine::new(),
            csvs: Mutex::new(Vec::new()),
        };
        fx.write_csvs(&sets);
        let (_, outcome) = fx.engine.load_traced(fx.spec.clone()).unwrap();
        assert_eq!(outcome, LoadOutcome::BuiltFromCsv);
        let snap = fx.engine.apply_update(NAME, &insert(0)).unwrap().snapshot;
        (fx, snap.query.sets.clone(), snap.generation)
    }

    fn write_csvs(&self, sets: &[ObjectSet]) {
        for (set, path) in sets.iter().zip(&self.spec.paths) {
            let mut f = File::create(path).unwrap();
            molq_datagen::csv::write_csv(set, &mut f).unwrap();
            f.sync_all().unwrap();
        }
        let fingerprint = SourceFingerprint::of_paths(&self.spec.paths).unwrap();
        self.csvs.lock().unwrap().push((sets.to_vec(), fingerprint));
    }

    /// Writes back the CSVs as they were before the last write.
    fn revert_csvs(&self) {
        let csvs = self.csvs.lock().unwrap().clone();
        self.write_csvs(&csvs[csvs.len() - 2].0);
    }

    fn served(&self) -> Arc<Snapshot> {
        self.engine.get(NAME).expect("dataset served")
    }

    /// Runs `op` (the `slot`-th op of the schedule) to its end.
    fn run(&self, op: Op, slot: usize, restart: &Engine) -> Done {
        let engine = &self.engine;
        match op {
            Op::Update => {
                let update = insert(slot);
                let Update::Insert { object, .. } = update else {
                    unreachable!()
                };
                let snap = engine.apply_update(NAME, &update).unwrap().snapshot;
                published(&snap, Effect::Insert(object))
            }
            Op::Reload => match engine.reload(NAME, None) {
                Ok(snap) => published(&snap, Effect::Keep),
                Err(ReloadError::Conflict(_)) => Done::Lost,
                Err(e) => panic!("reload failed: {e}"),
            },
            Op::ReloadBackground => {
                // A request that joins a held build is done once answered.
                if !engine
                    .reload_background(NAME, None)
                    .unwrap()
                    .already_building
                {
                    wait_for_builds(engine);
                }
                Done::Background
            }
            Op::LoadFromSets => {
                let served = self.served();
                let spec = served.spec.clone();
                match engine.load_from_sets(spec, served.query.sets.clone()) {
                    Ok(snap) => published(&snap, Effect::Keep),
                    Err(e) if e.contains("changed while this build was in flight") => Done::Lost,
                    Err(e) => panic!("load_from_sets failed: {e}"),
                }
            }
            Op::CsvLoad | Op::CsvRevert => {
                // Export what is served, so the load rebuilds from CSV and
                // persists; a `409` is retried, as a client would. The edit
                // that is reverted adds an object, so the CSVs it reverts
                // to differ from what it serves.
                let mut sets = self.served().query.sets.clone();
                if op == Op::CsvRevert {
                    let loc = Point::new(12.5 + 7.25 * slot as f64, 33.5 + 5.5 * slot as f64);
                    sets[1].objects.push(SpatialObject {
                        loc,
                        w_t: 1.0,
                        w_o: 1.0,
                    });
                }
                self.write_csvs(&sets);
                for _ in 0..4 {
                    let derived_from = engine.get(NAME).map(|s| s.generation);
                    match engine.load_derived(self.spec.clone(), derived_from) {
                        Ok((snap, LoadOutcome::BuiltFromCsv)) => {
                            return published(&snap, Effect::Csv)
                        }
                        Ok((snap, LoadOutcome::LoadedFromSnapshot)) => {
                            return published(&snap, Effect::Keep)
                        }
                        Err(ReloadError::Conflict(_)) => continue,
                        Err(e) => panic!("CSV load failed: {e}"),
                    }
                }
                panic!("CSV load kept losing with nothing racing it");
            }
            Op::Restart => {
                let (snap, _) = restart.load_traced(self.spec.clone()).unwrap();
                Done::Restarted(snap.query.sets.clone())
            }
            Op::Compact => {
                let second = Engine::new();
                let dir = self.spec.snapshot_dir.as_ref().unwrap();
                match second.open_dir(dir, NAME) {
                    Err(DirError::Busy(_)) => Done::Refused,
                    Ok(_) => {
                        second.compact(NAME).unwrap();
                        Done::Compacted
                    }
                    Err(e) => panic!("open_dir failed: {e}"),
                }
            }
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn published(snap: &Snapshot, effect: Effect) -> Done {
    Done::Published {
        generation: snap.generation,
        sets: snap.query.sets.clone(),
        effect,
    }
}

/// A deterministic scatter of `n` objects in `[0, 100)²`.
fn scatter(name: &str, n: usize, seed: u64) -> ObjectSet {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) as f64 / u32::MAX as f64
    };
    ObjectSet::uniform(
        name,
        1.0,
        (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect(),
    )
}

/// The insert a schedule's `slot`-th op makes (slot 0 is the fixture's).
fn insert(slot: usize) -> Update {
    Update::Insert {
        set: 0,
        object: SpatialObject {
            loc: Point::new(20.25 + 17.5 * slot as f64, 61.75 - 9.5 * slot as f64),
            w_t: 1.0,
            w_o: 1.0,
        },
    }
}

fn same_sets(a: &[ObjectSet], b: &[ObjectSet]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.name == y.name && x.objects == y.objects)
}

fn wait_for_builds(engine: &Engine) {
    let deadline = Instant::now() + WAIT;
    while !engine.builds_in_flight().is_empty() {
        assert!(Instant::now() < deadline, "background build never cleared");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn writers_waiting(engine: &Engine) -> usize {
    engine
        .inner
        .writers_waiting
        .load(std::sync::atomic::Ordering::SeqCst)
}

/// Runs one schedule and checks every invariant; returns its name.
fn explore(a: Op, b: Op, point: &'static str) -> String {
    let name = format!("{a:?} held at {point}, then {b:?}");
    let tag = format!("{a:?}_{b:?}_{}", point.replace('.', "_"));
    let (mut fx, start_sets, start_gen) = Fixture::new(&tag);
    let restart_a = Engine::new();
    let restart_b = Engine::new();
    let a_engine = if a == Op::Restart {
        &restart_a
    } else {
        &fx.engine
    };
    let (reached_tx, reached_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    a_engine.hold_once(point, reached_tx, release_rx);

    let mut served_gens = vec![start_gen];
    let (done_a, done_b) = std::thread::scope(|scope| {
        let run_a = scope.spawn(|| fx.run(a, 1, &restart_a));
        reached_rx
            .recv_timeout(WAIT)
            .unwrap_or_else(|_| panic!("{name}: A never reached the point"));
        if a == Op::CsvRevert {
            fx.revert_csvs();
        }
        let (b_tx, b_rx) = mpsc::channel();
        let (fx_b, restart_b) = (&fx, &restart_b);
        let run_b = scope.spawn(move || b_tx.send(fx_b.run(b, 2, restart_b)).unwrap());
        // B runs to its end, unless A holds the writer and B waits on it.
        let mut done_b = None;
        let deadline = Instant::now() + WAIT;
        while done_b.is_none() {
            match b_rx.recv_timeout(Duration::from_millis(1)) {
                Ok(done) => done_b = Some(done),
                Err(_) if point != "build.start" && writers_waiting(&fx.engine) > 0 => break,
                Err(_) => assert!(Instant::now() < deadline, "{name}: B never finished"),
            }
        }
        served_gens.push(fx.served().generation);
        release_tx.send(()).unwrap();
        let done_a = run_a.join().unwrap();
        run_b.join().unwrap();
        let done_b = done_b.unwrap_or_else(|| b_rx.recv().unwrap());
        (done_a, done_b)
    });
    wait_for_builds(&fx.engine);
    served_gens.push(fx.served().generation);
    assert!(
        served_gens.windows(2).all(|w| w[0] <= w[1]),
        "{name}: served generation went back: {served_gens:?}"
    );
    // One more acknowledged update, on whatever the schedule left.
    let done_last = fx.run(Op::Update, 3, &restart_b);

    // Fold the publications into the model in generation order.
    let mut publications: Vec<_> = [&done_a, &done_b, &done_last]
        .into_iter()
        .filter_map(|done| match done {
            Done::Published {
                generation,
                sets,
                effect,
            } => Some((*generation, sets, effect)),
            _ => None,
        })
        .collect();
    publications.sort_by_key(|(generation, ..)| *generation);
    let csvs = fx.csvs.lock().unwrap().clone();
    let mut model = start_sets;
    let mut prefixes = vec![model.clone()];
    let mut last_gen = start_gen;
    for (generation, sets, effect) in publications {
        assert!(
            generation > last_gen,
            "{name}: generation {generation} is not above {last_gen}"
        );
        last_gen = generation;
        match effect {
            Effect::Insert(object) => model[0].objects.push(*object),
            Effect::Csv => {
                assert!(
                    csvs.iter().any(|(csv, _)| same_sets(csv, sets)),
                    "{name}: a CSV build served sets no CSV held"
                );
                model = sets.clone();
            }
            Effect::Keep => {}
        }
        assert!(
            same_sets(sets, &model),
            "{name}: generation {generation} ({effect:?}) serves other sets than the model"
        );
        prefixes.push(model.clone());
    }
    for done in [&done_a, &done_b] {
        if let Done::Restarted(sets) = done {
            assert!(
                prefixes.iter().any(|p| same_sets(p, sets)),
                "{name}: a restart served sets that are no prefix of the model"
            );
        }
    }

    // What is served is the model, byte for byte.
    let served = fx.served();
    assert!(
        served.generation >= last_gen,
        "{name}: served generation fell"
    );
    assert!(
        same_sets(&served.query.sets, &model),
        "{name}: served sets differ from the model"
    );
    let fresh = Engine::new()
        .load_from_sets(spec_in_memory(&fx.spec), model.clone())
        .unwrap();
    assert_eq!(
        served.index.arena(),
        fresh.index.arena(),
        "{name}: served arena differs from a rebuild of the model"
    );

    // On disk: base + journal is exactly the model, and every record is an
    // acknowledged insert (a `409` left nothing behind).
    let dir = fx.spec.snapshot_dir.as_ref().unwrap();
    let base = StoredSnapshot::load_file(&snapshot_path(dir, NAME)).unwrap();
    let mut on_disk = base.sets.clone();
    let jpath = journal_path(dir, NAME);
    if jpath.exists() {
        let journal = load_journal(&jpath).unwrap();
        assert_eq!(journal.epoch, base.update_epoch, "{name}: journal epoch");
        for record in &journal.records {
            let Update::Insert { object, .. } = update_of(record) else {
                panic!("{name}: journal holds a removal nobody made");
            };
            on_disk[0].objects.push(object);
        }
    }
    assert!(
        same_sets(&on_disk, &model),
        "{name}: base + journal differ from the acknowledged updates"
    );

    // Every acknowledged update survives a restart. The CSVs hold what the
    // base was built from (a reverted edit is re-applied), so the restart
    // restores; the engine that owns the dir goes first.
    let (built_from, _) = csvs
        .iter()
        .rev()
        .find(|(_, fingerprint)| *fingerprint == base.fingerprint)
        .unwrap_or_else(|| panic!("{name}: the base was built from no CSV written"));
    fx.write_csvs(built_from);
    drop(std::mem::take(&mut fx.engine));
    let restarted = Engine::new();
    let (snap, outcome) = restarted.load_traced(fx.spec.clone()).unwrap();
    assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot, "{name}");
    assert!(
        same_sets(&snap.query.sets, &model),
        "{name}: a restart serves other sets than the model"
    );
    assert_eq!(
        snap.index.arena(),
        served.index.arena(),
        "{name}: a restart serves another arena"
    );
    for done in [&done_a, &done_b] {
        assert!(
            !matches!(done, Done::Compacted),
            "{name}: a second owner compacted a dir the first one held"
        );
    }
    name
}

fn spec_in_memory(spec: &DatasetSpec) -> DatasetSpec {
    DatasetSpec {
        bounds: spec.bounds,
        ..DatasetSpec::new(NAME, Vec::new())
    }
}

#[test]
fn every_ordered_pair_at_every_hold_point_keeps_the_invariants() {
    let mut explored = Vec::new();
    for point in POINTS {
        for a in OPS.into_iter().filter(|a| a.reaches(point)) {
            for b in OPS {
                explored.push(explore(a, b, point));
            }
        }
    }
    // 5 ops reach build.start, 1 reaches update.publish and 2 reach
    // publish.persist.
    assert_eq!(explored.len(), (5 + 1 + 2) * OPS.len());
}
