//! Crash-point enumeration: the recovery invariant, checked at **every**
//! injectable crash offset of a realistic update workload.
//!
//! The workload runs a base snapshot save, a journaled update stream
//! (`MOLQ_CRASH_UPDATES` records, default 60; CI runs 220), and one
//! mid-stream compaction — all against a [`MemVfs`] that logs every I/O
//! operation. For each prefix of that op log we materialize the durable
//! image a kernel could leave behind (nothing / a torn 16-byte fragment /
//! everything of the unsynced tail; directory entries flushed or not) and
//! run the production [`recover`] ladder over it. The invariant:
//!
//! 1. recovery never fails once the initial base save is durable (the CSV
//!    rebuild rung is reserved for a base that never made it to disk);
//! 2. the recovered base is byte-identical to a snapshot the workload
//!    actually saved, and the replayed records are an **exact prefix** of
//!    the updates issued against that base's epoch — no phantoms, no
//!    reordering, no cross-epoch resurrection;
//! 3. every fsync-**acknowledged** update of that epoch is present — an
//!    acked update survives any crash, full stop;
//! 4. a pure crash never presents as bit rot (`Salvaged` is reserved for
//!    defective complete records, which power loss cannot forge past a CRC).

use molq_core::prelude::*;
use molq_geom::{Mbr, Point};
use molq_store::{
    journal_path, recover, snapshot_path, Journal, JournalDisposition, JournalRecord, MemVfs,
    SourceFingerprint, StoredSnapshot, Survival, Vfs,
};
use std::path::PathBuf;
use std::sync::Arc;

const NAME: &str = "drill";

fn snap_dir() -> PathBuf {
    PathBuf::from("snap")
}

fn workload_size() -> usize {
    std::env::var("MOLQ_CRASH_UPDATES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

/// Deterministic xorshift-multiply generator — the workload is randomized
/// but reproducible (no ambient entropy in a crash matrix).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// A small but real dataset (two layers, full MOVD + grid) so the base
/// snapshot exercises the production encode/decode path. The epoch is the
/// only thing compaction changes in this harness — record *application*
/// correctness is covered by the live-update property tests.
fn sample_stored(epoch: u64) -> StoredSnapshot {
    let bounds = Mbr::new(0.0, 0.0, 100.0, 100.0);
    let sets = vec![
        ObjectSet::uniform(
            "stm",
            1.0,
            vec![
                Point::new(10.0, 10.0),
                Point::new(60.0, 35.0),
                Point::new(25.0, 80.0),
            ],
        ),
        ObjectSet::uniform(
            "sch",
            1.5,
            vec![Point::new(40.0, 55.0), Point::new(85.0, 20.0)],
        ),
    ];
    let movd = Movd::overlap_all_with(&sets, bounds, Boundary::Rrb, ExecConfig::serial())
        .expect("sample MOVD");
    let grid = LocateGrid::build(&movd);
    StoredSnapshot {
        name: NAME.into(),
        boundary: Boundary::Rrb,
        eps: 1e-6,
        explicit_bounds: Some(bounds),
        fingerprint: SourceFingerprint { entries: vec![] },
        sets,
        movd: MovdArena::from_movd(&movd),
        grid,
        update_epoch: epoch,
        build: BuildMeta::exact(),
    }
}

fn random_record(rng: &mut Lcg) -> JournalRecord {
    if rng.next().is_multiple_of(4) {
        JournalRecord::Remove {
            set: (rng.next() % 2) as u32,
            index: (rng.next() % 8) as u32,
        }
    } else {
        JournalRecord::Insert {
            set: (rng.next() % 2) as u32,
            x: (rng.next() % 4000) as f64 * 0.25,
            y: (rng.next() % 4000) as f64 * 0.25,
            w_t: 1.0 + (rng.next() % 4) as f64,
            w_o: 1.0 + (rng.next() % 16) as f64 * 0.5,
        }
    }
}

/// Per-epoch ground truth: the exact base bytes saved for that epoch, the
/// updates issued against it in order, and the op-log position at which
/// each append's fsync acknowledged (`ack_ops[i]` = `vfs.ops()` right
/// after append `i` returned).
struct EpochLedger {
    expected_base: Vec<u8>,
    issued: Vec<JournalRecord>,
    ack_ops: Vec<usize>,
}

struct Workload {
    vfs: MemVfs,
    ledgers: Vec<EpochLedger>,
    /// Op count at which the initial base save (including its directory
    /// fsync) completed — recovery must succeed at every point past this.
    base0_done: usize,
}

/// Runs the full workload against a fresh MemVfs: initial save, `n`
/// journaled updates, one compaction (base first, then journal reset) at
/// the halfway mark.
fn run_workload(n: usize) -> Workload {
    let vfs = MemVfs::new();
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let dir = snap_dir();

    let base0 = sample_stored(0);
    base0
        .save_file_on(&vfs, &snapshot_path(&dir, NAME))
        .expect("initial base save");
    let base0_done = vfs.ops();
    let mut journal =
        Journal::create_on(Arc::clone(&arc), &journal_path(&dir, NAME), NAME, 0).expect("journal");

    let mut ledgers = vec![EpochLedger {
        expected_base: base0.encode(),
        issued: Vec::new(),
        ack_ops: Vec::new(),
    }];
    let mut rng = Lcg(0x5eed_2026);
    for i in 0..n {
        if i == n / 2 {
            // Compaction, production order: the new base (same path, next
            // epoch) becomes durable before the journal is reset to bind
            // to it. A crash in between leaves new base + old-epoch
            // journal, which recovery must set aside, not replay.
            let epoch = ledgers.len() as u64;
            let base = sample_stored(epoch);
            base.save_file_on(&vfs, &snapshot_path(&dir, NAME))
                .expect("compacted base save");
            journal.reset(epoch).expect("journal reset");
            ledgers.push(EpochLedger {
                expected_base: base.encode(),
                issued: Vec::new(),
                ack_ops: Vec::new(),
            });
        }
        let rec = random_record(&mut rng);
        journal.append(&rec).expect("append");
        let led = ledgers.last_mut().expect("ledger");
        led.issued.push(rec);
        led.ack_ops.push(vfs.ops());
    }
    Workload {
        vfs,
        ledgers,
        base0_done,
    }
}

/// Checks the recovery invariant for one crash image.
fn check_image(crashed: &MemVfs, w: &Workload, k: usize, label: &str) {
    let dir = snap_dir();
    let rec = match recover(crashed, &dir, NAME) {
        Err(e) => {
            // The CSV-rebuild rung: only legal while the very first base
            // save is still in flight.
            assert!(
                k < w.base0_done,
                "crash point {k} [{label}]: base unreadable after the initial \
                 save was durable: {e}"
            );
            return;
        }
        Ok(rec) => rec,
    };
    let epoch = rec.base.update_epoch as usize;
    let led = w
        .ledgers
        .get(epoch)
        .unwrap_or_else(|| panic!("crash point {k} [{label}]: base has unknown epoch {epoch}"));
    assert_eq!(
        rec.base.encode(),
        led.expected_base,
        "crash point {k} [{label}]: recovered base differs from the saved \
         epoch-{epoch} snapshot"
    );
    assert!(
        !matches!(rec.disposition, JournalDisposition::Salvaged { .. }),
        "crash point {k} [{label}]: a pure crash image presented as bit rot \
         ({:?})",
        rec.disposition
    );
    // Exact-prefix: every replayed record is an issued record, in order.
    assert!(
        rec.records.len() <= led.issued.len(),
        "crash point {k} [{label}]: replayed {} records but only {} were \
         issued at epoch {epoch}",
        rec.records.len(),
        led.issued.len()
    );
    for (i, (got, want)) in rec.records.iter().zip(&led.issued).enumerate() {
        assert_eq!(
            got, want,
            "crash point {k} [{label}]: replayed record {i} differs from the \
             issued record"
        );
    }
    // Durability floor: appends whose fsync returned before the crash.
    let acked = led.ack_ops.partition_point(|&op| op <= k);
    match &rec.disposition {
        JournalDisposition::Missing | JournalDisposition::SetAside { .. } => assert_eq!(
            acked, 0,
            "crash point {k} [{label}]: {acked} acknowledged update(s) lost \
             to {:?}",
            rec.disposition
        ),
        _ => assert!(
            rec.records.len() >= acked,
            "crash point {k} [{label}]: only {} record(s) recovered but \
             {acked} were fsync-acknowledged at epoch {epoch}",
            rec.records.len()
        ),
    }
}

#[test]
fn recovery_invariant_holds_at_every_crash_point() {
    let w = run_workload(workload_size());
    let total = w.vfs.ops();
    let dir = snap_dir();

    // Sanity: the uncrashed state recovers cleanly with the full epoch-1
    // record stream.
    let clean = recover(&MemVfs::from_image(w.vfs.image()), &dir, NAME).expect("clean recover");
    let last = w.ledgers.last().expect("ledger");
    assert_eq!(clean.disposition, JournalDisposition::Clean);
    assert_eq!(clean.records, last.issued);

    let mut images = 0usize;
    for k in 0..=total {
        let mut variants = vec![
            (Survival::Nothing, false, "tail lost"),
            (Survival::Torn(16), false, "tail torn at 16 bytes"),
            (Survival::Everything, false, "tail flushed"),
        ];
        if w.vfs.has_pending_dir_ops(k) {
            // Directory entries can land independently of file data.
            variants.push((Survival::Nothing, true, "dir entries flushed, tail lost"));
            variants.push((Survival::Everything, true, "everything flushed"));
        }
        for (survival, dirs, label) in variants {
            let crashed = MemVfs::from_image(w.vfs.durable_image(k, survival, dirs));
            check_image(&crashed, &w, k, label);
            images += 1;
        }
    }
    // The matrix actually enumerated something proportional to the
    // workload (≈3-5 images per logged op).
    assert!(
        images >= 3 * total,
        "only {images} crash images for {total} ops"
    );
}

/// Recovery is itself crash-consistent: reopening the journal of a torn
/// crash image truncates the tail, appends continue from the salvaged
/// prefix, and a second recovery round-trips clean.
#[test]
fn reopen_after_torn_crash_truncates_and_continues() {
    let w = run_workload(24);
    let dir = snap_dir();
    let jpath = journal_path(&dir, NAME);

    // Find a crash point whose torn image actually ends mid-record.
    let torn = (0..=w.vfs.ops()).rev().find_map(|k| {
        let img = MemVfs::from_image(w.vfs.durable_image(k, Survival::Torn(16), false));
        match recover(&img, &dir, NAME) {
            Ok(rec) if matches!(rec.disposition, JournalDisposition::TornTail { .. }) => {
                Some((img, rec))
            }
            _ => None,
        }
    });
    let (img, rec) = torn.expect("workload produced no torn-tail crash image");
    let epoch = rec.base.update_epoch;
    let prefix = rec.records.clone();

    let arc: Arc<dyn Vfs> = Arc::new(img.clone());
    let mut journal =
        Journal::open_or_create_on(arc, &jpath, NAME, epoch).expect("reopen over torn tail");
    assert_eq!(journal.records(), prefix.len() as u64);
    let extra = JournalRecord::Insert {
        set: 0,
        x: 3.25,
        y: 4.5,
        w_t: 1.0,
        w_o: 2.0,
    };
    journal.append(&extra).expect("append after truncate");

    let again = recover(&img, &dir, NAME).expect("recover after reopen");
    assert_eq!(again.disposition, JournalDisposition::Clean);
    let mut want = prefix;
    want.push(extra);
    assert_eq!(again.records, want);
}

/// The compaction window specifically: between the new base landing and
/// the journal reset landing, recovery must serve the new base alone and
/// set the stale journal aside — never replay old-epoch records onto it.
#[test]
fn stale_journal_after_compacted_base_is_set_aside_not_replayed() {
    let vfs = MemVfs::new();
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let dir = snap_dir();
    sample_stored(0)
        .save_file_on(&vfs, &snapshot_path(&dir, NAME))
        .expect("base 0");
    let mut journal = Journal::create_on(arc, &journal_path(&dir, NAME), NAME, 0).expect("journal");
    journal
        .append(&JournalRecord::Remove { set: 0, index: 1 })
        .expect("append");
    // The compaction's first half only: base 1 is durable, the journal
    // still binds to epoch 0.
    sample_stored(1)
        .save_file_on(&vfs, &snapshot_path(&dir, NAME))
        .expect("base 1");

    let rec = recover(&vfs, &dir, NAME).expect("recover");
    assert_eq!(rec.base.update_epoch, 1);
    assert!(rec.records.is_empty());
    match &rec.disposition {
        JournalDisposition::SetAside { reason } => {
            assert!(reason.contains("epoch"), "unhelpful reason: {reason}")
        }
        other => panic!("stale journal not set aside: {other:?}"),
    }
}
