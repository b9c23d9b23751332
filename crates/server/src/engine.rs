//! The engine: named, immutable MOVD snapshots behind atomic swaps.
//!
//! A dataset is expensive to prepare (the MOVD Overlapper is the dominant
//! cost of the pipeline, §6) and cheap to query afterwards. The engine
//! therefore builds each dataset **once** into a [`Snapshot`] — the query,
//! the built [`MovdIndex`], and serving metadata — and publishes it behind an
//! `Arc`. Requests clone the `Arc` and work on a consistent, immutable view;
//! a reload builds a fresh snapshot off to the side and swaps the map entry
//! atomically, so in-flight requests keep their old view and never observe a
//! half-built diagram.
//!
//! When a [`DatasetSpec`] names a `snapshot_dir`, the build itself becomes
//! durable via `molq-store`: a fresh build is persisted as
//! `<dir>/<name>.molq`, and a later load first fingerprints the source CSVs
//! and — if a snapshot matching the spec and fingerprint exists — restores
//! the fully-built diagram from disk instead of re-running the Overlapper.
//! A missing, stale, or damaged snapshot file never fails a load: the engine
//! warns and falls back to a clean CSV rebuild (re-saving the snapshot).
//!
//! Rebuilds can also run off-thread: [`Engine::reload_background`] returns a
//! ticket immediately and swaps the new snapshot in when the build finishes,
//! so an HTTP reload does not hold a connection open for the whole overlap.
//!
//! Every publication — load, reload, live update, compaction — goes through
//! one compare-and-swap (`Engine::publish`): it assigns the dataset's next
//! generation under the registry write lock, and refuses when the served
//! generation is no longer the one the new snapshot was derived from. A
//! reload that loses to a live update fails with [`ReloadError::Conflict`]
//! instead of silently dropping the update.
//!
//! Rebuilds are guarded by a per-dataset **circuit breaker**
//! ([`BreakerConfig`]): after `threshold` consecutive build failures the
//! breaker opens and further rebuild attempts fast-fail with
//! [`ReloadError::BreakerOpen`] for an exponentially growing backoff, while
//! the last good generation keeps serving untouched. Once the backoff
//! expires the breaker goes half-open: one probe rebuild is admitted, and
//! its outcome either closes the breaker or re-opens it with a longer
//! backoff. `/health` surfaces open breakers as `degraded` with the last
//! build error.

use molq_core::prelude::*;
use molq_datagen::csv::read_csv;
use molq_fw::StoppingRule;
use molq_geom::{Mbr, Point};
use molq_store::{
    journal_path, recover, set_aside_journal, sweep_tmp, DecodeTimings, Journal,
    JournalDisposition, JournalRecord, RealVfs, Recovery, SourceFingerprint, StoredSnapshot, Vfs,
};
use std::collections::HashMap;
use std::fs::File;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// How to build (and rebuild) one dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name (the `dataset` request parameter).
    pub name: String,
    /// CSV layer files (one object set each); empty when the dataset was
    /// loaded from in-memory sets.
    pub paths: Vec<PathBuf>,
    /// Boundary mode for the MOVD Overlapper.
    pub boundary: Boundary,
    /// Search space; `None` infers the MBR of the objects inflated by 5%.
    pub bounds: Option<Mbr>,
    /// Fermat–Weber error bound ε for `solve`/`top-k`.
    pub eps: f64,
    /// Construction mode: the historical exact pipeline, or the quadtree
    /// (1+ε) approximate builder that scales to ~10⁶ objects per layer.
    pub build: BuildMode,
    /// Where to persist/restore built snapshots (`<dir>/<name>.molq`);
    /// `None` disables persistence.
    pub snapshot_dir: Option<PathBuf>,
}

impl DatasetSpec {
    /// A spec with the paper's defaults (RRB, inferred bounds, ε = 1e-3,
    /// exact construction, no persistence).
    pub fn new(name: &str, paths: Vec<PathBuf>) -> Self {
        DatasetSpec {
            name: name.to_string(),
            paths,
            boundary: Boundary::Rrb,
            bounds: None,
            eps: 1e-3,
            build: BuildMode::Exact,
            snapshot_dir: None,
        }
    }

    /// The snapshot file this spec would persist to, if persistence is on.
    pub fn snapshot_file(&self) -> Option<PathBuf> {
        self.snapshot_dir
            .as_ref()
            .map(|dir| snapshot_path(dir, &self.name))
    }
}

/// The snapshot file for a dataset name inside a snapshot directory.
pub fn snapshot_path(dir: &Path, name: &str) -> PathBuf {
    molq_store::snapshot_path(dir, name)
}

/// Number of quantization steps along the longer side of the search space:
/// `locate` coordinates snap to this lattice so the cache can key on integer
/// cells. 2^20 steps keep the snap error below one millionth of the space —
/// far below any geographic data precision — while making equal-for-serving
/// locations collide in the cache.
const QUANT_STEPS: f64 = (1u64 << 20) as f64;

/// An immutable, fully-built serving view of one dataset.
#[derive(Debug)]
pub struct Snapshot {
    /// The build recipe (kept for reloads).
    pub spec: DatasetSpec,
    /// Monotonic publish counter for this dataset name, assigned by the
    /// registry when the snapshot is published (0 until then). Every
    /// publication — load, reload, live update, compaction — takes the next
    /// value, so cache keys from older snapshots can never alias new answers.
    pub generation: u64,
    /// The query the MOVD was built from (object sets, weights, bounds, ε).
    pub query: MolqQuery,
    /// Point-location index over the built MOVD.
    pub index: MovdIndex,
    /// Fermat–Weber scan lanes over the arena's groups, pinned per snapshot
    /// so every solve/top-k against this view reuses one weight table
    /// instead of rebuilding it per request. Materialized lazily on first
    /// use (see [`Snapshot::lanes`]) so restores stay pure decode work.
    lanes: OnceLock<FwLanes>,
    /// Side length of one quantization cell (see [`Snapshot::quantize`]).
    pub quantum: f64,
    /// Live-update epoch: the journal generation this snapshot's persisted
    /// base belongs to. Bumped by compaction; 0 for a fresh CSV build.
    pub update_epoch: u64,
    /// How the diagram was constructed: the mode, its (1+ε) certified
    /// factor, and the refinement counters for approximate builds.
    pub build_meta: BuildMeta,
}

impl Snapshot {
    fn build(spec: DatasetSpec, sets: Vec<ObjectSet>, exec: ExecConfig) -> Result<Self, String> {
        let bounds = match spec.bounds {
            Some(b) => b,
            None => {
                let m = sets
                    .iter()
                    .flat_map(|s| s.objects.iter().map(|o| o.loc))
                    .fold(Mbr::EMPTY, |acc, p| acc.union(&Mbr::of_point(p)));
                if m.is_empty() {
                    return Err("cannot infer bounds from empty inputs".into());
                }
                m.inflate(0.05 * m.margin().max(1.0))
            }
        };
        let query = MolqQuery::new(sets, bounds).with_rule(StoppingRule::Either(spec.eps, 100_000));
        query.validate().map_err(|e| e.to_string())?;
        let plan = BuildPlan::for_mode(spec.build);
        let (movd, build_meta) = build_movd(&query.sets, bounds, spec.boundary, &plan, exec)
            .map_err(|e| e.to_string())?;
        Ok(Snapshot::assemble(
            spec,
            query,
            MovdIndex::build(movd),
            0,
            build_meta,
        ))
    }

    /// Restores a serving snapshot from a persisted build: the MOVD and grid
    /// come straight off disk, so no Overlapper or index work runs.
    fn from_stored(spec: DatasetSpec, stored: StoredSnapshot) -> Result<Self, String> {
        let bounds = stored.movd.bounds();
        let update_epoch = stored.update_epoch;
        let build_meta = stored.build;
        let query =
            MolqQuery::new(stored.sets, bounds).with_rule(StoppingRule::Either(spec.eps, 100_000));
        query.validate().map_err(|e| e.to_string())?;
        let index = MovdIndex::from_arena(stored.movd, stored.grid)?;
        Ok(Snapshot::assemble(
            spec,
            query,
            index,
            update_epoch,
            build_meta,
        ))
    }

    /// An unpublished snapshot: [`Engine::publish`] assigns its generation.
    fn assemble(
        spec: DatasetSpec,
        query: MolqQuery,
        index: MovdIndex,
        update_epoch: u64,
        build_meta: BuildMeta,
    ) -> Self {
        let bounds = query.bounds;
        let quantum = bounds.width().max(bounds.height()) / QUANT_STEPS;
        Snapshot {
            spec,
            generation: 0,
            query,
            index,
            lanes: OnceLock::new(),
            quantum,
            update_epoch,
            build_meta,
        }
    }

    /// The snapshot's pinned scan lanes, built from the arena on first use
    /// and shared by every subsequent solve/top-k against this view.
    pub fn lanes(&self) -> &FwLanes {
        self.lanes
            .get_or_init(|| FwLanes::from_arena(&self.query, self.index.arena()))
    }

    /// The persistable form of this snapshot (everything a restart needs).
    fn to_stored(&self, fingerprint: SourceFingerprint) -> StoredSnapshot {
        StoredSnapshot {
            name: self.spec.name.clone(),
            boundary: self.spec.boundary,
            eps: self.spec.eps,
            explicit_bounds: self.spec.bounds,
            fingerprint,
            sets: self.query.sets.clone(),
            movd: self.index.arena().clone(),
            grid: self.index.grid().clone(),
            update_epoch: self.update_epoch,
            build: self.build_meta,
        }
    }

    /// Snaps a location to the snapshot's cache lattice, returning the cell
    /// id and the cell's representative point (the coordinate actually
    /// evaluated and reported back to the client).
    pub fn quantize(&self, l: Point) -> ((i64, i64), Point) {
        let b = self.query.bounds;
        let qx = ((l.x - b.min_x) / self.quantum).round();
        let qy = ((l.y - b.min_y) / self.quantum).round();
        let snapped = Point::new(b.min_x + qx * self.quantum, b.min_y + qy * self.quantum);
        ((qx as i64, qy as i64), snapped)
    }

    /// Number of object sets.
    pub fn set_count(&self) -> usize {
        self.query.sets.len()
    }

    /// Total number of objects across sets.
    pub fn object_count(&self) -> usize {
        self.query.sets.iter().map(|s| s.len()).sum()
    }
}

/// How a load obtained its snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOutcome {
    /// The MOVD was built from the source CSVs (and persisted, when the spec
    /// has a snapshot directory).
    BuiltFromCsv,
    /// The fully-built MOVD was restored from a matching snapshot file.
    LoadedFromSnapshot,
}

/// Why a reload was refused or failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReloadError {
    /// The rebuild circuit breaker for this dataset is open: recent builds
    /// kept failing, and the engine is backing off rather than retrying
    /// immediately. The last good snapshot keeps serving.
    BreakerOpen {
        /// Time until the breaker admits the next probe rebuild.
        retry_in: Duration,
        /// The failure that (most recently) opened the breaker.
        last_error: String,
    },
    /// The dataset was republished (by a live update, a compaction or
    /// another reload) while this rebuild was in flight. Nothing was
    /// published; the rebuild is safe to retry against the new generation.
    Conflict(String),
    /// The rebuild itself failed (or the dataset does not exist).
    Failed(String),
}

impl From<String> for ReloadError {
    fn from(msg: String) -> Self {
        ReloadError::Failed(msg)
    }
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::BreakerOpen {
                retry_in,
                last_error,
            } => write!(
                f,
                "rebuild breaker open for another {retry_in:?} (last error: {last_error})"
            ),
            ReloadError::Conflict(msg) | ReloadError::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

/// Circuit-breaker policy for failing rebuilds, shared by all datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive build failures before the breaker opens.
    pub threshold: u32,
    /// Backoff after the breaker first opens; doubles per further failure.
    pub base_backoff: Duration,
    /// Upper bound on the backoff.
    pub max_backoff: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 3,
            base_backoff: Duration::from_millis(500),
            max_backoff: Duration::from_secs(60),
        }
    }
}

/// Per-dataset breaker state (internal).
#[derive(Debug, Default)]
struct BreakerState {
    consecutive_failures: u32,
    last_error: String,
    open_until: Option<Instant>,
}

/// One dataset's breaker state, as reported on `/health`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerReport {
    /// Dataset name.
    pub dataset: String,
    /// Consecutive build failures so far.
    pub consecutive_failures: u32,
    /// `Some(remaining backoff)` while the breaker is open; `None` once it
    /// is closed or half-open (a probe rebuild would be admitted).
    pub retry_in: Option<Duration>,
    /// The most recent build error.
    pub last_error: String,
}

/// Receipt for a background reload request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReloadTicket {
    /// Generation the dataset will have once the in-flight build publishes.
    /// Exact: the build publishes as this generation or not at all (it
    /// loses to any publication that lands first).
    pub target_generation: u64,
    /// `true` when a build for this dataset was already running and no new
    /// one was started.
    pub already_building: bool,
}

/// Mutable live-update state of one dataset: the incremental diagram (kept
/// bit-consistent with the published snapshot) and its journal handle. Held
/// behind a per-dataset mutex so updates serialize without blocking reads.
#[derive(Debug)]
struct LiveState {
    live: LiveMovd,
    /// Open journal for appends; `None` when the spec has no snapshot dir.
    journal: Option<Journal>,
    /// Epoch of the base this state's journal binds to.
    epoch: u64,
    /// Generation of the published snapshot this state mirrors. A mismatch
    /// (some reload published in between) makes the state stale; it is
    /// rehydrated from the current snapshot before the next update.
    generation: u64,
}

/// Counters for the live-update subsystem (`/stats` → `updates`).
#[derive(Debug, Default)]
struct UpdateStats {
    applied: AtomicU64,
    rejected: AtomicU64,
    replayed: AtomicU64,
    compactions: AtomicU64,
    full_rebuilds: AtomicU64,
    patch_micros: AtomicU64,
    last_patch_micros: AtomicU64,
    cells_reclipped: AtomicU64,
}

/// A point-in-time copy of the live-update counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateStatsReport {
    /// Updates applied through [`Engine::apply_update`].
    pub applied: u64,
    /// Updates rejected by validation (duplicate coordinates, bad indices,
    /// emptying a set, injected faults).
    pub rejected: u64,
    /// Journal records replayed during snapshot restores.
    pub replayed: u64,
    /// Journal compactions performed.
    pub compactions: u64,
    /// Updates that took the full-rebuild path (inferred bounds moved).
    pub full_rebuilds: u64,
    /// Total wall time spent patching, microseconds.
    pub patch_micros_total: u64,
    /// Wall time of the most recent patch, microseconds.
    pub last_patch_micros: u64,
    /// Total basic-diagram cells re-clipped across all patches.
    pub cells_reclipped: u64,
}

/// Why a live update failed, typed so callers can answer with the right
/// status code (the service maps these to 404/400/409/507).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The dataset does not exist.
    NotFound(String),
    /// Validation rejected the update (duplicate coordinates, bad indices,
    /// emptying a set, injected faults). Nothing changed.
    Rejected(String),
    /// The dataset was republished while the update was in flight; the
    /// update was not applied and is safe to retry.
    Conflict(String),
    /// The update could not be made durable (journal append or live-state
    /// storage failed). The in-memory state was rolled back; the published
    /// snapshot is unchanged.
    Durability(String),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::NotFound(m)
            | UpdateError::Rejected(m)
            | UpdateError::Conflict(m)
            | UpdateError::Durability(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Counters for the storage-durability subsystem (`/stats` → `durability`).
/// Tracks how often the crash-consistency machinery had to act: failed
/// write-ahead appends, snapshot-save retries, journal salvages.
#[derive(Debug, Default)]
struct DurabilityStats {
    append_failures: AtomicU64,
    save_retries: AtomicU64,
    save_failures: AtomicU64,
    salvages: AtomicU64,
    torn_tails: AtomicU64,
    journals_set_aside: AtomicU64,
    tmp_swept: AtomicU64,
    /// 1 while the most recent durable-write attempt failed; cleared by the
    /// next successful append or save. Surfaces on `/health` as `degraded`.
    degraded: AtomicU64,
    last_error: Mutex<Option<String>>,
}

impl DurabilityStats {
    /// Records a durable-write failure: bumps `counter`, flips the engine
    /// into the degraded state, and remembers the error for `/health`.
    fn note_failure(&self, counter: &AtomicU64, err: &str) {
        counter.fetch_add(1, Ordering::Relaxed);
        self.degraded.store(1, Ordering::Relaxed);
        *self.last_error.lock().expect("durability lock poisoned") = Some(err.to_string());
    }

    /// A durable write succeeded: storage is healthy again.
    fn note_durable_ok(&self) {
        self.degraded.store(0, Ordering::Relaxed);
    }
}

/// Counters for the arena layout (`/stats` → `arena_stats`): how the most
/// recent snapshot restore's decode wall time split between bulk lane copies
/// and structural validation, and how many contiguous arena segments the
/// copy-on-write publish path copied per live-update patch.
#[derive(Debug, Default)]
struct ArenaStats {
    last_restore_copy_micros: AtomicU64,
    last_restore_validate_micros: AtomicU64,
    segments_copied_total: AtomicU64,
    last_segments_copied: AtomicU64,
}

/// A point-in-time copy of the arena counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStatsReport {
    /// Bulk lane-copy share of the most recent restore's decode, µs.
    pub last_restore_copy_micros: u64,
    /// Structural-validation share of the most recent restore's decode, µs.
    pub last_restore_validate_micros: u64,
    /// Contiguous arena segments copied across all live-update patches.
    pub segments_copied_total: u64,
    /// Segments the most recent patch copied (0 for a full rebuild).
    pub last_segments_copied: u64,
}

/// A point-in-time copy of the durability counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DurabilityReport {
    /// Write-ahead journal appends that failed (each one failed its update
    /// with [`UpdateError::Durability`]).
    pub append_failures: u64,
    /// Snapshot-save attempts retried after a transient failure.
    pub save_retries: u64,
    /// Snapshot saves that failed even after retries.
    pub save_failures: u64,
    /// Journals whose defective tail was salvaged on restore (the valid
    /// record prefix replayed; the rest dropped).
    pub salvages: u64,
    /// Journals that ended in a torn (partial) record on restore — the
    /// crash-mid-append fingerprint. The complete prefix replayed.
    pub torn_tails: u64,
    /// Journals set aside as untrusted (defective header, stale epoch, or
    /// records that no longer apply to the base).
    pub journals_set_aside: u64,
    /// Orphaned atomic-write temp files removed by the startup/pre-save
    /// sweep.
    pub tmp_swept: u64,
    /// `true` while the most recent durable-write attempt failed.
    pub degraded: bool,
    /// The error that degraded the engine, if any.
    pub last_error: Option<String>,
}

/// What one accepted live update did, engine-level.
#[derive(Debug)]
pub struct UpdateOutcome {
    /// The newly-published snapshot (patched generation).
    pub snapshot: Arc<Snapshot>,
    /// Patch-level counters from the incremental layer.
    pub stats: PatchStats,
    /// `true` when the update rebuilt the diagram from scratch because the
    /// dataset's inferred bounds moved.
    pub full_rebuild: bool,
}

#[derive(Debug, Default)]
struct EngineInner {
    datasets: RwLock<HashMap<String, Arc<Snapshot>>>,
    /// Worker-thread count for Overlapper rebuilds; `0` defers to
    /// [`ExecConfig::default`] (the `MOLQ_THREADS` env, else serial).
    exec_threads: std::sync::atomic::AtomicUsize,
    /// Dataset name → live-update state (incremental diagram + journal).
    live: Mutex<HashMap<String, Arc<Mutex<Option<LiveState>>>>>,
    /// Live-update counters.
    updates: UpdateStats,
    /// Storage-durability counters (journal salvage, save retries, sweeps).
    durability: DurabilityStats,
    /// Arena-layout counters (restore decode split, patch segment copies).
    arena: ArenaStats,
    /// Dataset name → target generation of the build currently in flight.
    builds: Mutex<HashMap<String, u64>>,
    /// Dataset name → rebuild circuit-breaker state.
    breakers: Mutex<HashMap<String, BreakerState>>,
    /// Breaker policy (settable once at wiring time; defaults apply).
    breaker_config: Mutex<Option<BreakerConfig>>,
    /// Test hook: artificial delay inserted before every build, so tests can
    /// observe the non-blocking reload window deterministically.
    #[cfg(test)]
    build_delay: Mutex<Option<std::time::Duration>>,
}

/// The snapshot registry: dataset name → current [`Snapshot`].
///
/// Cloning an `Engine` is cheap and shares all state (the background reload
/// worker holds such a clone).
#[derive(Debug, Default, Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    /// An engine with no datasets.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Sets the execution configuration every subsequent build (initial
    /// load, reload, background reload) runs the Overlapper with. Thread
    /// count never changes what a build produces — the scan layer's
    /// determinism contract makes rebuilt diagrams bit-identical at any
    /// setting — only how fast it runs.
    pub fn set_exec_config(&self, exec: ExecConfig) {
        self.inner
            .exec_threads
            .store(exec.threads, std::sync::atomic::Ordering::Relaxed);
    }

    /// The execution configuration builds run with.
    pub fn exec_config(&self) -> ExecConfig {
        match self
            .inner
            .exec_threads
            .load(std::sync::atomic::Ordering::Relaxed)
        {
            0 => ExecConfig::default(),
            threads => ExecConfig::new(threads),
        }
    }

    /// Loads (or replaces) a dataset from its spec's CSV files, restoring a
    /// persisted snapshot instead of rebuilding when one matches.
    pub fn load(&self, spec: DatasetSpec) -> Result<Arc<Snapshot>, String> {
        self.load_traced(spec).map(|(snap, _)| snap)
    }

    /// Like [`load`](Self::load), but also reports whether the dataset was
    /// rebuilt from CSVs or restored from a snapshot file.
    ///
    /// A load replaces the generation served when it started; it fails,
    /// publishing nothing, if another publication lands while it builds.
    pub fn load_traced(&self, spec: DatasetSpec) -> Result<(Arc<Snapshot>, LoadOutcome), String> {
        let derived_from = self.get(&spec.name).map(|s| s.generation);
        self.load_derived(spec, derived_from)
            .map_err(|e| e.to_string())
    }

    /// [`load_traced`](Self::load_traced) as the replacement of generation
    /// `derived_from` (`None`: the dataset's first load).
    fn load_derived(
        &self,
        spec: DatasetSpec,
        derived_from: Option<u64>,
    ) -> Result<(Arc<Snapshot>, LoadOutcome), ReloadError> {
        if spec.paths.is_empty() {
            return Err(format!("dataset {:?} has no input files", spec.name).into());
        }
        self.maybe_delay_build();
        let fingerprint = SourceFingerprint::of_paths(&spec.paths)
            .map_err(|e| format!("fingerprinting sources of {:?}: {e}", spec.name))?;

        if let Some(dir) = spec.snapshot_dir.as_deref() {
            self.sweep_snapshot_dir(dir);
        }
        if let Some(recovery) = self.try_restore(&spec, &fingerprint) {
            match self.restore_recovered(&spec, recovery, derived_from) {
                Ok(snap) => return Ok((snap, LoadOutcome::LoadedFromSnapshot)),
                // A lost publish race: rebuilding would lose it too.
                Err(conflict @ ReloadError::Conflict(_)) => return Err(conflict),
                Err(e) => {
                    // Unreachable short of an internal defect — journal
                    // trouble is absorbed by the recovery ladder (salvage or
                    // set-aside), never by rebuilding.
                    eprintln!(
                        "molq-server: restore of {:?} failed ({e}); rebuilding from CSVs",
                        spec.name
                    );
                }
            }
        }

        let sets = spec
            .paths
            .iter()
            .map(|path| {
                let f = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
                let name = path
                    .file_stem()
                    .map(|s| s.to_string_lossy().to_string())
                    .unwrap_or_else(|| path.display().to_string());
                read_csv(&name, f).map_err(|e| format!("{}: {e}", path.display()))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let snap = self.publish(
            Snapshot::build(spec, sets, self.exec_config())?,
            derived_from,
        )?;
        self.persist(&snap, fingerprint);
        Ok((snap, LoadOutcome::BuiltFromCsv))
    }

    /// Runs the crash-recovery ladder for a persisted snapshot matching the
    /// spec and the current source fingerprint. Only an unusable *base* (or
    /// a stale one) falls back to a CSV rebuild — journal trouble is
    /// absorbed by the returned [`Recovery`]'s disposition.
    fn try_restore(&self, spec: &DatasetSpec, fingerprint: &SourceFingerprint) -> Option<Recovery> {
        let dir = spec.snapshot_dir.as_deref()?;
        let path = spec.snapshot_file()?;
        // Fault point: simulate a corrupt/unreadable snapshot read, proving
        // the fallback-to-rebuild path without touching the file.
        if let Err(e) = crate::fault::fail_point("engine.snapshot_read") {
            eprintln!(
                "molq-server: snapshot {} unusable (injected: {e}); rebuilding {:?} from CSVs",
                path.display(),
                spec.name
            );
            return None;
        }
        let recovery = match recover(&RealVfs, dir, &spec.name) {
            Ok(recovery) => recovery,
            Err(e) if e.is_not_found() => return None,
            Err(e) => {
                eprintln!(
                    "molq-server: snapshot {} unusable ({e}); rebuilding {:?} from CSVs",
                    path.display(),
                    spec.name
                );
                return None;
            }
        };
        if !snapshot_matches(&recovery.base, spec, fingerprint) {
            eprintln!(
                "molq-server: snapshot {} is stale; rebuilding {:?} from CSVs",
                path.display(),
                spec.name
            );
            return None;
        }
        Some(recovery)
    }

    /// Saves a freshly-built snapshot when the spec asks for persistence.
    /// Persistence failures are warnings, never load failures — a serving
    /// snapshot in memory always beats a durable one on disk.
    fn persist(&self, snap: &Snapshot, fingerprint: SourceFingerprint) {
        let Some(path) = snap.spec.snapshot_file() else {
            return;
        };
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!(
                    "molq-server: cannot create snapshot dir {}: {e}",
                    dir.display()
                );
                return;
            }
            self.sweep_snapshot_dir(dir);
        }
        if let Err(e) = self.save_with_retry(&snap.to_stored(fingerprint), &path) {
            eprintln!(
                "molq-server: failed to persist snapshot {}: {e}",
                path.display()
            );
        }
        // A fresh CSV build starts a clean update history: any journal left
        // by a previous incarnation no longer applies to this base.
        if let Some(dir) = path.parent() {
            let jpath = journal_path(dir, &snap.spec.name);
            if RealVfs.remove_file(&jpath).is_ok() {
                let _ = molq_store::vfs::sync_parent_dir(&RealVfs, &jpath);
            }
        }
    }

    /// Saves a snapshot with bounded retry: a transient failure gets
    /// `ATTEMPTS` tries with exponential backoff before the save is declared
    /// failed and the engine degraded. Every attempt passes the
    /// `engine.snapshot_save` fault point.
    fn save_with_retry(&self, stored: &StoredSnapshot, path: &Path) -> Result<(), String> {
        const ATTEMPTS: u32 = 3;
        let d = &self.inner.durability;
        let mut last = String::new();
        for attempt in 0..ATTEMPTS {
            if attempt > 0 {
                d.save_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10u64 << (attempt - 1)));
            }
            let result = match crate::fault::fail_point("engine.snapshot_save") {
                Err(msg) => Err(format!("injected save failure: {msg}")),
                Ok(()) => stored.save_file(path).map_err(|e| e.to_string()),
            };
            match result {
                Ok(()) => {
                    d.note_durable_ok();
                    return Ok(());
                }
                Err(e) => {
                    eprintln!(
                        "molq-server: saving snapshot {} (attempt {} of {ATTEMPTS}): {e}",
                        path.display(),
                        attempt + 1
                    );
                    last = e;
                }
            }
        }
        let msg = format!(
            "saving snapshot {} failed after {ATTEMPTS} attempts: {last}",
            path.display()
        );
        d.note_failure(&d.save_failures, &msg);
        Err(msg)
    }

    /// Removes orphaned atomic-write temp files from a snapshot directory,
    /// counting what it swept. Runs at load time and before every save, so
    /// the droppings of a crash mid-save never accumulate.
    fn sweep_snapshot_dir(&self, dir: &Path) {
        match sweep_tmp(&RealVfs, dir) {
            Ok(swept) if !swept.is_empty() => {
                self.inner
                    .durability
                    .tmp_swept
                    .fetch_add(swept.len() as u64, Ordering::Relaxed);
                eprintln!(
                    "molq-server: swept {} orphaned tmp file(s) from {}",
                    swept.len(),
                    dir.display()
                );
            }
            Ok(_) => {}
            Err(e) => eprintln!("molq-server: sweeping {}: {e}", dir.display()),
        }
    }

    /// Loads (or replaces) a dataset from in-memory object sets; `spec.paths`
    /// is ignored and cleared. Used by tests and the load generator.
    pub fn load_from_sets(
        &self,
        mut spec: DatasetSpec,
        sets: Vec<ObjectSet>,
    ) -> Result<Arc<Snapshot>, String> {
        spec.paths.clear();
        let derived_from = self.get(&spec.name).map(|s| s.generation);
        self.maybe_delay_build();
        let snapshot = Snapshot::build(spec, sets, self.exec_config())?;
        self.publish(snapshot, derived_from)
            .map_err(|e| e.to_string())
    }

    /// Rebuilds the named dataset from its stored spec and swaps it in,
    /// blocking until the new snapshot is published. `Some(mode)` switches
    /// the dataset's construction mode for this and every later rebuild —
    /// the `POST /reload?epsilon=` path between exact and approximate
    /// serving. File-backed datasets re-read their CSVs; if the CSVs are
    /// unchanged and a matching snapshot file exists, the reload fast-loads
    /// it (the result is semantically identical to a rebuild). In-memory
    /// datasets re-overlap their held sets.
    ///
    /// Rebuilds feed the per-dataset circuit breaker: while it is open the
    /// reload fast-fails with [`ReloadError::BreakerOpen`] and the current
    /// snapshot keeps serving. A rebuild that loses a publish race to a live
    /// update or another reload fails with [`ReloadError::Conflict`].
    pub fn reload(
        &self,
        name: &str,
        mode: Option<BuildMode>,
    ) -> Result<Arc<Snapshot>, ReloadError> {
        let current = self.admit_rebuild(name)?;
        self.rebuild(&current, mode)
    }

    /// Starts a [`reload`](Self::reload) on a background thread and returns
    /// immediately with the generation the rebuild will publish as. A second
    /// request while a build is in flight does not start another; it returns
    /// the same target with `already_building` set. Fast-fails while the
    /// rebuild breaker is open, without spawning anything.
    pub fn reload_background(
        &self,
        name: &str,
        mode: Option<BuildMode>,
    ) -> Result<ReloadTicket, ReloadError> {
        let current = self.admit_rebuild(name)?;
        let mut builds = self.inner.builds.lock().expect("builds lock poisoned");
        if let Some(&target_generation) = builds.get(name) {
            return Ok(ReloadTicket {
                target_generation,
                already_building: true,
            });
        }
        let target_generation = current.generation + 1;
        builds.insert(name.to_string(), target_generation);
        drop(builds);

        let engine = self.clone();
        std::thread::spawn(move || {
            let name = &current.spec.name;
            if let Err(e) = engine.rebuild(&current, mode) {
                eprintln!("molq-server: background reload of {name:?} failed: {e}");
            }
            engine
                .inner
                .builds
                .lock()
                .expect("builds lock poisoned")
                .remove(name);
        });
        Ok(ReloadTicket {
            target_generation,
            already_building: false,
        })
    }

    /// Rebuilds `current`'s dataset and publishes it as the next generation,
    /// feeding the outcome to the breaker. The build runs under
    /// `catch_unwind`: a panic counts as a failed rebuild. A lost publish
    /// race is not a build failure and leaves the breaker as it was.
    fn rebuild(
        &self,
        current: &Snapshot,
        mode: Option<BuildMode>,
    ) -> Result<Arc<Snapshot>, ReloadError> {
        let result = catch_unwind(AssertUnwindSafe(|| self.rebuild_unrecorded(current, mode)))
            .unwrap_or_else(|_| {
                Err(ReloadError::Failed(
                    "rebuild panicked (see the server log)".into(),
                ))
            });
        self.record_rebuild(&current.spec.name, &result);
        result
    }

    /// The rebuild work itself: a fresh snapshot of `current`'s dataset,
    /// published only if `current` is still the served generation.
    fn rebuild_unrecorded(
        &self,
        current: &Snapshot,
        mode: Option<BuildMode>,
    ) -> Result<Arc<Snapshot>, ReloadError> {
        crate::fault::fail_point("engine.rebuild")
            .map_err(|e| format!("injected rebuild failure: {e}"))?;
        let mut spec = current.spec.clone();
        if let Some(mode) = mode {
            spec.build = mode;
        }
        let derived_from = Some(current.generation);
        if spec.paths.is_empty() {
            self.maybe_delay_build();
            let snapshot = Snapshot::build(spec, current.query.sets.clone(), self.exec_config())?;
            self.publish(snapshot, derived_from)
        } else {
            self.load_derived(spec, derived_from).map(|(snap, _)| snap)
        }
    }

    /// The effective breaker policy.
    fn breaker_config(&self) -> BreakerConfig {
        self.inner
            .breaker_config
            .lock()
            .expect("breaker config lock poisoned")
            .unwrap_or_default()
    }

    /// Overrides the rebuild circuit-breaker policy (all datasets).
    pub fn set_breaker_config(&self, cfg: BreakerConfig) {
        *self
            .inner
            .breaker_config
            .lock()
            .expect("breaker config lock poisoned") = Some(cfg);
    }

    /// Admission check: the dataset's current snapshot, unless the breaker
    /// is open; an expired backoff admits one half-open probe.
    fn admit_rebuild(&self, name: &str) -> Result<Arc<Snapshot>, ReloadError> {
        let current = self
            .get(name)
            .ok_or_else(|| ReloadError::Failed(format!("no dataset {name:?}")))?;
        let mut breakers = self.inner.breakers.lock().expect("breaker lock poisoned");
        let Some(state) = breakers.get_mut(name) else {
            return Ok(current);
        };
        if let Some(open_until) = state.open_until {
            let now = Instant::now();
            if now < open_until {
                return Err(ReloadError::BreakerOpen {
                    retry_in: open_until - now,
                    last_error: state.last_error.clone(),
                });
            }
            // Half-open: admit this probe; its outcome decides what's next.
            state.open_until = None;
        }
        Ok(current)
    }

    /// Feeds a rebuild outcome into the breaker: success closes it, failure
    /// counts toward (or extends) the open state with exponential backoff. A
    /// lost publish race says nothing about the build and changes nothing.
    fn record_rebuild<T>(&self, name: &str, result: &Result<T, ReloadError>) {
        let mut breakers = self.inner.breakers.lock().expect("breaker lock poisoned");
        match result {
            Ok(_) => {
                breakers.remove(name);
            }
            Err(ReloadError::Conflict(_) | ReloadError::BreakerOpen { .. }) => {}
            Err(ReloadError::Failed(msg)) => {
                let cfg = self.breaker_config();
                let state = breakers.entry(name.to_string()).or_default();
                state.consecutive_failures += 1;
                state.last_error = msg.clone();
                if state.consecutive_failures >= cfg.threshold {
                    let exponent = state.consecutive_failures - cfg.threshold;
                    let backoff = cfg
                        .base_backoff
                        .saturating_mul(1u32 << exponent.min(16))
                        .min(cfg.max_backoff);
                    state.open_until = Some(Instant::now() + backoff);
                }
            }
        }
    }

    /// Breaker state of every dataset with recorded failures, sorted by
    /// dataset name. Healthy datasets are omitted.
    pub fn breaker_reports(&self) -> Vec<BreakerReport> {
        let breakers = self.inner.breakers.lock().expect("breaker lock poisoned");
        let now = Instant::now();
        let mut out: Vec<BreakerReport> = breakers
            .iter()
            .map(|(name, s)| BreakerReport {
                dataset: name.clone(),
                consecutive_failures: s.consecutive_failures,
                retry_in: s
                    .open_until
                    .and_then(|until| until.checked_duration_since(now)),
                last_error: s.last_error.clone(),
            })
            .collect();
        out.sort_by(|a, b| a.dataset.cmp(&b.dataset));
        out
    }

    /// `(dataset, target generation)` of every build currently in flight,
    /// sorted by dataset name.
    pub fn builds_in_flight(&self) -> Vec<(String, u64)> {
        let builds = self.inner.builds.lock().expect("builds lock poisoned");
        let mut out: Vec<(String, u64)> = builds.iter().map(|(k, &v)| (k.clone(), v)).collect();
        out.sort();
        out
    }

    #[cfg(test)]
    fn maybe_delay_build(&self) {
        let delay = *self.inner.build_delay.lock().expect("delay lock poisoned");
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
    }

    #[cfg(not(test))]
    fn maybe_delay_build(&self) {}

    /// Test hook: make every subsequent build take at least `d`.
    #[cfg(test)]
    pub fn set_build_delay(&self, d: std::time::Duration) {
        *self.inner.build_delay.lock().expect("delay lock poisoned") = Some(d);
    }

    /// The one way a snapshot enters the registry. Callers build it outside
    /// the lock (requests keep being served from the old snapshot for the
    /// whole, potentially long, preparation) from the inputs of generation
    /// `derived_from` (`None` for a first load). The swap is a
    /// compare-and-swap under the registry write lock: it refuses with
    /// [`ReloadError::Conflict`] when the served generation is no longer
    /// `derived_from`, and otherwise stamps the snapshot as the next
    /// generation. So generations are unique and strictly increasing per
    /// dataset, and no publication silently overwrites another.
    fn publish(
        &self,
        mut snapshot: Snapshot,
        derived_from: Option<u64>,
    ) -> Result<Arc<Snapshot>, ReloadError> {
        let mut map = self.inner.datasets.write().expect("engine lock poisoned");
        let served = map.get(&snapshot.spec.name).map(|s| s.generation);
        if served != derived_from {
            return Err(ReloadError::Conflict(format!(
                "dataset {:?} changed while this build was in flight; retry",
                snapshot.spec.name
            )));
        }
        snapshot.generation = served.map_or(1, |g| g + 1);
        let snapshot = Arc::new(snapshot);
        map.insert(snapshot.spec.name.clone(), Arc::clone(&snapshot));
        Ok(snapshot)
    }

    /// The current snapshot of a dataset.
    pub fn get(&self, name: &str) -> Option<Arc<Snapshot>> {
        self.inner
            .datasets
            .read()
            .expect("engine lock poisoned")
            .get(name)
            .cloned()
    }

    /// Sorted dataset names.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .datasets
            .read()
            .expect("engine lock poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Applies one live update to a dataset: patches the diagram in place
    /// (bit-identical to a from-scratch rebuild), appends the update to the
    /// write-ahead journal (fsync'd **before** publication, so a crash
    /// right after the response still replays it), and publishes the
    /// patched snapshot as a new generation. In-flight requests keep their
    /// old view, exactly like a reload swap.
    ///
    /// Datasets with inferred bounds (`spec.bounds == None`) whose inferred
    /// MBR moves under the update are rebuilt from scratch over the new
    /// bounds instead of patched — replay takes the same deterministic
    /// path, so restart equivalence holds either way.
    pub fn apply_update(&self, name: &str, update: &Update) -> Result<UpdateOutcome, UpdateError> {
        if let Err(e) = crate::fault::fail_point("engine.apply_update") {
            self.inner.updates.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(UpdateError::Rejected(format!(
                "injected update failure: {e}"
            )));
        }
        let entry = self.live_entry(name);
        let mut slot = entry.lock().expect("live state lock poisoned");
        let current = self
            .get(name)
            .ok_or_else(|| UpdateError::NotFound(format!("no dataset {name:?}")))?;
        // The patch layer is exact-only: a quadtree-approximate diagram has
        // no basic diagrams to re-clip, and mixing approximate bases with an
        // exact-replay journal would silently change what a restart serves.
        if current.build_meta.mode.is_approx() {
            self.inner.updates.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(UpdateError::Rejected(format!(
                "dataset {name:?} was built in approximate mode (ε = {}); live updates \
                 require an exact build — reload without --epsilon first",
                current.build_meta.mode.epsilon()
            )));
        }
        if slot
            .as_ref()
            .map_or(true, |s| s.generation != current.generation)
        {
            *slot = Some(self.hydrate(&current).map_err(UpdateError::Durability)?);
        }
        let state = slot.as_mut().expect("hydrated above");

        let inferred = current.spec.bounds.is_none();
        let (stats, full_rebuild) = match apply_one(&mut state.live, inferred, update) {
            Ok(done) => done,
            Err(e) => {
                self.inner.updates.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(UpdateError::Rejected(e.to_string()));
            }
        };

        // Write-ahead: the update must be durable before anyone can observe
        // its effects. On append failure the in-memory state is dropped (it
        // has already advanced) and rehydrated from the still-unchanged
        // published snapshot on the next update; the caller gets a typed
        // durability error (507) and the engine degrades until a durable
        // write succeeds again.
        if let Some(journal) = state.journal.as_mut() {
            let appended = match crate::fault::fail_point("engine.journal_append") {
                Err(msg) => Err(format!("injected append failure: {msg}")),
                Ok(()) => journal
                    .append(&record_of(update))
                    .map_err(|e| e.to_string()),
            };
            if let Err(e) = appended {
                let path = journal.path().display().to_string();
                *slot = None;
                let d = &self.inner.durability;
                let msg = format!("update not durable: journal append to {path} failed: {e}");
                d.note_failure(&d.append_failures, &msg);
                return Err(UpdateError::Durability(msg));
            }
            self.inner.durability.note_durable_ok();
        }

        let snapshot = self
            .publish_patched(&current, state)
            .map_err(UpdateError::Conflict)?;
        state.generation = snapshot.generation;

        let u = &self.inner.updates;
        u.applied.fetch_add(1, Ordering::Relaxed);
        if full_rebuild {
            u.full_rebuilds.fetch_add(1, Ordering::Relaxed);
        }
        let micros = stats.wall.as_micros() as u64;
        u.patch_micros.fetch_add(micros, Ordering::Relaxed);
        u.last_patch_micros.store(micros, Ordering::Relaxed);
        u.cells_reclipped
            .fetch_add(stats.cells_reclipped as u64, Ordering::Relaxed);
        let a = &self.inner.arena;
        a.segments_copied_total
            .fetch_add(stats.segments_copied as u64, Ordering::Relaxed);
        a.last_segments_copied
            .store(stats.segments_copied as u64, Ordering::Relaxed);

        Ok(UpdateOutcome {
            snapshot,
            stats,
            full_rebuild,
        })
    }

    /// Compacts a dataset's update history: persists the current (fully
    /// updated) diagram as a new base snapshot at `epoch + 1` and resets the
    /// journal to empty at that epoch. Restart cost returns to a single
    /// snapshot load. Publishes a new generation carrying the new epoch.
    pub fn compact(&self, name: &str) -> Result<u64, String> {
        let entry = self.live_entry(name);
        let mut slot = entry.lock().expect("live state lock poisoned");
        let current = self
            .get(name)
            .ok_or_else(|| format!("no dataset {name:?}"))?;
        let Some(dir) = current.spec.snapshot_dir.clone() else {
            return Err(format!("dataset {name:?} has no snapshot directory"));
        };
        if current.build_meta.mode.is_approx() {
            return Err(format!(
                "dataset {name:?} was built in approximate mode; there is no update \
                 history to compact"
            ));
        }
        if slot
            .as_ref()
            .map_or(true, |s| s.generation != current.generation)
        {
            *slot = Some(self.hydrate(&current)?);
        }
        let state = slot.as_mut().expect("hydrated above");

        let fingerprint = if current.spec.paths.is_empty() {
            SourceFingerprint { entries: vec![] }
        } else {
            SourceFingerprint::of_paths(&current.spec.paths)
                .map_err(|e| format!("fingerprinting sources of {name:?}: {e}"))?
        };
        let new_epoch = state.epoch + 1;
        let stored = StoredSnapshot {
            name: current.spec.name.clone(),
            boundary: current.spec.boundary,
            eps: current.spec.eps,
            explicit_bounds: current.spec.bounds,
            fingerprint,
            sets: state.live.sets().to_vec(),
            movd: state.live.index().arena().clone(),
            grid: state.live.index().grid().clone(),
            update_epoch: new_epoch,
            build: current.build_meta,
        };
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        self.sweep_snapshot_dir(&dir);
        // Base first, then the journal reset: the save's directory fsync
        // orders the new base before the emptied journal, so no crash point
        // leaves an old base next to a new-epoch journal.
        self.save_with_retry(&stored, &snapshot_path(&dir, name))?;
        match state.journal.as_mut() {
            Some(journal) => journal.reset(new_epoch).map_err(|e| e.to_string())?,
            None => {
                state.journal = Some(
                    Journal::create(&journal_path(&dir, name), name, new_epoch)
                        .map_err(|e| e.to_string())?,
                );
            }
        }
        state.epoch = new_epoch;
        let snapshot = self.publish_patched(&current, state)?;
        state.generation = snapshot.generation;
        self.inner
            .updates
            .compactions
            .fetch_add(1, Ordering::Relaxed);
        Ok(new_epoch)
    }

    /// A point-in-time copy of the live-update counters.
    pub fn update_stats(&self) -> UpdateStatsReport {
        let u = &self.inner.updates;
        UpdateStatsReport {
            applied: u.applied.load(Ordering::Relaxed),
            rejected: u.rejected.load(Ordering::Relaxed),
            replayed: u.replayed.load(Ordering::Relaxed),
            compactions: u.compactions.load(Ordering::Relaxed),
            full_rebuilds: u.full_rebuilds.load(Ordering::Relaxed),
            patch_micros_total: u.patch_micros.load(Ordering::Relaxed),
            last_patch_micros: u.last_patch_micros.load(Ordering::Relaxed),
            cells_reclipped: u.cells_reclipped.load(Ordering::Relaxed),
        }
    }

    /// A point-in-time copy of the durability counters.
    pub fn durability(&self) -> DurabilityReport {
        let d = &self.inner.durability;
        DurabilityReport {
            append_failures: d.append_failures.load(Ordering::Relaxed),
            save_retries: d.save_retries.load(Ordering::Relaxed),
            save_failures: d.save_failures.load(Ordering::Relaxed),
            salvages: d.salvages.load(Ordering::Relaxed),
            torn_tails: d.torn_tails.load(Ordering::Relaxed),
            journals_set_aside: d.journals_set_aside.load(Ordering::Relaxed),
            tmp_swept: d.tmp_swept.load(Ordering::Relaxed),
            degraded: d.degraded.load(Ordering::Relaxed) != 0,
            last_error: d
                .last_error
                .lock()
                .expect("durability lock poisoned")
                .clone(),
        }
    }

    /// A point-in-time copy of the arena counters.
    pub fn arena_stats(&self) -> ArenaStatsReport {
        let a = &self.inner.arena;
        ArenaStatsReport {
            last_restore_copy_micros: a.last_restore_copy_micros.load(Ordering::Relaxed),
            last_restore_validate_micros: a.last_restore_validate_micros.load(Ordering::Relaxed),
            segments_copied_total: a.segments_copied_total.load(Ordering::Relaxed),
            last_segments_copied: a.last_segments_copied.load(Ordering::Relaxed),
        }
    }

    /// Records how a snapshot restore's decode wall time split between bulk
    /// lane copies and structural validation.
    fn record_restore_timings(&self, t: DecodeTimings) {
        let a = &self.inner.arena;
        a.last_restore_copy_micros.store(
            t.copy.as_micros().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
        a.last_restore_validate_micros.store(
            t.validate.as_micros().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    /// The per-dataset live-state cell (created on first use).
    fn live_entry(&self, name: &str) -> Arc<Mutex<Option<LiveState>>> {
        self.inner
            .live
            .lock()
            .expect("live map lock poisoned")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Builds the live-update state mirroring a published snapshot: the
    /// incremental diagram rehydrates from the served index (only per-set
    /// basic diagrams are rebuilt), and the journal opens at the snapshot's
    /// epoch. A journal that can't be opened (stale epoch after a crashed
    /// compaction, corruption) is set aside and recreated empty — its
    /// updates are already baked into the served snapshot.
    fn hydrate(&self, snap: &Snapshot) -> Result<LiveState, String> {
        let index = snap.index.clone();
        let live = LiveMovd::from_index(
            snap.query.sets.clone(),
            index,
            snap.spec.boundary,
            self.exec_config(),
        )
        .map_err(|e| e.to_string())?;
        let journal = match snap.spec.snapshot_dir.as_ref() {
            None => None,
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                let path = journal_path(dir, &snap.spec.name);
                let journal =
                    match Journal::open_or_create(&path, &snap.spec.name, snap.update_epoch) {
                        Ok(journal) => journal,
                        Err(e) => {
                            eprintln!(
                                "molq-server: journal {} unusable ({e}); starting a fresh one",
                                path.display()
                            );
                            self.inner
                                .durability
                                .journals_set_aside
                                .fetch_add(1, Ordering::Relaxed);
                            let _ = set_aside_journal(&RealVfs, &path, "stale");
                            Journal::create(&path, &snap.spec.name, snap.update_epoch)
                                .map_err(|e| e.to_string())?
                        }
                    };
                Some(journal)
            }
        };
        Ok(LiveState {
            live,
            journal,
            epoch: snap.update_epoch,
            generation: snap.generation,
        })
    }

    /// Publishes the live state's diagram as the dataset's next generation.
    /// Refuses (without publishing) when another publication slipped in
    /// between — the caller's state is stale and self-heals on retry.
    fn publish_patched(
        &self,
        current: &Snapshot,
        state: &LiveState,
    ) -> Result<Arc<Snapshot>, String> {
        let query = MolqQuery::new(state.live.sets().to_vec(), state.live.bounds())
            .with_rule(StoppingRule::Either(current.spec.eps, 100_000));
        query.validate().map_err(|e| e.to_string())?;
        let snapshot = Snapshot::assemble(
            current.spec.clone(),
            query,
            state.live.index().clone(),
            state.epoch,
            current.build_meta,
        );
        self.publish(snapshot, Some(current.generation))
            .map_err(|e| e.to_string())
    }

    /// Brings a recovered base snapshot up to date with its journal records,
    /// following the [`Recovery`]'s disposition:
    ///
    /// * no journal / clean journal → replay everything (possibly nothing)
    ///   and publish;
    /// * torn tail or salvaged prefix → replay the valid record prefix;
    ///   reopening the journal truncates the dropped tail so appends
    ///   continue from the last durable record;
    /// * set-aside (defective header, stale dataset/epoch) → move the file
    ///   out of the way and publish the base alone;
    /// * a checksum-valid record that no longer applies to this base → set
    ///   the journal aside as `.corrupt` and publish the base alone. Every
    ///   update the base itself captured still survives — a bad journal
    ///   never costs the base, and never forces a CSV rebuild.
    ///
    /// Publishes as the replacement of generation `derived_from`.
    fn restore_recovered(
        &self,
        spec: &DatasetSpec,
        recovery: Recovery,
        derived_from: Option<u64>,
    ) -> Result<Arc<Snapshot>, ReloadError> {
        let dir = spec.snapshot_dir.as_ref().expect("restore implies dir");
        let path = journal_path(dir, &spec.name);
        let Recovery {
            base: stored,
            records,
            disposition,
            timings,
        } = recovery;
        self.record_restore_timings(timings);
        let d = &self.inner.durability;
        match &disposition {
            JournalDisposition::TornTail { dropped_bytes } => {
                d.torn_tails.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "molq-server: journal {} ended in a torn record ({dropped_bytes} partial \
                     byte(s), crash mid-append); replaying the {} complete update(s)",
                    path.display(),
                    records.len()
                );
            }
            JournalDisposition::Salvaged {
                dropped_bytes,
                defect,
            } => {
                d.salvages.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "molq-server: journal {} tail defective ({defect}); salvaged the \
                     {}-record prefix, dropping {dropped_bytes} byte(s)",
                    path.display(),
                    records.len()
                );
            }
            JournalDisposition::SetAside { reason } => {
                d.journals_set_aside.fetch_add(1, Ordering::Relaxed);
                match set_aside_journal(&RealVfs, &path, "stale") {
                    Ok(aside) => eprintln!(
                        "molq-server: journal {} unusable ({reason}); set aside as {}",
                        path.display(),
                        aside.display()
                    ),
                    Err(e) => eprintln!(
                        "molq-server: journal {} unusable ({reason}); setting it aside failed: {e}",
                        path.display()
                    ),
                }
            }
            JournalDisposition::Missing | JournalDisposition::Clean => {}
        }

        // An approximate base never replays a journal: the exact patch
        // layer cannot apply to a quadtree diagram, and silently mixing the
        // modes would change what a restart serves. Any records found are
        // set aside and the base serves alone.
        if stored.build.mode.is_approx() && !records.is_empty() {
            d.journals_set_aside.fetch_add(1, Ordering::Relaxed);
            match set_aside_journal(&RealVfs, &path, "modemix") {
                Ok(aside) => eprintln!(
                    "molq-server: journal {} holds {} update(s) but the base snapshot was \
                     built in approximate mode (ε = {}); set aside as {}; serving the base \
                     alone",
                    path.display(),
                    records.len(),
                    stored.build.mode.epsilon(),
                    aside.display()
                ),
                Err(e) => eprintln!(
                    "molq-server: journal {} holds update(s) for an approximate base; \
                     setting it aside failed: {e}",
                    path.display()
                ),
            }
            return self.publish(Snapshot::from_stored(spec.clone(), stored)?, derived_from);
        }

        if records.is_empty() {
            return self.publish(Snapshot::from_stored(spec.clone(), stored)?, derived_from);
        }

        // Replay onto a copy of the base's parts, so a record that turns out
        // not to apply can still fall back to serving the base alone.
        let epoch = stored.update_epoch;
        let base_build = stored.build;
        let index = MovdIndex::from_arena(stored.movd.clone(), stored.grid.clone())?;
        let mut live = LiveMovd::from_index(
            stored.sets.clone(),
            index,
            spec.boundary,
            self.exec_config(),
        )
        .map_err(|e| e.to_string())?;
        let inferred = spec.bounds.is_none();
        for (i, record) in records.iter().enumerate() {
            if let Err(e) = apply_one(&mut live, inferred, &update_of(record)) {
                // Checksum-valid but inapplicable: the journal does not
                // describe this base. Set it aside and serve the base alone.
                d.journals_set_aside.fetch_add(1, Ordering::Relaxed);
                match set_aside_journal(&RealVfs, &path, "corrupt") {
                    Ok(aside) => eprintln!(
                        "molq-server: journal record {i} no longer applies ({e}); set aside \
                         as {}; serving the base snapshot alone",
                        aside.display()
                    ),
                    Err(rename_err) => eprintln!(
                        "molq-server: journal record {i} no longer applies ({e}); setting \
                         {} aside failed: {rename_err}",
                        path.display()
                    ),
                }
                return self.publish(Snapshot::from_stored(spec.clone(), stored)?, derived_from);
            }
            self.inner.updates.replayed.fetch_add(1, Ordering::Relaxed);
        }

        // Reopen for appends (truncates any torn/defective tail) and publish.
        let journal =
            Journal::open_or_create(&path, &spec.name, epoch).map_err(|e| e.to_string())?;
        let query = MolqQuery::new(live.sets().to_vec(), live.bounds())
            .with_rule(StoppingRule::Either(spec.eps, 100_000));
        query.validate().map_err(|e| e.to_string())?;
        let snapshot =
            Snapshot::assemble(spec.clone(), query, live.index().clone(), epoch, base_build);
        let snapshot = self.publish(snapshot, derived_from)?;
        let entry = self.live_entry(&spec.name);
        *entry.lock().expect("live state lock poisoned") = Some(LiveState {
            live,
            journal: Some(journal),
            epoch,
            generation: snapshot.generation,
        });
        Ok(snapshot)
    }
}

/// The journal form of an update (shared with the offline `molq update` CLI).
pub fn record_of(update: &Update) -> JournalRecord {
    match *update {
        Update::Insert { set, ref object } => JournalRecord::Insert {
            set: set as u32,
            x: object.loc.x,
            y: object.loc.y,
            w_t: object.w_t,
            w_o: object.w_o,
        },
        Update::Remove { set, index } => JournalRecord::Remove {
            set: set as u32,
            index: index as u32,
        },
    }
}

/// The update a journal record describes (shared with the offline CLI).
pub fn update_of(record: &JournalRecord) -> Update {
    match *record {
        JournalRecord::Insert {
            set,
            x,
            y,
            w_t,
            w_o,
        } => Update::Insert {
            set: set as usize,
            object: SpatialObject {
                loc: Point::new(x, y),
                w_t,
                w_o,
            },
        },
        JournalRecord::Remove { set, index } => Update::Remove {
            set: set as usize,
            index: index as usize,
        },
    }
}

/// The object sets after an update, or `None` when the update is invalid
/// (the incremental layer then reports the typed error).
fn sets_after(sets: &[ObjectSet], update: &Update) -> Option<Vec<ObjectSet>> {
    let mut out = sets.to_vec();
    match update {
        Update::Insert { set, object } => {
            out.get_mut(*set)?.objects.push(*object);
        }
        Update::Remove { set, index } => {
            let target = out.get_mut(*set)?;
            if *index >= target.objects.len() || target.objects.len() < 2 {
                return None;
            }
            target.objects.remove(*index);
        }
    }
    Some(out)
}

/// Applies one update to a live diagram. When `inferred_bounds` is set and
/// the update moves the dataset's inferred search space (the exact
/// inference a snapshot build runs), the diagram is rebuilt from scratch
/// over the new bounds — patching can't change the space itself. Returns
/// the patch stats and whether the full-rebuild path ran. The live
/// path, journal replay, and the offline `molq update` CLI call this, so
/// every consumer patches bit-for-bit identically.
pub fn apply_one(
    live: &mut LiveMovd,
    inferred_bounds: bool,
    update: &Update,
) -> Result<(PatchStats, bool), MolqError> {
    if inferred_bounds {
        if let Some(new_sets) = sets_after(live.sets(), update) {
            let m = new_sets
                .iter()
                .flat_map(|s| s.objects.iter().map(|o| o.loc))
                .fold(Mbr::EMPTY, |acc, p| acc.union(&Mbr::of_point(p)));
            if !m.is_empty() {
                let new_bounds = m.inflate(0.05 * m.margin().max(1.0));
                let old = live.bounds();
                let moved = [
                    (new_bounds.min_x, old.min_x),
                    (new_bounds.min_y, old.min_y),
                    (new_bounds.max_x, old.max_x),
                    (new_bounds.max_y, old.max_y),
                ]
                .iter()
                .any(|(a, b)| a.to_bits() != b.to_bits());
                if moved {
                    let t0 = Instant::now();
                    let rebuilt = LiveMovd::build(new_sets, new_bounds, live.mode(), live.exec())?;
                    let stats = PatchStats {
                        cells_reclipped: 0,
                        ovrs_kept: 0,
                        ovrs_rederived: rebuilt.index().len(),
                        grid_patched: false,
                        segments_copied: 0,
                        wall: t0.elapsed(),
                    };
                    *live = rebuilt;
                    return Ok((stats, true));
                }
            }
        }
    }
    live.apply(update).map(|stats| (stats, false))
}

/// `true` when a persisted snapshot was built by this exact recipe from
/// these exact sources: same name, boundary mode, ε (bit-compared), build
/// mode (construction ε bit-compared too, so changing `--epsilon` forces a
/// rebuild instead of silently serving the other mode's diagram), explicit
/// bounds, and source fingerprint.
fn snapshot_matches(
    stored: &StoredSnapshot,
    spec: &DatasetSpec,
    fingerprint: &SourceFingerprint,
) -> bool {
    let bounds_match = match (&stored.explicit_bounds, &spec.bounds) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            (a.min_x, a.min_y, a.max_x, a.max_y) == (b.min_x, b.min_y, b.max_x, b.max_y)
        }
        _ => false,
    };
    stored.name == spec.name
        && stored.boundary == spec.boundary
        && stored.eps.to_bits() == spec.eps.to_bits()
        && stored.build.mode.bits_eq(&spec.build)
        && bounds_match
        && &stored.fingerprint == fingerprint
}

#[cfg(test)]
mod tests {
    use super::*;
    use molq_store::load_journal;

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
            1.0,
            (0..n)
                .map(|_| Point::new(next() * 100.0, next() * 100.0))
                .collect(),
        )
    }

    fn spec(name: &str) -> DatasetSpec {
        DatasetSpec {
            bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
            ..DatasetSpec::new(name, Vec::new())
        }
    }

    /// A unique temp dir per test, with CSV layers written into it.
    fn csv_fixture(tag: &str, layers: &[(&str, usize, u64)]) -> (PathBuf, Vec<PathBuf>) {
        let dir = std::env::temp_dir().join(format!("molq_server_engine_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let paths = layers
            .iter()
            .map(|&(name, n, seed)| {
                let path = dir.join(format!("{name}.csv"));
                let mut f = File::create(&path).unwrap();
                molq_datagen::csv::write_csv(&pseudo_set(name, n, seed), &mut f).unwrap();
                path
            })
            .collect();
        (dir, paths)
    }

    #[test]
    fn load_get_and_reload_bump_generations() {
        let engine = Engine::new();
        let sets = vec![pseudo_set("a", 10, 1), pseudo_set("b", 12, 2)];
        let s1 = engine.load_from_sets(spec("d"), sets).unwrap();
        assert_eq!(s1.generation, 1);
        assert_eq!(s1.set_count(), 2);
        assert_eq!(s1.object_count(), 22);

        let s2 = engine.reload("d", None).unwrap();
        assert_eq!(s2.generation, 2);
        let current = engine.get("d").unwrap();
        assert_eq!(current.generation, 2);
        // The old snapshot stays valid for holders of the Arc.
        assert_eq!(s1.generation, 1);
        assert_eq!(engine.names(), vec!["d".to_string()]);
    }

    #[test]
    fn parallel_exec_config_builds_the_same_diagram() {
        let sets = vec![pseudo_set("a", 20, 41), pseudo_set("b", 18, 42)];
        let serial = Engine::new();
        serial.set_exec_config(ExecConfig::serial());
        let s = serial.load_from_sets(spec("d"), sets.clone()).unwrap();
        let parallel = Engine::new();
        parallel.set_exec_config(ExecConfig::new(4));
        assert_eq!(parallel.exec_config(), ExecConfig::new(4));
        let p = parallel.load_from_sets(spec("d"), sets).unwrap();
        assert_eq!(s.index.arena(), p.index.arena());
        // Reloads keep the configured parallelism and still match.
        let r = parallel.reload("d", None).unwrap();
        assert_eq!(r.index.arena(), s.index.arena());
    }

    #[test]
    fn quantization_is_stable_and_tight() {
        let engine = Engine::new();
        let snap = engine
            .load_from_sets(
                spec("q"),
                vec![pseudo_set("a", 8, 3), pseudo_set("b", 8, 4)],
            )
            .unwrap();
        let p = Point::new(33.333333, 66.666666);
        let (cell, snapped) = snap.quantize(p);
        // The snap error is below one quantum, and points within half a
        // quantum of a lattice point land in that lattice point's cell.
        assert!(snapped.dist(p) <= snap.quantum);
        let (cell2, snapped2) = snap.quantize(Point::new(
            snapped.x + snap.quantum * 0.4,
            snapped.y - snap.quantum * 0.4,
        ));
        assert_eq!(cell, cell2);
        assert_eq!(snapped, snapped2);
    }

    #[test]
    fn missing_datasets_and_empty_inputs_error() {
        let engine = Engine::new();
        assert!(engine.get("nope").is_none());
        assert!(engine.reload("nope", None).is_err());
        assert!(engine.reload_background("nope", None).is_err());
        assert!(engine.load(DatasetSpec::new("d", Vec::new())).is_err());
        assert!(engine
            .load_from_sets(DatasetSpec::new("d", Vec::new()), Vec::new())
            .is_err());
    }

    #[test]
    fn file_backed_load_roundtrips() {
        let (_dir, mut paths) = csv_fixture("plain", &[("layer", 9, 5)]);
        paths.push(paths[0].clone());

        let engine = Engine::new();
        let spec = DatasetSpec {
            bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
            ..DatasetSpec::new("files", paths)
        };
        let snap = engine.load(spec).unwrap();
        assert_eq!(snap.set_count(), 2);
        assert_eq!(snap.object_count(), 18);
        let re = engine.reload("files", None).unwrap();
        assert_eq!(re.generation, 2);
    }

    #[test]
    fn snapshot_persists_restores_and_survives_corruption() {
        let (dir, paths) = csv_fixture("persist", &[("a", 14, 6), ("b", 11, 7)]);
        let spec = DatasetSpec {
            bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
            snapshot_dir: Some(dir.clone()),
            ..DatasetSpec::new("d", paths.clone())
        };
        let file = spec.snapshot_file().unwrap();

        // Cold start: built from CSVs, snapshot persisted.
        let (built, outcome) = Engine::new().load_traced(spec.clone()).unwrap();
        assert_eq!(outcome, LoadOutcome::BuiltFromCsv);
        assert!(file.exists());

        // Warm start: restored from the snapshot, answers identical.
        let (restored, outcome) = Engine::new().load_traced(spec.clone()).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
        assert_eq!(restored.generation, 1);
        assert_eq!(restored.object_count(), built.object_count());
        assert_eq!(restored.index.len(), built.index.len());
        for gi in 0..25 {
            let l = Point::new(
                (gi as f64 * 7.7 + 0.3) % 100.0,
                (gi as f64 * 3.9 + 0.9) % 100.0,
            );
            assert_eq!(built.index.locate_id(l), restored.index.locate_id(l));
        }

        // Corruption: flip one payload byte → checksum fails → clean
        // rebuild, and the re-saved snapshot restores again.
        let mut bytes = std::fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&file, &bytes).unwrap();
        let (_, outcome) = Engine::new().load_traced(spec.clone()).unwrap();
        assert_eq!(outcome, LoadOutcome::BuiltFromCsv);
        let (_, outcome) = Engine::new().load_traced(spec.clone()).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);

        // A spec change (different ε) makes the snapshot stale (and the
        // rebuild re-saves under the new recipe).
        let changed = DatasetSpec {
            eps: 1e-6,
            ..spec.clone()
        };
        let (_, outcome) = Engine::new().load_traced(changed.clone()).unwrap();
        assert_eq!(outcome, LoadOutcome::BuiltFromCsv);
        let (_, outcome) = Engine::new().load_traced(changed).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);

        // Edited source CSV: fingerprint mismatch → rebuild.
        let set = pseudo_set("a", 14, 99);
        let mut f = File::create(&paths[0]).unwrap();
        molq_datagen::csv::write_csv(&set, &mut f).unwrap();
        let (_, outcome) = Engine::new().load_traced(spec).unwrap();
        assert_eq!(outcome, LoadOutcome::BuiltFromCsv);
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_recovers() {
        let (dir, paths) = csv_fixture("breaker", &[("a", 10, 13), ("b", 10, 14)]);
        let engine = Engine::new();
        engine.set_breaker_config(BreakerConfig {
            threshold: 2,
            base_backoff: Duration::from_millis(80),
            max_backoff: Duration::from_secs(1),
        });
        let spec = DatasetSpec {
            bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
            ..DatasetSpec::new("d", paths.clone())
        };
        let snap = engine.load(spec).unwrap();
        assert_eq!(snap.generation, 1);
        assert!(engine.breaker_reports().is_empty());

        // Break the source: every rebuild now fails naturally.
        let saved = std::fs::read(&paths[0]).unwrap();
        std::fs::remove_file(&paths[0]).unwrap();

        // First failure: recorded, breaker still closed.
        assert!(matches!(
            engine.reload("d", None),
            Err(ReloadError::Failed(_))
        ));
        let report = &engine.breaker_reports()[0];
        assert_eq!(report.consecutive_failures, 1);
        assert!(report.retry_in.is_none());

        // Second failure reaches the threshold: breaker opens.
        assert!(matches!(
            engine.reload("d", None),
            Err(ReloadError::Failed(_))
        ));
        let report = &engine.breaker_reports()[0];
        assert_eq!(report.consecutive_failures, 2);
        assert!(report.retry_in.is_some());
        assert!(report.last_error.contains("No such file"), "{report:?}");

        // While open, reloads (sync and background) fast-fail without
        // attempting a build, and the old generation keeps serving.
        match engine.reload("d", None) {
            Err(ReloadError::BreakerOpen { last_error, .. }) => {
                assert!(last_error.contains("No such file"), "{last_error:?}");
            }
            other => panic!("expected BreakerOpen, got {other:?}"),
        }
        assert!(matches!(
            engine.reload_background("d", None),
            Err(ReloadError::BreakerOpen { .. })
        ));
        assert_eq!(engine.get("d").unwrap().generation, 1);
        assert_eq!(engine.breaker_reports()[0].consecutive_failures, 2);

        // After the backoff a half-open probe is admitted; it fails and
        // re-opens the breaker with a doubled backoff.
        std::thread::sleep(Duration::from_millis(100));
        assert!(matches!(
            engine.reload("d", None),
            Err(ReloadError::Failed(_))
        ));
        let report = &engine.breaker_reports()[0];
        assert_eq!(report.consecutive_failures, 3);
        let retry_in = report.retry_in.expect("re-opened");
        assert!(retry_in > Duration::from_millis(100), "{retry_in:?}");

        // Repair the source; once the backoff expires the probe succeeds,
        // the breaker closes, and the generation finally advances.
        std::fs::write(&paths[0], &saved).unwrap();
        std::thread::sleep(retry_in + Duration::from_millis(20));
        let rebuilt = engine.reload("d", None).unwrap();
        assert_eq!(rebuilt.generation, 2);
        assert!(engine.breaker_reports().is_empty());
        drop(dir);
    }

    #[test]
    fn live_updates_patch_publish_and_replay() {
        let (dir, paths) = csv_fixture("live", &[("a", 12, 21), ("b", 10, 22)]);
        let spec = DatasetSpec {
            bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
            snapshot_dir: Some(dir.clone()),
            ..DatasetSpec::new("d", paths.clone())
        };
        let engine = Engine::new();
        let s1 = engine.load(spec.clone()).unwrap();
        assert_eq!(s1.generation, 1);
        assert_eq!(s1.update_epoch, 0);

        let insert = Update::Insert {
            set: 0,
            object: SpatialObject {
                loc: Point::new(41.5, 43.25),
                w_t: 1.0,
                w_o: 2.0,
            },
        };
        let outcome = engine.apply_update("d", &insert).unwrap();
        assert_eq!(outcome.snapshot.generation, 2);
        assert!(!outcome.full_rebuild);
        assert_eq!(engine.get("d").unwrap().object_count(), 23);

        let remove = Update::Remove { set: 1, index: 3 };
        let outcome = engine.apply_update("d", &remove).unwrap();
        assert_eq!(outcome.snapshot.generation, 3);

        let stats = engine.update_stats();
        assert_eq!(stats.applied, 2);
        assert_eq!(stats.rejected, 0);
        assert!(stats.patch_micros_total > 0);

        // The patched diagram is bit-identical to building from the updated
        // sets from scratch.
        let served = engine.get("d").unwrap();
        let fresh = Engine::new()
            .load_from_sets(
                DatasetSpec {
                    bounds: spec.bounds,
                    ..DatasetSpec::new("d", Vec::new())
                },
                served.query.sets.clone(),
            )
            .unwrap();
        assert_eq!(served.index.arena(), fresh.index.arena());

        // Restart: base + journal replay reproduces the served diagram.
        let journal_file = journal_path(&dir, "d");
        assert!(journal_file.exists());
        assert_eq!(load_journal(&journal_file).unwrap().records.len(), 2);
        let restarted = Engine::new();
        let (replayed, outcome) = restarted.load_traced(spec.clone()).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
        assert_eq!(replayed.index.arena(), served.index.arena());
        assert_eq!(replayed.object_count(), 22);
        assert_eq!(restarted.update_stats().replayed, 2);

        // Updates keep appending where the journal left off after a restore.
        restarted.apply_update("d", &insert).unwrap();
        assert_eq!(load_journal(&journal_file).unwrap().records.len(), 3);

        // A corrupted record inside the journal no longer forces a CSV
        // rebuild: the valid prefix (2 records) is salvaged, replayed, and
        // the defective tail truncated — updates keep flowing after.
        let clean_len = std::fs::metadata(&journal_file).unwrap().len();
        let mut bytes = std::fs::read(&journal_file).unwrap();
        let off = bytes.len() - 30; // inside the 3rd (last) record
        bytes[off] ^= 0x08;
        std::fs::write(&journal_file, &bytes).unwrap();
        let salvaging = Engine::new();
        let (snap, outcome) = salvaging.load_traced(spec.clone()).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
        assert_eq!(snap.object_count(), 22); // insert + remove, not the 3rd
        assert_eq!(salvaging.update_stats().replayed, 2);
        let report = salvaging.durability();
        assert_eq!(report.salvages, 1);
        assert!(!report.degraded);
        // The reopen truncated the corrupt tail back to the valid prefix.
        assert!(journal_file.exists());
        assert_eq!(
            std::fs::metadata(&journal_file).unwrap().len(),
            clean_len - 48
        );
        salvaging.apply_update("d", &insert).unwrap();
        assert_eq!(load_journal(&journal_file).unwrap().records.len(), 3);

        // A defective journal *header* can't be salvaged: the journal is
        // set aside and the base serves alone — still no CSV rebuild.
        let mut bytes = std::fs::read(&journal_file).unwrap();
        bytes[2] ^= 0xff; // inside the magic
        std::fs::write(&journal_file, &bytes).unwrap();
        let aside_engine = Engine::new();
        let (snap, outcome) = aside_engine.load_traced(spec.clone()).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
        assert_eq!(snap.object_count(), 22); // the base alone
        assert!(!journal_file.exists());
        assert!(journal_file.with_extension("journal.stale").exists());
        assert_eq!(aside_engine.durability().journals_set_aside, 1);
        // ... after which base + (fresh) journal restores again.
        let (_, outcome) = Engine::new().load_traced(spec).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
    }

    #[test]
    fn rejected_updates_and_inferred_bounds_rebuilds() {
        let engine = Engine::new();
        let sets = vec![pseudo_set("a", 9, 31), pseudo_set("b", 8, 32)];
        let inferred_spec = DatasetSpec::new("d", Vec::new()); // bounds: None
        engine.load_from_sets(inferred_spec, sets.clone()).unwrap();
        let gen1 = engine.get("d").unwrap().generation;

        // Duplicate coordinates: rejected, nothing published.
        let dup = Update::Insert {
            set: 0,
            object: SpatialObject {
                loc: sets[0].objects[0].loc,
                w_t: 1.0,
                w_o: 1.0,
            },
        };
        assert!(engine.apply_update("d", &dup).is_err());
        assert_eq!(engine.get("d").unwrap().generation, gen1);
        assert_eq!(engine.update_stats().rejected, 1);

        // An interior insert (the centroid is inside the inferred MBR by
        // construction) leaves the bounds alone: incremental.
        let locs: Vec<Point> = sets
            .iter()
            .flat_map(|s| s.objects.iter().map(|o| o.loc))
            .collect();
        let centroid = Point::new(
            locs.iter().map(|p| p.x).sum::<f64>() / locs.len() as f64,
            locs.iter().map(|p| p.y).sum::<f64>() / locs.len() as f64,
        );
        let inside = Update::Insert {
            set: 0,
            object: SpatialObject {
                loc: centroid,
                w_t: 1.0,
                w_o: 1.0,
            },
        };
        let outcome = engine.apply_update("d", &inside).unwrap();
        assert!(!outcome.full_rebuild);

        // An insert far outside moves the inferred MBR: full rebuild over
        // the new space, still published as the next generation.
        let outside = Update::Insert {
            set: 0,
            object: SpatialObject {
                loc: Point::new(500.0, 500.0),
                w_t: 1.0,
                w_o: 1.0,
            },
        };
        let before = engine.get("d").unwrap();
        let outcome = engine.apply_update("d", &outside).unwrap();
        assert!(outcome.full_rebuild);
        assert_eq!(outcome.snapshot.generation, before.generation + 1);
        assert!(outcome.snapshot.query.bounds.max_x > before.query.bounds.max_x);
        assert_eq!(engine.update_stats().full_rebuilds, 1);

        // Missing dataset errors.
        assert!(engine.apply_update("nope", &inside).is_err());
    }

    #[test]
    fn compaction_bumps_epoch_and_resets_journal() {
        let (dir, paths) = csv_fixture("compact", &[("a", 11, 51), ("b", 9, 52)]);
        let spec = DatasetSpec {
            bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
            snapshot_dir: Some(dir.clone()),
            ..DatasetSpec::new("d", paths)
        };
        let engine = Engine::new();
        engine.load(spec.clone()).unwrap();
        for i in 0..3 {
            engine
                .apply_update(
                    "d",
                    &Update::Insert {
                        set: 0,
                        object: SpatialObject {
                            loc: Point::new(20.0 + i as f64 * 3.5, 70.0 - i as f64 * 2.25),
                            w_t: 1.0,
                            w_o: 1.0,
                        },
                    },
                )
                .unwrap();
        }
        let journal_file = journal_path(&dir, "d");
        assert_eq!(load_journal(&journal_file).unwrap().records.len(), 3);

        let epoch = engine.compact("d").unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(engine.get("d").unwrap().update_epoch, 1);
        assert_eq!(engine.update_stats().compactions, 1);
        let load = load_journal(&journal_file).unwrap();
        assert_eq!((load.epoch, load.records.len()), (1, 0));

        // Restart: the compacted base restores directly, nothing to replay.
        let served = engine.get("d").unwrap();
        let restarted = Engine::new();
        let (snap, outcome) = restarted.load_traced(spec.clone()).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
        assert_eq!(snap.update_epoch, 1);
        assert_eq!(snap.index.arena(), served.index.arena());
        assert_eq!(restarted.update_stats().replayed, 0);

        // Post-compaction updates journal at the new epoch and replay again.
        engine
            .apply_update("d", &Update::Remove { set: 1, index: 0 })
            .unwrap();
        let served = engine.get("d").unwrap();
        let restarted = Engine::new();
        let (snap, outcome) = restarted.load_traced(spec).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
        assert_eq!(restarted.update_stats().replayed, 1);
        assert_eq!(snap.index.arena(), served.index.arena());

        // Compacting a dataset without persistence is refused.
        let memory = Engine::new();
        memory
            .load_from_sets(
                super::tests::spec("m"),
                vec![pseudo_set("a", 8, 61), pseudo_set("b", 8, 62)],
            )
            .unwrap();
        assert!(memory.compact("m").is_err());
        assert!(memory.compact("nope").is_err());
    }

    #[test]
    fn background_reload_is_non_blocking_and_deduplicated() {
        let engine = Engine::new();
        engine
            .load_from_sets(
                spec("bg"),
                vec![pseudo_set("a", 10, 8), pseudo_set("b", 10, 9)],
            )
            .unwrap();
        engine.set_build_delay(std::time::Duration::from_millis(150));

        let start = std::time::Instant::now();
        let ticket = engine.reload_background("bg", None).unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_millis(100),
            "reload_background blocked for {:?}",
            start.elapsed()
        );
        assert_eq!(ticket.target_generation, 2);
        assert!(!ticket.already_building);
        // The serving snapshot is untouched while the build runs.
        assert_eq!(engine.get("bg").unwrap().generation, 1);
        assert_eq!(engine.builds_in_flight(), vec![("bg".to_string(), 2)]);

        // A second request joins the in-flight build instead of stacking.
        let again = engine.reload_background("bg", None).unwrap();
        assert_eq!(again.target_generation, 2);
        assert!(again.already_building);

        // The build completes and publishes its target generation.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while engine.get("bg").unwrap().generation != 2 {
            assert!(std::time::Instant::now() < deadline, "build never finished");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !engine.builds_in_flight().is_empty() {
            assert!(std::time::Instant::now() < deadline, "build never cleared");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    /// A reload derived from generation g must not publish over a live
    /// update (or another reload) that published g + 1 while it built.
    #[test]
    fn racing_publications_never_share_a_generation_or_drop_an_update() {
        let engine = Engine::new();
        let sets: Vec<ObjectSet> = (0..3)
            .map(|i| pseudo_set(&format!("s{i}"), 60, 40 + i))
            .collect();
        let base = engine.load_from_sets(spec("race"), sets).unwrap();
        let mut objects = base.object_count();
        let mut generations = vec![base.generation];
        let insert = |x: f64| Update::Insert {
            set: 0,
            object: SpatialObject {
                loc: Point::new(x, 50.5),
                w_t: 1.0,
                w_o: 1.0,
            },
        };
        let wait_for_builds = |engine: &Engine| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
            while !engine.builds_in_flight().is_empty() {
                assert!(std::time::Instant::now() < deadline, "build never cleared");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        };
        // Every rebuild takes long enough for the update below to land first.
        engine.set_build_delay(std::time::Duration::from_millis(300));

        // 1. A reload starts from generation 1; an update publishes while
        //    it builds. The reload loses, typed, and is not a build failure.
        let racer = engine.clone();
        let reload = std::thread::spawn(move || racer.reload("race", None));
        std::thread::sleep(std::time::Duration::from_millis(20));
        let update = engine.apply_update("race", &insert(50.25)).unwrap();
        objects += 1;
        generations.push(update.snapshot.generation);
        match reload.join().unwrap() {
            Err(ReloadError::Conflict(_)) => {}
            Ok(snap) => {
                generations.push(snap.generation);
                assert_eq!(snap.object_count(), objects, "reload dropped the update");
            }
            Err(e) => panic!("unexpected reload error: {e}"),
        }
        assert!(engine.breaker_reports().is_empty());
        let served = engine.get("race").unwrap();
        assert_eq!(served.object_count(), objects, "the update was dropped");

        // 2. A background reload and a blocking one start from the same
        //    generation: exactly one publishes, as the ticket's target.
        let ticket = engine.reload_background("race", None).unwrap();
        assert_eq!(ticket.target_generation, served.generation + 1);
        let blocking = engine.reload("race", None);
        wait_for_builds(&engine);
        let served = engine.get("race").unwrap();
        assert_eq!(served.generation, ticket.target_generation);
        match blocking {
            Ok(snap) => assert!(Arc::ptr_eq(&snap, &served), "both reloads published"),
            Err(e) => assert!(matches!(e, ReloadError::Conflict(_)), "{e}"),
        }
        assert_eq!(served.object_count(), objects);
        generations.push(served.generation);

        // 3. The next update builds on what is served, not on a stale
        //    live state.
        let update = engine.apply_update("race", &insert(50.75)).unwrap();
        objects += 1;
        generations.push(update.snapshot.generation);
        assert_eq!(update.snapshot.object_count(), objects);
        assert_eq!(engine.get("race").unwrap().object_count(), objects);
        assert!(
            generations.windows(2).all(|w| w[0] < w[1]),
            "generations not strictly increasing: {generations:?}"
        );
    }

    #[test]
    fn approx_spec_builds_serves_and_refuses_updates() {
        let engine = Engine::new();
        let approx_spec = DatasetSpec {
            build: BuildMode::from_epsilon(Some(0.25)),
            ..spec("ap")
        };
        let sets = vec![pseudo_set("a", 30, 71), pseudo_set("b", 25, 72)];
        let snap = engine.load_from_sets(approx_spec, sets.clone()).unwrap();
        assert!(snap.build_meta.mode.is_approx());
        assert_eq!(snap.build_meta.certified_factor(), 1.25);
        assert!(snap.build_meta.leaves > 0);
        assert!(snap.build_meta.fully_certified());

        // The approximate optimum is within the certified factor of the
        // exact one.
        let exact = Engine::new().load_from_sets(spec("ex"), sets).unwrap();
        let never = CancelToken::never();
        let exec = ExecConfig::default();
        let a = solve_arena_cancellable_with(
            &snap.query,
            snap.index.arena(),
            snap.lanes(),
            &never,
            exec,
        )
        .unwrap();
        let e = solve_arena_cancellable_with(
            &exact.query,
            exact.index.arena(),
            exact.lanes(),
            &never,
            exec,
        )
        .unwrap();
        let slack = 1.0 + 1e-6;
        assert!(a.cost >= e.cost / slack);
        assert!(a.cost <= snap.build_meta.certified_factor() * e.cost * slack);

        // Live updates are exact-only.
        let insert = Update::Insert {
            set: 0,
            object: SpatialObject {
                loc: Point::new(10.0, 20.0),
                w_t: 1.0,
                w_o: 1.0,
            },
        };
        match engine.apply_update("ap", &insert) {
            Err(UpdateError::Rejected(msg)) => {
                assert!(msg.contains("approximate"), "{msg}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(engine.update_stats().rejected, 1);

        // Reloading with ε = 0 switches the dataset back to the exact
        // pipeline; reloading with a new ε switches forward again.
        let back = engine
            .reload("ap", Some(BuildMode::from_epsilon(Some(0.0))))
            .unwrap();
        assert!(!back.build_meta.mode.is_approx());
        assert_eq!(back.index.arena(), exact.index.arena());
        let forward = engine
            .reload("ap", Some(BuildMode::from_epsilon(Some(0.5))))
            .unwrap();
        assert!(forward.build_meta.mode.is_approx());
        assert_eq!(forward.build_meta.mode.epsilon(), 0.5);
        engine.apply_update("ap", &insert).unwrap_err();
    }

    #[test]
    fn approx_snapshot_persists_restores_and_never_mixes_modes() {
        let (dir, paths) = csv_fixture("approx_persist", &[("a", 20, 81), ("b", 18, 82)]);
        let approx = DatasetSpec {
            bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
            snapshot_dir: Some(dir.clone()),
            build: BuildMode::from_epsilon(Some(0.2)),
            ..DatasetSpec::new("d", paths.clone())
        };

        // Cold start persists the approximate build; warm start restores it
        // with its metadata intact.
        let (built, outcome) = Engine::new().load_traced(approx.clone()).unwrap();
        assert_eq!(outcome, LoadOutcome::BuiltFromCsv);
        let (restored, outcome) = Engine::new().load_traced(approx.clone()).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
        assert!(restored.build_meta.mode.is_approx());
        assert_eq!(
            restored.build_meta.mode.epsilon().to_bits(),
            0.2f64.to_bits()
        );
        assert_eq!(restored.build_meta.leaves, built.build_meta.leaves);
        assert_eq!(restored.index.arena(), built.index.arena());

        // An exact spec against the approximate snapshot is stale (and vice
        // versa): the build mode is part of the snapshot identity.
        let exact = DatasetSpec {
            build: BuildMode::Exact,
            ..approx.clone()
        };
        let (_, outcome) = Engine::new().load_traced(exact.clone()).unwrap();
        assert_eq!(outcome, LoadOutcome::BuiltFromCsv);
        let (_, outcome) = Engine::new().load_traced(exact).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
        let changed = DatasetSpec {
            build: BuildMode::from_epsilon(Some(0.1)),
            ..approx.clone()
        };
        let (_, outcome) = Engine::new().load_traced(changed).unwrap();
        assert_eq!(outcome, LoadOutcome::BuiltFromCsv);

        // A journal sitting next to an approximate base is set aside on
        // restore instead of replayed — the patch layer is exact-only.
        let (_, outcome) = Engine::new().load_traced(approx.clone()).unwrap();
        assert_eq!(outcome, LoadOutcome::BuiltFromCsv);
        let jpath = journal_path(&dir, "d");
        let mut j = Journal::create(&jpath, "d", 0).unwrap();
        j.append(&JournalRecord::Insert {
            set: 0,
            x: 5.0,
            y: 5.0,
            w_t: 1.0,
            w_o: 1.0,
        })
        .unwrap();
        drop(j);
        let restarted = Engine::new();
        let (snap, outcome) = restarted.load_traced(approx).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
        assert_eq!(restarted.update_stats().replayed, 0);
        assert_eq!(restarted.durability().journals_set_aside, 1);
        assert!(!jpath.exists(), "journal should have been set aside");
        assert_eq!(snap.object_count(), 38);
    }
}
