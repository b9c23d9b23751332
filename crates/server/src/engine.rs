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
//! Each dataset name has one record in one map: the served snapshot that
//! requests clone, one **writer** that owns the live-update state (the
//! incremental diagram and its journal), and a short-held status (build
//! ticket and breaker) that `/health`, `/stats` and background reloads read
//! without waiting on the writer. Every publication — load, reload,
//! restore, compaction, live update — holds the dataset's writer while it
//! swaps the served snapshot and assigns the next generation, so
//! generations are unique and strictly increasing. A live update holds the
//! writer from reading the served snapshot through its journal append to
//! its swap, so it can never lose. A snapshot that replaces the dataset's
//! inputs is built outside any lock and then compare-and-swapped under the
//! writer: it refuses when the served generation is no longer the one it
//! was derived from, so a reload that loses to a live update fails with
//! [`ReloadError::Conflict`] instead of silently dropping the update. What
//! the replacement does on disk — a CSV build saving its base and dropping
//! the old journal, a restore reopening or setting aside its journal — runs
//! under the same writer *before* the swap: a generation is durable before
//! it is visible, so a reload derived from it reads its base, and one
//! derived from the generation before it loses its compare-and-swap.
//!
//! The engine is the only code that writes a dataset's snapshot directory,
//! and one engine at a time does: a load claims the dataset's files by
//! taking an exclusive lock on `<dir>/<name>.lock` (see
//! [`molq_store::lock`]) and holds it until the engine is dropped. Every
//! write — tmp sweep, base save, journal append, truncate, reset or
//! set-aside — happens only under it. A load whose lock is held by another
//! owner (a process, or another engine in this one) still serves what it
//! restored or built but writes nothing, and its live updates fail with
//! [`UpdateError::Durability`]. [`Engine::open_dir`] is the strict form
//! `molq update` uses: it refuses with [`DirError::Busy`] and touches
//! nothing.
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

use crate::metrics::{Metric, Registry};
use molq_core::prelude::*;
use molq_datagen::csv::read_csv;
use molq_fw::StoppingRule;
use molq_geom::{Mbr, Point};
use molq_store::{
    journal_path, lock_path, recover, set_aside_journal, sweep_tmp, DatasetLock, Journal,
    JournalDisposition, JournalRecord, RealVfs, Recovery, SourceFingerprint, StoredSnapshot, Vfs,
};
use std::collections::HashMap;
use std::fs::File;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
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
    /// dataset's writer when the snapshot is published (0 until then).
    /// Every publication — load, reload, restore, live update — takes the
    /// next value, so cache keys from older snapshots can never alias new
    /// answers.
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
    /// base belongs to. Bumped by [`Engine::compact`]; 0 for a fresh CSV
    /// build.
    pub update_epoch: u64,
    /// How the diagram was constructed: the mode, its (1+ε) certified
    /// factor, and the refinement counters for approximate builds.
    pub build_meta: BuildMeta,
    /// The source CSVs the base was built from, saved with every base so a
    /// restart on unchanged sources restores it (empty for in-memory sets).
    fingerprint: SourceFingerprint,
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
            SourceFingerprint::default(),
        ))
    }

    /// Restores a serving snapshot from a persisted build: the MOVD and grid
    /// come straight off disk, so no Overlapper or index work runs.
    fn from_stored(spec: DatasetSpec, stored: StoredSnapshot) -> Result<Self, String> {
        let bounds = stored.movd.bounds();
        let query =
            MolqQuery::new(stored.sets, bounds).with_rule(StoppingRule::Either(spec.eps, 100_000));
        query.validate().map_err(|e| e.to_string())?;
        let index = MovdIndex::from_arena(stored.movd, stored.grid)?;
        Ok(Snapshot::assemble(
            spec,
            query,
            index,
            stored.update_epoch,
            stored.build,
            stored.fingerprint,
        ))
    }

    /// An unpublished snapshot at journal epoch `update_epoch`: the
    /// dataset's writer assigns its generation when it swaps it in.
    fn assemble(
        spec: DatasetSpec,
        query: MolqQuery,
        index: MovdIndex,
        update_epoch: u64,
        build_meta: BuildMeta,
        fingerprint: SourceFingerprint,
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
            fingerprint,
        }
    }

    /// The snapshot's pinned scan lanes, built from the arena on first use
    /// and shared by every subsequent solve/top-k against this view.
    pub fn lanes(&self) -> &FwLanes {
        self.lanes
            .get_or_init(|| FwLanes::from_arena(&self.query, self.index.arena()))
    }

    /// The persistable form of this snapshot (everything a restart needs).
    fn to_stored(&self) -> StoredSnapshot {
        StoredSnapshot {
            name: self.spec.name.clone(),
            boundary: self.spec.boundary,
            eps: self.spec.eps,
            explicit_bounds: self.spec.bounds,
            fingerprint: self.fingerprint.clone(),
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
    /// The dataset was republished (by a live update or another reload)
    /// while this rebuild was in flight. Nothing was published; the rebuild
    /// is safe to retry against the new generation.
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

impl BreakerState {
    /// Admission check: refuses while the breaker is open; an expired
    /// backoff admits one half-open probe.
    fn admit(&mut self) -> Result<(), ReloadError> {
        if let Some(open_until) = self.open_until {
            let now = Instant::now();
            if now < open_until {
                return Err(ReloadError::BreakerOpen {
                    retry_in: open_until - now,
                    last_error: self.last_error.clone(),
                });
            }
            // Half-open: admit this probe; its outcome decides what's next.
            self.open_until = None;
        }
        Ok(())
    }

    /// Feeds a rebuild outcome in: success closes the breaker, failure
    /// counts toward (or extends) the open state with exponential backoff. A
    /// lost publish race says nothing about the build and changes nothing.
    fn record<T>(&mut self, result: &Result<T, ReloadError>, cfg: BreakerConfig) {
        match result {
            Ok(_) => *self = BreakerState::default(),
            Err(ReloadError::Conflict(_) | ReloadError::BreakerOpen { .. }) => {}
            Err(ReloadError::Failed(msg)) => {
                self.consecutive_failures += 1;
                self.last_error = msg.clone();
                if self.consecutive_failures >= cfg.threshold {
                    let exponent = self.consecutive_failures - cfg.threshold;
                    let backoff = cfg
                        .base_backoff
                        .saturating_mul(1u32 << exponent.min(16))
                        .min(cfg.max_backoff);
                    self.open_until = Some(Instant::now() + backoff);
                }
            }
        }
    }
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

/// One dataset: the snapshot readers see, the one writer that changes it,
/// and the rebuild status `/health` and `/stats` report. A clone is a
/// handle: it shares the writer and the status, and its `served` is the
/// snapshot served when it was cloned.
#[derive(Debug, Clone)]
struct Dataset {
    /// The served snapshot: [`Engine::get`] clones it under the map's read
    /// lock. Only the holder of `writer` replaces it, under the map's write
    /// lock.
    served: Arc<Snapshot>,
    /// The dataset's one writer: every publication holds it.
    writer: Arc<Mutex<Writer>>,
    /// Build ticket and breaker. Held briefly and never across I/O, so
    /// reading it never waits on the writer.
    status: Arc<Mutex<Status>>,
}

impl Dataset {
    fn status(&self) -> MutexGuard<'_, Status> {
        self.status.lock().expect("status lock poisoned")
    }
}

/// A dataset's writer: the live-update state mirroring the served
/// snapshot. Every publication holds it, so no update can land between a
/// publication and what it does with this state and the files on disk.
#[derive(Debug, Default)]
struct Writer {
    /// The incremental diagram, bit-consistent with the served snapshot;
    /// `None` until the first live update after a publication that replaced
    /// the dataset's inputs rehydrates it.
    live: Option<LiveMovd>,
    /// The journal `live`'s updates append to, bound to the served
    /// snapshot's epoch; `None` without a snapshot dir.
    journal: Option<Journal>,
}

/// A dataset's rebuild status.
#[derive(Debug, Default)]
struct Status {
    /// Target generation of the background build in flight.
    building: Option<u64>,
    /// The rebuild circuit breaker.
    breaker: BreakerState,
}

/// Why a live update failed, typed so callers can answer with the right
/// status code (the service maps these to 404/400/507).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The dataset does not exist.
    NotFound(String),
    /// Validation rejected the update (duplicate coordinates, bad indices,
    /// emptying a set, injected faults). Nothing changed.
    Rejected(String),
    /// The update could not be made durable (journal append or live-state
    /// storage failed). The in-memory state was rolled back; the published
    /// snapshot is unchanged.
    Durability(String),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::NotFound(m) | UpdateError::Rejected(m) | UpdateError::Durability(m) => {
                f.write_str(m)
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// Why [`Engine::claim_dir`], [`Engine::open_dir`] or [`Engine::compact`]
/// refused or failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirError {
    /// Another owner holds the dataset's files in the named dir. Nothing
    /// was read or written.
    Busy(String),
    /// The dir holds no usable base, or the work itself failed.
    Failed(String),
}

impl std::fmt::Display for DirError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirError::Busy(m) | DirError::Failed(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for DirError {}

/// A dataset restored from its snapshot dir (see [`Engine::open_dir`]).
#[derive(Debug)]
pub struct Opened {
    /// The published snapshot: the base plus every replayed record.
    pub snapshot: Arc<Snapshot>,
    /// Journal records replayed onto the base.
    pub replayed: usize,
    /// What the restore set aside, and why, when the journal was unusable.
    pub set_aside: Option<String>,
}

/// How the most recent snapshot restore's decode wall time split between
/// bulk lane copies and structural validation: a view over the registry's
/// `arena_stats` gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStatsReport {
    /// Bulk lane-copy share of the most recent restore's decode, µs.
    pub last_restore_copy_micros: u64,
    /// Structural-validation share of the most recent restore's decode, µs.
    pub last_restore_validate_micros: u64,
}

/// Storage health, as `/health` and `/stats` report it. The counts of what
/// the crash-consistency machinery did live in the registry's `durability`
/// section.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DurabilityReport {
    /// `true` while the most recent durable-write attempt (journal append
    /// or snapshot save) failed; cleared by the next one that succeeds.
    pub degraded: bool,
    /// The error that last degraded the engine, if any.
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
    /// Dataset name → the dataset's one record.
    datasets: RwLock<HashMap<String, Dataset>>,
    /// Worker-thread count for Overlapper rebuilds; `0` defers to
    /// [`ExecConfig::default`] (the `MOLQ_THREADS` env, else serial).
    exec_threads: std::sync::atomic::AtomicUsize,
    /// Every counter, gauge and latency histogram of the server.
    metrics: Registry,
    /// Storage health (`/health` → `durability`).
    durability: Mutex<DurabilityReport>,
    /// Breaker policy (settable once at wiring time; defaults apply).
    breaker_config: Mutex<Option<BreakerConfig>>,
    /// The dataset files this engine owns, by lock path. A claim is held
    /// until the engine is dropped.
    locks: Mutex<HashMap<PathBuf, DatasetLock>>,
    /// Held by a first load from its check that the name is free until
    /// its record is visible, so first loads of a name take turns.
    first_loads: Mutex<()>,
    /// Test hook: named points where the engine pauses once, signalling
    /// the first channel and then waiting on the second.
    #[cfg(test)]
    holds: Mutex<HashMap<&'static str, Hold>>,
    /// Test hook: threads currently waiting to take a dataset's writer.
    #[cfg(test)]
    writers_waiting: std::sync::atomic::AtomicUsize,
}

/// A test hold: the channel signalled on arrival, and the one waited on.
#[cfg(test)]
type Hold = (std::sync::mpsc::Sender<()>, std::sync::mpsc::Receiver<()>);

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
        self.maybe_hold("build.start");
        let fingerprint = SourceFingerprint::of_paths(&spec.paths)
            .map_err(|e| format!("fingerprinting sources of {:?}: {e}", spec.name))?;

        // A load claims its snapshot dir. Owning it, the load sweeps the dir
        // and may write it; otherwise it reads the dir and writes nothing.
        if let Some(dir) = spec.snapshot_dir.as_deref() {
            let claimed = std::fs::create_dir_all(dir)
                .map_err(|e| DirError::Failed(format!("{}: {e}", dir.display())))
                .and_then(|()| self.claim_dir(dir, &spec.name));
            match claimed {
                Ok(()) => self.sweep_snapshot_dir(dir),
                Err(e) => eprintln!("molq-server: {e}; serving {:?} read-only", spec.name),
            }
        }
        if let Some(recovery) = self.try_restore(&spec, &fingerprint) {
            match self.restore_recovered(&spec, recovery, derived_from) {
                Ok(opened) => return Ok((opened.snapshot, LoadOutcome::LoadedFromSnapshot)),
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
        let snapshot = Snapshot {
            fingerprint,
            ..Snapshot::build(spec, sets, self.exec_config())?
        };
        // A fresh CSV build starts a clean update history: its base replaces
        // the old one on disk, and the old journal goes with it.
        let snap = self.replace(snapshot, derived_from, |writer, snap| {
            self.maybe_hold("publish.persist");
            self.persist(snap);
            *writer = Writer::default();
        })?;
        Ok((snap, LoadOutcome::BuiltFromCsv))
    }

    /// Claims dataset `name`'s files in `dir` for this engine, which then
    /// holds them until it is dropped; claiming them again is a no-op.
    /// Refuses with [`DirError::Busy`] while another owner — a process, or
    /// another engine in this one — holds them. The dir must exist.
    pub fn claim_dir(&self, dir: &Path, name: &str) -> Result<(), DirError> {
        let path = lock_path(dir, name);
        let mut locks = self.inner.locks.lock().expect("lock table poisoned");
        if locks.contains_key(&path) {
            return Ok(());
        }
        match DatasetLock::try_claim(dir, name) {
            Ok(Some(lock)) => {
                locks.insert(path, lock);
                Ok(())
            }
            Ok(None) => Err(DirError::Busy(format!(
                "{}: another process or engine owns dataset {name:?} there (it holds {})",
                dir.display(),
                path.display()
            ))),
            Err(e) => Err(DirError::Failed(format!("{}: {e}", path.display()))),
        }
    }

    /// Whether this engine owns dataset `name`'s files in `dir`.
    fn owns(&self, dir: &Path, name: &str) -> bool {
        self.inner
            .locks
            .lock()
            .expect("lock table poisoned")
            .contains_key(&lock_path(dir, name))
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
        let why = match crate::fault::fail_point("engine.snapshot_read") {
            Err(e) => format!("unusable (injected: {e})"),
            Ok(()) => match recover(&RealVfs, dir, &spec.name) {
                Ok(recovery) if snapshot_matches(&recovery.base, spec, fingerprint) => {
                    return Some(recovery)
                }
                Ok(_) => "is stale".to_string(),
                Err(e) if e.is_not_found() => return None,
                Err(e) => format!("unusable ({e})"),
            },
        };
        eprintln!(
            "molq-server: snapshot {} {why}; rebuilding {:?} from CSVs",
            path.display(),
            spec.name
        );
        None
    }

    /// Saves a freshly-built snapshot when the spec asks for persistence
    /// and this engine owns the dir. Persistence failures are warnings,
    /// never load failures — a serving snapshot in memory always beats a
    /// durable one on disk.
    fn persist(&self, snap: &Snapshot) {
        let (Some(dir), Some(path)) =
            (snap.spec.snapshot_dir.as_deref(), snap.spec.snapshot_file())
        else {
            return;
        };
        if !self.owns(dir, &snap.spec.name) {
            return;
        }
        if let Err(e) = self.save_with_retry(&snap.to_stored(), &path) {
            eprintln!(
                "molq-server: failed to persist snapshot {}: {e}",
                path.display()
            );
        }
        // A fresh CSV build starts a clean update history: any journal left
        // by a previous incarnation no longer applies to this base.
        let jpath = journal_path(dir, &snap.spec.name);
        if RealVfs.remove_file(&jpath).is_ok() {
            let _ = molq_store::vfs::sync_parent_dir(&RealVfs, &jpath);
        }
    }

    /// Saves a snapshot with bounded retry: a transient failure gets
    /// `ATTEMPTS` tries with exponential backoff before the save is declared
    /// failed and the engine degraded. Every attempt passes the
    /// `engine.snapshot_save` fault point.
    fn save_with_retry(&self, stored: &StoredSnapshot, path: &Path) -> Result<(), String> {
        const ATTEMPTS: u32 = 3;
        let mut last = String::new();
        for attempt in 0..ATTEMPTS {
            if attempt > 0 {
                self.inner.metrics.inc(Metric::SaveRetries);
                std::thread::sleep(Duration::from_millis(10u64 << (attempt - 1)));
            }
            let result = match crate::fault::fail_point("engine.snapshot_save") {
                Err(msg) => Err(format!("injected save failure: {msg}")),
                Ok(()) => stored.save_file(path).map_err(|e| e.to_string()),
            };
            match result {
                Ok(()) => {
                    self.note_durable_ok();
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
        self.note_durable_failure(Metric::SaveFailures, &msg);
        Err(msg)
    }

    /// Removes orphaned atomic-write temp files from a snapshot directory,
    /// counting what it swept. Runs when a load or [`Engine::open_dir`]
    /// claims the dir, so the droppings of a crash mid-save never outlive
    /// the restart.
    fn sweep_snapshot_dir(&self, dir: &Path) {
        match sweep_tmp(&RealVfs, dir) {
            Ok(swept) if !swept.is_empty() => {
                self.inner.metrics.add(Metric::TmpSwept, swept.len() as u64);
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
    /// is ignored and cleared. Used by tests and the load generator. It
    /// neither reads nor claims `spec.snapshot_dir`: live updates journal
    /// there only if an earlier load on this engine claimed it.
    pub fn load_from_sets(
        &self,
        mut spec: DatasetSpec,
        sets: Vec<ObjectSet>,
    ) -> Result<Arc<Snapshot>, String> {
        spec.paths.clear();
        let derived_from = self.get(&spec.name).map(|s| s.generation);
        self.maybe_hold("build.start");
        let snapshot = Snapshot::build(spec, sets, self.exec_config())?;
        self.replace(snapshot, derived_from, |writer, _| {
            *writer = Writer::default()
        })
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
        let (ds, current) = self.admit_rebuild(name)?;
        self.rebuild(&ds, &current, mode)
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
        let (ds, current) = self.admit_rebuild(name)?;
        let mut status = ds.status();
        if let Some(target_generation) = status.building {
            return Ok(ReloadTicket {
                target_generation,
                already_building: true,
            });
        }
        let target_generation = current.generation + 1;
        status.building = Some(target_generation);
        drop(status);

        let engine = self.clone();
        std::thread::spawn(move || {
            if let Err(e) = engine.rebuild(&ds, &current, mode) {
                let name = &current.spec.name;
                eprintln!("molq-server: background reload of {name:?} failed: {e}");
            }
            ds.status().building = None;
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
        ds: &Dataset,
        current: &Snapshot,
        mode: Option<BuildMode>,
    ) -> Result<Arc<Snapshot>, ReloadError> {
        let result = catch_unwind(AssertUnwindSafe(|| self.rebuild_unrecorded(current, mode)))
            .unwrap_or_else(|_| {
                Err(ReloadError::Failed(
                    "rebuild panicked (see the server log)".into(),
                ))
            });
        let cfg = self.breaker_config();
        ds.status().breaker.record(&result, cfg);
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
            self.maybe_hold("build.start");
            let snapshot = Snapshot::build(spec, current.query.sets.clone(), self.exec_config())?;
            self.replace(snapshot, derived_from, |writer, _| {
                *writer = Writer::default()
            })
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

    /// Admission check: the dataset and its current snapshot, unless the
    /// breaker is open; an expired backoff admits one half-open probe.
    fn admit_rebuild(&self, name: &str) -> Result<(Dataset, Arc<Snapshot>), ReloadError> {
        let ds = self
            .dataset(name)
            .ok_or_else(|| ReloadError::Failed(format!("no dataset {name:?}")))?;
        ds.status().breaker.admit()?;
        let current = Arc::clone(&ds.served);
        Ok((ds, current))
    }

    /// Breaker state of every dataset with recorded failures, sorted by
    /// dataset name. Healthy datasets are omitted.
    pub fn breaker_reports(&self) -> Vec<BreakerReport> {
        let now = Instant::now();
        let mut out: Vec<BreakerReport> = self
            .inner
            .datasets
            .read()
            .expect("engine lock poisoned")
            .iter()
            .filter_map(|(name, ds)| {
                let status = ds.status();
                let s = &status.breaker;
                (s.consecutive_failures > 0).then(|| BreakerReport {
                    dataset: name.clone(),
                    consecutive_failures: s.consecutive_failures,
                    retry_in: s
                        .open_until
                        .and_then(|until| until.checked_duration_since(now)),
                    last_error: s.last_error.clone(),
                })
            })
            .collect();
        out.sort_by(|a, b| a.dataset.cmp(&b.dataset));
        out
    }

    /// `(dataset, target generation)` of every build currently in flight,
    /// sorted by dataset name.
    pub fn builds_in_flight(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .inner
            .datasets
            .read()
            .expect("engine lock poisoned")
            .iter()
            .filter_map(|(name, ds)| ds.status().building.map(|target| (name.clone(), target)))
            .collect();
        out.sort();
        out
    }

    /// Test hook: the next time the engine reaches `point` it sends on
    /// `reached`, then waits for `release`. Points: `build.start` (a load,
    /// reload or rebuild is about to build; no lock held), `update.publish`
    /// (a live update's record is durable, its publication pending, the
    /// writer held) and `publish.persist` (a CSV build won its
    /// compare-and-swap, its base neither saved nor served, the writer
    /// held).
    #[cfg(test)]
    pub(crate) fn hold_once(
        &self,
        point: &'static str,
        reached: std::sync::mpsc::Sender<()>,
        release: std::sync::mpsc::Receiver<()>,
    ) {
        self.inner
            .holds
            .lock()
            .expect("hold lock poisoned")
            .insert(point, (reached, release));
    }

    #[cfg(test)]
    fn maybe_hold(&self, point: &str) {
        let hold = self
            .inner
            .holds
            .lock()
            .expect("hold lock poisoned")
            .remove(point);
        if let Some((reached, release)) = hold {
            let _ = reached.send(());
            let _ = release.recv();
        }
    }

    #[cfg(not(test))]
    fn maybe_hold(&self, _point: &str) {}

    /// Test hook: blocks until some thread waits to take a dataset's
    /// writer.
    #[cfg(test)]
    pub(crate) fn wait_for_writer_waiters(&self) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while self
            .inner
            .writers_waiting
            .load(std::sync::atomic::Ordering::SeqCst)
            == 0
        {
            assert!(Instant::now() < deadline, "nobody waits on a writer");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Takes a dataset's writer.
    fn lock_writer<'a>(&self, ds: &'a Dataset) -> MutexGuard<'a, Writer> {
        #[cfg(test)]
        self.inner
            .writers_waiting
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let writer = ds.writer.lock().expect("writer lock poisoned");
        #[cfg(test)]
        self.inner
            .writers_waiting
            .fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        writer
    }

    /// Publishes a snapshot that replaces the dataset's inputs: a load, a
    /// rebuild or a restore. Callers build it outside any lock (requests keep
    /// being served from the old snapshot for the whole, potentially long,
    /// preparation) from the inputs of generation `derived_from` (`None`: the
    /// dataset's first load). Under the dataset's writer it is a
    /// compare-and-swap: it refuses with [`ReloadError::Conflict`] when the
    /// served generation is no longer `derived_from`. Having won, `finish`
    /// sets up the writer and the files on disk, and only then is the
    /// snapshot swapped in: what it wrote is durable before anyone can
    /// derive from it, and no update lands in between.
    fn replace(
        &self,
        mut snapshot: Snapshot,
        derived_from: Option<u64>,
        finish: impl FnOnce(&mut Writer, &Snapshot),
    ) -> Result<Arc<Snapshot>, ReloadError> {
        let name = snapshot.spec.name.clone();
        let conflict = || {
            ReloadError::Conflict(format!(
                "dataset {name:?} changed while this build was in flight; retry"
            ))
        };
        let Some(from) = derived_from else {
            // A first load: the record becomes visible, writer and all, once
            // `finish` is done. Only first loads insert records, and they
            // take turns, so the name stays free until then.
            let _turn = self.inner.first_loads.lock().expect("first loads poisoned");
            if self.dataset(&name).is_some() {
                return Err(conflict());
            }
            let mut writer = Writer::default();
            finish(&mut writer, &snapshot);
            snapshot.generation = 1;
            let snapshot = Arc::new(snapshot);
            let ds = Dataset {
                served: Arc::clone(&snapshot),
                writer: Arc::new(Mutex::new(writer)),
                status: Arc::default(),
            };
            let mut map = self.inner.datasets.write().expect("engine lock poisoned");
            map.insert(name, ds);
            return Ok(snapshot);
        };
        let ds = self.dataset(&name).ok_or_else(conflict)?;
        let mut writer = self.lock_writer(&ds);
        if self.get(&name).map(|s| s.generation) != Some(from) {
            return Err(conflict());
        }
        finish(&mut writer, &snapshot);
        Ok(writer.swap(self, snapshot))
    }

    /// A handle on a dataset's record.
    fn dataset(&self, name: &str) -> Option<Dataset> {
        self.inner
            .datasets
            .read()
            .expect("engine lock poisoned")
            .get(name)
            .cloned()
    }

    /// The current snapshot of a dataset.
    pub fn get(&self, name: &str) -> Option<Arc<Snapshot>> {
        self.inner
            .datasets
            .read()
            .expect("engine lock poisoned")
            .get(name)
            .map(|ds| Arc::clone(&ds.served))
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
            self.inner.metrics.inc(Metric::UpdatesRejected);
            return Err(UpdateError::Rejected(format!(
                "injected update failure: {e}"
            )));
        }
        let ds = self
            .dataset(name)
            .ok_or_else(|| UpdateError::NotFound(format!("no dataset {name:?}")))?;
        let mut writer = self.lock_writer(&ds);
        writer.update(self, name, update)
    }

    /// Every counter, gauge and latency histogram of the server.
    pub fn metrics(&self) -> &Registry {
        &self.inner.metrics
    }

    /// Storage health: whether the most recent durable write failed, and
    /// the error that last degraded the engine.
    pub fn durability(&self) -> DurabilityReport {
        self.inner
            .durability
            .lock()
            .expect("durability lock poisoned")
            .clone()
    }

    /// Records a durable-write failure: bumps `counter`, degrades the
    /// engine, and remembers the error for `/health`.
    fn note_durable_failure(&self, counter: Metric, err: &str) {
        self.inner.metrics.inc(counter);
        *self
            .inner
            .durability
            .lock()
            .expect("durability lock poisoned") = DurabilityReport {
            degraded: true,
            last_error: Some(err.to_string()),
        };
    }

    /// A durable write succeeded: storage is healthy again.
    fn note_durable_ok(&self) {
        self.inner
            .durability
            .lock()
            .expect("durability lock poisoned")
            .degraded = false;
    }

    /// How the most recent snapshot restore's decode split between bulk
    /// lane copies and structural validation.
    pub fn arena_stats(&self) -> ArenaStatsReport {
        let m = &self.inner.metrics;
        ArenaStatsReport {
            last_restore_copy_micros: m.get(Metric::LastRestoreCopyUs),
            last_restore_validate_micros: m.get(Metric::LastRestoreValidateUs),
        }
    }

    /// The journal a writer at journal epoch `epoch` appends to, opened for
    /// appends (which truncates a torn or salvaged tail); `None` without a
    /// snapshot dir. A live update's rehydration and a restore that
    /// replayed its journal both open it here. A journal that can't be
    /// opened (stale epoch, corruption) is set aside and recreated empty.
    /// Fails, naming the dir, when this engine does not own it.
    fn open_journal(&self, spec: &DatasetSpec, epoch: u64) -> Result<Option<Journal>, String> {
        let Some(dir) = spec.snapshot_dir.as_deref() else {
            return Ok(None);
        };
        if !self.owns(dir, &spec.name) {
            return Err(format!(
                "update not applied: dataset {:?} is served read-only, because another \
                 owner held {} when it was loaded (see {})",
                spec.name,
                dir.display(),
                lock_path(dir, &spec.name).display()
            ));
        }
        let path = journal_path(dir, &spec.name);
        let journal = match Journal::open_or_create(&path, &spec.name, epoch) {
            Ok(journal) => journal,
            Err(e) => {
                eprintln!(
                    "molq-server: journal {} unusable ({e}); starting a fresh one",
                    path.display()
                );
                self.inner.metrics.inc(Metric::JournalsSetAside);
                let _ = set_aside_journal(&RealVfs, &path, "stale");
                Journal::create(&path, &spec.name, epoch).map_err(|e| e.to_string())?
            }
        };
        Ok(Some(journal))
    }

    /// Brings a recovered base snapshot up to date with its journal records,
    /// following the [`Recovery`]'s disposition, and publishes it as the
    /// replacement of generation `derived_from`:
    ///
    /// * no journal / clean journal → replay everything (possibly nothing);
    /// * torn tail or salvaged prefix → replay the valid record prefix;
    ///   reopening the journal truncates the dropped tail so appends
    ///   continue from the last durable record;
    /// * set-aside (defective header, stale dataset/epoch), records next to
    ///   an approximate base, or a checksum-valid record that no longer
    ///   applies to this base → move the journal out of the way and serve
    ///   the base alone. Every update the base itself captured still
    ///   survives — a bad journal never costs the base, and never forces a
    ///   CSV rebuild.
    ///
    /// The replay runs outside any lock; the journal changes (reopen or set
    /// aside) run under the writer, once the publication has won, and only
    /// when this engine owns the dir.
    fn restore_recovered(
        &self,
        spec: &DatasetSpec,
        recovery: Recovery,
        derived_from: Option<u64>,
    ) -> Result<Opened, ReloadError> {
        let dir = spec.snapshot_dir.as_ref().expect("restore implies dir");
        let path = journal_path(dir, &spec.name);
        let Recovery {
            base,
            records,
            disposition,
            timings,
        } = recovery;
        let m = &self.inner.metrics;
        m.set(Metric::LastRestoreCopyUs, micros(timings.copy));
        m.set(Metric::LastRestoreValidateUs, micros(timings.validate));
        // Why the journal is set aside, when it is.
        let mut set_aside = None;
        match disposition {
            JournalDisposition::TornTail { dropped_bytes } => {
                m.inc(Metric::TornTails);
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
                m.inc(Metric::Salvages);
                eprintln!(
                    "molq-server: journal {} tail defective ({defect}); salvaged the \
                     {}-record prefix, dropping {dropped_bytes} byte(s)",
                    path.display(),
                    records.len()
                );
            }
            JournalDisposition::SetAside { reason } => {
                set_aside = Some(("stale", format!("unusable ({reason})")));
            }
            JournalDisposition::Missing | JournalDisposition::Clean => {}
        }

        // Replay onto a copy of the base's parts, so a record that turns out
        // not to apply can still fall back to serving the base alone. An
        // approximate base never replays: the exact patch layer cannot apply
        // to a quadtree diagram, and silently mixing the modes would change
        // what a restart serves.
        let mut replayed = None;
        if !records.is_empty() && base.build.mode.is_approx() {
            set_aside = Some((
                "modemix",
                format!(
                    "holds {} update(s) but the base snapshot was built in approximate \
                     mode (ε = {})",
                    records.len(),
                    base.build.mode.epsilon()
                ),
            ));
        } else if !records.is_empty() {
            let index = MovdIndex::from_arena(base.movd.clone(), base.grid.clone())?;
            let mut live =
                LiveMovd::from_index(base.sets.clone(), index, spec.boundary, self.exec_config())
                    .map_err(|e| e.to_string())?;
            let inferred = spec.bounds.is_none();
            let mut failed = None;
            for (i, record) in records.iter().enumerate() {
                if let Err(e) = apply_one(&mut live, inferred, &update_of(record)) {
                    failed = Some(format!("record {i} no longer applies ({e})"));
                    break;
                }
                m.inc(Metric::UpdatesReplayed);
            }
            match failed {
                // Checksum-valid but inapplicable: the journal does not
                // describe this base.
                Some(why) => set_aside = Some(("corrupt", why)),
                None => replayed = Some(live),
            }
        }

        let epoch = base.update_epoch;
        let replayed_count = if replayed.is_some() { records.len() } else { 0 };
        let snapshot = match &replayed {
            Some(live) => live_snapshot(spec, base.build, live, epoch, base.fingerprint)?,
            None => Snapshot::from_stored(spec.clone(), base)?,
        };
        let mut note = None;
        let snapshot = self.replace(snapshot, derived_from, |writer, _| {
            *writer = Writer::default();
            if !self.owns(dir, &spec.name) {
                return;
            }
            if let Some((suffix, why)) = set_aside {
                m.inc(Metric::JournalsSetAside);
                let done = match set_aside_journal(&RealVfs, &path, suffix) {
                    Ok(aside) => format!("set aside as {}", aside.display()),
                    Err(e) => format!("setting it aside failed: {e}"),
                };
                let line = format!("journal {} {why}; {done}", path.display());
                eprintln!("molq-server: {line}; serving the base snapshot alone");
                note = Some(line);
            }
            if let Some(live) = replayed {
                match self.open_journal(spec, epoch) {
                    Ok(journal) => {
                        writer.live = Some(live);
                        writer.journal = journal;
                    }
                    // The next update rehydrates from what is served.
                    Err(e) => eprintln!("molq-server: reopening journal {}: {e}", path.display()),
                }
            }
        })?;
        Ok(Opened {
            snapshot,
            replayed: replayed_count,
            set_aside: note,
        })
    }

    /// Opens dataset `name` from its snapshot dir alone, the way `molq
    /// update` edits a dataset. The engine claims the dir first (refusing
    /// with [`DirError::Busy`] while another owner holds it, before reading
    /// anything), then restores the base and its journal exactly as a
    /// server restart does, setting aside a journal it cannot use. The spec
    /// comes from the stored base: its boundary, ε, explicit bounds and
    /// build mode. An approximate base is refused before anything is
    /// written, since the patch layer that edits a dataset is exact-only.
    pub fn open_dir(&self, dir: &Path, name: &str) -> Result<Opened, DirError> {
        self.claim_dir(dir, name)?;
        let file = snapshot_path(dir, name);
        let recovery = recover(&RealVfs, dir, name)
            .map_err(|e| DirError::Failed(format!("{}: {e}", file.display())))?;
        let base = &recovery.base;
        if base.build.mode.is_approx() {
            return Err(DirError::Failed(format!(
                "{}: snapshot was built in approximate mode (ε = {}); the incremental patch \
                 layer is exact-only — rebuild without --epsilon to edit it",
                file.display(),
                base.build.mode.epsilon()
            )));
        }
        let spec = DatasetSpec {
            boundary: base.boundary,
            bounds: base.explicit_bounds,
            eps: base.eps,
            build: base.build.mode,
            snapshot_dir: Some(dir.to_path_buf()),
            ..DatasetSpec::new(name, Vec::new())
        };
        self.sweep_snapshot_dir(dir);
        let derived_from = self.get(name).map(|s| s.generation);
        self.restore_recovered(&spec, recovery, derived_from)
            .map_err(|e| DirError::Failed(e.to_string()))
    }

    /// Compacts dataset `name`: under its writer, saves the served diagram
    /// as the new base at journal epoch + 1, resets the journal to that
    /// epoch, and then serves the same diagram at the new epoch as the next
    /// generation. The new base keeps the old one's source fingerprint, so
    /// a restart on the same CSVs restores it without replay. Only the
    /// owner of the dataset's dir compacts; a failed save changes nothing.
    pub fn compact(&self, name: &str) -> Result<Arc<Snapshot>, DirError> {
        let ds = self
            .dataset(name)
            .ok_or_else(|| DirError::Failed(format!("no dataset {name:?}")))?;
        let mut writer = self.lock_writer(&ds);
        let current = self
            .get(name)
            .expect("a dataset with a writer is registered");
        let Some(dir) = current.spec.snapshot_dir.as_deref() else {
            return Err(DirError::Failed(format!(
                "dataset {name:?} has no snapshot dir to compact"
            )));
        };
        if !self.owns(dir, name) {
            let msg = format!("{}: this engine serves {name:?} read-only", dir.display());
            return Err(DirError::Busy(msg));
        }
        let epoch = current.update_epoch + 1;
        let next = Snapshot::assemble(
            current.spec.clone(),
            current.query.clone(),
            current.index.clone(),
            epoch,
            current.build_meta,
            current.fingerprint.clone(),
        );
        self.save_with_retry(&next.to_stored(), &snapshot_path(dir, name))
            .map_err(DirError::Failed)?;
        // The base now holds every journaled update (the order `molq-store`'s
        // crash matrix enumerates), so a crash before the reset is durable
        // costs nothing: a journal left at the old epoch is stale against
        // the base and is set aside, never replayed.
        let jpath = journal_path(dir, name);
        let reset = match writer.journal.as_mut() {
            Some(journal) => journal.reset(epoch),
            None => Journal::create(&jpath, name, epoch).map(drop),
        };
        if let Err(e) = reset {
            eprintln!("molq-server: resetting journal {}: {e}", jpath.display());
            *writer = Writer::default();
        }
        Ok(writer.swap(self, next))
    }
}

impl Writer {
    /// Serves `snapshot` as the dataset's next generation. Only the
    /// writer's holder can swap, so generations are unique and strictly
    /// increasing.
    fn swap(&mut self, engine: &Engine, mut snapshot: Snapshot) -> Arc<Snapshot> {
        let mut map = engine.inner.datasets.write().expect("engine lock poisoned");
        let ds = map
            .get_mut(&snapshot.spec.name)
            .expect("a dataset with a writer is registered");
        snapshot.generation = ds.served.generation + 1;
        ds.served = Arc::new(snapshot);
        Arc::clone(&ds.served)
    }

    /// One live update (see [`Engine::apply_update`]): rehydrate on
    /// demand, patch, journal, swap. The writer is held from reading the
    /// served snapshot to the swap, so the update cannot lose a race.
    fn update(
        &mut self,
        engine: &Engine,
        name: &str,
        update: &Update,
    ) -> Result<UpdateOutcome, UpdateError> {
        let metrics = &engine.inner.metrics;
        let current = engine
            .get(name)
            .expect("a dataset with a writer is registered");
        // The patch layer is exact-only: a quadtree-approximate diagram has
        // no basic diagrams to re-clip, and mixing approximate bases with an
        // exact-replay journal would silently change what a restart serves.
        if current.build_meta.mode.is_approx() {
            metrics.inc(Metric::UpdatesRejected);
            return Err(UpdateError::Rejected(format!(
                "dataset {name:?} was built in approximate mode (ε = {}); live updates \
                 require an exact build — reload without --epsilon first",
                current.build_meta.mode.epsilon()
            )));
        }
        if self.live.is_none() {
            // Rehydrate from the served index: only the per-set basic
            // diagrams are rebuilt.
            let journal = engine
                .open_journal(&current.spec, current.update_epoch)
                .map_err(UpdateError::Durability)?;
            let live = LiveMovd::from_index(
                current.query.sets.clone(),
                current.index.clone(),
                current.spec.boundary,
                engine.exec_config(),
            )
            .map_err(|e| UpdateError::Durability(e.to_string()))?;
            *self = Writer {
                live: Some(live),
                journal,
            };
        }
        let live = self.live.as_mut().expect("hydrated above");

        let inferred = current.spec.bounds.is_none();
        let (stats, full_rebuild) = match apply_one(live, inferred, update) {
            Ok(done) => done,
            Err(e) => {
                metrics.inc(Metric::UpdatesRejected);
                return Err(UpdateError::Rejected(e.to_string()));
            }
        };
        // Built before the journal append, so nothing after the append can
        // fail. The diagram has advanced: on failure, rehydrate next time.
        let next = match live_snapshot(
            &current.spec,
            current.build_meta,
            live,
            current.update_epoch,
            current.fingerprint.clone(),
        ) {
            Ok(next) => next,
            Err(e) => {
                *self = Writer::default();
                metrics.inc(Metric::UpdatesRejected);
                return Err(UpdateError::Rejected(e));
            }
        };

        // Write-ahead: the update must be durable before anyone can observe
        // its effects. On append failure the in-memory state is dropped (it
        // has already advanced) and rehydrated from the still-unchanged
        // published snapshot on the next update; the caller gets a typed
        // durability error (507) and the engine degrades until a durable
        // write succeeds again.
        if let Some(journal) = self.journal.as_mut() {
            let appended = match crate::fault::fail_point("engine.journal_append") {
                Err(msg) => Err(format!("injected append failure: {msg}")),
                Ok(()) => journal
                    .append(&record_of(update))
                    .map_err(|e| e.to_string()),
            };
            if let Err(e) = appended {
                let path = journal.path().display().to_string();
                *self = Writer::default();
                let msg = format!("update not durable: journal append to {path} failed: {e}");
                engine.note_durable_failure(Metric::AppendFailures, &msg);
                return Err(UpdateError::Durability(msg));
            }
            engine.note_durable_ok();
        }
        engine.maybe_hold("update.publish");
        let snapshot = self.swap(engine, next);

        metrics.inc(Metric::UpdatesApplied);
        if full_rebuild {
            metrics.inc(Metric::FullRebuilds);
        }
        metrics.add(Metric::PatchTimeUs, micros(stats.wall));
        metrics.set(Metric::LastPatchUs, micros(stats.wall));
        metrics.add(Metric::CellsReclipped, stats.cells_reclipped as u64);
        metrics.add(Metric::SegmentsCopiedTotal, stats.segments_copied as u64);
        metrics.set(Metric::LastSegmentsCopied, stats.segments_copied as u64);

        Ok(UpdateOutcome {
            snapshot,
            stats,
            full_rebuild,
        })
    }
}

/// An unpublished snapshot of a live diagram: the dataset's spec and build
/// metadata over the diagram's current sets, at journal epoch `epoch` of
/// the base built from `fingerprint`.
fn live_snapshot(
    spec: &DatasetSpec,
    build: BuildMeta,
    live: &LiveMovd,
    epoch: u64,
    fingerprint: SourceFingerprint,
) -> Result<Snapshot, String> {
    let query = MolqQuery::new(live.sets().to_vec(), live.bounds())
        .with_rule(StoppingRule::Either(spec.eps, 100_000));
    query.validate().map_err(|e| e.to_string())?;
    Ok(Snapshot::assemble(
        spec.clone(),
        query,
        live.index().clone(),
        epoch,
        build,
        fingerprint,
    ))
}

/// A duration in whole microseconds, saturating.
fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// The journal form of an update.
fn record_of(update: &Update) -> JournalRecord {
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

/// The update a journal record describes.
fn update_of(record: &JournalRecord) -> Update {
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
/// the patch stats and whether the full-rebuild path ran. The live path
/// and journal replay both call this, so they patch bit-for-bit
/// identically.
fn apply_one(
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
mod explore;

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

        let m = engine.metrics();
        assert_eq!(m.get(Metric::UpdatesApplied), 2);
        assert_eq!(m.get(Metric::UpdatesRejected), 0);
        assert!(m.get(Metric::PatchTimeUs) > 0);

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

        // Restart: base + journal replay reproduces the served diagram. Each
        // restart below drops the engine before it, which owns the dir.
        let journal_file = journal_path(&dir, "d");
        assert!(journal_file.exists());
        assert_eq!(load_journal(&journal_file).unwrap().records.len(), 2);
        drop(engine);
        let restarted = Engine::new();
        let (replayed, outcome) = restarted.load_traced(spec.clone()).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
        assert_eq!(replayed.index.arena(), served.index.arena());
        assert_eq!(replayed.object_count(), 22);
        assert_eq!(restarted.metrics().get(Metric::UpdatesReplayed), 2);

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
        drop(restarted);
        let salvaging = Engine::new();
        let (snap, outcome) = salvaging.load_traced(spec.clone()).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
        assert_eq!(snap.object_count(), 22); // insert + remove, not the 3rd
        assert_eq!(salvaging.metrics().get(Metric::UpdatesReplayed), 2);
        assert_eq!(salvaging.metrics().get(Metric::Salvages), 1);
        assert!(!salvaging.durability().degraded);
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
        drop(salvaging);
        let aside_engine = Engine::new();
        let (snap, outcome) = aside_engine.load_traced(spec.clone()).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
        assert_eq!(snap.object_count(), 22); // the base alone
        assert!(!journal_file.exists());
        assert!(journal_file.with_extension("journal.stale").exists());
        assert_eq!(aside_engine.metrics().get(Metric::JournalsSetAside), 1);
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
        assert_eq!(engine.metrics().get(Metric::UpdatesRejected), 1);

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
        assert_eq!(engine.metrics().get(Metric::FullRebuilds), 1);

        // Missing dataset errors.
        assert!(engine.apply_update("nope", &inside).is_err());
    }

    /// A base compacted by a second engine that opens the dir alone (what
    /// `molq update compact` does: the journal folded into a new base at
    /// epoch + 1, the journal reset to that epoch) restores without replay,
    /// and later updates journal at its epoch.
    #[test]
    fn a_compacted_base_restores_and_journals_at_its_epoch() {
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

        // Compact as the CLI does, once the serving engine has let go of
        // the dir: the base keeps its stored fingerprint and takes the
        // served diagram at epoch 1.
        let served = engine.get("d").unwrap();
        drop(engine);
        let owner = Engine::new();
        let opened = owner.open_dir(&dir, "d").unwrap();
        assert_eq!(opened.replayed, 3);
        let compacted = owner.compact("d").unwrap();
        assert_eq!(compacted.update_epoch, 1);
        assert_eq!(compacted.generation, opened.snapshot.generation + 1);
        let load = load_journal(&journal_file).unwrap();
        assert_eq!((load.epoch, load.records.len()), (1, 0));
        drop(owner);

        // Restart: the compacted base restores directly, nothing to replay.
        let restarted = Engine::new();
        let (snap, outcome) = restarted.load_traced(spec.clone()).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
        assert_eq!(snap.update_epoch, 1);
        assert_eq!(snap.index.arena(), served.index.arena());
        assert_eq!(restarted.metrics().get(Metric::UpdatesReplayed), 0);

        // Post-compaction updates journal at the new epoch and replay again.
        restarted
            .apply_update("d", &Update::Remove { set: 1, index: 0 })
            .unwrap();
        assert_eq!(load_journal(&journal_file).unwrap().epoch, 1);
        let served = restarted.get("d").unwrap();
        drop(restarted);
        let again = Engine::new();
        let (snap, outcome) = again.load_traced(spec).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
        assert_eq!(again.metrics().get(Metric::UpdatesReplayed), 1);
        assert_eq!(snap.index.arena(), served.index.arena());
    }

    /// While one engine owns a dataset's dir, a second one serves what it
    /// restores or builds but writes nothing: its updates fail typed and
    /// name the dir, `open_dir` and `compact` refuse, and the base and
    /// journal stay byte-identical. Once the owner is dropped, the dir is
    /// free again.
    #[test]
    fn a_second_owner_serves_but_never_writes() {
        let (dir, paths) = csv_fixture("second_owner", &[("a", 12, 101), ("b", 10, 102)]);
        let spec = DatasetSpec {
            bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
            snapshot_dir: Some(dir.clone()),
            ..DatasetSpec::new("d", paths.clone())
        };
        let insert = |x: f64| Update::Insert {
            set: 0,
            object: SpatialObject {
                loc: Point::new(x, 47.5),
                w_t: 1.0,
                w_o: 1.0,
            },
        };
        let owner = Engine::new();
        owner.load(spec.clone()).unwrap();
        owner.apply_update("d", &insert(31.25)).unwrap();
        let files = [spec.snapshot_file().unwrap(), journal_path(&dir, "d")];
        let read = || {
            files
                .iter()
                .map(|f| std::fs::read(f).unwrap())
                .collect::<Vec<_>>()
        };
        let before = read();
        let names_dir = |msg: &str| msg.contains(&dir.display().to_string());

        let second = Engine::new();
        let (snap, outcome) = second.load_traced(spec.clone()).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
        assert_eq!(snap.object_count(), owner.get("d").unwrap().object_count());
        match second.apply_update("d", &insert(62.75)) {
            Err(UpdateError::Durability(msg)) => assert!(names_dir(&msg), "{msg}"),
            other => panic!("expected a durability refusal, got {other:?}"),
        }
        match second.compact("d") {
            Err(DirError::Busy(msg)) => assert!(names_dir(&msg), "{msg}"),
            other => panic!("expected Busy, got {other:?}"),
        }
        match Engine::new().open_dir(&dir, "d") {
            Err(DirError::Busy(msg)) => assert!(names_dir(&msg), "{msg}"),
            other => panic!("expected Busy, got {other:?}"),
        }
        // Edited CSVs: the second engine rebuilds and serves them, but
        // persists nothing.
        let mut f = File::create(&paths[0]).unwrap();
        molq_datagen::csv::write_csv(&pseudo_set("a", 13, 103), &mut f).unwrap();
        drop(f);
        let rebuilt = second.reload("d", None).unwrap();
        assert_eq!(rebuilt.object_count(), 23);
        assert_eq!(read(), before, "a second owner changed the dataset's files");

        // The owner keeps writing; once it is dropped, the dir is free.
        owner.apply_update("d", &insert(62.75)).unwrap();
        drop(owner);
        let opened = Engine::new().open_dir(&dir, "d").unwrap();
        assert_eq!((opened.replayed, opened.snapshot.object_count()), (2, 24));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_update_to_an_unknown_dataset_leaves_no_state_behind() {
        let engine = Engine::new();
        let insert = Update::Insert {
            set: 0,
            object: SpatialObject {
                loc: Point::new(10.0, 20.0),
                w_t: 1.0,
                w_o: 1.0,
            },
        };
        match engine.apply_update("ghost", &insert) {
            Err(UpdateError::NotFound(msg)) => assert!(msg.contains("ghost"), "{msg}"),
            other => panic!("expected NotFound, got {other:?}"),
        }
        assert!(engine.inner.datasets.read().unwrap().is_empty());
        assert!(engine.names().is_empty());
        assert!(engine.builds_in_flight().is_empty());
        assert!(engine.breaker_reports().is_empty());
        // A later first load of the name starts its history afresh.
        let sets = vec![pseudo_set("a", 8, 91), pseudo_set("b", 8, 92)];
        assert_eq!(
            engine
                .load_from_sets(spec("ghost"), sets)
                .unwrap()
                .generation,
            1
        );
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
        let (reached_tx, reached_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        engine.hold_once("build.start", reached_tx, release_rx);

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
        reached_rx.recv().unwrap();
        assert_eq!(engine.get("bg").unwrap().generation, 1);
        assert_eq!(engine.builds_in_flight(), vec![("bg".to_string(), 2)]);

        // A second request joins the in-flight build instead of stacking.
        let again = engine.reload_background("bg", None).unwrap();
        assert_eq!(again.target_generation, 2);
        assert!(again.already_building);

        // Released, the build completes and publishes its target generation.
        release_tx.send(()).unwrap();
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
        // Holds a build at its start until released.
        let hold_build = |engine: &Engine| {
            let (reached_tx, reached_rx) = std::sync::mpsc::channel();
            let (release_tx, release_rx) = std::sync::mpsc::channel();
            engine.hold_once("build.start", reached_tx, release_rx);
            (reached_rx, release_tx)
        };

        // 1. A reload starts from generation 1; an update publishes while
        //    it builds. The reload loses, typed, and is not a build failure.
        let (reached, release) = hold_build(&engine);
        let racer = engine.clone();
        let reload = std::thread::spawn(move || racer.reload("race", None));
        reached.recv().unwrap();
        let update = engine.apply_update("race", &insert(50.25)).unwrap();
        objects += 1;
        generations.push(update.snapshot.generation);
        release.send(()).unwrap();
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
        let (reached, release) = hold_build(&engine);
        let ticket = engine.reload_background("race", None).unwrap();
        assert_eq!(ticket.target_generation, served.generation + 1);
        reached.recv().unwrap();
        let blocking = engine.reload("race", None);
        release.send(()).unwrap();
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

    /// A reload that publishes between a live update's journal append and
    /// its publication must not turn the update into a failure: every
    /// journaled record is an acknowledged update, and a restart serves
    /// exactly the acknowledged objects.
    #[test]
    fn a_journaled_update_is_never_lost_to_a_racing_reload() {
        let (dir, paths) = csv_fixture("journal_race", &[("a", 20, 61), ("b", 20, 62)]);
        let snap_dir = dir.join("snap");
        let spec = DatasetSpec {
            paths,
            snapshot_dir: Some(snap_dir.clone()),
            ..spec("d")
        };
        let engine = Engine::new();
        let base = engine.load(spec.clone()).unwrap().object_count();

        let (reached_tx, reached_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        engine.hold_once("update.publish", reached_tx, release_rx);
        let updater = engine.clone();
        let update = std::thread::spawn(move || {
            let insert = Update::Insert {
                set: 0,
                object: SpatialObject {
                    loc: Point::new(50.25, 50.5),
                    w_t: 1.0,
                    w_o: 1.0,
                },
            };
            updater.apply_update("d", &insert)
        });
        // The record is durable and the publication pending: race a reload
        // (which restores base + journal) against it, up to the point where
        // the reload would publish.
        reached_rx.recv().unwrap();
        let reloader = engine.clone();
        let reload = std::thread::spawn(move || reloader.reload("d", None));
        engine.wait_for_writer_waiters();
        release_tx.send(()).unwrap();
        let acked = usize::from(update.join().unwrap().is_ok());
        match reload.join().unwrap() {
            Ok(_) | Err(ReloadError::Conflict(_)) => {}
            Err(e) => panic!("unexpected reload error: {e}"),
        }

        let journaled = load_journal(&journal_path(&snap_dir, "d"))
            .unwrap()
            .records
            .len();
        assert_eq!(journaled, acked, "journal holds an unacknowledged update");
        let served = engine.get("d").unwrap().object_count();
        assert_eq!(served, base + acked);
        let restarted = Engine::new();
        let (snap, outcome) = restarted.load_traced(spec).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
        assert_eq!(snap.object_count(), served, "restart serves another count");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A live update that lands right after a CSV rebuild is served must
    /// not be journaled against the replaced base: the rebuild's save
    /// drops that journal, which would lose the update (and every later
    /// one) on restart.
    #[test]
    fn an_update_after_a_csv_rebuild_survives_its_persist() {
        let (dir, paths) = csv_fixture("persist_race", &[("a", 20, 71), ("b", 20, 72)]);
        let snap_dir = dir.join("snap");
        let spec = DatasetSpec {
            paths: paths.clone(),
            snapshot_dir: Some(snap_dir.clone()),
            ..spec("d")
        };
        let engine = Engine::new();
        engine.load(spec.clone()).unwrap();
        // New CSV contents, so the reload rebuilds and persists.
        let mut f = File::create(&paths[0]).unwrap();
        molq_datagen::csv::write_csv(&pseudo_set("a", 21, 73), &mut f).unwrap();
        drop(f);
        let insert = |x: f64| Update::Insert {
            set: 0,
            object: SpatialObject {
                loc: Point::new(x, 50.5),
                w_t: 1.0,
                w_o: 1.0,
            },
        };

        let (reached_tx, reached_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        engine.hold_once("publish.persist", reached_tx, release_rx);
        let reloader = engine.clone();
        let reload = std::thread::spawn(move || reloader.reload("d", None));
        // The rebuild has won and its base is not yet saved, so it is not
        // served yet: race an update against the save, up to the point
        // where the update would start.
        reached_rx.recv().unwrap();
        let served_while_held = engine.get("d").unwrap().generation;
        let updater = engine.clone();
        let update = std::thread::spawn(move || updater.apply_update("d", &insert(50.25)));
        engine.wait_for_writer_waiters();
        release_tx.send(()).unwrap();
        reload.join().unwrap().unwrap();
        update.join().unwrap().unwrap();
        engine.apply_update("d", &insert(50.75)).unwrap();
        assert_eq!(
            served_while_held, 1,
            "the rebuild was served before its save"
        );

        let served = engine.get("d").unwrap().object_count();
        assert_eq!(served, 21 + 20 + 2);
        let restarted = Engine::new();
        let (snap, outcome) = restarted.load_traced(spec).unwrap();
        assert_eq!(outcome, LoadOutcome::LoadedFromSnapshot);
        assert_eq!(snap.object_count(), served, "a restart lost updates");
        let _ = std::fs::remove_dir_all(&dir);
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
        assert_eq!(engine.metrics().get(Metric::UpdatesRejected), 1);

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
        assert_eq!(restarted.metrics().get(Metric::UpdatesReplayed), 0);
        assert_eq!(restarted.metrics().get(Metric::JournalsSetAside), 1);
        assert!(!jpath.exists(), "journal should have been set aside");
        assert_eq!(snap.object_count(), 38);
    }
}
