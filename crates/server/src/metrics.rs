//! The metrics registry: every server counter, gauge and per-route latency
//! histogram, in one lock-free table.
//!
//! Each scalar metric is declared exactly once, below, with the `/stats`
//! section and key it renders as; declaration order is render order. The
//! values live in one fixed array of relaxed atomics indexed by [`Metric`],
//! so recording a value is one atomic operation — the request path never
//! takes a lock, hashes, or looks up a string. A counter is bumped with
//! `Registry::add`, a gauge is overwritten with `Registry::set`; only this
//! crate records, everyone reads.
//!
//! Per-route latency histograms live in the same registry, keyed by
//! [`Route`]. They are log₂-bucketed: bucket 0 holds 0 µs and bucket *i* ≥ 1
//! holds `[2^(i-1), 2^i)` µs. Quantiles are reconstructed on `/stats` reads
//! as the upper edge of the holding bucket; with power-of-two buckets they
//! are accurate to within a factor of two, which is what a serving
//! dashboard needs.
//!
//! `/stats` renders each scalar section by walking its declarations
//! (`Registry::render_section`). Derived values — `mean_us`, `p50_us`,
//! `p99_us` and the batch `amortized_items` — are computed at render time.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Declares [`Metric`] and its `/stats` placement from one table.
macro_rules! declare_metrics {
    ($($section:literal { $($(#[$doc:meta])* $name:ident = $key:literal,)* })*) => {
        /// A scalar metric: a counter or a gauge, rendered on `/stats` under
        /// its section and key.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Metric {
            $($($(#[$doc])* $name,)*)*
        }

        impl Metric {
            /// Every metric, in render order.
            pub const ALL: &'static [Metric] = &[$($(Metric::$name,)*)*];

            /// The `/stats` section and key this metric renders as.
            pub const fn path(self) -> (&'static str, &'static str) {
                match self {
                    $($(Metric::$name => ($section, $key),)*)*
                }
            }
        }
    };
}

declare_metrics! {
    "cache" {
        /// `/locate` answers served from the cache.
        CacheHits = "hits",
        /// `/locate` answers computed and then cached.
        CacheMisses = "misses",
    }
    "resilience" {
        /// Handler panics caught by the request-level `catch_unwind` (each
        /// one answered `500` instead of killing an event loop).
        PanicsCaught = "panics_caught",
        /// Event loops that died anyway and were respawned by the
        /// acceptor's supervisor.
        WorkersRespawned = "workers_respawned",
        /// Requests shed because they had already waited behind their event
        /// loop past the request deadline (answered `503` + `Retry-After`).
        QueueShed = "queue_shed",
        /// Requests whose evaluation was cancelled at the deadline
        /// (answered `504` with partial-progress stats).
        DeadlineTimeouts = "deadline_timeouts",
    }
    "scan" {
        /// Completed group scans behind `locate`, `solve` and `topk`.
        Scans = "scans",
        /// Groups walked across all scans.
        GroupsEvaluated = "groups_evaluated",
        /// Groups the cost bound discarded (prefilter + prune).
        GroupsPruned = "groups_pruned",
        /// Total scan wall time, µs.
        ScanTimeUs = "scan_time_us",
        /// Gauge: groups the most recent scan walked.
        LastGroupsEvaluated = "last_groups_evaluated",
        /// Gauge: groups the most recent scan discarded.
        LastGroupsPruned = "last_groups_pruned",
        /// Gauge: wall time of the most recent scan, µs.
        LastScanUs = "last_scan_us",
        /// Fermat–Weber iterations across all scans, the exact small-group
        /// solvers' included.
        ScanIterations = "iterations",
    }
    "updates" {
        /// Live updates applied.
        UpdatesApplied = "applied",
        /// Live updates rejected by validation (duplicate coordinates, bad
        /// indices, emptying a set, approximate datasets, injected faults).
        UpdatesRejected = "rejected",
        /// Journal records replayed during snapshot restores.
        UpdatesReplayed = "replayed",
        /// Updates that rebuilt the diagram because inferred bounds moved.
        FullRebuilds = "full_rebuilds",
        /// Basic-diagram cells re-clipped across all patches.
        CellsReclipped = "cells_reclipped",
        /// Total patch wall time, µs.
        PatchTimeUs = "patch_time_us",
        /// Gauge: wall time of the most recent patch, µs.
        LastPatchUs = "last_patch_us",
    }
    "arena_stats" {
        /// Gauge: bulk lane-copy share of the most recent restore's
        /// decode, µs.
        LastRestoreCopyUs = "last_restore_copy_us",
        /// Gauge: structural-validation share of the most recent restore's
        /// decode, µs.
        LastRestoreValidateUs = "last_restore_validate_us",
        /// Contiguous arena segments copied across all live-update patches.
        SegmentsCopiedTotal = "segments_copied_total",
        /// Gauge: segments the most recent patch copied.
        LastSegmentsCopied = "last_segments_copied",
    }
    "durability" {
        /// Write-ahead journal appends that failed (each failed its update
        /// with `507`).
        AppendFailures = "append_failures",
        /// Snapshot-save attempts retried after a transient failure.
        SaveRetries = "save_retries",
        /// Snapshot saves that failed even after retries.
        SaveFailures = "save_failures",
        /// Journals whose defective tail was salvaged on restore.
        Salvages = "salvages",
        /// Journals that ended in a torn (partial) record on restore.
        TornTails = "torn_tails",
        /// Journals set aside as untrusted.
        JournalsSetAside = "journals_set_aside",
        /// Orphaned atomic-write temp files removed by the sweeps.
        TmpSwept = "tmp_swept",
    }
    "transport" {
        /// Connections accepted since start.
        Accepted = "accepted",
        /// Gauge: currently open connections.
        OpenConnections = "open_connections",
        /// Reads that returned `WouldBlock` mid-message.
        ReadStalls = "read_stalls",
        /// Writes that returned `WouldBlock` mid-response.
        WriteStalls = "write_stalls",
        /// Connections answered `503` because `max_connections` were open.
        OverloadShed = "overload_shed",
    }
    "batch" {
        /// Completed batch requests.
        Batches = "batches",
        /// Query items across all batches.
        BatchItems = "items",
        /// Distinct evaluations actually performed across all batches.
        BatchScans = "scans",
        /// Derived, never recorded: `items - scans`, the evaluations that
        /// batching saved.
        AmortizedItems = "amortized_items",
        /// Gauge: items in the most recent batch.
        LastBatchItems = "last_items",
        /// Gauge: evaluations the most recent batch performed.
        LastBatchScans = "last_scans",
        /// Gauge: wall time of the most recent batch, µs.
        LastBatchUs = "last_batch_us",
    }
}

/// A request route: the key of one latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `/locate`.
    Locate,
    /// `/solve`.
    Solve,
    /// `/solve_batch`.
    SolveBatch,
    /// `/topk`.
    Topk,
    /// `/topk_batch`.
    TopkBatch,
    /// `/health`.
    Health,
    /// `/stats`.
    Stats,
    /// `/reload`.
    Reload,
    /// `/datasets/:name/objects[/:id]` (live insert/delete).
    Update,
    /// Anything unrouted.
    Other,
}

impl Route {
    /// Every route, in render order.
    pub const ALL: [Route; 10] = [
        Route::Locate,
        Route::Solve,
        Route::SolveBatch,
        Route::Topk,
        Route::TopkBatch,
        Route::Health,
        Route::Stats,
        Route::Reload,
        Route::Update,
        Route::Other,
    ];

    /// The route serving a request path.
    pub fn of(path: &str) -> Route {
        match path {
            "/locate" => Route::Locate,
            "/solve" => Route::Solve,
            "/solve_batch" => Route::SolveBatch,
            "/topk" => Route::Topk,
            "/topk_batch" => Route::TopkBatch,
            "/health" => Route::Health,
            "/stats" => Route::Stats,
            "/reload" => Route::Reload,
            p if p.starts_with("/datasets/") => Route::Update,
            _ => Route::Other,
        }
    }

    /// The route's key under `/stats` `endpoints`.
    pub fn name(self) -> &'static str {
        match self {
            Route::Locate => "locate",
            Route::Solve => "solve",
            Route::SolveBatch => "solve_batch",
            Route::Topk => "topk",
            Route::TopkBatch => "topk_batch",
            Route::Health => "health",
            Route::Stats => "stats",
            Route::Reload => "reload",
            Route::Update => "update",
            Route::Other => "other",
        }
    }
}

/// Histogram buckets: 0 µs, then log₂ microseconds up to ≥ 2³⁰ µs (~18 min).
const BUCKETS: usize = 32;

/// One route's latency histogram; its request count is the bucket sum.
#[derive(Debug, Default)]
struct Histogram {
    errors: AtomicU64,
    total_micros: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// Every metric the server keeps. See the module docs.
#[derive(Debug)]
pub struct Registry {
    values: [AtomicU64; Metric::ALL.len()],
    routes: [Histogram; Route::ALL.len()],
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            values: std::array::from_fn(|_| AtomicU64::new(0)),
            routes: Default::default(),
        }
    }
}

impl Registry {
    /// Adds `v` to a counter.
    pub(crate) fn add(&self, m: Metric, v: u64) {
        self.values[m as usize].fetch_add(v, Ordering::Relaxed);
    }

    /// Adds one to a counter.
    pub(crate) fn inc(&self, m: Metric) {
        self.add(m, 1);
    }

    /// Subtracts `v` from an up-down gauge.
    pub(crate) fn sub(&self, m: Metric, v: u64) {
        self.values[m as usize].fetch_sub(v, Ordering::Relaxed);
    }

    /// Overwrites a last-value gauge.
    pub(crate) fn set(&self, m: Metric, v: u64) {
        self.values[m as usize].store(v, Ordering::Relaxed);
    }

    /// A metric's current value.
    pub fn get(&self, m: Metric) -> u64 {
        let load = |m: Metric| self.values[m as usize].load(Ordering::Relaxed);
        match m {
            Metric::AmortizedItems => {
                load(Metric::BatchItems).saturating_sub(load(Metric::BatchScans))
            }
            m => load(m),
        }
    }

    /// Records one request's latency and outcome under its route.
    pub(crate) fn record_request(&self, route: Route, micros: u64, is_error: bool) {
        let h = &self.routes[route as usize];
        if is_error {
            h.errors.fetch_add(1, Ordering::Relaxed);
        }
        h.total_micros.fetch_add(micros, Ordering::Relaxed);
        let bucket = (64 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        h.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn bucket_counts(&self, route: Route) -> [u64; BUCKETS] {
        let h = &self.routes[route as usize];
        std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed))
    }

    /// Requests recorded under `route`.
    pub fn requests(&self, route: Route) -> u64 {
        self.bucket_counts(route).iter().sum()
    }

    /// Requests under `route` that answered with an error status.
    pub fn errors(&self, route: Route) -> u64 {
        self.routes[route as usize].errors.load(Ordering::Relaxed)
    }

    /// Mean latency of `route` in microseconds (0 before any request).
    pub fn mean_micros(&self, route: Route) -> f64 {
        let n = self.requests(route);
        if n == 0 {
            return 0.0;
        }
        self.routes[route as usize]
            .total_micros
            .load(Ordering::Relaxed) as f64
            / n as f64
    }

    /// Approximate latency quantile (`q` in `[0, 1]`) of `route` in
    /// microseconds: the upper edge of the bucket holding rank `q`.
    pub fn quantile_micros(&self, route: Route, q: f64) -> u64 {
        let counts = self.bucket_counts(route);
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        1u64 << (BUCKETS - 1)
    }

    /// Appends every metric declared under `section`, in declaration order,
    /// to the object `into`.
    pub(crate) fn render_section(&self, section: &str, into: Json) -> Json {
        Metric::ALL
            .iter()
            .filter(|m| m.path().0 == section)
            .fold(into, |obj, &m| obj.set(m.path().1, self.get(m)))
    }

    /// The `/stats` `endpoints` object: one latency summary per route.
    pub(crate) fn render_endpoints(&self) -> Json {
        Route::ALL.iter().fold(Json::obj(), |obj, &r| {
            obj.set(
                r.name(),
                Json::obj()
                    .set("requests", self.requests(r))
                    .set("errors", self.errors(r))
                    .set("mean_us", self.mean_micros(r))
                    .set("p50_us", self.quantile_micros(r, 0.5))
                    .set("p99_us", self.quantile_micros(r, 0.99)),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_counts_and_errors() {
        let m = Registry::default();
        m.record_request(Route::Solve, 10, false);
        m.record_request(Route::Solve, 20, true);
        m.record_request(Route::Solve, 30, false);
        assert_eq!(m.requests(Route::Solve), 3);
        assert_eq!(m.errors(Route::Solve), 1);
        assert_eq!(m.mean_micros(Route::Solve), 20.0);
        assert_eq!(m.requests(Route::Topk), 0);
    }

    #[test]
    fn quantiles_bracket_the_samples() {
        let m = Registry::default();
        for _ in 0..99 {
            m.record_request(Route::Locate, 100, false); // bucket [64, 128)
        }
        m.record_request(Route::Locate, 100_000, false); // one slow outlier
        let p50 = m.quantile_micros(Route::Locate, 0.5);
        assert!((64..=128).contains(&p50), "p50 = {p50}");
        let p99 = m.quantile_micros(Route::Locate, 0.99);
        assert!(p99 <= 128, "p99 = {p99}");
        let p100 = m.quantile_micros(Route::Locate, 1.0);
        assert!(p100 >= 65_536, "p100 = {p100}");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let m = Registry::default();
        assert_eq!(m.quantile_micros(Route::Locate, 0.5), 0);
        assert_eq!(m.mean_micros(Route::Locate), 0.0);
    }

    #[test]
    fn zero_latency_lands_in_bucket_zero() {
        let m = Registry::default();
        m.record_request(Route::Health, 0, false);
        assert_eq!(m.quantile_micros(Route::Health, 1.0), 0);
        // 1 µs is bucket 1, whose upper edge is 2 µs.
        m.record_request(Route::Stats, 1, false);
        assert_eq!(m.quantile_micros(Route::Stats, 1.0), 2);
    }

    #[test]
    fn resilience_counters_bump_independently() {
        let m = Registry::default();
        m.inc(Metric::PanicsCaught);
        m.inc(Metric::PanicsCaught);
        m.inc(Metric::QueueShed);
        assert_eq!(m.get(Metric::PanicsCaught), 2);
        assert_eq!(m.get(Metric::QueueShed), 1);
        assert_eq!(m.get(Metric::WorkersRespawned), 0);
        assert_eq!(m.get(Metric::DeadlineTimeouts), 0);
        let rendered = m.render_section("resilience", Json::obj());
        assert_eq!(
            rendered.encode(),
            r#"{"panics_caught":2,"workers_respawned":0,"queue_shed":1,"deadline_timeouts":0}"#
        );
    }

    #[test]
    fn scan_metrics_accumulate_totals_and_track_last() {
        let m = Registry::default();
        for (evaluated, micros) in [(100, 2_000), (60, 500)] {
            m.add(Metric::GroupsEvaluated, evaluated);
            m.add(Metric::ScanTimeUs, micros);
            m.set(Metric::LastGroupsEvaluated, evaluated);
            m.set(Metric::LastScanUs, micros);
        }
        assert_eq!(m.get(Metric::GroupsEvaluated), 160);
        assert_eq!(m.get(Metric::ScanTimeUs), 2_500);
        assert_eq!(m.get(Metric::LastGroupsEvaluated), 60);
        assert_eq!(m.get(Metric::LastScanUs), 500);
        // An up-down gauge returns to zero.
        m.add(Metric::OpenConnections, 3);
        m.sub(Metric::OpenConnections, 3);
        assert_eq!(m.get(Metric::OpenConnections), 0);
    }

    #[test]
    fn registry_enumerates_all_routes() {
        let names: Vec<&str> = Route::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            [
                "locate",
                "solve",
                "solve_batch",
                "topk",
                "topk_batch",
                "health",
                "stats",
                "reload",
                "update",
                "other"
            ]
        );
        for r in Route::ALL {
            let path = match r {
                Route::Update => "/datasets/d/objects/3".to_string(),
                Route::Other => "/nope".to_string(),
                r => format!("/{}", r.name()),
            };
            assert_eq!(Route::of(&path), r, "{path}");
        }
        let m = Registry::default();
        m.record_request(Route::Locate, 5, false);
        let endpoints = m.render_endpoints();
        let locate = endpoints.get("locate").unwrap();
        assert_eq!(locate.get("requests").unwrap().as_u64(), Some(1));
        assert_eq!(
            endpoints
                .get("other")
                .unwrap()
                .get("requests")
                .unwrap()
                .as_u64(),
            Some(0)
        );
    }

    #[test]
    fn batch_metrics_track_amortization() {
        let m = Registry::default();
        for (items, scans) in [(8, 3), (4, 4)] {
            m.inc(Metric::Batches);
            m.add(Metric::BatchItems, items);
            m.add(Metric::BatchScans, scans);
        }
        assert_eq!(m.get(Metric::Batches), 2);
        assert_eq!(m.get(Metric::AmortizedItems), 5);
        let batch = m.render_section("batch", Json::obj());
        assert_eq!(batch.get("items").unwrap().as_u64(), Some(12));
        assert_eq!(batch.get("scans").unwrap().as_u64(), Some(7));
        assert_eq!(batch.get("amortized_items").unwrap().as_u64(), Some(5));
    }

    #[test]
    fn every_declared_path_is_unique() {
        for (i, a) in Metric::ALL.iter().enumerate() {
            assert_eq!(*a as usize, i, "{a:?} is out of declaration order");
            for b in &Metric::ALL[i + 1..] {
                assert_ne!(a.path(), b.path(), "{a:?} and {b:?} share a /stats key");
            }
        }
    }
}
