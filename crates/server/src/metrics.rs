//! Lock-free serving metrics: per-endpoint counters and latency histograms.
//!
//! Every request bumps a request/error counter and adds its latency to a
//! log₂-bucketed histogram (bucket *i* covers `[2^i, 2^(i+1))` µs), all
//! plain relaxed atomics — the hot path never takes a lock. Quantiles are
//! reconstructed from the histogram on `/stats` reads; with power-of-two
//! buckets they are accurate to within a factor of two, which is what a
//! serving dashboard needs.

use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram buckets: log₂ microseconds, 0 µs .. ≥ 2³¹ µs (~36 min).
const BUCKETS: usize = 32;

/// Counters for one endpoint.
#[derive(Debug, Default)]
pub struct EndpointMetrics {
    requests: AtomicU64,
    errors: AtomicU64,
    total_micros: AtomicU64,
    histogram: [AtomicU64; BUCKETS],
}

impl EndpointMetrics {
    /// Records one request's latency and outcome.
    pub fn record(&self, micros: u64, is_error: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if is_error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        let bucket = (64 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        self.histogram[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests recorded.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests that answered with an error status.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds.
    pub fn mean_micros(&self) -> f64 {
        let n = self.requests();
        if n == 0 {
            return 0.0;
        }
        self.total_micros.load(Ordering::Relaxed) as f64 / n as f64
    }

    /// Approximate latency quantile (`q` in `[0, 1]`) in microseconds,
    /// reconstructed from the histogram (upper edge of the holding bucket).
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .histogram
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bucket i holds latencies in [2^(i-1), 2^i) µs (bucket 0: 0).
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        1u64 << (BUCKETS - 1)
    }
}

/// Resilience counters: the events the serving stack survives rather than
/// serves. All relaxed atomics, exported on `/stats` under `"resilience"`.
#[derive(Debug, Default)]
pub struct ResilienceMetrics {
    /// Handler panics caught by the request-level `catch_unwind` (each one
    /// answered `500` instead of killing an event loop).
    pub panics_caught: AtomicU64,
    /// Event loops that died anyway and were respawned by the acceptor's
    /// supervisor.
    pub workers_respawned: AtomicU64,
    /// Requests shed at dispatch because they had already waited behind
    /// their event loop past the request deadline (answered `503` +
    /// `Retry-After`).
    pub queue_shed: AtomicU64,
    /// Requests whose evaluation was cancelled at the deadline (answered
    /// `504` with partial-progress stats).
    pub deadline_timeouts: AtomicU64,
}

impl ResilienceMetrics {
    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// Scan-layer telemetry: what the parallel group scans behind `locate`,
/// `solve`, and `topk` actually did. Totals accumulate over the process
/// lifetime; the `last_*` gauges hold the most recent scan so a dashboard
/// (or the load generator) can see per-request magnitudes without deltas.
/// All relaxed atomics, exported on `/stats` under `"scan"`.
#[derive(Debug, Default)]
pub struct ScanMetrics {
    scans: AtomicU64,
    groups_evaluated: AtomicU64,
    groups_pruned: AtomicU64,
    scan_micros: AtomicU64,
    last_groups_evaluated: AtomicU64,
    last_groups_pruned: AtomicU64,
    last_scan_micros: AtomicU64,
}

impl ScanMetrics {
    /// Records one completed scan: how many groups it walked, how many the
    /// cost bound discarded (prefilter + prune), and its wall time.
    pub fn record(&self, evaluated: u64, pruned: u64, micros: u64) {
        self.scans.fetch_add(1, Ordering::Relaxed);
        self.groups_evaluated
            .fetch_add(evaluated, Ordering::Relaxed);
        self.groups_pruned.fetch_add(pruned, Ordering::Relaxed);
        self.scan_micros.fetch_add(micros, Ordering::Relaxed);
        self.last_groups_evaluated
            .store(evaluated, Ordering::Relaxed);
        self.last_groups_pruned.store(pruned, Ordering::Relaxed);
        self.last_scan_micros.store(micros, Ordering::Relaxed);
    }

    /// Completed scans.
    pub fn scans(&self) -> u64 {
        self.scans.load(Ordering::Relaxed)
    }

    /// Groups walked across all scans.
    pub fn groups_evaluated(&self) -> u64 {
        self.groups_evaluated.load(Ordering::Relaxed)
    }

    /// Groups the cost bound discarded across all scans.
    pub fn groups_pruned(&self) -> u64 {
        self.groups_pruned.load(Ordering::Relaxed)
    }

    /// Total scan wall time in microseconds.
    pub fn scan_micros(&self) -> u64 {
        self.scan_micros.load(Ordering::Relaxed)
    }

    /// `(groups evaluated, groups pruned, wall µs)` of the most recent scan.
    pub fn last(&self) -> (u64, u64, u64) {
        (
            self.last_groups_evaluated.load(Ordering::Relaxed),
            self.last_groups_pruned.load(Ordering::Relaxed),
            self.last_scan_micros.load(Ordering::Relaxed),
        )
    }
}

/// Transport-layer telemetry: what the socket layer is doing, independent
/// of which requests it carries. Exported on `/stats` under `"transport"`.
/// A stall is a parse or flush that had to wait for the socket to become
/// ready again.
#[derive(Debug, Default)]
pub struct TransportMetrics {
    /// Connections accepted since start.
    pub accepted: AtomicU64,
    /// Currently open connections (gauge).
    pub open_connections: AtomicU64,
    /// Reads that returned `WouldBlock` mid-message.
    pub read_stalls: AtomicU64,
    /// Writes that returned `WouldBlock` mid-response.
    pub write_stalls: AtomicU64,
    /// Connections answered `503 server overloaded` because
    /// `max_connections` were already open.
    pub overload_shed: AtomicU64,
}

/// Batch-endpoint telemetry: how much work batching actually amortized.
/// A batch of `items` queries that resolved to `scans` distinct snapshot
/// sweeps amortized `items - scans` evaluations. Exported on `/stats`
/// under `"batch"`.
#[derive(Debug, Default)]
pub struct BatchMetrics {
    batches: AtomicU64,
    items: AtomicU64,
    scans: AtomicU64,
    last_items: AtomicU64,
    last_scans: AtomicU64,
    last_batch_micros: AtomicU64,
}

impl BatchMetrics {
    /// Records one completed batch request.
    pub fn record(&self, items: u64, scans: u64, micros: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
        self.scans.fetch_add(scans, Ordering::Relaxed);
        self.last_items.store(items, Ordering::Relaxed);
        self.last_scans.store(scans, Ordering::Relaxed);
        self.last_batch_micros.store(micros, Ordering::Relaxed);
    }

    /// Completed batch requests.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Query items across all batches.
    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }

    /// Distinct evaluations actually performed across all batches.
    pub fn scans(&self) -> u64 {
        self.scans.load(Ordering::Relaxed)
    }

    /// Items answered from another item's evaluation (the amortized work).
    pub fn amortized_items(&self) -> u64 {
        self.items().saturating_sub(self.scans())
    }

    /// `(items, scans, wall µs)` of the most recent batch.
    pub fn last(&self) -> (u64, u64, u64) {
        (
            self.last_items.load(Ordering::Relaxed),
            self.last_scans.load(Ordering::Relaxed),
            self.last_batch_micros.load(Ordering::Relaxed),
        )
    }
}

/// The server's metrics registry, one [`EndpointMetrics`] per route.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `/locate`.
    pub locate: EndpointMetrics,
    /// `/solve`.
    pub solve: EndpointMetrics,
    /// `/solve_batch`.
    pub solve_batch: EndpointMetrics,
    /// `/topk`.
    pub topk: EndpointMetrics,
    /// `/topk_batch`.
    pub topk_batch: EndpointMetrics,
    /// `/health`.
    pub health: EndpointMetrics,
    /// `/stats`.
    pub stats: EndpointMetrics,
    /// `/reload`.
    pub reload: EndpointMetrics,
    /// `/datasets/:name/objects[/:id]` (live insert/delete).
    pub update: EndpointMetrics,
    /// Anything unrouted.
    pub other: EndpointMetrics,
    /// Survival counters (panics, respawns, shedding, timeouts).
    pub resilience: ResilienceMetrics,
    /// Group-scan telemetry (evaluated/pruned groups, scan wall time).
    pub scan: ScanMetrics,
    /// Socket-layer telemetry (connections, queue depth, stalls).
    pub transport: TransportMetrics,
    /// Batch-endpoint amortization telemetry.
    pub batch: BatchMetrics,
}

impl Metrics {
    /// Iterates `(route name, endpoint metrics)` in display order.
    pub fn endpoints(&self) -> [(&'static str, &EndpointMetrics); 10] {
        [
            ("locate", &self.locate),
            ("solve", &self.solve),
            ("solve_batch", &self.solve_batch),
            ("topk", &self.topk),
            ("topk_batch", &self.topk_batch),
            ("health", &self.health),
            ("stats", &self.stats),
            ("reload", &self.reload),
            ("update", &self.update),
            ("other", &self.other),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_counts_and_errors() {
        let m = EndpointMetrics::default();
        m.record(10, false);
        m.record(20, true);
        m.record(30, false);
        assert_eq!(m.requests(), 3);
        assert_eq!(m.errors(), 1);
        assert_eq!(m.mean_micros(), 20.0);
    }

    #[test]
    fn quantiles_bracket_the_samples() {
        let m = EndpointMetrics::default();
        for _ in 0..99 {
            m.record(100, false); // bucket for 100 µs: [64, 128)
        }
        m.record(100_000, false); // one slow outlier
        let p50 = m.quantile_micros(0.5);
        assert!((64..=128).contains(&p50), "p50 = {p50}");
        let p99 = m.quantile_micros(0.99);
        assert!(p99 <= 128, "p99 = {p99}");
        let p100 = m.quantile_micros(1.0);
        assert!(p100 >= 65_536, "p100 = {p100}");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let m = EndpointMetrics::default();
        assert_eq!(m.quantile_micros(0.5), 0);
        assert_eq!(m.mean_micros(), 0.0);
    }

    #[test]
    fn zero_latency_lands_in_bucket_zero() {
        let m = EndpointMetrics::default();
        m.record(0, false);
        assert_eq!(m.quantile_micros(1.0), 0);
    }

    #[test]
    fn resilience_counters_bump_independently() {
        let m = Metrics::default();
        ResilienceMetrics::bump(&m.resilience.panics_caught);
        ResilienceMetrics::bump(&m.resilience.panics_caught);
        ResilienceMetrics::bump(&m.resilience.queue_shed);
        assert_eq!(ResilienceMetrics::get(&m.resilience.panics_caught), 2);
        assert_eq!(ResilienceMetrics::get(&m.resilience.queue_shed), 1);
        assert_eq!(ResilienceMetrics::get(&m.resilience.workers_respawned), 0);
        assert_eq!(ResilienceMetrics::get(&m.resilience.deadline_timeouts), 0);
    }

    #[test]
    fn scan_metrics_accumulate_totals_and_track_last() {
        let m = ScanMetrics::default();
        assert_eq!(m.scans(), 0);
        assert_eq!(m.last(), (0, 0, 0));
        m.record(100, 40, 2_000);
        m.record(60, 10, 500);
        assert_eq!(m.scans(), 2);
        assert_eq!(m.groups_evaluated(), 160);
        assert_eq!(m.groups_pruned(), 50);
        assert_eq!(m.scan_micros(), 2_500);
        assert_eq!(m.last(), (60, 10, 500));
    }

    #[test]
    fn registry_enumerates_all_routes() {
        let m = Metrics::default();
        m.locate.record(5, false);
        let names: Vec<&str> = m.endpoints().iter().map(|(n, _)| *n).collect();
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
        assert_eq!(m.endpoints()[0].1.requests(), 1);
    }

    #[test]
    fn batch_metrics_track_amortization() {
        let b = BatchMetrics::default();
        b.record(8, 3, 1_000);
        b.record(4, 4, 200);
        assert_eq!(b.batches(), 2);
        assert_eq!(b.items(), 12);
        assert_eq!(b.scans(), 7);
        assert_eq!(b.amortized_items(), 5);
        assert_eq!(b.last(), (4, 4, 200));
    }
}
