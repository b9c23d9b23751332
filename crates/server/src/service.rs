//! The service layer: transport-agnostic request handling.
//!
//! [`Service::handle`] maps an API [`Request`] (method, path, decoded query
//! parameters) to a JSON [`ApiResponse`], timing and counting every call.
//! The HTTP transport in [`crate::http`] is a thin socket adapter around
//! this, which is also why the end-to-end tests can drive the exact serving
//! logic through plain TCP.
//!
//! Two resilience mechanisms live here:
//!
//! * **Deadlines.** Every expensive endpoint (`locate`, `solve`, `topk`)
//!   evaluates under a [`CancelToken`] whose deadline is the configured
//!   [`ServiceConfig::request_timeout`], optionally tightened per-request
//!   with `?deadline_ms=`. Work that outlives the deadline stops at the next
//!   checkpoint and answers `504` with partial-progress counters instead of
//!   holding its event loop indefinitely.
//! * **Panic isolation.** Dispatch runs under `catch_unwind`: a panicking
//!   handler answers `500` (and bumps `resilience.panics_caught`) while the
//!   event loop that called it lives on.

use crate::cache::{CacheKey, LocateCache};
use crate::engine::{DurabilityReport, Engine, ReloadError, Snapshot, UpdateError};
use crate::fault::{self, FaultAction};
use crate::json::Json;
use crate::metrics::{Metric, Registry, Route};
use molq_core::prelude::*;
use molq_core::weights::wgd;
use molq_geom::Point;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A transport-agnostic API request.
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// HTTP method (`GET`, `POST`).
    pub method: String,
    /// Path without the query string (`/locate`).
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub params: Vec<(String, String)>,
    /// Raw request body (empty for bodiless requests). The batch endpoints
    /// read their JSON query lists from here.
    pub body: Vec<u8>,
}

impl Request {
    /// A GET request for `path` with the given query parameters.
    pub fn get(path: &str, params: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            params: params
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: Vec::new(),
        }
    }

    /// A POST request for `path` carrying a JSON `body`.
    pub fn post_json(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            params: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn f64_param(&self, key: &str) -> Result<f64, ApiError> {
        let raw = self
            .param(key)
            .ok_or_else(|| ApiError::bad_request(format!("missing parameter {key:?}")))?;
        raw.parse()
            .map_err(|e| ApiError::bad_request(format!("parameter {key:?}: {e}")))
    }

    /// Like [`Request::f64_param`] but a missing parameter yields `default`
    /// (a present-but-unparseable one is still a `400`).
    fn f64_param_or(&self, key: &str, default: f64) -> Result<f64, ApiError> {
        match self.param(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|e| ApiError::bad_request(format!("parameter {key:?}: {e}"))),
        }
    }
}

/// A JSON response with an HTTP status code.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Json,
    /// Seconds the client should wait before retrying (emitted as a
    /// `Retry-After` header by the transport); set on `503` shedding.
    pub retry_after: Option<u64>,
}

impl ApiResponse {
    fn ok(body: Json) -> ApiResponse {
        ApiResponse {
            status: 200,
            body,
            retry_after: None,
        }
    }

    fn accepted(body: Json) -> ApiResponse {
        ApiResponse {
            status: 202,
            body,
            retry_after: None,
        }
    }

    /// `true` for non-2xx responses.
    pub fn is_error(&self) -> bool {
        self.status >= 400
    }
}

struct ApiError {
    status: u16,
    message: String,
    /// `Retry-After` seconds (503 responses).
    retry_after: Option<u64>,
    /// `(completed, total)` work units for deadline timeouts (504).
    progress: Option<(usize, usize)>,
}

impl ApiError {
    fn new(status: u16, message: String) -> ApiError {
        ApiError {
            status,
            message,
            retry_after: None,
            progress: None,
        }
    }

    fn bad_request(message: String) -> ApiError {
        ApiError::new(400, message)
    }

    fn not_found(message: String) -> ApiError {
        ApiError::new(404, message)
    }

    fn into_response(self) -> ApiResponse {
        let mut body = Json::obj().set("error", self.message);
        if let Some((completed, total)) = self.progress {
            body = body
                .set("completed_groups", completed)
                .set("total_groups", total);
        }
        if let Some(secs) = self.retry_after {
            body = body.set("retry_after_s", secs);
        }
        ApiResponse {
            status: self.status,
            body,
            retry_after: self.retry_after,
        }
    }
}

/// A cached `locate` answer (shared between the cache and responses).
#[derive(Debug)]
struct LocateAnswer {
    evaluated_at: Point,
    ovr_id: usize,
    cost: f64,
    group: Vec<ObjectRef>,
}

/// Default number of cache shards.
const CACHE_SHARDS: usize = 8;
/// Default total cache capacity (entries).
const CACHE_CAPACITY: usize = 4096;

/// Service-level knobs (everything transport-independent).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Upper bound on per-request evaluation time; the effective deadline is
    /// `min(request_timeout, ?deadline_ms=)`. Also the staleness bound for
    /// queue shedding in the HTTP transport.
    pub request_timeout: Duration,
    /// Worker threads for the group scans behind `locate`/`solve`/`topk`
    /// (and for Overlapper rebuilds). Answers are bit-identical at any
    /// setting; `1` runs the scans inline on the request thread.
    pub threads: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            request_timeout: Duration::from_secs(10),
            threads: ExecConfig::from_env()
                .unwrap_or_else(ExecConfig::auto)
                .threads,
        }
    }
}

/// The MOLQ service: one engine (which owns the metrics registry) + cache.
pub struct Service {
    engine: Engine,
    cache: LocateCache<LocateAnswer>,
    config: ServiceConfig,
    exec: ExecConfig,
}

impl Service {
    /// Wraps an engine with a default-sized cache and default config.
    pub fn new(engine: Engine) -> Service {
        Service::with_config(engine, ServiceConfig::default())
    }

    /// [`Service::new`] with explicit configuration. The configured thread
    /// count also becomes the engine's build parallelism, so reloads run
    /// the Overlapper on the same pool width as request scans.
    pub fn with_config(engine: Engine, config: ServiceConfig) -> Service {
        let exec = ExecConfig::new(config.threads);
        engine.set_exec_config(exec);
        Service {
            engine,
            cache: LocateCache::new(CACHE_SHARDS, CACHE_CAPACITY),
            config,
            exec,
        }
    }

    /// The engine holding every dataset (e.g. to load datasets after
    /// [`Service::new`]).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The engine's metrics registry.
    pub fn metrics(&self) -> &Registry {
        self.engine.metrics()
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Dispatches a request, recording latency and outcome per endpoint.
    ///
    /// Dispatch runs under `catch_unwind`: a panic anywhere in a handler is
    /// converted to a `500` response (and counted) instead of unwinding into
    /// — and killing — the calling event loop.
    pub fn handle(&self, req: &Request) -> ApiResponse {
        let start = Instant::now();
        let route = Route::of(&req.path);
        let response =
            catch_unwind(AssertUnwindSafe(|| self.dispatch(route, req))).unwrap_or_else(|_| {
                self.metrics().inc(Metric::PanicsCaught);
                ApiError::new(500, "request handler panicked (worker survived)".into())
                    .into_response()
            });
        self.metrics()
            .record_request(route, micros_since(start), response.is_error());
        response
    }

    fn dispatch(&self, route: Route, req: &Request) -> ApiResponse {
        let result = fault::fail_point("service.handle")
            .map_err(|e| ApiError::new(500, format!("injected failure: {e}")))
            .and_then(|()| match route {
                Route::Locate => self.locate(req),
                Route::Solve => self.solve(req),
                Route::SolveBatch => self.batch(req, BatchKind::Solve),
                Route::Topk => self.topk(req),
                Route::TopkBatch => self.batch(req, BatchKind::Topk),
                Route::Health => Ok(self.health()),
                Route::Stats => Ok(self.stats()),
                Route::Reload => self.reload(req),
                Route::Update => self.update(req),
                Route::Other => Err(ApiError::not_found(format!("no route {:?}", req.path))),
            });
        result.unwrap_or_else(ApiError::into_response)
    }

    /// Builds the cancellation token for one expensive request: deadline at
    /// `min(request_timeout, ?deadline_ms=)` from now, plus any armed
    /// `service.slow` fault as a per-checkpoint throttle.
    fn cancel_token(&self, req: &Request) -> Result<CancelToken, ApiError> {
        let mut timeout = self.config.request_timeout;
        if let Some(raw) = req.param("deadline_ms") {
            let ms: u64 = raw
                .parse()
                .map_err(|e| ApiError::bad_request(format!("parameter \"deadline_ms\": {e}")))?;
            timeout = timeout.min(Duration::from_millis(ms));
        }
        let mut token = CancelToken::with_deadline(Instant::now() + timeout);
        if let Some(FaultAction::Sleep(delay)) = fault::take("service.slow") {
            token = token.with_checkpoint_delay(delay);
        }
        Ok(token)
    }

    /// Converts a timed-out evaluation into a `504` carrying how far it got.
    fn timeout_error(&self, completed: usize, total: usize) -> ApiError {
        self.metrics().inc(Metric::DeadlineTimeouts);
        ApiError {
            progress: Some((completed, total)),
            ..ApiError::new(
                504,
                format!("deadline exceeded after {completed} of {total} groups"),
            )
        }
    }

    /// Records one group scan into the `scan` metrics: every OVR group the
    /// scan walked, how many the cost bound discarded, the Fermat–Weber
    /// iterations it ran, and its wall time since `start`.
    fn record_scan(&self, groups: usize, stats: &molq_fw::BatchStats, start: Instant) {
        let m = self.metrics();
        let micros = micros_since(start);
        let pruned = (stats.prefiltered_groups + stats.pruned_groups) as u64;
        m.inc(Metric::Scans);
        m.add(Metric::GroupsEvaluated, groups as u64);
        m.add(Metric::GroupsPruned, pruned);
        m.add(Metric::ScanTimeUs, micros);
        m.add(Metric::ScanIterations, stats.iterations as u64);
        m.set(Metric::LastGroupsEvaluated, groups as u64);
        m.set(Metric::LastGroupsPruned, pruned);
        m.set(Metric::LastScanUs, micros);
    }

    /// Maps a core error: `Cancelled` → `504` + progress, the rest → `400`.
    fn molq_error(&self, e: MolqError) -> ApiError {
        match e {
            MolqError::Cancelled { completed, total } => self.timeout_error(completed, total),
            other => ApiError::bad_request(other.to_string()),
        }
    }

    fn snapshot(&self, req: &Request) -> Result<Arc<Snapshot>, ApiError> {
        let name = req.param("dataset").unwrap_or("default");
        self.snapshot_named(name)
    }

    /// Resolves `name`; the error body is shared with the single-query
    /// endpoints so batch items fail byte-identically.
    fn snapshot_named(&self, name: &str) -> Result<Arc<Snapshot>, ApiError> {
        self.engine
            .get(name)
            .ok_or_else(|| ApiError::not_found(format!("no dataset {name:?}")))
    }

    /// `GET /locate?x=..&y=..[&dataset=..]` — the serving objects at a
    /// location. The location is snapped to the snapshot's cache lattice;
    /// the snapped coordinate is reported back as `evaluated_at`.
    fn locate(&self, req: &Request) -> Result<ApiResponse, ApiError> {
        let snap = self.snapshot(req)?;
        let l = Point::new(req.f64_param("x")?, req.f64_param("y")?);
        if !snap.query.bounds.contains(l) {
            return Err(ApiError::bad_request(format!(
                "({}, {}) is outside the dataset bounds",
                l.x, l.y
            )));
        }
        let (cell, snapped) = snap.quantize(l);
        let key = CacheKey {
            dataset: snap.spec.name.clone(),
            generation: snap.generation,
            cell,
        };
        let (answer, cached) = match self.cache.get(&key) {
            Some(hit) => {
                self.metrics().inc(Metric::CacheHits);
                (hit, true)
            }
            None => {
                self.metrics().inc(Metric::CacheMisses);
                let cancel = self.cancel_token(req)?;
                let answer = Arc::new(self.locate_uncached(&snap, snapped, &cancel)?);
                self.cache.insert(key, Arc::clone(&answer));
                (answer, false)
            }
        };
        let group = answer
            .group
            .iter()
            .map(|r| {
                let set = &snap.query.sets[r.set];
                let o = &set.objects[r.index];
                Json::obj()
                    .set("set", set.name.as_str())
                    .set("index", r.index)
                    .set("x", o.loc.x)
                    .set("y", o.loc.y)
                    .set("w_t", o.w_t)
                    .set("w_o", o.w_o)
            })
            .collect::<Vec<_>>();
        Ok(ApiResponse::ok(
            Json::obj()
                .set("dataset", snap.spec.name.as_str())
                .set("generation", snap.generation)
                .set(
                    "evaluated_at",
                    Json::obj()
                        .set("x", answer.evaluated_at.x)
                        .set("y", answer.evaluated_at.y),
                )
                .set("ovr_id", answer.ovr_id)
                .set("cost", answer.cost)
                .set("group", group)
                .set("cached", cached),
        ))
    }

    fn locate_uncached(
        &self,
        snap: &Snapshot,
        l: Point,
        cancel: &CancelToken,
    ) -> Result<LocateAnswer, ApiError> {
        // MBRB candidate rectangles are false-positive supersets, so the
        // containing OVRs are disambiguated by actual group cost; under RRB
        // there is one candidate away from boundaries and this reduces to
        // plain point location. The candidate sweep is the expensive part,
        // so it runs on the scan layer: parallel across candidates when the
        // service has threads, checkpointing the deadline either way.
        let ids = snap.index.locate_candidate_ids(l);
        let start = Instant::now();
        let scan = GroupScan::new(ids.len(), self.exec, cancel);
        let out = scan
            .run(|i, _| {
                let id = ids[i];
                Some((id, wgd(l, &snap.query, snap.index.group(id))))
            })
            .map_err(|e| self.molq_error(e))?;
        // Reduce by (cost, id): the exact total order the sequential sweep
        // applied, so the parallel answer is bit-identical.
        let mut best: Option<(usize, f64)> = None;
        for &(_, (id, cost)) in &out.items {
            let better = match best {
                None => true,
                Some((bid, bc)) => cost.total_cmp(&bc).then(id.cmp(&bid)).is_lt(),
            };
            if better {
                best = Some((id, cost));
            }
        }
        self.record_scan(ids.len(), &molq_fw::BatchStats::default(), start);
        let (ovr_id, cost) = best.ok_or_else(|| {
            ApiError::not_found(format!("({}, {}) is not covered by any OVR", l.x, l.y))
        })?;
        Ok(LocateAnswer {
            evaluated_at: l,
            ovr_id,
            cost,
            group: snap.index.group(ovr_id).to_vec(),
        })
    }

    /// `GET /solve[?dataset=..]` — the optimal location, from the prebuilt
    /// MOVD via the cost-bound optimizer.
    fn solve(&self, req: &Request) -> Result<ApiResponse, ApiError> {
        let snap = self.snapshot(req)?;
        let cancel = self.cancel_token(req)?;
        Ok(ApiResponse::ok(self.solve_body(&snap, &cancel)?))
    }

    /// The `/solve` evaluation and response body. Shared with
    /// `/solve_batch`, so a batch item's body is byte-identical to the
    /// individual endpoint's by construction.
    fn solve_body(&self, snap: &Snapshot, cancel: &CancelToken) -> Result<Json, ApiError> {
        let start = Instant::now();
        let answer = solve_arena_cancellable_with(
            &snap.query,
            snap.index.arena(),
            snap.lanes(),
            cancel,
            self.exec,
        )
        .map_err(|e| self.molq_error(e))?
        .with_certified_factor(snap.build_meta.certified_factor());
        self.record_scan(answer.ovr_count, &answer.stats, start);
        Ok(Json::obj()
            .set("dataset", snap.spec.name.as_str())
            .set("generation", snap.generation)
            .set(
                "location",
                Json::obj()
                    .set("x", answer.location.x)
                    .set("y", answer.location.y),
            )
            .set("cost", answer.cost)
            .set("certified_factor", answer.certified_factor)
            .set("cost_lower_bound", answer.cost_lower_bound())
            .set("ovr_count", answer.ovr_count))
    }

    /// `GET /topk?k=..[&dataset=..]` — the k best distinct locations.
    fn topk(&self, req: &Request) -> Result<ApiResponse, ApiError> {
        let snap = self.snapshot(req)?;
        let k = match req.param("k") {
            None => DEFAULT_K,
            Some(raw) => parse_k(raw)?,
        };
        let cancel = self.cancel_token(req)?;
        Ok(ApiResponse::ok(self.topk_body(&snap, k, &cancel)?))
    }

    /// The `/topk` evaluation and response body, shared with `/topk_batch`
    /// (same byte-identity contract as [`Service::solve_body`]).
    fn topk_body(&self, snap: &Snapshot, k: usize, cancel: &CancelToken) -> Result<Json, ApiError> {
        let start = Instant::now();
        let answer = solve_topk_arena_cancellable_with(
            &snap.query,
            snap.index.arena(),
            snap.lanes(),
            k,
            cancel,
            self.exec,
        )
        .map_err(|e| self.molq_error(e))?
        .with_certified_factor(snap.build_meta.certified_factor());
        self.record_scan(answer.ovr_count, &answer.stats, start);
        let candidates = answer
            .candidates
            .iter()
            .map(|c| {
                Json::obj()
                    .set("x", c.location.x)
                    .set("y", c.location.y)
                    .set("cost", c.cost)
            })
            .collect::<Vec<_>>();
        Ok(Json::obj()
            .set("dataset", snap.spec.name.as_str())
            .set("generation", snap.generation)
            .set("k", k)
            .set("certified_factor", answer.certified_factor)
            .set("candidates", candidates))
    }

    /// `POST /solve_batch` / `POST /topk_batch` — N queries, one request.
    ///
    /// The body is a JSON array of items (or `{"queries": [...]}`), each
    /// `{"dataset": name}` (plus `"k"` for top-k; both fields optional with
    /// the same defaults as the single-query endpoints). As a load-test
    /// convenience, an empty body with `?n=K` replicates the default query
    /// `K` times.
    ///
    /// Distinct `(dataset, k)` keys are evaluated **once** — one snapshot
    /// pin, one cancellable sweep — and the resulting body is shared by
    /// every item with that key, so a batch of N identical queries costs
    /// one scan. Each item's `body` is byte-identical to what the
    /// individual endpoint would return (including `404` for unknown
    /// datasets and `504` with partial-progress counters on deadline);
    /// the enclosing response is always `200` with per-item `status`.
    /// The whole batch runs under a single deadline token.
    fn batch(&self, req: &Request, kind: BatchKind) -> Result<ApiResponse, ApiError> {
        if req.method != "POST" {
            return Err(ApiError::bad_request(format!(
                "{} requires POST",
                kind.path()
            )));
        }
        let items = parse_batch_items(req, kind)?;
        let cancel = self.cancel_token(req)?;
        let start = Instant::now();
        let mut computed: Vec<(BatchItem, (u16, Json))> = Vec::new();
        let mut scans = 0u64;
        let mut results = Vec::with_capacity(items.len());
        for item in &items {
            let hit = computed.iter().find(|(key, _)| key == item);
            let (status, body) = match hit {
                Some((_, cached)) => cached.clone(),
                None => {
                    let outcome = match self.batch_item_body(kind, item, &cancel, &mut scans) {
                        Ok(body) => (200, body),
                        Err(e) => {
                            let resp = e.into_response();
                            (resp.status, resp.body)
                        }
                    };
                    computed.push((item.clone(), outcome.clone()));
                    outcome
                }
            };
            results.push(
                Json::obj()
                    .set("status", u64::from(status))
                    .set("body", body),
            );
        }
        let micros = micros_since(start);
        let items_n = items.len() as u64;
        let m = self.metrics();
        m.inc(Metric::Batches);
        m.add(Metric::BatchItems, items_n);
        m.add(Metric::BatchScans, scans);
        m.set(Metric::LastBatchItems, items_n);
        m.set(Metric::LastBatchScans, scans);
        m.set(Metric::LastBatchUs, micros);
        Ok(ApiResponse::ok(
            Json::obj().set("results", results).set(
                "batch",
                Json::obj()
                    .set("items", items_n)
                    .set("scans", scans)
                    .set("amortized_items", items_n - scans)
                    .set("batch_us", micros),
            ),
        ))
    }

    /// One distinct batch key's evaluation: resolve the snapshot, validate
    /// `k`, then run the shared body builder — the same order as the
    /// individual endpoints, so error precedence matches too. `scans` counts only keys that actually swept (a `404`
    /// or invalid `k` does no work).
    fn batch_item_body(
        &self,
        kind: BatchKind,
        item: &BatchItem,
        cancel: &CancelToken,
        scans: &mut u64,
    ) -> Result<Json, ApiError> {
        let snap = self.snapshot_named(&item.dataset)?;
        match kind {
            BatchKind::Solve => {
                *scans += 1;
                self.solve_body(&snap, cancel)
            }
            BatchKind::Topk => {
                let k = match &item.k {
                    None => DEFAULT_K,
                    Some(raw) => parse_k(raw)?,
                };
                *scans += 1;
                self.topk_body(&snap, k, cancel)
            }
        }
    }

    /// `GET /health` — liveness, loaded datasets, rebuild-breaker state, and
    /// storage durability. Reports `"degraded"` while any dataset's breaker
    /// is open (its old generation keeps serving; only rebuilds are
    /// suspended) or while the most recent durable write — journal append or
    /// snapshot save — failed (serving continues; updates answer `507`).
    fn health(&self) -> ApiResponse {
        let names = self.engine.names();
        let reports = self.engine.breaker_reports();
        let durability = self.engine.durability();
        let degraded = reports.iter().any(|r| r.retry_in.is_some()) || durability.degraded;
        let breakers = reports
            .iter()
            .map(|r| {
                Json::obj()
                    .set("dataset", r.dataset.as_str())
                    .set("consecutive_failures", u64::from(r.consecutive_failures))
                    .set("open", r.retry_in.is_some())
                    .set(
                        "retry_in_ms",
                        match r.retry_in {
                            Some(d) => Json::from(d.as_millis().min(u128::from(u64::MAX)) as u64),
                            None => Json::Null,
                        },
                    )
                    .set("last_error", r.last_error.as_str())
            })
            .collect::<Vec<_>>();
        ApiResponse::ok(
            Json::obj()
                .set("status", if degraded { "degraded" } else { "ok" })
                .set(
                    "datasets",
                    names
                        .iter()
                        .map(|n| Json::Str(n.clone()))
                        .collect::<Vec<_>>(),
                )
                .set("breakers", breakers)
                .set("durability", storage_health(Json::obj(), durability)),
        )
    }

    /// `GET /stats` — every registry metric, rendered section by section,
    /// plus the per-dataset views the registry does not hold.
    fn stats(&self) -> ApiResponse {
        let m = self.metrics();
        let snapshots: Vec<Arc<Snapshot>> = self
            .engine
            .names()
            .iter()
            .filter_map(|n| self.engine.get(n))
            .collect();
        let datasets = snapshots
            .iter()
            .map(|s| {
                Json::obj()
                    .set("name", s.spec.name.as_str())
                    .set("generation", s.generation)
                    .set("epoch", s.update_epoch)
                    .set("mode", mode_name(s.build_meta.mode))
                    .set("sets", s.set_count())
                    .set("objects", s.object_count())
                    .set("ovrs", s.index.len())
            })
            .collect::<Vec<_>>();
        let approx = snapshots
            .iter()
            .filter(|s| s.build_meta.mode.is_approx())
            .map(|s| {
                let b = &s.build_meta;
                Json::obj()
                    .set("dataset", s.spec.name.as_str())
                    .set("epsilon", b.mode.epsilon())
                    .set("certified_factor", b.certified_factor())
                    .set("leaves", b.leaves)
                    .set("cells_visited", b.cells_visited)
                    .set("refinement_depth", u64::from(b.refinement_depth))
                    .set("forced_leaves", b.forced_leaves)
                    .set("fully_certified", b.fully_certified())
            })
            .collect::<Vec<_>>();
        let builds = self
            .engine
            .builds_in_flight()
            .into_iter()
            .map(|(name, generation)| {
                Json::obj()
                    .set("dataset", name.as_str())
                    .set("target_generation", generation)
            })
            .collect::<Vec<_>>();
        let buffers = snapshots
            .iter()
            .map(|s| {
                let b = s.index.arena().buffer_bytes();
                Json::obj()
                    .set("dataset", s.spec.name.as_str())
                    .set("kinds", b.kinds)
                    .set("poly_off", b.poly_off)
                    .set("vert_off", b.vert_off)
                    .set("verts", b.verts)
                    .set("group_off", b.group_off)
                    .set("pois", b.pois)
                    .set("total", b.total())
            })
            .collect::<Vec<_>>();
        ApiResponse::ok(
            Json::obj()
                .set("endpoints", m.render_endpoints())
                .set(
                    "cache",
                    m.render_section("cache", Json::obj())
                        .set("entries", self.cache.len()),
                )
                .set("datasets", datasets)
                .set("approx", approx)
                .set("builds", builds)
                .set("resilience", m.render_section("resilience", Json::obj()))
                .set(
                    "scan",
                    m.render_section("scan", Json::obj().set("threads", self.config.threads)),
                )
                .set("updates", m.render_section("updates", Json::obj()))
                .set(
                    "arena_stats",
                    m.render_section("arena_stats", Json::obj().set("buffers", buffers)),
                )
                .set(
                    "durability",
                    storage_health(
                        m.render_section("durability", Json::obj()),
                        self.engine.durability(),
                    ),
                )
                .set("transport", m.render_section("transport", Json::obj()))
                .set("batch", m.render_section("batch", Json::obj())),
        )
    }

    /// `POST /reload[?dataset=..][&wait=1]` — rebuild a dataset from its spec
    /// and swap the snapshot atomically.
    ///
    /// By default the rebuild runs on a background thread and the response is
    /// an immediate `202 Accepted` carrying the generation the build will
    /// publish as; requests keep being served from the old snapshot until the
    /// swap. A repeated reload while a build is in flight joins it
    /// (`already_building: true`) rather than stacking builds. `wait=1` keeps
    /// the old synchronous behaviour: block until the swap and answer `200`,
    /// or `409` when a live update or another reload published first.
    fn reload(&self, req: &Request) -> Result<ApiResponse, ApiError> {
        if req.method != "POST" {
            return Err(ApiError::bad_request("reload requires POST".into()));
        }
        let name = req.param("dataset").unwrap_or("default");
        // `?epsilon=` switches the construction mode for this and later
        // rebuilds: 0 back to exact, a positive value to the quadtree
        // (1+ε) approximate pipeline.
        let mode = match req.param("epsilon") {
            None => None,
            Some(raw) => {
                let e: f64 = raw
                    .parse()
                    .map_err(|e| ApiError::bad_request(format!("parameter \"epsilon\": {e}")))?;
                if !e.is_finite() || e < 0.0 {
                    return Err(ApiError::bad_request(
                        "parameter \"epsilon\" must be a finite non-negative number".into(),
                    ));
                }
                Some(BuildMode::from_epsilon(Some(e)))
            }
        };
        if matches!(req.param("wait"), Some("1") | Some("true")) {
            let snap = self.engine.reload(name, mode).map_err(reload_error)?;
            return Ok(ApiResponse::ok(
                Json::obj()
                    .set("dataset", snap.spec.name.as_str())
                    .set("generation", snap.generation)
                    .set("mode", mode_name(snap.build_meta.mode))
                    .set("epsilon", snap.build_meta.mode.epsilon())
                    .set("status", "ready"),
            ));
        }
        let ticket = self
            .engine
            .reload_background(name, mode)
            .map_err(reload_error)?;
        Ok(ApiResponse::accepted(
            Json::obj()
                .set("dataset", name)
                .set("generation", ticket.target_generation)
                .set("status", "building")
                .set("already_building", ticket.already_building),
        ))
    }

    /// Live-update routes:
    ///
    /// * `POST /datasets/:name/objects?set=..&x=..&y=..[&w_t=..][&w_o=..]`
    ///   inserts one object (weights default to `1`);
    /// * `DELETE /datasets/:name/objects/:index?set=..` removes the object
    ///   at `index` within its set.
    ///
    /// Both go through the engine's in-place patch path: the journal record
    /// is durable before the patched snapshot is published as a new
    /// generation, and queries never observe a half-applied state.
    fn update(&self, req: &Request) -> Result<ApiResponse, ApiError> {
        let rest = req.path.strip_prefix("/datasets/").unwrap_or_default();
        let (name, id) = if let Some(name) = rest.strip_suffix("/objects") {
            (name, None)
        } else if let Some((name, raw)) = rest.rsplit_once("/objects/") {
            let id = raw
                .parse::<usize>()
                .map_err(|e| ApiError::bad_request(format!("object id {raw:?}: {e}")))?;
            (name, Some(id))
        } else {
            return Err(ApiError::not_found(format!("no route {:?}", req.path)));
        };
        let snap = self
            .engine
            .get(name)
            .ok_or_else(|| ApiError::not_found(format!("no dataset {name:?}")))?;
        let set = resolve_set(&snap, req)?;
        let update = match (req.method.as_str(), id) {
            ("POST", None) => Update::Insert {
                set,
                object: SpatialObject {
                    loc: Point::new(req.f64_param("x")?, req.f64_param("y")?),
                    w_t: req.f64_param_or("w_t", 1.0)?,
                    w_o: req.f64_param_or("w_o", 1.0)?,
                },
            },
            ("DELETE", Some(index)) => Update::Remove { set, index },
            ("POST", Some(_)) => {
                return Err(ApiError::bad_request(
                    "insert does not take an object id (POST .../objects)".into(),
                ))
            }
            ("DELETE", None) => {
                return Err(ApiError::bad_request(
                    "delete requires an object id (DELETE .../objects/:index)".into(),
                ))
            }
            (m, _) => {
                return Err(ApiError::bad_request(format!(
                    "unsupported method {m:?} for live updates"
                )))
            }
        };
        let kind = match update {
            Update::Insert { .. } => "insert",
            Update::Remove { .. } => "remove",
        };
        let outcome = self
            .engine
            .apply_update(name, &update)
            .map_err(|e| match e {
                UpdateError::NotFound(m) => ApiError::not_found(m),
                UpdateError::Rejected(m) => ApiError::bad_request(m),
                // 507 Insufficient Storage: applied in memory but could not
                // be made durable; the engine rolled it back.
                UpdateError::Durability(m) => ApiError::new(507, m),
            })?;
        let stats = &outcome.stats;
        Ok(ApiResponse::ok(
            Json::obj()
                .set("dataset", outcome.snapshot.spec.name.as_str())
                .set("generation", outcome.snapshot.generation)
                .set("epoch", outcome.snapshot.update_epoch)
                .set("applied", kind)
                .set("objects", outcome.snapshot.object_count())
                .set("full_rebuild", outcome.full_rebuild)
                .set("cells_reclipped", stats.cells_reclipped)
                .set("ovrs_kept", stats.ovrs_kept)
                .set("ovrs_rederived", stats.ovrs_rederived)
                .set("grid_patched", stats.grid_patched)
                .set(
                    "patch_us",
                    stats.wall.as_micros().min(u128::from(u64::MAX)) as u64,
                ),
        ))
    }
}

/// Microseconds since `start`, saturating.
fn micros_since(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// A build mode's name on the wire.
fn mode_name(mode: BuildMode) -> &'static str {
    if mode.is_approx() {
        "approx"
    } else {
        "exact"
    }
}

/// Appends the storage-health fields `/health` and `/stats` share.
fn storage_health(into: Json, d: DurabilityReport) -> Json {
    into.set("degraded", d.degraded).set(
        "last_error",
        match d.last_error {
            Some(e) => Json::Str(e),
            None => Json::Null,
        },
    )
}

/// Resolves the required `set=` parameter against a snapshot: by set name
/// first, then as a plain index into the set list.
fn resolve_set(snap: &Snapshot, req: &Request) -> Result<usize, ApiError> {
    let raw = req
        .param("set")
        .ok_or_else(|| ApiError::bad_request("missing parameter \"set\"".into()))?;
    if let Some(i) = snap.query.sets.iter().position(|s| s.name == raw) {
        return Ok(i);
    }
    raw.parse::<usize>()
        .ok()
        .filter(|i| *i < snap.query.sets.len())
        .ok_or_else(|| {
            ApiError::bad_request(format!(
                "set {raw:?} names no object set (and is not a valid index)"
            ))
        })
}

/// Default `k` for `/topk` and `/topk_batch` items.
const DEFAULT_K: usize = 5;

/// Most items one batch request may carry.
const MAX_BATCH_ITEMS: usize = 1024;

/// Which single-query endpoint a batch amortizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatchKind {
    /// `/solve_batch`.
    Solve,
    /// `/topk_batch`.
    Topk,
}

impl BatchKind {
    fn path(self) -> &'static str {
        match self {
            BatchKind::Solve => "/solve_batch",
            BatchKind::Topk => "/topk_batch",
        }
    }
}

/// One batch item, which is also the dedup key: items with equal keys
/// share one evaluation. `k` stays raw text so invalid values fail with
/// the same `400` body the individual endpoint produces.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BatchItem {
    dataset: String,
    k: Option<String>,
}

/// Validates a `k` value exactly like `GET /topk?k=` does.
fn parse_k(raw: &str) -> Result<usize, ApiError> {
    raw.parse::<usize>()
        .ok()
        .filter(|k| (1..=1000).contains(k))
        .ok_or_else(|| {
            ApiError::bad_request(format!("parameter \"k\": {raw:?} is not in 1..=1000"))
        })
}

/// Decodes the batch body: a JSON array of items or `{"queries": [...]}`;
/// an empty body with `?n=K` replicates the default query `K` times.
/// Keys are normalized so deduplication sees effective parameters: for
/// `/solve_batch`, item `k` fields are dropped (they do not affect the
/// answer), and for `/topk_batch` a missing `k` becomes the default's raw
/// text — `{}` and `{"k": 5}` are one key.
fn parse_batch_items(req: &Request, kind: BatchKind) -> Result<Vec<BatchItem>, ApiError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ApiError::bad_request("batch body is not UTF-8".into()))?;
    let items: Vec<BatchItem> = if text.trim().is_empty() {
        let n_raw = req.param("n").ok_or_else(|| {
            ApiError::bad_request(format!(
                "{} takes a JSON body of queries (or ?n= to replicate one query)",
                kind.path()
            ))
        })?;
        let n: usize = n_raw
            .parse()
            .map_err(|e| ApiError::bad_request(format!("parameter \"n\": {e}")))?;
        let item = BatchItem {
            dataset: req.param("dataset").unwrap_or("default").to_string(),
            k: match kind {
                BatchKind::Solve => None,
                BatchKind::Topk => Some(
                    req.param("k")
                        .map_or_else(|| DEFAULT_K.to_string(), str::to_string),
                ),
            },
        };
        vec![item; n]
    } else {
        let json =
            Json::parse(text).map_err(|e| ApiError::bad_request(format!("batch body: {e}")))?;
        let arr = match json.as_arr() {
            Some(arr) => arr,
            None => json.get("queries").and_then(Json::as_arr).ok_or_else(|| {
                ApiError::bad_request(
                    "batch body must be a JSON array or {\"queries\": [...]}".into(),
                )
            })?,
        };
        arr.iter()
            .map(|item| BatchItem {
                dataset: item
                    .get("dataset")
                    .and_then(Json::as_str)
                    .unwrap_or("default")
                    .to_string(),
                k: match kind {
                    BatchKind::Solve => None,
                    BatchKind::Topk => Some(item.get("k").map_or_else(
                        || DEFAULT_K.to_string(),
                        |v| match v {
                            Json::Str(s) => s.clone(),
                            other => other.encode(),
                        },
                    )),
                },
            })
            .collect()
    };
    if items.is_empty() {
        return Err(ApiError::bad_request("empty batch".into()));
    }
    if items.len() > MAX_BATCH_ITEMS {
        return Err(ApiError::bad_request(format!(
            "batch of {} items exceeds the {MAX_BATCH_ITEMS}-item cap",
            items.len()
        )));
    }
    Ok(items)
}

/// Maps a rebuild error: open breaker → `503` + `Retry-After` (rounded up
/// to whole seconds), a lost publish race → `409`, anything else → `400`.
fn reload_error(e: ReloadError) -> ApiError {
    let message = e.to_string();
    match e {
        ReloadError::BreakerOpen { retry_in, .. } => ApiError {
            retry_after: Some((retry_in.as_millis().div_ceil(1000).max(1)) as u64),
            ..ApiError::new(503, message)
        },
        ReloadError::Conflict(_) => ApiError::new(409, message),
        ReloadError::Failed(_) => ApiError::bad_request(message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DatasetSpec;
    use molq_core::weights::mwgd;
    use molq_geom::Mbr;

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

    fn service(boundary: Boundary) -> Service {
        let engine = Engine::new();
        engine
            .load_from_sets(
                DatasetSpec {
                    boundary,
                    bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
                    eps: 1e-9,
                    ..DatasetSpec::new("default", Vec::new())
                },
                vec![
                    pseudo_set("a", 2.0, 12, 31),
                    pseudo_set("b", 1.0, 14, 32),
                    pseudo_set("c", 1.5, 10, 33),
                ],
            )
            .unwrap();
        Service::new(engine)
    }

    #[test]
    fn locate_matches_the_library_oracle() {
        for boundary in [Boundary::Rrb, Boundary::Mbrb] {
            let svc = service(boundary);
            let snap = svc.engine().get("default").unwrap();
            for gi in 0..20 {
                let x = (gi as f64 * 7.9 + 1.3) % 100.0;
                let y = (gi as f64 * 12.7 + 2.9) % 100.0;
                let resp = svc.handle(&Request::get(
                    "/locate",
                    &[("x", &x.to_string()), ("y", &y.to_string())],
                ));
                assert_eq!(resp.status, 200, "{:?}", resp.body);
                let at = resp.body.get("evaluated_at").unwrap();
                let snapped = Point::new(
                    at.get("x").unwrap().as_f64().unwrap(),
                    at.get("y").unwrap().as_f64().unwrap(),
                );
                let cost = resp.body.get("cost").unwrap().as_f64().unwrap();
                // Cost-disambiguated locate equals MWGD at the snapped point
                // in both boundary modes (Property 5).
                let oracle = mwgd(snapped, &snap.query);
                assert!(
                    (cost - oracle).abs() <= 1e-9 * oracle.max(1.0),
                    "{boundary:?}: {cost} vs {oracle}"
                );
                assert_eq!(resp.body.get("group").unwrap().as_arr().unwrap().len(), 3);
            }
        }
    }

    #[test]
    fn locate_caches_quantized_cells() {
        let svc = service(Boundary::Rrb);
        let first = svc.handle(&Request::get("/locate", &[("x", "10.5"), ("y", "20.5")]));
        assert_eq!(first.body.get("cached"), Some(&Json::Bool(false)));
        let again = svc.handle(&Request::get("/locate", &[("x", "10.5"), ("y", "20.5")]));
        assert_eq!(again.body.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(first.body.get("cost"), again.body.get("cost"));
        // A (synchronous) reload bumps the generation, invalidating the
        // cache key.
        let reload = svc.handle(&Request {
            method: "POST".into(),
            ..Request::get("/reload", &[("wait", "1")])
        });
        assert_eq!(reload.status, 200, "{:?}", reload.body);
        let fresh = svc.handle(&Request::get("/locate", &[("x", "10.5"), ("y", "20.5")]));
        assert_eq!(fresh.body.get("cached"), Some(&Json::Bool(false)));
        assert_eq!(fresh.body.get("generation").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn solve_and_topk_match_direct_library_calls() {
        let svc = service(Boundary::Rrb);
        let snap = svc.engine().get("default").unwrap();
        let direct = solve_rrb(&snap.query).unwrap();

        let solve = svc.handle(&Request::get("/solve", &[]));
        assert_eq!(solve.status, 200, "{:?}", solve.body);
        let cost = solve.body.get("cost").unwrap().as_f64().unwrap();
        assert!((cost - direct.cost).abs() <= 1e-9 * direct.cost);
        // Every OVR of three layers is a 3-object group, solved exactly;
        // the iterations of interior 3-point optima still count.
        let stats = svc.handle(&Request::get("/stats", &[]));
        let scan = stats.body.get("scan").unwrap();
        assert!(scan.get("iterations").unwrap().as_u64().unwrap() > 0);

        let topk = svc.handle(&Request::get("/topk", &[("k", "3")]));
        assert_eq!(topk.status, 200, "{:?}", topk.body);
        let candidates = topk.body.get("candidates").unwrap().as_arr().unwrap();
        assert!(!candidates.is_empty() && candidates.len() <= 3);
        let expected = solve_topk_arena_cancellable_with(
            &snap.query,
            snap.index.arena(),
            snap.lanes(),
            3,
            &CancelToken::never(),
            ExecConfig::default(),
        )
        .unwrap();
        for (got, want) in candidates.iter().zip(expected.candidates.iter()) {
            let c = got.get("cost").unwrap().as_f64().unwrap();
            assert!((c - want.cost).abs() <= 1e-9 * want.cost.max(1.0));
        }
    }

    #[test]
    fn error_paths_report_json_errors() {
        let svc = service(Boundary::Rrb);
        for (req, status) in [
            (Request::get("/nope", &[]), 404),
            (Request::get("/locate", &[("x", "1")]), 400),
            (Request::get("/locate", &[("x", "a"), ("y", "2")]), 400),
            (Request::get("/locate", &[("x", "-50"), ("y", "2")]), 400),
            (
                Request::get("/locate", &[("x", "1"), ("y", "2"), ("dataset", "zz")]),
                404,
            ),
            (Request::get("/topk", &[("k", "0")]), 400),
            (Request::get("/reload", &[]), 400),
        ] {
            let resp = svc.handle(&req);
            assert_eq!(resp.status, status, "{req:?}");
            assert!(resp.body.get("error").is_some(), "{req:?}");
        }
    }

    #[test]
    fn reload_returns_202_without_blocking_on_the_build() {
        use std::time::{Duration, Instant};
        let svc = service(Boundary::Rrb);
        // The build waits at its start until the checks below are done.
        let (reached_tx, reached_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        svc.engine()
            .hold_once("build.start", reached_tx, release_rx);

        let post = |params: &[(&str, &str)]| Request {
            method: "POST".into(),
            ..Request::get("/reload", params)
        };
        let start = Instant::now();
        let resp = svc.handle(&post(&[]));
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "async reload blocked for {:?}",
            start.elapsed()
        );
        assert_eq!(resp.status, 202, "{:?}", resp.body);
        assert_eq!(resp.body.get("status").unwrap().as_str(), Some("building"));
        assert_eq!(resp.body.get("generation").unwrap().as_u64(), Some(2));
        assert_eq!(resp.body.get("already_building"), Some(&Json::Bool(false)));
        // The old snapshot keeps serving while the build is in flight, and
        // /stats reports the build.
        reached_rx.recv().unwrap();
        assert_eq!(svc.engine().get("default").unwrap().generation, 1);
        let stats = svc.handle(&Request::get("/stats", &[]));
        let builds = stats.body.get("builds").unwrap().as_arr().unwrap();
        assert_eq!(builds.len(), 1);
        assert_eq!(builds[0].get("dataset").unwrap().as_str(), Some("default"));
        assert_eq!(
            builds[0].get("target_generation").unwrap().as_u64(),
            Some(2)
        );
        // A second reload joins the in-flight build.
        let again = svc.handle(&post(&[]));
        assert_eq!(again.status, 202);
        assert_eq!(again.body.get("already_building"), Some(&Json::Bool(true)));
        // Once released, the build publishes generation 2.
        release_tx.send(()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.engine().get("default").unwrap().generation != 2 {
            assert!(Instant::now() < deadline, "background build never landed");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn zero_deadline_times_out_with_partial_progress() {
        let svc = service(Boundary::Rrb);
        for path in ["/solve", "/topk"] {
            let resp = svc.handle(&Request::get(path, &[("deadline_ms", "0")]));
            assert_eq!(resp.status, 504, "{path}: {:?}", resp.body);
            assert_eq!(resp.body.get("completed_groups").unwrap().as_u64(), Some(0));
            assert!(resp.body.get("total_groups").unwrap().as_u64().unwrap() > 0);
        }
        // locate's candidate sweep checkpoints too (uncached path).
        let resp = svc.handle(&Request::get(
            "/locate",
            &[("x", "42.5"), ("y", "47.5"), ("deadline_ms", "0")],
        ));
        assert_eq!(resp.status, 504, "{:?}", resp.body);
        // A malformed deadline is a 400, not a timeout.
        let resp = svc.handle(&Request::get("/solve", &[("deadline_ms", "soon")]));
        assert_eq!(resp.status, 400);
        // Each cancellation was counted and shows up on /stats.
        let stats = svc.handle(&Request::get("/stats", &[]));
        let resilience = stats.body.get("resilience").unwrap();
        assert_eq!(
            resilience.get("deadline_timeouts").unwrap().as_u64(),
            Some(3)
        );
        assert_eq!(resilience.get("panics_caught").unwrap().as_u64(), Some(0));
        // Untimed requests still answer normally afterwards.
        assert_eq!(svc.handle(&Request::get("/solve", &[])).status, 200);
    }

    #[test]
    fn open_breaker_degrades_health_and_sheds_reloads() {
        use crate::engine::BreakerConfig;
        use std::time::Duration;

        let dir = std::env::temp_dir().join("molq_server_service_breaker");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut paths = Vec::new();
        for (name, seed) in [("a", 51u64), ("b", 52)] {
            let path = dir.join(format!("{name}.csv"));
            let mut f = std::fs::File::create(&path).unwrap();
            molq_datagen::csv::write_csv(&pseudo_set(name, 1.0, 10, seed), &mut f).unwrap();
            paths.push(path);
        }
        let engine = Engine::new();
        engine.set_breaker_config(BreakerConfig {
            threshold: 1,
            base_backoff: Duration::from_millis(60),
            max_backoff: Duration::from_secs(1),
        });
        engine
            .load(DatasetSpec {
                bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
                ..DatasetSpec::new("default", paths.clone())
            })
            .unwrap();
        let svc = Service::new(engine);
        let post = |params: &[(&str, &str)]| Request {
            method: "POST".into(),
            ..Request::get("/reload", params)
        };

        let health = svc.handle(&Request::get("/health", &[]));
        assert_eq!(health.body.get("status").unwrap().as_str(), Some("ok"));
        assert!(health
            .body
            .get("breakers")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());

        // Break the source; threshold 1 opens the breaker on first failure.
        let saved = std::fs::read(&paths[0]).unwrap();
        std::fs::remove_file(&paths[0]).unwrap();
        assert_eq!(svc.handle(&post(&[("wait", "1")])).status, 400);
        let health = svc.handle(&Request::get("/health", &[]));
        assert_eq!(
            health.body.get("status").unwrap().as_str(),
            Some("degraded")
        );
        let breakers = health.body.get("breakers").unwrap().as_arr().unwrap();
        assert_eq!(breakers.len(), 1);
        assert_eq!(breakers[0].get("open"), Some(&Json::Bool(true)));
        assert!(breakers[0].get("retry_in_ms").unwrap().as_u64().is_some());

        // While open: reloads answer 503 + Retry-After without rebuilding,
        // and the old generation keeps serving queries.
        let shed = svc.handle(&post(&[("wait", "1")]));
        assert_eq!(shed.status, 503, "{:?}", shed.body);
        assert_eq!(shed.retry_after, Some(1));
        assert!(shed
            .body
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("breaker open"));
        assert_eq!(svc.engine().get("default").unwrap().generation, 1);
        assert_eq!(svc.handle(&Request::get("/solve", &[])).status, 200);

        // Repair + wait out the backoff: the probe succeeds, health recovers.
        std::fs::write(&paths[0], &saved).unwrap();
        std::thread::sleep(Duration::from_millis(90));
        let ok = svc.handle(&post(&[("wait", "1")]));
        assert_eq!(ok.status, 200, "{:?}", ok.body);
        assert_eq!(svc.engine().get("default").unwrap().generation, 2);
        let health = svc.handle(&Request::get("/health", &[]));
        assert_eq!(health.body.get("status").unwrap().as_str(), Some("ok"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reload_that_loses_to_an_update_answers_409() {
        let svc = service(Boundary::Rrb);
        let post = |path: &str, params: &[(&str, &str)]| Request {
            method: "POST".into(),
            ..Request::get(path, params)
        };
        // The reload waits at its build's start while the update lands.
        let (reached_tx, reached_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        svc.engine()
            .hold_once("build.start", reached_tx, release_rx);
        std::thread::scope(|scope| {
            let reload = scope.spawn(|| svc.handle(&post("/reload", &[("wait", "1")])));
            reached_rx.recv().unwrap();
            let insert = svc.handle(&post(
                "/datasets/default/objects",
                &[("set", "a"), ("x", "33.25"), ("y", "44.5")],
            ));
            assert_eq!(insert.status, 200, "{:?}", insert.body);
            release_tx.send(()).unwrap();
            let reload = reload.join().unwrap();
            assert_eq!(reload.status, 409, "{:?}", reload.body);
        });
        // The update is what serves, and the lost race tripped no breaker.
        let served = svc.engine().get("default").unwrap();
        assert_eq!(served.generation, 2);
        let health = svc.handle(&Request::get("/health", &[]));
        assert_eq!(health.body.get("status").unwrap().as_str(), Some("ok"));
        assert!(svc.engine().breaker_reports().is_empty());
    }

    /// A CSV rebuild held between its compare-and-swap and its base save
    /// owns the dataset's writer, and is not served until the save is
    /// done; nothing a reader or a reload request does waits on it.
    #[test]
    fn readers_never_wait_on_the_writer() {
        let dir = std::env::temp_dir().join("molq_server_service_held_writer");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let write_layers = |seed: u64| {
            ["a", "b"]
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let path = dir.join(format!("{name}.csv"));
                    let set = pseudo_set(name, 1.0, 12, seed + i as u64);
                    let mut f = std::fs::File::create(&path).unwrap();
                    molq_datagen::csv::write_csv(&set, &mut f).unwrap();
                    path
                })
                .collect::<Vec<_>>()
        };
        let engine = Engine::new();
        engine
            .load(DatasetSpec {
                bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
                snapshot_dir: Some(dir.join("snap")),
                ..DatasetSpec::new("default", write_layers(61))
            })
            .unwrap();
        // New CSV contents, so the reload rebuilds and saves a new base.
        write_layers(71);
        let svc = Service::new(engine.clone());

        let (reached_tx, reached_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        engine.hold_once("publish.persist", reached_tx, release_rx);
        let reloader = engine.clone();
        let reload = std::thread::spawn(move || reloader.reload("default", None));
        reached_rx.recv().unwrap();

        let quick = |what: &str, start: Instant| {
            assert!(
                start.elapsed() < Duration::from_millis(100),
                "{what} waited {:?} on the writer",
                start.elapsed()
            );
        };
        let start = Instant::now();
        assert_eq!(engine.get("default").unwrap().generation, 1);
        quick("get", start);
        let start = Instant::now();
        assert_eq!(svc.handle(&Request::get("/health", &[])).status, 200);
        quick("/health", start);
        let start = Instant::now();
        assert_eq!(svc.handle(&Request::get("/stats", &[])).status, 200);
        quick("/stats", start);
        let start = Instant::now();
        assert!(engine.builds_in_flight().is_empty());
        quick("builds_in_flight", start);
        let start = Instant::now();
        assert!(engine.breaker_reports().is_empty());
        quick("breaker_reports", start);
        let start = Instant::now();
        let ticket = engine.reload_background("default", None).unwrap();
        quick("reload_background", start);
        assert_eq!(ticket.target_generation, 2);
        // The background build does wait, at the writer the rebuild holds;
        // derived from generation 1, it then loses to the rebuild.
        engine.wait_for_writer_waiters();

        release_tx.send(()).unwrap();
        assert_eq!(reload.join().unwrap().unwrap().generation, 2);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !engine.builds_in_flight().is_empty() {
            assert!(Instant::now() < deadline, "background build never cleared");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(engine.get("default").unwrap().generation, 2);
        assert!(engine.breaker_reports().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_update_routes_insert_delete_and_count_on_stats() {
        let svc = service(Boundary::Rrb);
        let n0 = svc.engine().get("default").unwrap().object_count();
        let post = |path: &str, params: &[(&str, &str)]| Request {
            method: "POST".into(),
            ..Request::get(path, params)
        };
        let delete = |path: &str, params: &[(&str, &str)]| Request {
            method: "DELETE".into(),
            ..Request::get(path, params)
        };

        // Insert publishes a patched generation with one more object.
        let resp = svc.handle(&post(
            "/datasets/default/objects",
            &[("set", "a"), ("x", "33.25"), ("y", "44.5"), ("w_o", "2")],
        ));
        assert_eq!(resp.status, 200, "{:?}", resp.body);
        assert_eq!(resp.body.get("applied").unwrap().as_str(), Some("insert"));
        assert_eq!(resp.body.get("generation").unwrap().as_u64(), Some(2));
        let snap = svc.engine().get("default").unwrap();
        assert_eq!(snap.object_count(), n0 + 1);

        // The patched snapshot serves immediately: locate at the inserted
        // point reports the new object in set "a"'s slot of the group.
        let resp = svc.handle(&Request::get("/locate", &[("x", "33.25"), ("y", "44.5")]));
        assert_eq!(resp.status, 200, "{:?}", resp.body);
        let group = resp.body.get("group").unwrap().as_arr().unwrap();
        assert!(group
            .iter()
            .any(|g| g.get("set").unwrap().as_str() == Some("a")
                && g.get("x").unwrap().as_f64() == Some(33.25)
                && g.get("y").unwrap().as_f64() == Some(44.5)));

        // Delete the inserted object (it was appended to set "a").
        let index = snap.query.sets[0].objects.len() - 1;
        let resp = svc.handle(&delete(
            &format!("/datasets/default/objects/{index}"),
            &[("set", "a")],
        ));
        assert_eq!(resp.status, 200, "{:?}", resp.body);
        assert_eq!(resp.body.get("applied").unwrap().as_str(), Some("remove"));
        assert_eq!(resp.body.get("generation").unwrap().as_u64(), Some(3));
        assert_eq!(svc.engine().get("default").unwrap().object_count(), n0);

        // Error paths: unknown dataset, unknown set, missing coordinates,
        // out-of-range delete index, duplicate insert.
        for (req, status) in [
            (
                post(
                    "/datasets/zz/objects",
                    &[("set", "a"), ("x", "1"), ("y", "2")],
                ),
                404,
            ),
            (
                post(
                    "/datasets/default/objects",
                    &[("set", "zz"), ("x", "1"), ("y", "2")],
                ),
                400,
            ),
            (post("/datasets/default/objects", &[("set", "a")]), 400),
            (
                delete("/datasets/default/objects/9999", &[("set", "a")]),
                400,
            ),
            (delete("/datasets/default/objects", &[("set", "a")]), 400),
            (post("/datasets/default/objects/3", &[("set", "a")]), 400),
            (Request::get("/datasets/default/nope", &[]), 404),
        ] {
            let resp = svc.handle(&req);
            assert_eq!(resp.status, status, "{req:?} => {:?}", resp.body);
            assert!(resp.body.get("error").is_some(), "{req:?}");
        }
        // Rejections never publish: still generation 3.
        assert_eq!(svc.engine().get("default").unwrap().generation, 3);

        // /stats exposes the update counters under "updates" and routes the
        // dataset paths to the "update" endpoint metrics.
        let stats = svc.handle(&Request::get("/stats", &[]));
        let updates = stats.body.get("updates").unwrap();
        assert_eq!(updates.get("applied").unwrap().as_u64(), Some(2));
        // Only the out-of-range delete got far enough to be rejected by the
        // engine; the other errors failed request validation first.
        assert_eq!(updates.get("rejected").unwrap().as_u64(), Some(1));
        assert_eq!(updates.get("replayed").unwrap().as_u64(), Some(0));
        assert!(updates.get("patch_time_us").is_some());
        let endpoint = stats.body.get("endpoints").unwrap().get("update").unwrap();
        assert!(endpoint.get("requests").unwrap().as_u64().unwrap() >= 8);
    }

    #[test]
    fn batch_dedupes_equal_keys_and_matches_single_endpoints() {
        let svc = service(Boundary::Rrb);

        // A numeric and a string "k" are the same dedup key (the raw text
        // round-trips through the JSON encoder), so 4 items cost 2 scans:
        // k=5 (thrice, once as the implicit default) and k=3.
        let resp = svc.handle(&Request::post_json(
            "/topk_batch",
            r#"[{"k": 5}, {"k": "5"}, {}, {"k": 3}]"#,
        ));
        assert_eq!(resp.status, 200, "{:?}", resp.body);
        let meta = resp.body.get("batch").unwrap();
        assert_eq!(meta.get("items").unwrap().as_u64(), Some(4));
        assert_eq!(meta.get("scans").unwrap().as_u64(), Some(2));
        assert_eq!(meta.get("amortized_items").unwrap().as_u64(), Some(2));
        let results = resp.body.get("results").unwrap().as_arr().unwrap();
        // Items 0-2 share one body; item 3 differs (k=3).
        assert_eq!(results[0].encode(), results[1].encode());
        assert_eq!(results[0].encode(), results[2].encode());
        assert_ne!(results[0].encode(), results[3].encode());

        // Each body equals the individual endpoint's, byte for byte.
        let single5 = svc.handle(&Request::get("/topk", &[("k", "5")]));
        let single3 = svc.handle(&Request::get("/topk", &[("k", "3")]));
        assert_eq!(
            results[0].get("body").unwrap().encode(),
            single5.body.encode()
        );
        assert_eq!(
            results[3].get("body").unwrap().encode(),
            single3.body.encode()
        );

        // Solve items ignore "k" entirely, so it can't fragment the keys.
        let resp = svc.handle(&Request::post_json(
            "/solve_batch",
            r#"[{}, {"k": 7}, {"dataset": "default"}]"#,
        ));
        assert_eq!(resp.status, 200, "{:?}", resp.body);
        let meta = resp.body.get("batch").unwrap();
        assert_eq!(meta.get("scans").unwrap().as_u64(), Some(1));

        // Failed items dedupe too (one 404 lookup for equal keys), and the
        // enclosing response stays 200.
        let resp = svc.handle(&Request::post_json(
            "/solve_batch",
            r#"[{"dataset": "zz"}, {"dataset": "zz"}]"#,
        ));
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body
                .get("batch")
                .unwrap()
                .get("scans")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        let results = resp.body.get("results").unwrap().as_arr().unwrap();
        let single = svc.handle(&Request::get("/solve", &[("dataset", "zz")]));
        assert_eq!(single.status, 404);
        for item in results {
            assert_eq!(item.get("status").unwrap().as_u64(), Some(404));
            assert_eq!(item.get("body").unwrap().encode(), single.body.encode());
        }

        // The cap is enforced before any evaluation.
        let huge = format!(
            "[{}]",
            std::iter::repeat_n("{}", 1025)
                .collect::<Vec<_>>()
                .join(",")
        );
        let resp = svc.handle(&Request::post_json("/solve_batch", &huge));
        assert_eq!(resp.status, 400, "{:?}", resp.body);
    }

    #[test]
    fn health_and_stats_reflect_traffic() {
        let svc = service(Boundary::Rrb);
        let health = svc.handle(&Request::get("/health", &[]));
        assert_eq!(health.body.get("status").unwrap().as_str(), Some("ok"));

        svc.handle(&Request::get("/locate", &[("x", "5"), ("y", "5")]));
        svc.handle(&Request::get("/locate", &[("x", "5"), ("y", "5")]));
        svc.handle(&Request::get("/locate", &[("x", "bad"), ("y", "5")]));
        let stats = svc.handle(&Request::get("/stats", &[]));
        let locate = stats.body.get("endpoints").unwrap().get("locate").unwrap();
        assert_eq!(locate.get("requests").unwrap().as_u64(), Some(3));
        assert_eq!(locate.get("errors").unwrap().as_u64(), Some(1));
        let cache = stats.body.get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(1));
        let datasets = stats.body.get("datasets").unwrap().as_arr().unwrap();
        assert_eq!(datasets.len(), 1);
        assert_eq!(datasets[0].get("sets").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn reload_epsilon_switches_modes_and_stamps_certificates() {
        let svc = service(Boundary::Rrb);
        let exact = svc.handle(&Request::get("/solve", &[]));
        assert_eq!(exact.status, 200, "{:?}", exact.body);
        let exact_cost = exact.body.get("cost").unwrap().as_f64().unwrap();
        assert_eq!(
            exact.body.get("certified_factor").unwrap().as_f64(),
            Some(1.0)
        );

        // A malformed epsilon is a 400, not a rebuild.
        let post = |params: &[(&str, &str)]| Request {
            method: "POST".into(),
            ..Request::get("/reload", params)
        };
        for bad in ["nan", "inf", "-0.5", "zebra"] {
            let resp = svc.handle(&post(&[("wait", "1"), ("epsilon", bad)]));
            assert_eq!(resp.status, 400, "epsilon={bad}: {:?}", resp.body);
        }

        // Synchronous reload into approximate mode.
        let resp = svc.handle(&post(&[("wait", "1"), ("epsilon", "0.25")]));
        assert_eq!(resp.status, 200, "{:?}", resp.body);
        assert_eq!(resp.body.get("mode").unwrap().as_str(), Some("approx"));
        assert_eq!(resp.body.get("epsilon").unwrap().as_f64(), Some(0.25));

        // /stats now reports the dataset as approximate with certificate
        // telemetry.
        let stats = svc.handle(&Request::get("/stats", &[]));
        let datasets = stats.body.get("datasets").unwrap().as_arr().unwrap();
        assert_eq!(datasets[0].get("mode").unwrap().as_str(), Some("approx"));
        let approx = stats.body.get("approx").unwrap().as_arr().unwrap();
        assert_eq!(approx.len(), 1);
        assert_eq!(approx[0].get("epsilon").unwrap().as_f64(), Some(0.25));
        assert!(approx[0].get("leaves").unwrap().as_u64().unwrap() > 0);

        // Approximate answers carry the (1+ε) certificate and bracket the
        // exact optimum.
        let solve = svc.handle(&Request::get("/solve", &[]));
        assert_eq!(solve.status, 200, "{:?}", solve.body);
        let factor = solve
            .body
            .get("certified_factor")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(factor <= 1.25 + 1e-12, "factor {factor}");
        let cost = solve.body.get("cost").unwrap().as_f64().unwrap();
        let lower = solve
            .body
            .get("cost_lower_bound")
            .unwrap()
            .as_f64()
            .unwrap();
        let slack = 1.0 + 1e-9;
        assert!(
            cost <= factor * exact_cost * slack,
            "{cost} vs {exact_cost}"
        );
        assert!(lower <= exact_cost * slack, "{lower} vs {exact_cost}");

        // An approximate base refuses live updates through the API.
        let upd = svc.handle(&Request {
            method: "POST".into(),
            ..Request::get(
                "/datasets/default/objects",
                &[("set", "a"), ("x", "1"), ("y", "1"), ("w_o", "2")],
            )
        });
        assert_eq!(upd.status, 400, "{:?}", upd.body);
        assert!(
            upd.body
                .get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("approximate"),
            "{:?}",
            upd.body
        );

        // `?epsilon=0` reloads back into exact mode and the certificate
        // collapses to 1.
        let back = svc.handle(&post(&[("wait", "1"), ("epsilon", "0")]));
        assert_eq!(back.status, 200, "{:?}", back.body);
        assert_eq!(back.body.get("mode").unwrap().as_str(), Some("exact"));
        let solve = svc.handle(&Request::get("/solve", &[]));
        assert_eq!(
            solve.body.get("certified_factor").unwrap().as_f64(),
            Some(1.0)
        );
        let round_trip = solve.body.get("cost").unwrap().as_f64().unwrap();
        assert_eq!(round_trip.to_bits(), exact_cost.to_bits());
        let stats = svc.handle(&Request::get("/stats", &[]));
        assert!(stats
            .body
            .get("approx")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
    }
}
