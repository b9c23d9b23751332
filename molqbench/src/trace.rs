//! `trace`: the per-layer table of one workload.
//!
//! The trace records spans from the bench's own code, around every call it
//! makes into a layer's public function (spans inside the program are a
//! later change). Three serving boundaries share one op id per request:
//!
//! 1. `http.request` — the op sent to a real `molq serve` child, exactly
//!    as in `run`;
//! 2. `service.handle` — the same op replayed through a fresh in-process
//!    `Service` over the same CSVs;
//! 3. the layer calls that handler makes (`index.locate`, `scan.wgd`,
//!    `scan.solve`, `scan.topk`, `incr.apply`), issued right after it on the
//!    snapshot it pinned. The bench cannot reach inside the handler, so
//!    these are *replay* children: a serving boundary's self time is the
//!    median difference between it and its children, not an interval
//!    subtraction.
//!
//! Build stages are genuinely nested: the bench composes a load from the
//! layers' public calls (`datagen.read_csv`, `voronoi.basic`,
//! `sweep.overlap`, `build.movd`, `arena.lower`, `index.grid`,
//! `index.assemble`, `arena.lanes`) under one `engine.load` span, and
//! checks that the children's self times add up to it within 5%. The
//! opaque `Engine` calls (`engine.load_traced`, `engine.load_persist`,
//! `engine.restore`, `engine.update`, ...) are timed as roots.
//!
//! Layers a workload's own traffic does not reach are probed on its data,
//! so every workload reports every layer: 200 locates and two solves and
//! top-ks on the served snapshot, the exact build stages, and 30 live
//! updates on an exact build of its sets (the approximate tier has no
//! update path). Spans stay in memory and are written as JSON at the end.

use crate::child::Server;
use crate::client::Conn;
use crate::run::{file_len, mode, primary, Ctx, Outcome, Prepared};
use crate::stats::{self, percentile, sorted, Rng};
use crate::traffic::{self, Drive, OpRecord, Tally};
use crate::verify::{self, TOPK};
use crate::workload::{Kind, Op, OpClass, Workload, Writer};
use molq_core::prelude::*;
use molq_server::engine::{DatasetSpec, Engine, LoadOutcome};
use molq_server::{Json, Service, ServiceConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

/// A nested chain whose children leave more than this share of the parent
/// uncovered is reported as a failed check.
const MAX_UNCOVERED: f64 = 0.05;

/// How a span relates to its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Inside the parent's interval.
    Nested,
    /// Replayed after the parent on the state it left (serving boundaries).
    Replay,
}

/// One span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id.
    pub id: u64,
    /// Layer call name.
    pub name: &'static str,
    /// The request this span serves, if any.
    pub op: Option<u64>,
    /// The enclosing (or replayed-after) span.
    pub parent: Option<(u64, Link)>,
    /// Start, since the trace epoch.
    pub start: Duration,
    /// End, since the trace epoch.
    pub end: Duration,
}

impl Span {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

/// The in-memory span log.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        op: Option<u64>,
        parent: Option<(u64, Link)>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            name,
            op,
            parent,
            start: start - self.epoch,
            end: end - self.epoch,
        });
        id
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: Option<u64>,
        parent: Option<(u64, Link)>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let v = f();
        let end = Instant::now();
        (v, self.push(name, op, parent, start, end))
    }

    /// Opens a parent span; [`Spans::close`] sets its end.
    pub fn open(&mut self, name: &'static str) -> u64 {
        let now = Instant::now();
        self.push(name, None, None, now, now)
    }

    /// Closes a span opened with [`Spans::open`].
    pub fn close(&mut self, id: u64) {
        self.spans[id as usize].end = self.epoch.elapsed();
    }

    /// Records a served request.
    pub fn request(&mut self, r: &OpRecord) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            name: "http.request",
            op: Some(r.id),
            parent: None,
            start: r.start,
            end: r.end,
        });
        id
    }

    /// Durations of every span called `name`, µs.
    pub fn us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Children of every span, by parent id.
    fn children(&self) -> HashMap<u64, Vec<&Span>> {
        let mut map: HashMap<u64, Vec<&Span>> = HashMap::new();
        for s in &self.spans {
            if let Some((p, _)) = s.parent {
                map.entry(p).or_default().push(s);
            }
        }
        map
    }

    /// Checks every nested chain: children lie inside their parent and
    /// leave at most [`MAX_UNCOVERED`] of it to the parent's self time.
    pub fn check_nesting(&self) -> Result<(), String> {
        for (parent, kids) in self.children() {
            let p = &self.spans[parent as usize];
            let nested: Vec<&&Span> = kids
                .iter()
                .filter(|k| k.parent.is_some_and(|(_, l)| l == Link::Nested))
                .collect();
            if nested.is_empty() {
                continue;
            }
            if let Some(k) = nested.iter().find(|k| k.start < p.start || k.end > p.end) {
                return Err(format!("span {} escapes its parent {}", k.name, p.name));
            }
            let covered: f64 = nested.iter().map(|k| k.us()).sum();
            let uncovered = (p.us() - covered) / p.us().max(1e-9);
            if !(0.0..=MAX_UNCOVERED).contains(&uncovered) {
                return Err(format!(
                    "{}: children cover {covered:.0} of {:.0} us ({:.1}% self time)",
                    p.name,
                    p.us(),
                    uncovered * 100.0
                ));
            }
        }
        Ok(())
    }

    /// Per replayed serving span, its duration minus its replay children's.
    fn replay_self_us(&self, name: &str, ops: &HashMap<u64, OpClass>, class: OpClass) -> Vec<f64> {
        let kids = self.children();
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op.and_then(|o| ops.get(&o)) == Some(&class))
            .map(|s| {
                s.us()
                    - kids
                        .get(&s.id)
                        .map_or(0.0, |k| k.iter().map(|c| c.us()).sum())
            })
            .collect()
    }

    /// The log as JSON: a table of names and one numeric row per span,
    /// `[id, name, op, parent, link, start_us, end_us]` (`name` indexes
    /// `names`; `link` is 0 for none, 1 nested, 2 replay; absent ids are
    /// -1). Rows of numbers keep the file small and quick to parse.
    pub fn to_json(&self) -> Json {
        let mut names: Vec<&str> = Vec::new();
        let rows = self
            .spans
            .iter()
            .map(|s| {
                let name = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                    names.push(s.name);
                    names.len() - 1
                });
                let id = |v: Option<u64>| v.map_or(Json::Num(-1.0), Json::from);
                let link = match s.parent {
                    None => 0u64,
                    Some((_, Link::Nested)) => 1,
                    Some((_, Link::Replay)) => 2,
                };
                Json::Arr(vec![
                    Json::from(s.id),
                    Json::from(name),
                    id(s.op),
                    id(s.parent.map(|(p, _)| p)),
                    Json::from(link),
                    Json::from(s.start.as_secs_f64() * 1e6),
                    Json::from(s.end.as_secs_f64() * 1e6),
                ])
            })
            .collect::<Vec<_>>();
        Json::obj()
            .set(
                "fields",
                ["id", "name", "op", "parent", "link", "start_us", "end_us"]
                    .map(Json::from)
                    .to_vec(),
            )
            .set(
                "names",
                names.into_iter().map(Json::from).collect::<Vec<_>>(),
            )
            .set("spans", rows)
    }
}

/// `/stats` counters read around the traced window.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    cache_hits: f64,
    cache_misses: f64,
    scans: f64,
    groups_evaluated: f64,
    groups_pruned: f64,
    scan_us: f64,
    stalls: f64,
    shed: f64,
}

impl Counters {
    fn read(server: &Server) -> Result<Counters, String> {
        let body = Conn::connect(server.addr())?.get("/stats")?.json()?;
        let n = |path: &[&str]| -> Result<f64, String> {
            let mut v = &body;
            for k in path {
                v = v
                    .get(k)
                    .ok_or_else(|| format!("/stats lacks {}", path.join(".")))?;
            }
            v.as_f64()
                .ok_or_else(|| format!("/stats {} is not a number", path.join(".")))
        };
        Ok(Counters {
            cache_hits: n(&["cache", "hits"])?,
            cache_misses: n(&["cache", "misses"])?,
            scans: n(&["scan", "scans"])?,
            groups_evaluated: n(&["scan", "groups_evaluated"])?,
            groups_pruned: n(&["scan", "groups_pruned"])?,
            scan_us: n(&["scan", "scan_time_us"])?,
            stalls: n(&["transport", "read_stalls"])? + n(&["transport", "write_stalls"])?,
            shed: n(&["resilience", "queue_shed"])? + n(&["transport", "overload_shed"])?,
        })
    }

    fn minus(self, b: Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - b.cache_hits,
            cache_misses: self.cache_misses - b.cache_misses,
            scans: self.scans - b.scans,
            groups_evaluated: self.groups_evaluated - b.groups_evaluated,
            groups_pruned: self.groups_pruned - b.groups_pruned,
            scan_us: self.scan_us - b.scan_us,
            stalls: self.stalls - b.stalls,
            shed: self.shed - b.shed,
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

fn pct(v: &[f64], q: f64) -> f64 {
    percentile(&sorted(v.to_vec()), q).unwrap_or(0.0)
}

fn med(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(0.0)
}

/// The dataset spec the in-process engine loads.
fn spec(
    csvs: &[PathBuf],
    bounds: molq_geom::Mbr,
    dir: Option<PathBuf>,
    build: BuildMode,
) -> DatasetSpec {
    DatasetSpec {
        bounds: Some(bounds),
        build,
        snapshot_dir: dir,
        ..DatasetSpec::new("default", csvs.to_vec())
    }
}

/// The object sets (and their CSVs) the exact-tier probes run on: the
/// workload's own, or for the approximate tier its points with uniform
/// object weights: the exact tier's incremental path needs uniform
/// weights, and an exact build of these Zipf-weighted layers panics in
/// `LocateGrid::build`.
fn exact_tier(ctx: &Ctx, p: &Prepared) -> Result<(Vec<PathBuf>, Vec<ObjectSet>), String> {
    if p.w.epsilon.is_none() {
        return Ok((p.data.csvs.clone(), p.data.sets.clone()));
    }
    let dir = ctx.work.join("data-exact");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut csvs = Vec::new();
    let mut sets = Vec::new();
    for set in &p.data.sets {
        let w_t = set.objects.first().map_or(1.0, |o| o.w_t);
        let uniform =
            ObjectSet::uniform(&set.name, w_t, set.objects.iter().map(|o| o.loc).collect());
        let path = dir.join(format!("{}.csv", set.name));
        let f = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        molq_datagen::csv::write_csv(&uniform, f)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        csvs.push(path);
        sets.push(uniform);
    }
    Ok((csvs, sets))
}

fn engine(ctx: &Ctx) -> Engine {
    let e = Engine::new();
    e.set_exec_config(ctx.exec());
    e
}

/// Traces one workload; returns its per-layer metrics and, when
/// `keep_spans`, the span log as JSON.
pub fn trace(
    ctx: &Ctx,
    w: &Workload,
    seed: u64,
    seconds: f64,
    keep_spans: bool,
) -> Result<(Outcome, Option<Json>), String> {
    let p = Prepared::new(ctx, w, seed)?;
    let mut out = Outcome {
        workload: w.name.to_string(),
        ..Outcome::default()
    };
    let mut spans = Spans::new(Instant::now());
    let names = p.data.set_names();
    let class = primary(w);
    let exec = ctx.exec();
    let (untraced, traced, counters, cpu, rss_setup) =
        http_pass(ctx, &p, &mut out, spans.epoch, seconds)?;
    let http_ids: Vec<u64> = traced
        .records
        .iter()
        .filter(|r| r.status == 200)
        .map(|r| spans.request(r))
        .collect();
    let ops: HashMap<u64, OpClass> = traced
        .records
        .iter()
        .map(|r| (r.id, r.op.class()))
        .collect();

    // Engine loads: in memory, persisting to an empty directory, restoring.
    let build = mode(w);
    for _ in 0..2 {
        let (r, _) = spans.time("engine.load_traced", None, None, || {
            engine(ctx).load_traced(spec(&p.data.csvs, p.data.bounds, None, build))
        });
        r?;
    }
    let mut served = None;
    for i in 0..2 {
        let dir = ctx.work.join(format!("engine-{i}"));
        let e = engine(ctx);
        let (r, _) = spans.time("engine.load_persist", None, None, || {
            e.load_traced(spec(&p.data.csvs, p.data.bounds, Some(dir.clone()), build))
        });
        out.check(expect_outcome(r?.1, LoadOutcome::BuiltFromCsv));
        served = Some((e, dir));
    }
    let (svc_engine, dir) = served.expect("two persisting loads ran");
    let mut decode = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let e = engine(ctx);
        let (r, _) = spans.time("engine.restore", None, None, || {
            e.load_traced(spec(&p.data.csvs, p.data.bounds, Some(dir.clone()), build))
        });
        out.check(expect_outcome(r?.1, LoadOutcome::LoadedFromSnapshot));
        let a = e.arena_stats();
        decode.0.push(a.last_restore_copy_micros as f64);
        decode.1.push(a.last_restore_validate_micros as f64);
    }
    let snapshot_bytes = file_len(&molq_server::engine::snapshot_path(&dir, "default"));

    // The service pass: the traced ops, replayed in process.
    let svc = Service::with_config(
        svc_engine,
        ServiceConfig {
            request_timeout: Duration::from_secs(10),
            threads: ctx.nproc,
        },
    );
    let mut live = match w.kind {
        Kind::Churn => Some(
            LiveMovd::build(p.data.sets.clone(), p.data.bounds, Boundary::Rrb, exec)
                .map_err(|e| e.to_string())?,
        ),
        _ => None,
    };
    let mut candidates = Vec::new();
    let mut patches = Vec::new();
    let never = CancelToken::never();
    for (rec, http) in traced
        .records
        .iter()
        .filter(|r| r.status == 200)
        .zip(&http_ids)
    {
        let op = Some(rec.id);
        let (resp, handle) = spans.time("service.handle", op, Some((*http, Link::Replay)), || {
            svc.handle(&rec.op.request(&names))
        });
        let under = Some((handle, Link::Replay));
        if resp.status != 200 {
            out.check(Err(format!(
                "in-process replay of {:?}: HTTP {}",
                rec.op, resp.status
            )));
            continue;
        }
        let snap = svc
            .engine()
            .get("default")
            .ok_or("the replay dataset vanished")?;
        let body = &resp.body;
        let replayed: Result<(), String> = match &rec.op {
            Op::Locate(at) => {
                if body.get("cached") == Some(&Json::Bool(true)) {
                    Ok(())
                } else {
                    let snapped = snap.quantize(*at).1;
                    let (ids, _) = spans.time("index.locate", op, under, || {
                        snap.index.locate_candidate_ids(snapped)
                    });
                    candidates.push(ids.len() as f64);
                    let (best, _) = spans.time("scan.wgd", op, under, || {
                        ids.iter()
                            .map(|&id| (wgd(snapped, &snap.query, snap.index.group(id)), id))
                            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                    });
                    let cost = body.get("cost").and_then(Json::as_f64);
                    match best {
                        Some((c, _)) if Some(c) == cost => Ok(()),
                        other => Err(format!("replayed locate {other:?}, handler {cost:?}")),
                    }
                }
            }
            Op::Solve => {
                let (a, _) = spans.time("scan.solve", op, under, || {
                    solve_arena_cancellable_with(
                        &snap.query,
                        snap.index.arena(),
                        snap.lanes(),
                        &never,
                        exec,
                    )
                });
                let a = a.map_err(|e| e.to_string())?;
                verify::check_solve(
                    body,
                    &a.with_certified_factor(snap.build_meta.certified_factor()),
                    &snap.query,
                )
            }
            Op::Topk(k) => {
                let (a, _) = spans.time("scan.topk", op, under, || {
                    solve_topk_arena_cancellable_with(
                        &snap.query,
                        snap.index.arena(),
                        snap.lanes(),
                        *k,
                        &never,
                        exec,
                    )
                });
                let a = a.map_err(|e| e.to_string())?;
                verify::check_topk(
                    body,
                    &a.with_certified_factor(snap.build_meta.certified_factor()),
                )
            }
            Op::Insert { .. } | Op::Remove { .. } => {
                let l = live.as_mut().expect("updates only in churn");
                let upd = rec.op.update().expect("an update op");
                let (r, _) = spans.time("incr.apply", op, under, || l.apply(&upd));
                r.map(|s| patches.push(s)).map_err(|e| e.to_string())
            }
        };
        out.check(replayed);
    }

    // Probes of the serving layers on the served snapshot.
    let snap = svc
        .engine()
        .get("default")
        .ok_or("the replay dataset vanished")?;
    let mut rng = Rng::derive(seed, 300);
    let b = p.data.bounds;
    for _ in 0..if ctx.smoke { 20 } else { 200 } {
        let at = molq_geom::Point::new(
            b.min_x + rng.next_f64() * b.width(),
            b.min_y + rng.next_f64() * b.height(),
        );
        let snapped = snap.quantize(at).1;
        let (ids, _) = spans.time("index.locate", None, None, || {
            snap.index.locate_candidate_ids(snapped)
        });
        candidates.push(ids.len() as f64);
        spans.time("scan.wgd", None, None, || {
            ids.iter()
                .map(|&id| wgd(snapped, &snap.query, snap.index.group(id)))
                .fold(f64::INFINITY, f64::min)
        });
    }
    for _ in 0..2 {
        let (r, _) = spans.time("scan.solve", None, None, || {
            solve_arena_cancellable_with(
                &snap.query,
                snap.index.arena(),
                snap.lanes(),
                &never,
                exec,
            )
        });
        r.map_err(|e| e.to_string())?;
        let (r, _) = spans.time("scan.topk", None, None, || {
            solve_topk_arena_cancellable_with(
                &snap.query,
                snap.index.arena(),
                snap.lanes(),
                TOPK,
                &never,
                exec,
            )
        });
        r.map_err(|e| e.to_string())?;
    }
    drop(snap);
    drop(svc);

    let (exact_csvs, exact_sets) = exact_tier(ctx, &p)?;
    let chain = build_chain(ctx, &p, &exact_sets, &mut spans, &mut out)?;
    let updates = update_probe(
        ctx,
        &p,
        (&exact_csvs, &exact_sets),
        &mut spans,
        &mut out,
        &mut patches,
    )?;
    out.check(spans.check_nesting());

    // The per-layer table.
    let http = percentile_of(&traced.records, class, 0.5);
    let handle = p50_of(&spans, "service.handle", &ops, class);
    let window_p50 = |t: &Tally| {
        percentile(
            &sorted(t.latency_us.get(&class).cloned().unwrap_or_default()),
            0.5,
        )
        .unwrap_or(0.0)
    };
    let n_primary = traced.ok(class);
    let (resp_n, resp_bytes) = traced.bytes.get(&class).copied().unwrap_or((0, 0));
    let all_http: f64 = traced
        .records
        .iter()
        .map(|r| (r.end - r.start).as_secs_f64() * 1e6)
        .sum();
    let inc = spans.us("incr.apply");
    let upd = spans.us("engine.update");
    let t = |name: &str| spans.us(name);
    let sum_s = |names: &[&str]| names.iter().map(|n| t(n).iter().sum::<f64>()).sum::<f64>() / 1e6;

    out.push("http.request_us_p50", http, n_primary, format!("{class:?}"));
    out.push(
        "http.self_us_p50",
        http - handle,
        n_primary,
        "http.request - service.handle medians",
    );
    out.push(
        "http.stalls",
        counters.stalls,
        1,
        "/stats transport read+write stalls",
    );
    out.push(
        "http.shed",
        counters.shed,
        1,
        "/stats queue + overload shed",
    );
    out.push(
        "client.reconnects",
        (traced.reconnects + untraced.reconnects) as f64,
        1,
        "",
    );
    out.push(
        "service.handle_us_p50",
        handle,
        n_primary,
        format!("{class:?}"),
    );
    out.push(
        "service.self_us_p50",
        med(&spans.replay_self_us("service.handle", &ops, class)),
        n_primary,
        "handle - replayed layer calls",
    );
    out.push(
        "service.response_bytes",
        ratio(resp_bytes as f64, resp_n as f64),
        resp_n as usize,
        "mean per response",
    );
    out.push(
        "cache.hit_ratio",
        ratio(
            counters.cache_hits,
            counters.cache_hits + counters.cache_misses,
        ),
        (counters.cache_hits + counters.cache_misses) as usize,
        "/stats cache delta",
    );
    out.push(
        "engine.load_s",
        med(&t("engine.load_traced")) / 1e6,
        2,
        "Engine::load_traced, no snapshot dir",
    );
    out.push(
        "engine.persist_s",
        (med(&t("engine.load_persist")) - med(&t("engine.load_traced"))) / 1e6,
        2,
        "empty snapshot dir - none",
    );
    out.push(
        "engine.restore_s",
        med(&t("engine.restore")) / 1e6,
        2,
        "LoadedFromSnapshot, empty journal",
    );
    out.push(
        "engine.replay_s",
        (med(&t("engine.restore_journal")) - med(&t("engine.restore_base"))) / 1e6,
        2,
        format!("{}-record journal - none", updates.applied),
    );
    out.push(
        "engine.update_us_p50",
        pct(&upd, 0.5),
        upd.len(),
        "apply_update, durable",
    );
    out.push(
        "engine.update_us_p95",
        pct(&upd, 0.95),
        upd.len(),
        "apply_update, durable",
    );
    out.push(
        "engine.journal_us_p50",
        pct(&upd, 0.5) - pct(&t("engine.update_mem"), 0.5),
        upd.len(),
        "durable - in-memory",
    );
    out.push(
        "index.build_s",
        sum_s(&["index.grid", "index.assemble"]),
        1,
        "locate grid + index assembly",
    );
    out.push(
        "index.locate_us_p50",
        pct(&t("index.locate"), 0.5),
        t("index.locate").len(),
        "locate_candidate_ids",
    );
    out.push(
        "index.candidates_mean",
        mean(&candidates),
        candidates.len(),
        "",
    );
    out.push(
        "scan.solve_us_p50",
        pct(&t("scan.solve"), 0.5),
        t("scan.solve").len(),
        "solve_arena_cancellable_with",
    );
    out.push(
        "scan.topk_us_p50",
        pct(&t("scan.topk"), 0.5),
        t("scan.topk").len(),
        "solve_topk_arena_cancellable_with",
    );
    out.push(
        "scan.wgd_us_p50",
        pct(&t("scan.wgd"), 0.5),
        t("scan.wgd").len(),
        "wgd over the candidates",
    );
    out.push(
        "scan.groups_per_op",
        ratio(counters.groups_evaluated, counters.scans),
        counters.scans as usize,
        "/stats scan delta",
    );
    out.push(
        "scan.pruned_ratio",
        ratio(counters.groups_pruned, counters.groups_evaluated),
        counters.scans as usize,
        "/stats scan delta",
    );
    out.push(
        "scan.busy_share",
        ratio(counters.scan_us, all_http),
        traced.records.len(),
        "server scan time / client request time",
    );
    out.push(
        "arena.lower_s",
        sum_s(&["arena.lower"]),
        1,
        "MovdArena::from_movd",
    );
    out.push(
        "arena.lanes_us",
        pct(&t("arena.lanes"), 0.5),
        1,
        "FwLanes::from_arena",
    );
    out.push(
        "arena.bytes",
        chain.arena_bytes as f64,
        1,
        "buffer_bytes().total()",
    );
    let seg: Vec<f64> = patches.iter().map(|s| s.segments_copied as f64).collect();
    let cells: Vec<f64> = patches.iter().map(|s| s.cells_reclipped as f64).collect();
    let ovrs: Vec<f64> = patches.iter().map(|s| s.ovrs_rederived as f64).collect();
    out.push(
        "arena.segments_copied_per_update",
        mean(&seg),
        seg.len(),
        "PatchStats",
    );
    out.push(
        "incr.apply_us_p50",
        pct(&inc, 0.5),
        inc.len(),
        "LiveMovd::apply",
    );
    out.push(
        "incr.apply_us_p95",
        pct(&inc, 0.95),
        inc.len(),
        "LiveMovd::apply",
    );
    out.push(
        "incr.cells_reclipped_mean",
        mean(&cells),
        cells.len(),
        "PatchStats",
    );
    out.push(
        "incr.ovrs_rederived_mean",
        mean(&ovrs),
        ovrs.len(),
        "PatchStats",
    );
    out.push(
        "incr.full_rebuilds",
        updates.full_rebuilds as f64,
        updates.applied,
        "UpdateOutcome",
    );
    out.push(
        "voronoi.basic_s",
        sum_s(&["voronoi.basic"]),
        p.data.sets.len(),
        "Movd::basic_with per layer",
    );
    out.push(
        "sweep.overlap_s",
        sum_s(&["sweep.overlap", "sweep.canonicalize"]),
        p.data.sets.len(),
        "overlap_with fold + canonical order",
    );
    out.push(
        "build.movd_s",
        sum_s(&["build.movd"]),
        1,
        format!("build_movd, {build:?}"),
    );
    out.push(
        "build.cells_visited",
        chain.meta.cells_visited as f64,
        1,
        "BuildMeta",
    );
    out.push("build.leaves", chain.meta.leaves as f64, 1, "BuildMeta");
    out.push("build.ovrs", chain.ovrs as f64, 1, "");
    out.push("store.snapshot_bytes", snapshot_bytes as f64, 1, "");
    out.push(
        "store.decode_copy_us",
        med(&decode.0),
        decode.0.len(),
        "arena_stats after restore",
    );
    out.push(
        "store.decode_validate_us",
        med(&decode.1),
        decode.1.len(),
        "arena_stats after restore",
    );
    out.push(
        "store.journal_bytes_per_update",
        updates.journal_bytes_per_update,
        updates.applied,
        "",
    );
    out.push("server.cpu_s", cpu, 1, "traced window, utime+stime");
    out.push("server.rss_setup_mb", rss_setup, 1, "VmHWM after set-up");
    out.push(
        "trace.overhead_us_p50",
        window_p50(&traced) - window_p50(&untraced),
        n_primary,
        "traced - untraced window p50",
    );
    out.fact("traced_ops", traced.records.len());
    out.fact("spans", spans.spans.len());
    Ok((out, keep_spans.then(|| spans.to_json())))
}

fn expect_outcome(got: LoadOutcome, want: LoadOutcome) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("engine load returned {got:?}, expected {want:?}"))
    }
}

fn percentile_of(records: &[OpRecord], class: OpClass, q: f64) -> f64 {
    let v: Vec<f64> = records
        .iter()
        .filter(|r| r.status == 200 && r.op.class() == class)
        .map(|r| (r.end - r.start).as_secs_f64() * 1e6)
        .collect();
    pct(&v, q)
}

fn p50_of(spans: &Spans, name: &str, ops: &HashMap<u64, OpClass>, class: OpClass) -> f64 {
    let v: Vec<f64> = spans
        .spans
        .iter()
        .filter(|s| s.name == name && s.op.and_then(|o| ops.get(&o)) == Some(&class))
        .map(Span::us)
        .collect();
    pct(&v, 0.5)
}

/// The HTTP pass: a fresh child, warm-up, then a traced window followed by
/// an untraced one of the same length (the difference is the tracing
/// overhead). Returns both tallies, the `/stats` delta and CPU seconds of
/// the traced window, and the peak RSS after set-up.
fn http_pass(
    ctx: &Ctx,
    p: &Prepared,
    out: &mut Outcome,
    epoch: Instant,
    seconds: f64,
) -> Result<(Tally, Tally, Counters, f64, f64), String> {
    let dir = ctx.work.join("snap-http");
    let server = p.cold_start(ctx, out, &dir)?;
    let rss_setup = server.peak_rss_mb()?;
    out.fact("transport", &server.banner.transport);
    out.fact("threads", server.banner.threads);
    out.fact("ovrs", server.banner.ovrs);
    let names = p.data.set_names();
    let ids = AtomicU64::new(0);
    let mut d = Drive {
        addr: server.addr(),
        set_names: &names,
        checks: &p.checks,
        trace: false,
        epoch,
        ids: &ids,
    };
    let mut readers = p.readers();
    p.warm_up(&d, &mut readers, out)?;
    let mut writer = Writer::new(&p.data.sets, p.data.bounds, p.seed, 0);
    let churn = p.w.kind == Kind::Churn;
    let half = seconds * 0.25;
    let before = Counters::read(&server)?;
    let cpu0 = server.cpu_seconds()?;
    d.trace = true;
    let traced = traffic::window(
        &d,
        &mut readers,
        churn.then_some((&mut writer, p.w.update_rate)),
        half,
    )?;
    let cpu = server.cpu_seconds()? - cpu0;
    let counters = Counters::read(&server)?.minus(before);
    d.trace = false;
    let untraced = traffic::window(
        &d,
        &mut readers,
        churn.then_some((&mut writer, p.w.update_rate)),
        half,
    )?;
    out.count(&traced);
    out.count(&untraced);
    Ok((untraced, traced, counters, cpu, rss_setup))
}

/// What the composed build chain produced.
struct Chain {
    meta: BuildMeta,
    ovrs: usize,
    arena_bytes: usize,
}

/// What the update probe did.
struct Updates {
    applied: usize,
    full_rebuilds: usize,
    journal_bytes_per_update: f64,
}

/// The build composed from layer calls under one `engine.load` span. The
/// exact stages (`voronoi.basic`, `sweep.overlap`) fold `exact_sets`.
fn build_chain(
    ctx: &Ctx,
    p: &Prepared,
    exact_sets: &[ObjectSet],
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<Chain, String> {
    let exec = ctx.exec();
    let bounds = p.data.bounds;
    let root = spans.open("engine.load");
    let under = Some((root, Link::Nested));
    let mut sets = Vec::new();
    for (path, set) in p.data.csvs.iter().zip(&p.data.sets) {
        let (r, _) = spans.time("datagen.read_csv", None, under, || {
            std::fs::File::open(path)
                .map_err(|e| e.to_string())
                .and_then(|f| molq_datagen::csv::read_csv(&set.name, f))
        });
        sets.push(r?);
    }
    let mut fold = Movd::identity(bounds);
    for (i, set) in exact_sets.iter().enumerate() {
        let (basic, _) = spans.time("voronoi.basic", None, under, || {
            Movd::basic_with(set, i, bounds, exec)
        });
        let basic = basic.map_err(|e| e.to_string())?;
        // Freeing the operands is part of the stage's cost.
        spans.time("sweep.overlap", None, under, || {
            let next = fold.overlap_with(&basic, Boundary::Rrb, exec);
            drop(basic);
            fold = next;
        });
    }
    spans.time("sweep.canonicalize", None, under, || fold.canonicalize());
    let build = mode(&p.w);
    let (built, _) = spans.time("build.movd", None, under, || {
        build_movd(
            &sets,
            bounds,
            Boundary::Rrb,
            &BuildPlan::for_mode(build),
            exec,
        )
    });
    let (movd, meta) = built.map_err(|e| e.to_string())?;
    let (arena, _) = spans.time("arena.lower", None, under, || MovdArena::from_movd(&movd));
    let (grid, _) = spans.time("index.grid", None, under, || LocateGrid::build(&movd));
    let (index, _) = spans.time("index.assemble", None, under, || {
        MovdIndex::from_arena(arena, grid)
    });
    let index = index?;
    let query = verify::serving_query(sets, bounds);
    spans.time("arena.lanes", None, under, || {
        FwLanes::from_arena(&query, index.arena());
    });
    spans.close(root);
    if !build.is_approx() {
        out.check(if movd_bits_eq(&fold, &movd) {
            Ok(())
        } else {
            Err("the basic_with/overlap_with fold differs from build_movd".into())
        });
    }
    out.check(if index.len() == p.reference.ovrs {
        Ok(())
    } else {
        Err(format!(
            "composed build has {} OVRs, reference {}",
            index.len(),
            p.reference.ovrs
        ))
    });
    Ok(Chain {
        meta,
        ovrs: movd.len(),
        arena_bytes: index.arena().buffer_bytes().total(),
    })
}

/// Live updates on an exact build of the workload's sets: through a
/// durable engine, an in-memory engine, and a bare `LiveMovd`, then
/// restarts with and without the journal they left.
fn update_probe(
    ctx: &Ctx,
    p: &Prepared,
    (csvs, sets): (&[PathBuf], &[ObjectSet]),
    spans: &mut Spans,
    out: &mut Outcome,
    patches: &mut Vec<PatchStats>,
) -> Result<Updates, String> {
    let n = if ctx.smoke { 6 } else { 30 };
    let dir = ctx.work.join("engine-updates");
    let exact = |d: Option<PathBuf>| spec(csvs, p.data.bounds, d, BuildMode::Exact);
    let durable = engine(ctx);
    durable.load_traced(exact(Some(dir.clone())))?;
    let memory = engine(ctx);
    memory.load_traced(exact(None))?;
    for _ in 0..2 {
        let (r, _) = spans.time("engine.restore_base", None, None, || {
            engine(ctx).load_traced(exact(Some(dir.clone())))
        });
        out.check(expect_outcome(r?.1, LoadOutcome::LoadedFromSnapshot));
    }
    let mut live = LiveMovd::build(sets.to_vec(), p.data.bounds, Boundary::Rrb, ctx.exec())
        .map_err(|e| e.to_string())?;
    let mut writer = Writer::new(sets, p.data.bounds, p.seed, 1);
    let journal = molq_store::journal_path(&dir, "default");
    let mut full_rebuilds = 0;
    let mut first_len = 0;
    for i in 0..n {
        let op = writer.next_op();
        let upd = op.update().expect("the writer only makes updates");
        let (r, _) = spans.time("engine.update", None, None, || {
            durable.apply_update("default", &upd)
        });
        full_rebuilds += usize::from(r.map_err(|e| e.to_string())?.full_rebuild);
        let (r, _) = spans.time("engine.update_mem", None, None, || {
            memory.apply_update("default", &upd)
        });
        r.map_err(|e| e.to_string())?;
        let (r, _) = spans.time("incr.apply", None, None, || live.apply(&upd));
        patches.push(r.map_err(|e| e.to_string())?);
        writer.applied(&op);
        if i == 0 {
            first_len = file_len(&journal);
        }
    }
    let per_update = (file_len(&journal) - first_len) as f64 / (n - 1).max(1) as f64;
    for _ in 0..2 {
        let e = engine(ctx);
        let (r, _) = spans.time("engine.restore_journal", None, None, || {
            e.load_traced(exact(Some(dir.clone())))
        });
        out.check(expect_outcome(r?.1, LoadOutcome::LoadedFromSnapshot));
        let snap = e.get("default").ok_or("restored dataset missing")?;
        out.check(
            if snap.index.len() == live.index().len()
                && snap.object_count() == writer.sets.iter().map(|s| s.len()).sum::<usize>()
            {
                Ok(())
            } else {
                Err("journal replay does not reproduce the patched diagram".into())
            },
        );
    }
    Ok(Updates {
        applied: n,
        full_rebuilds,
        journal_bytes_per_update: per_update,
    })
}
