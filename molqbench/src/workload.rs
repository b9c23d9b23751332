//! The four workloads: their data, their traffic, and why each exists.
//!
//! * `locate_skewed` — the serving hot path. Transport, parse, the locate
//!   cache and point location do the work; no Fermat–Weber solve runs. The
//!   probes follow Zipf(1.0) over 65,536 points, 16× the server's
//!   4,096-entry locate cache, so the working set only partly fits it.
//! * `optimum` — nearly all time is the group scan (Algorithm 5 over every
//!   OVR); point location and the cache sit idle and every op shares one
//!   answer.
//! * `churn` — writes beside reads: every update patches the diagram,
//!   fsyncs the journal and publishes a generation, which invalidates the
//!   locate cache and the per-snapshot scan lanes. A read-side speedup that
//!   makes publish or replay costlier shows here.
//! * `approx_scale` — set-up heavy: the (1+ε) quadtree tier's build,
//!   snapshot save and restore, and a solve over an arena many times the
//!   size of the per-core L2 cache.
//!
//! Inputs depend only on the seed; the server receives only the generated
//! CSVs.

use crate::stats::{Rng, Zipf};
use molq_core::{ObjectSet, SpatialObject, Update};
use molq_datagen::csv::{read_csv, write_csv};
use molq_datagen::geonames::{layer_object_set, layer_object_set_zipf};
use molq_datagen::GeoLayer;
use molq_geom::{Mbr, Point};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The layers every workload serves, with their type weights.
const LAYERS: [(GeoLayer, f64); 3] = [
    (GeoLayer::Schools, 1.0),
    (GeoLayer::Streams, 1.5),
    (GeoLayer::PopulatedPlaces, 2.0),
];

/// The search space (the CLI's default generation space).
pub fn bounds() -> Mbr {
    Mbr::new(0.0, 0.0, 1_000_000.0, 1_000_000.0)
}

/// Which traffic a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 100% `/locate`, Zipf-skewed.
    LocateSkewed,
    /// `/solve` and `/topk?k=5`, alternating.
    Optimum,
    /// Open-loop live updates plus a `/locate`:`/solve` 19:1 reader.
    Churn,
    /// `/solve` and `/topk?k=5` on the approximate tier.
    ApproxScale,
}

/// A workload definition.
#[derive(Debug, Clone)]
pub struct Workload {
    /// What traffic it drives.
    pub kind: Kind,
    /// Its name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Objects per layer.
    pub per_layer: usize,
    /// `--epsilon` (approximate tier) or `None` (exact).
    pub epsilon: Option<f64>,
    /// Zipf exponent of per-object weights, or `None` for uniform weights.
    pub weight_zipf: Option<f64>,
    /// Closed-loop reader connections. Only `locate_skewed` uses two: a
    /// solve already runs on every core, and two closed loops of solves
    /// drift in and out of phase, which spreads their median between the
    /// solo and the shared-core latency from run to run.
    pub readers: usize,
    /// The tail percentile reported as `lat_tail_us`: the highest one with
    /// at least ten samples beyond it at the default window length.
    pub tail_q: f64,
    /// Cold starts timed for `setup_s`.
    pub setup_repeats: usize,
    /// Restarts timed for `restart_s`.
    pub restart_repeats: usize,
    /// Untimed warm-up before the window, seconds (closed-loop workloads);
    /// the approximate tier warms with one solve and one top-k instead.
    pub warmup_s: f64,
    /// Distinct locate probe points.
    pub points: usize,
    /// Live updates per second (churn's writer).
    pub update_rate: f64,
}

/// Looks a workload up by name; `smoke` shrinks data and repeats so a full
/// pass takes seconds (for tests), keeping the traffic shape.
pub fn workload(name: &str, smoke: bool) -> Option<Workload> {
    let base = Workload {
        kind: Kind::Optimum,
        name: "optimum",
        per_layer: 800,
        epsilon: None,
        weight_zipf: None,
        readers: 1,
        tail_q: 0.90,
        setup_repeats: 5,
        // Restoring a few MB takes ~10 ms, within the jitter of starting a
        // process on this host: the median needs many restarts.
        restart_repeats: 9,
        warmup_s: 2.0,
        points: 65_536,
        update_rate: 0.0,
    };
    let mut w = match name {
        "locate_skewed" => Workload {
            kind: Kind::LocateSkewed,
            name: "locate_skewed",
            per_layer: 2_000,
            readers: 2,
            tail_q: 0.99,
            ..base
        },
        "optimum" => base,
        "churn" => Workload {
            kind: Kind::Churn,
            name: "churn",
            tail_q: 0.95,
            // Each restart replays the window's ~400 journal records.
            restart_repeats: 3,
            update_rate: 20.0,
            ..base
        },
        "approx_scale" => Workload {
            kind: Kind::ApproxScale,
            name: "approx_scale",
            per_layer: 4_000,
            epsilon: Some(0.5),
            weight_zipf: Some(0.5),
            tail_q: 0.75,
            setup_repeats: 3,
            ..base
        },
        _ => return None,
    };
    if smoke {
        w.per_layer = match w.kind {
            Kind::ApproxScale => 400,
            _ => 120,
        };
        w.setup_repeats = 2;
        w.restart_repeats = 1;
        w.warmup_s = 0.2;
        w.points = 4_096;
    }
    Some(w)
}

/// One workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The CSV files, in layer order.
    pub csvs: Vec<PathBuf>,
    /// The sets exactly as the server parses them from `csvs`.
    pub sets: Vec<ObjectSet>,
    /// The search space.
    pub bounds: Mbr,
}

impl Dataset {
    /// Total objects.
    pub fn objects(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Set names in layer order (the `set=` parameter of live updates).
    pub fn set_names(&self) -> Vec<String> {
        self.sets.iter().map(|s| s.name.clone()).collect()
    }
}

/// Writes the workload's layer CSVs under `dir` and reads them back, so the
/// in-process reference sees the exact values the server parses.
pub fn generate(w: &Workload, seed: u64, dir: &Path) -> Result<Dataset, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let b = bounds();
    let mut csvs = Vec::new();
    let mut sets = Vec::new();
    for (layer, w_t) in LAYERS {
        // One seed for every layer: the generator offsets it per layer but
        // keeps the shared cluster geography (layers correlate spatially).
        let set = match w.weight_zipf {
            Some(s) => layer_object_set_zipf(layer, w.per_layer, w_t, b, seed, s),
            None => layer_object_set(layer, w.per_layer, w_t, b, seed),
        };
        let path = dir.join(format!("{}.csv", layer.code()));
        let mut f = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        write_csv(&set, &mut f).map_err(|e| format!("{}: {e}", path.display()))?;
        let back = std::fs::File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        sets.push(read_csv(layer.code(), back)?);
        csvs.push(path);
    }
    Ok(Dataset {
        csvs,
        sets,
        bounds: b,
    })
}

/// One request of a workload's traffic.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `GET /locate?x=..&y=..`.
    Locate(Point),
    /// `GET /solve`.
    Solve,
    /// `GET /topk?k=..`.
    Topk(usize),
    /// `POST /datasets/default/objects?set=..&x=..&y=..&w_t=..&w_o=..`.
    Insert {
        /// Target set index.
        set: usize,
        /// The new object.
        object: SpatialObject,
    },
    /// `DELETE /datasets/default/objects/<index>?set=..`.
    Remove {
        /// Target set index.
        set: usize,
        /// Object index within the set.
        index: usize,
    },
}

/// The op classes latency is reported by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// `/locate`.
    Locate,
    /// `/solve` and `/topk`.
    Scan,
    /// Live inserts and removes.
    Update,
}

impl Op {
    /// The op's latency class.
    pub fn class(&self) -> OpClass {
        match self {
            Op::Locate(_) => OpClass::Locate,
            Op::Solve | Op::Topk(_) => OpClass::Scan,
            Op::Insert { .. } | Op::Remove { .. } => OpClass::Update,
        }
    }

    /// HTTP method.
    pub fn method(&self) -> &'static str {
        match self {
            Op::Insert { .. } => "POST",
            Op::Remove { .. } => "DELETE",
            _ => "GET",
        }
    }

    /// Path and decoded query parameters.
    pub fn route(&self, set_names: &[String]) -> (String, Vec<(String, String)>) {
        let p = |k: &str, v: String| (k.to_string(), v);
        match self {
            Op::Locate(at) => (
                "/locate".into(),
                vec![p("x", at.x.to_string()), p("y", at.y.to_string())],
            ),
            Op::Solve => ("/solve".into(), vec![]),
            Op::Topk(k) => ("/topk".into(), vec![p("k", k.to_string())]),
            Op::Insert { set, object } => (
                "/datasets/default/objects".into(),
                vec![
                    p("set", set_names[*set].clone()),
                    p("x", object.loc.x.to_string()),
                    p("y", object.loc.y.to_string()),
                    p("w_t", object.w_t.to_string()),
                    p("w_o", object.w_o.to_string()),
                ],
            ),
            Op::Remove { set, index } => (
                format!("/datasets/default/objects/{index}"),
                vec![p("set", set_names[*set].clone())],
            ),
        }
    }

    /// The request target (path and query string).
    pub fn target(&self, set_names: &[String]) -> String {
        let (path, params) = self.route(set_names);
        if params.is_empty() {
            return path;
        }
        let query: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{path}?{}", query.join("&"))
    }

    /// The same request for an in-process `Service`.
    pub fn request(&self, set_names: &[String]) -> molq_server::Request {
        let (path, params) = self.route(set_names);
        molq_server::Request {
            method: self.method().into(),
            path,
            params,
            body: Vec::new(),
        }
    }

    /// The live update this op performs, if it is one.
    pub fn update(&self) -> Option<Update> {
        match *self {
            Op::Insert { set, object } => Some(Update::Insert { set, object }),
            Op::Remove { set, index } => Some(Update::Remove { set, index }),
            _ => None,
        }
    }
}

/// Seed-stream ids, so each consumer of randomness is independent.
const STREAM_POINTS: u64 = 1;
const STREAM_READER: u64 = 100;
const STREAM_WRITER: u64 = 200;

/// The shared locate probe table and its skew.
#[derive(Debug, Clone)]
pub struct Probes {
    points: Arc<Vec<Point>>,
    zipf: Arc<Zipf>,
}

impl Probes {
    /// `w.points` uniform points drawn by Zipf(1.0) rank.
    pub fn new(w: &Workload, seed: u64) -> Probes {
        let b = bounds();
        let mut rng = Rng::derive(seed, STREAM_POINTS);
        let points = (0..w.points)
            .map(|_| {
                Point::new(
                    b.min_x + rng.next_f64() * b.width(),
                    b.min_y + rng.next_f64() * b.height(),
                )
            })
            .collect();
        Probes {
            points: Arc::new(points),
            zipf: Arc::new(Zipf::new(w.points, 1.0)),
        }
    }

    fn draw(&self, rng: &mut Rng) -> Point {
        self.points[self.zipf.sample(rng)]
    }
}

/// One reader thread's endless, seeded op stream.
#[derive(Debug, Clone)]
pub struct ReadStream {
    kind: Kind,
    probes: Probes,
    rng: Rng,
    i: u64,
    /// Alternating streams start on different ops so both kinds are always
    /// in flight.
    phase: u64,
}

impl ReadStream {
    /// Reader `thread`'s stream for `seed`.
    pub fn new(kind: Kind, probes: &Probes, seed: u64, thread: usize) -> ReadStream {
        ReadStream {
            kind,
            probes: probes.clone(),
            rng: Rng::derive(seed, STREAM_READER + thread as u64),
            i: 0,
            phase: thread as u64,
        }
    }
}

impl Iterator for ReadStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let i = self.i;
        self.i += 1;
        Some(match self.kind {
            Kind::LocateSkewed => Op::Locate(self.probes.draw(&mut self.rng)),
            Kind::Optimum | Kind::ApproxScale => {
                if (i + self.phase) % 2 == 0 {
                    Op::Solve
                } else {
                    Op::Topk(5)
                }
            }
            Kind::Churn => {
                if i % 20 == 19 {
                    Op::Solve
                } else {
                    Op::Locate(self.probes.draw(&mut self.rng))
                }
            }
        })
    }
}

/// The live-update generator. It keeps its own copy of the object sets and
/// mirrors every acknowledged update (including `Vec::remove` index
/// shifts), so the bench always knows the exact sets the server holds.
#[derive(Debug, Clone)]
pub struct Writer {
    /// The mirrored object sets.
    pub sets: Vec<ObjectSet>,
    bounds: Mbr,
    rng: Rng,
    i: u64,
}

impl Writer {
    /// A writer over `sets`, seeded by `(seed, stream)`.
    pub fn new(sets: &[ObjectSet], bounds: Mbr, seed: u64, stream: u64) -> Writer {
        Writer {
            sets: sets.to_vec(),
            bounds,
            rng: Rng::derive(seed, STREAM_WRITER + stream),
            i: 0,
        }
    }

    /// The next update: inserts and removes alternate, cycling through the
    /// sets, so set sizes stay within one of the original.
    pub fn next_op(&mut self) -> Op {
        let i = self.i;
        self.i += 1;
        let set = (i / 2) as usize % self.sets.len();
        let objects = &self.sets[set].objects;
        if i % 2 == 1 && objects.len() > 1 {
            return Op::Remove {
                set,
                index: self.rng.below(objects.len()),
            };
        }
        let b = self.bounds;
        loop {
            let loc = Point::new(
                b.min_x + self.rng.next_f64() * b.width(),
                b.min_y + self.rng.next_f64() * b.height(),
            );
            // Duplicate coordinates within a set are rejected by design.
            if objects.iter().all(|o| o.loc != loc) {
                return Op::Insert {
                    set,
                    object: SpatialObject {
                        loc,
                        w_t: objects[0].w_t,
                        w_o: 1.0,
                    },
                };
            }
        }
    }

    /// Mirrors an update the server acknowledged.
    pub fn applied(&mut self, op: &Op) {
        match *op {
            Op::Insert { set, object } => self.sets[set].objects.push(object),
            Op::Remove { set, index } => {
                self.sets[set].objects.remove(index);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalogued_workload_is_defined() {
        let catalog = crate::catalog::Catalog::load().unwrap();
        assert_eq!(catalog.workloads.len(), 4);
        for name in &catalog.workloads {
            let w = workload(name, false).unwrap();
            assert_eq!(w.name, name);
            assert!(workload(name, true).unwrap().per_layer < w.per_layer);
        }
        assert!(workload("nope", false).is_none());
    }

    #[test]
    fn op_streams_repeat_per_seed() {
        let w = workload("locate_skewed", true).unwrap();
        let take = |seed: u64, thread: usize| {
            let probes = Probes::new(&w, seed);
            ReadStream::new(w.kind, &probes, seed, thread)
                .take(500)
                .collect::<Vec<_>>()
        };
        assert_eq!(take(3, 0), take(3, 0));
        assert_ne!(take(3, 0), take(4, 0));
        assert_ne!(take(3, 0), take(3, 1));
    }

    #[test]
    fn alternating_streams_mix_solve_and_topk() {
        let w = workload("optimum", true).unwrap();
        let probes = Probes::new(&w, 1);
        let a: Vec<Op> = ReadStream::new(w.kind, &probes, 1, 0).take(4).collect();
        let b: Vec<Op> = ReadStream::new(w.kind, &probes, 1, 1).take(2).collect();
        assert_eq!(a, [Op::Solve, Op::Topk(5), Op::Solve, Op::Topk(5)]);
        assert_eq!(b, [Op::Topk(5), Op::Solve]);
        let churn = workload("churn", true).unwrap();
        let ops: Vec<Op> = ReadStream::new(churn.kind, &probes, 1, 0)
            .take(40)
            .collect();
        assert_eq!(ops.iter().filter(|o| **o == Op::Solve).count(), 2);
    }

    #[test]
    fn writer_mirrors_remove_shifts() {
        let sets = vec![
            ObjectSet::uniform(
                "a",
                1.0,
                (0..5).map(|i| Point::new(i as f64, 0.0)).collect(),
            ),
            ObjectSet::uniform(
                "b",
                2.0,
                (0..5).map(|i| Point::new(0.0, i as f64)).collect(),
            ),
        ];
        let mut w = Writer::new(&sets, Mbr::new(0.0, 0.0, 10.0, 10.0), 1, 0);
        let mut again = Writer::new(&sets, Mbr::new(0.0, 0.0, 10.0, 10.0), 1, 0);
        for _ in 0..12 {
            let op = w.next_op();
            assert_eq!(op, again.next_op(), "same seed, same updates");
            if let Op::Remove { set, index } = op {
                let mut expect = w.sets[set].objects.clone();
                expect.remove(index);
                w.applied(&op);
                again.applied(&op);
                assert_eq!(w.sets[set].objects, expect);
            } else {
                w.applied(&op);
                again.applied(&op);
            }
            assert!(w.sets.iter().all(|s| (4..=6).contains(&s.len())));
        }
        let names = vec!["a".to_string(), "b".to_string()];
        let ins = Op::Insert {
            set: 1,
            object: SpatialObject {
                loc: Point::new(1.5, 2.0),
                w_t: 2.0,
                w_o: 1.0,
            },
        };
        assert_eq!(
            ins.target(&names),
            "/datasets/default/objects?set=b&x=1.5&y=2&w_t=2&w_o=1"
        );
        assert_eq!(
            Op::Remove { set: 0, index: 3 }.target(&names),
            "/datasets/default/objects/3?set=a"
        );
        assert_eq!(Op::Topk(5).target(&names), "/topk?k=5");
        let req = ins.request(&names);
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/datasets/default/objects")
        );
    }
}
