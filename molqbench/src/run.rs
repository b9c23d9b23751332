//! `run`: one workload's end-to-end metrics, tracing off.
//!
//! Order of a run: generate the seeded CSVs and the in-process reference;
//! time `setup_repeats` cold starts (each on an empty snapshot directory,
//! the last one keeps serving); warm up; measure one window of
//! `--seconds`; read the child's CPU time and peak RSS; then time
//! `restart_repeats` restarts on the snapshot directory the serving child
//! wrote. Set-up and restarts are timed apart from the serving window.

use crate::child::{ServeSpec, Server};
use crate::stats::{self, percentile, sorted};
use crate::traffic::{self, Checks, Drive, Tally};
use crate::verify::Reference;
use crate::workload::{self, Dataset, Kind, Op, OpClass, Probes, ReadStream, Workload, Writer};
use molq_core::{BuildMode, ExecConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// The share of the update interval the open-loop writer may run late
/// (p99) before the run no longer offers the load it claims. Updates are
/// timed from their due time, so lateness never hides in the latencies; on
/// two cores saturated by solves, scheduler wake-up alone reaches ~3 ms.
const MAX_WRITER_LAG: f64 = 0.5;

/// Where and how a run executes.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The `molq` binary.
    pub molq: PathBuf,
    /// Scratch directory of this run (inside the checkout).
    pub work: PathBuf,
    /// Cores available to this process.
    pub nproc: usize,
    /// Shrunk data and windows (tests).
    pub smoke: bool,
    /// Perturb the reference answers (proves a wrong answer fails the run).
    pub tamper: bool,
}

impl Ctx {
    /// In-process builds and solves use every core, like the server.
    pub fn exec(&self) -> ExecConfig {
        ExecConfig::new(self.nproc)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
    /// What the value is (e.g. which percentile).
    pub note: String,
}

/// What a run (or trace) of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Requests and checks attempted.
    pub attempted: u64,
    /// Requests and checks that failed.
    pub failed: u64,
    /// Failure descriptions (first few) and run-level violations.
    pub errors: Vec<String>,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Facts about the run: what the serve banner resolved, repeats, ...
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    /// `true` when every op and check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    pub(crate) fn push(&mut self, name: &str, value: f64, samples: usize, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            samples,
            note: note.into(),
        });
    }

    pub(crate) fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.into(), value.to_string()));
    }

    /// Folds a window's failures in.
    pub(crate) fn count(&mut self, t: &Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        for e in &t.errors {
            self.note_error(e.clone());
        }
    }

    /// Records a failed check that is not a request.
    pub(crate) fn check(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            self.note_error(e);
        }
    }

    fn note_error(&mut self, e: String) {
        if self.errors.len() < 16 {
            self.errors.push(e);
        }
    }
}

/// Everything a workload run shares between `run` and `trace`.
pub struct Prepared {
    /// The workload.
    pub w: Workload,
    /// Seed.
    pub seed: u64,
    /// Generated inputs.
    pub data: Dataset,
    /// In-process answers.
    pub reference: Arc<Reference>,
    /// Response checks for the untouched dataset.
    pub checks: Checks,
    /// Locate probe table.
    pub probes: Probes,
}

impl Prepared {
    /// Generates the data and the reference.
    pub fn new(ctx: &Ctx, w: &Workload, seed: u64) -> Result<Prepared, String> {
        let data = workload::generate(w, seed, &ctx.work.join("data"))?;
        let mut reference = Reference::build(data.sets.clone(), data.bounds, mode(w), ctx.exec())?;
        if ctx.tamper {
            reference.tamper();
        }
        let reference = Arc::new(reference);
        // Churn moves the sets under its reader, so while it runs only
        // generations are checked; its answers are checked after the
        // window against the sets the writer mirrored.
        let checks = match w.kind {
            Kind::Churn => Checks {
                generations: true,
                ..Checks::default()
            },
            _ => Checks {
                locate: Some(Arc::new(reference.query.clone())),
                locate_offset: if ctx.tamper { 1.0 } else { 0.0 },
                answers: Some(Arc::clone(&reference)),
                generations: false,
            },
        };
        Ok(Prepared {
            w: w.clone(),
            seed,
            probes: Probes::new(w, seed),
            data,
            reference,
            checks,
        })
    }

    /// The serve flags for a snapshot directory.
    pub fn spec(&self, dir: PathBuf) -> ServeSpec {
        ServeSpec {
            csvs: self.data.csvs.clone(),
            bounds: self.data.bounds,
            epsilon: self.w.epsilon,
            snapshot_dir: dir,
        }
    }

    /// Each reader's op stream.
    pub fn readers(&self) -> Vec<ReadStream> {
        (0..self.w.readers)
            .map(|t| ReadStream::new(self.w.kind, &self.probes, self.seed, t))
            .collect()
    }

    /// Cold-starts a child on an empty snapshot directory and checks its
    /// banner against the in-process build (and that the sanitized
    /// environment held).
    pub fn cold_start(&self, ctx: &Ctx, out: &mut Outcome, dir: &Path) -> Result<Server, String> {
        let server = Server::start(&ctx.molq, &self.spec(dir.to_path_buf()))?;
        let (b, data) = (&server.banner, &self.data);
        let expected = (data.sets.len(), data.objects(), self.reference.ovrs);
        out.check(if (b.sets, b.objects, b.ovrs) != expected || b.restored {
            Err(format!(
                "cold start served {} sets / {} objects / {} OVRs (restored = {}), the in-process build {expected:?}",
                b.sets, b.objects, b.ovrs, b.restored
            ))
        } else {
            Ok(())
        });
        let leaked = server.leaked_env()?;
        out.check(if leaked.is_empty() {
            Ok(())
        } else {
            Err(format!("the child inherited {}", leaked.join(", ")))
        });
        Ok(server)
    }

    /// Warms a fresh child up: time-boxed traffic, or one solve and one
    /// top-k on the approximate tier, whose ops take long enough that a
    /// time box would cut one in half.
    pub fn warm_up(
        &self,
        d: &Drive<'_>,
        readers: &mut [ReadStream],
        out: &mut Outcome,
    ) -> Result<(), String> {
        let t = match self.w.kind {
            Kind::ApproxScale => traffic::sequence(d, &[Op::Solve, Op::Topk(crate::verify::TOPK)])?,
            _ => traffic::window(d, readers, None, self.w.warmup_s)?,
        };
        out.count(&t);
        Ok(())
    }
}

/// The build mode of a workload.
pub fn mode(w: &Workload) -> BuildMode {
    BuildMode::from_epsilon(w.epsilon)
}

/// Size of a file, or 0 when it does not exist.
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// The tail percentile a sample supports: the workload's own unless the
/// window was too short for it.
pub fn tail_q(w: &Workload, n: usize) -> f64 {
    if stats::samples_beyond(n, w.tail_q) >= 10 {
        w.tail_q
    } else {
        stats::highest_supported(n).unwrap_or(0.5)
    }
}

/// The op class whose latency a workload reports.
pub fn primary(w: &Workload) -> OpClass {
    match w.kind {
        Kind::LocateSkewed => OpClass::Locate,
        Kind::Optimum | Kind::ApproxScale => OpClass::Scan,
        Kind::Churn => OpClass::Update,
    }
}

/// Runs one workload with tracing off.
pub fn run(ctx: &Ctx, w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let p = Prepared::new(ctx, w, seed)?;
    let mut out = Outcome {
        workload: w.name.to_string(),
        ..Outcome::default()
    };
    let names = p.data.set_names();

    // Set-up: cold starts on empty snapshot directories; the last one
    // serves the window.
    let mut setup = Vec::new();
    let mut serving = None;
    for r in 0..w.setup_repeats {
        let dir = ctx.work.join(format!("snap-{r}"));
        let server = p.cold_start(ctx, &mut out, &dir)?;
        setup.push(server.ready.as_secs_f64());
        if r + 1 == w.setup_repeats {
            serving = Some((server, dir));
        } else {
            drop(server);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (mut server, dir) = serving.ok_or("a workload needs at least one set-up")?;
    out.fact("transport", &server.banner.transport);
    out.fact("threads", server.banner.threads);
    out.fact("ovrs", server.banner.ovrs);
    out.fact("objects", p.data.objects());

    let ids = AtomicU64::new(0);
    let d = Drive {
        addr: server.addr(),
        set_names: &names,
        checks: &p.checks,
        trace: false,
        epoch: Instant::now(),
        ids: &ids,
    };
    let mut readers = p.readers();
    p.warm_up(&d, &mut readers, &mut out)?;

    let mut writer = Writer::new(&p.data.sets, p.data.bounds, seed, 0);
    let cpu_before = server.cpu_seconds()?;
    let t = traffic::window(
        &d,
        &mut readers,
        (w.kind == Kind::Churn).then_some((&mut writer, w.update_rate)),
        seconds,
    )?;
    let cpu = server.cpu_seconds()? - cpu_before;
    let rss = server.peak_rss_mb()?;
    out.count(&t);
    let snapshot = file_len(&molq_server::engine::snapshot_path(&dir, "default"));

    // What a restart must serve: the original dataset, or churn's sets
    // after every acknowledged update (rebuilt exactly, in process).
    let after = match w.kind {
        Kind::Churn => {
            let mut r = Reference::build(
                writer.sets.clone(),
                p.data.bounds,
                BuildMode::Exact,
                ctx.exec(),
            )?;
            if ctx.tamper {
                r.tamper();
            }
            Arc::new(r)
        }
        _ => Arc::clone(&p.reference),
    };
    let after_checks = Checks {
        answers: Some(Arc::clone(&after)),
        ..Checks::default()
    };
    let verify_solve = |server: &Server, out: &mut Outcome| -> Result<(), String> {
        let d = Drive {
            addr: server.addr(),
            checks: &after_checks,
            ..d
        };
        out.count(&traffic::sequence(&d, &[Op::Solve])?);
        Ok(())
    };
    if w.kind == Kind::Churn {
        verify_solve(&server, &mut out)?;
    }
    server.stop();
    drop(server);

    // A restored child must answer like a fresh one: checked after the
    // first restart, and after every one when churn's journal replays.
    let mut restart = Vec::new();
    let restored_objects = writer.sets.iter().map(|s| s.len()).sum::<usize>();
    for r in 0..w.restart_repeats {
        let server = Server::start(&ctx.molq, &p.spec(dir.clone()))?;
        restart.push(server.ready.as_secs_f64());
        let b = &server.banner;
        out.check(if !b.restored || b.ovrs != after.ovrs || b.objects != restored_objects {
            Err(format!(
                "restart served {} OVRs / {} objects (restored = {}), expected {} / {restored_objects} restored",
                b.ovrs, b.objects, b.restored, after.ovrs
            ))
        } else {
            Ok(())
        });
        if r == 0 || w.kind == Kind::Churn {
            verify_solve(&server, &mut out)?;
        }
    }

    let class = primary(w);
    let lat = sorted(t.latency_us.get(&class).cloned().unwrap_or_default());
    let q = tail_q(w, lat.len());
    let loop_ops = match w.kind {
        Kind::Churn => t.ok_total() - t.ok(OpClass::Update),
        _ => t.ok_total(),
    };
    out.push(
        "throughput_ops",
        loop_ops as f64 / t.elapsed,
        loop_ops,
        format!("ops over {:.2} s", t.elapsed),
    );
    out.push(
        "lat_p50_us",
        percentile(&lat, 0.5).unwrap_or(f64::NAN),
        lat.len(),
        format!("{class:?} p50"),
    );
    out.push(
        "lat_tail_us",
        percentile(&lat, q).unwrap_or(f64::NAN),
        lat.len(),
        format!("{class:?} {}", stats::label(q)),
    );
    out.push(
        "setup_s",
        stats::median(&setup).unwrap_or(f64::NAN),
        setup.len(),
        "median cold start",
    );
    out.push(
        "restart_s",
        stats::median(&restart).unwrap_or(f64::NAN),
        restart.len(),
        "median restart",
    );
    out.push("rss_peak_mb", rss, 1, "VmHWM at window end");
    out.push(
        "cpu_us_per_op",
        cpu * 1e6 / t.ok_total().max(1) as f64,
        t.ok_total(),
        "server utime+stime per op",
    );
    out.push(
        "snapshot_bytes_per_object",
        snapshot as f64 / p.data.objects() as f64,
        p.data.objects(),
        format!("{snapshot} B snapshot"),
    );
    out.fact("tail", stats::label(q));
    out.fact("setup_repeats", w.setup_repeats);
    out.fact("restart_repeats", w.restart_repeats);
    if w.kind == Kind::Churn {
        let lag = sorted(t.writer_lag_us.clone());
        let p99 = percentile(&lag, 0.99).unwrap_or(0.0);
        out.fact("writer_lag_p99_us", format!("{p99:.0}"));
        out.fact("updates", t.ok(OpClass::Update));
        let limit = MAX_WRITER_LAG * 1e6 / w.update_rate;
        // Smoke runs check answers, not whether the timing is valid.
        out.check(if p99 <= limit || ctx.smoke {
            Ok(())
        } else {
            Err(format!(
                "churn run invalid: the writer ran {p99:.0} us late (p99), over {limit:.0} us"
            ))
        });
    }
    Ok(out)
}
