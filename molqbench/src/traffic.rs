//! The load generator: closed-loop readers and churn's open-loop writer.
//!
//! A closed-loop reader sends its next request only after the previous
//! reply, modelling callers who wait for their answer. The writer sends on
//! a fixed schedule and times each update from when it was *due*, so a
//! stall is charged to every update it delays; how late the generator
//! itself ran is reported separately.

use crate::client::Conn;
use crate::verify::{self, Reference};
use crate::workload::{Op, OpClass, ReadStream, Writer};
use molq_core::MolqQuery;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every how many locates of a connection one is checked (the first is).
const LOCATE_EVERY: u64 = 64;

/// How much of the traffic the bench checks.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// The query sampled `/locate` costs are checked against.
    pub locate: Option<Arc<MolqQuery>>,
    /// Added to the locate reference (non-zero only to prove that a wrong
    /// reference fails the run).
    pub locate_offset: f64,
    /// `/solve` and `/topk` references.
    pub answers: Option<Arc<Reference>>,
    /// Parse every reply and require its generation never to go back (and
    /// every acknowledged update to publish a new one).
    pub generations: bool,
}

/// One issued request, kept when tracing.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Run-wide op id (shared by every span of this op).
    pub id: u64,
    /// The request.
    pub op: Op,
    /// Send time, since the trace epoch.
    pub start: Duration,
    /// Reply time, since the trace epoch.
    pub end: Duration,
    /// HTTP status (0 when no reply arrived).
    pub status: u16,
}

/// What a window of traffic did.
#[derive(Debug, Default)]
pub struct Tally {
    /// Latencies of successful, verified ops by class, µs. Updates are timed
    /// from their due time.
    pub latency_us: BTreeMap<OpClass, Vec<f64>>,
    /// Response bytes by class: (responses, bytes).
    pub bytes: BTreeMap<OpClass, (u64, u64)>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Connections re-opened.
    pub reconnects: u64,
    /// How late the writer sent each update, µs.
    pub writer_lag_us: Vec<f64>,
    /// Wall time of the window, seconds.
    pub elapsed: f64,
    /// Every request, when tracing.
    pub records: Vec<OpRecord>,
}

impl Tally {
    /// Successful ops of a class.
    pub fn ok(&self, class: OpClass) -> usize {
        self.latency_us.get(&class).map_or(0, Vec::len)
    }

    /// Successful ops of every class.
    pub fn ok_total(&self) -> usize {
        self.latency_us.values().map(Vec::len).sum()
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    fn absorb(&mut self, other: Tally) {
        for (class, mut v) in other.latency_us {
            self.latency_us.entry(class).or_default().append(&mut v);
        }
        for (class, (n, b)) in other.bytes {
            let e = self.bytes.entry(class).or_default();
            e.0 += n;
            e.1 += b;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.reconnects += other.reconnects;
        self.writer_lag_us.extend(other.writer_lag_us);
        self.records.extend(other.records);
    }
}

/// Shared per-window settings.
pub struct Drive<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// Set names (for update targets).
    pub set_names: &'a [String],
    /// Response checks.
    pub checks: &'a Checks,
    /// Keep an [`OpRecord`] per request.
    pub trace: bool,
    /// Trace time origin.
    pub epoch: Instant,
    /// Op id source.
    pub ids: &'a AtomicU64,
}

/// Per-connection verification state.
struct Conversation<'a> {
    d: &'a Drive<'a>,
    conn: Conn,
    tally: Tally,
    locates: u64,
    last_generation: u64,
}

impl<'a> Conversation<'a> {
    fn open(d: &'a Drive<'a>) -> Result<Conversation<'a>, String> {
        Ok(Conversation {
            d,
            conn: Conn::connect(d.addr)?,
            tally: Tally::default(),
            locates: 0,
            last_generation: 0,
        })
    }

    /// Sends one op and checks the reply; returns whether it succeeded.
    /// `due` (open loop) is the time the op should have been sent.
    fn issue(&mut self, op: &Op, due: Option<Instant>) -> bool {
        let id = self.d.ids.fetch_add(1, Ordering::Relaxed);
        let target = op.target(self.d.set_names);
        let update = op.class() == OpClass::Update;
        let start = Instant::now();
        let result = self.conn.send(op.method(), &target, !update);
        let end = Instant::now();
        self.tally.attempted += 1;
        let status = result.as_ref().map_or(0, |r| r.status);
        if self.d.trace {
            self.tally.records.push(OpRecord {
                id,
                op: op.clone(),
                start: start - self.d.epoch,
                end: end - self.d.epoch,
                status,
            });
        }
        let outcome = result.and_then(|reply| {
            if reply.status != 200 {
                return Err(format!(
                    "{target}: HTTP {} {}",
                    reply.status,
                    String::from_utf8_lossy(&reply.body)
                ));
            }
            self.check(op, &reply)
                .map_err(|e| format!("{target}: {e}"))?;
            Ok(reply.bytes)
        });
        match outcome {
            Ok(bytes) => {
                let from = due.unwrap_or(start);
                let us = (end - from).as_secs_f64() * 1e6;
                self.tally
                    .latency_us
                    .entry(op.class())
                    .or_default()
                    .push(us);
                let b = self.tally.bytes.entry(op.class()).or_default();
                b.0 += 1;
                b.1 += bytes as u64;
                true
            }
            Err(e) => {
                self.tally.fail(e);
                false
            }
        }
    }

    fn check(&mut self, op: &Op, reply: &crate::client::Reply) -> Result<(), String> {
        let c = self.d.checks;
        let sample_locate = matches!(op, Op::Locate(_)) && c.locate.is_some() && {
            self.locates += 1;
            self.locates % LOCATE_EVERY == 1
        };
        let answer = matches!(op, Op::Solve | Op::Topk(_)) && c.answers.is_some();
        if !(sample_locate || answer || c.generations) {
            return Ok(());
        }
        let body = reply.json()?;
        if c.generations {
            let generation = verify::generation(&body)?;
            let moved_on = match op.class() {
                OpClass::Update => generation > self.last_generation,
                _ => generation >= self.last_generation,
            };
            if !moved_on {
                return Err(format!(
                    "generation went from {} to {generation}",
                    self.last_generation
                ));
            }
            self.last_generation = generation;
        }
        if let (true, Some(q)) = (sample_locate, c.locate.as_ref()) {
            verify::check_locate(&body, q, c.locate_offset)?;
        }
        if let (true, Some(r)) = (answer, c.answers.as_ref()) {
            match op {
                Op::Solve => verify::check_solve(&body, &r.solve, &r.query)?,
                _ => verify::check_topk(&body, &r.topk)?,
            }
        }
        Ok(())
    }

    fn finish(mut self) -> Tally {
        self.tally.reconnects += self.conn.reconnects;
        self.tally
    }
}

/// Runs `readers` closed loops (one connection each) for `seconds`, plus
/// the open-loop `writer` at `rate` updates/s when given. Streams continue
/// where the previous window left them.
pub fn window(
    d: &Drive<'_>,
    readers: &mut [ReadStream],
    writer: Option<(&mut Writer, f64)>,
    seconds: f64,
) -> Result<Tally, String> {
    let started = Instant::now();
    let until = started + Duration::from_secs_f64(seconds);
    let results: Vec<Result<Tally, String>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for stream in readers.iter_mut() {
            handles.push(scope.spawn(move || -> Result<Tally, String> {
                let mut conv = Conversation::open(d)?;
                while Instant::now() < until {
                    let op = stream.next().expect("op streams are endless");
                    conv.issue(&op, None);
                }
                Ok(conv.finish())
            }));
        }
        if let Some((writer, rate)) = writer {
            handles.push(scope.spawn(move || -> Result<Tally, String> {
                let mut conv = Conversation::open(d)?;
                let interval = Duration::from_secs_f64(1.0 / rate);
                for i in 0u32.. {
                    let due = started + interval * i;
                    if due >= until {
                        break;
                    }
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let lag = Instant::now().saturating_duration_since(due);
                    conv.tally.writer_lag_us.push(lag.as_secs_f64() * 1e6);
                    let op = writer.next_op();
                    if conv.issue(&op, Some(due)) {
                        writer.applied(&op);
                    }
                }
                Ok(conv.finish())
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("traffic thread panicked"))
            .collect()
    });
    let mut total = Tally::default();
    for r in results {
        total.absorb(r?);
    }
    total.elapsed = started.elapsed().as_secs_f64();
    total.records.sort_by_key(|r| r.id);
    Ok(total)
}

/// Issues a fixed list of ops on one connection (warm-up of the approximate
/// tier, post-restart checks).
pub fn sequence(d: &Drive<'_>, ops: &[Op]) -> Result<Tally, String> {
    let mut conv = Conversation::open(d)?;
    let started = Instant::now();
    for op in ops {
        conv.issue(op, None);
    }
    let mut t = conv.finish();
    t.elapsed = started.elapsed().as_secs_f64();
    Ok(t)
}
