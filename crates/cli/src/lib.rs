//! Implementation of the `molq` command-line interface (testable as a
//! library: [`run`] takes argv and returns the report it would print).

use molq_core::prelude::*;
use molq_core::solutions::pruned::solve_pruned;
use molq_core::solutions::tiled::solve_tiled;
use molq_datagen::csv::{read_csv, write_csv};
use molq_datagen::geonames::layer_object_set;
use molq_datagen::GeoLayer;
use molq_fw::StoppingRule;
use molq_geom::Mbr;
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;

/// Usage text.
pub fn usage() -> String {
    "\
molq — multi-criteria optimal location queries (EDBT 2014 reproduction)

USAGE:
  molq generate --layer <STM|CH|SCH|PPL|BLDG> --n <count> --out <file.csv>
                [--seed <u64>] [--wt <f64>] [--zipf <s>]
                [--bounds x0,y0,x1,y1]
  molq solve    --input <file.csv> [--input <file.csv> ...]
                [--algo <ssc|rrb|mbrb|pruned|tiled|topk>] [--eps <f64>]
                [--tiles <n>] [--k <n>] [--bounds x0,y0,x1,y1]
                [--threads <n>]
  molq render   --input <file.csv> [--input <file.csv> ...] --out <file.svg>
                [--mode <rrb|mbrb|voronoi>] [--width <px>]
                [--bounds x0,y0,x1,y1]
  molq serve    --input <file.csv> [--input <file.csv> ...]
                [--algo <rrb|mbrb>] [--host <addr>] [--port <u16>]
                [--workers <n>] [--name <dataset>] [--eps <f64>]
                [--epsilon <f64>] [--bounds x0,y0,x1,y1]
                [--shutdown-after <seconds>]
                [--snapshot-dir <dir>] [--request-timeout <seconds>]
                [--threads <n>]
  molq snapshot build   --input <file.csv> [--input <file.csv> ...]
                        --dir <dir> [--name <dataset>] [--algo <rrb|mbrb>]
                        [--eps <f64>] [--epsilon <f64>]
                        [--bounds x0,y0,x1,y1]
  molq snapshot inspect --file <file.molq>
  molq snapshot verify  --file <file.molq>
  molq update add     --dir <dir> [--name <dataset>] --set <name|index>
                      --x <f64> --y <f64> [--wt <f64>] [--wo <f64>]
                      [--threads <n>]
  molq update remove  --dir <dir> [--name <dataset>] --set <name|index>
                      --index <n> [--threads <n>]
  molq update compact --dir <dir> [--name <dataset>] [--threads <n>]

Bounds default to the MBR of the input objects inflated by 5%.
--epsilon > 0 builds the dataset with the tiered approximate pipeline
(quadtree refinement, near-linear construction): answers cost at most
(1+ε) times the true optimum and carry that certified factor; live
updates require an exact build. Omitted or 0 runs the exact pipeline.
`serve` builds the MOVD once and answers /locate, /solve, /topk, /health,
/stats, POST /reload, and live updates (POST /datasets/<name>/objects,
DELETE /datasets/<name>/objects/<index>) over HTTP until SIGINT (or
--shutdown-after); with
--snapshot-dir the build is persisted as <dir>/<name>.molq and restored on
later starts when the source CSVs are unchanged. Requests are cancelled at
--request-timeout (default 10 s; per-request ?deadline_ms= tightens it) and
answer 504; the MOLQ_FAULTS env var arms fault injection for chaos drills. `snapshot build` prepares
such a file ahead of time; `inspect` describes one (surviving damage);
`verify` fully validates one and exits non-zero on any defect. Both also
cover the <name>.journal sidecar when one sits next to the snapshot.

`update` edits a snapshot offline through the same incremental patch layer
the server uses: the change is appended to the write-ahead journal
<dir>/<name>.journal and the patched dataset is byte-identical to a full
rebuild over the updated objects. `compact` folds the journal into a new
base file (epoch + 1) and resets the journal.

--threads runs the OVR scans (and the serve-time Overlapper) on a worker
pool; answers are bit-identical at any thread count. Defaults to the
MOLQ_THREADS env var, else serial for solve and all cores for serve.

`serve` requires Linux: --workers epoll event loops (default 4) each own
their connections and answer requests inline; the other commands run
anywhere. Batch queries land on POST /solve_batch and POST /topk_batch.
Every command rejects flags it does not list above.
"
    .to_string()
}

/// A subcommand's entry point.
type Handler = fn(&Flags) -> Result<String, String>;

/// Every subcommand with the (space-separated) flags it accepts; any other
/// flag is an error. `snapshot` and `update` take a positional subcommand
/// before their flags.
const COMMANDS: &[(&str, Handler, &str)] = &[
    ("generate", generate, "layer n out seed wt zipf bounds"),
    ("solve", solve, "input algo eps tiles k bounds threads"),
    ("render", render, "input out mode width bounds"),
    (
        "serve",
        serve,
        "input algo host port workers name eps epsilon bounds shutdown-after \
         snapshot-dir request-timeout threads",
    ),
    (
        "snapshot build",
        snapshot_build,
        "input dir name algo eps epsilon bounds",
    ),
    ("snapshot inspect", snapshot_inspect, "file"),
    ("snapshot verify", snapshot_verify, "file"),
    ("update add", update_add, "dir name set x y wt wo threads"),
    ("update remove", update_remove, "dir name set index threads"),
    ("update compact", update_compact, "dir name threads"),
];

/// Parsed flag set: `--key value` pairs, `--key` repeated collects.
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parses `args`, rejecting any flag `command` does not list in `known`.
    fn parse(command: &str, known: &str, args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let k = &args[i];
            if !k.starts_with("--") {
                return Err(format!("expected a --flag, got {k:?}"));
            }
            if !known.split_whitespace().any(|f| f == &k[2..]) {
                let accepted: Vec<String> =
                    known.split_whitespace().map(|f| format!("--{f}")).collect();
                return Err(format!(
                    "unknown flag {k} for `{command}` (accepted: {})",
                    accepted.join(", ")
                ));
            }
            let v = args
                .get(i + 1)
                .ok_or_else(|| format!("flag {k} needs a value"))?;
            pairs.push((k[2..].to_string(), v.clone()));
            i += 2;
        }
        Ok(Flags { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_all(&self, key: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn parse_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }

    fn parse_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }
}

/// `--threads` as an [`ExecConfig`]: an explicit flag wins, otherwise
/// `default` (which the callers derive from the `MOLQ_THREADS` env).
fn exec_flag(flags: &Flags, default: ExecConfig) -> Result<ExecConfig, String> {
    match flags.get("threads") {
        None => Ok(default),
        Some(v) => match v.parse::<usize>() {
            Ok(t) if t >= 1 => Ok(ExecConfig::new(t)),
            _ => Err(format!("--threads: {v:?} is not a positive integer")),
        },
    }
}

/// `--epsilon` as a [`BuildMode`]: absent or 0 is the exact pipeline, a
/// positive value selects the quadtree (1+ε) approximate builder.
fn build_mode_flag(flags: &Flags) -> Result<BuildMode, String> {
    match flags.get("epsilon") {
        None => Ok(BuildMode::Exact),
        Some(v) => {
            let e: f64 = v.parse().map_err(|e| format!("--epsilon: {e}"))?;
            if !e.is_finite() || e < 0.0 {
                return Err("--epsilon must be a finite non-negative number".into());
            }
            Ok(BuildMode::from_epsilon(Some(e)))
        }
    }
}

fn parse_bounds(s: &str) -> Result<Mbr, String> {
    let parts: Vec<f64> = s
        .split(',')
        .map(|p| p.trim().parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("--bounds: {e}"))?;
    if parts.len() != 4 || parts[0] >= parts[2] || parts[1] >= parts[3] {
        return Err("--bounds must be x0,y0,x1,y1 with x0<x1 and y0<y1".into());
    }
    Ok(Mbr::new(parts[0], parts[1], parts[2], parts[3]))
}

fn parse_layer(s: &str) -> Result<GeoLayer, String> {
    GeoLayer::ALL
        .iter()
        .copied()
        .find(|l| l.code().eq_ignore_ascii_case(s))
        .ok_or_else(|| format!("unknown layer {s:?} (STM, CH, SCH, PPL, BLDG)"))
}

fn load_sets(flags: &Flags) -> Result<Vec<ObjectSet>, String> {
    let inputs = flags.get_all("input");
    if inputs.is_empty() {
        return Err("at least one --input CSV is required".into());
    }
    inputs
        .iter()
        .map(|path| {
            let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
            let name = std::path::Path::new(path)
                .file_stem()
                .map(|s| s.to_string_lossy().to_string())
                .unwrap_or_else(|| path.to_string());
            read_csv(&name, f).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

fn bounds_for(flags: &Flags, sets: &[ObjectSet]) -> Result<Mbr, String> {
    if let Some(b) = flags.get("bounds") {
        return parse_bounds(b);
    }
    let m = sets
        .iter()
        .flat_map(|s| s.objects.iter().map(|o| o.loc))
        .fold(Mbr::EMPTY, |acc, p| acc.union(&Mbr::of_point(p)));
    if m.is_empty() {
        return Err("cannot infer bounds from empty inputs".into());
    }
    Ok(m.inflate(0.05 * m.margin().max(1.0)))
}

/// Runs a CLI invocation; returns the report to print.
pub fn run(args: &[String]) -> Result<String, String> {
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };
    let (command, rest) = match cmd.as_str() {
        "snapshot" | "update" => {
            let subs: Vec<&str> = COMMANDS
                .iter()
                .filter_map(|(name, ..)| name.strip_prefix(cmd.as_str())?.strip_prefix(' '))
                .collect();
            let Some(sub) = args.get(1) else {
                return Err(format!("{cmd} needs a subcommand ({})", subs.join(", ")));
            };
            if !subs.contains(&sub.as_str()) {
                return Err(format!(
                    "unknown {cmd} subcommand {sub:?} ({})",
                    subs.join(", ")
                ));
            }
            (format!("{cmd} {sub}"), &args[2..])
        }
        _ => (cmd.clone(), &args[1..]),
    };
    let Some((_, handler, known)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        return Err(format!("unknown command {cmd:?}"));
    };
    handler(&Flags::parse(&command, known, rest)?)
}

fn snapshot_build(flags: &Flags) -> Result<String, String> {
    use molq_server::engine::{DatasetSpec, Engine, LoadOutcome};

    let inputs = flags.get_all("input");
    if inputs.is_empty() {
        return Err("at least one --input CSV is required".into());
    }
    let dir = std::path::PathBuf::from(flags.get("dir").ok_or("--dir is required")?);
    let boundary = match flags.get("algo").unwrap_or("rrb") {
        "rrb" => Boundary::Rrb,
        "mbrb" => Boundary::Mbrb,
        other => return Err(format!("unknown --algo {other:?} (rrb, mbrb)")),
    };
    let spec = DatasetSpec {
        name: flags.get("name").unwrap_or("default").to_string(),
        paths: inputs.iter().map(std::path::PathBuf::from).collect(),
        boundary,
        bounds: flags.get("bounds").map(parse_bounds).transpose()?,
        eps: flags.parse_f64("eps", 1e-3)?,
        build: build_mode_flag(flags)?,
        snapshot_dir: Some(dir),
    };
    let file = spec.snapshot_file().expect("snapshot_dir is set");
    let t = std::time::Instant::now();
    let (snap, outcome) = Engine::new().load_traced(spec)?;
    let dt = t.elapsed();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} {} ({} sets, {} objects, {} OVRs) in {dt:?}",
        match outcome {
            LoadOutcome::BuiltFromCsv => "built",
            LoadOutcome::LoadedFromSnapshot => "already up to date:",
        },
        file.display(),
        snap.set_count(),
        snap.object_count(),
        snap.index.len(),
    );
    Ok(out)
}

fn snapshot_file_flag(flags: &Flags) -> Result<std::path::PathBuf, String> {
    flags
        .get("file")
        .map(std::path::PathBuf::from)
        .ok_or_else(|| "--file is required".into())
}

fn snapshot_inspect(flags: &Flags) -> Result<String, String> {
    let path = snapshot_file_flag(flags)?;
    let info = molq_store::inspect_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "file      : {} ({} bytes)",
        path.display(),
        info.file_len
    );
    let _ = writeln!(out, "version   : {}", info.container.version);
    for (i, &(tag, len, crc)) in info.container.sections.iter().enumerate() {
        let name = match tag {
            1 => "META",
            2 => "SETS",
            3 => "MOVD",
            4 => "GRID",
            5 => "EPOCH",
            6 => "BUILD",
            _ => "????",
        };
        let _ = writeln!(
            out,
            "section {tag:>2} : {name} {len} bytes, crc {crc:#010x} ({})",
            if info.checksums_ok[i] {
                "ok"
            } else {
                "CORRUPT"
            }
        );
    }
    match info.summary {
        Some(s) => {
            let _ = writeln!(
                out,
                "dataset   : {} ({:?}, eps {}, {} sets, {} objects, {} OVRs, {}x{} grid)",
                s.name, s.boundary, s.eps, s.sets, s.objects, s.ovrs, s.grid.0, s.grid.1
            );
            let _ = writeln!(
                out,
                "epoch     : {} (compaction generation)",
                s.update_epoch
            );
            if s.build.mode.is_approx() {
                let _ = writeln!(
                    out,
                    "build     : approx (ε {}, certified factor {}, {} leaves, depth {}, \
                     {} forced)",
                    s.build.mode.epsilon(),
                    s.build.certified_factor(),
                    s.build.leaves,
                    s.build.refinement_depth,
                    s.build.forced_leaves
                );
            } else {
                let _ = writeln!(out, "build     : exact");
            }
            for src in &s.sources {
                let _ = writeln!(
                    out,
                    "source    : {} ({} bytes, fnv1a64 {:#018x})",
                    src.path, src.size, src.hash
                );
            }
        }
        None => {
            let _ = writeln!(out, "dataset   : <not decodable>");
        }
    }
    // The write-ahead journal rides next to the snapshot; describe it too.
    let jpath = path.with_extension("journal");
    if jpath.exists() {
        match molq_store::inspect_journal(&jpath) {
            Ok(j) => {
                let tail = match &j.defect {
                    Some(defect) => format!(
                        ", CORRUPT tail ({defect}; {} byte(s) drop on restore)",
                        j.salvaged_bytes
                    ),
                    None if j.torn_tail => ", torn tail".to_string(),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "journal   : {} ({} bytes, epoch {}, {} updates: {} inserts, {} removes{tail})",
                    jpath.display(),
                    j.file_len,
                    j.epoch,
                    j.records,
                    j.inserts,
                    j.removes,
                );
            }
            Err(e) => {
                let _ = writeln!(out, "journal   : {} CORRUPT ({e})", jpath.display());
            }
        }
    }
    Ok(out)
}

fn snapshot_verify(flags: &Flags) -> Result<String, String> {
    let path = snapshot_file_flag(flags)?;
    let s = molq_store::verify_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = format!(
        "{} OK: {} ({:?}, eps {}, {} sets, {} objects, {} OVRs)\n",
        path.display(),
        s.name,
        s.boundary,
        s.eps,
        s.sets,
        s.objects,
        s.ovrs
    );
    // A journal sidecar must replay onto this base: every record CRC intact,
    // dataset name and epoch matching. A torn trailing record is a valid
    // crash state (the prefix replays; restore truncates the tail), but a
    // *complete* record failing its CRC is damage — restore would salvage
    // the prefix, so verify reports exactly what would be lost.
    let jpath = path.with_extension("journal");
    if jpath.exists() {
        let j =
            molq_store::load_journal(&jpath).map_err(|e| format!("{}: {e}", jpath.display()))?;
        if let Some(defect) = &j.defect {
            return Err(format!(
                "{}: tail corrupt after {} valid record(s) ({defect}); restore would salvage \
                 the prefix and drop {} byte(s)",
                jpath.display(),
                j.records.len(),
                j.salvaged_bytes
            ));
        }
        if j.name != s.name {
            return Err(format!(
                "{}: journal names dataset {:?}, snapshot is {:?}",
                jpath.display(),
                j.name,
                s.name
            ));
        }
        if j.epoch != s.update_epoch {
            let _ = writeln!(
                out,
                "{} STALE: epoch {} vs base {} (ignored on restore)",
                jpath.display(),
                j.epoch,
                s.update_epoch
            );
        } else {
            let _ = writeln!(
                out,
                "{} OK: {} updates at epoch {}{}",
                jpath.display(),
                j.records.len(),
                j.epoch,
                if j.torn_tail {
                    " (torn tail, truncated on restore)"
                } else {
                    ""
                },
            );
        }
    }
    Ok(out)
}

/// A snapshot opened for offline updates: the base file, its live
/// (journal-replayed) diagram, and the journal opened for appending.
/// `molq update <add|remove|compact>` edits a snapshot through the same
/// incremental patch layer the server uses, journaling each change and
/// rewriting nothing — the base file stays untouched until `compact` folds
/// the journal in.
struct OfflineLive {
    path: std::path::PathBuf,
    stored: molq_store::StoredSnapshot,
    live: LiveMovd,
    journal: molq_store::Journal,
    replayed: usize,
    /// A warning line when the journal's defective tail was salvaged away
    /// (empty when the journal was clean).
    salvage_note: String,
}

fn open_live(flags: &Flags) -> Result<OfflineLive, String> {
    use molq_server::engine::{apply_one, update_of};

    let dir = std::path::PathBuf::from(flags.get("dir").ok_or("--dir is required")?);
    let name = flags.get("name").unwrap_or("default");
    let path = dir.join(format!("{name}.molq"));
    let stored = molq_store::StoredSnapshot::load_file(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if stored.build.mode.is_approx() {
        return Err(format!(
            "{}: snapshot was built in approximate mode (ε = {}); the incremental patch \
             layer is exact-only — rebuild without --epsilon to edit it",
            path.display(),
            stored.build.mode.epsilon()
        ));
    }
    let inferred = stored.explicit_bounds.is_none();
    let exec = exec_flag(flags, ExecConfig::default())?;
    let index = MovdIndex::from_arena(stored.movd.clone(), stored.grid.clone())?;
    let mut live = LiveMovd::from_index(stored.sets.clone(), index, stored.boundary, exec)
        .map_err(|e| e.to_string())?;

    // Replay what the journal already holds so the new update lands on top
    // of the full history (exactly what the server replays on restart).
    let jpath = molq_store::journal_path(&dir, &stored.name);
    let mut replayed = 0;
    let mut salvage_note = String::new();
    if jpath.exists() {
        let j =
            molq_store::load_journal(&jpath).map_err(|e| format!("{}: {e}", jpath.display()))?;
        if j.name != stored.name || j.epoch != stored.update_epoch {
            return Err(format!(
                "{}: journal is stale (dataset {:?} epoch {}, base {:?} epoch {})",
                jpath.display(),
                j.name,
                j.epoch,
                stored.name,
                stored.update_epoch
            ));
        }
        if let Some(defect) = &j.defect {
            // Same recovery the server runs: replay the valid prefix; the
            // reopen below truncates the defective tail.
            salvage_note = format!(
                "warning: {}: tail corrupt ({defect}); salvaged the {}-record prefix, \
                 dropping {} byte(s)\n",
                jpath.display(),
                j.records.len(),
                j.salvaged_bytes
            );
        }
        for record in &j.records {
            apply_one(&mut live, inferred, &update_of(record))
                .map_err(|e| format!("{}: replay failed: {e}", jpath.display()))?;
            replayed += 1;
        }
    }
    let journal = molq_store::Journal::open_or_create(&jpath, &stored.name, stored.update_epoch)
        .map_err(|e| format!("{}: {e}", jpath.display()))?;
    Ok(OfflineLive {
        path,
        stored,
        live,
        journal,
        replayed,
        salvage_note,
    })
}

/// `--set` resolved against the loaded sets: by name first, then as an
/// index.
fn set_flag(sets: &[ObjectSet], flags: &Flags) -> Result<usize, String> {
    let raw = flags.get("set").ok_or("--set is required")?;
    if let Some(i) = sets.iter().position(|s| s.name == raw) {
        return Ok(i);
    }
    raw.parse::<usize>()
        .ok()
        .filter(|i| *i < sets.len())
        .ok_or_else(|| format!("--set: {raw:?} names no object set (and is not a valid index)"))
}

fn require_f64(flags: &Flags, key: &str) -> Result<f64, String> {
    flags
        .get(key)
        .ok_or_else(|| format!("--{key} is required"))?
        .parse()
        .map_err(|e| format!("--{key}: {e}"))
}

/// Applies one update to an opened snapshot: journal append (durable) after
/// the in-memory patch succeeds, then a one-line report.
fn apply_offline(mut st: OfflineLive, upd: &Update) -> Result<String, String> {
    use molq_server::engine::{apply_one, record_of};

    let inferred = st.stored.explicit_bounds.is_none();
    let (stats, full) =
        apply_one(&mut st.live, inferred, upd).map_err(|e| format!("update rejected: {e}"))?;
    st.journal
        .append(&record_of(upd))
        .map_err(|e| format!("{}: {e}", st.journal.path().display()))?;
    let objects: usize = st.live.sets().iter().map(|s| s.objects.len()).sum();
    Ok(format!(
        "{}{} {} (journal {} + this; {} objects now, {}, {:?})\n",
        st.salvage_note,
        match upd {
            Update::Insert { .. } => "inserted into",
            Update::Remove { .. } => "removed from",
        },
        st.path.display(),
        st.replayed,
        objects,
        if full {
            "full rebuild (bounds moved)".to_string()
        } else {
            format!(
                "{} cells re-clipped, {} OVRs re-derived",
                stats.cells_reclipped, stats.ovrs_rederived
            )
        },
        stats.wall,
    ))
}

fn update_add(flags: &Flags) -> Result<String, String> {
    let st = open_live(flags)?;
    let set = set_flag(st.live.sets(), flags)?;
    let object = SpatialObject {
        loc: molq_geom::Point::new(require_f64(flags, "x")?, require_f64(flags, "y")?),
        w_t: flags.parse_f64("wt", 1.0)?,
        w_o: flags.parse_f64("wo", 1.0)?,
    };
    apply_offline(st, &Update::Insert { set, object })
}

fn update_remove(flags: &Flags) -> Result<String, String> {
    let st = open_live(flags)?;
    let set = set_flag(st.live.sets(), flags)?;
    let index = flags
        .get("index")
        .ok_or("--index is required")?
        .parse::<usize>()
        .map_err(|e| format!("--index: {e}"))?;
    apply_offline(st, &Update::Remove { set, index })
}

/// Folds the journal into a new base file at epoch + 1 and resets the
/// journal, exactly like the server's compaction.
fn update_compact(flags: &Flags) -> Result<String, String> {
    let mut st = open_live(flags)?;
    let new_epoch = st.stored.update_epoch + 1;
    let compacted = molq_store::StoredSnapshot {
        name: st.stored.name.clone(),
        boundary: st.stored.boundary,
        eps: st.stored.eps,
        explicit_bounds: st.stored.explicit_bounds,
        fingerprint: st.stored.fingerprint.clone(),
        sets: st.live.sets().to_vec(),
        movd: st.live.index().arena().clone(),
        grid: st.live.index().grid().clone(),
        update_epoch: new_epoch,
        build: st.stored.build,
    };
    compacted
        .save_file(&st.path)
        .map_err(|e| format!("{}: {e}", st.path.display()))?;
    st.journal
        .reset(new_epoch)
        .map_err(|e| format!("{}: {e}", st.journal.path().display()))?;
    Ok(format!(
        "{}compacted {} journal updates into {} (epoch {new_epoch}); journal reset\n",
        st.salvage_note,
        st.replayed,
        st.path.display(),
    ))
}

fn generate(flags: &Flags) -> Result<String, String> {
    let layer = parse_layer(flags.get("layer").ok_or("--layer is required")?)?;
    let n = flags.parse_usize("n", 1000)?;
    let seed = flags.parse_usize("seed", 2014)? as u64;
    let w_t = flags.parse_f64("wt", 1.0)?;
    let bounds = match flags.get("bounds") {
        Some(b) => parse_bounds(b)?,
        None => Mbr::new(0.0, 0.0, 1_000_000.0, 1_000_000.0),
    };
    let out = flags.get("out").ok_or("--out is required")?;
    let (set, weights) = match flags.get("zipf") {
        Some(raw) => {
            let s: f64 = raw
                .parse()
                .map_err(|e| format!("--zipf must be an f64: {e}"))?;
            if !s.is_finite() || s < 0.0 {
                return Err("--zipf must be a finite non-negative exponent".into());
            }
            (
                molq_datagen::layer_object_set_zipf(layer, n, w_t, bounds, seed, s),
                format!("zipf(s = {s})"),
            )
        }
        None => (
            layer_object_set(layer, n, w_t, bounds, seed),
            "uniform".to_string(),
        ),
    };
    let mut f = File::create(out).map_err(|e| format!("{out}: {e}"))?;
    write_csv(&set, &mut f).map_err(|e| format!("{out}: {e}"))?;
    Ok(format!(
        "wrote {n} {} objects (w_t = {w_t}, w_o {weights}, seed {seed}) to {out}\n",
        layer.code()
    ))
}

fn solve(flags: &Flags) -> Result<String, String> {
    let sets = load_sets(flags)?;
    let bounds = bounds_for(flags, &sets)?;
    let eps = flags.parse_f64("eps", 1e-3)?;
    let algo = flags.get("algo").unwrap_or("rrb");
    let exec = exec_flag(flags, ExecConfig::default())?;
    let query = MolqQuery::new(sets, bounds).with_rule(StoppingRule::Either(eps, 100_000));

    let mut out = String::new();
    let t = std::time::Instant::now();
    let (loc, cost, extra) = match algo {
        "ssc" => {
            let a = solve_ssc_with(&query, exec).map_err(|e| e.to_string())?;
            (
                a.location,
                a.cost,
                format!("{} combinations", a.combinations),
            )
        }
        "rrb" => {
            let a = solve_movd_with(&query, Boundary::Rrb, exec).map_err(|e| e.to_string())?;
            (a.location, a.cost, format!("{} OVRs", a.ovr_count))
        }
        "mbrb" => {
            let a = solve_movd_with(&query, Boundary::Mbrb, exec).map_err(|e| e.to_string())?;
            (a.location, a.cost, format!("{} OVRs", a.ovr_count))
        }
        "pruned" => {
            let a = solve_pruned(&query, Boundary::Rrb).map_err(|e| e.to_string())?;
            (
                a.answer.location,
                a.answer.cost,
                format!(
                    "{} OVRs after pruning {}",
                    a.prune.final_ovrs, a.prune.pruned_ovrs
                ),
            )
        }
        "tiled" => {
            let tiles = flags.parse_usize("tiles", 4)?;
            let a = solve_tiled(&query, Boundary::Rrb, tiles).map_err(|e| e.to_string())?;
            (
                a.location,
                a.cost,
                format!("{} tiles, peak tile {} B", a.tiles, a.peak_tile_bytes),
            )
        }
        "topk" => {
            let k = flags.parse_usize("k", 5)?;
            let a = solve_topk_with(&query, Boundary::Rrb, k, exec).map_err(|e| e.to_string())?;
            let mut ranked = String::new();
            for (rank, c) in a.candidates.iter().enumerate().skip(1) {
                let _ = write!(
                    ranked,
                    "\n            #{}: ({:.3}, {:.3}) cost {:.3}",
                    rank + 1,
                    c.location.x,
                    c.location.y,
                    c.cost
                );
            }
            let first = &a.candidates[0];
            (
                first.location,
                first.cost,
                format!("{} candidates{ranked}", a.candidates.len()),
            )
        }
        other => return Err(format!("unknown --algo {other:?}")),
    };
    let dt = t.elapsed();
    let _ = writeln!(out, "algorithm : {algo}");
    let _ = writeln!(out, "location  : ({:.3}, {:.3})", loc.x, loc.y);
    let _ = writeln!(out, "cost      : {cost:.3}");
    let _ = writeln!(out, "detail    : {extra}");
    let _ = writeln!(out, "elapsed   : {dt:?}");
    Ok(out)
}

/// Set by the SIGINT handler; polled by the serve loop.
static SERVE_STOP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

#[cfg(unix)]
fn install_sigint_handler() {
    use std::sync::atomic::Ordering;
    extern "C" fn on_sigint(_signum: i32) {
        SERVE_STOP.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

fn serve(flags: &Flags) -> Result<String, String> {
    use molq_server::engine::{DatasetSpec, Engine};
    use molq_server::http::{start, ServerConfig};
    use molq_server::service::{Service, ServiceConfig};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let inputs = flags.get_all("input");
    if inputs.is_empty() {
        return Err("at least one --input CSV is required".into());
    }
    let boundary = match flags.get("algo").unwrap_or("rrb") {
        "rrb" => Boundary::Rrb,
        "mbrb" => Boundary::Mbrb,
        other => return Err(format!("unknown --algo {other:?} (rrb, mbrb)")),
    };
    let port: u16 = match flags.get("port") {
        None => 8080,
        Some(v) => v.parse().map_err(|e| format!("--port: {e}"))?,
    };
    let host = flags.get("host").unwrap_or("127.0.0.1").to_string();
    let workers = flags.parse_usize("workers", 4)?;
    let name = flags.get("name").unwrap_or("default").to_string();
    let eps = flags.parse_f64("eps", 1e-3)?;
    let bounds = flags.get("bounds").map(parse_bounds).transpose()?;
    let shutdown_after = flags
        .get("shutdown-after")
        .map(|v| {
            v.parse::<f64>()
                .map_err(|e| format!("--shutdown-after: {e}"))
        })
        .transpose()?;
    let request_timeout = flags.parse_f64("request-timeout", 10.0)?;
    if !request_timeout.is_finite() || request_timeout <= 0.0 {
        return Err("--request-timeout must be a positive number of seconds".into());
    }
    // Default: MOLQ_THREADS, else all cores (ServiceConfig::default).
    let exec = exec_flag(flags, ExecConfig::new(ServiceConfig::default().threads))?;

    let spec = DatasetSpec {
        name: name.clone(),
        paths: inputs.iter().map(std::path::PathBuf::from).collect(),
        boundary,
        bounds,
        eps,
        build: build_mode_flag(flags)?,
        snapshot_dir: flags.get("snapshot-dir").map(std::path::PathBuf::from),
    };
    // Faults from MOLQ_FAULTS arm before serving starts, so chaos drills can
    // target the whole request lifecycle (see molq_server::fault).
    if let Some(spec) =
        molq_server::fault::arm_from_env().map_err(|e| format!("MOLQ_FAULTS: {e}"))?
    {
        eprintln!("molq serve: fault injection armed: {spec}");
    }

    let engine = Engine::new();
    // The initial build runs on the same pool width the service will use.
    engine.set_exec_config(exec);
    let build_start = Instant::now();
    let (snapshot, outcome) = engine.load_traced(spec)?;
    let build_time = build_start.elapsed();
    let service = Arc::new(Service::with_config(
        engine,
        ServiceConfig {
            request_timeout: Duration::from_secs_f64(request_timeout),
            threads: exec.threads,
        },
    ));

    let handle = start(
        Arc::clone(&service),
        ServerConfig {
            host,
            port,
            workers,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "dataset   : {name} ({} sets, {} objects, {} OVRs, {} in {build_time:?})",
        snapshot.set_count(),
        snapshot.object_count(),
        snapshot.index.len(),
        match outcome {
            molq_server::engine::LoadOutcome::BuiltFromCsv => "built",
            molq_server::engine::LoadOutcome::LoadedFromSnapshot => "restored from snapshot",
        },
    );
    let _ = writeln!(out, "threads   : {}", exec.threads);
    // The one transport is a worker pool of `--workers` epoll event loops;
    // the line keeps the name molqbench records as the transport fact.
    let _ = writeln!(out, "transport : pool");
    let _ = writeln!(out, "address   : http://{}", handle.addr());
    // The report so far is only returned when the server exits, so print the
    // serving banner immediately for interactive use.
    eprint!("{out}");
    eprintln!("press Ctrl-C to stop");

    SERVE_STOP.store(false, Ordering::SeqCst);
    install_sigint_handler();
    let deadline = shutdown_after.map(|secs| Instant::now() + Duration::from_secs_f64(secs));
    while !SERVE_STOP.load(Ordering::SeqCst) && deadline.map_or(true, |d| Instant::now() < d) {
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();

    let served: u64 = service
        .metrics()
        .endpoints()
        .iter()
        .map(|(_, m)| m.requests())
        .sum();
    let _ = writeln!(out, "served    : {served} requests");
    Ok(out)
}

fn render(flags: &Flags) -> Result<String, String> {
    let sets = load_sets(flags)?;
    let bounds = bounds_for(flags, &sets)?;
    let width = flags.parse_usize("width", 800)?;
    let mode = flags.get("mode").unwrap_or("rrb");
    let out_path = flags.get("out").ok_or("--out is required")?;

    let svg = match mode {
        "voronoi" => {
            let sites: Vec<_> = sets[0].objects.iter().map(|o| o.loc).collect();
            let vd =
                molq_voronoi::OrdinaryVoronoi::build(&sites, bounds).map_err(|e| e.to_string())?;
            molq_viz::render_voronoi(&vd, width)
        }
        "rrb" | "mbrb" => {
            let boundary = if mode == "rrb" {
                Boundary::Rrb
            } else {
                Boundary::Mbrb
            };
            let movd = Movd::overlap_all(&sets, bounds, boundary).map_err(|e| e.to_string())?;
            molq_viz::render_movd(&movd, width)
        }
        other => return Err(format!("unknown --mode {other:?}")),
    };
    let mut f = File::create(out_path).map_err(|e| format!("{out_path}: {e}"))?;
    f.write_all(svg.as_bytes())
        .map_err(|e| format!("{out_path}: {e}"))?;
    Ok(format!("wrote {out_path} ({} bytes)\n", svg.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn rejects_unknown_commands_and_flags() {
        assert!(run(&argv("frobnicate")).is_err());
        assert!(run(&argv("solve nope")).is_err());
        assert!(run(&argv("solve --algo")).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn flag_errors_name_the_offender() {
        assert_eq!(
            run(&argv("solve --algo")).unwrap_err(),
            "flag --algo needs a value"
        );
        assert_eq!(
            run(&argv("solve positional")).unwrap_err(),
            "expected a --flag, got \"positional\""
        );
        assert!(run(&argv("generate --n ten --layer STM --out /tmp/x.csv"))
            .unwrap_err()
            .contains("--n"));
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        for (args, flag) in [
            ("serve --input x.csv --shards 2", "--shards"),
            ("serve --input x.csv --transport epoll", "--transport"),
            ("solve --input x.csv --thread 4", "--thread"),
            ("generate --layer STM --out x.csv --bogus 7", "--bogus"),
            ("snapshot verify --file x.molq --dir d", "--dir"),
            ("update compact --dir d --bounds 0,0,1,1", "--bounds"),
        ] {
            let err = run(&argv(args)).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown flag {flag} ")),
                "{args}: {err}"
            );
        }
    }

    #[test]
    fn generate_zipf_writes_skewed_object_weights() {
        let dir = std::env::temp_dir().join("molq_cli_zipf");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("z.csv");
        for bad in ["nan", "-1", "abc"] {
            assert!(run(&argv(&format!(
                "generate --layer STM --n 10 --zipf {bad} --out {}",
                out.display()
            )))
            .is_err());
        }
        let msg = run(&argv(&format!(
            "generate --layer STM --n 200 --seed 4 --zipf 1.0 --out {} --bounds 0,0,100,100",
            out.display()
        )))
        .unwrap();
        assert!(msg.contains("zipf(s = 1)"), "{msg}");
        let set = read_csv("STM", File::open(&out).unwrap()).unwrap();
        assert_eq!(set.len(), 200);
        assert!(!set.has_uniform_object_weights());
        let mean = set.objects.iter().map(|o| o.w_o).sum::<f64>() / 200.0;
        assert!((mean - 1.0).abs() < 1e-9, "mean {mean}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn usage_covers_every_command() {
        let text = usage();
        for cmd in ["generate", "solve", "render", "serve", "snapshot", "update"] {
            assert!(text.contains(cmd), "usage misses {cmd}");
        }
        for flag in [
            "--input",
            "--algo",
            "--port",
            "--shutdown-after",
            "--snapshot-dir",
            "--request-timeout",
            "--threads",
            "--dir",
            "--file",
            "--set",
            "--index",
        ] {
            assert!(text.contains(flag), "usage misses {flag}");
        }
        for (command, _, known) in COMMANDS {
            for flag in known.split_whitespace() {
                assert!(
                    text.contains(&format!("--{flag}")),
                    "usage misses {command} --{flag}"
                );
            }
        }
        assert!(text.contains("MOLQ_FAULTS"), "usage misses MOLQ_FAULTS");
        assert!(text.contains("journal"), "usage misses the journal");
    }

    #[test]
    fn snapshot_subcommands_validate_flags() {
        assert!(run(&argv("snapshot")).unwrap_err().contains("subcommand"));
        assert!(run(&argv("snapshot frobnicate"))
            .unwrap_err()
            .contains("frobnicate"));
        assert!(run(&argv("snapshot build --dir /tmp/x"))
            .unwrap_err()
            .contains("--input"));
        assert!(run(&argv("snapshot build --input a.csv"))
            .unwrap_err()
            .contains("--dir"));
        assert!(run(&argv("snapshot inspect"))
            .unwrap_err()
            .contains("--file"));
        assert!(run(&argv("snapshot verify"))
            .unwrap_err()
            .contains("--file"));
        // A missing snapshot file is an error, not a panic.
        assert!(run(&argv("snapshot verify --file /nonexistent/d.molq")).is_err());
    }

    #[test]
    fn update_subcommands_validate_flags() {
        assert!(run(&argv("update")).unwrap_err().contains("subcommand"));
        assert!(run(&argv("update frobnicate"))
            .unwrap_err()
            .contains("frobnicate"));
        assert!(run(&argv("update add --set a --x 1 --y 2"))
            .unwrap_err()
            .contains("--dir"));
        assert!(run(&argv("update compact")).unwrap_err().contains("--dir"));
        // A missing base snapshot is an error, not a panic.
        assert!(run(&argv("update add --dir /nonexistent --set a --x 1 --y 2")).is_err());
    }

    #[test]
    fn update_add_remove_compact_roundtrip() {
        let dir = std::env::temp_dir().join("molq_cli_update");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.csv");
        let b = dir.join("b.csv");
        for (path, layer, seed) in [(&a, "STM", 41), (&b, "CH", 42)] {
            run(&argv(&format!(
                "generate --layer {layer} --n 10 --seed {seed} --out {} --bounds 0,0,50,50",
                path.display()
            )))
            .unwrap();
        }
        run(&argv(&format!(
            "snapshot build --input {} --input {} --dir {} --name d --bounds 0,0,50,50",
            a.display(),
            b.display(),
            dir.display()
        )))
        .unwrap();
        let file = dir.join("d.molq");
        let journal = dir.join("d.journal");

        // Two inserts and one remove, each journaled.
        let added = run(&argv(&format!(
            "update add --dir {} --name d --set a --x 12.5 --y 17.25 --wo 2",
            dir.display()
        )))
        .unwrap();
        assert!(added.contains("inserted"), "{added}");
        assert!(added.contains("21 objects now"), "{added}");
        run(&argv(&format!(
            "update add --dir {} --name d --set b --x 31.5 --y 8.75",
            dir.display()
        )))
        .unwrap();
        let removed = run(&argv(&format!(
            "update remove --dir {} --name d --set b --index 0",
            dir.display()
        )))
        .unwrap();
        assert!(removed.contains("removed"), "{removed}");
        assert!(journal.exists());

        // inspect/verify describe the journal sidecar.
        let inspect = run(&argv(&format!(
            "snapshot inspect --file {}",
            file.display()
        )))
        .unwrap();
        assert!(
            inspect.contains("3 updates: 2 inserts, 1 removes"),
            "{inspect}"
        );
        assert!(inspect.contains("epoch     : 0"), "{inspect}");
        let verify = run(&argv(&format!("snapshot verify --file {}", file.display()))).unwrap();
        assert!(verify.contains("3 updates at epoch 0"), "{verify}");

        // A rejected update (bad index) leaves the journal as-is.
        assert!(run(&argv(&format!(
            "update remove --dir {} --name d --set a --index 999",
            dir.display()
        )))
        .unwrap_err()
        .contains("rejected"));

        // The patched dataset is byte-identical to a from-scratch build over
        // the updated objects: replay journal onto the base and compare with
        // overlap_all over the same sets.
        {
            use molq_server::engine::{apply_one, update_of};
            let stored = molq_store::StoredSnapshot::load_file(&file).unwrap();
            let index = MovdIndex::from_arena(stored.movd.clone(), stored.grid.clone()).unwrap();
            let mut live = LiveMovd::from_index(
                stored.sets.clone(),
                index,
                stored.boundary,
                ExecConfig::serial(),
            )
            .unwrap();
            let j = molq_store::load_journal(&journal).unwrap();
            assert_eq!(j.records.len(), 3);
            for r in &j.records {
                apply_one(&mut live, false, &update_of(r)).unwrap();
            }
            let fresh = Movd::overlap_all_with(
                live.sets(),
                live.bounds(),
                stored.boundary,
                ExecConfig::serial(),
            )
            .unwrap();
            assert!(movd_bits_eq(&live.index().arena().to_movd(), &fresh));
        }

        // Compaction folds the journal into a new base at epoch 1 and
        // resets the journal; inspect reflects both.
        let compacted = run(&argv(&format!(
            "update compact --dir {} --name d",
            dir.display()
        )))
        .unwrap();
        assert!(compacted.contains("compacted 3"), "{compacted}");
        let inspect = run(&argv(&format!(
            "snapshot inspect --file {}",
            file.display()
        )))
        .unwrap();
        assert!(inspect.contains("epoch     : 1"), "{inspect}");
        assert!(inspect.contains("EPOCH"), "{inspect}");
        assert!(
            inspect.contains("0 updates: 0 inserts, 0 removes"),
            "{inspect}"
        );
        let verify = run(&argv(&format!("snapshot verify --file {}", file.display()))).unwrap();
        assert!(verify.contains("0 updates at epoch 1"), "{verify}");

        // Further updates land in the fresh journal at the new epoch.
        run(&argv(&format!(
            "update add --dir {} --name d --set a --x 44.5 --y 3.25",
            dir.display()
        )))
        .unwrap();
        let verify = run(&argv(&format!("snapshot verify --file {}", file.display()))).unwrap();
        assert!(verify.contains("1 updates at epoch 1"), "{verify}");

        // A bit flip inside a journal record payload fails verify but not
        // inspect (which flags the damage instead).
        let mut bytes = std::fs::read(&journal).unwrap();
        let at = bytes.len() - 20; // inside the one record's payload
        bytes[at] ^= 0x01;
        std::fs::write(&journal, &bytes).unwrap();
        let err = run(&argv(&format!("snapshot verify --file {}", file.display()))).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        let inspect = run(&argv(&format!(
            "snapshot inspect --file {}",
            file.display()
        )))
        .unwrap();
        assert!(inspect.contains("CORRUPT"), "{inspect}");
    }

    #[test]
    fn snapshot_build_verify_inspect_roundtrip() {
        let dir = std::env::temp_dir().join("molq_cli_snapshot");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.csv");
        let b = dir.join("b.csv");
        for (path, layer, seed) in [(&a, "STM", 11), (&b, "CH", 12)] {
            run(&argv(&format!(
                "generate --layer {layer} --n 12 --seed {seed} --out {} --bounds 0,0,40,40",
                path.display()
            )))
            .unwrap();
        }
        let build = |name: &str| {
            run(&argv(&format!(
                "snapshot build --input {} --input {} --dir {} --name {name} \
                 --bounds 0,0,40,40",
                a.display(),
                b.display(),
                dir.display()
            )))
            .unwrap()
        };
        let report = build("d");
        assert!(report.starts_with("built"), "{report}");
        assert!(report.contains("2 sets, 24 objects"), "{report}");
        // A rebuild over unchanged sources is a no-op.
        let again = build("d");
        assert!(again.contains("already up to date"), "{again}");

        let file = dir.join("d.molq");
        let verify = run(&argv(&format!("snapshot verify --file {}", file.display()))).unwrap();
        assert!(verify.contains("OK"), "{verify}");
        assert!(verify.contains("24 objects"), "{verify}");

        let inspect = run(&argv(&format!(
            "snapshot inspect --file {}",
            file.display()
        )))
        .unwrap();
        let version_line = format!("version   : {}", molq_store::FORMAT_VERSION);
        for want in [
            version_line.as_str(),
            "META",
            "SETS",
            "MOVD",
            "GRID",
            "a.csv",
        ] {
            assert!(inspect.contains(want), "inspect misses {want}:\n{inspect}");
        }

        // Corruption: verify fails with the checksum error; inspect still
        // describes the file and flags the damaged section.
        let mut bytes = std::fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&file, &bytes).unwrap();
        let err = run(&argv(&format!("snapshot verify --file {}", file.display()))).unwrap_err();
        assert!(
            err.contains("checksum") || err.contains("malformed") || err.contains("truncated"),
            "{err}"
        );
        let inspect = run(&argv(&format!(
            "snapshot inspect --file {}",
            file.display()
        )))
        .unwrap();
        assert!(inspect.contains("CORRUPT"), "{inspect}");
    }

    #[test]
    fn serve_restores_from_snapshot_dir() {
        let dir = std::env::temp_dir().join("molq_cli_serve_snap");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.csv");
        run(&argv(&format!(
            "generate --layer STM --n 14 --seed 21 --out {} --bounds 0,0,30,30",
            a.display()
        )))
        .unwrap();
        let serve = |tag: &str| {
            run(&argv(&format!(
                "serve --input {} --bounds 0,0,30,30 --port 0 --workers 1 \
                 --shutdown-after 0.05 --snapshot-dir {}",
                a.display(),
                dir.display()
            )))
            .unwrap_or_else(|e| panic!("{tag}: {e}"))
        };
        let cold = serve("cold");
        assert!(cold.contains("built in"), "{cold}");
        assert!(dir.join("default.molq").exists());
        let warm = serve("warm");
        assert!(warm.contains("restored from snapshot in"), "{warm}");
    }

    #[test]
    fn serve_validates_flags_before_binding() {
        assert!(run(&argv("serve")).unwrap_err().contains("--input"));
        assert!(run(&argv("serve --input x.csv --algo ssc"))
            .unwrap_err()
            .contains("--algo"));
        assert!(run(&argv("serve --input x.csv --request-timeout 0"))
            .unwrap_err()
            .contains("--request-timeout"));
        assert!(run(&argv("serve --input x.csv --request-timeout nan"))
            .unwrap_err()
            .contains("--request-timeout"));
        assert!(run(&argv("serve --input x.csv --port notaport"))
            .unwrap_err()
            .contains("--port"));
        // A missing input file fails at load, not with a panic.
        assert!(run(&argv("serve --input /nonexistent/layer.csv --port 0")).is_err());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn serve_starts_and_shuts_down() {
        let dir = std::env::temp_dir().join("molq_cli_serve");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.csv");
        let b = dir.join("b.csv");
        for (path, layer, seed) in [(&a, "STM", 4), (&b, "CH", 5)] {
            run(&argv(&format!(
                "generate --layer {layer} --n 15 --seed {seed} --out {} --bounds 0,0,60,60",
                path.display()
            )))
            .unwrap();
        }
        let report = run(&argv(&format!(
            "serve --input {} --input {} --bounds 0,0,60,60 --port 0 --workers 2 \
             --shutdown-after 0.2",
            a.display(),
            b.display()
        )))
        .unwrap();
        assert!(report.contains("2 sets, 30 objects"), "{report}");
        assert!(report.contains("transport : pool"), "{report}");
        assert!(report.contains("address   : http://127.0.0.1:"), "{report}");
        assert!(report.contains("served    : 0 requests"), "{report}");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn serve_runs_the_epoll_transport_on_one_layer() {
        let dir = std::env::temp_dir().join("molq_cli_serve_epoll");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.csv");
        run(&argv(&format!(
            "generate --layer STM --n 12 --seed 6 --out {} --bounds 0,0,40,40",
            a.display()
        )))
        .unwrap();
        let report = run(&argv(&format!(
            "serve --input {} --bounds 0,0,40,40 --port 0 --workers 2 \
             --shutdown-after 0.2",
            a.display()
        )))
        .unwrap();
        assert!(report.contains("1 sets, 12 objects"), "{report}");
        assert!(report.contains("transport : pool"), "{report}");
    }

    #[test]
    fn generate_then_solve_roundtrip() {
        let dir = std::env::temp_dir().join("molq_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.csv");
        let b = dir.join("b.csv");
        run(&argv(&format!(
            "generate --layer STM --n 20 --seed 1 --out {} --bounds 0,0,100,100",
            a.display()
        )))
        .unwrap();
        run(&argv(&format!(
            "generate --layer CH --n 25 --seed 2 --out {} --bounds 0,0,100,100",
            b.display()
        )))
        .unwrap();
        for algo in ["ssc", "rrb", "mbrb", "pruned", "tiled"] {
            let report = run(&argv(&format!(
                "solve --algo {algo} --input {} --input {} --bounds 0,0,100,100",
                a.display(),
                b.display()
            )))
            .unwrap();
            assert!(report.contains("location"), "{algo}: {report}");
        }
        // Top-k lists additional ranked candidates.
        let report = run(&argv(&format!(
            "solve --algo topk --k 3 --input {} --input {} --bounds 0,0,100,100",
            a.display(),
            b.display()
        )))
        .unwrap();
        assert!(report.contains("candidates"), "{report}");
        assert!(report.contains("#2"), "{report}");
    }

    #[test]
    fn solutions_agree_through_the_cli() {
        let dir = std::env::temp_dir().join("molq_cli_agree");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.csv");
        let b = dir.join("b.csv");
        for (path, layer, seed) in [(&a, "STM", 7), (&b, "SCH", 8)] {
            run(&argv(&format!(
                "generate --layer {layer} --n 15 --seed {seed} --out {} --bounds 0,0,50,50",
                path.display()
            )))
            .unwrap();
        }
        let cost_of = |algo: &str| -> f64 {
            let report = run(&argv(&format!(
                "solve --algo {algo} --eps 1e-9 --input {} --input {} --bounds 0,0,50,50",
                a.display(),
                b.display()
            )))
            .unwrap();
            report
                .lines()
                .find(|l| l.starts_with("cost"))
                .and_then(|l| l.split(':').nth(1))
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        let ssc = cost_of("ssc");
        for algo in ["rrb", "mbrb", "pruned", "tiled"] {
            let c = cost_of(algo);
            assert!((ssc - c).abs() < 1e-3 * ssc, "{algo}: {c} vs ssc {ssc}");
        }
    }

    #[test]
    fn solve_reports_identical_answers_at_any_thread_count() {
        let dir = std::env::temp_dir().join("molq_cli_threads");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.csv");
        let b = dir.join("b.csv");
        for (path, layer, seed) in [(&a, "STM", 17), (&b, "CH", 18)] {
            run(&argv(&format!(
                "generate --layer {layer} --n 18 --seed {seed} --out {} --bounds 0,0,80,80",
                path.display()
            )))
            .unwrap();
        }
        for algo in ["rrb", "mbrb", "topk", "ssc"] {
            let answer_of = |threads: usize| -> Vec<String> {
                run(&argv(&format!(
                    "solve --algo {algo} --threads {threads} --input {} --input {} \
                     --bounds 0,0,80,80",
                    a.display(),
                    b.display()
                )))
                .unwrap()
                .lines()
                .filter(|l| l.starts_with("location") || l.starts_with("cost"))
                .map(String::from)
                .collect()
            };
            let serial = answer_of(1);
            assert_eq!(serial.len(), 2, "{algo}");
            assert_eq!(serial, answer_of(2), "{algo}");
            assert_eq!(serial, answer_of(8), "{algo}");
        }
        // Malformed thread counts are flag errors, not panics.
        for bad in ["0", "-2", "many"] {
            let err = run(&argv(&format!(
                "solve --threads {bad} --input {}",
                a.display()
            )))
            .unwrap_err();
            assert!(err.contains("--threads"), "{bad}: {err}");
        }
        assert!(run(&argv("serve --input x.csv --threads 0"))
            .unwrap_err()
            .contains("--threads"));
    }

    #[test]
    fn render_produces_svg() {
        let dir = std::env::temp_dir().join("molq_cli_render");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.csv");
        let svg = dir.join("out.svg");
        run(&argv(&format!(
            "generate --layer PPL --n 12 --seed 3 --out {} --bounds 0,0,10,10",
            a.display()
        )))
        .unwrap();
        for mode in ["voronoi", "rrb", "mbrb"] {
            run(&argv(&format!(
                "render --mode {mode} --input {} --out {} --bounds 0,0,10,10",
                a.display(),
                svg.display()
            )))
            .unwrap();
            let content = std::fs::read_to_string(&svg).unwrap();
            assert!(content.starts_with("<svg"), "{mode}");
        }
    }

    #[test]
    fn bounds_parsing() {
        assert!(parse_bounds("0,0,10,10").is_ok());
        assert!(parse_bounds("10,0,0,10").is_err());
        assert!(parse_bounds("1,2,3").is_err());
        assert!(parse_bounds("a,b,c,d").is_err());
    }
}
