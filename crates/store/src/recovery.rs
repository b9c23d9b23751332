//! The crash-recovery ladder: one shared decision procedure for turning
//! whatever a crash left on disk back into a servable dataset.
//!
//! Both the serving engine (on [`RealVfs`](crate::vfs::RealVfs)) and the
//! crash-point test harness (on [`MemVfs`](crate::vfs::MemVfs)) call
//! [`recover`], so the recovery logic the tests enumerate crash images
//! against is byte-for-byte the logic production runs.
//!
//! The ladder, in order of preference:
//!
//! 1. **base + full journal replay** — the clean case;
//! 2. **base + salvaged prefix** — the journal's tail is torn (crash
//!    mid-append) or defective (bit rot): replay the longest valid record
//!    prefix and truncate the rest on reopen;
//! 3. **base alone** — the journal is missing, unreadable, or bound to a
//!    different dataset/epoch: set it aside and serve the base. Every
//!    update the base itself captured survives;
//! 4. only when the **base** is unreadable does recovery fail — the
//!    caller falls back to rebuilding from source CSVs.
//!
//! Rung 3 is deliberate: a defective journal *header* must not throw away
//! a perfectly good base, and rung 2 is what makes an fsync-acknowledged
//! prefix survive a torn tail instead of triggering a full rebuild.

use crate::error::StoreError;
use crate::journal::{journal_path, load_journal_on, JournalRecord};
use crate::snapshot::{DecodeTimings, StoredSnapshot};
use crate::vfs::{sync_parent_dir, Vfs};
use std::path::{Path, PathBuf};

/// The base snapshot path for dataset `name` in `dir`.
pub fn snapshot_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.molq"))
}

/// What [`recover`] decided about the journal sidecar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalDisposition {
    /// No journal file exists (a freshly compacted or never-updated base).
    Missing,
    /// Every record replayed cleanly.
    Clean,
    /// The file ends in a partial record — the classic crash-mid-append
    /// shape. The complete prefix replayed.
    TornTail {
        /// Bytes of partial record past the valid prefix.
        dropped_bytes: u64,
    },
    /// A complete record failed validation; the valid prefix replayed and
    /// the defective tail is dropped (bit rot, not a crash shape).
    Salvaged {
        /// Bytes past the valid prefix.
        dropped_bytes: u64,
        /// The validation failure that ended the prefix.
        defect: String,
    },
    /// The journal is unusable (defective header, or bound to another
    /// dataset/epoch). Nothing replayed; the caller should move the file
    /// aside ([`set_aside_journal`]) and serve the base alone.
    SetAside {
        /// Why the journal could not be trusted.
        reason: String,
    },
}

/// A recovered dataset: the base snapshot plus the journal records to
/// replay onto it.
#[derive(Debug)]
pub struct Recovery {
    /// The base snapshot, fully validated.
    pub base: StoredSnapshot,
    /// The valid record prefix to replay, in append order (empty unless
    /// the disposition is `Clean`/`TornTail`/`Salvaged` with records).
    pub records: Vec<JournalRecord>,
    /// What happened to the journal.
    pub disposition: JournalDisposition,
    /// How the base decode's wall time split between bulk lane copies and
    /// structural validation (surfaced on the server's `/stats`).
    pub timings: DecodeTimings,
}

/// Recovers dataset `name` from `dir`: loads and validates the base
/// snapshot, then reads the journal sidecar and decides its disposition
/// (see the module docs for the ladder). Errors only when the *base*
/// cannot be loaded — the one case where the caller must rebuild from
/// sources.
pub fn recover(vfs: &dyn Vfs, dir: &Path, name: &str) -> Result<Recovery, StoreError> {
    let (base, timings) = StoredSnapshot::load_file_traced_on(vfs, &snapshot_path(dir, name))?;
    let jpath = journal_path(dir, name);
    let (records, disposition) = match load_journal_on(vfs, &jpath) {
        Err(e) if e.is_not_found() => (Vec::new(), JournalDisposition::Missing),
        Err(e) => (
            Vec::new(),
            JournalDisposition::SetAside {
                reason: e.to_string(),
            },
        ),
        Ok(load) => {
            if load.name != base.name || load.epoch != base.update_epoch {
                let reason = format!(
                    "journal is stale (dataset {:?} epoch {}, base {:?} epoch {})",
                    load.name, load.epoch, base.name, base.update_epoch
                );
                (Vec::new(), JournalDisposition::SetAside { reason })
            } else if load.salvaged_bytes > 0 {
                let disposition = JournalDisposition::Salvaged {
                    dropped_bytes: load.salvaged_bytes,
                    defect: load.defect.clone().unwrap_or_default(),
                };
                (load.records, disposition)
            } else if load.torn_tail {
                let file_len = vfs.read(&jpath)?.len() as u64;
                let disposition = JournalDisposition::TornTail {
                    dropped_bytes: file_len.saturating_sub(load.valid_len()),
                };
                (load.records, disposition)
            } else {
                (load.records, JournalDisposition::Clean)
            }
        }
    };
    Ok(Recovery {
        base,
        records,
        disposition,
        timings,
    })
}

/// Renames an untrusted journal to `<path>.<suffix>` (e.g. suffix
/// `"stale"` or `"corrupt"`), fsyncing the directory so the move itself
/// is durable. Returns the new path.
pub fn set_aside_journal(vfs: &dyn Vfs, path: &Path, suffix: &str) -> Result<PathBuf, StoreError> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".");
    name.push(suffix);
    let aside = path.with_file_name(name);
    vfs.rename(path, &aside)?;
    sync_parent_dir(vfs, path)?;
    Ok(aside)
}

/// Removes orphaned atomic-write temp files (`*.molq.tmp`,
/// `*.journal.tmp`) from `dir` — the droppings of saves that died between
/// creating the tmp and renaming it. Returns the removed paths. A missing
/// directory is fine (nothing to sweep); per-file removal races are
/// ignored.
pub fn sweep_tmp(vfs: &dyn Vfs, dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let entries = match vfs.list(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut swept = Vec::new();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.ends_with(".molq.tmp") || name.ends_with(".journal.tmp") {
            match vfs.remove_file(&path) {
                Ok(()) => swept.push(path),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
    Ok(swept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;
    use crate::vfs::MemVfs;
    use std::sync::Arc;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn sweep_removes_only_molq_tmp_droppings() {
        let vfs = MemVfs::new();
        for name in [
            "snap/d.molq",
            "snap/d.molq.tmp",
            "snap/d.journal",
            "snap/d.journal.tmp",
            "snap/other.txt",
            "snap/unrelated.tmp",
        ] {
            vfs.create(&p(name)).unwrap();
        }
        let swept = sweep_tmp(&vfs, &p("snap")).unwrap();
        assert_eq!(swept, vec![p("snap/d.journal.tmp"), p("snap/d.molq.tmp")]);
        let left = vfs.list(&p("snap")).unwrap();
        assert_eq!(
            left,
            vec![
                p("snap/d.journal"),
                p("snap/d.molq"),
                p("snap/other.txt"),
                p("snap/unrelated.tmp"),
            ]
        );
        // A directory that never existed sweeps to nothing.
        assert!(sweep_tmp(&vfs, &p("missing")).unwrap().is_empty());
    }

    #[test]
    fn set_aside_appends_the_suffix_and_keeps_the_bytes() {
        let vfs = MemVfs::new();
        let path = p("snap/d.journal");
        Journal::create_on(Arc::new(vfs.clone()), &path, "d", 1).unwrap();
        let aside = set_aside_journal(&vfs, &path, "stale").unwrap();
        assert_eq!(aside, p("snap/d.journal.stale"));
        assert!(vfs.read(&path).is_err());
        assert!(!vfs.read(&aside).unwrap().is_empty());
    }
}
