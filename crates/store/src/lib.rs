//! molq-store: versioned, checksummed binary persistence for fully-built
//! MOLQ engine snapshots.
//!
//! Building an MOVD from CSVs is the expensive part of serving start-up;
//! this crate makes that work durable. A snapshot file (`*.molq`) captures a
//! dataset after the build — object sets, the diagram, and the
//! point-location grid — together with a fingerprint of the source CSVs, so
//! a restart can [`StoredSnapshot::load_file`] in one pass and serve with
//! zero rebuild, falling back to the CSVs only when they changed or the file
//! is damaged.
//!
//! Dependency-free by design: the container framing, CRC-32, and FNV-1a
//! hashing are hand-rolled on `std`, and floating-point data travels as raw
//! IEEE-754 bits so a load is bit-identical to what was saved.
//!
//! Layers, bottom-up:
//! - [`hash`]: the shared CRC-32 (IEEE) and FNV-1a 64 implementations;
//! - [`codec`]: primitive little-endian [`codec::Writer`]/[`codec::Reader`];
//! - [`container`]: magic + version header, length-prefixed CRC'd sections,
//!   unknown tags skipped for forward compatibility;
//! - [`fingerprint`]: source-CSV identity (path, size, content hash);
//! - [`snapshot`]: the typed sections and file-level save/load/verify;
//! - [`journal`]: the append-only write-ahead delta journal for live
//!   updates (base snapshot + CRC-guarded fixed-size records);
//! - [`vfs`]: the storage-I/O seam — every snapshot/journal byte moves
//!   through a [`vfs::Vfs`], so the real paths run unchanged against the
//!   deterministic fault-injecting [`vfs::MemVfs`];
//! - [`lock`]: the one-owner lock on a dataset's files in a directory;
//! - [`recovery`]: the crash-recovery ladder shared by the serving engine
//!   and the crash-point test harness (base + journal prefix salvage +
//!   stale-tmp sweep).

pub mod codec;
pub mod container;
pub mod error;
pub mod fingerprint;
pub mod hash;
pub mod journal;
pub mod lock;
pub mod recovery;
pub mod snapshot;
pub mod vfs;

pub use crate::container::{ContainerInfo, FORMAT_VERSION, MAGIC};
pub use crate::error::StoreError;
pub use crate::fingerprint::{SourceEntry, SourceFingerprint};
pub use crate::hash::{crc32, fnv1a64, Crc32, Fnv64, FNV_OFFSET, FNV_PRIME};
pub use crate::journal::{
    inspect_journal, journal_path, load_journal, Journal, JournalInfo, JournalLoad, JournalRecord,
};
pub use crate::lock::{lock_path, DatasetLock};
pub use crate::recovery::{
    recover, set_aside_journal, snapshot_path, sweep_tmp, JournalDisposition, Recovery,
};
pub use crate::snapshot::{
    inspect_file, verify_file, DecodeTimings, SnapshotInfo, SnapshotSummary, StoredSnapshot,
};
pub use crate::vfs::{InjectedError, MemVfs, RealVfs, Survival, Vfs, VfsFile};
