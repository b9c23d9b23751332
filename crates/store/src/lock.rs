//! One owner per dataset on disk: an exclusive lock on `<dir>/<name>.lock`.
//!
//! A dataset's base and journal have exactly one writer. The writer holds
//! an exclusive, advisory lock on the dataset's lock file (`flock` on
//! Linux) for as long as it may write either file; the kernel releases it
//! when the holder exits, crash included. Two handles conflict even inside
//! one process, so a second engine in the same process is a second owner
//! too. The lock file carries no data and is never removed.

use std::fs::{File, OpenOptions, TryLockError};
use std::path::{Path, PathBuf};

/// The lock file guarding dataset `name`'s files in `dir`.
pub fn lock_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.lock"))
}

/// A held claim on one dataset's files; dropping it releases them.
#[derive(Debug)]
pub struct DatasetLock {
    _file: File,
}

impl DatasetLock {
    /// Claims dataset `name`'s files in `dir` without waiting. `Ok(None)`
    /// means another owner holds them. Errors when the lock file cannot be
    /// opened (a missing `dir`, say) or locked.
    pub fn try_claim(dir: &Path, name: &str) -> std::io::Result<Option<DatasetLock>> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(lock_path(dir, name))?;
        match file.try_lock() {
            Ok(()) => Ok(Some(DatasetLock { _file: file })),
            Err(TryLockError::WouldBlock) => Ok(None),
            Err(TryLockError::Error(e)) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_second_claim_waits_for_the_first_to_drop() {
        let dir = std::env::temp_dir().join(format!("molq_store_lock_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let first = DatasetLock::try_claim(&dir, "d").unwrap().expect("free");
        assert!(DatasetLock::try_claim(&dir, "d").unwrap().is_none());
        // Another dataset in the same dir is another lock.
        assert!(DatasetLock::try_claim(&dir, "e").unwrap().is_some());
        drop(first);
        assert!(DatasetLock::try_claim(&dir, "d").unwrap().is_some());
        assert!(DatasetLock::try_claim(&dir.join("missing"), "d").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
