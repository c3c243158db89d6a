//! The content-addressed result store.
//!
//! Layout under a store root:
//!
//! ```text
//! <root>/records/<32-hex key>.rec   framed payloads (see `frame`)
//! <root>/quarantine/                corrupt records, moved aside on detection
//! <root>/journal.log                write-ahead sweep journal (see `journal`)
//! ```
//!
//! Records are keyed by the profiler's FNV-128 canonical config keys, so
//! the store is content-addressed the same way the `MeasurementCache` is
//! memoized: equal configurations share a key, and the engine being
//! deterministic, equal keys hold bit-identical payloads. Writes are
//! atomic (write-temp-fsync-rename); reads verify the frame and
//! *quarantine* anything corrupt instead of aborting, so one rotten
//! record costs one recomputation, never the sweep.

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::frame;
use crate::io::StoreIo;
use crate::journal::Journal;
use crate::{key_hex, parse_key_hex};

/// Record filename extension.
pub const RECORD_EXT: &str = "rec";

/// A typed, path-qualified store failure.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed after any retries the caller ran.
    Io {
        /// The operation ("read", "write", "list", "rename", "mkdir").
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error, stringified.
        error: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, error } => {
                write!(f, "store {op} failed for {}: {error}", path.display())
            }
        }
    }
}

impl Error for StoreError {}

fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io {
        op,
        path: path.to_path_buf(),
        error: e.to_string(),
    }
}

/// Outcome of a keyed lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fetch {
    /// A verified record; the payload decoded clean.
    Hit(Vec<u8>),
    /// No record for this key.
    Miss,
    /// A record existed but failed verification; it has been moved to
    /// quarantine and the caller should recompute.
    Quarantined {
        /// Where the corrupt bytes now live.
        quarantined_to: PathBuf,
        /// How verification failed.
        error: frame::FrameError,
    },
}

/// One problem `fsck` found (and what it did about it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsckIssue {
    /// A record failed frame verification and was quarantined.
    Corrupt {
        /// The record's 32-hex key.
        key: String,
        /// Original record path.
        path: PathBuf,
        /// Where the bytes were moved.
        quarantined_to: PathBuf,
        /// The verification failure, stringified.
        error: String,
    },
    /// A file in `records/` whose name is not `<32 hex>.rec`; left in
    /// place (it is not ours to judge).
    ForeignFile {
        /// The offending path.
        path: PathBuf,
    },
    /// A leftover `.tmp` from an interrupted atomic write; removed.
    StaleTemp {
        /// The removed path.
        path: PathBuf,
    },
}

impl fmt::Display for FsckIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsckIssue::Corrupt {
                key,
                path,
                quarantined_to,
                error,
            } => write!(
                f,
                "corrupt record {key} at {}: {error}; quarantined to {}",
                path.display(),
                quarantined_to.display()
            ),
            FsckIssue::ForeignFile { path } => {
                write!(f, "foreign file in records dir: {}", path.display())
            }
            FsckIssue::StaleTemp { path } => {
                write!(f, "removed stale temp file {}", path.display())
            }
        }
    }
}

/// What an `fsck` scan found.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Record files examined.
    pub scanned: usize,
    /// Records that verified clean.
    pub ok: usize,
    /// Everything that was wrong, in scan order.
    pub issues: Vec<FsckIssue>,
}

impl FsckReport {
    /// `true` when the scan found nothing wrong.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Keys of records that were quarantined by this scan.
    #[must_use]
    pub fn quarantined_keys(&self) -> Vec<String> {
        self.issues
            .iter()
            .filter_map(|i| match i {
                FsckIssue::Corrupt { key, .. } => Some(key.clone()),
                _ => None,
            })
            .collect()
    }
}

/// A content-addressed record store rooted at a directory, doing all its
/// I/O through a caller-chosen [`StoreIo`] backend.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    io: Box<dyn StoreIo>,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `root`. Opening reads
    /// nothing: a torn journal tail left by a crashed process is ended by
    /// the newline every [`Journal::append`] batch starts with.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the layout directories cannot be created.
    pub fn open(root: &Path, io: Box<dyn StoreIo>) -> Result<ResultStore, StoreError> {
        let store = ResultStore {
            root: root.to_path_buf(),
            io,
        };
        for dir in [store.records_dir(), store.quarantine_dir()] {
            store
                .io
                .create_dir_all(&dir)
                .map_err(|e| io_err("mkdir", &dir, &e))?;
        }
        Ok(store)
    }

    /// The store root.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The I/O backend (the journal shares it).
    #[must_use]
    pub fn io(&self) -> &dyn StoreIo {
        self.io.as_ref()
    }

    /// `<root>/records`.
    #[must_use]
    pub fn records_dir(&self) -> PathBuf {
        self.root.join("records")
    }

    /// `<root>/quarantine`.
    #[must_use]
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    /// The journal co-located with this store (`<root>/journal.log`).
    #[must_use]
    pub fn journal(&self) -> Journal {
        Journal::new(&self.root.join("journal.log"))
    }

    /// The record path for a key.
    #[must_use]
    pub fn record_path(&self, key: u128) -> PathBuf {
        self.records_dir()
            .join(format!("{}.{RECORD_EXT}", key_hex(key)))
    }

    /// First free quarantine destination for `name`.
    fn quarantine_slot(&self, name: &str) -> PathBuf {
        for n in 0.. {
            let candidate = self.quarantine_dir().join(format!("{name}.q{n}"));
            if !self.io.exists(&candidate) {
                return candidate;
            }
        }
        unreachable!("quarantine slots are unbounded")
    }

    /// Moves a failed record aside and reports where it went.
    fn quarantine(&self, path: &Path) -> Result<PathBuf, StoreError> {
        let name = path.file_name().map_or_else(
            || "record".to_string(),
            |n| n.to_string_lossy().into_owned(),
        );
        let dest = self.quarantine_slot(&name);
        self.io
            .rename(path, &dest)
            .map_err(|e| io_err("rename", path, &e))?;
        stash_telemetry::metrics::STORE_QUARANTINED.inc();
        Ok(dest)
    }

    /// Looks up `key`, verifying the record frame. Corrupt records are
    /// quarantined and reported as [`Fetch::Quarantined`] so the caller
    /// recomputes instead of trusting rot.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] only for real I/O failures; corruption is a
    /// normal [`Fetch`] outcome, not an error.
    pub fn get(&self, key: u128) -> Result<Fetch, StoreError> {
        let path = self.record_path(key);
        if !self.io.exists(&path) {
            stash_telemetry::metrics::STORE_MISSES.inc();
            return Ok(Fetch::Miss);
        }
        let bytes = self.io.read(&path).map_err(|e| io_err("read", &path, &e))?;
        match frame::decode(&bytes) {
            Ok(payload) => {
                stash_telemetry::metrics::STORE_HITS.inc();
                Ok(Fetch::Hit(payload))
            }
            Err(error) => {
                let quarantined_to = self.quarantine(&path)?;
                Ok(Fetch::Quarantined {
                    quarantined_to,
                    error,
                })
            }
        }
    }

    /// Durably stores `payload` under `key` (framed, atomic).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the atomic write fails.
    pub fn put(&self, key: u128, payload: &[u8]) -> Result<(), StoreError> {
        let path = self.record_path(key);
        let framed = frame::encode(payload);
        self.io
            .write_atomic(&path, &framed)
            .map_err(|e| io_err("write", &path, &e))?;
        stash_telemetry::metrics::STORE_WRITES.inc();
        Ok(())
    }

    /// Every key with a record file, sorted.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the records directory cannot be listed.
    pub fn keys(&self) -> Result<Vec<u128>, StoreError> {
        let dir = self.records_dir();
        let paths = self.io.list(&dir).map_err(|e| io_err("list", &dir, &e))?;
        let mut keys: Vec<u128> = paths.iter().filter_map(|p| key_of_record(p)).collect();
        keys.sort_unstable();
        Ok(keys)
    }

    /// Scans every record: verifies frames, quarantines corruption,
    /// removes stale temp files, flags foreign files. Never aborts on a
    /// bad record — that is the point.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] for real I/O failures during the scan.
    pub fn fsck(&self) -> Result<FsckReport, StoreError> {
        let dir = self.records_dir();
        let paths = self.io.list(&dir).map_err(|e| io_err("list", &dir, &e))?;
        let mut report = FsckReport::default();
        for path in paths {
            let name = path
                .file_name()
                .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
            if name.ends_with(".tmp") {
                self.io
                    .remove(&path)
                    .map_err(|e| io_err("remove", &path, &e))?;
                report.issues.push(FsckIssue::StaleTemp { path });
                continue;
            }
            let Some(key) = key_of_record(&path) else {
                report.issues.push(FsckIssue::ForeignFile { path });
                continue;
            };
            report.scanned += 1;
            let bytes = self.io.read(&path).map_err(|e| io_err("read", &path, &e))?;
            match frame::decode(&bytes) {
                Ok(_) => report.ok += 1,
                Err(error) => {
                    let quarantined_to = self.quarantine(&path)?;
                    report.issues.push(FsckIssue::Corrupt {
                        key: key_hex(key),
                        path,
                        quarantined_to,
                        error: error.to_string(),
                    });
                }
            }
        }
        Ok(report)
    }
}

/// The key encoded in a record path's filename, when well-formed.
#[must_use]
pub fn key_of_record(path: &Path) -> Option<u128> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_suffix(&format!(".{RECORD_EXT}"))?;
    parse_key_hex(stem)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::io::{FaultFs, IoFault, IoFaultKind, IoFaultPlan, IoOpClass, StdFs};
    use std::fs;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stash_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_round_trips() {
        let root = tmp("rt");
        let store = ResultStore::open(&root, Box::new(StdFs::new())).unwrap();
        assert_eq!(store.get(42).unwrap(), Fetch::Miss);
        store.put(42, b"{\"report\":1}").unwrap();
        assert_eq!(
            store.get(42).unwrap(),
            Fetch::Hit(b"{\"report\":1}".to_vec())
        );
        assert_eq!(store.keys().unwrap(), vec![42]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_record_is_quarantined_then_missing() {
        let root = tmp("quarantine");
        let store = ResultStore::open(&root, Box::new(StdFs::new())).unwrap();
        store.put(7, b"payload").unwrap();
        // Doctor the record in place: flip one payload bit.
        let path = store.record_path(7);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&path, &bytes).unwrap();
        match store.get(7).unwrap() {
            Fetch::Quarantined { quarantined_to, .. } => assert!(quarantined_to.exists()),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(store.get(7).unwrap(), Fetch::Miss);
        // Recompute and re-put restores the key.
        store.put(7, b"payload").unwrap();
        assert_eq!(store.get(7).unwrap(), Fetch::Hit(b"payload".to_vec()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fsck_quarantines_corruption_and_sweeps_temps() {
        let root = tmp("fsck");
        let store = ResultStore::open(&root, Box::new(StdFs::new())).unwrap();
        store.put(1, b"one").unwrap();
        store.put(2, b"two").unwrap();
        // Truncate record 2 to a torn prefix and drop a stale temp file.
        let p2 = store.record_path(2);
        let bytes = fs::read(&p2).unwrap();
        fs::write(&p2, &bytes[..10]).unwrap();
        fs::write(store.records_dir().join("x.rec.tmp"), b"junk").unwrap();
        fs::write(store.records_dir().join("README"), b"hello").unwrap();

        let report = store.fsck().unwrap();
        assert_eq!(report.scanned, 2);
        assert_eq!(report.ok, 1);
        assert!(!report.clean());
        assert_eq!(report.quarantined_keys(), vec![key_hex(2)]);
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::StaleTemp { .. })));
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::ForeignFile { .. })));
        // Quarantined record is out of the way; a clean rescan follows.
        assert_eq!(store.get(2).unwrap(), Fetch::Miss);
        let report2 = store.fsck().unwrap();
        assert_eq!(report2.scanned, 1);
        assert!(report2
            .issues
            .iter()
            .all(|i| matches!(i, FsckIssue::ForeignFile { .. })));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn quarantine_slots_never_collide() {
        let root = tmp("slots");
        let store = ResultStore::open(&root, Box::new(StdFs::new())).unwrap();
        for round in 0..3 {
            store.put(9, b"fresh").unwrap();
            let path = store.record_path(9);
            fs::write(&path, b"garbage that is long enough to pass nothing").unwrap();
            match store.get(9).unwrap() {
                Fetch::Quarantined { quarantined_to, .. } => {
                    assert!(quarantined_to
                        .to_string_lossy()
                        .ends_with(&format!(".q{round}")));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn bit_flip_injected_by_faultfs_is_caught_on_read() {
        let root = tmp("faultflip");
        let plan = IoFaultPlan {
            faults: vec![IoFault {
                op: IoOpClass::Write,
                index: 0,
                kind: IoFaultKind::BitFlip { byte: 30 },
            }],
        };
        let store = ResultStore::open(&root, Box::new(FaultFs::new(plan))).unwrap();
        store.put(5, b"silently corrupted after the ack").unwrap();
        assert!(matches!(store.get(5).unwrap(), Fetch::Quarantined { .. }));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn key_of_record_rejects_foreign_names() {
        assert_eq!(
            key_of_record(Path::new(&format!("/x/{}.rec", key_hex(77)))),
            Some(77)
        );
        assert_eq!(key_of_record(Path::new("/x/short.rec")), None);
        assert_eq!(key_of_record(Path::new("/x/README")), None);
    }
}
