//! The sweep journal records intent only, and its I/O is pinned by count:
//! opening an existing store reads nothing, a cold sweep of N cells makes
//! exactly one journal append (its plan), and a resume makes one append
//! and one journal read (its replay). A journal in the older format, with
//! `done` and `fail` status lines and a torn fragment, still resumes every
//! planned cell.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, Mutex};

use stash::core::cache::MeasurementCache;
use stash::core::profiler::{ProfileJob, Stash};
use stash::core::sweep::{cell_descriptor, cell_key, job_from_descriptor, run_sweep};
use stash::dnn::dataset::DatasetSpec;
use stash::dnn::zoo;
use stash::hwtopo::cluster::ClusterSpec;
use stash::store::io::{StdFs, StoreIo};
use stash::store::journal::JournalEntry;
use stash::store::retry::RetryPolicy;
use stash::store::store::ResultStore;
use stash::store::{fnv128, key_hex};

/// Three cells as `stash sweep --models AlexNet,ShuffleNet,ResNet18
/// --clusters p3.2xlarge --iters 2` plans them.
fn jobs() -> Vec<ProfileJob> {
    ["AlexNet", "ShuffleNet", "ResNet18"]
        .into_iter()
        .map(|name| {
            let model = zoo::by_name(name).unwrap();
            ProfileJob {
                stash: Stash::new(model.clone())
                    .with_dataset(DatasetSpec::for_model(&model))
                    .with_batch(32)
                    .with_sampled_iterations(2)
                    .with_epoch_samples(20_000),
                cluster: ClusterSpec::parse("p3.2xlarge").unwrap(),
            }
        })
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stash_journal_io_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// [`StdFs`] that logs every read, write and append with its path.
#[derive(Debug, Clone, Default)]
struct CountingIo {
    ops: Arc<Mutex<Vec<(&'static str, PathBuf)>>>,
}

impl CountingIo {
    fn log(&self, op: &'static str, path: &Path) {
        self.ops.lock().unwrap().push((op, path.to_path_buf()));
    }

    /// The logged operations since the last call, as (op, file name).
    fn take(&self) -> Vec<(&'static str, String)> {
        let ops = std::mem::take(&mut *self.ops.lock().unwrap());
        ops.into_iter()
            .map(|(op, path)| (op, path.file_name().unwrap().to_string_lossy().into_owned()))
            .collect()
    }
}

impl StoreIo for CountingIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.log("read", path);
        StdFs.read(path)
    }
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.log("write", path);
        StdFs.write_atomic(path, bytes)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.log("append", path);
        StdFs.append(path, bytes)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        StdFs.list(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdFs.rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        StdFs.remove(path)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        StdFs.create_dir_all(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        StdFs.exists(path)
    }
}

fn count(ops: &[(&str, String)], op: &str, file: &str) -> usize {
    ops.iter().filter(|(o, f)| *o == op && f == file).count()
}

/// What `stash sweep --resume` does: replay the journal, rebuild each
/// planned cell, sweep them.
fn resume(store: &ResultStore) -> stash::core::sweep::SweepOutcome {
    let replay = store.journal().replay(store.io()).unwrap();
    let jobs: Vec<ProfileJob> = replay
        .planned_cells()
        .iter()
        .map(|(key, detail)| job_from_descriptor(key, detail).unwrap())
        .collect();
    run_sweep(
        &jobs,
        Some(store),
        &RetryPolicy::default(),
        &MeasurementCache::new(),
    )
}

#[test]
fn sweeps_append_once_and_only_a_resume_reads_the_journal() {
    let root = scratch("counts");
    let io = CountingIo::default();
    let jobs = jobs();

    let store = ResultStore::open(&root, Box::new(io.clone())).unwrap();
    assert_eq!(io.take(), [], "opening a fresh store");
    let cold = run_sweep(
        &jobs,
        Some(&store),
        &RetryPolicy::default(),
        &MeasurementCache::new(),
    );
    assert_eq!(cold.computed(), jobs.len());
    let ops = io.take();
    assert_eq!(count(&ops, "append", "journal.log"), 1, "{ops:?}");
    assert_eq!(count(&ops, "read", "journal.log"), 0, "{ops:?}");
    assert_eq!(ops.iter().filter(|(op, _)| *op == "append").count(), 1);
    assert_eq!(ops.iter().filter(|(op, _)| *op == "write").count(), 3);
    drop(store);

    // Opening a store that holds records and a journal reads nothing.
    let store = ResultStore::open(&root, Box::new(io.clone())).unwrap();
    assert_eq!(io.take(), [], "opening an existing store");

    let resumed = resume(&store);
    assert_eq!(resumed.resumed(), jobs.len());
    let ops = io.take();
    assert_eq!(count(&ops, "read", "journal.log"), 1, "{ops:?}");
    assert_eq!(count(&ops, "append", "journal.log"), 1, "{ops:?}");
    assert_eq!(ops.iter().filter(|(op, _)| *op == "read").count(), 4);
    assert_eq!(ops.iter().filter(|(op, _)| *op == "write").count(), 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// `json` as a checksummed journal line.
fn line(json: &str) -> String {
    let sum = (fnv128(json.as_bytes()) & u128::from(u64::MAX)) as u64;
    format!("{sum:016x} {json}\n")
}

#[test]
fn a_journal_with_status_lines_and_a_torn_tail_resumes_every_planned_cell() {
    let root = scratch("older_format");
    let jobs = jobs();
    let store = ResultStore::open(&root, Box::new(StdFs)).unwrap();
    let cold = run_sweep(
        &jobs,
        Some(&store),
        &RetryPolicy::default(),
        &MeasurementCache::new(),
    );
    assert_eq!(cold.computed(), jobs.len());

    // The journal as sweeps used to write it: every plan line, a `done`
    // or `fail` line per cell, no leading newline, and a fragment left by
    // a crash mid-append.
    let entry = |op: &str, job: &ProfileJob, detail: String| {
        serde_json::to_string(&JournalEntry {
            op: op.to_string(),
            key: key_hex(cell_key(job)),
            detail,
        })
        .unwrap()
    };
    let mut older = String::new();
    for job in &jobs {
        let descriptor = serde_json::to_string(&cell_descriptor(job)).unwrap();
        older.push_str(&line(&entry("plan", job, descriptor)));
    }
    older.push_str(&line(&entry("done", &jobs[0], String::new())));
    older.push_str(&line(&entry(
        "fail",
        &jobs[1],
        r#"{"RetriesExhausted":{"attempts":4,"last_error":"injected"}}"#.to_string(),
    )));
    older.push_str(&line(&entry("done", &jobs[2], String::new())));
    let fragment = line(&entry("done", &jobs[0], String::new()));
    older.push_str(&fragment[..30]);
    let journal = store.journal();
    std::fs::write(journal.path(), &older).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_stash"))
        .args(["sweep", "--store", root.to_str().unwrap(), "--resume"])
        .output()
        .expect("run stash binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("journal has a torn tail"), "{stdout}");
    assert!(stdout.contains("resuming 3 journaled cell(s)"), "{stdout}");
    assert!(
        stdout.contains("0 computed, 3 resumed, 0 failed"),
        "{stdout}"
    );

    // The resume's plan started a line of its own after the fragment.
    let replay = journal.replay(store.io()).unwrap();
    assert!(replay.torn_tail);
    let ops: Vec<&str> = replay.entries.iter().map(|e| e.op.as_str()).collect();
    assert_eq!(
        ops,
        ["plan", "plan", "plan", "done", "fail", "done", "plan", "plan", "plan"]
    );
    assert_eq!(replay.planned_cells().len(), 3);
    let _ = std::fs::remove_dir_all(&root);
}
