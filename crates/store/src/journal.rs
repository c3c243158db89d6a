//! The write-ahead sweep journal.
//!
//! One append-only text file (`journal.log` in the store root) records
//! the sweep's intent and progress: a `plan` line before any work on a
//! cell, a `done` line after its record is durably in the store, a
//! `fail` line when retries were exhausted. Each line carries its own
//! checksum:
//!
//! ```text
//! <fnv128-low-64-bits, 16 hex> <entry JSON>\n
//! ```
//!
//! so replay can tell a torn line (the one being appended when a process
//! died) from good history: replay skips and reports every line whose
//! sum does not verify and trusts every line that does.
//!
//! Lines go to disk in batches: [`Journal::append`] writes a whole batch
//! with one synced append, so a sweep pays one sync for its plan and one
//! per commit batch, not one per line. A batch that fails part-way may
//! leave a fragment without its newline. A process that finds one at the
//! end of the journal terminates it ([`Journal::seal`]) before appending,
//! and a retried append starts with a newline of its own, so new lines
//! start clean instead of being glued onto the fragment. The journal is
//! an *optimization hint*, not the source of truth — resume always
//! re-verifies `done` claims against the checksummed records themselves,
//! so a lost line only costs recomputation, never correctness.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::fnv128;
use crate::io::StoreIo;
use crate::retry::{with_retry, FailReason, RetryPolicy};

/// Cell planned: emitted before any work on the cell starts.
pub const OP_PLAN: &str = "plan";
/// Cell complete: its record is durable in the store.
pub const OP_DONE: &str = "done";
/// Cell failed permanently (retries/deadline exhausted).
pub const OP_FAIL: &str = "fail";

/// One journal line: an operation on a store key, with an opaque
/// JSON detail (the cell descriptor for `plan`, the typed failure
/// reason for `fail`, empty for `done`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// [`OP_PLAN`], [`OP_DONE`] or [`OP_FAIL`].
    pub op: String,
    /// The 32-hex store key the entry is about.
    pub key: String,
    /// Operation-specific JSON payload (or empty).
    pub detail: String,
}

impl JournalEntry {
    /// A `plan` entry carrying the cell descriptor JSON.
    #[must_use]
    pub fn plan(key: &str, detail: &str) -> JournalEntry {
        JournalEntry {
            op: OP_PLAN.to_string(),
            key: key.to_string(),
            detail: detail.to_string(),
        }
    }

    /// A `done` entry.
    #[must_use]
    pub fn done(key: &str) -> JournalEntry {
        JournalEntry {
            op: OP_DONE.to_string(),
            key: key.to_string(),
            detail: String::new(),
        }
    }

    /// A `fail` entry carrying the typed failure reason.
    #[must_use]
    pub fn fail(key: &str, reason: &str) -> JournalEntry {
        JournalEntry {
            op: OP_FAIL.to_string(),
            key: key.to_string(),
            detail: reason.to_string(),
        }
    }
}

/// The replayed state of a journal file.
#[derive(Debug, Clone, Default)]
pub struct JournalReplay {
    /// Every verified entry, in append order.
    pub entries: Vec<JournalEntry>,
    /// `true` when replay skipped a torn or corrupt line — the state a
    /// crash mid-append leaves behind. Every entry kept is intact (each
    /// line checks its own sum).
    pub torn_tail: bool,
}

impl JournalReplay {
    /// The planned cell descriptor for `key`, if a `plan` line was
    /// recorded (last write wins).
    #[must_use]
    pub fn plan_for(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.op == OP_PLAN && e.key == key)
            .map(|e| e.detail.as_str())
    }

    /// Keys whose *latest* status line is `done`. Resume treats these as
    /// hints and still re-verifies the record bytes.
    #[must_use]
    pub fn done_keys(&self) -> Vec<String> {
        let mut last: BTreeMap<&str, &str> = BTreeMap::new();
        for e in &self.entries {
            if e.op == OP_DONE || e.op == OP_FAIL {
                last.insert(e.key.as_str(), e.op.as_str());
            }
        }
        last.iter()
            .filter(|(_, op)| **op == OP_DONE)
            .map(|(k, _)| (*k).to_string())
            .collect()
    }

    /// All planned cells in first-planned order, deduplicated by key.
    #[must_use]
    pub fn planned_cells(&self) -> Vec<(String, String)> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for e in &self.entries {
            if e.op == OP_PLAN && seen.insert(e.key.clone()) {
                out.push((e.key.clone(), e.detail.clone()));
            }
        }
        out
    }
}

/// Handle to a journal file; all I/O goes through the caller's
/// [`StoreIo`] backend so faults reach the journal too.
#[derive(Debug, Clone)]
pub struct Journal {
    path: PathBuf,
}

/// Appends `entry`'s checksummed line, newline included, to `out`.
fn push_line(entry: &JournalEntry, out: &mut String) {
    use std::fmt::Write;
    let mut json = String::new();
    entry.write_json(&mut json);
    let sum = (fnv128(json.as_bytes()) & u128::from(u64::MAX)) as u64;
    let _ = writeln!(out, "{sum:016x} {json}");
}

fn parse_line(line: &str) -> Option<JournalEntry> {
    let (sum_hex, json) = line.split_once(' ')?;
    if sum_hex.len() != 16 {
        return None;
    }
    let declared = u64::from_str_radix(sum_hex, 16).ok()?;
    let computed = (fnv128(json.as_bytes()) & u128::from(u64::MAX)) as u64;
    if declared != computed {
        return None;
    }
    serde_json::from_str(json).ok()
}

impl Journal {
    /// A journal at `path` (typically `<store>/journal.log`).
    #[must_use]
    pub fn new(path: &Path) -> Journal {
        Journal {
            path: path.to_path_buf(),
        }
    }

    /// Where the journal lives.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `entries`, in order, as checksummed lines: one
    /// [`StoreIo::append`], so one sync, per attempt, retried under
    /// `policy`. A retry starts with a newline, because the failed attempt
    /// may have left part of a line without one, and a line glued onto that
    /// fragment would fail its sum; a cleanly failed attempt leaves only an
    /// empty line, which replay skips. An empty batch appends nothing.
    ///
    /// # Errors
    ///
    /// The [`FailReason`] left when retries run out.
    pub fn append(
        &self,
        io: &dyn StoreIo,
        entries: &[JournalEntry],
        policy: &RetryPolicy,
    ) -> Result<(), FailReason> {
        if entries.is_empty() {
            return Ok(());
        }
        // The batch behind the newline a retry starts with.
        let mut batch = String::from("\n");
        for entry in entries {
            push_line(entry, &mut batch);
        }
        let mut first = true;
        with_retry(policy, || {
            let skip = usize::from(std::mem::take(&mut first));
            io.append(&self.path, &batch.as_bytes()[skip..])
        })
    }

    /// Terminates a torn fragment at the end of the journal with a
    /// newline, so the next [`Journal::append`] starts a line of its own.
    /// Returns whether there was a fragment to terminate. A missing or
    /// cleanly ended journal is left untouched.
    ///
    /// # Errors
    ///
    /// Propagates backend read and append errors.
    pub fn seal(&self, io: &dyn StoreIo) -> io::Result<bool> {
        if !io.exists(&self.path) {
            return Ok(false);
        }
        let bytes = io.read(&self.path)?;
        match bytes.last() {
            Some(&last) if last != b'\n' => io.append(&self.path, b"\n").map(|()| true),
            _ => Ok(false),
        }
    }

    /// Replays the journal, skipping torn or corrupt lines (and flagging
    /// them in [`JournalReplay::torn_tail`]). A missing journal replays as
    /// empty — a fresh sweep.
    ///
    /// # Errors
    ///
    /// Propagates backend read errors other than not-found.
    pub fn replay(&self, io: &dyn StoreIo) -> io::Result<JournalReplay> {
        if !io.exists(&self.path) {
            return Ok(JournalReplay::default());
        }
        let bytes = io.read(&self.path)?;
        let text = String::from_utf8_lossy(&bytes);
        let mut replay = JournalReplay::default();
        for line in text.split('\n') {
            if line.is_empty() {
                continue;
            }
            match parse_line(line) {
                Some(entry) => replay.entries.push(entry),
                None => replay.torn_tail = true,
            }
        }
        Ok(replay)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::io::{FaultFs, IoFault, IoFaultKind, IoFaultPlan, IoOpClass, StdFs};
    use std::fs;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stash_journal_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("journal.log")
    }

    /// Retries without backoff.
    fn policy() -> RetryPolicy {
        RetryPolicy {
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            ..RetryPolicy::default()
        }
    }

    fn append(j: &Journal, io: &dyn StoreIo, entries: &[JournalEntry]) {
        j.append(io, entries, &policy()).unwrap();
    }

    #[test]
    fn append_then_replay_round_trips() {
        let path = tmp("rt");
        let io = StdFs::new();
        let j = Journal::new(&path);
        append(&j, &io, &[JournalEntry::plan("00ab", "{\"m\":1}")]);
        append(
            &j,
            &io,
            &[
                JournalEntry::done("00ab"),
                JournalEntry::fail("00cd", "deadline"),
            ],
        );
        let replay = j.replay(&io).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.entries.len(), 3);
        assert_eq!(replay.plan_for("00ab"), Some("{\"m\":1}"));
        assert_eq!(replay.done_keys(), vec!["00ab".to_string()]);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn a_batch_writes_the_bytes_of_its_lines_one_by_one() {
        let entries = [
            JournalEntry::plan("0001", "{\"m\":1}"),
            JournalEntry::plan("0002", "{}"),
            JournalEntry::done("0001"),
            JournalEntry::fail("0002", "io"),
        ];
        let (one, batched) = (tmp("one_by_one"), tmp("batched"));
        let io = StdFs::new();
        for entry in &entries {
            append(&Journal::new(&one), &io, std::slice::from_ref(entry));
        }
        append(&Journal::new(&batched), &io, &entries);
        assert_eq!(fs::read(&one).unwrap(), fs::read(&batched).unwrap());
        // An empty batch does not even create the file.
        let empty = tmp("empty_batch");
        append(&Journal::new(&empty), &io, &[]);
        assert!(!io.exists(&empty));
        for path in [one, batched, empty] {
            let _ = fs::remove_dir_all(path.parent().unwrap());
        }
    }

    #[test]
    fn a_retried_batch_starts_a_line_of_its_own() {
        let path = tmp("retried");
        // The first append tears after 10 bytes, the second fails cleanly.
        let fault = |index, kind| IoFault {
            op: IoOpClass::Append,
            index,
            kind,
        };
        let io = FaultFs::new(IoFaultPlan {
            faults: vec![
                fault(0, IoFaultKind::TornWrite { keep: 10 }),
                fault(2, IoFaultKind::TransientErr),
            ],
        });
        let j = Journal::new(&path);
        let plans = [
            JournalEntry::plan("0001", "{}"),
            JournalEntry::plan("0002", "{}"),
        ];
        append(&j, &io, &plans);
        append(&j, &io, &[JournalEntry::done("0001")]);
        assert_eq!(io.pending_faults(), 0);
        let replay = j.replay(&io).unwrap();
        assert!(replay.torn_tail, "the fragment replays as a torn line");
        let mut want = plans.to_vec();
        want.push(JournalEntry::done("0001"));
        assert_eq!(replay.entries, want, "no retried line was lost");
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn missing_journal_replays_empty() {
        let path = tmp("missing");
        let replay = Journal::new(&path).replay(&StdFs::new()).unwrap();
        assert!(replay.entries.is_empty());
        assert!(!replay.torn_tail);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_is_detected_and_prefix_survives() {
        let path = tmp("torn");
        let io = StdFs::new();
        let j = Journal::new(&path);
        append(
            &j,
            &io,
            &[JournalEntry::plan("0001", "{}"), JournalEntry::done("0001")],
        );
        // Simulate a crash mid-append: chop the file mid-line.
        let mut bytes = fs::read(&path).unwrap();
        let full = bytes.len();
        append(&j, &io, &[JournalEntry::plan("0002", "{}")]);
        bytes = fs::read(&path).unwrap();
        bytes.truncate(full + 9);
        fs::write(&path, &bytes).unwrap();
        let replay = j.replay(&io).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.entries.len(), 2);
        assert_eq!(replay.done_keys(), vec!["0001".to_string()]);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn appends_after_a_sealed_tear_replay() {
        let path = tmp("torn_then_append");
        let io = StdFs::new();
        let j = Journal::new(&path);
        append(&j, &io, &[JournalEntry::plan("0001", "{}")]);
        // A crash mid-append leaves a fragment without its newline.
        let mut line = String::new();
        push_line(&JournalEntry::plan("0002", "{}"), &mut line);
        io.append(&path, &line.as_bytes()[..20]).unwrap();
        // The next process seals the fragment, then appends as usual.
        assert!(j.seal(&io).unwrap());
        assert!(!j.seal(&io).unwrap(), "sealing is idempotent");
        append(
            &j,
            &io,
            &[JournalEntry::plan("0003", "{}"), JournalEntry::done("0003")],
        );
        let replay = j.replay(&io).unwrap();
        assert!(replay.torn_tail);
        let keys: Vec<(&str, &str)> = replay
            .entries
            .iter()
            .map(|e| (e.op.as_str(), e.key.as_str()))
            .collect();
        assert_eq!(
            keys,
            vec![("plan", "0001"), ("plan", "0003"), ("done", "0003")]
        );
        assert_eq!(replay.done_keys(), vec!["0003".to_string()]);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn sealing_leaves_clean_and_missing_journals_alone() {
        let path = tmp("seal_clean");
        let io = StdFs::new();
        let j = Journal::new(&path);
        assert!(!j.seal(&io).unwrap());
        assert!(!io.exists(&path), "sealing must not create a journal");
        append(&j, &io, &[JournalEntry::plan("0001", "{}")]);
        let before = fs::read(&path).unwrap();
        assert!(!j.seal(&io).unwrap());
        assert_eq!(fs::read(&path).unwrap(), before);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn fail_after_done_wins_and_vice_versa() {
        let path = tmp("lastwins");
        let io = StdFs::new();
        let j = Journal::new(&path);
        append(
            &j,
            &io,
            &[
                JournalEntry::done("aaaa"),
                JournalEntry::fail("aaaa", "io"),
                JournalEntry::fail("bbbb", "io"),
                JournalEntry::done("bbbb"),
            ],
        );
        let replay = j.replay(&io).unwrap();
        assert_eq!(replay.done_keys(), vec!["bbbb".to_string()]);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn planned_cells_dedup_in_order() {
        let path = tmp("plans");
        let io = StdFs::new();
        let j = Journal::new(&path);
        append(
            &j,
            &io,
            &[
                JournalEntry::plan("b", "B"),
                JournalEntry::plan("a", "A"),
                JournalEntry::plan("b", "B2"),
            ],
        );
        let replay = j.replay(&io).unwrap();
        assert_eq!(
            replay.planned_cells(),
            vec![("b".into(), "B".into()), ("a".into(), "A".into())]
        );
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}
