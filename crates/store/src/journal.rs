//! The write-ahead sweep journal.
//!
//! One append-only text file (`journal.log` in the store root) records
//! the sweep's intent: a `plan` line for every cell, written before any
//! work on the sweep starts. Each line carries its own checksum:
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
//! with one synced append, so a sweep pays one sync for its whole plan.
//! Every batch, retried or not, starts with a newline: a crashed process
//! or a failed attempt may have left part of a line without one, and the
//! newline ends that fragment, so new lines never glue onto it. A clean
//! journal therefore holds an empty line before each batch, which replay
//! skips. The journal is an *optimization hint*, not the source of
//! truth: what a cell produced lives in its checksummed record, which
//! resume re-verifies, so a lost line only costs recomputation, never
//! correctness. Journals written with `done`/`fail` status lines replay
//! too; their status lines are kept as entries that no plan query reads.

use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::fnv128;
use crate::io::StoreIo;
use crate::retry::{with_retry, FailReason, RetryPolicy};

/// Cell planned: emitted before any work on the cell starts.
pub const OP_PLAN: &str = "plan";

/// One journal line: an operation on a store key, with an opaque
/// JSON detail (the cell descriptor of a `plan`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// [`OP_PLAN`] for every line this crate writes.
    pub op: String,
    /// The 32-hex store key the entry is about.
    pub key: String,
    /// Operation-specific JSON payload.
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
    /// The plan lines, in append order.
    fn plans(&self) -> impl DoubleEndedIterator<Item = &JournalEntry> {
        self.entries.iter().filter(|e| e.op == OP_PLAN)
    }

    /// The planned cell descriptor for `key`, if a `plan` line was
    /// recorded (last write wins).
    #[must_use]
    pub fn plan_for(&self, key: &str) -> Option<&str> {
        self.plans()
            .rev()
            .find(|e| e.key == key)
            .map(|e| e.detail.as_str())
    }

    /// All planned cells in first-planned order, deduplicated by key.
    #[must_use]
    pub fn planned_cells(&self) -> Vec<(String, String)> {
        let mut seen = std::collections::BTreeSet::new();
        self.plans()
            .filter(|e| seen.insert(e.key.as_str()))
            .map(|e| (e.key.clone(), e.detail.clone()))
            .collect()
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

    /// Appends `entries`, in order, as checksummed lines behind a leading
    /// newline: one [`StoreIo::append`], so one sync, per attempt, retried
    /// under `policy`. The newline ends any fragment an earlier crash or
    /// failed attempt left, so the first line starts clean instead of
    /// failing its sum glued onto the fragment. An empty batch appends
    /// nothing.
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
        let mut batch = String::from("\n");
        for entry in entries {
            push_line(entry, &mut batch);
        }
        with_retry(policy, || io.append(&self.path, batch.as_bytes()))
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

    /// A status line as journals used to write them.
    fn status(op: &str, key: &str) -> JournalEntry {
        JournalEntry {
            op: op.to_string(),
            key: key.to_string(),
            detail: String::new(),
        }
    }

    #[test]
    fn append_then_replay_round_trips() {
        let path = tmp("rt");
        let io = StdFs::new();
        let j = Journal::new(&path);
        append(&j, &io, &[JournalEntry::plan("00ab", "{\"m\":1}")]);
        append(&j, &io, &[JournalEntry::plan("00cd", "{}")]);
        let replay = j.replay(&io).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.entries.len(), 2);
        assert_eq!(replay.plan_for("00ab"), Some("{\"m\":1}"));
        assert_eq!(replay.plan_for("00ef"), None);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn every_batch_starts_with_a_newline() {
        let entries = [
            JournalEntry::plan("0001", "{\"m\":1}"),
            JournalEntry::plan("0002", "{}"),
        ];
        let path = tmp("batch_bytes");
        let io = StdFs::new();
        append(&Journal::new(&path), &io, &entries);
        append(&Journal::new(&path), &io, &entries[..1]);
        let mut want = String::from("\n");
        for entry in &entries {
            push_line(entry, &mut want);
        }
        want.push('\n');
        push_line(&entries[0], &mut want);
        assert_eq!(fs::read_to_string(&path).unwrap(), want);
        // An empty batch does not even create the file.
        let empty = tmp("empty_batch");
        append(&Journal::new(&empty), &io, &[]);
        assert!(!io.exists(&empty));
        for path in [path, empty] {
            let _ = fs::remove_dir_all(path.parent().unwrap());
        }
    }

    #[test]
    fn a_retried_batch_starts_a_line_of_its_own() {
        let path = tmp("retried");
        // The first append tears after 10 bytes, the third fails cleanly.
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
        append(&j, &io, &[JournalEntry::plan("0003", "{}")]);
        assert_eq!(io.pending_faults(), 0);
        let replay = j.replay(&io).unwrap();
        assert!(replay.torn_tail, "the fragment replays as a torn line");
        let mut want = plans.to_vec();
        want.push(JournalEntry::plan("0003", "{}"));
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
            &[
                JournalEntry::plan("0001", "{}"),
                JournalEntry::plan("0002", "{}"),
            ],
        );
        // Simulate a crash mid-append: chop the file mid-line.
        let full = fs::read(&path).unwrap().len();
        append(&j, &io, &[JournalEntry::plan("0003", "{}")]);
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(full + 9);
        fs::write(&path, &bytes).unwrap();
        let replay = j.replay(&io).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.planned_cells().len(), 2);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn appends_after_a_torn_fragment_replay() {
        let path = tmp("torn_then_append");
        let io = StdFs::new();
        let j = Journal::new(&path);
        append(&j, &io, &[JournalEntry::plan("0001", "{}")]);
        // A crash mid-append leaves a fragment without its newline; the
        // next process appends as usual.
        let mut line = String::new();
        push_line(&JournalEntry::plan("0002", "{}"), &mut line);
        io.append(&path, &line.as_bytes()[..20]).unwrap();
        append(&j, &io, &[JournalEntry::plan("0003", "{}")]);
        let replay = j.replay(&io).unwrap();
        assert!(replay.torn_tail);
        let keys: Vec<&str> = replay.entries.iter().map(|e| e.key.as_str()).collect();
        assert_eq!(keys, ["0001", "0003"]);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn status_lines_of_older_journals_replay_but_plan_nothing() {
        let path = tmp("status_lines");
        let io = StdFs::new();
        let j = Journal::new(&path);
        append(
            &j,
            &io,
            &[
                JournalEntry::plan("aaaa", "A"),
                status("done", "aaaa"),
                status("fail", "bbbb"),
                JournalEntry::plan("bbbb", "B"),
            ],
        );
        let replay = j.replay(&io).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.entries.len(), 4);
        assert_eq!(
            replay.planned_cells(),
            vec![("aaaa".into(), "A".into()), ("bbbb".into(), "B".into())]
        );
        assert_eq!(replay.plan_for("aaaa"), Some("A"));
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
        assert_eq!(replay.plan_for("b"), Some("B2"), "the last plan wins");
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}
