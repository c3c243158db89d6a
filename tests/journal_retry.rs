//! A journal append that fails part-way and is retried must not lose the
//! lines it retries. A torn append leaves a fragment without its newline;
//! were the retry glued onto it, the first retried line would fail its
//! checksum and replay would drop it, and `--resume`, which rebuilds its
//! cell list from the journal's `plan` lines, would silently skip a cell.
//! Every attempt of a batch starts with a newline of its own, so each
//! fragment ends before the next attempt's lines begin.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;
use std::process::Command;

use stash::store::prelude::{Journal, StdFs};

fn stash(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_stash"))
        .args(args)
        .output()
        .expect("run stash binary")
}

fn strip_status(csv: &str) -> Vec<String> {
    csv.lines()
        .map(|l| l.rsplit_once(',').map_or(l, |(head, _)| head).to_string())
        .collect()
}

#[test]
fn torn_journal_appends_keep_every_retried_line() {
    let dir = std::env::temp_dir().join(format!("stash_journal_retry_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store");
    let (cold, warm) = (dir.join("cold.csv"), dir.join("warm.csv"));
    let store_arg = store.to_str().unwrap();

    // The sweep's one append is its plan batch: its first two attempts
    // tear, each leaving a fragment for the next attempt to follow, and
    // the third goes through.
    let plan = dir.join("faults.json");
    std::fs::write(
        &plan,
        r#"{"faults":[
            {"op":"Append","index":0,"kind":{"TornWrite":{"keep":10}}},
            {"op":"Append","index":1,"kind":{"TornWrite":{"keep":25}}}
        ]}"#,
    )
    .unwrap();
    let out = stash(&[
        "sweep",
        "--models",
        "AlexNet,ResNet18,VGG11",
        "--clusters",
        "p3.2xlarge",
        "--iters",
        "4",
        "--store",
        store_arg,
        "--io-fault-plan",
        plan.to_str().unwrap(),
        "--out",
        cold.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "faulted sweep failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("3 computed, 0 resumed, 0 failed"),
        "{stdout}"
    );

    // Both tears replay as torn lines; every retried line survives, and
    // the plan lines are all the journal holds.
    let replay = Journal::new(&Path::new(store_arg).join("journal.log"))
        .replay(&StdFs::new())
        .unwrap();
    assert!(replay.torn_tail);
    assert_eq!(replay.planned_cells().len(), 3, "{:?}", replay.entries);
    assert_eq!(replay.entries.len(), 3, "{:?}", replay.entries);

    let out = stash(&[
        "sweep",
        "--store",
        store_arg,
        "--resume",
        "--out",
        warm.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "resume failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("resuming 3 journaled cell(s)"), "{stdout}");
    assert!(
        stdout.contains("0 computed, 3 resumed, 0 failed"),
        "{stdout}"
    );
    let read = |p: &Path| std::fs::read_to_string(p).unwrap();
    assert_eq!(strip_status(&read(&cold)), strip_status(&read(&warm)));

    let _ = std::fs::remove_dir_all(&dir);
}
