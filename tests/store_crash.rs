//! Crash-resume integration test: a sweep process is killed dead (no
//! cleanup, no destructors) while a record write is mid-flight, leaving
//! a torn record and a half-finished journal behind. A fresh process
//! resuming that store must converge to records byte-identical to a run
//! that was never interrupted — the paper's pay-once economics made
//! crash-safe.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use stash::store::prelude::{IoFault, IoFaultKind, IoFaultPlan, IoOpClass};

fn stash(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_stash"))
        .args(args)
        .output()
        .expect("run stash binary")
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stash_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every record file in a store, keyed by filename.
fn records(store: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(store.join("records")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|x| x == "rec") {
            out.insert(
                path.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&path).unwrap(),
            );
        }
    }
    out
}

/// A CSV with the trailing status column dropped from every line, so
/// computed and resumed runs of the same cells compare equal.
fn strip_status(csv: &str) -> String {
    csv.lines()
        .map(|l| l.rsplit_once(',').map_or(l, |(head, _)| head).to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

const GRID: [&str; 6] = [
    "--models",
    "AlexNet,ResNet18,ShuffleNet",
    "--clusters",
    "p3.2xlarge",
    "-b",
    "32",
];

#[test]
fn sigkill_mid_write_then_resume_converges_to_identical_bytes() {
    let dir = scratch("kill");
    let ref_store = dir.join("reference");
    let crash_store = dir.join("crashed");

    // The uninterrupted reference run.
    let ref_csv = dir.join("reference.csv");
    let out = stash(
        &[
            &[
                "sweep",
                "--store",
                ref_store.to_str().unwrap(),
                "--out",
                ref_csv.to_str().unwrap(),
            ],
            &GRID[..],
        ]
        .concat(),
    );
    assert!(out.status.success(), "reference sweep failed: {out:?}");

    // A fault plan that stalls the process forever inside the *second*
    // record write, after a short prefix reached the final path — the
    // torn-write state a power cut leaves behind. The stall prints a
    // marker line, which is our cue to SIGKILL the child.
    let plan = IoFaultPlan {
        faults: vec![IoFault {
            op: IoOpClass::Write,
            index: 1,
            kind: IoFaultKind::StallMidWrite { keep: 9 },
        }],
    };
    let plan_path = dir.join("stall_plan.json");
    std::fs::write(&plan_path, plan.to_json()).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_stash"))
        .args(
            [
                &[
                    "sweep",
                    "--store",
                    crash_store.to_str().unwrap(),
                    "--io-fault-plan",
                    plan_path.to_str().unwrap(),
                ],
                &GRID[..],
            ]
            .concat(),
        )
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sweep child");

    let stdout = child.stdout.take().unwrap();
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in std::io::BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if line.contains("stalled mid-write") {
                let _ = tx.send(());
                return;
            }
        }
    });
    if rx.recv_timeout(Duration::from_secs(120)).is_err() {
        let _ = child.kill();
        panic!("sweep child never reached the planned stall point");
    }
    child.kill().expect("kill stalled child");
    child.wait().unwrap();
    reader.join().unwrap();

    // The kill left a mess: fewer intact records than the reference, and
    // the in-flight record torn to its 9-byte prefix.
    let crashed = records(&crash_store);
    let reference = records(&ref_store);
    assert_eq!(reference.len(), 3, "reference run should store every cell");
    assert!(
        crashed.len() < reference.len() || crashed.values().any(|b| b.len() < 20),
        "the crash should have left an incomplete store"
    );
    assert!(
        crashed.values().any(|bytes| bytes.len() == 9),
        "expected the torn 9-byte record prefix, got lengths {:?}",
        crashed.values().map(Vec::len).collect::<Vec<_>>()
    );

    // A fresh process resumes the store — no fault plan, no grid flags:
    // the journaled write-ahead plans carry the full intent.
    let resumed_csv = dir.join("resumed.csv");
    let out = stash(&[
        "sweep",
        "--store",
        crash_store.to_str().unwrap(),
        "--resume",
        "--out",
        resumed_csv.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "resume failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("resuming 3 journaled cell(s)"),
        "resume should recover the whole planned grid:\n{stdout}"
    );

    // Convergence: the resumed store is byte-identical to the
    // uninterrupted one, record for record.
    assert_eq!(records(&crash_store), reference);

    // The torn record's corpse was quarantined, not destroyed.
    let quarantine: Vec<_> = std::fs::read_dir(crash_store.join("quarantine"))
        .unwrap()
        .collect();
    assert!(!quarantine.is_empty(), "torn record should be quarantined");

    // And the results CSVs agree on every value; only the status column
    // (computed vs resumed) may differ.
    let ref_text = std::fs::read_to_string(&ref_csv).unwrap();
    let res_text = std::fs::read_to_string(&resumed_csv).unwrap();
    assert_eq!(strip_status(&ref_text), strip_status(&res_text));
    assert!(res_text.contains(",resumed"), "intact cell should resume");
    assert!(res_text.contains(",computed"), "torn cell should recompute");

    let _ = std::fs::remove_dir_all(&dir);
}
