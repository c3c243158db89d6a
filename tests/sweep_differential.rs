//! Differential gates for the durable sweep CLI: routing a sweep through
//! the result store — with or without injected I/O faults — must change
//! nothing about the results. Storeless, stored, fault-injected and
//! resumed runs of the same grid agree byte-for-byte on every value;
//! only the status column may tell the runs apart.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;
use std::process::Command;

fn stash(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_stash"))
        .args(args)
        .output()
        .expect("run stash binary")
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stash_sweepdiff_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const GRID: [&str; 5] = [
    "sweep",
    "--models",
    "AlexNet,ResNet18",
    "--clusters",
    "p3.2xlarge,p3.8xlarge",
];

fn sweep_grid(extra: &[&str]) -> std::process::Output {
    stash(&[&GRID[..], extra].concat())
}

/// The grid sweep with the worker count pinned through
/// `STASH_BENCH_THREADS`.
fn sweep_grid_on(threads: usize, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_stash"))
        .args([&GRID[..], extra].concat())
        .env("STASH_BENCH_THREADS", threads.to_string())
        .output()
        .expect("run stash binary")
}

/// Every file a store run leaves behind that must be deterministic: the
/// results CSV, each record (by name) and the journal.
fn store_bytes(store: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(store.join("records"))
        .unwrap()
        .map(|e| {
            let p = e.unwrap().path();
            (
                format!("records/{}", p.file_name().unwrap().to_string_lossy()),
                std::fs::read(&p).unwrap(),
            )
        })
        .collect();
    files.sort();
    for name in ["results.csv", "journal.log"] {
        files.push((name.to_string(), std::fs::read(store.join(name)).unwrap()));
    }
    files
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap()
}

fn strip_status(csv: &str) -> String {
    csv.lines()
        .map(|l| l.rsplit_once(',').map_or(l, |(head, _)| head).to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn storeless_stored_and_faulted_sweeps_are_bit_identical() {
    let dir = scratch("diff");
    let a = dir.join("storeless.csv");
    let b = dir.join("stored.csv");
    let c = dir.join("faulted.csv");
    let store_b = dir.join("store_b");
    let store_c = dir.join("store_c");

    let out = sweep_grid(&["--out", a.to_str().unwrap()]);
    assert!(out.status.success(), "storeless sweep failed: {out:?}");

    let out = sweep_grid(&[
        "--store",
        store_b.to_str().unwrap(),
        "--out",
        b.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stored sweep failed: {out:?}");

    // Seeded recoverable faults (torn write, short read, EIO, ENOSPC):
    // the retry/quarantine machinery must absorb all of them.
    let out = sweep_grid(&[
        "--store",
        store_c.to_str().unwrap(),
        "--io-fault-seed",
        "42",
        "--out",
        c.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "faulted sweep failed: {out:?}");

    // All three CSVs are byte-identical — same cells, same values, and
    // every cell computed in-run.
    let (ta, tb, tc) = (read(&a), read(&b), read(&c));
    assert_eq!(ta, tb, "store routing changed the results");
    assert_eq!(tb, tc, "injected faults changed the results");
    assert!(ta.lines().skip(1).all(|l| l.ends_with(",computed")));

    // The two stores hold byte-identical records under identical names.
    let list = |store: &Path| -> Vec<(String, Vec<u8>)> {
        let mut v: Vec<_> = std::fs::read_dir(store.join("records"))
            .unwrap()
            .map(|e| {
                let p = e.unwrap().path();
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(&p).unwrap(),
                )
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(list(&store_b), list(&store_c));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resumed_sweep_serves_every_cell_from_the_store() {
    let dir = scratch("resume");
    let cold = dir.join("cold.csv");
    let warm = dir.join("warm.csv");
    let store = dir.join("store");

    let out = sweep_grid(&[
        "--store",
        store.to_str().unwrap(),
        "--out",
        cold.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "cold sweep failed: {out:?}");

    // Resume with no grid flags: the journal carries the intent.
    let out = stash(&[
        "sweep",
        "--store",
        store.to_str().unwrap(),
        "--resume",
        "--out",
        warm.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "resume failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("0 computed, 4 resumed, 0 failed"),
        "{stdout}"
    );

    let (tc, tw) = (read(&cold), read(&warm));
    assert_eq!(strip_status(&tc), strip_status(&tw));
    assert!(tw.lines().skip(1).all(|l| l.ends_with(",resumed")));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_cells_degrade_gracefully_with_exit_class_2() {
    let dir = scratch("degrade");
    let csv = dir.join("partial.csv");

    // p3.16xlarge*3 has no single-instance reference measurement, so its
    // cell fails with a typed profile error; the healthy cell still runs.
    let out = stash(&[
        "sweep",
        "--models",
        "AlexNet",
        "--clusters",
        "p3.16xlarge*3,p3.2xlarge",
        "--out",
        csv.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "want exit class 2: {out:?}");

    let text = read(&csv);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "header + one row per cell:\n{text}");
    assert!(lines[1].starts_with("p3.16xlarge*3,AlexNet,"));
    assert!(lines[1].ends_with(",profile-error"), "{}", lines[1]);
    assert!(lines[2].ends_with(",computed"), "{}", lines[2]);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stores_are_byte_identical_across_thread_counts() {
    let dir = scratch("threads");
    for faults in [&[][..], &["--io-fault-seed", "42"][..]] {
        let runs: Vec<_> = [1, 4]
            .into_iter()
            .map(|threads| {
                let store = dir.join(format!("store_{threads}_{}", faults.len()));
                let out = sweep_grid_on(
                    threads,
                    &[&["--store", store.to_str().unwrap()], faults].concat(),
                );
                assert!(
                    out.status.success(),
                    "{threads}-thread sweep failed: {out:?}"
                );
                store_bytes(&store)
            })
            .collect();
        assert_eq!(runs[0].len(), 6, "4 records, the CSV and the journal");
        assert_eq!(
            runs[0], runs[1],
            "1 and 4 threads diverged (faults: {faults:?})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_sees_cells_planned_after_a_torn_journal_tail() {
    let dir = scratch("torn");
    let store = dir.join("store");
    let store_arg = store.to_str().unwrap();

    let out = stash(&[
        "sweep",
        "--models",
        "AlexNet",
        "--clusters",
        "p3.2xlarge",
        "--store",
        store_arg,
    ]);
    assert!(out.status.success(), "first sweep failed: {out:?}");
    // A process killed mid-append leaves a line fragment with no newline.
    let journal = store.join("journal.log");
    let mut bytes = std::fs::read(&journal).unwrap();
    bytes.extend_from_slice(b"0123456789abcdef {\"op\":\"pl");
    std::fs::write(&journal, &bytes).unwrap();

    // The next process plans two more cells after the tear.
    let out = stash(&[
        "sweep",
        "--models",
        "ResNet18,ShuffleNet",
        "--clusters",
        "p3.2xlarge",
        "--store",
        store_arg,
    ]);
    assert!(out.status.success(), "second sweep failed: {out:?}");

    let out = stash(&["sweep", "--store", store_arg, "--resume"]);
    assert!(out.status.success(), "resume failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("journal has a torn tail"), "{stdout}");
    assert!(stdout.contains("resuming 3 journaled cell(s)"), "{stdout}");
    assert!(
        stdout.contains("0 computed, 3 resumed, 0 failed"),
        "{stdout}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
