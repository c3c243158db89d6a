//! Hostile sweep journals and plan descriptors never panic, and no line
//! that is not a whole plan written for its cell ever becomes a job.
//!
//! Inputs: every truncation of a valid journal, seeded byte flips of it,
//! and lines with valid checksums that carry hostile JSON (wrong types,
//! unknown ops, missing fields, deep nesting, enum-like objects with more
//! than one key, unknown models or clusters, huge replica counts, and a
//! dataset or key that does not match). Each hostile line replays as
//! torn (`torn_tail` set), is not a `plan` line, or makes
//! `job_from_descriptor` return `Err`; every intact plan line still
//! decodes to the job that wrote it. `stash sweep --store DIR --resume`
//! over such a journal resumes its cells or exits 1 naming the cell whose
//! plan does not decode. Cases are seeded and never shrunk; a failure
//! prints the input.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::TestRng;
use stash::core::profiler::{ProfileJob, Stash};
use stash::core::sweep::{cell_descriptor, cell_key, job_from_descriptor};
use stash::dnn::dataset::DatasetSpec;
use stash::dnn::zoo;
use stash::hwtopo::cluster::ClusterSpec;
use stash::store::io::{StdFs, StoreIo};
use stash::store::journal::{Journal, JournalEntry, JournalReplay};
use stash::store::retry::RetryPolicy;
use stash::store::{fnv128, key_hex};

/// A job as `stash sweep` builds one.
fn job(
    cluster: &str,
    model: &str,
    batch: u64,
    iterations: u64,
    samples: Option<u64>,
) -> ProfileJob {
    let model = zoo::by_name(model).unwrap();
    let mut stash = Stash::new(model.clone())
        .with_dataset(DatasetSpec::for_model(&model))
        .with_batch(batch)
        .with_sampled_iterations(iterations);
    if let Some(samples) = samples {
        stash = stash.with_epoch_samples(samples);
    }
    ProfileJob {
        stash,
        cluster: ClusterSpec::parse(cluster).unwrap(),
    }
}

/// The plan line a sweep journals for `job`.
fn plan_of(job: &ProfileJob) -> JournalEntry {
    JournalEntry::plan(
        &key_hex(cell_key(job)),
        &serde_json::to_string(&cell_descriptor(job)).unwrap(),
    )
}

/// `json` as a journal line with a valid checksum.
fn checksummed(json: &str) -> String {
    let sum = (fnv128(json.as_bytes()) & u128::from(u64::MAX)) as u64;
    format!("{sum:016x} {json}\n")
}

/// A fresh scratch directory, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("stash_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The bytes of a journal written by two sweeps (three cells, then two
/// of them again), with the plan entries it holds.
fn valid_journal() -> (Vec<u8>, Vec<JournalEntry>) {
    static JOURNAL: OnceLock<(Vec<u8>, Vec<JournalEntry>)> = OnceLock::new();
    JOURNAL
        .get_or_init(|| {
            let jobs = [
                job("p3.2xlarge", "AlexNet", 32, 2, Some(20_000)),
                job("p3.8xlarge*2", "BERT-large", 16, 6, None),
                job("p2.xlarge*8", "ShuffleNet", 1, 1, Some(9_000)),
            ];
            let scratch = Scratch::new("journal_props_valid");
            let journal = Journal::new(&scratch.0.join("journal.log"));
            let first: Vec<JournalEntry> = jobs.iter().map(plan_of).collect();
            let policy = RetryPolicy::default();
            journal.append(&StdFs, &first, &policy).unwrap();
            journal.append(&StdFs, &first[1..], &policy).unwrap();
            let mut entries = first.clone();
            entries.extend_from_slice(&first[1..]);
            (std::fs::read(journal.path()).unwrap(), entries)
        })
        .clone()
}

/// A [`StoreIo`] holding one file's bytes, for replaying them.
#[derive(Debug)]
struct Bytes(Vec<u8>);

impl StoreIo for Bytes {
    fn read(&self, _: &Path) -> io::Result<Vec<u8>> {
        Ok(self.0.clone())
    }
    fn write_atomic(&self, _: &Path, _: &[u8]) -> io::Result<()> {
        unreachable!("replay only reads")
    }
    fn append(&self, _: &Path, _: &[u8]) -> io::Result<()> {
        unreachable!("replay only reads")
    }
    fn list(&self, _: &Path) -> io::Result<Vec<PathBuf>> {
        unreachable!("replay only reads")
    }
    fn rename(&self, _: &Path, _: &Path) -> io::Result<()> {
        unreachable!("replay only reads")
    }
    fn remove(&self, _: &Path) -> io::Result<()> {
        unreachable!("replay only reads")
    }
    fn create_dir_all(&self, _: &Path) -> io::Result<()> {
        unreachable!("replay only reads")
    }
    fn exists(&self, _: &Path) -> bool {
        true
    }
}

/// Replays `bytes`, with a panic turned into an error naming them.
fn replay(bytes: &[u8]) -> Result<JournalReplay, String> {
    let io = Bytes(bytes.to_vec());
    catch_unwind(AssertUnwindSafe(|| {
        Journal::new(Path::new("journal.log")).replay(&io).unwrap()
    }))
    .map_err(|_| format!("replay panicked on {:?}", String::from_utf8_lossy(bytes)))
}

/// `job_from_descriptor`, with a panic turned into an error naming the
/// plan.
fn decode(key: &str, detail: &str) -> Result<Result<ProfileJob, String>, String> {
    catch_unwind(AssertUnwindSafe(|| job_from_descriptor(key, detail)))
        .map_err(|_| format!("the decoder panicked on {key} {detail:?}"))
}

/// Every plan `replay` keeps decodes to a job with the key on its line.
fn plans_decode(replay: &JournalReplay) -> Result<(), String> {
    for (key, detail) in replay.planned_cells() {
        let job = decode(&key, &detail)?.map_err(|e| format!("{key} {detail}: {e}"))?;
        if key_hex(cell_key(&job)) != key {
            return Err(format!("{key} decoded to another cell: {detail}"));
        }
    }
    Ok(())
}

#[test]
fn every_truncation_keeps_the_whole_lines_and_flags_the_torn_one() {
    let (bytes, entries) = valid_journal();
    let whole = replay(&bytes).unwrap();
    assert!(!whole.torn_tail);
    assert_eq!(whole.entries, entries);
    // Each entry's line, as a byte range without its newline.
    let mut lines = Vec::new();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            if i > start {
                lines.push(start..i);
            }
            start = i + 1;
        }
    }
    assert_eq!(lines.len(), entries.len());
    for end in 0..=bytes.len() {
        let cut = replay(&bytes[..end]).unwrap();
        let whole_lines = lines.iter().take_while(|l| l.end <= end).count();
        let torn = lines.get(whole_lines).is_some_and(|l| l.start < end);
        assert_eq!(cut.entries, entries[..whole_lines], "cut at {end}");
        assert_eq!(cut.torn_tail, torn, "cut at {end}");
        plans_decode(&cut).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A flipped byte loses at most the lines it lands in: every entry
    /// kept is one that was written, in order, and a lost one is flagged.
    #[test]
    fn byte_flips_lose_only_the_lines_they_hit(flip in (0u64..u64::MAX, 0u64..8)) {
        let (mut bytes, entries) = valid_journal();
        let (at, bit) = flip;
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= 1 << bit;
        let flipped = replay(&bytes).map_err(TestCaseError::fail)?;
        let mut written = entries.iter();
        for kept in &flipped.entries {
            prop_assert!(
                written.any(|e| e == kept),
                "byte {at} bit {bit}: {kept:?} was never written"
            );
        }
        if flipped.entries.len() < entries.len() {
            prop_assert!(flipped.torn_tail, "byte {at} bit {bit}: a lost line went unflagged");
        }
        plans_decode(&flipped).map_err(TestCaseError::fail)?;
    }
}

/// 30,000 nested arrays: far past the JSON reader's nesting bound.
fn deep() -> String {
    format!("{}{}", "[".repeat(30_000), "]".repeat(30_000))
}

/// Checksummed journal lines that are not plans a sweep wrote.
fn hostile_lines() -> Vec<String> {
    let key = key_hex(cell_key(&job("p3.2xlarge", "AlexNet", 32, 2, None)));
    let entry = |op: &str, key: &str, detail: &str| {
        serde_json::to_string(&JournalEntry {
            op: op.to_string(),
            key: key.to_string(),
            detail: detail.to_string(),
        })
        .unwrap()
    };
    let mut lines = vec![
        // Not an entry at all.
        "[]".to_string(),
        "null".to_string(),
        "\"plan\"".to_string(),
        deep(),
        // Wrong types and missing fields.
        format!(r#"{{"op":"plan","key":7,"detail":"{{}}"}}"#),
        format!(r#"{{"op":"plan","key":"{key}","detail":{{"schema":"stash-cell-v1"}}}}"#),
        format!(r#"{{"op":"plan","key":"{key}"}}"#),
        format!(r#"{{"op":["plan"],"key":"{key}","detail":""}}"#),
        r#"{"key":"00","detail":""}"#.to_string(),
        format!(
            r#"{{"op":"plan","key":"{key}","detail":"","x":{}}}"#,
            deep()
        ),
        format!(r#"{{"op":{{"plan":null,"done":null}},"key":"{key}","detail":""}}"#),
        // Ops no sweep writes, and the status lines older sweeps wrote.
        entry("zap", &key, "{}"),
        entry("done", &key, ""),
        entry("fail", &key, r#"{"Profile":{"error":"x"}}"#),
        // Plans whose descriptor does not decode.
        entry("plan", &key, "not json"),
        entry("plan", &key, ""),
        entry("plan", &key, &deep()),
        entry("plan", &key, "[]"),
    ];
    lines.iter_mut().for_each(|json| *json = checksummed(json));
    lines
}

#[test]
fn hostile_lines_replay_torn_or_fail_to_decode() {
    let (bytes, entries) = valid_journal();
    for line in hostile_lines() {
        let mut doc = bytes.clone();
        doc.extend_from_slice(line.as_bytes());
        let replayed = replay(&doc).unwrap();
        assert_eq!(replayed.entries[..entries.len()], entries[..], "{line}");
        let refused = match replayed.entries.get(entries.len()) {
            None => replayed.torn_tail,
            Some(e) if e.op != "plan" => true,
            Some(e) => decode(&e.key, &e.detail).unwrap().is_err(),
        };
        assert!(refused, "accepted {line}");
        // Whatever the line, the cells planned before it still decode.
        let before = replay(&bytes).unwrap().planned_cells();
        let planned = replayed.planned_cells();
        assert_eq!(planned[..before.len()], before[..], "{line}");
        for (key, detail) in &before {
            decode(key, detail).unwrap().unwrap();
        }
    }
}

/// One value from `valid` or, one draw in five, from `hostile`; records
/// whether the hostile pool was used. `None` leaves the field out.
fn draw(
    rng: &mut TestRng,
    hostile_drawn: &mut bool,
    valid: &str,
    hostile: &[Option<&str>],
) -> Option<String> {
    if rng.below(5) == 0 {
        *hostile_drawn = true;
        hostile[rng.below(hostile.len() as u64) as usize].map(str::to_string)
    } else {
        Some(valid.to_string())
    }
}

/// Plan lines (key and descriptor) built from the descriptor of a job
/// `stash sweep` could have planned, each field kept or, one draw in five,
/// replaced by a hostile value or left out, under the job's key or a
/// hostile one; and whether everything was kept.
struct PlanLines;

impl Strategy for PlanLines {
    type Value = (String, String, bool);

    fn new_value(&self, rng: &mut TestRng) -> (String, String, bool) {
        let clusters = ["p3.2xlarge", "p3.8xlarge*2", "p2.xlarge*8", "p3.16xlarge*3"];
        let models = ["AlexNet", "ResNet18", "ShuffleNet", "BERT-large"];
        let samples = [None, Some(9_000), Some(20_000)];
        let mut pick = |n: usize| rng.below(n as u64) as usize;
        let written = job(
            clusters[pick(4)],
            models[pick(4)],
            [1, 16, 32][pick(3)],
            [1, 2, 6][pick(3)],
            samples[pick(3)],
        );
        let descriptor = cell_descriptor(&written);
        let other_dataset = if written.stash.dataset().name == "SQuAD 2.0" {
            "\"ImageNet1k\""
        } else {
            "\"SQuAD 2.0\""
        };
        let deep = deep();
        let bad_counts: &[Option<&str>] = &[
            Some("0"),
            Some("-1"),
            Some("\"32\""),
            Some("1.5"),
            Some("null"),
            Some("18446744073709551616"),
            Some("[]"),
            None,
        ];
        let hostile_values: [(&str, &[Option<&str>]); 7] = [
            (
                "schema",
                &[Some("\"stash-cell-v0\""), Some("1"), Some("null"), None],
            ),
            (
                "cluster",
                &[
                    Some("\"p3.2xlarge*1000000000\""),
                    Some("\"p3.2xlarge*0\""),
                    Some("\"p3.2xlarge*\""),
                    Some("\"m5.large\""),
                    Some("7"),
                    Some("null"),
                    Some("{\"p3.2xlarge\":1,\"p3.8xlarge\":2}"),
                    Some("[\"p3.2xlarge\"]"),
                    Some(&deep),
                    None,
                ],
            ),
            (
                "model",
                &[
                    Some("\"ResNet-50\""),
                    Some("\"\""),
                    Some("1"),
                    Some("null"),
                    Some("{\"AlexNet\":null,\"ResNet18\":null}"),
                    None,
                ],
            ),
            ("per_gpu_batch", bad_counts),
            ("sampled_iterations", bad_counts),
            (
                "epoch_samples",
                &[
                    Some("0"),
                    Some("-5"),
                    Some("\"20000\""),
                    Some("true"),
                    Some("{}"),
                    None,
                ],
            ),
            (
                "dataset",
                &[
                    Some(other_dataset),
                    Some("\"cifar10\""),
                    Some("3"),
                    Some("null"),
                    None,
                ],
            ),
        ];
        let mut hostile = false;
        let mut body = Vec::new();
        for (name, bad) in hostile_values {
            let kept = serde_json::to_string(&descriptor[name]).unwrap();
            if let Some(value) = draw(rng, &mut hostile, &kept, bad) {
                body.push(format!("\"{name}\":{value}"));
            }
        }
        let detail = format!("{{{}}}", body.join(","));

        let key = key_hex(cell_key(&written));
        let other = key_hex(cell_key(&job("p3.2xlarge", "AlexNet", 2, 3, Some(1))));
        let flipped = format!(
            "{}{}",
            if key.starts_with('0') { '1' } else { '0' },
            &key[1..]
        );
        let upper = key.to_uppercase();
        let drawn_key = draw(
            rng,
            &mut false,
            &key,
            &[
                Some(&other),
                Some(&flipped),
                Some(&upper),
                Some(&key[..31]),
                Some(""),
            ],
        )
        .unwrap_or_default();
        let valid = !hostile && drawn_key == key;
        (drawn_key, detail, valid)
    }
}

#[test]
fn plan_lines_are_drawn_valid_and_hostile() {
    let mut rng = TestRng::for_case("plan_lines_are_drawn_valid_and_hostile", 0);
    let valid = (0..512).filter(|_| PlanLines.new_value(&mut rng).2).count();
    assert!((40..200).contains(&valid), "{valid} of 512 drawn valid");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A checksummed plan line replays as written; the decoder rebuilds
    /// exactly the job whose descriptor and key it carries, and refuses
    /// every other.
    #[test]
    fn hostile_plan_descriptors_are_refused_by_the_decoder(plan in PlanLines) {
        let (key, detail, valid) = plan;
        let (mut bytes, entries) = valid_journal();
        let entry = JournalEntry::plan(&key, &detail);
        bytes.extend_from_slice(checksummed(&serde_json::to_string(&entry).unwrap()).as_bytes());
        let replayed = replay(&bytes).map_err(TestCaseError::fail)?;
        prop_assert!(!replayed.torn_tail, "{key} {detail}");
        prop_assert_eq!(replayed.entries.last(), Some(&entry));
        prop_assert_eq!(replayed.entries.len(), entries.len() + 1);
        match decode(&key, &detail).map_err(TestCaseError::fail)? {
            Ok(job) => {
                prop_assert!(valid, "decoded a hostile plan: {key} {detail}");
                prop_assert_eq!(key_hex(cell_key(&job)), key);
            }
            Err(e) => {
                prop_assert!(!valid, "refused a valid plan: {key} {detail}: {e}");
                let cell = format!("journal plan for cell {key}:");
                prop_assert!(e.starts_with(&cell), "{e}");
            }
        }
    }
}

fn stash(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stash"))
        .args(args)
        .output()
        .expect("run stash binary")
}

fn show(out: &Output) -> String {
    format!(
        "exit {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

#[test]
fn resume_over_hostile_journals_resumes_or_names_the_bad_cell() {
    let scratch = Scratch::new("journal_props_resume");
    let store = scratch.0.join("store");
    let store_arg = store.to_str().unwrap();
    let out = stash(&[
        "sweep",
        "--models",
        "AlexNet,ShuffleNet",
        "--clusters",
        "p3.2xlarge",
        "--iters",
        "2",
        "--store",
        store_arg,
    ]);
    assert!(out.status.success(), "{}", show(&out));
    let journal = store.join("journal.log");
    let cold = std::fs::read(&journal).unwrap();
    let planned = replay(&cold).unwrap().planned_cells();
    assert_eq!(planned.len(), 2);
    let last_line_start = cold[..cold.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .unwrap()
        + 1;

    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
    // Cut inside the last plan line, and with a flipped byte there: the
    // first cell is still planned.
    cases.push(("truncated".into(), cold[..last_line_start + 30].to_vec()));
    let mut flipped = cold.clone();
    flipped[last_line_start + 40] ^= 0x04;
    cases.push(("flipped".into(), flipped));
    // Every hostile line after the intact journal.
    for line in hostile_lines() {
        let mut doc = cold.clone();
        doc.extend_from_slice(line.as_bytes());
        cases.push((line, doc));
    }
    // Plans with a valid checksum that do not decode: a huge replica
    // count, and a key that is not the descriptor's.
    let (key, detail) = &planned[0];
    let huge = detail.replace("\"p3.2xlarge\"", "\"p3.2xlarge*1000000000\"");
    let wrong_key = planned[1].0.clone();
    for (key, detail) in [(key.clone(), huge), (wrong_key, detail.clone())] {
        let entry = JournalEntry::plan(&key, &detail);
        let mut doc = cold.clone();
        doc.extend_from_slice(checksummed(&serde_json::to_string(&entry).unwrap()).as_bytes());
        cases.push((format!("{key} {detail}"), doc));
    }

    let (mut resumed, mut refused) = (0, 0);
    for (what, doc) in cases {
        std::fs::write(&journal, &doc).unwrap();
        let replayed = replay(&doc).unwrap();
        let out = stash(&["sweep", "--store", store_arg, "--resume"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let bad = replayed
            .planned_cells()
            .into_iter()
            .find(|(key, detail)| job_from_descriptor(key, detail).is_err());
        match bad {
            Some((key, _)) => {
                refused += 1;
                assert_eq!(out.status.code(), Some(1), "{what}: {}", show(&out));
                assert!(
                    stderr.contains(&format!("journal plan for cell {key}:")),
                    "{what}: {}",
                    show(&out)
                );
            }
            None => {
                resumed += 1;
                let n = replayed.planned_cells().len();
                assert_eq!(out.status.code(), Some(0), "{what}: {}", show(&out));
                assert!(
                    stdout.contains(&format!("0 computed, {n} resumed, 0 failed")),
                    "{what}: {}",
                    show(&out)
                );
            }
        }
    }
    assert!(
        resumed >= 3 && refused >= 3,
        "{resumed} resumed, {refused} refused"
    );
}
