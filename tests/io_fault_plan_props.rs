//! Hostile `--io-fault-plan` input never panics: `IoFaultPlan::from_json`
//! returns `Err` for every malformed document, `stash sweep
//! --io-fault-plan` exits 1 naming the file, and extreme but valid plans
//! finish a one-cell sweep (exit 0, or 2 when a cell could not be made
//! durable).
//!
//! Documents are built from a template whose every field is drawn from
//! valid values or, one draw in four, from hostile ones: wrong types,
//! negative and out-of-range numbers, unknown variants, enum objects with
//! more than one key and missing payload fields. Cases are seeded and
//! never shrunk; a failure prints the document. Nesting far deeper than
//! any plan is refused with a typed error, not a stack overflow. `StallMidWrite` parses but never runs here: it blocks
//! forever by design, for the crash-kill test.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use proptest::prelude::*;
use proptest::TestRng;
use stash::store::io::{IoFault, IoFaultKind, IoFaultPlan, IoOpClass};

/// `from_json` on `text`, with a panic turned into a verdict.
fn parse(text: &str) -> Result<Result<IoFaultPlan, String>, String> {
    catch_unwind(AssertUnwindSafe(|| IoFaultPlan::from_json(text)))
        .map_err(|_| format!("from_json panicked on {text:?}"))
}

/// A valid plan using every fault kind and operation class.
fn every_kind() -> IoFaultPlan {
    let fault = |op, index, kind| IoFault { op, index, kind };
    IoFaultPlan {
        faults: vec![
            fault(IoOpClass::Write, 0, IoFaultKind::TornWrite { keep: 7 }),
            fault(IoOpClass::Read, 3, IoFaultKind::ShortRead { drop: 24 }),
            fault(IoOpClass::Append, 1, IoFaultKind::TransientErr),
            fault(IoOpClass::Rename, 0, IoFaultKind::Enospc),
            fault(IoOpClass::Any, u64::MAX, IoFaultKind::BitFlip { byte: 40 }),
            fault(IoOpClass::Write, 9, IoFaultKind::StallMidWrite { keep: 1 }),
        ],
    }
}

/// `depth` nested arrays around `inner`: 30,000 levels make a 60 KB file.
fn nested(depth: usize, inner: &str) -> String {
    format!("{}{inner}{}", "[".repeat(depth), "]".repeat(depth))
}

#[test]
fn deep_nesting_and_multi_key_enums_are_refused() {
    for doc in [
        nested(30_000, ""),
        format!("{{\"faults\":{}}}", nested(30_000, "")),
        format!(
            "{{\"faults\":[{{\"op\":\"Write\",\"index\":0,\"kind\":{}}}]}}",
            nested(200, "\"Enospc\"")
        ),
        "[".repeat(100_000),
    ] {
        let err = parse(&doc).unwrap().unwrap_err();
        assert!(
            err.contains("nesting deeper than"),
            "{}...: {err}",
            &doc[..40]
        );
    }
    // An externally tagged enum is an object with exactly one key: a
    // second key, known variant or not, in either order, is refused.
    for kind in [
        r#"{"TornWrite":{"keep":1},"Melt":null}"#,
        r#"{"Melt":null,"TornWrite":{"keep":1}}"#,
        r#"{"TornWrite":{"keep":1},"ShortRead":{"drop":1}}"#,
    ] {
        let doc = format!(r#"{{"faults":[{{"op":"Write","index":0,"kind":{kind}}}]}}"#);
        let err = parse(&doc).unwrap().unwrap_err();
        assert!(err.contains("exactly one key"), "{doc}: {err}");
    }
    let one_key = r#"{"faults":[{"op":"Write","index":0,"kind":{"TornWrite":{"keep":1}}}]}"#;
    assert!(parse(one_key).unwrap().is_ok());
}

#[test]
fn every_truncation_of_a_valid_plan_is_refused() {
    for plan in [every_kind(), IoFaultPlan::seeded(42)] {
        let text = plan.to_json();
        assert_eq!(
            parse(&text).unwrap(),
            Ok(plan.clone()),
            "the whole plan parses"
        );
        for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
            let prefix = &text[..end];
            assert!(parse(prefix).unwrap().is_err(), "accepted {prefix:?}");
        }
    }
}

/// One value from `valid`, or, one draw in four, from `hostile`; records
/// whether the hostile pool was used.
fn draw(rng: &mut TestRng, hostile_drawn: &mut bool, valid: &[&str], hostile: &[&str]) -> String {
    let pool = if rng.below(4) == 0 {
        *hostile_drawn = true;
        hostile
    } else {
        valid
    };
    pool[rng.below(pool.len() as u64) as usize].to_string()
}

/// Plan documents with one to three faults, each field valid or hostile,
/// and whether every field was valid.
struct HostileDocs;

impl Strategy for HostileDocs {
    type Value = (String, bool);

    fn new_value(&self, rng: &mut TestRng) -> (String, bool) {
        let numbers = ["0", "7", "4096", "18446744073709551615"];
        let bad_numbers = [
            "-1",
            "-9223372036854775808",
            "18446744073709551616",
            "1e400",
            "1.5",
            "\"7\"",
            "null",
            "true",
            "[]",
            "{}",
        ];
        let ops = [
            "\"Any\"",
            "\"Read\"",
            "\"Write\"",
            "\"Append\"",
            "\"Rename\"",
        ];
        let bad_ops = [
            "\"Delete\"",
            "\"write\"",
            "\"\"",
            "0",
            "null",
            "[]",
            "{\"Write\":null}",
        ];
        let mut hostile = false;
        let mut faults = Vec::new();
        for _ in 0..=rng.below(3) {
            let op = draw(rng, &mut hostile, &ops, &bad_ops);
            let index = draw(rng, &mut hostile, &numbers, &bad_numbers);
            // Every variant, with the payload field each carries.
            let variants = [
                ("TornWrite", Some("keep")),
                ("ShortRead", Some("drop")),
                ("BitFlip", Some("byte")),
                ("StallMidWrite", Some("keep")),
                ("TransientErr", None),
                ("Enospc", None),
            ];
            let bad_kinds = [
                "\"Melt\"",
                "{\"Melt\":{\"keep\":1}}",
                "{\"TornWrite\":{}}",
                "{\"TornWrite\":{\"drop\":1}}",
                "{\"TornWrite\":1}",
                "\"TornWrite\"",
                "{\"TransientErr\":{}}",
                "{\"TornWrite\":{\"keep\":1},\"Melt\":null}",
                "{\"Enospc\":null,\"TransientErr\":null}",
                "{}",
                "[]",
                "null",
                "42",
            ];
            let kind = if rng.below(4) == 0 {
                hostile = true;
                bad_kinds[rng.below(bad_kinds.len() as u64) as usize].to_string()
            } else {
                match variants[rng.below(variants.len() as u64) as usize] {
                    (name, Some(field)) => {
                        let n = draw(rng, &mut hostile, &numbers, &bad_numbers);
                        format!("{{\"{name}\":{{\"{field}\":{n}}}}}")
                    }
                    (name, None) => format!("\"{name}\""),
                }
            };
            faults.push(format!("{{\"op\":{op},\"index\":{index},\"kind\":{kind}}}"));
        }
        let faults = faults.join(",");
        let doc = format!("{{\"faults\":[{faults}]}}");
        let docs = [doc.as_str()];
        let bad_docs = [
            "[]",
            "null",
            "\"faults\"",
            "{\"faults\":{}}",
            "{\"faults\":null}",
            "{\"faults\":[1]}",
            "{\"faults\":[[]]}",
            "faults: []",
            "",
        ];
        (draw(rng, &mut hostile, &docs, &bad_docs), !hostile)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every document with a hostile field is refused, every valid one
    /// parses and round-trips, and neither panics.
    #[test]
    fn hostile_plan_documents_are_refused_without_panicking(doc in HostileDocs) {
        let (text, valid) = doc;
        let parsed = parse(&text).map_err(TestCaseError::fail)?;
        match parsed {
            Ok(plan) => {
                prop_assert!(valid, "accepted a hostile document: {text}");
                prop_assert_eq!(IoFaultPlan::from_json(&plan.to_json()), Ok(plan));
            }
            Err(e) => prop_assert!(!valid, "refused a valid document: {text}: {e}"),
        }
    }
}

/// A fresh scratch directory for one test, removed when dropped.
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

/// A one-cell sweep (AlexNet on p3.2xlarge, two sampled iterations) into
/// `store` under the I/O fault plan in `plan`.
fn sweep(plan: &Path, store: &Path, resume: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_stash"));
    cmd.args([
        "sweep",
        "--models",
        "AlexNet",
        "--clusters",
        "p3.2xlarge",
        "--iters",
        "2",
    ])
    .arg("--store")
    .arg(store)
    .arg("--io-fault-plan")
    .arg(plan);
    if resume {
        cmd.arg("--resume");
    }
    cmd.output().expect("run stash binary")
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
fn sweep_refuses_hostile_plan_files_naming_them() {
    let scratch = Scratch::new("hostile_io_plans");
    let text = every_kind().to_json();
    let mut rng = TestRng::for_case("sweep_refuses_hostile_plan_files_naming_them", 0);
    let mut docs: Vec<Vec<u8>> = (0..6)
        .map(|_| text.as_bytes()[..rng.below(text.len() as u64) as usize].to_vec())
        .collect();
    for hostile in [
        r#"{"faults":[{"op":"Write","index":-1,"kind":"Enospc"}]}"#,
        r#"{"faults":[{"op":"Write","index":0,"kind":{"TornWrite":{"keep":18446744073709551616}}}]}"#,
        r#"{"faults":[{"op":"Write","index":0,"kind":{"BitFlip":{"byte":"7"}}}]}"#,
        r#"{"faults":[{"op":"Delete","index":0,"kind":"Enospc"}]}"#,
        r#"{"faults":[{"op":"Write","index":0,"kind":"Melt"}]}"#,
        r#"{"faults":[{"op":"Write","index":0,"kind":{"TornWrite":{"keep":1},"Melt":null}}]}"#,
        r#"{"faults":{}}"#,
        "",
    ] {
        docs.push(hostile.as_bytes().to_vec());
    }
    docs.push(nested(30_000, "").into_bytes());
    docs.push(vec![b'{', 0xff, 0xfe, b'}']);
    for (i, doc) in docs.iter().enumerate() {
        let plan = scratch.0.join(format!("plan_{i}.json"));
        std::fs::write(&plan, doc).unwrap();
        let out = sweep(&plan, &scratch.0.join(format!("store_{i}")), false);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{:?}: {}",
            String::from_utf8_lossy(doc),
            show(&out)
        );
        assert!(
            stderr.contains(plan.to_str().unwrap()),
            "{:?}: the error must name the file: {}",
            String::from_utf8_lossy(doc),
            show(&out)
        );
    }
}

#[test]
fn extreme_valid_plans_finish_a_one_cell_sweep() {
    let scratch = Scratch::new("extreme_io_plans");
    let fault = |op, index, kind| IoFault { op, index, kind };
    let max = u64::MAX;
    let plans = [
        vec![
            fault(IoOpClass::Write, 0, IoFaultKind::TornWrite { keep: max }),
            fault(IoOpClass::Append, 0, IoFaultKind::TornWrite { keep: max }),
            fault(IoOpClass::Read, 0, IoFaultKind::ShortRead { drop: max }),
        ],
        vec![
            fault(IoOpClass::Write, 0, IoFaultKind::BitFlip { byte: max }),
            fault(IoOpClass::Read, 1, IoFaultKind::ShortRead { drop: max }),
        ],
        vec![
            fault(IoOpClass::Any, 0, IoFaultKind::TornWrite { keep: 0 }),
            fault(IoOpClass::Any, 1, IoFaultKind::ShortRead { drop: max }),
            fault(IoOpClass::Any, 2, IoFaultKind::TransientErr),
            fault(IoOpClass::Any, 3, IoFaultKind::Enospc),
            fault(IoOpClass::Any, 4, IoFaultKind::BitFlip { byte: max }),
            fault(IoOpClass::Any, 5, IoFaultKind::TornWrite { keep: max }),
        ],
        vec![
            fault(IoOpClass::Rename, 0, IoFaultKind::TransientErr),
            fault(IoOpClass::Rename, 1, IoFaultKind::Enospc),
            fault(IoOpClass::Rename, 2, IoFaultKind::TornWrite { keep: max }),
            fault(IoOpClass::Rename, 3, IoFaultKind::BitFlip { byte: max }),
            fault(IoOpClass::Write, 0, IoFaultKind::BitFlip { byte: 0 }),
        ],
        (0..8)
            .map(|i| fault(IoOpClass::Any, max - i, IoFaultKind::Enospc))
            .collect(),
    ];
    for (i, faults) in plans.into_iter().enumerate() {
        let plan = IoFaultPlan { faults };
        let path = scratch.0.join(format!("plan_{i}.json"));
        std::fs::write(&path, plan.to_json()).unwrap();
        let store = scratch.0.join(format!("store_{i}"));
        // The cold sweep, then a resume that reads back (and may
        // quarantine) what the faulted writes left.
        for resume in [false, true] {
            let out = sweep(&path, &store, resume);
            assert!(
                matches!(out.status.code(), Some(0 | 2)),
                "plan {}\nresume {resume}: {}",
                plan.to_json(),
                show(&out)
            );
        }
    }
}
