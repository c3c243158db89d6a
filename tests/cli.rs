//! End-to-end tests of the `stash` command-line profiler, driving the
//! compiled binary like a user would.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Command;

fn stash(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_stash"))
        .args(args)
        .output()
        .expect("run stash binary")
}

#[test]
fn catalog_lists_all_table1_instances() {
    let out = stash(&["catalog"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in [
        "p4",
        "p3.2xlarge",
        "p3.8xlarge",
        "p3.16xlarge",
        "p3.24xlarge",
        "p2.xlarge",
        "p2.8xlarge",
        "p2.16xlarge",
    ] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn models_lists_the_zoo() {
    let out = stash(&["models"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("ResNet18"));
    assert!(stdout.contains("BERT-large"));
    assert!(stdout.contains("345.00"));
}

#[test]
fn probe_reports_per_gpu_bandwidth() {
    let out = stash(&["probe", "p2.16xlarge"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("16 GPUs"));
    assert!(stdout.contains("1.25 GB/s"));
}

#[test]
fn unknown_inputs_fail_with_guidance() {
    let out = stash(&["profile", "gpt9", "p3.16xlarge"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown model"));

    let out = stash(&["profile", "resnet18", "q9.mega"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown instance"));

    let out = stash(&[]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage"));

    // A batch that is not a positive integer is a usage error, not a
    // silent fallback to the default batch.
    for bad in ["abc", "-3", "0"] {
        let out = stash(&["profile", "resnet18", "p3.2xlarge", "-b", bad]);
        assert!(!out.status.success(), "-b {bad} was accepted");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("-b/--batch wants a positive integer"),
            "{stderr}"
        );
    }
}

#[test]
fn trace_writes_a_valid_chrome_trace() {
    let out_path = std::env::temp_dir().join("stash_cli_trace_test.json");
    let _ = std::fs::remove_file(&out_path);

    let out = stash(&[
        "trace",
        "p3.2xlarge",
        "resnet18",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("trace validated"), "{stdout}");
    assert!(stdout.contains("stash_span_nanoseconds_total"), "{stdout}");

    let text = std::fs::read_to_string(&out_path).expect("trace file written");
    let stats = stash::trace::chrome::validate(&text).expect("CLI trace must validate");
    assert!(stats.spans > 0);
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn oom_configurations_report_cleanly() {
    // BERT-large at batch 64 on a K80: the profiler must fail with the
    // memory message, not panic.
    let out = stash(&["profile", "bert-large", "p2.xlarge", "-b", "64"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("does not fit"), "{stderr}");
}

fn stash_on_workers(args: &[&str], threads: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_stash"))
        .args(args)
        .env("STASH_BENCH_THREADS", threads)
        .output()
        .expect("run stash binary")
}

#[test]
fn profiles_are_identical_at_every_worker_count() {
    // A five-step multi-node profile and a refused one: the worker count
    // schedules the steps but must not show in any output byte.
    let cases: [&[&str]; 2] = [
        &["profile", "resnet18", "p3.8xlarge*2"],
        &["profile", "bert-large", "p2.xlarge", "-b", "64"],
    ];
    for args in cases {
        let one = stash_on_workers(args, "1");
        for threads in ["2", "5"] {
            let other = stash_on_workers(args, threads);
            assert_eq!(
                other.status.code(),
                one.status.code(),
                "{args:?} at {threads}"
            );
            assert_eq!(other.stdout, one.stdout, "{args:?} at {threads}: stdout");
            assert_eq!(other.stderr, one.stderr, "{args:?} at {threads}: stderr");
        }
    }
    let report = stash_on_workers(cases[0], "2");
    assert!(report.status.success());
    assert!(String::from_utf8(report.stdout)
        .unwrap()
        .contains("T5 (synthetic multi-node)"));
    let refused = stash_on_workers(cases[1], "2");
    assert_eq!(refused.status.code(), Some(1));
    assert!(String::from_utf8(refused.stderr)
        .unwrap()
        .contains("does not fit"));
}

#[test]
fn unreadable_worker_counts_exit_one_naming_the_variable() {
    let args = ["profile", "resnet18", "p3.2xlarge"];
    for bad in ["two", "", "-1"] {
        let out = stash_on_workers(&args, bad);
        assert_eq!(out.status.code(), Some(1), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("STASH_BENCH_THREADS"), "{bad:?}: {stderr}");
        assert!(stderr.contains(&format!("'{bad}'")), "{bad:?}: {stderr}");
    }
    // 0 still means one worker.
    let zero = stash_on_workers(&args, "0");
    assert!(zero.status.success());
    assert_eq!(zero.stdout, stash_on_workers(&args, "1").stdout);
}

#[test]
fn trace_out_creates_nested_parent_directories() {
    let dir = std::env::temp_dir().join("stash_cli_nested_out_test");
    let _ = std::fs::remove_dir_all(&dir);
    let out_path = dir.join("deep/er/trace.json");

    let out = stash(&[
        "trace",
        "p3.2xlarge",
        "resnet18",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&out_path).expect("nested trace file written");
    assert!(stash::trace::chrome::validate(&text).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_writes_reconciled_html_and_json() {
    let dir = std::env::temp_dir().join("stash_cli_report_test");
    let _ = std::fs::remove_dir_all(&dir);
    let base = dir.join("nested/report");

    let out = stash(&[
        "report",
        "p3.8xlarge",
        "resnet50",
        "--out",
        base.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("critical-path reconciliation"), "{stdout}");

    // The JSON parses back into a report whose categories tile the wall.
    let json_text = std::fs::read_to_string(dir.join("nested/report.json")).expect("json written");
    let doc: serde_json::Value = serde_json::from_str(&json_text).unwrap();
    let report = stash::trace::report::InsightReport::from_json(&doc).expect("valid schema");
    let sum: u64 = report.categories.values().sum();
    assert_eq!(sum, report.wall_ns, "category totals must sum to the wall");
    assert!(!report.whatif.is_empty());
    assert!(!report.blame.is_empty());

    // The HTML is self-contained and carries the rollup totals.
    let html = std::fs::read_to_string(dir.join("nested/report.html")).expect("html written");
    assert!(html.starts_with("<!DOCTYPE html>"));
    assert!(!html.contains("http://") && !html.contains("https://") && !html.contains("<script"));
    assert!(html.contains(&format!("<th class=\"num\">{}</th>", report.wall_ns)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_passes_self_compare_and_flags_doctored_report() {
    let dir = std::env::temp_dir().join("stash_cli_diff_test");
    let _ = std::fs::remove_dir_all(&dir);
    let base = dir.join("report");

    let out = stash(&[
        "report",
        "p3.2xlarge",
        "resnet18",
        "--out",
        base.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json_path = dir.join("report.json");
    let json = json_path.to_str().unwrap();

    // Self-compare: no regressions, exit 0.
    let out = stash(&["diff", json, json]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("no stall regressions"));

    // Doctor the current report: inflate the network stall far past the
    // threshold. The diff must flag it and exit non-zero.
    let text = std::fs::read_to_string(&json_path).unwrap();
    let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
    let mut report = stash::trace::report::InsightReport::from_json(&doc).unwrap();
    let inflated = report.category_ns("network") * 3 + 10_000_000;
    report.categories.insert("network".to_string(), inflated);
    let doctored_path = dir.join("doctored.json");
    std::fs::write(
        &doctored_path,
        serde_json::to_string_pretty(&report.to_json()).unwrap(),
    )
    .unwrap();

    let out = stash(&["diff", json, doctored_path.to_str().unwrap()]);
    assert!(!out.status.success(), "doctored report must fail the diff");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("network"), "{stderr}");

    // A threshold that is unparsable, non-finite or negative is a usage
    // error, even on a self-compare that would otherwise pass.
    for bad in ["NaN", "inf", "abc", "-0.5"] {
        let out = stash(&["diff", json, json, "--threshold", bad]);
        assert!(!out.status.success(), "--threshold {bad} was accepted");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("--threshold wants"), "{stderr}");
    }

    // Garbage input errors out rather than panicking.
    let out = stash(&["diff", json, "/definitely/not/a/file.json"]);
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_names_get_nearest_match_suggestions() {
    let out = stash(&["profile", "ResNet-50", "p3.16xlarge"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("did you mean 'ResNet50'"),
        "no suggestion in: {stderr}"
    );

    let out = stash(&["probe", "p3.16xlage"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("did you mean 'p3.16xlarge'"),
        "no suggestion in: {stderr}"
    );

    let out = stash(&["trace", "p3.2xlarg", "resnet18"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("did you mean 'p3.2xlarge'"),
        "no suggestion in: {stderr}"
    );
}

#[test]
fn diff_rejects_corrupted_json_without_panicking() {
    let dir = std::env::temp_dir().join("stash_cli_corrupt_test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("corrupt.json");
    std::fs::write(&bad, "{\"cluster\": \"p3.2xlarge\", \"categ").unwrap();
    let out = stash(&["diff", bad.to_str().unwrap(), bad.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("invalid JSON"), "{stderr}");
    assert!(
        !stderr.contains("panicked"),
        "diff panicked on corrupt input: {stderr}"
    );

    // Structurally valid JSON that is not a report is also a clean error.
    std::fs::write(&bad, "[1, 2, 3]").unwrap();
    let out = stash(&["diff", bad.to_str().unwrap(), bad.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");

    // 30,000 nested arrays (60 KB) are refused at the nesting bound, not
    // by a stack overflow that aborts the process.
    std::fs::write(
        &bad,
        format!("{}{}", "[".repeat(30_000), "]".repeat(30_000)),
    )
    .unwrap();
    let out = stash(&["diff", bad.to_str().unwrap(), bad.to_str().unwrap()]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("invalid JSON"), "{stderr}");
    assert!(
        stderr.contains("nesting deeper than 128 levels"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_rejects_store_dirs_and_binary_records_with_typed_errors() {
    let dir = std::env::temp_dir().join("stash_cli_diff_doctored_test");
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.join("store");

    let out = stash(&[
        "sweep",
        "--models",
        "AlexNet",
        "--clusters",
        "p3.2xlarge",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A store directory is not a report file: typed error, no panic.
    let out = stash(&["diff", store.to_str().unwrap(), store.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("cannot read"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Neither is a binary record file (non-UTF8 framed bytes).
    let rec = std::fs::read_dir(store.join("records"))
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    assert!(!std::fs::read(&rec).unwrap().is_empty());
    let out = stash(&["diff", rec.to_str().unwrap(), rec.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("cannot read") || stderr.contains("invalid JSON"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dash_refuses_result_stores_and_flags_invalid_json() {
    let dir = std::env::temp_dir().join("stash_cli_dash_doctored_test");
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.join("store");

    let out = stash(&[
        "sweep",
        "--models",
        "AlexNet",
        "--clusters",
        "p3.2xlarge",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Pointing dash at a result store must refuse, not simulate into it
    // or choke on the binary records.
    let out = stash(&["dash", store.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("result store"), "{stderr}");
    assert!(stderr.contains("fsck"), "{stderr}");

    // A series directory containing broken JSON is a typed,
    // path-qualified error — never a panic or a silent skip.
    let series_dir = dir.join("series");
    std::fs::create_dir_all(&series_dir).unwrap();
    let bad = series_dir.join("broken.json");
    std::fs::write(&bad, "{\"schema\": \"stash-series-v1\", \"poi").unwrap();
    let out = stash(&["dash", series_dir.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("invalid JSON"), "{stderr}");
    assert!(stderr.contains("broken.json"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dash_skips_non_series_json_loudly() {
    let dir = std::env::temp_dir().join("stash_cli_dash_skip_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // One real series document plus one valid-but-unrelated JSON file.
    let series = dir.join("series_a.json");
    let out = stash(&[
        "chaos",
        "p3.2xlarge",
        "alexnet",
        "--seed",
        "3",
        "--series",
        series.to_str().unwrap(),
        "--out",
        dir.join("resilience.json").to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let notes = dir.join("notes.json");
    std::fs::write(&notes, "{\"reviewer\": \"pending\"}").unwrap();

    let out = stash(&["dash", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("skipped (not a series document)") && stdout.contains("notes.json"),
        "non-series JSON must be skipped with a note:\n{stdout}"
    );
    assert!(stdout.contains("loaded series"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_flag_misuse_fails_with_typed_errors() {
    // --resume without --store: there is nothing to resume from.
    let out = stash(&["sweep", "--resume"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--resume requires --store"), "{stderr}");

    // Fault injection without a store has nothing to inject into.
    let out = stash(&["sweep", "--io-fault-seed", "7"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("add --store"), "{stderr}");

    // Non-numeric seed.
    let dir = std::env::temp_dir().join("stash_cli_sweep_flags_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store");
    let out = stash(&[
        "sweep",
        "--store",
        store.to_str().unwrap(),
        "--io-fault-seed",
        "lots",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("--io-fault-seed wants an integer"),
        "{stderr}"
    );

    // A garbage fault-plan file is a typed parse error, not a panic.
    let plan = dir.join("plan.json");
    std::fs::write(&plan, "{\"faults\": [wat").unwrap();
    let out = stash(&[
        "sweep",
        "--store",
        store.to_str().unwrap(),
        "--io-fault-plan",
        plan.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("invalid I/O fault plan"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsck_and_perf_reject_doctored_paths() {
    // fsck on a path that does not exist must not create a store there.
    let ghost = std::env::temp_dir().join("stash_cli_fsck_ghost_test");
    let _ = std::fs::remove_dir_all(&ghost);
    let out = stash(&["fsck", ghost.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("not a directory"), "{stderr}");
    assert!(!ghost.exists(), "fsck must not conjure a store into being");

    // perf given a filesystem path where a cluster belongs.
    let out = stash(&["perf", "/tmp/not-a-cluster", "resnet18"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown instance"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn chaos_writes_deterministic_resilience_report() {
    let dir = std::env::temp_dir().join("stash_cli_chaos_test");
    std::fs::create_dir_all(&dir).unwrap();
    let out_a = dir.join("a.json");
    let out_b = dir.join("b.json");
    for path in [&out_a, &out_b] {
        let out = stash(&[
            "chaos",
            "p3.2xlarge",
            "alexnet",
            "--seed",
            "5",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "chaos failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("slowdown"), "{stdout}");
        assert!(stdout.contains("per-event blame"), "{stdout}");
    }
    let a = std::fs::read(&out_a).unwrap();
    let b = std::fs::read(&out_b).unwrap();
    assert_eq!(a, b, "same seed must produce byte-identical reports");

    // The report is valid JSON with the expected schema and a slowdown
    // of at least 1 (faults never speed an epoch up).
    let doc: serde_json::Value =
        serde_json::from_str(&String::from_utf8(a.clone()).unwrap()).unwrap();
    assert_eq!(doc["schema"], "stash-resilience-v1");
    assert!(doc["slowdown"].as_f64().unwrap() >= 1.0);
    assert!(doc["faulted"]["recovery_ns"].as_u64().unwrap() > 0);

    // A corrupted plan file is a clean non-zero exit.
    let bad_plan = dir.join("plan.json");
    std::fs::write(&bad_plan, "{\"events\": [tru").unwrap();
    let out = stash(&[
        "chaos",
        "p3.2xlarge",
        "alexnet",
        "--plan",
        bad_plan.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");

    // A plan that does not fit the cluster is rejected with the typed
    // validation error.
    std::fs::write(
        &bad_plan,
        "{\"events\":[{\"at\":0,\"kind\":{\"StragglerWindow\":{\"rank\":99,\"duration\":1000,\"slowdown\":1.5}}}],\"recovery\":{\"checkpoint_every\":4,\"straggler_timeout\":20000000,\"straggler_backoff\":2.0,\"reform_delay\":500000000}}",
    )
    .unwrap();
    let out = stash(&[
        "chaos",
        "p3.2xlarge",
        "alexnet",
        "--plan",
        bad_plan.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("does not fit"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_error_paths_exit_with_their_messages() {
    let usage_rows: [(&str, &str); 10] = [
        (
            "profile",
            "usage: stash profile <model> <cluster> [-b batch]\n",
        ),
        (
            "advise",
            "usage: stash advise <model> [-b batch] [--cost|--time]\n",
        ),
        ("probe", "usage: stash probe <instance>\n"),
        (
            "trace",
            "usage: stash trace <instance> <model> [--out PATH] [-b batch]\n",
        ),
        (
            "report",
            "usage: stash report <instance> <model> [--out PATH] [-b batch]\n",
        ),
        (
            "diff",
            "usage: stash diff <baseline.json> <current.json> [--threshold FRAC]\n",
        ),
        (
            "chaos",
            "usage: stash chaos <instance> <model> [--seed N] [--plan FILE] [--out PATH] \
             [--flight PATH] [--series PATH] [-b batch]\n",
        ),
        (
            "perf",
            "usage: stash perf <cluster|sweep> <model> [-b batch] [--out BASE] [--format csv]\n",
        ),
        ("dash", "usage: stash dash <results-dir> [--out PATH]\n"),
        ("fsck", "usage: stash fsck <store-dir> [--repair]\n"),
    ];
    let mut rows: Vec<(Vec<&str>, i32, &str)> = usage_rows
        .iter()
        .map(|&(cmd, usage)| (vec![cmd], 1, usage))
        .collect();
    rows.extend([
        (
            vec!["perf", "p3.2xlarge", "shufflenet", "--format", "xml"],
            1,
            "--format expects 'csv' or 'table', got 'xml'",
        ),
        (
            vec!["chaos", "p3.2xlarge", "alexnet", "--seed", "abc"],
            1,
            "--seed expects an unsigned integer, got 'abc'",
        ),
        (
            vec!["sweep", "--iters", "0"],
            1,
            "--iters wants a positive integer, got '0'",
        ),
        (
            vec!["sweep", "--retries", "0"],
            1,
            "--retries wants a positive integer, got '0'",
        ),
        (
            vec!["sweep", "--deadline-secs", "0"],
            1,
            "--deadline-secs wants a positive integer, got '0'",
        ),
        (
            vec!["sweep", "--io-fault-plan", "F", "--io-fault-seed", "1"],
            1,
            "--io-fault-plan and --io-fault-seed are mutually exclusive",
        ),
        (
            vec!["sweep", "--clusters", ","],
            1,
            "empty --clusters/--models list",
        ),
        // A replica count is bounded before any instance is cloned.
        (
            vec!["profile", "resnet18", "p3.2xlarge*1000000000"],
            1,
            "replica count 1000000000 in 'p3.2xlarge*1000000000' is above the limit of 1024",
        ),
        (
            vec!["sweep", "--clusters", "p3.2xlarge*1025"],
            1,
            "is above the limit of 1024 instances",
        ),
        // A flag with its value missing, or misspelt, is a usage error,
        // never a run without it.
        (
            vec!["sweep", "--store", "st", "--io-fault-seed"],
            1,
            "--io-fault-seed needs a value",
        ),
        (vec!["sweep", "--stor", "st"], 1, "unknown flag '--stor'"),
        (
            vec!["sweep", "--store", "--resume"],
            1,
            "--store needs a value",
        ),
        (
            vec!["chaos", "p3.2xlarge", "alexnet", "--plan"],
            1,
            "--plan needs a value",
        ),
        (
            vec!["trace", "p3.2xlarge", "resnet18", "--out"],
            1,
            "--out needs a value",
        ),
    ]);

    for (i, (args, code, fragment)) in rows.iter().enumerate() {
        // A fresh working directory per row: a flag value mistaken for a
        // path must not leak between rows (or into the repository).
        let dir = std::env::temp_dir().join(format!("stash_cli_err_{}_{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_stash"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run stash binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(*code), "stash {args:?}: {stderr}");
        assert!(
            stderr.contains(fragment),
            "stash {args:?}: want {fragment:?} in {stderr:?}"
        );
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(
            left.is_empty(),
            "stash {args:?} left files behind: {left:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
