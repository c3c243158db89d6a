//! End-to-end tests of `stash perf`, the telemetry mode of `stash diff`,
//! and the `stash chaos --flight` recorder, driving the compiled binary.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Command;

use serde_json::{Map, Number, Value};

fn stash(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_stash"))
        .args(args)
        .output()
        .expect("run stash binary")
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(name)
        .to_str()
        .expect("utf-8 temp path")
        .to_string()
}

fn read_json(path: &str) -> Value {
    let text = std::fs::read_to_string(path).expect("read artifact");
    serde_json::from_str(&text).expect("parse artifact")
}

/// `doc` with the value at `path` replaced by `v`. The vendored `Value`
/// has no `IndexMut`; `Map::insert` replaces in place, preserving key
/// order, so only the one cell differs from `doc`.
fn with(doc: &Value, path: &[&str], v: Value) -> Value {
    match path.split_first() {
        None => v,
        Some((key, rest)) => {
            let mut m = doc.as_object().cloned().unwrap_or_default();
            m.insert(
                (*key).to_string(),
                with(doc.get(key).unwrap_or(&Value::Null), rest, v),
            );
            Value::Object(m)
        }
    }
}

/// One `stash perf` instance run; returns the parsed JSON document.
fn run_perf(base: &str) -> Value {
    let _ = std::fs::remove_file(format!("{base}.json"));
    let _ = std::fs::remove_file(format!("{base}.prom"));
    let out = stash(&["perf", "p3.2xlarge", "shufflenet", "--out", base]);
    assert!(
        out.status.success(),
        "perf failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        stdout.contains("prom validated"),
        "missing marker:\n{stdout}"
    );
    read_json(&format!("{base}.json"))
}

#[test]
fn perf_emits_schema_complete_deterministic_telemetry() {
    let base = tmp("stash_perf_cli_a");
    let doc = run_perf(&base);

    assert_eq!(doc["schema"].as_str(), Some("stash-telemetry-v1"));
    assert_eq!(doc["scope"].as_str(), Some("instance"));
    // The acceptance-critical families, all populated by a real profile.
    for counter in [
        "stash_sim_queue_events_pushed_total",
        "stash_sim_queue_events_popped_total",
        "stash_sim_ff_iterations_total",
        "stash_cache_misses_total",
    ] {
        assert!(
            doc["counters"][counter].as_u64().unwrap_or(0) > 0,
            "{counter} not populated"
        );
    }
    assert!(doc["counters"]["stash_sim_queue_events_cancelled_total"].is_number());
    assert!(doc["counters"]["stash_cache_hits_total"].is_number());
    let solver = &doc["histograms"]["stash_sim_solver_recompute_latency_ns"];
    assert!(solver["count"].as_u64().unwrap_or(0) > 0);
    assert!(solver["p99"].as_u64().is_some());
    assert!(solver["buckets"].as_array().is_some_and(|b| !b.is_empty()));

    // The exposition twin must satisfy the strict validator.
    let prom = std::fs::read_to_string(format!("{base}.prom")).expect("read prom");
    stash::telemetry::prom::validate(&prom).expect("prom artifact validates");
    assert!(prom.contains("stash_sim_solver_recompute_latency_ns_bucket"));

    // The simulation-derived sections are deterministic run to run
    // (histograms measuring host wall-clock are exempt by nature).
    let again = run_perf(&tmp("stash_perf_cli_b"));
    assert_eq!(doc["counters"], again["counters"], "counters drifted");
    assert_eq!(doc["gauges"], again["gauges"], "gauges drifted");
    assert_eq!(
        doc["histograms"]["stash_data_fetch_service_ns"],
        again["histograms"]["stash_data_fetch_service_ns"],
        "sim-time histogram drifted"
    );
}

#[test]
fn diff_gates_on_simulator_health() {
    let base = tmp("stash_perf_diff_base");
    let doc = run_perf(&base);
    let base_json = format!("{base}.json");

    // Self-diff is clean.
    let out = stash(&["diff", &base_json, &base_json]);
    assert!(
        out.status.success(),
        "self-diff failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(stdout.contains("no simulator-health regressions"));
    assert!(stdout.contains("solver recompute p99"));

    // A doctored solver p99 fails with a non-zero exit.
    let hist_name = "stash_sim_solver_recompute_latency_ns";
    let bad = with(
        &doc,
        &["histograms", hist_name, "p99"],
        Value::Number(Number::U(10_000_000_000)),
    );
    let bad_path = tmp("stash_perf_diff_bad.json");
    std::fs::write(&bad_path, serde_json::to_string_pretty(&bad).expect("ser"))
        .expect("write doctored doc");
    let out = stash(&["diff", &base_json, &bad_path]);
    assert!(!out.status.success(), "doctored p99 regression not caught");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("solver recompute p99"),
        "wrong failure:\n{stderr}"
    );

    // So does a document the gates cannot read, naming the field: a null
    // p99, a negative counter, no histograms at all.
    let p99 = "histograms.stash_sim_solver_recompute_latency_ns.p99";
    let popped = "stash_sim_queue_events_popped_total";
    let unreadable = [
        (
            with(&doc, &["histograms", hist_name, "p99"], Value::Null),
            p99,
        ),
        (
            with(&doc, &["counters", popped], Value::Number(Number::I(-1))),
            "counters.stash_sim_queue_events_popped_total",
        ),
        (with(&doc, &["histograms"], Value::Object(Map::new())), p99),
    ];
    for (i, (bad, field)) in unreadable.iter().enumerate() {
        let bad_path = tmp(&format!("stash_perf_diff_unreadable_{i}.json"));
        std::fs::write(&bad_path, serde_json::to_string_pretty(bad).expect("ser"))
            .expect("write unreadable doc");
        let out = stash(&["diff", &base_json, &bad_path]);
        assert!(!out.status.success(), "unreadable {field} passed the gate");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(stderr.contains(field), "wrong failure:\n{stderr}");
    }

    // Mixing a telemetry doc with a stall report is an error, not a pass.
    let other_path = tmp("stash_perf_diff_other.json");
    std::fs::write(&other_path, r#"{"schema":"stash-insight-v1"}"#).expect("write other doc");
    let out = stash(&["diff", &base_json, &other_path]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("cannot diff"), "wrong failure:\n{stderr}");
}

#[test]
fn chaos_flight_recorder_dumps_deterministic_json_on_typed_error() {
    let plan_path = tmp("stash_flight_bad_plan.json");
    std::fs::write(&plan_path, "{ not a fault plan").expect("write bad plan");

    let run = |flight: &str| {
        let _ = std::fs::remove_file(flight);
        let out = stash(&[
            "chaos",
            "p3.2xlarge",
            "shufflenet",
            "--plan",
            &plan_path,
            "--flight",
            flight,
        ]);
        assert!(!out.status.success(), "bad plan must fail the run");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(
            stderr.contains("flight recording written to"),
            "no dump notice:\n{stderr}"
        );
        std::fs::read_to_string(flight).expect("flight dump exists")
    };

    let dump = run(&tmp("stash_flight_a.json"));
    let doc: Value = serde_json::from_str(&dump).expect("dump is valid JSON");
    assert_eq!(doc["schema"].as_str(), Some("stash-flight-v1"));
    let events = doc["events"].as_array().expect("events array");
    assert!(
        !events.is_empty(),
        "baseline epoch must have recorded engine events"
    );
    for ev in events {
        assert!(ev["seq"].is_number());
        assert!(ev["t_ns"].is_number());
        assert!(ev["event"].is_string());
    }
    // Sequence numbers are contiguous oldest-first; the ring dropped the
    // run's earlier events once past capacity.
    let seqs: Vec<u64> = events
        .iter()
        .map(|e| e["seq"].as_u64().unwrap_or(0))
        .collect();
    assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "seqs: {seqs:?}");
    assert_eq!(
        doc["recorded"].as_u64().unwrap_or(0) - events.len() as u64,
        doc["dropped"].as_u64().unwrap_or(0)
    );

    // The simulation is deterministic, so the dump is byte-identical
    // across identical failing runs.
    assert_eq!(run(&tmp("stash_flight_b.json")), dump);
}
