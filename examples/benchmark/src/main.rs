//! The Stash benchmark: end-to-end host cost of the simulator on four
//! seeded workloads, and a traced run that splits it by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path examples/benchmark/Cargo.toml -- \
//!     [--workload grid|profile|store|chaos] [--seed N] [--seconds S]
//!     [--trace [0|1]] [--smoke] [--repeat N]
//! ```
//!
//! Each workload runs in a child process of its own, with
//! `STASH_FAST_FORWARD` removed from its environment and
//! `STASH_BENCH_THREADS` set to `min(2, nproc)`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics, or per-layer metrics with `--trace`).
//! Results go to `target/benchmark/results.json`, spans of traced runs to
//! `target/benchmark/trace.<workload>.json`.

mod check;
mod inputs;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use serde_json::{Map, Value};
use stash::telemetry::snapshot::Snapshot;

use crate::layers::Metric;
use crate::workloads::{Budget, Workload, NAMES};

/// Set-ups per run, at most; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: u64,
    child: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        repeat: 1,
        child: false,
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}' (one of {NAMES:?})"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--trace" => {
                // `--trace` alone, or `--trace 0|1` as the driver passes it.
                args.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--smoke" => args.smoke = true,
            "--child" => args.child = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.child && args.workload.is_none() {
        return Err("--child needs --workload".into());
    }
    Ok(args)
}

/// `target/benchmark` of the checkout this benchmark was built in.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/benchmark")
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        child(&args)
    } else {
        parent(&args)
    }
}

// ------------------------------------------------------------- child

/// The peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(name: &'static str, unit: &'static str, value: f64, n: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        n: Some(n as u64),
    }
}

/// The end-to-end metrics of an untraced leg, each a median over rounds,
/// plus a note on the latency of all requests pooled.
fn end_to_end(
    leg: &workloads::Leg,
    setup_s: &[f64],
    rss: f64,
) -> (Vec<Metric>, Vec<String>, Value) {
    let rates: Vec<f64> = leg
        .throughput
        .iter()
        .map(|&(cells, wall)| cells as f64 / wall.as_secs_f64().max(1e-9))
        .collect();
    let per_round =
        |stat: fn(&[f64]) -> f64| -> Vec<f64> { leg.latency.iter().map(|r| stat(r)).collect() };
    let p50 = per_round(stats::median);
    let p90 = per_round(|r| stats::percentile(r, 90.0));
    let pooled: Vec<f64> = leg.latency.concat();
    let metrics = vec![
        metric("setup_s", "s", stats::median(setup_s), setup_s.len()),
        metric("cells_per_s", "cells/s", stats::median(&rates), rates.len()),
        metric("latency_p50_ms", "ms", stats::median(&p50), p50.len()),
        metric("latency_p90_ms", "ms", stats::median(&p90), p90.len()),
        metric("peak_rss_mb", "MB", rss, 1),
    ];
    let notes = vec![
        format!("{} cells in {} throughput rounds", leg.cells, rates.len()),
        format!("all requests pooled: {}", stats::describe(&pooled, "ms")),
    ];
    let mut rounds = Map::new();
    for (key, values) in [("cells_per_s", &rates), ("p50_ms", &p50), ("p90_ms", &p90)] {
        rounds.insert(key.into(), serde_json::json!(values.clone()));
    }
    (metrics, notes, Value::Object(rounds))
}

/// Runs one workload and prints its result as a JSON line.
fn child(args: &Args) -> ExitCode {
    let name = args.workload.as_deref().unwrap_or_default();
    let tmp = out_dir().join("tmp").join(std::process::id().to_string());
    let setup = || workloads::setup(name, args.seed, args.smoke, &tmp);

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let t0 = Instant::now();
    let Some(mut workload) = setup() else {
        eprintln!("benchmark: unknown workload '{name}'");
        return ExitCode::from(2);
    };
    setup_s.push(t0.elapsed().as_secs_f64());

    let seconds = if args.smoke { 0.0 } else { args.seconds };
    let (mut leg, metrics, notes, rounds) = if args.trace {
        let (leg, metrics, notes) = traced(args, name, workload, seconds, &setup);
        (leg, metrics, notes, Value::Null)
    } else {
        // The other set-ups run between rounds: a child's first
        // milliseconds land on a fast or a slow host state at random, and
        // spreading the repeats over the run lets their median see the host
        // as the rounds do.
        let mut again = || {
            if setup_s.len() < SETUP_REPEATS {
                let t0 = Instant::now();
                drop(setup());
                setup_s.push(t0.elapsed().as_secs_f64());
            }
        };
        let budget = Budget::time(Duration::from_secs_f64(seconds), &mut again);
        let mut leg = workload.run(budget, None);
        let rss = peak_rss_mb();
        workload.verify(&mut leg);
        let (metrics, notes, rounds) = end_to_end(&leg, &setup_s, rss);
        (leg, metrics, notes, rounds)
    };
    leg.checks.golden(args.smoke, args.seed, name, &leg.digest);
    for f in &leg.checks.failures {
        eprintln!("benchmark: {name}: FAILED {f}");
    }

    let failed = leg.failed_cells + leg.checks.failures.len() as u64;
    let mut doc = Map::new();
    doc.insert("workload".into(), Value::String(name.into()));
    doc.insert("seed".into(), serde_json::json!(args.seed));
    doc.insert("trace".into(), Value::Bool(args.trace));
    doc.insert("correct".into(), Value::Bool(failed == 0));
    doc.insert("attempted".into(), serde_json::json!(leg.attempted.max(1)));
    doc.insert("failed".into(), serde_json::json!(failed));
    doc.insert("digest".into(), Value::String(leg.digest.hex()));
    doc.insert(
        "notes".into(),
        Value::Array(notes.into_iter().map(Value::String).collect()),
    );
    let rows = metrics
        .iter()
        .map(|m| {
            let mut o = Map::new();
            o.insert("name".into(), Value::String(m.name.into()));
            o.insert("value".into(), serde_json::json!(m.value));
            o.insert("unit".into(), Value::String(m.unit.into()));
            if let Some(n) = m.n {
                o.insert("n".into(), serde_json::json!(n));
            }
            Value::Object(o)
        })
        .collect();
    doc.insert("metrics".into(), Value::Array(rows));
    doc.insert("rounds".into(), rounds);
    println!(
        "{}",
        serde_json::to_string(&Value::Object(doc)).unwrap_or_default()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// An untraced leg, then the same requests traced with the telemetry
/// registry on; per-layer metrics come from the traced leg.
fn traced(
    args: &Args,
    name: &str,
    mut untraced: Box<dyn Workload>,
    seconds: f64,
    setup: &dyn Fn() -> Option<Box<dyn Workload>>,
) -> (workloads::Leg, Vec<Metric>, Vec<String>) {
    let rounds = if args.smoke {
        1
    } else {
        untraced.trace_rounds(seconds)
    };
    let plain = untraced.run(Budget::rounds(rounds), None);
    drop(untraced);

    let Some(mut workload) = setup() else {
        unreachable!("the workload was set up before")
    };
    let tracer = trace::Tracer::new();
    stash::telemetry::enable();
    let before = Snapshot::take();
    let mut leg = workload.run(Budget::rounds(rounds), Some(&tracer));
    let traced_wall = tracer.elapsed();
    let delta = Snapshot::take().since(&before);
    stash::telemetry::disable();
    workload.verify(&mut leg);

    let spans = tracer.spans();
    let metrics = layers::metrics(&leg, &spans, &delta, traced_wall, plain.wall);
    let table = layers::span_table(&spans, traced_wall);
    eprintln!(
        "trace {name} (seed {}, {rounds} rounds): traced {:.1} ms, untraced {:.1} ms\n{table}",
        args.seed,
        traced_wall.as_secs_f64() * 1e3,
        plain.wall.as_secs_f64() * 1e3,
    );
    let path = out_dir().join(format!("trace.{name}.json"));
    let doc = trace::to_json(name, args.seed, &spans);
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, serde_json::to_string(&doc).unwrap_or_default()));
    if let Err(e) = written {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
    }
    (leg, metrics, vec![format!("{} spans", spans.len())])
}

// ------------------------------------------------------------ parent

/// A child's result, as parsed from its JSON line.
#[derive(Debug, Clone)]
struct Run {
    workload: String,
    seed: u64,
    correct: bool,
    attempted: u64,
    failed: u64,
    doc: Value,
}

impl Run {
    fn metrics(&self) -> Vec<(String, f64, String, Option<u64>)> {
        let rows = self.doc.get("metrics").and_then(Value::as_array);
        rows.into_iter()
            .flatten()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("value")?.as_f64()?,
                    m.get("unit")?.as_str()?.to_string(),
                    m.get("n").and_then(Value::as_u64),
                ))
            })
            .collect()
    }
}

fn run_child(args: &Args, name: &str, seed: u64, threads: usize) -> Run {
    let failed_run = |why: String| {
        eprintln!("benchmark: {name} (seed {seed}): {why}");
        Run {
            workload: name.to_string(),
            seed,
            correct: false,
            attempted: 1,
            failed: 1,
            doc: Value::Null,
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return failed_run(format!("cannot locate the benchmark binary: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .env_remove("STASH_FAST_FORWARD")
        .env("STASH_BENCH_THREADS", threads.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return failed_run(format!("cannot start: {e}")),
    };
    let pid = child.id();
    let output = child.wait_with_output();
    let _ = std::fs::remove_dir_all(out_dir().join("tmp").join(pid.to_string()));
    let output = match output {
        Ok(o) => o,
        Err(e) => return failed_run(format!("lost the child process: {e}")),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let Some(doc) = last.and_then(|l| serde_json::from_str::<Value>(l).ok()) else {
        return failed_run(format!("no result ({})", output.status));
    };
    let count = |key: &str| doc.get(key).and_then(Value::as_u64).unwrap_or(0);
    Run {
        workload: name.to_string(),
        seed,
        correct: doc.get("correct").and_then(Value::as_bool) == Some(true)
            && output.status.success(),
        attempted: count("attempted").max(1),
        failed: count("failed"),
        doc,
    }
}

/// Up to four significant digits, never in exponent form.
fn fmt_value(v: f64) -> String {
    let digits = if v == 0.0 {
        0
    } else {
        (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize
    };
    format!("{v:.digits$}")
}

fn print_run(run: &Run, trace: bool) {
    let mode = if trace { "traced" } else { "untraced" };
    println!("== {} · seed {} · {mode} ==", run.workload, run.seed);
    for (name, value, unit, n) in run.metrics() {
        let n = n.map_or_else(String::new, |n| format!("n={n}"));
        println!("  {name:<26} {:>14} {unit:<8} {n}", fmt_value(value));
    }
    let notes = run.doc.get("notes").and_then(Value::as_array);
    for note in notes.into_iter().flatten().filter_map(Value::as_str) {
        println!("  {note}");
    }
    println!(
        "  {:<26} {:>14} {:<8} {} failed of {} attempted",
        "error_rate",
        fmt_value(run.failed as f64 / run.attempted as f64),
        "ratio",
        run.failed,
        run.attempted
    );
    if let Some(d) = run.doc.get("digest").and_then(Value::as_str) {
        println!("  {:<26} {d}", "result digest");
    }
}

/// Median and spread of every metric over repeated runs, per workload.
fn print_repeats(runs: &[Run]) -> Map<String, Value> {
    let mut medians = Map::new();
    println!("== repeats: median [q1, q3] and IQR/median per metric ==");
    for name in NAMES {
        let mine: Vec<&Run> = runs.iter().filter(|r| r.workload == name).collect();
        let Some(first) = mine.first() else { continue };
        println!("  {name} ({} runs)", mine.len());
        for (metric, _, unit, _) in first.metrics() {
            let values: Vec<f64> = mine
                .iter()
                .filter_map(|r| r.metrics().into_iter().find(|m| m.0 == metric))
                .map(|m| m.1)
                .collect();
            let (q1, q2, q3) = stats::quartiles(&values);
            println!(
                "    {metric:<26} {:>12} {unit:<8} [{}, {}] iqr/median {:.4}",
                fmt_value(q2),
                fmt_value(q1),
                fmt_value(q3),
                stats::relative_iqr(&values)
            );
            medians.insert(format!("{name}.{metric}"), value_unit(q2, &unit));
        }
    }
    medians
}

fn value_unit(value: f64, unit: &str) -> Value {
    let mut o = Map::new();
    o.insert("value".into(), serde_json::json!(value));
    o.insert("unit".into(), Value::String(unit.into()));
    Value::Object(o)
}

/// Runs the selected workloads, each in its own child process.
fn parent(args: &Args) -> ExitCode {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => NAMES.to_vec(),
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let mut runs = Vec::new();
    for rep in 0..args.repeat {
        for name in &names {
            let run = run_child(args, name, args.seed.wrapping_add(rep), threads);
            print_run(&run, args.trace);
            runs.push(run);
        }
    }

    let metrics = if args.repeat > 1 {
        print_repeats(&runs)
    } else {
        let single = runs.len() == 1;
        let mut m = Map::new();
        for run in &runs {
            for (name, value, unit, _) in run.metrics() {
                let key = if single {
                    name
                } else {
                    format!("{}.{name}", run.workload)
                };
                m.insert(key, value_unit(value, &unit));
            }
        }
        m
    };
    let correct = runs.iter().all(|r| r.correct);
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();

    let mut results = Map::new();
    results.insert(
        "schema".into(),
        Value::String("stash-benchmark-results-v1".into()),
    );
    results.insert(
        "runs".into(),
        Value::Array(runs.iter().map(|r| r.doc.clone()).collect()),
    );
    let path = out_dir().join("results.json");
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| {
        let text = serde_json::to_string_pretty(&Value::Object(results)).unwrap_or_default();
        std::fs::write(&path, text)
    });
    if let Err(e) = written {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
    }
    let _ = std::fs::remove_dir(out_dir().join("tmp"));

    let mut line = Map::new();
    line.insert("correct".into(), Value::Bool(correct));
    line.insert("attempted".into(), serde_json::json!(attempted));
    line.insert("failed".into(), serde_json::json!(failed));
    line.insert("metrics".into(), Value::Object(metrics));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(line)).unwrap_or_default()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload store --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload.as_deref(), Some("store"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(!args("--trace 0").expect("valid").trace);
        assert!(args("--trace --smoke").expect("valid").trace);
        assert!(args("--workload nope").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--repeat 0").is_err());
        assert!(args("--bogus").is_err());
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let doc: Value =
            serde_json::from_str(include_str!("../../../BENCHMARK.json")).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .into_iter()
                .flatten()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let layer: Vec<(String, String)> = layers::metrics(
            &workloads::Leg::default(),
            &[],
            &Snapshot::zero(),
            Duration::from_secs(1),
            Duration::from_secs(1),
        )
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
        assert_eq!(listed("per_layer"), layer);
        let e2e: Vec<(String, String)> = [
            ("setup_s", "s"),
            ("cells_per_s", "cells/s"),
            ("latency_p50_ms", "ms"),
            ("latency_p90_ms", "ms"),
            ("peak_rss_mb", "MB"),
        ]
        .iter()
        .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
        .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let workloads: Vec<String> = listed("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, NAMES.to_vec());
    }
}
