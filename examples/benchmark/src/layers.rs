//! Per-layer metrics of a traced leg, from three sources: the spans the
//! benchmark recorded around its calls (including every store operation),
//! the `stash_telemetry` registry delta over the leg, and the inputs.
//!
//! Every metric is reported on every workload; a layer a workload does not
//! exercise reads 0. Layer times that some workload never spends are given
//! as shares of the traced wall time, so no metric is a time that always
//! reads 0.

use std::collections::BTreeMap;
use std::time::Duration;

use stash::telemetry::snapshot::{HistSnapshot, Snapshot};

use crate::trace::Span;
use crate::workloads::Leg;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value, when it summarizes several.
    pub n: Option<u64>,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Span totals by name: (count, ns, bytes).
fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.0 += 1;
        t.1 += s.ns();
        t.2 += s.bytes;
    }
    out
}

/// The traced leg's per-layer metrics, in `BENCHMARK.json` order.
pub fn metrics(
    leg: &Leg,
    spans: &[Span],
    delta: &Snapshot,
    traced: Duration,
    untraced: Duration,
) -> Vec<Metric> {
    let c = |name: &str| delta.counter(name) as f64;
    let hist = |name: &str| {
        delta
            .histogram(name)
            .cloned()
            .unwrap_or(HistSnapshot::empty())
    };
    let by_name = totals(spans);
    let span = |name: &str| by_name.get(name).copied().unwrap_or_default();
    let span_ns = |names: &[&str]| names.iter().map(|n| span(n).1 as f64).sum::<f64>();
    let wall_ns = traced.as_nanos() as f64;

    let hits = c("stash_cache_hits_total");
    let misses = c("stash_cache_misses_total");
    let step = hist("stash_profile_step_wall_ns");
    let events = c("stash_sim_queue_events_popped_total");
    let full = c("stash_sim_solver_full_recomputes_total");
    let shortcuts = c("stash_sim_solver_shortcut_events_total");
    let solve = hist("stash_sim_solver_recompute_latency_ns");
    // Engine time: profiler steps (timed by the profiler itself) plus the
    // benchmark's own spans around direct engine calls.
    let engine_ns = step.sum as f64 + span_ns(&["ddl.baseline", "ddl.faulted"]);
    let profiler_calls_ns = span_ns(&["grid.pass", "profile.call", "core.run_sweep"]);

    // The sweep runner's self time: its spans minus the store operations
    // they issued, minus the profile steps they ran (every step of the
    // `store` workload runs inside a sweep; no other workload sweeps).
    let sweeps: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "core.run_sweep")
        .collect();
    let io_in_sweeps: u64 = spans
        .iter()
        .filter(|s| s.name.starts_with("io.") && s.parent.is_some_and(|p| sweeps.contains(&p)))
        .map(Span::ns)
        .sum();
    let sweep_self_ns = if sweeps.is_empty() {
        0.0
    } else {
        span_ns(&["core.run_sweep"]) - io_in_sweeps as f64 - step.sum as f64
    };
    let top_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::ns)
        .sum();
    let io = |name: &str| (span(name).0 as f64, ratio(span(name).1 as f64, wall_ns));

    let (writes, write_share) = io("io.write");
    let (appends, append_share) = io("io.append");
    let (reads, read_share) = io("io.read");
    let fetches = hist("stash_data_fetch_service_ns").count as f64;
    let preps = hist("stash_data_prep_service_ns").count as f64;
    let cells = leg.cells as f64;

    let rows: [(&'static str, &'static str, f64); 40] = [
        ("core.cells", "count", cells),
        ("core.cache.hit_ratio", "ratio", ratio(hits, hits + misses)),
        ("core.cache.misses", "count", misses),
        ("core.step.count", "count", step.count as f64),
        (
            "core.profile.overlap",
            "ratio",
            ratio(step.sum as f64, profiler_calls_ns),
        ),
        (
            "core.sweep.self_share",
            "ratio",
            ratio(sweep_self_ns, wall_ns),
        ),
        ("ddl.epochs", "count", c("stash_sim_epochs_total")),
        (
            "ddl.ff.iterations",
            "count",
            c("stash_sim_ff_iterations_total"),
        ),
        (
            "ddl.ff.ratio",
            "ratio",
            ratio(
                c("stash_sim_ff_iterations_total"),
                leg.requested_iterations as f64,
            ),
        ),
        ("ddl.epoch.busy_ms", "ms", engine_ns / 1e6),
        ("ddl.host_ns_per_event", "ns", ratio(engine_ns, events)),
        (
            "ddl.fault_branches",
            "count",
            c("stash_sim_fault_branches_total"),
        ),
        ("simkit.events", "count", events),
        ("simkit.events_per_cell", "count", ratio(events, cells)),
        (
            "simkit.cancel_ratio",
            "ratio",
            ratio(
                c("stash_sim_queue_events_cancelled_total"),
                c("stash_sim_queue_events_pushed_total"),
            ),
        ),
        (
            "simkit.depth_hw",
            "count",
            delta.gauge("stash_sim_queue_depth_high_water") as f64,
        ),
        ("flowsim.full_solves", "count", full),
        ("flowsim.shortcuts", "count", shortcuts),
        (
            "flowsim.shortcut_ratio",
            "ratio",
            ratio(shortcuts, shortcuts + full),
        ),
        ("flowsim.solve_ms", "ms", solve.sum as f64 / 1e6),
        (
            "flowsim.solve_share",
            "ratio",
            ratio(solve.sum as f64, engine_ns),
        ),
        (
            "flowsim.rounds_per_solve",
            "count",
            ratio(c("stash_sim_solver_rounds_total"), full),
        ),
        (
            "flowsim.flows_hw",
            "count",
            delta.gauge("stash_sim_flows_active_high_water") as f64,
        ),
        ("datapipe.fetches", "count", fetches),
        ("datapipe.preps", "count", preps),
        ("store.write.count", "count", writes),
        ("store.write.share", "ratio", write_share),
        ("store.append.count", "count", appends),
        ("store.append.share", "ratio", append_share),
        ("store.read.count", "count", reads),
        ("store.read.share", "ratio", read_share),
        ("store.other.share", "ratio", io("io.other").1),
        (
            "store.bytes_written",
            "B",
            (span("io.write").2 + span("io.append").2) as f64,
        ),
        ("store.bytes_read", "B", span("io.read").2 as f64),
        ("store.hits", "count", c("stash_store_hits_total")),
        ("store.misses", "count", c("stash_store_misses_total")),
        ("store.retries", "count", c("stash_store_retries_total")),
        (
            "store.quarantined",
            "count",
            c("stash_store_quarantined_total"),
        ),
        ("bench.residual_ms", "ms", (wall_ns - top_ns as f64) / 1e6),
        (
            "bench.trace_overhead",
            "ratio",
            ratio(traced.as_secs_f64(), untraced.as_secs_f64()) - 1.0,
        ),
    ];
    rows.into_iter()
        .map(|(name, unit, value)| Metric {
            name,
            unit,
            value,
            n: None,
        })
        .collect()
}

/// The traced wall split by span name: count, total and self time (total
/// minus direct children), top-level spans first. Top-level totals plus
/// the residual add up to the traced wall.
pub fn span_table(spans: &[Span], traced: Duration) -> String {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    // name -> (top level, count, total ns, self ns)
    let mut rows: BTreeMap<(bool, &'static str), (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let row = rows.entry((s.parent.is_some(), s.name)).or_default();
        row.0 += 1;
        row.1 += s.ns();
        row.2 += s.ns().saturating_sub(child_ns[i]);
    }
    let wall_ms = traced.as_secs_f64() * 1e3;
    let mut out = format!(
        "  {:<16} {:>8} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms"
    );
    let mut top_ms = 0.0;
    for ((nested, name), (count, total, self_ns)) in &rows {
        let total_ms = *total as f64 / 1e6;
        if !nested {
            top_ms += total_ms;
        }
        let label = if *nested {
            format!("  {name}")
        } else {
            (*name).to_string()
        };
        out += &format!(
            "  {label:<16} {count:>8} {total_ms:>12.3} {:>12.3}\n",
            *self_ns as f64 / 1e6
        );
    }
    out += &format!(
        "  {:<16} {:>8} {:>12.3}\n",
        "(residual)",
        "",
        wall_ms - top_ms
    );
    out += &format!("  {:<16} {:>8} {:>12.3}\n", "= traced wall", "", wall_ms);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: None,
            bytes: 0,
        }
    }

    #[test]
    fn sweep_self_time_excludes_store_io_and_steps() {
        let spans = vec![
            span("store.cold", 0, 1_000, None),
            span("core.run_sweep", 10, 900, Some(0)),
            span("io.append", 20, 120, Some(1)),
            span("io.write", 200, 300, Some(1)),
        ];
        let m = metrics(
            &Leg::default(),
            &spans,
            &Snapshot::zero(),
            Duration::from_nanos(1_100),
            Duration::from_nanos(1_000),
        );
        let get = |n: &str| m.iter().find(|x| x.name == n).map(|x| x.value);
        let self_ns = 890.0 - 200.0;
        assert_eq!(get("core.sweep.self_share"), Some(self_ns / 1_100.0));
        assert_eq!(get("store.append.count"), Some(1.0));
        assert_eq!(get("bench.residual_ms"), Some(100.0 / 1e6));
        assert!((get("bench.trace_overhead").unwrap_or(0.0) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn span_table_top_level_plus_residual_is_the_wall() {
        let spans = vec![
            span("grid.pass", 0, 4_000_000, None),
            span("grid.pass", 5_000_000, 9_000_000, None),
        ];
        let table = span_table(&spans, Duration::from_millis(10));
        assert!(table.contains("grid.pass"), "{table}");
        assert!(table.contains("8.000"), "{table}");
        assert!(table.contains("2.000"), "{table}");
        assert!(table.contains("10.000"), "{table}");
    }
}
