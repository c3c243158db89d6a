//! Perf regression gating over `stash-telemetry-v1` documents.
//!
//! `stash diff` already fails CI when *workload* stalls regress; this
//! module gives simulator-health metrics the same teeth. Two telemetry
//! snapshots (baseline, current) are compared on ratio-plus-floor
//! thresholds — the floor absorbs bucket quantization and tiny-run
//! noise, the ratio catches the real walls:
//!
//! * **solver p99** — the recompute-latency histogram tracks the
//!   max-min solver's scaling wall from any profile or sweep (the
//!   repository benchmark's traced mode reports the same solver's share
//!   of host time per workload).
//! * **events per epoch** — queue traffic per simulated epoch; growth
//!   means the engine started scheduling redundant work.
//! * **full solver recomputes per epoch** — shortcut coverage decay;
//!   growth means flow events stopped being absorbed cheaply.
//!
//! Every field a gate reads must be present and a u64: a document that
//! cannot be read is an error naming the field's JSON path, never a pass.

use serde_json::Value;

/// Solver p99 may grow this much (ratio) before failing...
pub const SOLVER_P99_RATIO: f64 = 1.5;
/// ...but never fails below this absolute growth (ns) — absorbs log2
/// bucket quantization (adjacent bucket bounds differ by 2x).
pub const SOLVER_P99_FLOOR_NS: u64 = 50_000;
/// Events/epoch may grow this much (ratio) before failing...
pub const EVENTS_PER_EPOCH_RATIO: f64 = 1.10;
/// ...with this absolute floor (events/epoch).
pub const EVENTS_PER_EPOCH_FLOOR: f64 = 64.0;
/// Full recomputes/epoch may grow this much (ratio) before failing...
pub const RECOMPUTES_PER_EPOCH_RATIO: f64 = 1.25;
/// ...with this absolute floor (recomputes/epoch).
pub const RECOMPUTES_PER_EPOCH_FLOOR: f64 = 16.0;

/// Outcome of a telemetry or series comparison ([`diff_docs`] here and
/// [`crate::series::diff_docs`]).
#[derive(Debug, Clone, Default)]
pub struct TelemetryDiff {
    /// Hard failures (non-zero exit): metric, baseline, current.
    pub regressions: Vec<String>,
    /// Informational lines (always printed).
    pub notes: Vec<String>,
}

impl TelemetryDiff {
    /// `true` when nothing regressed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Whether `doc` is a `stash-telemetry-v1` document.
#[must_use]
pub fn is_telemetry_doc(doc: &Value) -> bool {
    doc.get("schema").and_then(Value::as_str) == Some(crate::snapshot::SCHEMA)
}

/// The u64 at `path` in `doc` (the `which` document), or an error naming
/// the path.
fn u64_at(which: &str, doc: &Value, path: &[&str]) -> Result<u64, String> {
    path.iter()
        .try_fold(doc, |v, key| v.get(key))
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{which}: {} is missing or not a u64", path.join(".")))
}

/// Compares two telemetry documents and applies the health gates.
///
/// # Errors
/// When either document is not schema-tagged `stash-telemetry-v1`, or a
/// field a gate reads is missing or not a u64.
pub fn diff_docs(baseline: &Value, current: &Value) -> Result<TelemetryDiff, String> {
    for (which, doc) in [("baseline", baseline), ("current", current)] {
        if !is_telemetry_doc(doc) {
            return Err(format!(
                "{which} is not a {} document (schema: {:?})",
                crate::snapshot::SCHEMA,
                doc.get("schema").and_then(Value::as_str).unwrap_or("none"),
            ));
        }
    }
    let mut out = TelemetryDiff::default();

    // Solver recompute-latency p99.
    let p99 = ["histograms", "stash_sim_solver_recompute_latency_ns", "p99"];
    let base_p99 = u64_at("baseline", baseline, &p99)?;
    let cur_p99 = u64_at("current", current, &p99)?;
    let p99_limit = (base_p99 as f64 * SOLVER_P99_RATIO) + SOLVER_P99_FLOOR_NS as f64;
    let line = format!("solver recompute p99: {base_p99} ns -> {cur_p99} ns");
    if cur_p99 as f64 > p99_limit {
        out.regressions
            .push(format!("{line} (limit {} ns)", p99_limit as u64));
    } else {
        out.notes.push(line);
    }

    // Per-epoch rates. Epoch counts may legitimately differ between the
    // two runs (different iteration budgets), so both sides normalize.
    let epochs = ["counters", "stash_sim_epochs_total"];
    let base_epochs = u64_at("baseline", baseline, &epochs)?;
    let cur_epochs = u64_at("current", current, &epochs)?;
    if base_epochs == 0 || cur_epochs == 0 {
        out.notes.push(format!(
            "events/epoch: skipped (epochs {base_epochs} -> {cur_epochs})"
        ));
        return Ok(out);
    }

    let gates: [(&str, &str, f64, f64); 2] = [
        (
            "events/epoch",
            "stash_sim_queue_events_popped_total",
            EVENTS_PER_EPOCH_RATIO,
            EVENTS_PER_EPOCH_FLOOR,
        ),
        (
            "full recomputes/epoch",
            "stash_sim_solver_full_recomputes_total",
            RECOMPUTES_PER_EPOCH_RATIO,
            RECOMPUTES_PER_EPOCH_FLOOR,
        ),
    ];
    for (label, metric, ratio, floor) in gates {
        let count = ["counters", metric];
        let base = u64_at("baseline", baseline, &count)? as f64 / base_epochs as f64;
        let cur = u64_at("current", current, &count)? as f64 / cur_epochs as f64;
        let limit = base * ratio + floor;
        let line = format!("{label}: {base:.1} -> {cur:.1}");
        if cur > limit {
            out.regressions.push(format!("{line} (limit {limit:.1})"));
        } else {
            out.notes.push(line);
        }
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;

    fn doc(p99_bucket: usize, epochs: u64, popped: u64, recomputes: u64) -> Value {
        let mut s = Snapshot::zero();
        for (name, v) in s.counters.iter_mut() {
            *v = match *name {
                "stash_sim_epochs_total" => epochs,
                "stash_sim_queue_events_popped_total" => popped,
                "stash_sim_solver_full_recomputes_total" => recomputes,
                _ => 0,
            };
        }
        let h = &mut s.histograms[0].1;
        h.count = 100;
        h.buckets[p99_bucket] = 100;
        h.sum = 100;
        s.to_json("instance", "test")
    }

    #[test]
    fn clean_diff_for_identical_docs() {
        let d = doc(17, 10, 1000, 50);
        let out = diff_docs(&d, &d).unwrap();
        assert!(out.is_clean(), "{:?}", out.regressions);
        assert_eq!(out.notes.len(), 3);
    }

    #[test]
    fn solver_p99_regression_fails() {
        // Bucket 17 upper bound is ~131k ns; bucket 21 is ~2.1M ns —
        // far past the 1.5x + 50k limit.
        let base = doc(17, 10, 1000, 50);
        let bad = doc(21, 10, 1000, 50);
        let out = diff_docs(&base, &bad).unwrap();
        assert_eq!(out.regressions.len(), 1);
        assert!(out.regressions[0].contains("solver recompute p99"));
    }

    #[test]
    fn events_per_epoch_regression_fails() {
        let base = doc(17, 10, 10_000, 50);
        let bad = doc(17, 10, 12_000, 50);
        let out = diff_docs(&base, &bad).unwrap();
        assert_eq!(out.regressions.len(), 1);
        assert!(out.regressions[0].contains("events/epoch"));
    }

    #[test]
    fn small_absolute_growth_is_absorbed_by_floors() {
        let base = doc(17, 10, 100, 10);
        let near = doc(17, 10, 600, 100);
        let out = diff_docs(&base, &near).unwrap();
        assert!(out.is_clean(), "{:?}", out.regressions);
    }

    #[test]
    fn zero_epochs_skips_rate_gates() {
        let base = doc(17, 0, 0, 0);
        let out = diff_docs(&base, &base).unwrap();
        assert!(out.is_clean());
        assert!(out.notes.iter().any(|n| n.contains("skipped")));
    }

    #[test]
    fn unreadable_gate_fields_are_errors_naming_their_path() {
        let good = doc(17, 10, 1000, 50);
        let counters = r#"{"stash_sim_epochs_total":10,"stash_sim_queue_events_popped_total":1000,
            "stash_sim_solver_full_recomputes_total":50}"#;
        let hists = r#"{"stash_sim_solver_recompute_latency_ns":{"p99":1000}}"#;
        let tele = |counters: &str, histograms: &str| -> Value {
            let schema = crate::snapshot::SCHEMA;
            serde_json::from_str(&format!(
                r#"{{"schema":"{schema}","counters":{counters},"histograms":{histograms}}}"#
            ))
            .unwrap()
        };
        assert!(diff_docs(&good, &tele(counters, hists)).unwrap().is_clean());
        let p99 = "histograms.stash_sim_solver_recompute_latency_ns.p99";
        let cases = [
            (tele(counters, &hists.replace("1000", "null")), p99),
            (
                tele(&counters.replace(":1000", ":-1"), hists),
                "counters.stash_sim_queue_events_popped_total",
            ),
            (tele(counters, "{}"), p99),
            (tele("{}", hists), "counters.stash_sim_epochs_total"),
        ];
        for (bad, path) in &cases {
            let err = diff_docs(&good, bad).unwrap_err();
            assert_eq!(err, format!("current: {path} is missing or not a u64"));
            let err = diff_docs(bad, &good).unwrap_err();
            assert_eq!(err, format!("baseline: {path} is missing or not a u64"));
        }
    }

    #[test]
    fn non_telemetry_doc_is_an_error() {
        let d = doc(17, 10, 1000, 50);
        let other: Value = serde_json::from_str(r#"{"schema":"stash-insight-v1"}"#).unwrap();
        assert!(diff_docs(&d, &other).is_err());
        assert!(diff_docs(&other, &d).is_err());
    }
}
