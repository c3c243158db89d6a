//! The fixed metric schema.
//!
//! Every simulator self-metric is a process-wide static declared here,
//! grouped into three declaration-ordered arrays ([`COUNTERS`],
//! [`GAUGES`], [`HISTOGRAMS`]). A fixed schema instead of dynamic
//! registration buys three properties at once: recording sites pay no
//! lookup, snapshots are deterministic (array order *is* exposition
//! order), and the registry itself never allocates.
//!
//! Naming scheme (documented in DESIGN.md): `stash_<layer>_<what>_<unit
//! or _total>` where `<layer>` is `sim` (simkit/flowsim/ddl machinery),
//! `cache` (profiler measurement cache), `profile` (per-step profiling),
//! or `data` (input pipeline). Histograms record integer nanoseconds and
//! carry an `_ns` suffix.

use crate::registry::{Counter, Gauge, Histogram};

// --- simkit::queue ------------------------------------------------------

/// Events scheduled into the indexed event queue.
pub static QUEUE_PUSHED: Counter = Counter::new();
/// Events delivered (popped live) from the event queue.
pub static QUEUE_POPPED: Counter = Counter::new();
/// Events cancelled while still pending.
pub static QUEUE_CANCELLED: Counter = Counter::new();
/// High-water mark of live (scheduled, not yet delivered or cancelled)
/// events.
pub static QUEUE_DEPTH_HIGH_WATER: Gauge = Gauge::new();

// --- flowsim::net / fairness -------------------------------------------

/// Full max-min solver recomputations.
pub static SOLVER_FULL_RECOMPUTES: Counter = Counter::new();
/// Flow events absorbed by the single-flow shortcut (no solve).
pub static SOLVER_SHORTCUT_EVENTS: Counter = Counter::new();
/// Water-filling freeze rounds summed over all solves.
pub static SOLVER_ROUNDS: Counter = Counter::new();
/// Host wall-clock latency of each full recompute, in nanoseconds.
pub static SOLVER_RECOMPUTE_LATENCY_NS: Histogram = Histogram::new();
/// High-water mark of concurrently active flows.
pub static FLOWS_ACTIVE_HIGH_WATER: Gauge = Gauge::new();
/// High-water mark of allocated flow slab slots (occupancy ceiling).
pub static FLOW_SLOTS_HIGH_WATER: Gauge = Gauge::new();

// --- ddl::engine --------------------------------------------------------

/// Fast-forward matches: boundaries whose state key equalled an earlier
/// boundary's.
pub static FF_CONFIRMATIONS: Counter = Counter::new();
/// Iterations fast-forward skipped by shifting a proven periodic state.
pub static FF_ITERATIONS: Counter = Counter::new();
/// Engine constructions that reused a warm arena (non-empty FlowNet).
pub static ARENA_REUSE: Counter = Counter::new();
/// Fault-runtime event-loop branches taken (Fault/FaultClear/Resume).
pub static FAULT_BRANCHES: Counter = Counter::new();
/// Epochs simulated to completion.
pub static EPOCHS: Counter = Counter::new();

// --- core profiler / cache ---------------------------------------------

/// Measurement-cache hits.
pub static CACHE_HITS: Counter = Counter::new();
/// Measurement-cache misses.
pub static CACHE_MISSES: Counter = Counter::new();
/// Measurement-cache entries dropped by an explicit clear.
pub static CACHE_EVICTIONS: Counter = Counter::new();
/// Host wall-clock latency of each profiled step measurement, in
/// nanoseconds.
pub static PROFILE_STEP_WALL_NS: Histogram = Histogram::new();

// --- result store -------------------------------------------------------

/// Store lookups answered by a verified on-disk record.
pub static STORE_HITS: Counter = Counter::new();
/// Store lookups that found no record for the key.
pub static STORE_MISSES: Counter = Counter::new();
/// Records durably written (write-temp-fsync-rename completed).
pub static STORE_WRITES: Counter = Counter::new();
/// Store I/O attempts retried after a transient failure.
pub static STORE_RETRIES: Counter = Counter::new();
/// Corrupt records moved to quarantine instead of being read.
pub static STORE_QUARANTINED: Counter = Counter::new();

// --- datapipe -----------------------------------------------------------

/// Simulated service time of each sample-prep stage, in nanoseconds.
pub static DATA_PREP_SERVICE_NS: Histogram = Histogram::new();
/// Simulated service time of each completed fetch transfer, in
/// nanoseconds.
pub static DATA_FETCH_SERVICE_NS: Histogram = Histogram::new();

/// A named counter with its Prometheus help text.
#[derive(Debug)]
pub struct CounterDef {
    /// Metric family name.
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// The backing static.
    pub counter: &'static Counter,
}

/// A named high-water gauge with its Prometheus help text.
#[derive(Debug)]
pub struct GaugeDef {
    /// Metric family name.
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// The backing static.
    pub gauge: &'static Gauge,
}

/// A named histogram with its Prometheus help text.
#[derive(Debug)]
pub struct HistogramDef {
    /// Metric family name.
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// The backing static.
    pub histogram: &'static Histogram,
}

/// Every counter, in canonical (snapshot/exposition) order.
pub static COUNTERS: &[CounterDef] = &[
    CounterDef {
        name: "stash_sim_queue_events_pushed_total",
        help: "Events scheduled into the indexed event queue.",
        counter: &QUEUE_PUSHED,
    },
    CounterDef {
        name: "stash_sim_queue_events_popped_total",
        help: "Events delivered from the indexed event queue.",
        counter: &QUEUE_POPPED,
    },
    CounterDef {
        name: "stash_sim_queue_events_cancelled_total",
        help: "Events cancelled while still pending.",
        counter: &QUEUE_CANCELLED,
    },
    CounterDef {
        name: "stash_sim_solver_full_recomputes_total",
        help: "Full max-min solver recomputations.",
        counter: &SOLVER_FULL_RECOMPUTES,
    },
    CounterDef {
        name: "stash_sim_solver_shortcut_events_total",
        help: "Flow events absorbed by the single-flow shortcut.",
        counter: &SOLVER_SHORTCUT_EVENTS,
    },
    CounterDef {
        name: "stash_sim_solver_rounds_total",
        help: "Water-filling freeze rounds summed over all solves.",
        counter: &SOLVER_ROUNDS,
    },
    CounterDef {
        name: "stash_sim_ff_confirmations_total",
        help: "Fast-forward matches of an earlier boundary's state key.",
        counter: &FF_CONFIRMATIONS,
    },
    CounterDef {
        name: "stash_sim_ff_iterations_total",
        help: "Iterations skipped by fast-forward's periodic state shift.",
        counter: &FF_ITERATIONS,
    },
    CounterDef {
        name: "stash_sim_arena_reuse_total",
        help: "Engine constructions that reused a warm arena.",
        counter: &ARENA_REUSE,
    },
    CounterDef {
        name: "stash_sim_fault_branches_total",
        help: "Fault-runtime event-loop branches taken.",
        counter: &FAULT_BRANCHES,
    },
    CounterDef {
        name: "stash_sim_epochs_total",
        help: "Epochs simulated to completion.",
        counter: &EPOCHS,
    },
    CounterDef {
        name: "stash_cache_hits_total",
        help: "Profiler measurement-cache hits.",
        counter: &CACHE_HITS,
    },
    CounterDef {
        name: "stash_cache_misses_total",
        help: "Profiler measurement-cache misses.",
        counter: &CACHE_MISSES,
    },
    CounterDef {
        name: "stash_cache_evictions_total",
        help: "Measurement-cache entries dropped by an explicit clear.",
        counter: &CACHE_EVICTIONS,
    },
    CounterDef {
        name: "stash_store_hits_total",
        help: "Store lookups answered by a verified on-disk record.",
        counter: &STORE_HITS,
    },
    CounterDef {
        name: "stash_store_misses_total",
        help: "Store lookups that found no record for the key.",
        counter: &STORE_MISSES,
    },
    CounterDef {
        name: "stash_store_writes_total",
        help: "Records durably written to the result store.",
        counter: &STORE_WRITES,
    },
    CounterDef {
        name: "stash_store_retries_total",
        help: "Store I/O attempts retried after a transient failure.",
        counter: &STORE_RETRIES,
    },
    CounterDef {
        name: "stash_store_quarantined_total",
        help: "Corrupt records moved to quarantine instead of being read.",
        counter: &STORE_QUARANTINED,
    },
];

/// Every gauge, in canonical order.
pub static GAUGES: &[GaugeDef] = &[
    GaugeDef {
        name: "stash_sim_queue_depth_high_water",
        help: "High-water mark of live events in the queue.",
        gauge: &QUEUE_DEPTH_HIGH_WATER,
    },
    GaugeDef {
        name: "stash_sim_flows_active_high_water",
        help: "High-water mark of concurrently active flows.",
        gauge: &FLOWS_ACTIVE_HIGH_WATER,
    },
    GaugeDef {
        name: "stash_sim_flow_slots_high_water",
        help: "High-water mark of allocated flow slab slots.",
        gauge: &FLOW_SLOTS_HIGH_WATER,
    },
];

/// Every histogram, in canonical order.
pub static HISTOGRAMS: &[HistogramDef] = &[
    HistogramDef {
        name: "stash_sim_solver_recompute_latency_ns",
        help: "Host wall-clock latency of each full solver recompute (ns).",
        histogram: &SOLVER_RECOMPUTE_LATENCY_NS,
    },
    HistogramDef {
        name: "stash_profile_step_wall_ns",
        help: "Host wall-clock latency of each profiled step measurement (ns).",
        histogram: &PROFILE_STEP_WALL_NS,
    },
    HistogramDef {
        name: "stash_data_prep_service_ns",
        help: "Simulated service time of each sample-prep stage (ns).",
        histogram: &DATA_PREP_SERVICE_NS,
    },
    HistogramDef {
        name: "stash_data_fetch_service_ns",
        help: "Simulated service time of each completed fetch transfer (ns).",
        histogram: &DATA_FETCH_SERVICE_NS,
    },
];

/// Resets every metric in the schema to zero. Snapshot deltas
/// ([`crate::snapshot::Snapshot::since`]) are usually better; this is
/// for process entry points (CLI subcommands) that want a clean slate.
pub fn reset_all() {
    for c in COUNTERS {
        c.counter.reset();
    }
    for g in GAUGES {
        g.gauge.reset();
    }
    for h in HISTOGRAMS {
        h.histogram.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn schema_names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = COUNTERS
            .iter()
            .map(|c| c.name)
            .chain(GAUGES.iter().map(|g| g.name))
            .chain(HISTOGRAMS.iter().map(|h| h.name));
        for name in names {
            assert!(seen.insert(name), "duplicate metric name {name}");
            assert!(name.starts_with("stash_"), "bad prefix: {name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "illegal character in {name}"
            );
        }
        for c in COUNTERS {
            assert!(
                c.name.ends_with("_total"),
                "counter {} lacks _total",
                c.name
            );
        }
        for h in HISTOGRAMS {
            assert!(h.name.ends_with("_ns"), "histogram {} lacks _ns", h.name);
        }
    }
}
