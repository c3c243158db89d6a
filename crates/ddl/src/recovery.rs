//! Fault-injection outcomes: what the engine observed and did while
//! surviving a [`stash_faults::plan::FaultPlan`].
//!
//! The [`EpochReport`] stays the single
//! timing contract — faulted runs only add the `recovery_time` and
//! `straggler_time` accumulators there. Everything fault-*specific*
//! (per-event stall blame, straggler detections, replay counts, nodes
//! lost to elastic re-formation) lives here, so fault-free reports keep
//! their exact shape and the differential tests can compare them
//! bit-for-bit.

use serde::Serialize;
use stash_simkit::time::{SimDuration, SimTime};

use crate::report::EpochReport;

/// One bounded-timeout straggler detection on the all-reduce path.
///
/// Detection is pure bookkeeping: when the gap between the first and the
/// last rank delivering a gradient bucket exceeds the recovery policy's
/// timeout, the engine records the laggard and multiplies the timeout by
/// the configured backoff. Timing is never perturbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StragglerDetection {
    /// When the last rank delivered the bucket.
    pub at: SimTime,
    /// The rank that closed the bucket — the blamed straggler.
    pub rank: usize,
    /// Gradient-bucket index the detection fired on.
    pub bucket: usize,
    /// Observed first-to-last skew that exceeded the timeout.
    pub gap: SimDuration,
}

/// One plan event and the wall-clock stall directly blamed on it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FaultRecord {
    /// Stable fault-kind label (`"preemption"`, `"straggler_window"`, …).
    pub label: String,
    /// Scheduled firing time.
    pub at: SimTime,
    /// Whether the event fired before the epoch finished.
    pub fired: bool,
    /// Stall time attributed directly to this event: straggler-window
    /// excess compute, preemption barrier + restart waits and replayed
    /// work. Bandwidth faults stall *indirectly* (through inflated
    /// `data_wait`/`comm_wait`) and carry zero direct blame.
    pub blame: SimDuration,
}

/// Everything fault-specific a faulted epoch produced.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct FaultOutcome {
    /// One record per plan event, in plan order.
    pub events: Vec<FaultRecord>,
    /// Straggler detections, in detection order.
    pub detections: Vec<StragglerDetection>,
    /// Iterations rolled back to the last checkpoint and re-run.
    pub replayed_iterations: u64,
    /// Nodes permanently lost to elastic re-formation.
    pub dead_nodes: Vec<usize>,
}

/// Result of [`Run::epoch`](crate::engine::Run::epoch): the ordinary
/// timing report plus the fault outcome (empty without a fault plan).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultedRun {
    /// The epoch's timing breakdown (recovery and straggler stall
    /// included as first-class accumulators).
    pub report: EpochReport,
    /// Fault-specific observations.
    pub faults: FaultOutcome,
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn default_outcome_is_empty() {
        let o = FaultOutcome::default();
        assert!(o.events.is_empty());
        assert!(o.detections.is_empty());
        assert_eq!(o.replayed_iterations, 0);
        assert!(o.dead_nodes.is_empty());
    }

    #[test]
    fn outcome_serializes() {
        let o = FaultOutcome {
            events: vec![FaultRecord {
                label: "preemption".into(),
                at: SimTime::from_nanos(5),
                fired: true,
                blame: SimDuration::from_micros(3),
            }],
            detections: vec![StragglerDetection {
                at: SimTime::from_nanos(9),
                rank: 3,
                bucket: 1,
                gap: SimDuration::from_micros(2),
            }],
            replayed_iterations: 2,
            dead_nodes: vec![1],
        };
        let json = serde_json::to_string_pretty(&o).expect("serialize");
        assert!(json.contains("preemption"));
        assert!(json.contains("replayed_iterations"));
    }
}
