//! Span categories, track identities and the event data model.
//!
//! Everything here is `Copy` and carries only `&'static str` names: an
//! instrumentation site constructs a [`TraceEvent`] without touching the
//! heap, which is what keeps the disabled-tracer path allocation-free and
//! the enabled path cheap enough to leave on during sweeps.

use stash_simkit::time::{SimDuration, SimTime};

/// The stall class a span or event is attributed to.
///
/// The first four mirror the paper's stall taxonomy (compute vs the three
/// stall sources a GPU can block on); the rest label the simulator's own
/// machinery so its activity is visible on the same timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// GPU kernel time: forward, backward segments, optimizer step.
    Compute,
    /// Intra-node gradient synchronisation (PCIe / NVLink all-reduce).
    Interconnect,
    /// Inter-node gradient synchronisation (VM network all-reduce).
    Network,
    /// vCPU decode/augment work in the input pipeline.
    Prep,
    /// Input-batch acquisition: SSD reads, page-cache reads, H2D uploads,
    /// and the GPU-side wait for a batch.
    Fetch,
    /// The flow network's max-min rate solver.
    Solver,
    /// Page-cache hit/miss outcomes.
    Cache,
    /// Fault-recovery time: waiting out a preemption restart and
    /// replaying the iterations lost since the last checkpoint.
    Recovery,
    /// The *extra* compute time a transient straggler window inflicts on
    /// a rank (the nominal kernel time stays `Compute`).
    Straggler,
}

impl Category {
    /// Every category, in a stable order (rollups and exporters iterate
    /// this).
    pub const ALL: [Category; 9] = [
        Category::Compute,
        Category::Interconnect,
        Category::Network,
        Category::Prep,
        Category::Fetch,
        Category::Solver,
        Category::Cache,
        Category::Recovery,
        Category::Straggler,
    ];

    /// Stable lowercase label (metric label values, Chrome `cat` field).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::Interconnect => "interconnect",
            Category::Network => "network",
            Category::Prep => "prep",
            Category::Fetch => "fetch",
            Category::Solver => "solver",
            Category::Cache => "cache",
            Category::Recovery => "recovery",
            Category::Straggler => "straggler",
        }
    }
}

/// What kind of hardware or subsystem a track represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrackKind {
    /// One GPU rank's execution timeline.
    Gpu,
    /// One data-loader worker on a node.
    Loader,
    /// The (single-stream) collective communicator of the run.
    Comm,
    /// One flow in the flow network (keyed by flow id).
    Flow,
    /// The rate solver's activity.
    Solver,
}

impl TrackKind {
    /// Stable lowercase label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            TrackKind::Gpu => "gpu",
            TrackKind::Loader => "loader",
            TrackKind::Comm => "comm",
            TrackKind::Flow => "flow",
            TrackKind::Solver => "solver",
        }
    }
}

/// A timeline lane: every event belongs to exactly one track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Track {
    /// The subsystem this lane belongs to.
    pub kind: TrackKind,
    /// Node (instance) index; 0 for cluster-global tracks.
    pub node: u32,
    /// Lane within the kind/node namespace (GPU local index, worker
    /// index, flow id).
    pub index: u32,
}

impl Track {
    /// The execution lane of GPU `local` on node `node`.
    #[must_use]
    pub fn gpu(node: usize, local: usize) -> Track {
        Track {
            kind: TrackKind::Gpu,
            node: node as u32,
            index: local as u32,
        }
    }

    /// The lane of loader worker `worker` on node `node`.
    #[must_use]
    pub fn loader(node: usize, worker: usize) -> Track {
        Track {
            kind: TrackKind::Loader,
            node: node as u32,
            index: worker as u32,
        }
    }

    /// The run's collective-communication lane.
    #[must_use]
    pub fn comm() -> Track {
        Track {
            kind: TrackKind::Comm,
            node: 0,
            index: 0,
        }
    }

    /// The lane of flow `id` in the flow network.
    #[must_use]
    pub fn flow(id: u64) -> Track {
        Track {
            kind: TrackKind::Flow,
            node: 0,
            index: id as u32,
        }
    }

    /// The rate solver's lane.
    #[must_use]
    pub fn solver() -> Track {
        Track {
            kind: TrackKind::Solver,
            node: 0,
            index: 0,
        }
    }

    /// Human-readable lane name (Chrome thread name, metric label).
    #[must_use]
    pub fn label(&self) -> String {
        match self.kind {
            TrackKind::Gpu => format!("gpu n{}g{}", self.node, self.index),
            TrackKind::Loader => format!("loader n{}w{}", self.node, self.index),
            TrackKind::Comm => "comm".to_string(),
            TrackKind::Flow => format!("flow {}", self.index),
            TrackKind::Solver => "solver".to_string(),
        }
    }
}

/// One recorded observation on the simulation clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A complete interval `[start, end]` on a track.
    Span {
        /// Lane the interval lives on.
        track: Track,
        /// Stall class attribution.
        category: Category,
        /// Static name (e.g. `"forward"`, `"allreduce"`).
        name: &'static str,
        /// Numeric payload identifying *which* instance of `name` this is
        /// — the gradient-bucket index of an `"allreduce"` or
        /// `"backward"` segment, 0 when there is nothing to distinguish.
        /// Critical-path blame aggregates by `(name, arg)`.
        arg: u32,
        /// Interval start.
        start: SimTime,
        /// Interval end (`>= start`).
        end: SimTime,
    },
    /// A point-in-time marker.
    Instant {
        /// Lane the marker lives on.
        track: Track,
        /// Stall class attribution.
        category: Category,
        /// Static name (e.g. `"cache_hit"`).
        name: &'static str,
        /// When it happened.
        at: SimTime,
    },
    /// A sampled numeric series (e.g. a flow's allocated bandwidth).
    Counter {
        /// Lane the series lives on.
        track: Track,
        /// Stall class attribution.
        category: Category,
        /// Series name (e.g. `"rate_bps"`).
        name: &'static str,
        /// Sample instant.
        at: SimTime,
        /// Sample value.
        value: f64,
    },
}

impl TraceEvent {
    /// The track the event belongs to.
    #[must_use]
    pub fn track(&self) -> Track {
        match self {
            TraceEvent::Span { track, .. }
            | TraceEvent::Instant { track, .. }
            | TraceEvent::Counter { track, .. } => *track,
        }
    }

    /// The event's category.
    #[must_use]
    pub fn category(&self) -> Category {
        match self {
            TraceEvent::Span { category, .. }
            | TraceEvent::Instant { category, .. }
            | TraceEvent::Counter { category, .. } => *category,
        }
    }

    /// The event's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Span { name, .. }
            | TraceEvent::Instant { name, .. }
            | TraceEvent::Counter { name, .. } => name,
        }
    }

    /// A span's numeric payload (bucket/segment id); zero for instants,
    /// counters and unannotated spans.
    #[must_use]
    pub fn arg(&self) -> u32 {
        match self {
            TraceEvent::Span { arg, .. } => *arg,
            _ => 0,
        }
    }

    /// The event's (start) timestamp.
    #[must_use]
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::Span { start, .. } => *start,
            TraceEvent::Instant { at, .. } | TraceEvent::Counter { at, .. } => *at,
        }
    }

    /// A span's duration; zero for instants and counters.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        match self {
            TraceEvent::Span { start, end, .. } => end.duration_since(*start),
            _ => SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_distinct() {
        let labels: Vec<&str> = Category::ALL.iter().map(|c| c.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert_eq!(Category::Compute.label(), "compute");
    }

    #[test]
    fn track_constructors_round_trip() {
        let t = Track::gpu(2, 5);
        assert_eq!(t.kind, TrackKind::Gpu);
        assert_eq!((t.node, t.index), (2, 5));
        assert_eq!(t.label(), "gpu n2g5");
        assert_eq!(Track::comm().label(), "comm");
    }

    #[test]
    fn event_accessors() {
        let s = TraceEvent::Span {
            track: Track::gpu(0, 0),
            category: Category::Compute,
            name: "forward",
            arg: 3,
            start: SimTime::from_nanos(10),
            end: SimTime::from_nanos(25),
        };
        assert_eq!(s.duration().as_nanos(), 15);
        assert_eq!(s.at().as_nanos(), 10);
        assert_eq!(s.name(), "forward");
        assert_eq!(s.arg(), 3);
        assert_eq!(s.category(), Category::Compute);
        let i = TraceEvent::Instant {
            track: Track::solver(),
            category: Category::Solver,
            name: "full_solve",
            at: SimTime::from_nanos(3),
        };
        assert_eq!(i.duration(), SimDuration::ZERO);
        assert_eq!(i.track().kind, TrackKind::Solver);
    }
}
