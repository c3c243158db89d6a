//! Trace sinks: where recorded events go.
//!
//! A [`crate::recorder::Tracer`] forwards every event to exactly one
//! [`TraceSink`]. Two production sinks are provided:
//!
//! * [`NullSink`] — drops everything; the default. A tracer built over it
//!   (or [`crate::recorder::Tracer::disabled`], which short-circuits even
//!   earlier) is the zero-cost-when-disabled path.
//! * [`JsonSink`] — keeps every event and renders Chrome-trace JSON or
//!   feeds rollups/metrics; for explicit `stash trace` runs.
//!
//! [`CountingSink`] only counts — the test harness that proves disabled
//! runs emit nothing and enabled runs emit deterministically.

use std::cell::RefCell;
use std::rc::Rc;

use crate::span::TraceEvent;

/// Receiver of trace events.
///
/// `process` is the namespace the emitting tracer was scoped to (see
/// [`crate::recorder::Tracer::set_process`]): independent simulations
/// recorded into one sink stay distinguishable even though each starts
/// its own clock at zero.
pub trait TraceSink: std::fmt::Debug {
    /// Records one event.
    fn record(&mut self, process: u32, event: &TraceEvent);
}

/// Blanket impl so a caller can keep a handle to a sink while a tracer
/// owns the `Rc` clone — the pattern `stash trace` uses to read the
/// collected events back after the run.
impl<S: TraceSink> TraceSink for Rc<RefCell<S>> {
    fn record(&mut self, process: u32, event: &TraceEvent) {
        self.borrow_mut().record(process, event);
    }
}

/// Drops every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn record(&mut self, _process: u32, _event: &TraceEvent) {}
}

/// Unbounded recorder backing the JSON exporters.
#[derive(Debug, Clone, Default)]
pub struct JsonSink {
    events: Vec<(u32, TraceEvent)>,
}

impl JsonSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> JsonSink {
        JsonSink::default()
    }

    /// All recorded `(process, event)` pairs in emission order.
    #[must_use]
    pub fn events(&self) -> &[(u32, TraceEvent)] {
        &self.events
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for JsonSink {
    fn record(&mut self, process: u32, event: &TraceEvent) {
        self.events.push((process, *event));
    }
}

/// Counts events without retaining them (test harness).
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingSink {
    spans: u64,
    instants: u64,
    counters: u64,
}

impl CountingSink {
    /// A zeroed counter.
    #[must_use]
    pub fn new() -> CountingSink {
        CountingSink::default()
    }

    /// Spans seen.
    #[must_use]
    pub fn spans(&self) -> u64 {
        self.spans
    }

    /// Instants seen.
    #[must_use]
    pub fn instants(&self) -> u64 {
        self.instants
    }

    /// Counter samples seen.
    #[must_use]
    pub fn counters(&self) -> u64 {
        self.counters
    }

    /// Total events seen.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.spans + self.instants + self.counters
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, _process: u32, event: &TraceEvent) {
        match event {
            TraceEvent::Span { .. } => self.spans += 1,
            TraceEvent::Instant { .. } => self.instants += 1,
            TraceEvent::Counter { .. } => self.counters += 1,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::span::{Category, Track};
    use stash_simkit::time::SimTime;

    fn ev(n: u64) -> TraceEvent {
        TraceEvent::Instant {
            track: Track::gpu(0, 0),
            category: Category::Compute,
            name: "x",
            at: SimTime::from_nanos(n),
        }
    }

    #[test]
    fn json_sink_preserves_order_and_process() {
        let mut sink = JsonSink::new();
        sink.record(2, &ev(7));
        sink.record(1, &ev(9));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.events()[0].0, 2);
        assert_eq!(sink.events()[1].1.at().as_nanos(), 9);
    }

    #[test]
    fn counting_sink_classifies() {
        let mut c = CountingSink::new();
        c.record(0, &ev(1));
        c.record(
            0,
            &TraceEvent::Span {
                track: Track::gpu(0, 0),
                category: Category::Compute,
                name: "s",
                arg: 0,
                start: SimTime::ZERO,
                end: SimTime::from_nanos(5),
            },
        );
        c.record(
            0,
            &TraceEvent::Counter {
                track: Track::flow(1),
                category: Category::Solver,
                name: "rate_bps",
                at: SimTime::ZERO,
                value: 1.0,
            },
        );
        assert_eq!(
            (c.spans(), c.instants(), c.counters(), c.total()),
            (1, 1, 1, 3)
        );
    }

    #[test]
    fn shared_sink_handle_records_through_rc() {
        let shared = Rc::new(RefCell::new(JsonSink::new()));
        let mut handle = shared.clone();
        handle.record(0, &ev(3));
        assert_eq!(shared.borrow().len(), 1);
    }
}
