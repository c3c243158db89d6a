//! The [`Tracer`]: the handle instrumentation sites emit through.
//!
//! Design contract (the "zero cost when disabled" property the engine's
//! differential tests enforce):
//!
//! * [`Tracer::disabled`] carries no sink at all. Every emission method
//!   starts with one well-predicted branch on `Option::is_some` and
//!   returns immediately — no event is constructed, nothing is allocated,
//!   and no observable engine state changes.
//! * Enabled emission constructs a `Copy` event (static names, no heap)
//!   and forwards it to the sink; cost is the sink's retention policy.
//!
//! Because the simulator is single-threaded per run, shared access between
//! the engine and the flow network uses [`SharedTracer`]
//! (`Rc<RefCell<Tracer>>`) — deterministic, no locking.

use std::cell::RefCell;
use std::rc::Rc;

use stash_simkit::time::SimTime;

use crate::sink::TraceSink;
use crate::span::{Category, TraceEvent, Track};

/// A span/event recorder keyed to the simulation clock.
#[derive(Debug)]
pub struct Tracer {
    sink: Option<Box<dyn TraceSink>>,
    process: u32,
    emitted: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::disabled()
    }
}

impl Tracer {
    /// The no-op tracer: semantically a [`crate::sink::NullSink`], but
    /// short-circuiting before event construction.
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer {
            sink: None,
            process: 0,
            emitted: 0,
        }
    }

    /// A tracer recording into `sink`.
    ///
    /// Pass an `Rc<RefCell<...>>` handle (see the blanket
    /// [`TraceSink`] impl) to keep reading access after the run.
    #[must_use]
    pub fn new(sink: impl TraceSink + 'static) -> Tracer {
        Tracer {
            sink: Some(Box::new(sink)),
            process: 0,
            emitted: 0,
        }
    }

    /// `true` when events are being recorded. Instrumentation sites whose
    /// bookkeeping is more than constructing the event (e.g. remembering
    /// span starts) should gate on this.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Scopes subsequent events to namespace `process` — used to keep
    /// independent simulations (each with its own clock) apart in one
    /// sink.
    pub fn set_process(&mut self, process: u32) {
        self.process = process;
    }

    /// The current process namespace.
    #[must_use]
    pub fn process(&self) -> u32 {
        self.process
    }

    /// Number of events emitted so far (0 forever when disabled).
    #[must_use]
    pub fn events_emitted(&self) -> u64 {
        self.emitted
    }

    /// Records a complete interval `[start, end]`.
    #[inline]
    pub fn span(
        &mut self,
        track: Track,
        category: Category,
        name: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        self.span_arg(track, category, name, 0, start, end);
    }

    /// Records a complete interval `[start, end]` annotated with a numeric
    /// payload (e.g. the gradient-bucket index) that critical-path blame
    /// aggregates by.
    #[inline]
    pub fn span_arg(
        &mut self,
        track: Track,
        category: Category,
        name: &'static str,
        arg: u32,
        start: SimTime,
        end: SimTime,
    ) {
        if let Some(sink) = &mut self.sink {
            self.emitted += 1;
            sink.record(
                self.process,
                &TraceEvent::Span {
                    track,
                    category,
                    name,
                    arg,
                    start,
                    end,
                },
            );
        }
    }

    /// Records a point-in-time marker.
    #[inline]
    pub fn instant(&mut self, track: Track, category: Category, name: &'static str, at: SimTime) {
        if let Some(sink) = &mut self.sink {
            self.emitted += 1;
            sink.record(
                self.process,
                &TraceEvent::Instant {
                    track,
                    category,
                    name,
                    at,
                },
            );
        }
    }

    /// Records a counter sample.
    #[inline]
    pub fn counter(
        &mut self,
        track: Track,
        category: Category,
        name: &'static str,
        at: SimTime,
        value: f64,
    ) {
        if let Some(sink) = &mut self.sink {
            self.emitted += 1;
            sink.record(
                self.process,
                &TraceEvent::Counter {
                    track,
                    category,
                    name,
                    at,
                    value,
                },
            );
        }
    }
}

/// Shared handle to one tracer, cloned between the engine and the
/// subsystems it owns (flow network, loaders).
pub type SharedTracer = Rc<RefCell<Tracer>>;

/// Wraps a tracer for sharing.
#[must_use]
pub fn shared(tracer: Tracer) -> SharedTracer {
    Rc::new(RefCell::new(tracer))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::sink::{CountingSink, JsonSink};

    #[test]
    fn disabled_tracer_emits_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.span(
            Track::gpu(0, 0),
            Category::Compute,
            "f",
            SimTime::ZERO,
            SimTime::from_nanos(1),
        );
        t.instant(Track::comm(), Category::Network, "x", SimTime::ZERO);
        t.counter(Track::flow(0), Category::Solver, "r", SimTime::ZERO, 1.0);
        assert_eq!(t.events_emitted(), 0);
    }

    #[test]
    fn enabled_tracer_counts_and_forwards() {
        let sink = Rc::new(RefCell::new(CountingSink::new()));
        let mut t = Tracer::new(sink.clone());
        assert!(t.is_enabled());
        t.span(
            Track::gpu(0, 0),
            Category::Compute,
            "f",
            SimTime::ZERO,
            SimTime::from_nanos(1),
        );
        t.instant(Track::comm(), Category::Network, "x", SimTime::ZERO);
        assert_eq!(t.events_emitted(), 2);
        assert_eq!(sink.borrow().total(), 2);
    }

    #[test]
    fn process_scoping_reaches_the_sink() {
        let sink = Rc::new(RefCell::new(JsonSink::new()));
        let mut t = Tracer::new(sink.clone());
        t.set_process(3);
        assert_eq!(t.process(), 3);
        t.instant(Track::solver(), Category::Solver, "t3", SimTime::ZERO);
        assert_eq!(sink.borrow().events()[0].0, 3);
    }

    #[test]
    fn shared_tracer_is_cloneable() {
        let t = shared(Tracer::disabled());
        let t2 = t.clone();
        t.borrow_mut().set_process(1);
        assert_eq!(t2.borrow().process(), 1);
    }
}
