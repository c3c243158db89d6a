//! # stash-trace — stall-centric tracing and metrics
//!
//! A deterministic, zero-cost-when-disabled span/event recorder keyed to
//! the simulation clock ([`stash_simkit::time::SimTime`]), plus the
//! exporters that turn a recording into something a human can read:
//!
//! * **Chrome trace** ([`chrome::export`]) — open in `chrome://tracing`
//!   or Perfetto; one process per simulation, one thread per GPU /
//!   loader / communicator / flow lane.
//! * **Stall rollup** ([`rollup::StallRollup`]) — integer-nanosecond span
//!   totals per `(track kind, category)` that reconcile *exactly* with
//!   the engine's `EpochReport` stall breakdown (tests enforce this).
//! * **Prometheus text metrics** ([`metrics::render_rollup`]).
//!
//! On top of the raw recording sit the analysis layers:
//!
//! * **Critical-path decomposition** ([`critical::CriticalPath`]) —
//!   classifies every nanosecond of a rank's timeline into exactly one
//!   stall class (compute, overlap, interconnect, network, prep, fetch,
//!   idle) with exact integer-ns totals and per-bucket blame.
//! * **What-if projection** ([`whatif::project`]) — analytically
//!   rescales one resource (network, interconnect, prep, fetch) and
//!   projects the new wall time from the trace alone.
//! * **Reports** ([`report::InsightReport`]) — packages both into
//!   `stash-report-v1` JSON and a self-contained HTML page;
//!   [`report::diff`] flags per-category stall regressions between two
//!   reports.
//!
//! ## Data model
//!
//! A [`span::TraceEvent`] is a `Copy` value — a span `[start, end]`, an
//! instant, or a counter sample — on a [`span::Track`] (one timeline
//! lane) with a [`span::Category`] (the stall class it is attributed to:
//! compute, interconnect, network, prep, fetch, solver, cache).
//!
//! ## Recording
//!
//! Instrumentation sites hold a [`recorder::Tracer`] (usually behind a
//! [`recorder::SharedTracer`]) and call `span` / `instant` / `counter`.
//! A disabled tracer ([`recorder::Tracer::disabled`], the default
//! everywhere) short-circuits before event construction: no allocation,
//! no sink call, one predictable branch. Enabled tracers forward to a
//! [`sink::TraceSink`] — [`sink::JsonSink`] for full capture, or a
//! custom impl. Always-on flight recording of the engine's last events
//! is `stash_telemetry::flight`'s job, not a trace sink's.
//!
//! ```
//! use stash_trace::chrome;
//! use stash_trace::prelude::*;
//! use stash_simkit::time::SimTime;
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let sink = Rc::new(RefCell::new(JsonSink::new()));
//! let mut tracer = Tracer::new(sink.clone());
//! tracer.span(
//!     Track::gpu(0, 0),
//!     Category::Compute,
//!     "forward",
//!     SimTime::ZERO,
//!     SimTime::from_nanos(1_000),
//! );
//!
//! let rollup = StallRollup::from_events(sink.borrow().events());
//! assert_eq!(rollup.category_total(Category::Compute).as_nanos(), 1_000);
//!
//! let doc = serde_json::to_string_pretty(&chrome::export(sink.borrow().events())).unwrap();
//! assert!(chrome::validate(&doc).is_ok());
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod critical;
pub mod dash;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod rollup;
pub mod sink;
pub mod span;
pub mod svg;
pub mod whatif;

/// The names most instrumentation and analysis sites need.
pub mod prelude {
    pub use crate::critical::{BlamedSpan, CriticalPath, PathCategory, PathSegment};
    pub use crate::dash::{DashCell, Dashboard};
    pub use crate::metrics::MetricsBuilder;
    pub use crate::recorder::{shared, SharedTracer, Tracer};
    pub use crate::report::{diff, InsightReport, Regression, WhatIfRow};
    pub use crate::rollup::StallRollup;
    pub use crate::sink::{CountingSink, JsonSink, NullSink, TraceSink};
    pub use crate::span::{Category, TraceEvent, Track, TrackKind};
    pub use crate::whatif::{project, WhatIfResource, PROJECTION_TOLERANCE};
}

pub use recorder::{shared, SharedTracer, Tracer};
pub use sink::{CountingSink, JsonSink, NullSink, TraceSink};
pub use span::{Category, TraceEvent, Track, TrackKind};
