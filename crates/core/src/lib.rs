//! # stash-core — the Stash DDL stall profiler
//!
//! The paper's primary contribution: a profiler that characterizes the
//! four execution stalls of distributed deep learning on cloud GPU
//! instances — **interconnect** and **network** stalls (Stash's novel
//! steps 1 and 5) plus the **CPU (prep)** and **disk (fetch)** stalls of
//! prior work DS-Analyzer (steps 2-4).
//!
//! * [`profiler`] — [`profiler::Stash`] (all five steps, serial or on
//!   the worker pool) and [`profiler::DsAnalyzer`] (the prior-work
//!   subset), plus [`profiler::par_profile_many`] for sweep fan-out over
//!   the same pool;
//! * [`cache`] — [`cache::MeasurementCache`], memoizing identical epoch
//!   measurements within and across profiles;
//! * [`report`] — [`report::StallReport`] with the paper's stall formulas;
//! * [`cost`] — epoch time x instance price billing (Figs. 6/10/12/14);
//! * [`advisor`] — ranked instance recommendations;
//! * [`analytic`] — the §VI closed-form `T = (tau + G/(L·B))·L` model;
//! * [`srifty`] — a Srifty-style probe-and-predict baseline with its
//!   probing bill (the §VI-B cost comparison);
//! * [`qos`] — network-stall distributions under bandwidth variance
//!   (the §III QoS discussion, made quantitative);
//! * [`pipeline`] — a GPipe-style pipeline-parallel estimator for the
//!   models the paper's data-parallel profiler must exclude;
//! * [`sweep`] — the durable, crash-resumable sweep runner: consult-first
//!   cells over a `stash-store` result store, misses simulated on the
//!   worker pool and committed in input order, write-ahead journaling,
//!   retry/backoff and graceful degradation.
//!
//! # Examples
//!
//! ```
//! use stash_core::prelude::*;
//! use stash_dnn::zoo;
//! use stash_hwtopo::prelude::*;
//!
//! let stash = Stash::new(zoo::resnet18())
//!     .with_batch(32)
//!     .with_sampled_iterations(3)
//!     .with_epoch_samples(10_000);
//! let report = stash.profile(&ClusterSpec::single(p3_16xlarge()))?;
//! println!("{report}");
//! assert!(report.interconnect_stall_pct().unwrap() >= 0.0);
//! # Ok::<(), stash_core::error::ProfileError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod advisor;
pub mod analytic;
pub mod cache;
pub mod cost;
pub mod error;
pub mod pipeline;
pub mod profiler;
pub mod qos;
pub mod report;
pub mod srifty;
pub mod sweep;

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::advisor::{default_candidates, recommend, Advice, Objective, Recommendation};
    pub use crate::analytic::{comm_estimate, link_parameters, CommEstimate, LinkParameters};
    pub use crate::cache::{CacheStats, MeasurementCache};
    pub use crate::cost::{epoch_cost, training_cost, CostReport};
    pub use crate::error::ProfileError;
    pub use crate::pipeline::{plan as pipeline_plan, PipelinePlan};
    pub use crate::profiler::{par_profile_many, profile_threads, DsAnalyzer, ProfileJob, Stash};
    pub use crate::qos::{network_stall_distribution, QosDistribution};
    pub use crate::report::{StallReport, StepTimes};
    pub use crate::srifty::{compare as srifty_compare, grid_probe, SriftyPredictor};
    pub use crate::sweep::{
        cell_descriptor, cell_key, decode_cell_record, encode_cell_record, run_sweep, CellOutcome,
        CellStatus, SweepOutcome,
    };
}
