//! # stash-ddl — the distributed-training engine
//!
//! An event-driven simulator of synchronous data-parallel DNN training
//! (PyTorch-DDP semantics): per-rank forward/backward state machines,
//! reverse-order gradient buckets all-reduced in order and overlapped with
//! backward compute, optimizer steps, and the full input pipeline — all
//! sharing one flow network so PCIe/NVLink/SSD/NIC contention is emergent.
//! This is the substrate the Stash profiler (`stash-core`) measures.
//!
//! # Examples
//!
//! ```
//! use stash_ddl::prelude::*;
//! use stash_hwtopo::prelude::*;
//! use stash_dnn::zoo;
//!
//! let cfg = TrainConfig::synthetic(
//!     ClusterSpec::single(p3_16xlarge()),
//!     zoo::resnet18(),
//!     32,
//!     32 * 50,
//! );
//! let report = run_epoch(&cfg)?;
//! assert_eq!(report.world, 8);
//! assert!(report.throughput > 0.0);
//! # Ok::<(), stash_ddl::error::TrainError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod engine;
pub mod error;
pub mod recovery;
pub mod report;

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::config::{ActiveGpus, DataMode, EpochMode, Straggler, TrainConfig};
    pub use crate::engine::{run_epoch, EngineArena, EngineOptions, Run};
    pub use crate::error::TrainError;
    pub use crate::recovery::{FaultOutcome, FaultRecord, FaultedRun, StragglerDetection};
    pub use crate::report::EpochReport;
}
