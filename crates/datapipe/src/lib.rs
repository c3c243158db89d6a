//! # stash-datapipe — training input pipeline
//!
//! The substrate behind the paper's **fetch** (disk) and **prep** (CPU)
//! stalls: per-node data-loading workers that read mini-batches from the
//! SSD or the page cache, preprocess them on a shared vCPU pool and upload
//! them over the PCIe host fabric. Implemented as a pure state machine
//! ([`loader::NodeLoader`]) appending [`loader::LoaderAction`]s to a work
//! list its caller owns and reuses, so the training engine keeps sole
//! ownership of the event loop and flow network — which is what makes SSD
//! contention (16 workers on one gp2 volume) and PCIe contention (uploads
//! vs. all-reduce) emergent rather than scripted. An action names its
//! transfer by worker and purpose; [`loader::NodeLoader::transfer`]
//! derives the route, bytes and latency from the loader's spec, so each
//! transfer is described in one place.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod loader;

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::cache::{CacheState, PageCache};
    pub use crate::loader::{LoaderAction, LoaderSpec, NodeLoader};
}
