//! # stash-flowsim — flow-level bandwidth-sharing simulator
//!
//! Models interconnects, storage and networks as capacity pools ("links")
//! shared by concurrent transfers ("flows") under **max-min fairness** —
//! the standard flow-level abstraction of bandwidth sharing (cf. SimGrid).
//! This is the substrate that stands in for the PCIe buses, NVLink
//! crossbars, SSD volumes and VM networks of the paper's AWS testbed:
//! contention (e.g. 16 GPUs "slicing" one PCIe fabric on p2.16xlarge) falls
//! out of the fair-share model instead of being hard-coded.
//!
//! * [`link`] — [`link::Link`] capacity/latency definitions;
//! * [`fairness`] — the water-filling max-min solver;
//! * [`net`] — [`net::FlowNet`], time-integrated flow state driven by an
//!   external event loop; a flow is known by the tag its caller gives it.
//!
//! # Examples
//!
//! ```
//! use stash_flowsim::prelude::*;
//! use stash_simkit::time::{SimDuration, SimTime};
//!
//! let mut net = FlowNet::new();
//! let bus = net.add_link(Link::new("bus", 1e9, SimDuration::ZERO, LinkClass::PcieHostBus));
//! // Two concurrent 1 GB transfers, tagged 0 and 1, share the 1 GB/s
//! // bus → 2 s each.
//! net.start_flow(SimTime::ZERO, &[bus], 1e9, SimDuration::ZERO, 0);
//! net.start_flow(SimTime::ZERO, &[bus], 1e9, SimDuration::ZERO, 1);
//! let done = net.next_event_time().unwrap();
//! assert!((done.as_secs_f64() - 2.0).abs() < 1e-6);
//! net.advance(done);
//! let mut tags = Vec::new();
//! net.drain_completed_into(&mut tags);
//! assert_eq!(tags, [0, 1]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fairness;
pub mod link;
pub mod net;

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::fairness::{max_min_rates, MaxMinScratch};
    pub use crate::link::{Link, LinkClass, LinkId};
    pub use crate::net::FlowNet;
}
