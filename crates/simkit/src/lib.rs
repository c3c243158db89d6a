//! # stash-simkit — deterministic discrete-event simulation engine
//!
//! The foundation of the Stash reproduction: a minimal, fully deterministic
//! discrete-event simulation (DES) toolkit. Higher layers (the flow-level
//! network simulator, the data pipeline, the distributed-training engine)
//! drive an [`queue::EventQueue`] themselves — the engine deliberately does
//! *not* own user state, which keeps borrows simple and replay exact.
//!
//! Components:
//!
//! * [`time`] — integer-nanosecond [`time::SimTime`] / [`time::SimDuration`];
//! * [`queue`] — deterministic priority queue with FIFO tie-breaking and
//!   cancellation;
//! * [`rng`] — seedable `xoshiro256**` PRNG with stream forking;
//! * [`stats`] — Welford summaries and time-weighted means.
//!
//! # Examples
//!
//! A tiny two-event simulation:
//!
//! ```
//! use stash_simkit::prelude::*;
//!
//! #[derive(Debug)]
//! enum Ev { Ping, Pong }
//!
//! let mut q: EventQueue<Ev> = EventQueue::new();
//! q.schedule_in(SimDuration::from_micros(10), Ev::Ping);
//! let mut log = Vec::new();
//! while let Some((t, ev)) = q.pop() {
//!     match ev {
//!         Ev::Ping => {
//!             log.push((t, "ping"));
//!             q.schedule_in(SimDuration::from_micros(5), Ev::Pong);
//!         }
//!         Ev::Pong => log.push((t, "pong")),
//!     }
//! }
//! assert_eq!(log.len(), 2);
//! assert_eq!(q.now().as_nanos(), 15_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::queue::{EventKey, EventQueue};
    pub use crate::rng::DetRng;
    pub use crate::stats::{Summary, TimeWeighted};
    pub use crate::time::{SimDuration, SimTime};
}
