//! Typed errors for fault-plan construction and validation.

use std::error::Error;
use std::fmt;

/// Why a [`FaultPlan`](crate::plan::FaultPlan) was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A fault referenced a rank outside the cluster's world.
    RankOutOfRange {
        /// Offending rank.
        rank: usize,
        /// World size of the target cluster.
        world: usize,
    },
    /// A fault referenced a node outside the cluster.
    NodeOutOfRange {
        /// Offending node index.
        node: usize,
        /// Node count of the target cluster.
        nodes: usize,
    },
    /// A numeric knob was NaN, infinite, or outside its legal range.
    InvalidValue {
        /// Which knob was bad.
        what: &'static str,
        /// The hostile value, rendered for the message.
        value: f64,
    },
    /// A fault window had zero duration.
    EmptyWindow {
        /// Which fault kind carried the empty window.
        what: &'static str,
    },
    /// A firing time, window, restart delay or re-formation delay exceeded
    /// [`MAX_FAULT_TIME`](crate::plan::MAX_FAULT_TIME).
    TimeOutOfRange {
        /// Which value was too large.
        what: &'static str,
        /// The value, in nanoseconds.
        ns: u64,
    },
    /// Windows open at once compound past
    /// [`MAX_SLOWDOWN`](crate::plan::MAX_SLOWDOWN): a rank's straggler
    /// slowdowns multiply to more than it, or a node's link or disk
    /// factors to less than its inverse.
    CompoundOutOfRange {
        /// Which product, and of what kind of target.
        what: &'static str,
        /// The rank or node the windows target.
        target: usize,
        /// The product of the open windows' multipliers.
        value: f64,
    },
    /// The plan's JSON encoding could not be parsed.
    Parse(String),
    /// The plan is structurally impossible to execute (e.g. every node
    /// preempted with no survivors and no restart).
    Unrecoverable(String),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::RankOutOfRange { rank, world } => {
                write!(
                    f,
                    "fault targets rank {rank} but the world has {world} ranks"
                )
            }
            FaultError::NodeOutOfRange { node, nodes } => {
                write!(
                    f,
                    "fault targets node {node} but the cluster has {nodes} nodes"
                )
            }
            FaultError::InvalidValue { what, value } => {
                write!(f, "invalid {what}: {value}")
            }
            FaultError::EmptyWindow { what } => {
                write!(f, "{what} window has zero duration")
            }
            FaultError::TimeOutOfRange { what, ns } => write!(
                f,
                "{what} of {ns} ns exceeds the one-year cap ({} ns)",
                crate::plan::MAX_FAULT_TIME.as_nanos()
            ),
            FaultError::CompoundOutOfRange {
                what,
                target,
                value,
            } => write!(
                f,
                "{what} {target} compounds to {value:e} over the windows open at once, \
                 past the {}x bound",
                crate::plan::MAX_SLOWDOWN
            ),
            FaultError::Parse(msg) => write!(f, "invalid fault plan JSON: {msg}"),
            FaultError::Unrecoverable(msg) => write!(f, "unrecoverable fault plan: {msg}"),
        }
    }
}

impl Error for FaultError {}
