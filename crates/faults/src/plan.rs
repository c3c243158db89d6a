//! Fault plans: deterministic schedules of cloud-substrate disturbances.

use serde::{Deserialize, Serialize};
use stash_simkit::rng::DetRng;
use stash_simkit::time::{SimDuration, SimTime};

use crate::error::FaultError;

/// One kind of disturbance, with its parameters.
///
/// All windows are half-open `[at, at + duration)` on the simulation
/// clock; node and rank indices refer to the cluster the plan is applied
/// to (validated by [`FaultPlan::validate`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A node is revoked (spot preemption). Training pauses at the next
    /// iteration boundary; with `restart_after` the node rejoins after
    /// that delay and the iterations since the last checkpoint are
    /// replayed, otherwise the survivors re-form an elastic cluster and
    /// continue without the node.
    Preemption {
        /// Node that is revoked.
        node: usize,
        /// Replacement-capacity delay before the node rejoins; `None`
        /// means the node never comes back (elastic re-formation).
        restart_after: Option<SimDuration>,
    },
    /// One GPU runs slow for a window (thermal throttling, a noisy
    /// neighbor on the host): its compute intervals are stretched by
    /// `slowdown` while the window is open.
    StragglerWindow {
        /// Affected global rank.
        rank: usize,
        /// Window length.
        duration: SimDuration,
        /// Compute-time multiplier, `>= 1`.
        slowdown: f64,
    },
    /// A node's NIC degrades for a window (link flap / congested fabric):
    /// both directions keep only `factor` of their nominal capacity.
    LinkDegradation {
        /// Node whose NIC degrades.
        node: usize,
        /// Window length.
        duration: SimDuration,
        /// Remaining fraction of nominal bandwidth, in `(0, 1]`.
        factor: f64,
    },
    /// A node's storage volume browns out for a window: the SSD link
    /// keeps only `factor` of its nominal throughput and in-window
    /// fetches are retried once by the loader.
    DiskBrownout {
        /// Node whose volume browns out.
        node: usize,
        /// Window length.
        duration: SimDuration,
        /// Remaining fraction of nominal throughput, in `(0, 1]`.
        factor: f64,
    },
}

impl FaultKind {
    /// Short stable label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Preemption { .. } => "preemption",
            FaultKind::StragglerWindow { .. } => "straggler_window",
            FaultKind::LinkDegradation { .. } => "link_degradation",
            FaultKind::DiskBrownout { .. } => "disk_brownout",
        }
    }
}

/// A fault and the instant it fires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault fires on the simulation clock.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// The latest a fault may fire, and the longest a window, restart delay or
/// re-formation delay may last: one simulated year. The engine adds these
/// values to its clock; capping each one keeps every sum it forms far
/// below `u64::MAX` nanoseconds (about 584 years).
pub const MAX_FAULT_TIME: SimDuration = SimDuration::from_secs(365 * 24 * 3600);

/// How the engine reacts to faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// A checkpoint is taken every `checkpoint_every` iterations; on a
    /// preemption-with-restart the iterations since the last checkpoint
    /// are lost and replayed (billed as recovery stall).
    pub checkpoint_every: u64,
    /// Bucket-skew threshold for straggler detection on all-reduce: if
    /// the gap between the first and the last rank reaching a gradient
    /// bucket exceeds this, a detection is recorded.
    pub straggler_timeout: SimDuration,
    /// After each detection the timeout is multiplied by this backoff so
    /// a persistent straggler is flagged a bounded number of times rather
    /// than once per bucket.
    pub straggler_backoff: f64,
    /// Rendezvous + communicator-rebuild delay paid by the survivors when
    /// an elastic re-formation shrinks the cluster (a permanently
    /// preempted node), billed as recovery stall.
    pub reform_delay: SimDuration,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            checkpoint_every: 4,
            straggler_timeout: SimDuration::from_millis(20),
            straggler_backoff: 2.0,
            reform_delay: SimDuration::from_millis(500),
        }
    }
}

/// A deterministic schedule of faults plus the recovery policy.
///
/// # Examples
///
/// ```
/// use stash_faults::prelude::*;
/// use stash_simkit::time::SimDuration;
///
/// let plan = FaultPlan::seeded(7, 8, 2, SimDuration::from_secs(60));
/// assert!(!plan.is_empty());
/// assert_eq!(plan, FaultPlan::seeded(7, 8, 2, SimDuration::from_secs(60)));
/// plan.validate(8, 2).expect("seeded plans are always valid");
/// let json = plan.to_json();
/// assert_eq!(FaultPlan::from_json(&json).unwrap(), plan);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Scheduled faults, sorted by firing time.
    pub events: Vec<FaultEvent>,
    /// Recovery knobs.
    pub recovery: RecoveryPolicy,
}

/// Quantize to whole microseconds so JSON round-trips are exact and the
/// engine never sees sub-event-resolution jitter from float math.
fn quantize(d: SimDuration) -> SimDuration {
    SimDuration::from_micros(d.as_nanos() / 1_000)
}

impl FaultPlan {
    /// A plan with no faults: the engine must behave bit-identically to a
    /// fault-free run (enforced by the workspace differential tests).
    #[must_use]
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// `true` when no faults are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates a representative plan from a seed: one straggler window,
    /// one NIC degradation, one disk brownout, and one preemption (with a
    /// seed-chosen restart-or-elastic outcome), all placed inside
    /// `horizon`. The same `(seed, world, nodes, horizon)` always yields
    /// the same plan; multi-node clusters never preempt node 0 so the
    /// reporting rank survives elastic re-formation.
    #[must_use]
    pub fn seeded(seed: u64, world: usize, nodes: usize, horizon: SimDuration) -> FaultPlan {
        let world = world.max(1);
        let nodes = nodes.max(1);
        let mut rng = DetRng::new(seed);
        let at = |rng: &mut DetRng, lo: f64, hi: f64| {
            SimTime::ZERO + quantize(horizon.mul_f64(rng.uniform(lo, hi)))
        };
        let span = |rng: &mut DetRng, lo: f64, hi: f64| {
            quantize(horizon.mul_f64(rng.uniform(lo, hi))).max(SimDuration::from_micros(1))
        };
        let mut events = vec![
            FaultEvent {
                at: at(&mut rng, 0.10, 0.30),
                kind: FaultKind::StragglerWindow {
                    rank: rng.next_below(world as u64) as usize,
                    duration: span(&mut rng, 0.10, 0.20),
                    slowdown: round3(rng.uniform(1.3, 2.5)),
                },
            },
            FaultEvent {
                at: at(&mut rng, 0.30, 0.45),
                kind: FaultKind::LinkDegradation {
                    node: rng.next_below(nodes as u64) as usize,
                    duration: span(&mut rng, 0.05, 0.15),
                    factor: round3(rng.uniform(0.2, 0.6)),
                },
            },
            FaultEvent {
                at: at(&mut rng, 0.45, 0.60),
                kind: FaultKind::DiskBrownout {
                    node: rng.next_below(nodes as u64) as usize,
                    duration: span(&mut rng, 0.05, 0.15),
                    factor: round3(rng.uniform(0.2, 0.5)),
                },
            },
        ];
        let restart = nodes == 1 || rng.next_u64() & 1 == 0;
        let node = if nodes == 1 {
            0
        } else {
            1 + rng.next_below(nodes as u64 - 1) as usize
        };
        events.push(FaultEvent {
            at: at(&mut rng, 0.60, 0.75),
            kind: FaultKind::Preemption {
                node,
                restart_after: restart.then(|| span(&mut rng, 0.02, 0.05)),
            },
        });
        events.sort_by_key(|e| e.at);
        FaultPlan {
            events,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Checks every event against the target cluster shape and rejects
    /// hostile values with a typed error.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultError`] found: out-of-range rank/node,
    /// non-finite or out-of-range multipliers, zero-length windows, a
    /// firing time or delay beyond [`MAX_FAULT_TIME`], a node preempted
    /// twice, all nodes permanently preempted, or a malformed recovery
    /// policy.
    pub fn validate(&self, world: usize, nodes: usize) -> Result<(), FaultError> {
        let policy = &self.recovery;
        if policy.checkpoint_every == 0 {
            return Err(FaultError::InvalidValue {
                what: "checkpoint_every",
                value: 0.0,
            });
        }
        if !policy.straggler_backoff.is_finite() || policy.straggler_backoff < 1.0 {
            return Err(FaultError::InvalidValue {
                what: "straggler_backoff",
                value: policy.straggler_backoff,
            });
        }
        check_time("reform_delay", policy.reform_delay)?;
        let mut preempted = vec![false; nodes];
        let mut permanent = 0usize;
        for ev in &self.events {
            check_time("fault time", ev.at.duration_since(SimTime::ZERO))?;
            match &ev.kind {
                FaultKind::Preemption {
                    node,
                    restart_after,
                } => {
                    if *node >= nodes {
                        return Err(FaultError::NodeOutOfRange { node: *node, nodes });
                    }
                    if preempted[*node] {
                        return Err(FaultError::Unrecoverable(format!(
                            "node {node} is preempted more than once"
                        )));
                    }
                    preempted[*node] = true;
                    match restart_after {
                        Some(delay) => check_time("restart_after", *delay)?,
                        None => permanent += 1,
                    }
                }
                FaultKind::StragglerWindow {
                    rank,
                    duration,
                    slowdown,
                } => {
                    if *rank >= world {
                        return Err(FaultError::RankOutOfRange { rank: *rank, world });
                    }
                    if duration.is_zero() {
                        return Err(FaultError::EmptyWindow { what: "straggler" });
                    }
                    check_time("straggler window", *duration)?;
                    if !slowdown.is_finite() || *slowdown < 1.0 {
                        return Err(FaultError::InvalidValue {
                            what: "straggler slowdown",
                            value: *slowdown,
                        });
                    }
                }
                FaultKind::LinkDegradation {
                    node,
                    duration,
                    factor,
                } => {
                    if *node >= nodes {
                        return Err(FaultError::NodeOutOfRange { node: *node, nodes });
                    }
                    if duration.is_zero() {
                        return Err(FaultError::EmptyWindow {
                            what: "link degradation",
                        });
                    }
                    check_time("link degradation window", *duration)?;
                    check_factor("link degradation factor", *factor)?;
                }
                FaultKind::DiskBrownout {
                    node,
                    duration,
                    factor,
                } => {
                    if *node >= nodes {
                        return Err(FaultError::NodeOutOfRange { node: *node, nodes });
                    }
                    if duration.is_zero() {
                        return Err(FaultError::EmptyWindow {
                            what: "disk brownout",
                        });
                    }
                    check_time("disk brownout window", *duration)?;
                    check_factor("disk brownout factor", *factor)?;
                }
            }
        }
        if permanent >= nodes && permanent > 0 {
            return Err(FaultError::Unrecoverable(
                "every node is permanently preempted; no survivors remain".to_string(),
            ));
        }
        Ok(())
    }

    /// Serializes the plan as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }

    /// Parses a plan from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::Parse`] on truncated or malformed input.
    pub fn from_json(s: &str) -> Result<FaultPlan, FaultError> {
        serde_json::from_str(s).map_err(|e| FaultError::Parse(e.to_string()))
    }
}

fn check_time(what: &'static str, t: SimDuration) -> Result<(), FaultError> {
    if t > MAX_FAULT_TIME {
        return Err(FaultError::TimeOutOfRange {
            what,
            ns: t.as_nanos(),
        });
    }
    Ok(())
}

fn check_factor(what: &'static str, factor: f64) -> Result<(), FaultError> {
    if !factor.is_finite() || factor <= 0.0 || factor > 1.0 {
        return Err(FaultError::InvalidValue {
            what,
            value: factor,
        });
    }
    Ok(())
}

/// Round a generated multiplier to 3 decimals so the JSON encoding of a
/// seeded plan is short and round-trips exactly.
fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let plan = FaultPlan::empty();
        assert!(plan.is_empty());
        plan.validate(8, 2).expect("empty plan is valid");
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let horizon = SimDuration::from_secs(100);
        let a = FaultPlan::seeded(42, 16, 2, horizon);
        let b = FaultPlan::seeded(42, 16, 2, horizon);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(43, 16, 2, horizon);
        assert_ne!(a, c, "different seeds should produce different plans");
    }

    #[test]
    fn seeded_plans_validate_and_sort() {
        for seed in 0..32 {
            for (world, nodes) in [(1, 1), (8, 1), (16, 2), (32, 4)] {
                let plan = FaultPlan::seeded(seed, world, nodes, SimDuration::from_secs(30));
                plan.validate(world, nodes).expect("seeded plan valid");
                assert!(plan.events.windows(2).all(|w| w[0].at <= w[1].at));
            }
        }
    }

    #[test]
    fn seeded_multi_node_plans_never_preempt_node_zero() {
        for seed in 0..64 {
            let plan = FaultPlan::seeded(seed, 16, 4, SimDuration::from_secs(30));
            for ev in &plan.events {
                if let FaultKind::Preemption { node, .. } = ev.kind {
                    assert_ne!(node, 0, "seed {seed} preempted the reporting node");
                }
            }
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let plan = FaultPlan::seeded(7, 8, 2, SimDuration::from_secs(60));
        let back = FaultPlan::from_json(&plan.to_json()).expect("round trip");
        assert_eq!(back, plan);
    }

    #[test]
    fn truncated_json_is_a_typed_error() {
        let json = FaultPlan::seeded(7, 8, 2, SimDuration::from_secs(60)).to_json();
        let cut = &json[..json.len() / 2];
        match FaultPlan::from_json(cut) {
            Err(FaultError::Parse(_)) => {}
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn hostile_values_are_rejected() {
        let mk = |kind| FaultPlan {
            events: vec![FaultEvent {
                at: SimTime::ZERO,
                kind,
            }],
            recovery: RecoveryPolicy::default(),
        };
        // NaN slowdown.
        assert!(mk(FaultKind::StragglerWindow {
            rank: 0,
            duration: SimDuration::from_secs(1),
            slowdown: f64::NAN,
        })
        .validate(8, 2)
        .is_err());
        // Slowdown below 1 would speed the GPU up.
        assert!(mk(FaultKind::StragglerWindow {
            rank: 0,
            duration: SimDuration::from_secs(1),
            slowdown: 0.5,
        })
        .validate(8, 2)
        .is_err());
        // Zero-length window.
        assert!(mk(FaultKind::LinkDegradation {
            node: 0,
            duration: SimDuration::ZERO,
            factor: 0.5,
        })
        .validate(8, 2)
        .is_err());
        // Factor outside (0, 1].
        assert!(mk(FaultKind::DiskBrownout {
            node: 0,
            duration: SimDuration::from_secs(1),
            factor: 0.0,
        })
        .validate(8, 2)
        .is_err());
        assert!(mk(FaultKind::DiskBrownout {
            node: 0,
            duration: SimDuration::from_secs(1),
            factor: 1.5,
        })
        .validate(8, 2)
        .is_err());
        // Out-of-range targets.
        assert!(matches!(
            mk(FaultKind::StragglerWindow {
                rank: 99,
                duration: SimDuration::from_secs(1),
                slowdown: 1.5,
            })
            .validate(8, 2),
            Err(FaultError::RankOutOfRange { rank: 99, world: 8 })
        ));
        assert!(matches!(
            mk(FaultKind::Preemption {
                node: 9,
                restart_after: None,
            })
            .validate(8, 2),
            Err(FaultError::NodeOutOfRange { node: 9, nodes: 2 })
        ));
    }

    #[test]
    fn times_beyond_the_cap_are_rejected() {
        let (cap, over) = (MAX_FAULT_TIME, MAX_FAULT_TIME + SimDuration::from_nanos(1));
        let one = |at: SimDuration, kind| FaultPlan {
            events: vec![FaultEvent {
                at: SimTime::ZERO + at,
                kind,
            }],
            recovery: RecoveryPolicy::default(),
        };
        let straggler = |duration| FaultKind::StragglerWindow {
            rank: 0,
            duration,
            slowdown: 1.5,
        };
        let link = |duration| FaultKind::LinkDegradation {
            node: 0,
            duration,
            factor: 0.5,
        };
        let disk = |duration| FaultKind::DiskBrownout {
            node: 0,
            duration,
            factor: 0.5,
        };
        let preempt = |delay| FaultKind::Preemption {
            node: 0,
            restart_after: Some(delay),
        };
        let mut reform = FaultPlan::empty();
        reform.recovery.reform_delay = cap;
        reform
            .validate(8, 2)
            .expect("a reform delay at the cap is valid");
        for kind in [straggler(cap), link(cap), disk(cap), preempt(cap)] {
            one(cap, kind)
                .validate(8, 2)
                .expect("times at the cap are valid");
        }
        reform.recovery.reform_delay = over;
        let cases = [
            (one(over, straggler(cap)), "fault time"),
            (one(cap, straggler(over)), "straggler window"),
            (one(cap, link(over)), "link degradation window"),
            (one(cap, disk(over)), "disk brownout window"),
            (one(cap, preempt(over)), "restart_after"),
            (reform, "reform_delay"),
        ];
        for (plan, what) in cases {
            match plan.validate(8, 2) {
                Err(FaultError::TimeOutOfRange { what: w, .. }) => assert_eq!(w, what),
                other => panic!("{what}: expected TimeOutOfRange, got {other:?}"),
            }
        }
    }

    #[test]
    fn preempting_every_node_permanently_is_unrecoverable() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    at: SimTime::from_nanos(1),
                    kind: FaultKind::Preemption {
                        node: 0,
                        restart_after: None,
                    },
                },
                FaultEvent {
                    at: SimTime::from_nanos(2),
                    kind: FaultKind::Preemption {
                        node: 1,
                        restart_after: None,
                    },
                },
            ],
            recovery: RecoveryPolicy::default(),
        };
        assert!(matches!(
            plan.validate(16, 2),
            Err(FaultError::Unrecoverable(_))
        ));
    }

    #[test]
    fn bad_recovery_policy_is_rejected() {
        let mut plan = FaultPlan::empty();
        plan.recovery.checkpoint_every = 0;
        assert!(plan.validate(8, 2).is_err());
        let mut plan = FaultPlan::empty();
        plan.recovery.straggler_backoff = 0.5;
        assert!(plan.validate(8, 2).is_err());
    }
}
