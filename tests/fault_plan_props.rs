//! Hostile fault plans never panic the engine: every plan either runs to
//! completion or is refused with a typed `InvalidFaultPlan` error.
//!
//! Each case builds a plan with one event of each kind. Every field is
//! drawn from in-range values, the validation bounds and values just
//! past them, and extremes (0, 1e-300, 1e30, `f64::MAX`, NaN, times up
//! to `u64::MAX`), then the plan runs on a sampled ShuffleNet epoch on
//! two networked p3.8xlarge. A panic fails the case with the plan
//! printed as JSON, so any failure replays with `stash chaos --plan`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use proptest::TestRng;
use stash::faults::plan::{MAX_FAULT_TIME, MAX_SLOWDOWN};
use stash::prelude::*;

/// Ranks in the world, nodes in the cluster of [`epoch`].
const WORLD: usize = 8;
const NODES: usize = 2;

/// A sampled real-data ShuffleNet epoch on two networked p3.8xlarge, so
/// every fault kind has something to slow: compute, the NIC and the
/// disk.
fn epoch() -> TrainConfig {
    let cluster = ClusterSpec::homogeneous(p3_8xlarge(), 2);
    let mut cfg = TrainConfig::synthetic(cluster, zoo::shufflenet(), 32, 32 * 64);
    cfg.epoch_mode = EpochMode::Sampled { iterations: 4 };
    cfg.data = DataMode::Real {
        dataset: DatasetSpec::imagenet_scaled(0.01),
        cache: CacheState::Cold,
    };
    cfg
}

/// One value from `valid`, or, one draw in sixteen, from `hostile`: a
/// plan has 14 drawn fields, so about 40% of plans are valid and run.
fn draw<T: Copy>(rng: &mut TestRng, valid: &[T], hostile: &[T]) -> T {
    let pool = if rng.below(16) == 0 { hostile } else { valid };
    pool[rng.below(pool.len() as u64) as usize]
}

/// Plans with one event of each kind, every field drawn from its valid
/// values (the bounds included) or from hostile ones.
struct HostilePlans;

impl Strategy for HostilePlans {
    type Value = FaultPlan;

    fn new_value(&self, rng: &mut TestRng) -> FaultPlan {
        let cap = MAX_FAULT_TIME.as_nanos();
        let (times, late) = ([0, 1_000, 2_000_000, 40_000_000, cap], [cap + 1, u64::MAX]);
        let (spans, bad_spans) = ([1_000, 2_000_000, 40_000_000, cap], [0, cap + 1, u64::MAX]);
        let floor = 1.0 / MAX_SLOWDOWN;
        let slowdowns = [1.0, 1.7, MAX_SLOWDOWN];
        let bad_slowdowns = [
            f64::from_bits(MAX_SLOWDOWN.to_bits() + 1),
            0.0,
            1e-300,
            1e30,
            f64::MAX,
            f64::NAN,
        ];
        let factors = [1.0, 0.4, floor];
        let bad_factors = [
            f64::from_bits(floor.to_bits() - 1),
            0.0,
            1e-300,
            1e30,
            f64::MAX,
            f64::NAN,
        ];
        let (ranks, bad_ranks) = ([0, 1, WORLD - 1], [WORLD, usize::MAX]);
        let (nodes, bad_nodes) = ([0, NODES - 1], [NODES, usize::MAX]);
        let at = |rng: &mut TestRng| SimTime::from_nanos(draw(rng, &times, &late));
        let span = |rng: &mut TestRng| SimDuration::from_nanos(draw(rng, &spans, &bad_spans));
        let mut events = vec![
            FaultEvent {
                at: at(rng),
                kind: FaultKind::StragglerWindow {
                    rank: draw(rng, &ranks, &bad_ranks),
                    duration: span(rng),
                    slowdown: draw(rng, &slowdowns, &bad_slowdowns),
                },
            },
            FaultEvent {
                at: at(rng),
                kind: FaultKind::LinkDegradation {
                    node: draw(rng, &nodes, &bad_nodes),
                    duration: span(rng),
                    factor: draw(rng, &factors, &bad_factors),
                },
            },
            FaultEvent {
                at: at(rng),
                kind: FaultKind::DiskBrownout {
                    node: draw(rng, &nodes, &bad_nodes),
                    duration: span(rng),
                    factor: draw(rng, &factors, &bad_factors),
                },
            },
            FaultEvent {
                at: at(rng),
                kind: FaultKind::Preemption {
                    node: draw(rng, &nodes, &bad_nodes),
                    restart_after: (rng.below(2) == 0)
                        .then(|| SimDuration::from_nanos(draw(rng, &times, &late))),
                },
            },
        ];
        events.sort_by_key(|e| e.at);
        FaultPlan {
            events,
            recovery: RecoveryPolicy::default(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every hostile plan runs or is refused with a typed error.
    #[test]
    fn hostile_fault_plans_never_panic(plan in HostilePlans) {
        let cfg = epoch();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Run {
                plan: Some(&plan),
                ..Run::default()
            }
            .epoch(&cfg)
        }));
        let verdict = match &outcome {
            Ok(Ok(_)) => "ran".to_string(),
            Ok(Err(TrainError::InvalidFaultPlan(_))) => "refused".to_string(),
            Ok(Err(e)) => format!("wrong error: {e}"),
            Err(_) => "panicked".to_string(),
        };
        prop_assert!(
            matches!(verdict.as_str(), "ran" | "refused"),
            "{verdict} on plan {}",
            plan.to_json()
        );
    }
}

/// A plan exactly at the bound — the worst straggler, link and disk
/// windows it admits, open for a simulated year — runs to completion.
#[test]
fn a_plan_at_the_slowdown_bound_runs_to_completion() {
    let year = MAX_FAULT_TIME;
    let window = |kind| FaultEvent {
        at: SimTime::ZERO,
        kind,
    };
    let plan = FaultPlan {
        events: vec![
            window(FaultKind::StragglerWindow {
                rank: 0,
                duration: year,
                slowdown: MAX_SLOWDOWN,
            }),
            window(FaultKind::LinkDegradation {
                node: 0,
                duration: year,
                factor: 1.0 / MAX_SLOWDOWN,
            }),
            window(FaultKind::DiskBrownout {
                node: 1,
                duration: year,
                factor: 1.0 / MAX_SLOWDOWN,
            }),
        ],
        recovery: RecoveryPolicy::default(),
    };
    let cfg = epoch();
    let faulted = Run {
        plan: Some(&plan),
        ..Run::default()
    }
    .epoch(&cfg)
    .expect("a plan at the bound runs");
    let plain = run_epoch(&cfg).expect("plain epoch");
    assert!(
        faulted.report.epoch_time > plain.epoch_time,
        "the windows must slow the epoch: {:?} vs {:?}",
        faulted.report.epoch_time,
        plain.epoch_time
    );
}
