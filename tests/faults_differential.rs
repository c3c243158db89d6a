//! Fault injection must be a strict superset of the fault-free engine:
//! with an empty [`FaultPlan`] every [`EpochReport`] bit matches the
//! plain entry points (fast-forward on and off, synthetic and real data,
//! static stragglers included), seeded plans are run-to-run
//! deterministic, and on factor-1 runs the faulted accumulators tile the
//! wall clock at integer-nanosecond exactness.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::cell::RefCell;
use std::rc::Rc;

use stash::prelude::*;

fn clusters() -> Vec<ClusterSpec> {
    vec![
        ClusterSpec::single(p3_2xlarge()),
        ClusterSpec::single(p3_16xlarge()),
        ClusterSpec::single(p2_16xlarge()),
        ClusterSpec::homogeneous(p3_8xlarge(), 2),
    ]
}

fn assert_identical(cfg: &TrainConfig, what: &str) {
    for fast_forward in [false, true] {
        let options = EngineOptions { fast_forward };
        let plain = Run {
            options: options.clone(),
            ..Run::default()
        }
        .epoch(cfg)
        .expect("plain epoch")
        .report;
        let faulted = Run {
            options,
            plan: Some(&FaultPlan::empty()),
            ..Run::default()
        }
        .epoch(cfg)
        .expect("faulted epoch");
        assert_eq!(
            plain, faulted.report,
            "empty plan drifted for {what} (fast_forward={fast_forward})"
        );
        assert_eq!(
            faulted.faults,
            FaultOutcome::default(),
            "empty plan produced fault observations for {what}"
        );
    }
}

#[test]
fn empty_plan_is_bit_identical_across_the_zoo() {
    for cluster in clusters() {
        for model in zoo::small_models() {
            let name = model.name.clone();
            let mut cfg = TrainConfig::synthetic(cluster.clone(), model, 32, 32 * 64);
            cfg.epoch_mode = EpochMode::Sampled { iterations: 12 };
            assert_identical(&cfg, &format!("{name} on {}", cluster.display_name()));
        }
    }
}

#[test]
fn empty_plan_is_bit_identical_with_real_data_and_static_straggler() {
    let mut cfg = TrainConfig::synthetic(
        ClusterSpec::single(p3_16xlarge()),
        zoo::resnet18(),
        32,
        32 * 64,
    );
    cfg.epoch_mode = EpochMode::Sampled { iterations: 12 };
    cfg.data = DataMode::Real {
        dataset: DatasetSpec::imagenet1k(),
        cache: CacheState::Warm,
    };
    assert_identical(&cfg, "real-data resnet18");

    let mut cfg = TrainConfig::synthetic(
        ClusterSpec::single(p3_16xlarge()),
        zoo::resnet18(),
        32,
        32 * 64,
    );
    cfg.epoch_mode = EpochMode::Sampled { iterations: 12 };
    cfg.straggler = Some(Straggler {
        rank: 3,
        slowdown: 1.7,
    });
    assert_identical(&cfg, "static-straggler resnet18");
}

#[test]
fn seeded_plans_are_deterministic_across_runs_and_fast_forward() {
    let mut cfg = TrainConfig::synthetic(
        ClusterSpec::homogeneous(p3_8xlarge(), 2),
        zoo::resnet18(),
        32,
        32 * 16,
    );
    cfg.epoch_mode = EpochMode::Full;
    let base = run_epoch(&cfg).expect("baseline");
    for seed in [1, 7, 23] {
        let plan = FaultPlan::seeded(seed, cfg.cluster.world_size(), 2, base.epoch_time);
        let faulted = || Run {
            plan: Some(&plan),
            ..Run::default()
        };
        let a = faulted().epoch(&cfg).expect("a");
        let b = faulted().epoch(&cfg).expect("b");
        assert_eq!(a, b, "seed {seed} not deterministic");
        let no_ff = Run {
            options: EngineOptions {
                fast_forward: false,
            },
            ..faulted()
        }
        .epoch(&cfg)
        .expect("no ff");
        assert_eq!(a, no_ff, "seed {seed} drifted across fast-forward");
    }
}

/// On a factor-1 run the rank-0 accumulators must tile the epoch to the
/// nanosecond and the trace must corroborate every category exactly.
#[test]
fn faulted_accumulators_tile_and_reconcile_with_the_trace() {
    let mut cfg = TrainConfig::synthetic(
        ClusterSpec::single(p3_16xlarge()),
        zoo::resnet18(),
        32,
        32 * 12,
    );
    cfg.epoch_mode = EpochMode::Full;
    cfg.record_trace = true;
    let base = run_epoch(&cfg).expect("baseline");

    // One straggler window on the reporting rank plus a restart-style
    // preemption: both recovery and straggler stall are non-zero.
    let mut plan = FaultPlan::empty();
    plan.recovery.checkpoint_every = 4;
    plan.events.push(FaultEvent {
        at: SimTime::ZERO + base.epoch_time.mul_f64(0.2),
        kind: FaultKind::StragglerWindow {
            rank: 0,
            duration: base.epoch_time.mul_f64(0.2),
            slowdown: 1.9,
        },
    });
    plan.events.push(FaultEvent {
        at: SimTime::ZERO + base.epoch_time.mul_f64(0.55),
        kind: FaultKind::Preemption {
            node: 0,
            restart_after: Some(base.epoch_time.mul_f64(0.08)),
        },
    });

    let sink = Rc::new(RefCell::new(JsonSink::new()));
    let tracer = shared(Tracer::new(sink.clone()));
    let run = Run {
        plan: Some(&plan),
        tracer: Some(&tracer),
        ..Run::default()
    }
    .epoch(&cfg)
    .expect("faulted");
    let r = &run.report;
    assert!(r.recovery_time > SimDuration::ZERO);
    assert!(r.straggler_time > SimDuration::ZERO);
    assert!(run.faults.replayed_iterations > 0);

    // Integer-nanosecond conservation of the rank-0 timeline.
    let accounted = r.compute_time + r.data_wait + r.comm_wait + r.recovery_time + r.straggler_time;
    assert_eq!(
        accounted.as_nanos(),
        r.epoch_time.as_nanos(),
        "faulted accumulators must tile the epoch exactly"
    );

    // Trace rollup reconciliation, category by category.
    let events = sink.borrow().events().to_vec();
    let path = CriticalPath::from_events(&events, 0, Track::gpu(0, 0));
    let raw = |cats: &[PathCategory]| {
        SimDuration::from_nanos(cats.iter().map(|&c| path.total_ns(c)).sum::<u64>())
    };
    let checks = [
        (
            "compute",
            raw(&[PathCategory::Compute, PathCategory::Overlap]),
            r.compute_time,
        ),
        (
            "data-wait",
            raw(&[PathCategory::Prep, PathCategory::Fetch]),
            r.data_wait,
        ),
        (
            "comm-wait",
            raw(&[PathCategory::Interconnect, PathCategory::Network]),
            r.comm_wait,
        ),
        ("recovery", raw(&[PathCategory::Recovery]), r.recovery_time),
        (
            "straggler",
            raw(&[PathCategory::Straggler]),
            r.straggler_time,
        ),
    ];
    for (what, traced, engine) in checks {
        assert_eq!(traced, engine, "traced {what} diverged from the engine");
    }
}

/// Elastic re-formation keeps the survivors' books exact and retires the
/// dead node's ranks and samples.
#[test]
fn elastic_reformation_conserves_survivor_time() {
    let mut cfg = TrainConfig::synthetic(
        ClusterSpec::homogeneous(p3_8xlarge(), 2),
        zoo::resnet18(),
        32,
        32 * 12,
    );
    cfg.epoch_mode = EpochMode::Full;
    let base = run_epoch(&cfg).expect("baseline");
    let mut plan = FaultPlan::empty();
    plan.events.push(FaultEvent {
        at: SimTime::ZERO + base.epoch_time.mul_f64(0.5),
        kind: FaultKind::Preemption {
            node: 1,
            restart_after: None,
        },
    });
    let run = Run {
        plan: Some(&plan),
        ..Run::default()
    }
    .epoch(&cfg)
    .expect("faulted");
    let r = &run.report;
    assert_eq!(run.faults.dead_nodes, vec![1]);
    assert_eq!(r.world, base.world / 2);
    assert!(r.samples < base.samples);
    let accounted = r.compute_time + r.data_wait + r.comm_wait + r.recovery_time + r.straggler_time;
    assert_eq!(accounted.as_nanos(), r.epoch_time.as_nanos());
}

/// A firing time, window or delay beyond the one-year cap is a typed
/// error: unchecked, the engine's `at + duration` and `now + restart_after`
/// overflow the simulated clock (a panic in debug builds, wrapped times
/// and wrong results in release builds).
#[test]
fn oversized_fault_times_are_rejected_before_the_clock_overflows() {
    let mut cfg = TrainConfig::synthetic(
        ClusterSpec::single(p3_2xlarge()),
        zoo::resnet18(),
        32,
        32 * 16,
    );
    cfg.epoch_mode = EpochMode::Full;
    let recovery = r#"{"checkpoint_every":4,"straggler_timeout":20000000,
        "straggler_backoff":2.0,"reform_delay":500000000}"#;
    for kind in [
        r#"{"StragglerWindow":{"rank":0,"duration":18446744073709551615,"slowdown":1.5}}"#,
        r#"{"Preemption":{"node":0,"restart_after":18446744073709551615}}"#,
    ] {
        let json = format!(r#"{{"events":[{{"at":1000,"kind":{kind}}}],"recovery":{recovery}}}"#);
        let plan = FaultPlan::from_json(&json).expect("plan parses");
        let run = Run {
            plan: Some(&plan),
            ..Run::default()
        }
        .epoch(&cfg);
        assert!(
            matches!(run, Err(TrainError::InvalidFaultPlan(_))),
            "{kind}: expected InvalidFaultPlan, got {run:?}"
        );
    }
}
