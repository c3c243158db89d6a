//! Fault injection must be a strict superset of the fault-free engine:
//! with an empty [`FaultPlan`] every [`EpochReport`] bit matches the
//! plain entry points (fast-forward on and off, synthetic and real data,
//! static stragglers included), seeded and hand-written plans are
//! run-to-run deterministic and fast-forward invariant (real-data epochs
//! included) while fast-forward skips between their fault events but
//! never across one, and on factor-1 runs the faulted accumulators tile
//! the wall clock at integer-nanosecond exactness.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::cell::RefCell;
use std::rc::Rc;

use stash::prelude::*;
use stash::telemetry::series::IterSeries;

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

/// Requires that no fast-forwarded series bucket strictly contains a
/// fault annotation's start or end, or overlaps a preemption's recovery:
/// a skip lands before the next fault event and never starts while a
/// preemption is being recovered from.
fn assert_no_skip_spans_a_fault(series: &IterSeries, what: &str) {
    for s in series.samples.iter().filter(|s| s.ff_iterations > 0) {
        let (start, end) = (s.start_ns, s.start_ns + s.wall_ns);
        let inside = |t: u64| start < t && t < end;
        for a in &series.annotations {
            assert!(
                !inside(a.start_ns) && !inside(a.end_ns),
                "{what}: skipped span {start}..{end} ns crosses {} ({}..{} ns)",
                a.label,
                a.start_ns,
                a.end_ns
            );
            assert!(
                a.kind != "preemption" || end <= a.start_ns || a.end_ns <= start,
                "{what}: skipped span {start}..{end} ns overlaps the recovery of {} ({}..{} ns)",
                a.label,
                a.start_ns,
                a.end_ns
            );
        }
    }
}

/// Runs `plan` with fast-forward on, recording the series, and off;
/// requires equal [`FaultedRun`]s (blame included) and no skipped span
/// across a fault transition. Returns the run and its series.
fn assert_ff_invariant(
    cfg: &TrainConfig,
    plan: &FaultPlan,
    what: &str,
) -> (FaultedRun, IterSeries) {
    let mut series = IterSeries::default();
    let on = Run {
        plan: Some(plan),
        series: Some(&mut series),
        ..Run::default()
    }
    .epoch(cfg)
    .expect("fast-forward on");
    let off = Run {
        options: EngineOptions {
            fast_forward: false,
        },
        plan: Some(plan),
        ..Run::default()
    }
    .epoch(cfg)
    .expect("fast-forward off");
    assert_eq!(on, off, "{what}: drifted across fast-forward");
    assert_no_skip_spans_a_fault(&series, what);
    (on, series)
}

/// The benchmark's chaos cell: a 48-iteration synthetic epoch.
fn chaos_cfg(cluster: ClusterSpec, model: Model) -> TrainConfig {
    let mut cfg = TrainConfig::synthetic(cluster, model, 32, 32 * 48);
    cfg.epoch_mode = EpochMode::Full;
    cfg
}

/// The benchmark's chaos cells under their seeded plans: fast-forward
/// keys the state between fault events, open windows included, and
/// every run skips before its plan resolves.
#[test]
fn chaos_cells_skip_between_faults() {
    let shapes = [
        ClusterSpec::homogeneous(p3_8xlarge(), 2),
        ClusterSpec::single(p3_16xlarge()),
        ClusterSpec::homogeneous(p2_8xlarge(), 2),
        ClusterSpec::homogeneous(p3_2xlarge(), 4),
    ];
    for cluster in shapes {
        for model in zoo::small_models() {
            let cfg = chaos_cfg(cluster.clone(), model);
            let base = run_epoch(&cfg).expect("baseline");
            let (world, nodes) = (cfg.cluster.world_size(), cfg.cluster.node_count());
            for seed in 1..=3 {
                let what = format!(
                    "{} on {} (plan seed {seed})",
                    cfg.model.name,
                    cluster.display_name()
                );
                let plan = FaultPlan::seeded(seed, world, nodes, base.epoch_time);
                let (_, series) = assert_ff_invariant(&cfg, &plan, &what);
                let resolved = series.annotations.iter().map(|a| a.end_ns).max();
                assert!(
                    series
                        .samples
                        .iter()
                        .any(|s| s.ff_iterations > 0 && Some(s.start_ns) < resolved),
                    "{what}: no skip before the plan resolved at {resolved:?} ns"
                );
            }
        }
    }
}

/// Hand-written plans that put fault events where the skip bound is
/// tight: exactly on the fault-free run's iteration boundaries, windows
/// back to back with no gap between them, and a window still open when
/// the epoch ends. On one GPU nothing else is pending at a boundary, so
/// the clock alone bounds the skip: a skip that landed on a fault's own
/// boundary would open its window one forward pass late.
#[test]
fn hand_written_plans_bound_the_skip() {
    for cluster in [
        ClusterSpec::homogeneous(p3_8xlarge(), 2),
        ClusterSpec::single(p3_2xlarge()),
    ] {
        let cfg = chaos_cfg(cluster.clone(), zoo::resnet18());
        let (last_rank, last_node) = (cfg.cluster.world_size() - 1, cfg.cluster.node_count() - 1);
        let mut base_series = IterSeries::default();
        let base = Run {
            options: EngineOptions {
                fast_forward: false,
            },
            series: Some(&mut base_series),
            ..Run::default()
        }
        .epoch(&cfg)
        .expect("baseline")
        .report;
        // End of each iteration of the fault-free run's reporting rank.
        let boundary: Vec<SimTime> = base_series
            .samples
            .iter()
            .map(|s| SimTime::from_nanos(s.start_ns + s.wall_ns))
            .collect();
        assert_eq!(boundary.len(), 48);
        let between = |a: usize, b: usize| boundary[b].duration_since(boundary[a]);
        let event = |at: SimTime, kind: FaultKind| FaultEvent { at, kind };
        let straggler = |rank: usize, duration: SimDuration| FaultKind::StragglerWindow {
            rank,
            duration,
            slowdown: 1.5,
        };
        let link = |node: usize, duration: SimDuration| FaultKind::LinkDegradation {
            node,
            duration,
            factor: 0.5,
        };
        let plan = |events: Vec<FaultEvent>| {
            let mut plan = FaultPlan::empty();
            plan.events = events;
            plan
        };

        let on_boundaries = plan(vec![
            event(boundary[5], straggler(0, between(5, 12))),
            event(boundary[18], link(last_node, between(18, 26))),
            event(
                boundary[30],
                FaultKind::Preemption {
                    node: last_node,
                    restart_after: Some(between(30, 32)),
                },
            ),
            event(boundary[38], straggler(last_rank, between(38, 41))),
        ]);
        let third = base.epoch_time / 3;
        let back_to_back = plan(vec![
            event(boundary[6], straggler(last_rank, third)),
            event(boundary[6] + third, straggler(last_rank, third / 2)),
            event(boundary[6] + third + third / 2, link(0, third / 2)),
        ]);
        let open_at_end = plan(vec![
            event(boundary[4], link(last_node, base.epoch_time * 10)),
            event(boundary[20], straggler(0, base.epoch_time * 10)),
        ]);
        for (kind, plan) in [
            ("faults on iteration boundaries", on_boundaries),
            ("back-to-back windows", back_to_back),
            ("windows open at the epoch's end", open_at_end),
        ] {
            let what = format!("{kind} on {}", cluster.display_name());
            let (_, series) = assert_ff_invariant(&cfg, &plan, &what);
            assert!(
                series.totals().ff_iterations > 0,
                "{what}: fast-forward never skipped"
            );
        }
    }
}

/// A cold real-data epoch whose seeded plan fires and resolves in its
/// first quarter: fast-forward keys the state between fault events and
/// the state a resolved plan leaves behind (restored SSD and NIC
/// capacities, a cleared brownout flag, loaders after a preemption) and
/// may skip. The run must be bit-identical either way, and no skipped
/// span may cross a fault transition.
#[test]
fn faulted_real_data_is_fast_forward_invariant() {
    let mut cfg = TrainConfig::synthetic(
        ClusterSpec::homogeneous(p3_8xlarge(), 2),
        zoo::resnet18(),
        32,
        32 * 48,
    );
    cfg.data = DataMode::Real {
        dataset: DatasetSpec::imagenet1k(),
        cache: CacheState::Cold,
    };
    cfg.epoch_mode = EpochMode::Full;
    let base = run_epoch(&cfg).expect("baseline");
    let horizon = base.epoch_time / 4;
    let mut skipped_seeds = 0;
    for seed in [1, 7, 23] {
        let plan = FaultPlan::seeded(seed, cfg.cluster.world_size(), 2, horizon);
        let (on, series) = assert_ff_invariant(&cfg, &plan, &format!("seed {seed}"));
        assert!(
            on.faults.events.iter().all(|e| e.fired),
            "seed {seed}: every planned fault must fire inside the epoch"
        );
        if series.totals().ff_iterations > 0 {
            skipped_seeds += 1;
        }
    }
    assert!(skipped_seeds > 0, "no seed skipped");
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

/// A firing time, window or delay beyond the one-year cap, or a
/// slowdown or bandwidth factor past `MAX_SLOWDOWN`, is a typed error:
/// unchecked, the engine's `at + duration`, `now + restart_after` and
/// stretched compute intervals overflow the simulated clock (a panic in
/// debug builds, wrapped times and wrong results in release builds), and
/// a link throttled to almost nothing stalls the run until the engine's
/// event budget panics.
#[test]
fn oversized_fault_times_are_rejected_before_the_clock_overflows() {
    let full_epoch = |cluster| {
        let mut cfg = TrainConfig::synthetic(cluster, zoo::resnet18(), 32, 32 * 16);
        cfg.epoch_mode = EpochMode::Full;
        cfg
    };
    let single = || ClusterSpec::single(p3_2xlarge());
    let recovery = r#"{"checkpoint_every":4,"straggler_timeout":20000000,
        "straggler_backoff":2.0,"reform_delay":500000000}"#;
    for (cluster, kind) in [
        (
            single(),
            r#"{"StragglerWindow":{"rank":0,"duration":18446744073709551615,"slowdown":1.5}}"#,
        ),
        (
            single(),
            r#"{"Preemption":{"node":0,"restart_after":18446744073709551615}}"#,
        ),
        (
            single(),
            r#"{"StragglerWindow":{"rank":0,"duration":1000000000,"slowdown":1e30}}"#,
        ),
        (
            ClusterSpec::homogeneous(p3_8xlarge(), 2),
            r#"{"LinkDegradation":{"node":0,"duration":1000000000,"factor":1e-300}}"#,
        ),
    ] {
        let json = format!(r#"{{"events":[{{"at":1000,"kind":{kind}}}],"recovery":{recovery}}}"#);
        let plan = FaultPlan::from_json(&json).expect("plan parses");
        let run = Run {
            plan: Some(&plan),
            ..Run::default()
        }
        .epoch(&full_epoch(cluster));
        assert!(
            matches!(run, Err(TrainError::InvalidFaultPlan(_))),
            "{kind}: expected InvalidFaultPlan, got {run:?}"
        );
    }
    let mut straggling = full_epoch(single());
    straggling.straggler = Some(Straggler {
        rank: 0,
        slowdown: 1e30,
    });
    let run = run_epoch(&straggling);
    assert!(
        matches!(run, Err(TrainError::InvalidConfig(_))),
        "static 1e30 straggler: expected InvalidConfig, got {run:?}"
    );
}
