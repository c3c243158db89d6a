//! Every way of running an epoch is the same epoch: combining a reused
//! [`EngineArena`], a recording tracer, an iteration series and an empty
//! [`FaultPlan`] in one [`Run`] returns exactly the plain
//! [`run_epoch`] report with an empty fault outcome, across the
//! differential zoo with fast-forward on and off, and every series it
//! records reconciles with its report at integer-nanosecond exactness.
//!
//! Nothing here touches the process-wide telemetry switch: a series is
//! recorded because the run asks for one.

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

/// The series totals, extrapolated like the report's accumulators, must
/// equal them to the nanosecond.
fn assert_reconciles(report: &EpochReport, series: &IterSeries, what: &str) {
    let t = series.totals();
    assert_eq!(t.iterations, report.simulated_iterations, "{what}: count");
    let factor = report.iterations as f64 / report.simulated_iterations as f64;
    let accounts = [
        ("compute", report.compute_time, t.compute_ns),
        ("data_wait", report.data_wait, t.data_wait_ns),
        ("comm_wait", report.comm_wait, t.comm_wait_ns),
        ("recovery", report.recovery_time, t.recovery_ns),
        ("straggler", report.straggler_time, t.straggler_ns),
    ];
    for (cat, engine, ns) in accounts {
        let ns = u64::try_from(ns).unwrap_or_else(|_| panic!("{what}: negative {cat}"));
        let scaled = SimDuration::from_nanos(ns).mul_f64(factor);
        assert_eq!(engine, scaled, "{what}: {cat} drift");
    }
}

#[test]
fn every_run_combination_matches_the_plain_run() {
    // (name, reused arena, recording tracer, series, empty plan)
    let combos = [
        ("arena + tracer", true, true, false, false),
        ("arena + series", true, false, true, false),
        ("empty plan + tracer + arena", true, true, false, true),
        ("tracer + series", false, true, true, false),
    ];
    let mut arena = EngineArena::new();
    let empty = FaultPlan::empty();
    for cluster in clusters() {
        for model in zoo::small_models() {
            let mut cfg = TrainConfig::synthetic(cluster.clone(), model.clone(), 32, 32 * 64);
            cfg.epoch_mode = EpochMode::Sampled { iterations: 12 };
            let plain = FaultedRun {
                report: run_epoch(&cfg).expect("plain epoch"),
                faults: FaultOutcome::default(),
            };
            for fast_forward in [false, true] {
                for (combo, with_arena, with_tracer, with_series, with_plan) in combos {
                    let what = format!(
                        "{} x {} ff={fast_forward}: {combo}",
                        cluster.display_name(),
                        model.name
                    );
                    let sink = Rc::new(RefCell::new(CountingSink::new()));
                    let tracer = shared(Tracer::new(sink.clone()));
                    let mut series = IterSeries::default();
                    let run = Run {
                        options: EngineOptions { fast_forward },
                        plan: with_plan.then_some(&empty),
                        arena: with_arena.then_some(&mut arena),
                        tracer: with_tracer.then_some(&tracer),
                        series: with_series.then_some(&mut series),
                    }
                    .epoch(&cfg)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(run, plain, "{what}");
                    assert_eq!(with_tracer, sink.borrow().spans() > 0, "{what}: spans");
                    if with_series {
                        assert_reconciles(&run.report, &series, &what);
                    }
                }
            }
        }
    }
}
