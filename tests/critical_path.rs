//! End-to-end checks on the trace-analysis layer: the critical-path
//! decomposition must reconcile with the engine's own stall accounting
//! at integer-nanosecond exactness, and the trace-driven what-if
//! projection must agree with a ground-truth re-simulation on rescaled
//! hardware within the documented tolerance.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::cell::RefCell;
use std::rc::Rc;

use stash::prelude::*;

fn traced_cfg(cluster: ClusterSpec, model: Model, batch: u64) -> TrainConfig {
    let dataset = if model.name.starts_with("BERT") {
        DatasetSpec::squad2()
    } else {
        DatasetSpec::imagenet1k()
    };
    let mut cfg = TrainConfig::synthetic(cluster, model, batch, batch * 12);
    cfg.epoch_mode = EpochMode::Sampled { iterations: 12 };
    cfg.record_trace = true;
    cfg.data = DataMode::Real {
        dataset,
        cache: CacheState::Warm,
    };
    cfg
}

fn run_traced(cfg: &TrainConfig) -> (EpochReport, CriticalPath) {
    let sink = Rc::new(RefCell::new(JsonSink::new()));
    let tracer = shared(Tracer::new(sink.clone()));
    let report = Run {
        tracer: Some(&tracer),
        ..Run::default()
    }
    .epoch(cfg)
    .expect("traced run")
    .report;
    let events = sink.borrow().events().to_vec();
    let path = CriticalPath::from_events(&events, 0, Track::gpu(0, 0));
    (report, path)
}

#[test]
fn critical_path_reconciles_with_epoch_report_exactly() {
    for cluster in [
        ClusterSpec::single(p3_8xlarge()),
        ClusterSpec::homogeneous(p3_8xlarge(), 2),
        ClusterSpec::single(p2_8xlarge()),
    ] {
        let name = cluster.display_name();
        let cfg = traced_cfg(cluster, zoo::resnet50(), 16);
        let (report, path) = run_traced(&cfg);
        let factor = report.iterations as f64 / report.simulated_iterations as f64;

        // The decomposition partitions the raw span categories, so each
        // engine accumulator — extrapolated through the very same
        // `mul_f64` the report used — must match to the nanosecond.
        let raw = |cats: &[PathCategory]| {
            SimDuration::from_nanos(cats.iter().map(|&c| path.total_ns(c)).sum::<u64>())
        };
        assert_eq!(
            raw(&[PathCategory::Compute, PathCategory::Overlap]).mul_f64(factor),
            report.compute_time,
            "{name}: compute + overlap must equal engine compute"
        );
        assert_eq!(
            raw(&[PathCategory::Prep, PathCategory::Fetch]).mul_f64(factor),
            report.data_wait,
            "{name}: prep + fetch must equal engine data-wait"
        );
        assert_eq!(
            raw(&[PathCategory::Interconnect, PathCategory::Network]).mul_f64(factor),
            report.comm_wait,
            "{name}: interconnect + network must equal engine comm-wait"
        );

        // And the partition itself loses nothing.
        assert_eq!(
            path.path_len_ns(),
            path.wall_ns,
            "{name}: path must tile the wall"
        );
        let sum: u64 = PathCategory::ALL.iter().map(|&c| path.total_ns(c)).sum();
        assert_eq!(
            sum, path.wall_ns,
            "{name}: category totals must sum to the wall"
        );
    }
}

#[test]
fn network_whatif_matches_resimulation_within_tolerance() {
    // Two p3.8xlarge nodes: gradient sync crosses the 10 Gbps NIC, so
    // network stall is on the critical path and doubling the NIC must
    // show up both analytically and in a true re-simulation.
    let cluster = ClusterSpec::homogeneous(p3_8xlarge(), 2);
    let cfg = traced_cfg(cluster.clone(), zoo::resnet50(), 16);
    let (_, path) = run_traced(&cfg);
    assert!(
        path.total_ns(PathCategory::Network) > 0,
        "test premise: network stall must be exposed on this cluster"
    );

    let projected = project(&path, WhatIfResource::Network, 2.0);
    assert!(
        projected < path.wall_ns,
        "2x network must project a speedup"
    );

    let mut scaled_cfg = cfg.clone();
    scaled_cfg.cluster = cluster.scaled(Resource::Network, 2.0);
    let (_, scaled_path) = run_traced(&scaled_cfg);
    let truth = scaled_path.wall_ns;

    let err = (projected as f64 - truth as f64).abs() / truth as f64;
    assert!(
        err <= PROJECTION_TOLERANCE,
        "projection {projected} ns vs re-simulation {truth} ns: {:.1}% error exceeds \
         the documented {:.0}% tolerance",
        err * 100.0,
        PROJECTION_TOLERANCE * 100.0
    );
}

#[test]
fn interconnect_whatif_matches_resimulation_within_tolerance() {
    // Single p3.8xlarge: all-reduce rides the degraded NVLink slice, so
    // the intra-node interconnect is the exposed comm resource.
    let cluster = ClusterSpec::single(p3_8xlarge());
    let cfg = traced_cfg(cluster.clone(), zoo::resnet50(), 16);
    let (_, path) = run_traced(&cfg);
    assert!(
        path.total_ns(PathCategory::Interconnect) > 0,
        "test premise: interconnect stall must be exposed on this cluster"
    );

    let projected = project(&path, WhatIfResource::Interconnect, 2.0);

    let mut scaled_cfg = cfg.clone();
    scaled_cfg.cluster = cluster.scaled(Resource::Interconnect, 2.0);
    let (_, scaled_path) = run_traced(&scaled_cfg);
    let truth = scaled_path.wall_ns;

    let err = (projected as f64 - truth as f64).abs() / truth as f64;
    assert!(
        err <= PROJECTION_TOLERANCE,
        "projection {projected} ns vs re-simulation {truth} ns: {:.1}% error exceeds \
         the documented {:.0}% tolerance",
        err * 100.0,
        PROJECTION_TOLERANCE * 100.0
    );
}

#[test]
fn whatif_identity_reproduces_the_traced_wall() {
    let cfg = traced_cfg(ClusterSpec::single(p3_2xlarge()), zoo::alexnet(), 16);
    let (_, path) = run_traced(&cfg);
    for resource in WhatIfResource::ALL {
        assert_eq!(project(&path, resource, 1.0), path.wall_ns);
    }
}
