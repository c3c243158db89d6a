//! The standing correctness oracle: per-category traced span totals must
//! reconcile with `EpochReport`'s stall breakdown at integer-nanosecond
//! exactness, for every model in the zoo on two instance generations.
//!
//! The engine accumulates rank-0 compute/data-wait/comm-wait and then
//! extrapolates by `iterations / simulated_iterations` via the same
//! `SimDuration::mul_f64` the report uses — so summing the raw rank-0
//! spans per category and applying the identical scaling must land on
//! the report's fields exactly, not approximately.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::cell::RefCell;
use std::rc::Rc;

use stash::prelude::*;

fn traced_cfg(model: Model, inst: InstanceType) -> TrainConfig {
    let dataset = DatasetSpec::for_model(&model);
    let mut cfg = TrainConfig::synthetic(ClusterSpec::single(inst), model, 4, 4 * 3);
    cfg.epoch_mode = EpochMode::Sampled { iterations: 3 };
    cfg.data = DataMode::Real {
        dataset,
        cache: CacheState::Warm,
    };
    cfg
}

#[test]
fn span_totals_reconcile_with_stall_breakdown_for_every_zoo_model() {
    for inst in [p2_16xlarge(), p3_16xlarge()] {
        for (model, _) in zoo::all_models() {
            let cfg = traced_cfg(model, inst.clone());
            let name = format!("{} on {}", cfg.model.name, inst.name);

            let sink = Rc::new(RefCell::new(JsonSink::new()));
            let tracer = shared(Tracer::new(sink.clone()));
            let report = Run {
                tracer: Some(&tracer),
                ..Run::default()
            }
            .epoch(&cfg)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .report;

            let events = sink.borrow().events().to_vec();
            let rollup = StallRollup::from_events(&events);
            let rank0 = Track::gpu(0, 0);
            let factor = report.iterations as f64 / report.simulated_iterations as f64;

            let compute = rollup.track_total(rank0, Category::Compute).mul_f64(factor);
            assert_eq!(
                compute, report.compute_time,
                "{name}: compute spans do not reconcile"
            );

            let data = rollup.track_total(rank0, Category::Fetch).mul_f64(factor);
            assert_eq!(
                data, report.data_wait,
                "{name}: fetch spans do not reconcile"
            );

            // Single-instance runs stall on the intra-node interconnect;
            // multi-node runs would stall on the network. Sum both so the
            // oracle holds regardless of topology.
            let comm_raw = rollup.track_total(rank0, Category::Interconnect)
                + rollup.track_total(rank0, Category::Network);
            let comm = comm_raw.mul_f64(factor);
            assert_eq!(
                comm, report.comm_wait,
                "{name}: comm spans do not reconcile"
            );
        }
    }
}

#[test]
fn reconciliation_holds_on_a_multi_node_cluster() {
    // Two p3.8xlarge nodes: all-reduce stalls classify as Network, and
    // the oracle must still balance.
    let mut cfg = TrainConfig::synthetic(
        ClusterSpec::homogeneous(p3_8xlarge(), 2),
        zoo::resnet18(),
        4,
        4 * 3,
    );
    cfg.epoch_mode = EpochMode::Sampled { iterations: 3 };

    let sink = Rc::new(RefCell::new(JsonSink::new()));
    let tracer = shared(Tracer::new(sink.clone()));
    let report = Run {
        tracer: Some(&tracer),
        ..Run::default()
    }
    .epoch(&cfg)
    .expect("multi-node traced run")
    .report;

    let events = sink.borrow().events().to_vec();
    let rollup = StallRollup::from_events(&events);
    let rank0 = Track::gpu(0, 0);
    let factor = report.iterations as f64 / report.simulated_iterations as f64;

    assert_eq!(
        rollup.track_total(rank0, Category::Compute).mul_f64(factor),
        report.compute_time
    );
    let comm_raw = rollup.track_total(rank0, Category::Interconnect)
        + rollup.track_total(rank0, Category::Network);
    assert_eq!(comm_raw.mul_f64(factor), report.comm_wait);
    assert!(
        rollup.kind_totals().iter().any(|(k, c, t)| {
            *k == TrackKind::Comm && *c == Category::Network && t.as_nanos() > 0
        }),
        "multi-node all-reduce buckets should be categorized as Network"
    );
}
