//! Differential test: tracing must be an observer, never a participant.
//!
//! For every model in the zoo, on one P2 and one P3 instance, an epoch
//! run with a live tracer attached must produce an `EpochReport` that is
//! bit-identical (every field, compared through its JSON serialization)
//! to the untraced run — and the sink must actually have seen events, so
//! the comparison is not vacuous.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::cell::RefCell;
use std::rc::Rc;

use serde::Serialize as _;
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
fn traced_run_is_bit_identical_for_every_zoo_model() {
    for inst in [p2_16xlarge(), p3_16xlarge()] {
        for (model, _) in zoo::all_models() {
            let cfg = traced_cfg(model, inst.clone());
            let name = format!("{} on {}", cfg.model.name, inst.name);

            let plain = run_epoch(&cfg).unwrap_or_else(|e| panic!("{name}: untraced: {e}"));
            let sink = Rc::new(RefCell::new(CountingSink::new()));
            let tracer = shared(Tracer::new(sink.clone()));
            let traced = Run {
                tracer: Some(&tracer),
                ..Run::default()
            }
            .epoch(&cfg)
            .unwrap_or_else(|e| panic!("{name}: traced: {e}"))
            .report;

            assert_eq!(
                plain.to_json_value(),
                traced.to_json_value(),
                "{name}: traced report diverged from untraced"
            );
            assert!(
                sink.borrow().spans() > 0,
                "{name}: counting-sink harness saw no spans — comparison is vacuous"
            );
        }
    }
}

#[test]
fn null_sink_changes_no_report_bits() {
    // `NullSink` is the "tracing compiled in but pointed at /dev/null"
    // configuration: events are emitted and dropped. The report must not
    // change by a single bit relative to the fully-untraced run.
    let cfg = traced_cfg(zoo::resnet18(), p3_16xlarge());
    let plain = run_epoch(&cfg).expect("untraced run");

    let tracer = shared(Tracer::new(NullSink));
    let traced = Run {
        tracer: Some(&tracer),
        ..Run::default()
    }
    .epoch(&cfg)
    .expect("null-sink run")
    .report;
    assert!(
        tracer.borrow().events_emitted() > 0,
        "NullSink tracer is live"
    );
    assert_eq!(plain.to_json_value(), traced.to_json_value());
}
