//! Telemetry must be a pure observer: flipping the registry switch cannot
//! change a single bit of any simulation result. The instrumentation is
//! all relaxed atomics — no RNG draws, no event reordering, no timing
//! feedback — so an [`EpochReport`] produced with telemetry enabled must
//! equal the disabled run exactly, across the model zoo, single- and
//! multi-node clusters, real-data pipelines, and fast-forward on or off.
//!
//! This file holds exactly one test: the telemetry switch is process-wide
//! and the default harness runs tests in parallel.
//!
//! [`EpochReport`]: stash::ddl::report::EpochReport

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash::prelude::*;

fn configs() -> Vec<TrainConfig> {
    let mut out = Vec::new();
    for (model, batch) in [
        (zoo::shufflenet(), 32),
        (zoo::resnet18(), 32),
        (zoo::bert_large(), 4),
    ] {
        for cluster in [
            ClusterSpec::single(p3_2xlarge()),
            ClusterSpec::homogeneous(p3_8xlarge(), 2),
        ] {
            // Enough iterations for the fast-forward detector to confirm
            // a cycle and skip ahead, so the FF branch is differentially
            // covered too.
            let mut cfg = TrainConfig::synthetic(cluster, model.clone(), batch, batch * 64);
            cfg.epoch_mode = EpochMode::Sampled { iterations: 10 };
            out.push(cfg);
        }
    }
    // One real-data config: the loader pipeline is where telemetry shares
    // the transfer-open table with the tracer, so fetch/prep service
    // instrumentation must be proven inert too.
    let mut real = TrainConfig::synthetic(
        ClusterSpec::single(p3_8xlarge()),
        zoo::resnet18(),
        32,
        32 * 64,
    );
    real.epoch_mode = EpochMode::Sampled { iterations: 6 };
    real.data = DataMode::Real {
        dataset: DatasetSpec::imagenet1k(),
        cache: CacheState::Warm,
    };
    out.push(real);
    out
}

#[test]
fn epoch_reports_are_bit_identical_with_telemetry_on() {
    let configs = configs();
    let modes = [
        EngineOptions { fast_forward: true },
        EngineOptions {
            fast_forward: false,
        },
    ];

    stash::telemetry::disable();
    let mut baseline = Vec::new();
    for cfg in &configs {
        for options in &modes {
            baseline.push(
                Run {
                    options: options.clone(),
                    ..Run::default()
                }
                .epoch(cfg)
                .expect("disabled run")
                .report,
            );
        }
    }

    stash::telemetry::enable();
    let mut i = 0;
    for cfg in &configs {
        for options in &modes {
            let report = Run {
                options: options.clone(),
                ..Run::default()
            }
            .epoch(cfg)
            .expect("enabled run")
            .report;
            assert_eq!(
                report,
                baseline[i],
                "telemetry changed the simulation: {} on {} (fast_forward: {})",
                cfg.model.name,
                cfg.cluster.display_name(),
                options.fast_forward
            );
            i += 1;
        }
    }
    stash::telemetry::disable();

    // The enabled pass must actually have recorded something, or this
    // test proves nothing about the instrumented paths.
    let snap = stash::telemetry::snapshot::Snapshot::take();
    assert!(snap.counter("stash_sim_queue_events_popped_total") > 0);
    assert!(snap.counter("stash_sim_solver_full_recomputes_total") > 0);
    assert!(snap.counter("stash_sim_ff_iterations_total") > 0);
    let fetch = snap
        .histogram("stash_data_fetch_service_ns")
        .expect("fetch histogram in schema");
    assert!(fetch.count > 0, "real-data config must record fetches");
}
