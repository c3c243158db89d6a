//! Steady-state fast-forward is a pure performance feature: for every
//! model/cluster combination the [`EpochReport`] must be bit-identical
//! with fast-forward on and off, in both sampled and full epoch modes,
//! and with or without a reused [`EngineArena`]. Any drift here means the
//! analytic extension diverged from event-by-event simulation.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash::ddl::engine::{
    run_epoch_in, run_epoch_series, run_epoch_with, EngineArena, EngineOptions,
};
use stash::prelude::*;

fn clusters() -> Vec<ClusterSpec> {
    vec![
        ClusterSpec::single(p3_2xlarge()),
        ClusterSpec::single(p3_16xlarge()),
        ClusterSpec::single(p2_16xlarge()),
        ClusterSpec::homogeneous(p3_8xlarge(), 2),
    ]
}

fn run(cfg: &TrainConfig, fast_forward: bool) -> EpochReport {
    run_epoch_with(cfg, &EngineOptions { fast_forward }).expect("epoch")
}

#[test]
fn sampled_reports_identical_with_fast_forward_on_and_off() {
    for cluster in clusters() {
        for model in zoo::small_models() {
            let name = model.name.clone();
            let mut cfg = TrainConfig::synthetic(cluster.clone(), model, 32, 32 * 64);
            cfg.epoch_mode = EpochMode::Sampled { iterations: 12 };
            let off = run(&cfg, false);
            let on = run(&cfg, true);
            assert_eq!(
                off,
                on,
                "fast-forward drifted for {name} on {}",
                cluster.display_name()
            );
        }
    }
}

#[test]
fn full_epoch_reports_identical_with_fast_forward_on_and_off() {
    let mut cfg = TrainConfig::synthetic(
        ClusterSpec::single(p3_16xlarge()),
        zoo::resnet50(),
        32,
        32 * 60,
    );
    cfg.epoch_mode = EpochMode::Full;
    let off = run(&cfg, false);
    let on = run(&cfg, true);
    assert_eq!(off, on, "full-mode fast-forward drifted");
}

#[test]
fn fast_forward_engages_on_long_synthetic_runs() {
    let mut cfg = TrainConfig::synthetic(
        ClusterSpec::single(p3_16xlarge()),
        zoo::resnet18(),
        32,
        32 * 200,
    );
    cfg.epoch_mode = EpochMode::Full;
    // Count this run's own skips through its iteration series (recorded
    // only with the telemetry switch on, which changes no report bit), not
    // a process-wide counter the other tests in this binary also advance.
    stash::telemetry::enable();
    let skipped = |fast_forward| {
        let sr = run_epoch_series(&cfg, &EngineOptions { fast_forward }, None).expect("series");
        (sr.series.totals().ff_iterations, sr.run.report)
    };
    let (skipped_on, on) = skipped(true);
    assert!(
        skipped_on >= 150,
        "expected most of 200 iterations to be fast-forwarded, got {skipped_on}"
    );
    let (skipped_off, _) = skipped(false);
    assert_eq!(skipped_off, 0, "fast-forward off still skipped iterations");
    // And the skipped iterations change nothing.
    assert_eq!(run(&cfg, false), on);
}

#[test]
fn reused_arena_is_bit_identical_to_fresh_state() {
    let mut arena = EngineArena::new();
    for cluster in clusters() {
        for model in [zoo::alexnet(), zoo::resnet50()] {
            let name = model.name.clone();
            let mut cfg = TrainConfig::synthetic(cluster.clone(), model, 32, 32 * 40);
            cfg.epoch_mode = EpochMode::Sampled { iterations: 8 };
            let fresh = run_epoch(&cfg).expect("fresh");
            let reused = run_epoch_in(&cfg, &mut arena).expect("reused");
            assert_eq!(
                fresh,
                reused,
                "arena reuse drifted for {name} on {}",
                cluster.display_name()
            );
        }
    }
}

#[test]
fn real_data_and_straggler_runs_are_unaffected_by_the_option() {
    // Real-data pipelines are ineligible for fast-forward; the option must
    // be a strict no-op there.
    let mut cfg = TrainConfig::synthetic(
        ClusterSpec::single(p3_16xlarge()),
        zoo::resnet18(),
        32,
        32 * 16,
    );
    cfg.data = DataMode::Real {
        dataset: DatasetSpec::imagenet1k(),
        cache: CacheState::Warm,
    };
    cfg.epoch_mode = EpochMode::Sampled { iterations: 8 };
    assert_eq!(run(&cfg, false), run(&cfg, true));

    // Stragglers shift the steady state but keep it periodic: still exact.
    let mut cfg = TrainConfig::synthetic(
        ClusterSpec::single(p3_16xlarge()),
        zoo::alexnet(),
        32,
        32 * 64,
    );
    cfg.straggler = Some(Straggler {
        rank: 3,
        slowdown: 1.7,
    });
    cfg.epoch_mode = EpochMode::Sampled { iterations: 16 };
    assert_eq!(run(&cfg, false), run(&cfg, true));
}
