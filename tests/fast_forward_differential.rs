//! Steady-state fast-forward is a pure performance feature: for every
//! model/cluster combination, synthetic or real data with a cold or warm
//! page cache, the [`EpochReport`] must be bit-identical with
//! fast-forward on and off, in both sampled and full epoch modes, and
//! with or without a reused [`EngineArena`]. Any drift here means the
//! state key missed something that steers the simulation, so a skip
//! diverged from event-by-event simulation.

#![allow(clippy::unwrap_used, clippy::expect_used)]

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

fn run(cfg: &TrainConfig, fast_forward: bool) -> EpochReport {
    Run {
        options: EngineOptions { fast_forward },
        ..Run::default()
    }
    .epoch(cfg)
    .expect("epoch")
    .report
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

/// The real-data grid holds every kind of pipeline state: period 1
/// (p3.8xlarge*2 warm), period 2 (SqueezeNet cold on p3.2xlarge), period
/// 3 (p3.16xlarge cold), a warm cache with a fractional hit rate whose
/// accumulator never repeats (p3.2xlarge warm) and an epoch that never
/// repeats at all (SqueezeNet cold on p2.16xlarge). Gradient accumulation
/// makes each iteration take several batches from the loaders, so their
/// quotas and the skip's batch counts scale with it.
#[test]
fn real_data_reports_identical_with_fast_forward_on_and_off() {
    for cluster in clusters() {
        for model in zoo::small_models() {
            for cache in [CacheState::Cold, CacheState::Warm] {
                for grad_accumulation in 1..=3 {
                    let name = model.name.clone();
                    let samples = 32 * 64 * grad_accumulation;
                    let mut cfg =
                        TrainConfig::synthetic(cluster.clone(), model.clone(), 32, samples);
                    cfg.data = DataMode::Real {
                        dataset: DatasetSpec::for_model(&model),
                        cache,
                    };
                    cfg.grad_accumulation = grad_accumulation;
                    cfg.epoch_mode = EpochMode::Sampled { iterations: 32 };
                    assert_eq!(
                        run(&cfg, false),
                        run(&cfg, true),
                        "fast-forward drifted for {name} on {} ({cache:?} cache, \
                         gradient accumulation {grad_accumulation})",
                        cluster.display_name()
                    );
                }
            }
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

/// The iterations `cfg` skipped and its report. Skips are counted from
/// the run's own iteration series, not from a process-wide counter that
/// the other tests in this binary also advance.
fn skipped(cfg: &TrainConfig, fast_forward: bool) -> (u64, EpochReport) {
    let mut series = IterSeries::default();
    let run = Run {
        options: EngineOptions { fast_forward },
        series: Some(&mut series),
        ..Run::default()
    }
    .epoch(cfg)
    .expect("series");
    (series.totals().ff_iterations, run.report)
}

/// At least 150 of `cfg`'s 200 iterations are skipped with fast-forward
/// on, none with it off, and the reports are identical.
fn assert_skips_most_of_200(cfg: &TrainConfig, what: &str) {
    let (skipped_on, on) = skipped(cfg, true);
    assert!(
        skipped_on >= 150,
        "{what}: expected most of 200 iterations to be fast-forwarded, got {skipped_on}"
    );
    let (skipped_off, _) = skipped(cfg, false);
    assert_eq!(skipped_off, 0, "{what}: fast-forward off still skipped");
    // And the skipped iterations change nothing.
    assert_eq!(run(cfg, false), on, "{what}: fast-forward drifted");
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
    assert_skips_most_of_200(&cfg, "synthetic");
}

#[test]
fn fast_forward_engages_on_long_real_data_runs() {
    for cache in [CacheState::Cold, CacheState::Warm] {
        let mut cfg = TrainConfig::synthetic(
            ClusterSpec::single(p3_16xlarge()),
            zoo::resnet18(),
            32,
            32 * 200,
        );
        cfg.data = DataMode::Real {
            dataset: DatasetSpec::imagenet1k(),
            cache,
        };
        cfg.epoch_mode = EpochMode::Full;
        assert_skips_most_of_200(&cfg, &format!("{cache:?} cache"));
    }
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
            let reused = Run {
                arena: Some(&mut arena),
                ..Run::default()
            }
            .epoch(&cfg)
            .expect("reused")
            .report;
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
    // Real-data pipelines fast-forward like synthetic ones, but this
    // 8-iteration epoch leaves no room for a skip: its loaders start
    // their last batches, and so begin to drain, within the first few
    // iterations. The option must be a strict no-op here too.
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
