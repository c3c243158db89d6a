//! Integration coverage of engine configurations the figure sweeps don't
//! exercise: alternative collectives, size-capped bucketing, the P4
//! instance, full-epoch mode, and report serialization.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash::faults::plan::MAX_SLOWDOWN;
use stash::prelude::*;

fn base(cluster: ClusterSpec, model: Model) -> TrainConfig {
    let mut cfg = TrainConfig::synthetic(cluster, model, 32, 32 * 4);
    cfg.epoch_mode = EpochMode::Sampled { iterations: 4 };
    cfg
}

#[test]
fn tree_allreduce_trains_and_is_slower_than_ring_across_network() {
    let cluster = ClusterSpec::homogeneous(p3_8xlarge(), 2);
    let ring = run_epoch(&base(cluster.clone(), zoo::vgg11())).unwrap();
    let mut tree_cfg = base(cluster, zoo::vgg11());
    tree_cfg.algorithm = Algorithm::Tree;
    let tree = run_epoch(&tree_cfg).unwrap();
    assert!(
        tree.epoch_time >= ring.epoch_time,
        "tree {} vs ring {}",
        tree.epoch_time,
        ring.epoch_time
    );
}

#[test]
fn parameter_server_is_strictly_worse_than_ring() {
    let cluster = ClusterSpec::homogeneous(p3_8xlarge(), 2);
    let ring = run_epoch(&base(cluster.clone(), zoo::resnet18())).unwrap();
    let mut ps_cfg = base(cluster, zoo::resnet18());
    ps_cfg.algorithm = Algorithm::ParameterServer;
    let ps = run_epoch(&ps_cfg).unwrap();
    assert!(ps.epoch_time > ring.epoch_time);
}

#[test]
fn size_capped_bucketing_trains_deep_models_faster_on_nvlink() {
    let cluster = ClusterSpec::single(p3_16xlarge());
    let per_layer = run_epoch(&base(cluster.clone(), zoo::resnet50())).unwrap();
    let mut capped = base(cluster, zoo::resnet50());
    capped.bucketing = Bucketing::pytorch_default();
    let by_size = run_epoch(&capped).unwrap();
    assert!(
        by_size.epoch_time <= per_layer.epoch_time,
        "25MB buckets {} vs per-layer {}",
        by_size.epoch_time,
        per_layer.epoch_time
    );
}

#[test]
fn p4_nvswitch_beats_p3_nvlink() {
    // The catalog's P4 (A100 + NVSwitch) is not characterized by the paper
    // but must behave sanely: faster epoch than p3.16xlarge, lower
    // interconnect stall fractions.
    let p3 = run_epoch(&base(ClusterSpec::single(p3_16xlarge()), zoo::resnet50())).unwrap();
    let p4r = run_epoch(&base(ClusterSpec::single(p4()), zoo::resnet50())).unwrap();
    assert!(p4r.epoch_time < p3.epoch_time);
}

#[test]
fn full_epoch_mode_agrees_with_sampling_for_synthetic_runs() {
    let cluster = ClusterSpec::single(p3_2xlarge());
    let mut cfg = TrainConfig::synthetic(cluster, zoo::squeezenet(), 32, 32 * 60);
    cfg.epoch_mode = EpochMode::Full;
    let full = run_epoch(&cfg).unwrap();
    cfg.epoch_mode = EpochMode::Sampled { iterations: 6 };
    let sampled = run_epoch(&cfg).unwrap();
    let rel = (full.epoch_time.as_secs_f64() - sampled.epoch_time.as_secs_f64()).abs()
        / full.epoch_time.as_secs_f64();
    assert!(rel < 0.02, "full vs sampled differ by {rel}");
}

#[test]
fn dlrm_is_infeasible_below_p4() {
    // §IV-A: large recommendation models are excluded because cheap VMs
    // cannot hold them; "such large models may best be run on ... P4".
    let dlrm = zoo::dlrm();
    for inst in [p2_16xlarge(), p3_16xlarge(), p3_24xlarge()] {
        let cfg = base(ClusterSpec::single(inst.clone()), dlrm.clone());
        match run_epoch(&cfg) {
            Err(TrainError::OutOfMemory { .. }) => {}
            other => panic!("{} should OOM on DLRM, got {other:?}", inst.name),
        }
    }
    // Even the A100 cannot hold 2.3B params under pure data parallelism —
    // which is exactly why the paper's data-parallel profiler excludes it.
    let cfg = base(ClusterSpec::single(p4()), dlrm);
    assert!(matches!(
        run_epoch(&cfg),
        Err(TrainError::OutOfMemory { .. })
    ));
}

#[test]
fn heterogeneous_cluster_is_dragged_by_the_slowest_gpu() {
    // Mixed K80 + V100 ring: synchronous data parallelism forces the
    // V100s to wait for the K80s every bucket.
    let mixed = ClusterSpec {
        instances: vec![p3_8xlarge(), p2_8xlarge()],
    };
    let fast_only = ClusterSpec::homogeneous(p3_8xlarge(), 2);
    let mixed_r = run_epoch(&base(mixed, zoo::resnet18())).unwrap();
    let fast_r = run_epoch(&base(fast_only, zoo::resnet18())).unwrap();
    assert!(
        mixed_r.epoch_time > fast_r.epoch_time.mul_f64(1.5),
        "mixed {} vs fast {}",
        mixed_r.epoch_time,
        fast_r.epoch_time
    );
}

#[test]
fn host_bus_utilization_reflects_pcie_pressure() {
    let p2 = run_epoch(&base(ClusterSpec::single(p2_16xlarge()), zoo::resnet18())).unwrap();
    let p3 = run_epoch(&base(ClusterSpec::single(p3_16xlarge()), zoo::resnet18())).unwrap();
    // P2 rings cross the host bus; P3 synthetic training barely touches it.
    assert!(
        p2.host_bus_utilization > 5.0 * p3.host_bus_utilization.max(1e-6),
        "p2 {} vs p3 {}",
        p2.host_bus_utilization,
        p3.host_bus_utilization
    );
}

#[test]
fn trace_records_every_simulated_iteration() {
    let mut cfg = base(ClusterSpec::single(p3_8xlarge()), zoo::alexnet());
    cfg.record_trace = true;
    let r = run_epoch(&cfg).unwrap();
    assert_eq!(r.trace.len(), r.simulated_iterations as usize);
    // Steady-state iterations (post-warmup) are identical for synthetic data.
    let steady: Vec<_> = r.trace.iter().skip(1).map(|s| s.total).collect();
    assert!(steady.windows(2).all(|w| w[0] == w[1]), "{steady:?}");
    assert!(r.trace.iter().all(|s| s.data_wait.is_zero()));
}

#[test]
fn amp_trains_faster_than_fp32_on_v100() {
    let mut fp32 = base(ClusterSpec::single(p3_16xlarge()), zoo::resnet50());
    let mut amp = fp32.clone();
    amp.precision = Precision::Amp;
    fp32.precision = Precision::Fp32;
    let r32 = run_epoch(&fp32).unwrap();
    let ramp = run_epoch(&amp).unwrap();
    assert!(ramp.epoch_time < r32.epoch_time);
}

#[test]
fn one_straggler_drags_the_whole_ring() {
    // Failure injection: slowing a single rank 2x slows synchronous DDP by
    // nearly 2x — every bucket waits for the slowest rank.
    let healthy = run_epoch(&base(ClusterSpec::single(p3_16xlarge()), zoo::resnet18())).unwrap();
    let mut cfg = base(ClusterSpec::single(p3_16xlarge()), zoo::resnet18());
    cfg.straggler = Some(Straggler {
        rank: 3,
        slowdown: 2.0,
    });
    let straggling = run_epoch(&cfg).unwrap();
    let ratio = straggling.epoch_time.as_secs_f64() / healthy.epoch_time.as_secs_f64();
    assert!((1.6..2.2).contains(&ratio), "slowdown ratio {ratio}");
}

#[test]
fn straggler_validation() {
    let mut cfg = base(ClusterSpec::single(p3_8xlarge()), zoo::alexnet());
    cfg.straggler = Some(Straggler {
        rank: 99,
        slowdown: 2.0,
    });
    assert!(matches!(run_epoch(&cfg), Err(TrainError::InvalidConfig(_))));
    cfg.straggler = Some(Straggler {
        rank: 0,
        slowdown: 0.5,
    });
    assert!(matches!(run_epoch(&cfg), Err(TrainError::InvalidConfig(_))));
    // Past the bound a stretched compute interval can overflow the clock.
    let past = f64::from_bits(MAX_SLOWDOWN.to_bits() + 1);
    for slowdown in [past, 1e30, f64::INFINITY, f64::NAN] {
        cfg.straggler = Some(Straggler { rank: 0, slowdown });
        assert!(
            matches!(run_epoch(&cfg), Err(TrainError::InvalidConfig(_))),
            "slowdown {slowdown} must be rejected"
        );
    }
    cfg.straggler = Some(Straggler {
        rank: 0,
        slowdown: MAX_SLOWDOWN,
    });
    run_epoch(&cfg).expect("a straggler at the bound runs");
}

#[test]
fn grad_accumulation_reduces_comm_wait() {
    let cluster = ClusterSpec::homogeneous(p3_8xlarge(), 2);
    let mut sync_every = TrainConfig::synthetic(cluster.clone(), zoo::vgg11(), 32, 32 * 8);
    sync_every.epoch_mode = EpochMode::Sampled { iterations: 4 };
    let mut accum = sync_every.clone();
    accum.grad_accumulation = 4;
    accum.samples_per_gpu = 32 * 4 * 8;
    let a = run_epoch(&sync_every).unwrap();
    let b = run_epoch(&accum).unwrap();
    assert!(
        b.throughput > a.throughput * 1.5,
        "{} vs {}",
        b.throughput,
        a.throughput
    );
}

#[test]
fn stall_report_serializes_to_json() {
    let report = Stash::new(zoo::alexnet())
        .with_sampled_iterations(2)
        .with_epoch_samples(10_000)
        .profile(&ClusterSpec::single(p3_8xlarge()))
        .unwrap();
    let json = serde_json::to_value(&report).unwrap();
    assert_eq!(json["model"], "AlexNet");
    assert_eq!(json["world"], 4);
    assert!(
        json["times"]["t1"].is_object()
            || json["times"]["t1"].is_number()
            || json["times"]["t1"].is_string()
    );
}

#[test]
fn epoch_report_accounts_are_consistent() {
    let cfg = base(ClusterSpec::single(p3_16xlarge()), zoo::resnet18());
    let r = run_epoch(&cfg).unwrap();
    // Compute + waits can exceed epoch_time only through the warmup
    // extrapolation; each component alone must not.
    assert!(r.compute_time <= r.epoch_time);
    assert!(r.comm_wait <= r.epoch_time);
    assert!(r.data_wait <= r.epoch_time);
    assert_eq!(r.world, 8);
    assert_eq!(r.iterations, 4);
    assert!(r.throughput > 0.0);
    assert_eq!(r.samples, 32 * 4 * 8);
}

#[test]
fn ds_analyzer_matches_stash_on_shared_steps() {
    let model = zoo::alexnet();
    let cluster = ClusterSpec::single(p3_8xlarge());
    let stash = Stash::new(model.clone())
        .with_sampled_iterations(3)
        .with_epoch_samples(20_000)
        .profile(&cluster)
        .unwrap();
    let ds = DsAnalyzer::new(model)
        .with_sampled_iterations(3)
        .profile(p3_8xlarge())
        .unwrap();
    // Same deterministic engine, same steps 2-4 — but DS-Analyzer uses the
    // full-dataset epoch; compare stall *percentages*, which are
    // epoch-size invariant.
    let a = stash.cpu_stall_pct().unwrap();
    let b = ds.cpu_stall_pct().unwrap();
    assert!((a - b).abs() < 2.0, "{a} vs {b}");
}
