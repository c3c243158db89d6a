//! Ablation: gradient accumulation (PyTorch `no_sync()` micro-batching).
//!
//! The network stall the paper measures is per-synchronisation; deferring
//! the all-reduce across k micro-batches amortises it over k times the
//! compute. On the 10 Gbps pair this should recover most of the 2-5x
//! slowdown — at the price of an effective batch k times larger.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{Table, BENCH_ITERS};
use stash_ddl::config::{EpochMode, TrainConfig};
use stash_ddl::engine::run_epoch;
use stash_dnn::zoo;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::p3_8xlarge;

fn main() {
    let mut t = Table::new(
        "ablation_grad_accumulation",
        "Gradient accumulation on 2x p3.8xlarge (design ablation)",
        &["model", "accumulation", "samples_per_s", "comm_wait_frac"],
    );
    for model in [zoo::resnet50(), zoo::vgg11()] {
        let mut tps = Vec::new();
        for accum in [1_u64, 2, 4, 8] {
            let mut cfg = TrainConfig::synthetic(
                ClusterSpec::homogeneous(p3_8xlarge(), 2),
                model.clone(),
                32,
                32 * accum * 100,
            );
            cfg.grad_accumulation = accum;
            cfg.epoch_mode = EpochMode::Sampled {
                iterations: BENCH_ITERS,
            };
            let r = run_epoch(&cfg).expect("run");
            tps.push(r.throughput);
            t.row(vec![
                model.name.clone(),
                accum.to_string(),
                format!("{:.0}", r.throughput),
                format!("{:.2}", r.comm_wait_fraction()),
            ]);
        }
        assert!(
            tps.windows(2).all(|w| w[1] >= w[0] * 0.98),
            "{}: throughput must not fall as accumulation grows: {tps:?}",
            model.name
        );
        assert!(
            tps[3] > tps[0] * 1.5,
            "{}: 8x accumulation must recover substantial throughput: {tps:?}",
            model.name
        );
    }
    t.finish();
    println!("shape check: accumulation amortises the network stall ✓");
}
