//! Fig. 15: GPU memory utilisation, P2 (K80) vs P3 (V100), ShuffleNet vs
//! ResNet18 across batch sizes.
//!
//! Expected shape: ShuffleNet's V100 utilisation is very low — it cannot
//! exploit the large GPU, which is why it trains cost-effectively on P2.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{rollup_from_reports, Table, BENCH_ITERS};
use stash_core::profiler::Stash;
use stash_dnn::zoo;
use stash_gpucompute::memory::utilization_pct;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::gpu::GpuModel;
use stash_hwtopo::instance::{p2_xlarge, p3_2xlarge};

fn main() {
    let mut t = Table::new(
        "fig15_gpu_memory",
        "GPU memory utilisation %, P2 vs P3 (paper Fig. 15)",
        &["model", "batch", "gpu", "memory_util_pct"],
    );
    let mut shuffle_v100: Vec<f64> = Vec::new();
    let mut resnet_v100: Vec<f64> = Vec::new();
    for model in [zoo::shufflenet(), zoo::resnet18()] {
        for batch in [32_u64, 64, 128] {
            for gpu in [GpuModel::K80, GpuModel::V100] {
                let util = utilization_pct(&gpu.spec(), &model, batch);
                if gpu == GpuModel::V100 {
                    if model.name == "ShuffleNet" {
                        shuffle_v100.push(util);
                    } else {
                        resnet_v100.push(util);
                    }
                }
                t.row(vec![
                    model.name.clone(),
                    batch.to_string(),
                    gpu.label().to_string(),
                    format!("{util:.1}"),
                ]);
            }
        }
    }
    // A profiled counterpart of the memory table — one run per model on
    // the single-GPU instance of each family — so this figure emits the
    // same `results/<name>_rollup.json` artifact as the rest of the set.
    let mut reports = Vec::new();
    for model in [zoo::shufflenet(), zoo::resnet18()] {
        for instance in [p2_xlarge(), p3_2xlarge()] {
            let stash = Stash::new(model.clone())
                .with_batch(32)
                .with_sampled_iterations(BENCH_ITERS);
            let cluster = ClusterSpec::single(instance);
            reports.push(stash.profile(&cluster).expect("profile"));
        }
    }
    t.set_rollup(rollup_from_reports(&reports));
    t.finish();
    // ShuffleNet sits below ResNet18 at every batch size, and never
    // reaches a third of the V100's memory even at batch 128.
    for (s, r) in shuffle_v100.iter().zip(&resnet_v100) {
        assert!(s < r, "ShuffleNet must underuse the V100: {s:.1} vs {r:.1}");
    }
    assert!(shuffle_v100.last().unwrap() < &35.0);
    println!("shape check: ShuffleNet has low GPU utilisation on V100 ✓");
}
