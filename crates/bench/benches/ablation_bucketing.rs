//! Ablation: per-layer bucketing (the paper's §VI assumption) vs PyTorch's
//! 25 MB size-capped buckets. Fewer, larger buckets trade per-bucket
//! latency for lost overlap granularity; on a latency-bound interconnect
//! they should reduce the interconnect stall of deep models.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{pct, Table, BENCH_ITERS};
use stash_collectives::bucket::Bucketing;
use stash_core::profiler::Stash;
use stash_dnn::zoo;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::p3_16xlarge;

fn main() {
    let mut t = Table::new(
        "ablation_bucketing",
        "Per-layer vs 25 MB gradient bucketing (design ablation)",
        &["model", "bucketing", "buckets", "ic_stall_pct"],
    );
    let cluster = ClusterSpec::single(p3_16xlarge());
    for model in [zoo::resnet50(), zoo::vgg11()] {
        let mut per_layer_ic = 0.0;
        let mut by_size_ic = 0.0;
        for (label, bucketing) in [
            ("per-layer", Bucketing::PerLayer),
            ("25MB", Bucketing::pytorch_default()),
        ] {
            let plan = stash_collectives::bucket::CommPlan::new(&model, bucketing);
            let stash = Stash::new(model.clone())
                .with_batch(32)
                .with_bucketing(bucketing)
                .with_sampled_iterations(BENCH_ITERS);
            let r = stash.profile(&cluster).expect("profile");
            let ic = r.interconnect_stall_pct().unwrap_or(0.0);
            if label == "per-layer" {
                per_layer_ic = ic;
            } else {
                by_size_ic = ic;
            }
            t.row(vec![
                model.name.clone(),
                label.to_string(),
                plan.bucket_count().to_string(),
                pct(Some(ic)),
            ]);
        }
        if model.name.starts_with("ResNet") {
            assert!(
                by_size_ic <= per_layer_ic,
                "{}: coarser buckets must not increase the latency-bound stall ({by_size_ic} vs {per_layer_ic})",
                model.name
            );
        }
    }
    t.finish();
    println!("shape check: size-capped buckets reduce latency-bound interconnect stall ✓");
}
