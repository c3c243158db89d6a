//! Extension: automatic mixed precision (beyond the paper's fp32 setup).
//!
//! AMP moves every stall Stash measures: tensor cores compress compute on
//! V100s, fp16 halves the gradient bytes crossing NVLink and the network.
//! Predictions: (i) faster epochs on P3; (ii) lower network stall
//! percentage is NOT guaranteed — compute shrinks faster than traffic, so
//! the *ratio* can worsen even as absolute time improves; (iii) no gain on
//! tensor-core-less K80s.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{Table, BENCH_ITERS};
use stash_core::profiler::Stash;
use stash_dnn::zoo;
use stash_gpucompute::precision::Precision;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::{p2_8xlarge, p3_16xlarge, p3_8xlarge};

fn main() {
    let mut t = Table::new(
        "extension_amp",
        "Mixed precision vs fp32 across clusters (extension beyond the paper)",
        &["model", "cluster", "precision", "epoch_s", "nw_stall_pct"],
    );
    let configs = [
        ClusterSpec::single(p3_16xlarge()),
        ClusterSpec::homogeneous(p3_8xlarge(), 2),
        ClusterSpec::single(p2_8xlarge()),
    ];
    for model in [zoo::resnet50(), zoo::vgg11()] {
        for cluster in &configs {
            let mut times = std::collections::HashMap::new();
            for precision in [Precision::Fp32, Precision::Amp] {
                let stash = Stash::new(model.clone())
                    .with_batch(32)
                    .with_precision(precision)
                    .with_sampled_iterations(BENCH_ITERS);
                let r = stash.profile(cluster).expect("profile");
                let secs = r.training_epoch_time().unwrap().as_secs_f64();
                times.insert(precision.label(), secs);
                t.row(vec![
                    model.name.clone(),
                    cluster.display_name(),
                    precision.label().to_string(),
                    format!("{secs:.1}"),
                    r.network_stall_pct()
                        .map_or("-".into(), |p| format!("{p:.1}")),
                ]);
            }
            if cluster.display_name().starts_with("p3") {
                assert!(
                    times["amp"] < times["fp32"],
                    "{} on {}: AMP must win on V100s ({} vs {})",
                    model.name,
                    cluster.display_name(),
                    times["amp"],
                    times["fp32"]
                );
            } else {
                // K80: no tensor cores — AMP changes little either way.
                let ratio = times["amp"] / times["fp32"];
                assert!(
                    (0.5..1.2).contains(&ratio),
                    "{}: K80 AMP ratio {ratio}",
                    model.name
                );
            }
        }
    }
    t.finish();
    println!("shape check: AMP wins on tensor-core GPUs, is a wash on K80 ✓");
}
