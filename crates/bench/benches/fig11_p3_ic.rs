//! Fig. 11: interconnect stall % on P3 for small (a) and large (b) models.
//!
//! Expected shapes: p3.16xlarge has the lowest stall; the (degraded)
//! p3.8xlarge is anomalously high; VGG's interconnect stall is low despite
//! its huge gradients; p3.24xlarge matches p3.16xlarge (same NVLink).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{
    bench_stash, large_model_batches, pct, rollup_from_reports, small_model_batches, Table,
};
use stash_core::cache::MeasurementCache;
use stash_core::profiler::{par_profile_many, ProfileJob};
use stash_dnn::zoo;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::{p3_16xlarge, p3_24xlarge, p3_8xlarge};

fn main() {
    let mut t = Table::new(
        "fig11_p3_ic",
        "Interconnect stall %, P3 (paper Fig. 11)",
        &["model", "batch", "config", "ic_stall_pct"],
    );
    let mut points: Vec<(stash_dnn::model::Model, u64)> = Vec::new();
    for model in zoo::small_models() {
        for batch in small_model_batches() {
            points.push((model.clone(), batch));
        }
    }
    for model in zoo::large_vision_models() {
        for batch in large_model_batches() {
            points.push((model.clone(), batch));
        }
    }
    points.push((zoo::bert_large(), 4));
    let mut jobs = Vec::new();
    for (model, batch) in points {
        for inst in [p3_8xlarge(), p3_16xlarge(), p3_24xlarge()] {
            jobs.push(ProfileJob {
                stash: bench_stash(model.clone(), batch),
                cluster: ClusterSpec::single(inst),
            });
        }
    }
    let results = par_profile_many(&jobs, Some(&MeasurementCache::new()));
    t.set_rollup(rollup_from_reports(
        results.iter().filter_map(|r| r.as_ref().ok()),
    ));

    let mut stalls = std::collections::HashMap::<String, f64>::new();
    for (job, result) in jobs.iter().zip(results) {
        let r = result.expect("profile");
        let ic = r.interconnect_stall_pct().unwrap_or(0.0);
        *stalls.entry(job.cluster.display_name()).or_insert(0.0) += ic;
        t.row(vec![
            job.stash.model().name.clone(),
            job.stash.per_gpu_batch().to_string(),
            job.cluster.display_name(),
            pct(Some(ic)),
        ]);
    }
    t.finish();
    assert!(
        stalls["p3.8xlarge"] > stalls["p3.16xlarge"],
        "8xlarge slice anomaly: {stalls:?}"
    );
    let ratio = stalls["p3.24xlarge"] / stalls["p3.16xlarge"].max(1e-9);
    assert!((0.7..1.3).contains(&ratio), "24x ≈ 16x, ratio {ratio}");
    println!("shape check: 16xlarge lowest, 8xlarge anomalous, 24xlarge ≈ 16xlarge ✓");
}
