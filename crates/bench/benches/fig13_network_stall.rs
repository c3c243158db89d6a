//! Fig. 13: network stall of two networked p3.8xlarge instances across
//! batch sizes 4-32.
//!
//! Expected shape: stalls in the hundreds of percent ("as high as 500%"),
//! monotonically falling as the batch grows (compute grows, gradient
//! volume does not).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{bench_stash, pct, rollup_from_reports, Table};
use stash_core::cache::MeasurementCache;
use stash_core::profiler::{par_profile_many, ProfileJob};
use stash_dnn::zoo;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::p3_8xlarge;

fn main() {
    let mut t = Table::new(
        "fig13_network_stall",
        "Network stall % of 2x p3.8xlarge vs batch size (paper Fig. 13)",
        &["model", "batch", "nw_stall_pct"],
    );
    let cluster = ClusterSpec::homogeneous(p3_8xlarge(), 2);
    let batches = [4_u64, 8, 16, 32];
    let mut jobs = Vec::new();
    for model in [zoo::resnet50(), zoo::vgg11()] {
        for batch in batches {
            jobs.push(ProfileJob {
                stash: bench_stash(model.clone(), batch),
                cluster: cluster.clone(),
            });
        }
    }
    let results = par_profile_many(&jobs, Some(&MeasurementCache::new()));
    t.set_rollup(rollup_from_reports(
        results.iter().filter_map(|r| r.as_ref().ok()),
    ));

    let mut peak: f64 = 0.0;
    for (jobs_chunk, results_chunk) in jobs
        .chunks(batches.len())
        .zip(results.chunks(batches.len()))
    {
        let mut series = Vec::new();
        for (job, result) in jobs_chunk.iter().zip(results_chunk) {
            let r = result.as_ref().expect("profile");
            let nw = r.network_stall_pct().unwrap_or(0.0);
            peak = peak.max(nw);
            series.push(nw);
            t.row(vec![
                job.stash.model().name.clone(),
                job.stash.per_gpu_batch().to_string(),
                pct(Some(nw)),
            ]);
        }
        assert!(
            series.windows(2).all(|w| w[0] >= w[1] * 0.95),
            "{}: stall must fall with batch: {series:?}",
            jobs_chunk[0].stash.model().name
        );
    }
    t.finish();
    print!("{}", t.to_bar_chart(&["model", "batch"], "nw_stall_pct"));
    assert!(
        peak > 300.0,
        "network stalls reach hundreds of percent, peak {peak}%"
    );
    println!("shape check: network stall up to {peak:.0}% and falling with batch size ✓");
}
