//! Fig. 4: CPU (prep) and disk (fetch) stall percentages on the P2 family,
//! small models, smallest/largest batch sizes.
//!
//! Expected shapes: CPU stalls negligible everywhere (AWS vCPUs keep up);
//! disk stalls scale with the number of data-loading workers (= GPUs per
//! instance), worst on p2.16xlarge.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{bench_stash, p2_configs, pct, rollup_from_reports, small_model_batches, Table};
use stash_core::cache::MeasurementCache;
use stash_core::profiler::{par_profile_many, ProfileJob};
use stash_dnn::zoo;

fn main() {
    let mut t = Table::new(
        "fig04_p2_cpu_disk",
        "CPU & disk stall % of training time, P2, small models (paper Fig. 4)",
        &[
            "model",
            "batch",
            "config",
            "cpu_stall_pct",
            "disk_stall_pct",
        ],
    );
    let mut jobs = Vec::new();
    for model in zoo::small_models() {
        for batch in small_model_batches() {
            for cluster in p2_configs() {
                jobs.push(ProfileJob {
                    stash: bench_stash(model.clone(), batch),
                    cluster,
                });
            }
        }
    }
    let results = par_profile_many(&jobs, Some(&MeasurementCache::new()));
    t.set_rollup(rollup_from_reports(
        results.iter().filter_map(|r| r.as_ref().ok()),
    ));

    let mut worst_cpu: f64 = 0.0;
    let mut disk_8x: f64 = 0.0;
    let mut disk_16x: f64 = 0.0;
    for (job, result) in jobs.iter().zip(results) {
        let r = result.expect("profile");
        let cpu = r.cpu_stall_pct().unwrap_or(0.0);
        let disk = r.disk_stall_pct().unwrap_or(0.0);
        worst_cpu = worst_cpu.max(cpu);
        if job.cluster.display_name() == "p2.8xlarge" {
            disk_8x += disk;
        }
        if job.cluster.display_name() == "p2.16xlarge" {
            disk_16x += disk;
        }
        t.row(vec![
            job.stash.model().name.clone(),
            job.stash.per_gpu_batch().to_string(),
            job.cluster.display_name(),
            pct(Some(cpu)),
            pct(Some(disk)),
        ]);
    }
    t.finish();
    assert!(
        worst_cpu < 20.0,
        "CPU stalls should be negligible, worst {worst_cpu}%"
    );
    assert!(
        disk_16x > disk_8x,
        "disk stall must grow with workers: 16x {disk_16x} vs 8x {disk_8x}"
    );
    println!("shape check: CPU negligible (max {worst_cpu:.1}%), disk stall worst on 16xlarge ✓");
}
