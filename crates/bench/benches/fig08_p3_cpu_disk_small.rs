//! Fig. 8: CPU and disk stall % on the P3 family, small models.
//!
//! Expected shapes: CPU stall negligible (8a); disk stall highest for the
//! 8-worker p3.16xlarge (8b) whose fast V100s outrun the gp2 volume.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{bench_stash, p3_configs, pct, rollup_from_reports, small_model_batches, Table};
use stash_core::cache::MeasurementCache;
use stash_core::profiler::{par_profile_many, ProfileJob};
use stash_dnn::zoo;

fn main() {
    let mut t = Table::new(
        "fig08_p3_cpu_disk_small",
        "CPU & disk stall %, P3, small models (paper Fig. 8)",
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
            for cluster in p3_configs() {
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

    let mut cpu_samples: Vec<f64> = Vec::new();
    let mut disk = std::collections::HashMap::<String, f64>::new();
    for (job, result) in jobs.iter().zip(results) {
        let r = result.expect("profile");
        let cpu = r.cpu_stall_pct().unwrap_or(0.0);
        let d = r.disk_stall_pct().unwrap_or(0.0);
        cpu_samples.push(cpu);
        *disk.entry(job.cluster.display_name()).or_insert(0.0) += d;
        t.row(vec![
            job.stash.model().name.clone(),
            job.stash.per_gpu_batch().to_string(),
            job.cluster.display_name(),
            pct(Some(cpu)),
            pct(Some(d)),
        ]);
    }
    t.finish();
    cpu_samples.sort_by(f64::total_cmp);
    let median_cpu = cpu_samples[cpu_samples.len() / 2];
    let worst_cpu = *cpu_samples.last().unwrap();
    assert!(
        median_cpu < 10.0,
        "CPU stall must stay negligible, median {median_cpu}%"
    );
    assert!(
        worst_cpu < 35.0,
        "even the launch-bound outliers stay modest, worst {worst_cpu}%"
    );
    assert!(
        disk["p3.16xlarge"] > disk["p3.8xlarge"],
        "disk stall highest for 16xlarge: {disk:?}"
    );
    println!(
        "shape check: CPU negligible (median {median_cpu:.1}%), disk stall worst on p3.16xlarge ✓"
    );
}
