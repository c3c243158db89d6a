//! Fig. 9: CPU and disk stall % on P3 for the large models (ResNet50,
//! VGG11) and BERT-large.
//!
//! Expected shapes: CPU stall negligible; disk stall high for the 8-GPU
//! experiments on the gp2 volume; BERT's tiny SQuAD dataset produces no
//! meaningful fetch stall.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{bench_stash, large_model_batches, p3_configs, pct, rollup_from_reports, Table};
use stash_core::cache::MeasurementCache;
use stash_core::profiler::{par_profile_many, ProfileJob};
use stash_dnn::zoo;

fn main() {
    let mut t = Table::new(
        "fig09_p3_cpu_disk_large",
        "CPU & disk stall %, P3, large models + BERT (paper Fig. 9)",
        &[
            "model",
            "batch",
            "config",
            "cpu_stall_pct",
            "disk_stall_pct",
        ],
    );
    let mut jobs = Vec::new();
    for model in zoo::large_vision_models() {
        for batch in large_model_batches() {
            for cluster in p3_configs() {
                jobs.push(ProfileJob {
                    stash: bench_stash(model.clone(), batch),
                    cluster,
                });
            }
        }
    }
    // BERT-large: batch 4 (the 16 GB limit). May legitimately fail to fit on
    // some configs, so its results stay fallible below.
    let bert_start = jobs.len();
    for cluster in p3_configs() {
        jobs.push(ProfileJob {
            stash: bench_stash(zoo::bert_large(), 4),
            cluster,
        });
    }
    let results = par_profile_many(&jobs, Some(&MeasurementCache::new()));
    t.set_rollup(rollup_from_reports(
        results.iter().filter_map(|r| r.as_ref().ok()),
    ));

    let mut worst_cpu: f64 = 0.0;
    let mut bert_disk: f64 = 0.0;
    let mut vision_disk_16x: f64 = 0.0;
    for (i, (job, result)) in jobs.iter().zip(results).enumerate() {
        if i < bert_start {
            let r = result.expect("profile");
            let cpu = r.cpu_stall_pct().unwrap_or(0.0);
            let d = r.disk_stall_pct().unwrap_or(0.0);
            worst_cpu = worst_cpu.max(cpu);
            if job.cluster.display_name() == "p3.16xlarge" {
                vision_disk_16x += d;
            }
            t.row(vec![
                job.stash.model().name.clone(),
                job.stash.per_gpu_batch().to_string(),
                job.cluster.display_name(),
                pct(Some(cpu)),
                pct(Some(d)),
            ]);
        } else {
            let r = match result {
                Ok(r) => r,
                Err(e) => {
                    t.row(vec![
                        "BERT-large".to_string(),
                        "4".to_string(),
                        job.cluster.display_name(),
                        format!("skipped: {e}"),
                        String::new(),
                    ]);
                    continue;
                }
            };
            let d = r.disk_stall_pct().unwrap_or(0.0);
            bert_disk = bert_disk.max(d);
            t.row(vec![
                "BERT-large".to_string(),
                "4".to_string(),
                job.cluster.display_name(),
                pct(r.cpu_stall_pct()),
                pct(Some(d)),
            ]);
        }
    }
    t.finish();
    assert!(worst_cpu < 20.0, "CPU stall negligible, got {worst_cpu}%");
    assert!(
        vision_disk_16x > 0.0,
        "8-GPU vision runs must show fetch stalls"
    );
    assert!(
        bert_disk < 5.0,
        "SQuAD is tiny; BERT disk stall was {bert_disk}%"
    );
    println!("shape check: CPU negligible, vision disk stalls on 8-GPU configs, BERT none ✓");
}
