//! Fig. 12: training time and cost per epoch, P3, large models + BERT.
//!
//! Expected shapes: p3.16xlarge and p3.24xlarge are equally performant
//! (same NVLink), so the pricier 24xlarge is the least cost-optimal.

use stash_bench::{bench_stash, large_model_batches, p3_configs, rollup_from_reports, Table};
use stash_core::cache::MeasurementCache;
use stash_core::cost::epoch_cost;
use stash_core::profiler::{par_profile_many, ProfileJob};
use stash_dnn::zoo;

fn main() {
    let mut t = Table::new(
        "fig12_p3_time_cost_large",
        "Training time and cost per epoch, P3, large models (paper Fig. 12)",
        &["model", "batch", "config", "epoch_s", "epoch_cost_usd"],
    );
    let mut points: Vec<(stash_dnn::model::Model, u64)> = Vec::new();
    for model in zoo::large_vision_models() {
        for batch in large_model_batches() {
            points.push((model.clone(), batch));
        }
    }
    points.push((zoo::bert_large(), 4));
    let mut jobs = Vec::new();
    for (model, batch) in &points {
        for cluster in p3_configs() {
            jobs.push(ProfileJob {
                stash: bench_stash(model.clone(), *batch),
                cluster,
            });
        }
    }
    let results = par_profile_many(&jobs, Some(&MeasurementCache::new()));
    t.set_rollup(rollup_from_reports(
        results.iter().filter_map(|r| r.as_ref().ok()),
    ));

    let mut t16 = 0.0_f64;
    let mut t24 = 0.0_f64;
    let mut c16 = 0.0_f64;
    let mut c24 = 0.0_f64;
    for (job, result) in jobs.iter().zip(results) {
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                t.row(vec![
                    job.stash.model().name.clone(),
                    job.stash.per_gpu_batch().to_string(),
                    job.cluster.display_name(),
                    format!("skipped: {e}"),
                    String::new(),
                ]);
                continue;
            }
        };
        let bill = epoch_cost(&r, &job.cluster);
        match job.cluster.display_name().as_str() {
            "p3.16xlarge" => {
                t16 += bill.epoch_time.as_secs_f64();
                c16 += bill.epoch_cost;
            }
            "p3.24xlarge" => {
                t24 += bill.epoch_time.as_secs_f64();
                c24 += bill.epoch_cost;
            }
            _ => {}
        }
        t.row(vec![
            job.stash.model().name.clone(),
            job.stash.per_gpu_batch().to_string(),
            job.cluster.display_name(),
            format!("{:.1}", bill.epoch_time.as_secs_f64()),
            format!("{:.2}", bill.epoch_cost),
        ]);
    }
    t.finish();
    let time_ratio = t24 / t16;
    assert!(
        (0.85..1.15).contains(&time_ratio),
        "24x ≈ 16x in time, ratio {time_ratio}"
    );
    assert!(c24 > c16, "24xlarge must cost more: ${c24:.2} vs ${c16:.2}");
    println!(
        "shape check: 16xlarge and 24xlarge equally performant, 24xlarge least cost-optimal ✓"
    );
}
