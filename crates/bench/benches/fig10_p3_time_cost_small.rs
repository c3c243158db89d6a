//! Fig. 10: training time and cost per epoch, P3, small models.
//!
//! Expected shapes: p3.16xlarge is the most performant; p3.2xlarge the
//! most cost-optimal; the networked pair the least cost-optimal multi-GPU
//! option.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{bench_stash, p3_configs, rollup_from_reports, small_model_batches, Table};
use stash_core::cache::MeasurementCache;
use stash_core::cost::epoch_cost;
use stash_core::profiler::{par_profile_many, ProfileJob};
use stash_dnn::zoo;

fn main() {
    let mut t = Table::new(
        "fig10_p3_time_cost_small",
        "Training time and cost per epoch, P3, small models (paper Fig. 10)",
        &["model", "batch", "config", "epoch_s", "epoch_cost_usd"],
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

    let mut fastest_votes = std::collections::HashMap::<String, u32>::new();
    let mut cheapest_votes = std::collections::HashMap::<String, u32>::new();
    let per_point = p3_configs().len();
    for (jobs_chunk, results_chunk) in jobs.chunks(per_point).zip(results.chunks(per_point)) {
        let mut fastest: Option<(String, f64)> = None;
        let mut cheapest: Option<(String, f64)> = None;
        for (job, result) in jobs_chunk.iter().zip(results_chunk) {
            let r = result.as_ref().expect("profile");
            let bill = epoch_cost(r, &job.cluster);
            let secs = bill.epoch_time.as_secs_f64();
            if fastest.as_ref().is_none_or(|(_, s)| secs < *s) {
                fastest = Some((job.cluster.display_name(), secs));
            }
            if cheapest.as_ref().is_none_or(|(_, c)| bill.epoch_cost < *c) {
                cheapest = Some((job.cluster.display_name(), bill.epoch_cost));
            }
            t.row(vec![
                job.stash.model().name.clone(),
                job.stash.per_gpu_batch().to_string(),
                job.cluster.display_name(),
                format!("{secs:.1}"),
                format!("{:.2}", bill.epoch_cost),
            ]);
        }
        *fastest_votes.entry(fastest.unwrap().0).or_insert(0) += 1;
        *cheapest_votes.entry(cheapest.unwrap().0).or_insert(0) += 1;
    }
    t.finish();
    let f16 = fastest_votes.get("p3.16xlarge").copied().unwrap_or(0)
        + fastest_votes.get("p3.24xlarge").copied().unwrap_or(0);
    assert!(
        f16 >= 7,
        "16x/24x should usually be fastest: {fastest_votes:?}"
    );
    let c2 = cheapest_votes.get("p3.2xlarge").copied().unwrap_or(0);
    assert!(
        c2 >= 8,
        "p3.2xlarge should usually be cheapest: {cheapest_votes:?}"
    );
    println!("shape check: 16x-class fastest ({f16}/10), 2xlarge cheapest ({c2}/10) ✓");
}
