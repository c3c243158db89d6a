//! Fig. 6: training time and monetary cost per epoch for P2, small models.
//!
//! Expected shapes: two networked p2.8xlarge beat one p2.16xlarge on time
//! (6a) at the same hourly price, so also on cost (6b); p2.xlarge is the
//! cheapest (no interconnect stalls).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{bench_stash, p2_configs, rollup_from_reports, small_model_batches, Table};
use stash_core::cache::MeasurementCache;
use stash_core::cost::epoch_cost;
use stash_core::profiler::{par_profile_many, ProfileJob};
use stash_dnn::zoo;

fn main() {
    let mut t = Table::new(
        "fig06_p2_time_cost",
        "Training time and cost per epoch, P2, small models (paper Fig. 6)",
        &["model", "batch", "config", "epoch_s", "epoch_cost_usd"],
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

    let mut time_16x = 0.0;
    let mut time_8x2 = 0.0;
    let mut cheapest_votes = std::collections::HashMap::<String, u32>::new();
    let per_point = p2_configs().len();
    for (jobs_chunk, results_chunk) in jobs.chunks(per_point).zip(results.chunks(per_point)) {
        let mut best: Option<(String, f64)> = None;
        for (job, result) in jobs_chunk.iter().zip(results_chunk) {
            let r = result.as_ref().expect("profile");
            let bill = epoch_cost(r, &job.cluster);
            let secs = bill.epoch_time.as_secs_f64();
            match job.cluster.display_name().as_str() {
                "p2.16xlarge" => time_16x += secs,
                "p2.8xlarge*2" => time_8x2 += secs,
                _ => {}
            }
            if best.as_ref().is_none_or(|(_, c)| bill.epoch_cost < *c) {
                best = Some((job.cluster.display_name(), bill.epoch_cost));
            }
            t.row(vec![
                job.stash.model().name.clone(),
                job.stash.per_gpu_batch().to_string(),
                job.cluster.display_name(),
                format!("{secs:.1}"),
                format!("{:.2}", bill.epoch_cost),
            ]);
        }
        *cheapest_votes.entry(best.unwrap().0).or_insert(0) += 1;
    }
    t.finish();
    assert!(
        time_8x2 < time_16x,
        "8xlarge*2 ({time_8x2:.0}s) must beat 16xlarge ({time_16x:.0}s)"
    );
    let xlarge_wins = cheapest_votes.get("p2.xlarge").copied().unwrap_or(0);
    assert!(
        xlarge_wins >= 8,
        "p2.xlarge should usually be cheapest: {cheapest_votes:?}"
    );
    println!("shape check: 8xlarge*2 faster than 16xlarge; p2.xlarge cheapest in {xlarge_wins}/10 sweeps ✓");
}
