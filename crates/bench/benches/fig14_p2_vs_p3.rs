//! Fig. 14: P2 vs P3 training time and cost per epoch across models.
//!
//! Expected shapes: P3 is generally more cost-effective despite its ~3.5x
//! hourly price — except for tiny models (ShuffleNet), which are cheapest
//! on P2.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{bench_stash, rollup_from_reports, Table};
use stash_core::cache::MeasurementCache;
use stash_core::cost::epoch_cost;
use stash_core::profiler::{par_profile_many, ProfileJob};
use stash_dnn::zoo;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::{
    p2_16xlarge, p2_8xlarge, p2_xlarge, p3_16xlarge, p3_2xlarge, p3_8xlarge,
};

fn main() {
    let mut t = Table::new(
        "fig14_p2_vs_p3",
        "P2 vs P3 train-time/cost comparison (paper Fig. 14)",
        &["model", "config", "epoch_s", "epoch_cost_usd"],
    );
    let configs = [
        ClusterSpec::single(p2_xlarge()),
        ClusterSpec::single(p2_8xlarge()),
        ClusterSpec::single(p2_16xlarge()),
        ClusterSpec::single(p3_2xlarge()),
        ClusterSpec::single(p3_8xlarge()),
        ClusterSpec::single(p3_16xlarge()),
    ];
    let models = [
        zoo::shufflenet(),
        zoo::mobilenet_v2(),
        zoo::resnet18(),
        zoo::resnet50(),
    ];
    let mut jobs = Vec::new();
    for model in &models {
        for cluster in &configs {
            jobs.push(ProfileJob {
                stash: bench_stash(model.clone(), 32),
                cluster: cluster.clone(),
            });
        }
    }
    let results = par_profile_many(&jobs, Some(&MeasurementCache::new()));
    t.set_rollup(rollup_from_reports(
        results.iter().filter_map(|r| r.as_ref().ok()),
    ));

    let mut cheapest = std::collections::HashMap::<String, String>::new();
    for (jobs_chunk, results_chunk) in jobs
        .chunks(configs.len())
        .zip(results.chunks(configs.len()))
    {
        let mut best: Option<(String, f64)> = None;
        for (job, result) in jobs_chunk.iter().zip(results_chunk) {
            let r = result.as_ref().expect("profile");
            let bill = epoch_cost(r, &job.cluster);
            if best.as_ref().is_none_or(|(_, c)| bill.epoch_cost < *c) {
                best = Some((job.cluster.display_name(), bill.epoch_cost));
            }
            t.row(vec![
                job.stash.model().name.clone(),
                job.cluster.display_name(),
                format!("{:.1}", bill.epoch_time.as_secs_f64()),
                format!("{:.2}", bill.epoch_cost),
            ]);
        }
        cheapest.insert(jobs_chunk[0].stash.model().name.clone(), best.unwrap().0);
    }
    t.finish();
    assert!(
        cheapest["ShuffleNet"].starts_with("p2."),
        "ShuffleNet is cheapest on P2: {cheapest:?}"
    );
    assert!(
        cheapest["ResNet50"].starts_with("p3."),
        "heavy models are cheapest on P3: {cheapest:?}"
    );
    println!("shape check: P3 generally cheaper, except tiny models (ShuffleNet -> P2) ✓");
}
