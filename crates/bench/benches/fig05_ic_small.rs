//! Fig. 5: interconnect stall % for small models on P2 (a) and P3 (b).
//!
//! For single instances this is the paper's `(T2-T1)/T1`; for the
//! networked pairs (the `*2` configurations in the figure's legend) the
//! communication stall vs a single GPU is `(T5-T1)/T1`.
//!
//! Expected shapes: p2.16xlarge worst in P2 (PCIe contention);
//! p3.8xlarge anomalously high in P3 (sub-optimal crossbar slice).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{bench_stash, pct, rollup_from_reports, small_model_batches, Table};
use stash_core::cache::MeasurementCache;
use stash_core::profiler::{par_profile_many, ProfileJob};
use stash_dnn::zoo;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::{p2_16xlarge, p2_8xlarge, p3_16xlarge, p3_8xlarge};

fn comm_stall_vs_single_gpu(r: &stash_core::report::StallReport) -> Option<f64> {
    let t1 = r.times.t1?;
    let multi = r.times.t5.or(r.times.t2)?;
    Some(multi.saturating_sub(t1).ratio(t1) * 100.0)
}

fn main() {
    let configs = [
        ("P2", ClusterSpec::single(p2_8xlarge())),
        ("P2", ClusterSpec::homogeneous(p2_8xlarge(), 2)),
        ("P2", ClusterSpec::single(p2_16xlarge())),
        ("P3", ClusterSpec::single(p3_8xlarge())),
        ("P3", ClusterSpec::homogeneous(p3_8xlarge(), 2)),
        ("P3", ClusterSpec::single(p3_16xlarge())),
    ];
    let mut t = Table::new(
        "fig05_ic_small",
        "Interconnect/communication stall %, small models (paper Fig. 5)",
        &["family", "model", "batch", "config", "comm_stall_pct"],
    );
    let mut jobs = Vec::new();
    let mut families = Vec::new();
    for model in zoo::small_models() {
        for batch in small_model_batches() {
            for (family, cluster) in &configs {
                jobs.push(ProfileJob {
                    stash: bench_stash(model.clone(), batch),
                    cluster: cluster.clone(),
                });
                families.push(*family);
            }
        }
    }
    let results = par_profile_many(&jobs, Some(&MeasurementCache::new()));
    t.set_rollup(rollup_from_reports(
        results.iter().filter_map(|r| r.as_ref().ok()),
    ));

    let mut stalls: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    for ((job, family), result) in jobs.iter().zip(families).zip(results) {
        let r = result.expect("profile");
        let s = comm_stall_vs_single_gpu(&r).unwrap_or(0.0);
        *stalls.entry(job.cluster.display_name()).or_insert(0.0) += s;
        t.row(vec![
            family.to_string(),
            job.stash.model().name.clone(),
            job.stash.per_gpu_batch().to_string(),
            job.cluster.display_name(),
            pct(Some(s)),
        ]);
    }
    t.finish();
    assert!(
        stalls["p2.16xlarge"] > stalls["p2.8xlarge"],
        "p2.16xlarge must stall worst: {stalls:?}"
    );
    assert!(
        stalls["p3.8xlarge"] > stalls["p3.16xlarge"],
        "p3.8xlarge slicing anomaly: {stalls:?}"
    );
    println!("shape check: p2.16xlarge worst (PCIe slicing), p3.8xlarge > p3.16xlarge (crossbar slice) ✓");
}
