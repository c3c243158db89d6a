//! Sensitivity: AWS network QoS variance (paper §III).
//!
//! The paper argues network QoS "is subject to high temporal (up to
//! months) and spatial (availability zones, regions) variations and is
//! hard to definitively characterize". This experiment sweeps the
//! achievable fraction of the nominal 10 Gbps on a 2x p3.8xlarge pair and
//! shows how violently the network stall responds — the reason a
//! probe-once recommender (Srifty) goes stale.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{Table, BENCH_ITERS};
use stash_core::profiler::Stash;
use stash_dnn::zoo;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::p3_8xlarge;

fn main() {
    let mut t = Table::new(
        "sensitivity_network_qos",
        "Network stall vs achieved network bandwidth (paper §III QoS variance)",
        &["model", "achieved_gbps", "nw_stall_pct"],
    );
    let mut series = Vec::new();
    for multiplier in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let mut inst = p3_8xlarge();
        inst.network_gbps *= multiplier;
        let cluster = ClusterSpec::homogeneous(inst, 2);
        let r = Stash::new(zoo::resnet50())
            .with_batch(32)
            .with_sampled_iterations(BENCH_ITERS)
            .profile(&cluster)
            .expect("profile");
        let nw = r.network_stall_pct().unwrap();
        series.push(nw);
        t.row(vec![
            "ResNet50".to_string(),
            format!("{:.1}", 10.0 * multiplier),
            format!("{nw:.1}"),
        ]);
    }
    t.finish();
    assert!(
        series.windows(2).all(|w| w[0] >= w[1]),
        "stall must fall as bandwidth improves: {series:?}"
    );
    assert!(
        series[0] > 3.0 * series[series.len() - 1],
        "a 16x bandwidth swing must move the stall by >3x: {series:?}"
    );
    println!("shape check: network stall is violently sensitive to achieved bandwidth ✓");
}
