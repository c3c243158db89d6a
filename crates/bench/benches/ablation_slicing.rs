//! Ablation: the p3.8xlarge crossbar-slicing lottery (paper §V-B). A
//! tenant that receives a whole crossbar (`Slicing::Full`) sees
//! p3.16xlarge-class interconnect stalls; a degraded slice pays PCIe
//! prices on the cross-crossbar hops.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{pct, Table, BENCH_ITERS};
use stash_core::profiler::Stash;
use stash_dnn::zoo;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::{p3_16xlarge, p3_8xlarge_sliced};
use stash_hwtopo::interconnect::Slicing;

fn main() {
    let mut t = Table::new(
        "ablation_slicing",
        "p3.8xlarge crossbar slicing ablation (paper §V-B anomaly)",
        &["model", "config", "ic_stall_pct"],
    );
    for model in [zoo::resnet18(), zoo::resnet50()] {
        let stash = |m: &stash_dnn::model::Model| {
            Stash::new(m.clone())
                .with_batch(32)
                .with_sampled_iterations(BENCH_ITERS)
        };
        let ic = |cluster: &ClusterSpec| {
            stash(&model)
                .profile(cluster)
                .expect("profile")
                .interconnect_stall_pct()
                .unwrap_or(0.0)
        };
        let degraded = ic(&ClusterSpec::single(p3_8xlarge_sliced(Slicing::Degraded)));
        let full = ic(&ClusterSpec::single(p3_8xlarge_sliced(Slicing::Full)));
        let x16 = ic(&ClusterSpec::single(p3_16xlarge()));
        t.row(vec![
            model.name.clone(),
            "8xlarge (degraded slice)".into(),
            pct(Some(degraded)),
        ]);
        t.row(vec![
            model.name.clone(),
            "8xlarge (full crossbar)".into(),
            pct(Some(full)),
        ]);
        t.row(vec![model.name.clone(), "16xlarge".into(), pct(Some(x16))]);
        assert!(
            degraded > full,
            "{}: degraded {degraded} > full {full}",
            model.name
        );
        assert!(
            degraded > x16,
            "{}: degraded {degraded} > 16xlarge {x16}",
            model.name
        );
    }
    t.finish();
    println!("shape check: the slicing lottery explains the 8xlarge anomaly ✓");
}
