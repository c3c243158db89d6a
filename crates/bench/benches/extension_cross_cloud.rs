//! Extension: the same characterization across clouds.
//!
//! The paper's intro names AWS, Azure and GCP but studies AWS only. Since
//! all three rent the same K80/V100 silicon behind different packaging,
//! Stash's methodology ports directly; this sweep characterizes the
//! analogous Azure/GCP shapes next to their AWS counterparts.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{pct, Table, BENCH_ITERS};
use stash_core::cost::epoch_cost;
use stash_core::profiler::Stash;
use stash_dnn::zoo;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::{p2_8xlarge, p3_16xlarge, p3_8xlarge_sliced};
use stash_hwtopo::interconnect::Slicing;
use stash_hwtopo::providers::{azure_nc24, azure_nc24s_v3, gcp_n1_k80x4, gcp_n1_v100x8};

fn main() {
    let mut t = Table::new(
        "extension_cross_cloud",
        "AWS vs Azure vs GCP for the same silicon (extension beyond the paper)",
        &[
            "model",
            "cloud",
            "instance",
            "ic_stall_pct",
            "epoch_s",
            "epoch_cost_usd",
        ],
    );
    let configs = [
        ("aws", ClusterSpec::single(p2_8xlarge())),
        ("azure", ClusterSpec::single(azure_nc24())),
        ("gcp", ClusterSpec::single(gcp_n1_k80x4())),
        ("aws", ClusterSpec::single(p3_8xlarge_sliced(Slicing::Full))),
        ("azure", ClusterSpec::single(azure_nc24s_v3())),
        ("aws", ClusterSpec::single(p3_16xlarge())),
        ("gcp", ClusterSpec::single(gcp_n1_v100x8())),
    ];
    let mut nvlink_ic = Vec::new();
    let mut pcie_ic = Vec::new();
    for model in [zoo::resnet18()] {
        let stash = Stash::new(model.clone())
            .with_batch(32)
            .with_sampled_iterations(BENCH_ITERS);
        for (cloud, cluster) in &configs {
            let r = stash.profile(cluster).expect("profile");
            let ic = r.interconnect_stall_pct().unwrap_or(0.0);
            let bill = epoch_cost(&r, cluster);
            let nvlink = cluster.instances[0].interconnect.has_nvlink();
            if nvlink {
                nvlink_ic.push(ic);
            } else if cluster.world_size() > 1 {
                pcie_ic.push(ic);
            }
            t.row(vec![
                model.name.clone(),
                (*cloud).to_string(),
                cluster.display_name(),
                pct(Some(ic)),
                format!("{:.1}", bill.epoch_time.as_secs_f64()),
                format!("{:.2}", bill.epoch_cost),
            ]);
        }
    }
    t.finish();
    // The silicon, not the cloud, decides the interconnect stall.
    let max_nvlink = nvlink_ic.iter().fold(0.0_f64, |a, &b| a.max(b));
    let min_pcie = pcie_ic.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    assert!(
        max_nvlink < min_pcie,
        "every NVLink shape must beat every PCIe shape: nvlink {nvlink_ic:?} vs pcie {pcie_ic:?}"
    );
    println!("shape check: interconnect stalls follow the silicon across clouds ✓");
}
