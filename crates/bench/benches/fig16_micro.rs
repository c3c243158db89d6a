//! Fig. 16: micro-characterization — interconnect stall (a) and network
//! stall (b) as the number of layers varies (synthetic ResNet/VGG), plus
//! the no-batch-norm and no-residual ablations.
//!
//! Expected shapes: both stalls grow with depth; VGG has *lower*
//! interconnect stall than much-smaller ResNets but far *higher* network
//! stall; removing BN lowers stalls; removing residuals changes little.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{pct, rollup_from_reports, Table, BENCH_ITERS};
use stash_core::profiler::Stash;
use stash_dnn::synth::{resnet, resnet_with, vgg, ResNetOptions};
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::p3_8xlarge;

fn main() {
    let mut t = Table::new(
        "fig16_micro",
        "I/C and N/W stalls vs layer count, synthetic models (paper Fig. 16)",
        &[
            "model",
            "sync_points",
            "grads_mb",
            "ic_stall_pct",
            "nw_stall_pct",
            "ic_stall_s",
            "nw_stall_s",
        ],
    );
    let mut models = Vec::new();
    for d in [18, 34, 50, 101, 152] {
        models.push(resnet(d));
    }
    for d in [11, 13, 16, 19] {
        models.push(vgg(d));
    }
    models.push(resnet_with(
        50,
        ResNetOptions {
            batch_norm: false,
            residual: true,
        },
    ));
    models.push(resnet_with(
        50,
        ResNetOptions {
            batch_norm: true,
            residual: false,
        },
    ));

    // All experiments at batch 32 on a p3.16xlarge-class machine, with the
    // networked pair for the N/W series (paper setup).
    let cluster = ClusterSpec::homogeneous(p3_8xlarge(), 2);
    let mut rows = std::collections::HashMap::new();
    let mut reports = Vec::new();
    for model in &models {
        let stash = Stash::new(model.clone())
            .with_batch(32)
            .with_sampled_iterations(BENCH_ITERS);
        let r = stash.profile(&cluster).expect("profile");
        let ic_pct = r.interconnect_stall_pct().unwrap_or(0.0);
        let nw_pct = r.network_stall_pct().unwrap_or(0.0);
        let ic_s = r.interconnect_stall().map_or(0.0, |d| d.as_secs_f64());
        let nw_s = r.network_stall().map_or(0.0, |d| d.as_secs_f64());
        rows.insert(model.name.clone(), (ic_pct, nw_pct, ic_s, nw_s));
        t.row(vec![
            model.name.clone(),
            model.trainable_layer_count().to_string(),
            format!("{:.1}", model.gradient_bytes() / 1e6),
            pct(Some(ic_pct)),
            pct(Some(nw_pct)),
            format!("{ic_s:.1}"),
            format!("{nw_s:.1}"),
        ]);
        reports.push(r);
    }
    t.set_rollup(rollup_from_reports(&reports));
    t.finish();

    // §VI-A1: "as the number of layers increases ... both the interconnect
    // stall and network stall TIME increases".
    assert!(
        rows["ResNet152"].2 > rows["ResNet18"].2,
        "I/C stall time grows with depth"
    );
    assert!(
        rows["ResNet152"].3 > rows["ResNet18"].3,
        "N/W stall time grows with depth"
    );
    assert!(
        rows["VGG19"].3 >= rows["VGG11"].3 * 0.95,
        "VGG N/W stall time grows (weakly)"
    );
    // The §VI asymmetry (percentages, as in the figure).
    assert!(
        rows["VGG11"].0 < rows["ResNet152"].0,
        "VGG I/C ({}) below deep ResNet ({})",
        rows["VGG11"].0,
        rows["ResNet152"].0
    );
    assert!(
        rows["VGG11"].1 > rows["ResNet18"].1,
        "VGG N/W ({}) above ResNet ({})",
        rows["VGG11"].1,
        rows["ResNet18"].1
    );
    // Ablations.
    assert!(
        rows["ResNet50-noBN"].0 < rows["ResNet50"].0,
        "removing BN lowers I/C stall"
    );
    let (skip_ic, base_ic) = (rows["ResNet50-noSkip"].0, rows["ResNet50"].0);
    assert!(
        (skip_ic - base_ic).abs() <= 0.3 * base_ic.max(1.0),
        "removing residuals changes little: {skip_ic} vs {base_ic}"
    );
    println!(
        "shape check: depth -> I/C stall, gradients -> N/W stall, BN matters, residuals don't ✓"
    );
}
