//! §VI-B: the true cost of a Srifty-style recommender.
//!
//! Srifty grid-probes bandwidth across buffer sizes and cluster shapes
//! before it can predict anything; Stash's characterization ships with the
//! paper at no cost to users. This experiment (i) runs the probing
//! campaign and bills it, (ii) checks the resulting predictor against the
//! full engine, and (iii) prints the bill next to Stash's (zero).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::Table;
use stash_core::srifty::{compare, grid_probe, standard_buffer_grid, SriftyPredictor};
use stash_dnn::zoo;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::{p2_16xlarge, p2_8xlarge, p3_16xlarge, p3_8xlarge};

fn main() {
    let clusters = vec![
        ClusterSpec::single(p2_8xlarge()),
        ClusterSpec::single(p2_16xlarge()),
        ClusterSpec::single(p3_8xlarge()),
        ClusterSpec::single(p3_16xlarge()),
        ClusterSpec::homogeneous(p3_8xlarge(), 2),
        ClusterSpec::homogeneous(p2_8xlarge(), 2),
    ];
    let (measurements, bill) = grid_probe(&clusters, &standard_buffer_grid());
    let predictor = SriftyPredictor::fit(&measurements);

    let mut t = Table::new(
        "srifty_comparison",
        "Srifty-style probe-and-predict vs the engine, plus the probing bill (paper §VI-B)",
        &[
            "cluster",
            "model",
            "predicted_sps",
            "simulated_sps",
            "ratio",
        ],
    );
    let mut worst_ratio: f64 = 1.0;
    for cluster in &clusters {
        for model in [zoo::resnet18(), zoo::vgg11()] {
            let c = compare(&predictor, cluster, &model, 32).expect("compare");
            worst_ratio = worst_ratio.max(c.ratio.max(1.0 / c.ratio));
            t.row(vec![
                c.cluster.clone(),
                model.name.clone(),
                format!("{:.0}", c.predicted),
                format!("{:.0}", c.simulated),
                format!("{:.2}", c.ratio),
            ]);
        }
    }
    t.finish();
    println!(
        "probing bill: {} measurements, {:.2} VM-hours, ${:.2} (Stash: $0.00 for users)",
        bill.measurements, bill.vm_hours, bill.usd
    );
    assert!(
        bill.usd > 10.0,
        "the campaign must cost real money: ${:.2}",
        bill.usd
    );
    assert!(
        worst_ratio < 3.0,
        "predictions should be in the ballpark, worst {worst_ratio:.2}x"
    );
    println!(
        "shape check: probe-based prediction works but the probing itself costs ${:.2} ✓",
        bill.usd
    );
}
