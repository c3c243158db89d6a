//! §VI analytic-model check: the closed form `T = (tau + G/(L·B))·L`
//! against (a) the per-bucket collective cost under PyTorch-style 25 MB
//! bucketing (a *different* bucket structure than the per-layer one the
//! closed form assumes) and (b) the full engine's measured communication
//! stall, which overlap can only shrink.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{Table, BENCH_ITERS};
use stash_collectives::bucket::Bucketing;
use stash_core::analytic::{comm_estimate, comm_simulated, link_parameters};
use stash_core::profiler::Stash;
use stash_dnn::{synth, zoo};
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::{p2_16xlarge, p3_16xlarge};

fn main() {
    let clusters = [
        ClusterSpec::single(p3_16xlarge()),
        ClusterSpec::single(p2_16xlarge()),
    ];
    let models = [
        zoo::resnet18(),
        zoo::resnet50(),
        zoo::vgg11(),
        zoo::alexnet(),
        synth::resnet(152),
    ];
    let mut t = Table::new(
        "analytic_model_check",
        "Closed-form (tau + G/(L·B))·L vs 25MB-bucket simulation and engine stall (paper §VI)",
        &[
            "cluster",
            "tau_us",
            "B_gbps",
            "model",
            "closed_form_ms",
            "bucketed_sim_ms",
            "engine_stall_ms",
            "form_vs_sim",
        ],
    );
    for cluster in &clusters {
        let p = link_parameters(cluster);
        for model in &models {
            let est = comm_estimate(cluster, model, Bucketing::PerLayer)
                .total
                .as_secs_f64();
            let sim = comm_simulated(cluster, model, Bucketing::pytorch_default()).as_secs_f64();
            // Engine-measured interconnect stall per iteration: overlap can
            // hide communication, never add any.
            let report = Stash::new(model.clone())
                .with_batch(32)
                .with_sampled_iterations(BENCH_ITERS)
                .profile(cluster)
                .expect("profile");
            let iters = 1_281_167.0 / (cluster.world_size() as f64 * 32.0);
            let engine_stall = report.interconnect_stall().map_or(0.0, |d| d.as_secs_f64()) / iters;
            let ratio = est / sim;
            t.row(vec![
                cluster.display_name(),
                format!("{:.0}", p.tau_seconds * 1e6),
                format!("{:.1}", p.bandwidth_bps / 1e9),
                model.name.clone(),
                format!("{:.2}", est * 1e3),
                format!("{:.2}", sim * 1e3),
                format!("{:.2}", engine_stall * 1e3),
                format!("{ratio:.2}"),
            ]);
            // Coarser (25 MB) buckets remove per-layer latency, so they can
            // only be cheaper than the per-layer closed form — and on
            // bandwidth-bound paths they converge to it.
            assert!(
                sim <= est * 1.05,
                "{} on {}: coarse buckets cannot cost more ({sim} vs {est})",
                model.name,
                cluster.display_name()
            );
            assert!(
                engine_stall <= est * 1.5,
                "{} on {}: exposed stall ({engine_stall}s) cannot exceed total comm ({est}s)",
                model.name,
                cluster.display_name()
            );
        }
    }
    t.finish();
    println!("shape check: closed form bounds the exposed stall and tracks coarse bucketing ✓");
}
