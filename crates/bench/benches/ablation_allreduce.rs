//! Ablation: ring vs tree vs parameter-server collectives across the
//! network — reproducing the related-work claim (paper §III) that PS
//! communication performance "is strictly less than all-reduce".

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{Table, BENCH_ITERS};
use stash_collectives::schedule::Algorithm;
use stash_core::profiler::Stash;
use stash_dnn::zoo;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::p3_8xlarge;

fn main() {
    let mut t = Table::new(
        "ablation_allreduce",
        "Collective algorithm ablation on 2x p3.8xlarge (paper §III PS claim)",
        &["model", "algorithm", "epoch_s", "nw_stall_pct"],
    );
    let cluster = ClusterSpec::homogeneous(p3_8xlarge(), 2);
    for model in [zoo::resnet18(), zoo::vgg11()] {
        let mut times = std::collections::HashMap::new();
        for algo in [Algorithm::Ring, Algorithm::Tree, Algorithm::ParameterServer] {
            let stash = Stash::new(model.clone())
                .with_batch(32)
                .with_algorithm(algo)
                .with_sampled_iterations(BENCH_ITERS);
            let r = stash.profile(&cluster).expect("profile");
            let secs = r.times.t5.unwrap().as_secs_f64();
            times.insert(algo.label(), secs);
            t.row(vec![
                model.name.clone(),
                algo.label().to_string(),
                format!("{secs:.1}"),
                format!("{:.1}", r.network_stall_pct().unwrap_or(0.0)),
            ]);
        }
        assert!(
            times["parameter-server"] > times["ring"],
            "{}: PS must be slower than ring ({} vs {})",
            model.name,
            times["parameter-server"],
            times["ring"]
        );
    }
    t.finish();
    println!("shape check: parameter server strictly worse than ring all-reduce ✓");
}
