//! Ablation: communication/computation overlap (PyTorch DDP's backward
//! hook pipeline). Disabling overlap serializes every bucket after the
//! backward pass; on NVLink this costs real time, quantifying how much
//! DDP's overlap hides.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_bench::{Table, BENCH_ITERS};
use stash_ddl::config::{EpochMode, TrainConfig};
use stash_ddl::engine::run_epoch;
use stash_dnn::zoo;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::p3_16xlarge;

fn main() {
    let mut t = Table::new(
        "ablation_overlap",
        "Comm/compute overlap ablation on p3.16xlarge (design ablation)",
        &["model", "overlap", "epoch_s", "comm_wait_s"],
    );
    for model in [zoo::resnet50(), zoo::vgg11()] {
        let mut with_overlap = 0.0;
        let mut without = 0.0;
        for overlap in [true, false] {
            let mut cfg = TrainConfig::synthetic(
                ClusterSpec::single(p3_16xlarge()),
                model.clone(),
                32,
                32 * 200,
            );
            cfg.overlap = overlap;
            cfg.epoch_mode = EpochMode::Sampled {
                iterations: BENCH_ITERS,
            };
            let r = run_epoch(&cfg).expect("run");
            let secs = r.epoch_time.as_secs_f64();
            if overlap {
                with_overlap = secs;
            } else {
                without = secs;
            }
            t.row(vec![
                model.name.clone(),
                overlap.to_string(),
                format!("{secs:.2}"),
                format!("{:.2}", r.comm_wait.as_secs_f64()),
            ]);
        }
        assert!(
            without >= with_overlap,
            "{}: overlap must not slow training ({without} vs {with_overlap})",
            model.name
        );
    }
    t.finish();
    println!("shape check: DDP's overlap hides exposed communication ✓");
}
