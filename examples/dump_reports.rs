//! Dumps one serialized `StallReport` JSON line per (cluster, model,
//! batch) combination over a diverse grid — P2 and P3, single- and
//! multi-node, four models, two batch sizes, real-data cold and warm
//! pipelines.
//!
//! Purpose: cross-revision bit-identity checks. Its output is committed
//! as `tests/dump_reports.txt`, which `scripts/tier1.sh` compares with a
//! fresh run byte for byte; any simulator change that claims determinism
//! preservation must produce byte-identical lines. The PR 4
//! zero-allocation core was validated exactly this way against the
//! prior core.
//!
//! ```sh
//! cargo run --release --example dump_reports > /tmp/reports.txt
//! cmp /tmp/reports.txt tests/dump_reports.txt
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use stash_core::profiler::Stash;
use stash_dnn::model::Model;
use stash_dnn::zoo;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::{
    p2_16xlarge, p2_8xlarge, p3_16xlarge, p3_24xlarge, p3_2xlarge, p3_8xlarge,
};

fn main() {
    let clusters: Vec<ClusterSpec> = vec![
        ClusterSpec::single(p3_2xlarge()),
        ClusterSpec::single(p3_8xlarge()),
        ClusterSpec::homogeneous(p3_8xlarge(), 2),
        ClusterSpec::single(p3_16xlarge()),
        ClusterSpec::single(p3_24xlarge()),
        ClusterSpec::single(p2_16xlarge()),
        ClusterSpec::homogeneous(p2_8xlarge(), 2),
    ];
    let models: Vec<Model> = vec![
        zoo::alexnet(),
        zoo::resnet18(),
        zoo::resnet50(),
        zoo::bert_large(),
    ];
    for c in &clusters {
        for m in &models {
            for batch in [32_u64, 8] {
                let s = Stash::new(m.clone())
                    .with_batch(batch)
                    .with_sampled_iterations(40)
                    .with_epoch_samples(200_000);
                match s.profile_serial(c) {
                    Ok(r) => println!("{}", serde_json::to_string(&r).unwrap()),
                    Err(e) => println!("{} {} {batch}: ERR {e:?}", c.display_name(), m.name),
                }
            }
        }
    }
}
