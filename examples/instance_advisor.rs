//! Instance advisor: sweep the AWS P2/P3 catalog for a model and print a
//! ranked time/cost table — the paper's per-section "Recommendation"
//! paragraphs, automated for *your* model.
//!
//! ```sh
//! cargo run --release --example instance_advisor -- [model] [batch]
//! # e.g.
//! cargo run --release --example instance_advisor -- vgg11 32
//! ```

use stash::prelude::*;

fn main() -> Result<(), ProfileError> {
    let mut args = std::env::args().skip(1);
    let model_name = args.next().unwrap_or_else(|| "resnet18".into());
    let batch: u64 = args.next().and_then(|b| b.parse().ok()).unwrap_or(32);
    let model = zoo::by_name(&model_name).unwrap_or_else(|| {
        eprintln!("unknown model '{model_name}', using ResNet18");
        zoo::resnet18()
    });
    let dataset = DatasetSpec::for_model(&model);

    println!("advising for {} at per-GPU batch {batch}\n", model.name);
    let stash = Stash::new(model)
        .with_batch(batch)
        .with_dataset(dataset)
        .with_sampled_iterations(10);

    for objective in [Objective::Time, Objective::Cost] {
        let advice = recommend(&stash, &default_candidates(), objective)?;
        println!("ranked by {objective:?}:");
        println!(
            "  {:<16} {:>12} {:>10} {:>8} {:>8} {:>8} {:>8}",
            "cluster", "epoch", "cost $", "I/C %", "N/W %", "CPU %", "disk %"
        );
        for r in &advice.ranked {
            let pct = |p: Option<f64>| p.map_or("-".into(), |v| format!("{v:.1}"));
            println!(
                "  {:<16} {:>12} {:>10.2} {:>8} {:>8} {:>8} {:>8}",
                r.cluster_name,
                r.cost.epoch_time.to_string(),
                r.cost.epoch_cost,
                pct(r.report.interconnect_stall_pct()),
                pct(r.report.network_stall_pct()),
                pct(r.report.cpu_stall_pct()),
                pct(r.report.disk_stall_pct()),
            );
        }
        for s in &advice.skipped {
            println!("  {:<16} skipped: {}", s.cluster_name, s.reason);
        }
        println!();
    }
    Ok(())
}
