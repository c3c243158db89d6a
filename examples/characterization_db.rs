//! Publish and query a characterization store — the artifact the paper's
//! economics rest on: the authors pay for the characterization once,
//! tenants consume it for free.
//!
//! ```sh
//! cargo run --release --example characterization_db
//! ```

use std::error::Error;
use std::path::Path;

use stash::prelude::*;

fn main() -> Result<(), Box<dyn Error>> {
    let dir =
        std::env::temp_dir().join(format!("stash_characterization_db_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = publish(&dir).and_then(|()| consume(&dir));
    let cleaned = std::fs::remove_dir_all(&dir);
    result?;
    Ok(cleaned?)
}

/// Phase 1 (the paper's role): characterize a model across the catalog
/// into a durable result store.
fn publish(dir: &Path) -> Result<(), Box<dyn Error>> {
    let stash = Stash::new(zoo::resnet18())
        .with_batch(32)
        .with_sampled_iterations(6);
    let jobs: Vec<ProfileJob> = default_candidates()
        .into_iter()
        .map(|cluster| ProfileJob {
            stash: stash.clone(),
            cluster,
        })
        .collect();
    let store = ResultStore::open(dir, Box::new(StdFs::new()))?;
    let outcome = run_sweep(
        &jobs,
        Some(&store),
        &RetryPolicy::default(),
        &MeasurementCache::new(),
    );
    for cell in &outcome.cells {
        if let CellStatus::Failed(reason) = &cell.status {
            println!("skipping {}: {reason}", cell.cluster);
        }
    }
    println!(
        "published {} characterizations to {}\n",
        outcome.computed(),
        dir.display()
    );
    Ok(())
}

/// Phase 2 (the tenant's role): read the published store back — verified
/// records only, no simulation — and make a decision without renting a
/// single VM.
fn consume(dir: &Path) -> Result<(), Box<dyn Error>> {
    let store = ResultStore::open(dir, Box::new(StdFs::new()))?;
    let mut published = Vec::new();
    for key in store.keys()? {
        match store.get(key)? {
            Fetch::Hit(payload) => published.push(decode_cell_record(&payload)?),
            _ => println!("skipping unverified record {}", key_hex(key)),
        }
    }
    published.sort_by(|a, b| a.cluster.cmp(&b.cluster));

    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8}",
        "cluster", "I/C %", "N/W %", "CPU %", "disk %"
    );
    for r in &published {
        let p = |v: Option<f64>| v.map_or("-".into(), |x| format!("{x:.1}"));
        println!(
            "{:<16} {:>8} {:>8} {:>8} {:>8}",
            r.cluster,
            p(r.interconnect_stall_pct()),
            p(r.network_stall_pct()),
            p(r.cpu_stall_pct()),
            p(r.disk_stall_pct()),
        );
    }
    let (epoch, best) = published
        .iter()
        .filter_map(|r| r.training_epoch_time().map(|t| (t, r)))
        .min_by_key(|(t, _)| *t)
        .ok_or("the store holds no timed characterization")?;
    println!(
        "\n=> fastest published configuration: {} ({epoch} per warm epoch) — zero profiling cost to you",
        best.cluster
    );
    Ok(())
}
