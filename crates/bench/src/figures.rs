//! The ten sweep figures (paper Figs. 4–6 and 8–14) as one table over
//! one characterization grid.
//!
//! The paper reads these figures off a few shared P2 and P3 sweeps:
//! every configuration is characterized once, and each figure is a view
//! of those profiles. `FIGURES` declares each figure's cells, its row
//! for one profiled cell and its shape check. [`regenerate`] keys every
//! requested cell with [`cell_key`], profiles the distinct cells once
//! through `par_profile_many` with one `MeasurementCache`, then writes
//! each figure's CSV, JSON and `_rollup.json` from its own cells in its
//! own order and runs its check. Results are identical at any
//! `STASH_BENCH_THREADS`.

use std::collections::HashMap;
use std::process::ExitCode;

use stash_core::cache::MeasurementCache;
use stash_core::cost::epoch_cost;
use stash_core::error::ProfileError;
use stash_core::profiler::{par_profile_many, ProfileJob};
use stash_core::report::StallReport;
use stash_core::sweep::cell_key;
use stash_dnn::model::Model;
use stash_dnn::zoo;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::{
    p2_16xlarge, p2_8xlarge, p2_xlarge, p3_16xlarge, p3_24xlarge, p3_2xlarge, p3_8xlarge,
};

use crate::{
    bench_stash, large_model_batches, p2_configs, p3_configs, pct, rollup_from_reports,
    small_model_batches, Table,
};

/// Returns the formatted failure from the enclosing shape check unless
/// `holds`.
macro_rules! ensure {
    ($holds:expr, $($broken:tt)+) => {
        let holds: bool = $holds;
        if !holds {
            return Err(format!($($broken)+));
        }
    };
}

/// One profiled cell of a figure.
type Cell<'a> = (&'a ProfileJob, &'a StallReport);

/// One sweep figure: the cells it plots, its row for one profiled cell
/// and the paper's qualitative shape over its cells.
struct Figure {
    /// File stem under `results/`.
    name: &'static str,
    /// Title printed above the table and stored in its JSON.
    title: &'static str,
    /// Column headers.
    columns: &'static [&'static str],
    /// The cells the figure plots, in row order.
    cells: fn() -> Vec<ProfileJob>,
    /// The row for one profiled cell.
    row: fn(&Cell<'_>) -> Vec<String>,
    /// The shape check over the profiled cells, in row order: a summary
    /// when the shape holds, what broke when it does not.
    check: fn(&[Cell<'_>]) -> Result<String, String>,
    /// A cell that fails to profile (a model too large for the GPUs)
    /// becomes a `skipped` row; otherwise it fails the figure.
    skips_failures: bool,
}

const CPU_DISK_COLUMNS: &[&str] = &[
    "model",
    "batch",
    "config",
    "cpu_stall_pct",
    "disk_stall_pct",
];

const TIME_COST_COLUMNS: &[&str] = &["model", "batch", "config", "epoch_s", "epoch_cost_usd"];

/// Fig. 4: CPU (prep) and disk (fetch) stall percentages on the P2
/// family, small models, smallest/largest batch sizes.
///
/// Expected shapes: CPU stalls negligible everywhere (AWS vCPUs keep
/// up); disk stalls scale with the number of data-loading workers
/// (= GPUs per instance), worst on p2.16xlarge.
const FIG04: Figure = Figure {
    name: "fig04_p2_cpu_disk",
    title: "CPU & disk stall % of training time, P2, small models (paper Fig. 4)",
    columns: CPU_DISK_COLUMNS,
    cells: || sweep(small_points(), &p2_configs()),
    row: cpu_disk_row,
    check: |cells| {
        let worst_cpu = cells.iter().map(cpu).fold(0.0, f64::max);
        let disk_8x = sum_on(cells, "p2.8xlarge", disk);
        let disk_16x = sum_on(cells, "p2.16xlarge", disk);
        ensure!(
            worst_cpu < 20.0,
            "CPU stalls should be negligible, worst {worst_cpu}%"
        );
        ensure!(
            disk_16x > disk_8x,
            "disk stall must grow with workers: 16x {disk_16x} vs 8x {disk_8x}"
        );
        Ok(format!(
            "CPU negligible (max {worst_cpu:.1}%), disk stall worst on 16xlarge"
        ))
    },
    skips_failures: false,
};

/// Fig. 5: interconnect stall % for small models on P2 (a) and P3 (b).
///
/// For single instances this is the paper's `(T2-T1)/T1`; for the
/// networked pairs (the `*2` configurations in the figure's legend) the
/// communication stall vs a single GPU is `(T5-T1)/T1`.
///
/// Expected shapes: p2.16xlarge worst in P2 (PCIe contention);
/// p3.8xlarge anomalously high in P3 (sub-optimal crossbar slice).
const FIG05: Figure = Figure {
    name: "fig05_ic_small",
    title: "Interconnect/communication stall %, small models (paper Fig. 5)",
    columns: &["family", "model", "batch", "config", "comm_stall_pct"],
    cells: || {
        let clusters = [
            ClusterSpec::single(p2_8xlarge()),
            ClusterSpec::homogeneous(p2_8xlarge(), 2),
            ClusterSpec::single(p2_16xlarge()),
            ClusterSpec::single(p3_8xlarge()),
            ClusterSpec::homogeneous(p3_8xlarge(), 2),
            ClusterSpec::single(p3_16xlarge()),
        ];
        sweep(small_points(), &clusters)
    },
    row: |cell| {
        let mut row = vec![cell.0.cluster.instances[0].family.to_string()];
        row.extend(point(cell.0));
        row.push(pct(Some(comm_stall(cell))));
        row
    },
    check: |cells| {
        let stall = |config| sum_on(cells, config, comm_stall);
        let (p2_8x, p2_16x) = (stall("p2.8xlarge"), stall("p2.16xlarge"));
        let (p3_8x, p3_16x) = (stall("p3.8xlarge"), stall("p3.16xlarge"));
        ensure!(
            p2_16x > p2_8x,
            "p2.16xlarge must stall worst: {p2_16x} vs p2.8xlarge {p2_8x}"
        );
        ensure!(
            p3_8x > p3_16x,
            "p3.8xlarge slicing anomaly: {p3_8x} vs p3.16xlarge {p3_16x}"
        );
        Ok("p2.16xlarge worst (PCIe slicing), p3.8xlarge > p3.16xlarge (crossbar slice)".into())
    },
    skips_failures: false,
};

/// Fig. 6: training time and monetary cost per epoch for P2, small
/// models.
///
/// Expected shapes: two networked p2.8xlarge beat one p2.16xlarge on
/// time (6a) at the same hourly price, so also on cost (6b); p2.xlarge
/// is the cheapest (no interconnect stalls).
const FIG06: Figure = Figure {
    name: "fig06_p2_time_cost",
    title: "Training time and cost per epoch, P2, small models (paper Fig. 6)",
    columns: TIME_COST_COLUMNS,
    cells: || sweep(small_points(), &p2_configs()),
    row: time_cost_row,
    check: |cells| {
        let time_16x = sum_on(cells, "p2.16xlarge", epoch_secs);
        let time_8x2 = sum_on(cells, "p2.8xlarge*2", epoch_secs);
        ensure!(
            time_8x2 < time_16x,
            "8xlarge*2 ({time_8x2:.0}s) must beat 16xlarge ({time_16x:.0}s)"
        );
        let cheapest = winners(cells, epoch_usd);
        let xlarge_wins = votes(&cheapest, &["p2.xlarge"]);
        ensure!(
            xlarge_wins >= 8,
            "p2.xlarge should usually be cheapest: {cheapest:?}"
        );
        Ok(format!(
            "8xlarge*2 faster than 16xlarge; p2.xlarge cheapest in {xlarge_wins}/10 sweeps"
        ))
    },
    skips_failures: false,
};

/// Fig. 8: CPU and disk stall % on the P3 family, small models.
///
/// Expected shapes: CPU stall negligible (8a); disk stall highest for
/// the 8-worker p3.16xlarge (8b) whose fast V100s outrun the gp2 volume.
const FIG08: Figure = Figure {
    name: "fig08_p3_cpu_disk_small",
    title: "CPU & disk stall %, P3, small models (paper Fig. 8)",
    columns: CPU_DISK_COLUMNS,
    cells: || sweep(small_points(), &p3_configs()),
    row: cpu_disk_row,
    check: |cells| {
        let mut cpu_samples: Vec<f64> = cells.iter().map(cpu).collect();
        cpu_samples.sort_by(f64::total_cmp);
        let median_cpu = cpu_samples[cpu_samples.len() / 2];
        let worst_cpu = cpu_samples[cpu_samples.len() - 1];
        ensure!(
            median_cpu < 10.0,
            "CPU stall must stay negligible, median {median_cpu}%"
        );
        ensure!(
            worst_cpu < 35.0,
            "even the launch-bound outliers stay modest, worst {worst_cpu}%"
        );
        let disk_8x = sum_on(cells, "p3.8xlarge", disk);
        let disk_16x = sum_on(cells, "p3.16xlarge", disk);
        ensure!(
            disk_16x > disk_8x,
            "disk stall highest for 16xlarge: {disk_16x} vs 8xlarge {disk_8x}"
        );
        Ok(format!(
            "CPU negligible (median {median_cpu:.1}%), disk stall worst on p3.16xlarge"
        ))
    },
    skips_failures: false,
};

/// Fig. 9: CPU and disk stall % on P3 for the large models (ResNet50,
/// VGG11) and BERT-large.
///
/// Expected shapes: CPU stall negligible; disk stall high for the 8-GPU
/// experiments on the gp2 volume; BERT's tiny SQuAD dataset produces no
/// meaningful fetch stall. BERT-large runs at batch 4 (the 16 GB limit)
/// and may legitimately not fit on some configurations.
const FIG09: Figure = Figure {
    name: "fig09_p3_cpu_disk_large",
    title: "CPU & disk stall %, P3, large models + BERT (paper Fig. 9)",
    columns: CPU_DISK_COLUMNS,
    cells: || sweep(large_points(), &p3_configs()),
    row: cpu_disk_row,
    check: |cells| {
        let (bert, vision): (Vec<Cell<'_>>, Vec<Cell<'_>>) = cells
            .iter()
            .partition(|(job, _)| job.stash.model().name.starts_with("BERT"));
        let worst_cpu = vision.iter().map(cpu).fold(0.0, f64::max);
        let vision_disk_16x = sum_on(&vision, "p3.16xlarge", disk);
        let bert_disk = bert.iter().map(disk).fold(0.0, f64::max);
        ensure!(worst_cpu < 20.0, "CPU stall negligible, got {worst_cpu}%");
        ensure!(
            vision_disk_16x > 0.0,
            "8-GPU vision runs must show fetch stalls"
        );
        ensure!(
            bert_disk < 5.0,
            "SQuAD is tiny; BERT disk stall was {bert_disk}%"
        );
        Ok("CPU negligible, vision disk stalls on 8-GPU configs, BERT none".into())
    },
    skips_failures: true,
};

/// Fig. 10: training time and cost per epoch, P3, small models.
///
/// Expected shapes: p3.16xlarge is the most performant; p3.2xlarge the
/// most cost-optimal; the networked pair the least cost-optimal
/// multi-GPU option.
const FIG10: Figure = Figure {
    name: "fig10_p3_time_cost_small",
    title: "Training time and cost per epoch, P3, small models (paper Fig. 10)",
    columns: TIME_COST_COLUMNS,
    cells: || sweep(small_points(), &p3_configs()),
    row: time_cost_row,
    check: |cells| {
        let fastest = winners(cells, epoch_secs);
        let f16 = votes(&fastest, &["p3.16xlarge", "p3.24xlarge"]);
        ensure!(f16 >= 7, "16x/24x should usually be fastest: {fastest:?}");
        let cheapest = winners(cells, epoch_usd);
        let c2 = votes(&cheapest, &["p3.2xlarge"]);
        ensure!(
            c2 >= 8,
            "p3.2xlarge should usually be cheapest: {cheapest:?}"
        );
        Ok(format!(
            "16x-class fastest ({f16}/10), 2xlarge cheapest ({c2}/10)"
        ))
    },
    skips_failures: false,
};

/// Fig. 11: interconnect stall % on P3 for small (a) and large (b)
/// models.
///
/// Expected shapes: p3.16xlarge has the lowest stall; the (degraded)
/// p3.8xlarge is anomalously high; VGG's interconnect stall is low
/// despite its huge gradients; p3.24xlarge matches p3.16xlarge (same
/// NVLink).
const FIG11: Figure = Figure {
    name: "fig11_p3_ic",
    title: "Interconnect stall %, P3 (paper Fig. 11)",
    columns: &["model", "batch", "config", "ic_stall_pct"],
    cells: || {
        let clusters = [p3_8xlarge(), p3_16xlarge(), p3_24xlarge()].map(ClusterSpec::single);
        sweep(small_points().chain(large_points()), &clusters)
    },
    row: |cell| {
        let mut row = point(cell.0).to_vec();
        row.push(pct(Some(ic_stall(cell))));
        row
    },
    check: |cells| {
        let stall = |config| sum_on(cells, config, ic_stall);
        let (s8, s16, s24) = (
            stall("p3.8xlarge"),
            stall("p3.16xlarge"),
            stall("p3.24xlarge"),
        );
        ensure!(s8 > s16, "8xlarge slice anomaly: {s8} vs 16xlarge {s16}");
        let ratio = s24 / s16.max(1e-9);
        ensure!((0.7..1.3).contains(&ratio), "24x ≈ 16x, ratio {ratio}");
        Ok("16xlarge lowest, 8xlarge anomalous, 24xlarge ≈ 16xlarge".into())
    },
    skips_failures: false,
};

/// Fig. 12: training time and cost per epoch, P3, large models + BERT.
///
/// Expected shapes: p3.16xlarge and p3.24xlarge are equally performant
/// (same NVLink), so the pricier 24xlarge is the least cost-optimal.
const FIG12: Figure = Figure {
    name: "fig12_p3_time_cost_large",
    title: "Training time and cost per epoch, P3, large models (paper Fig. 12)",
    columns: TIME_COST_COLUMNS,
    cells: || sweep(large_points(), &p3_configs()),
    row: time_cost_row,
    check: |cells| {
        let time_ratio =
            sum_on(cells, "p3.24xlarge", epoch_secs) / sum_on(cells, "p3.16xlarge", epoch_secs);
        ensure!(
            (0.85..1.15).contains(&time_ratio),
            "24x ≈ 16x in time, ratio {time_ratio}"
        );
        let c16 = sum_on(cells, "p3.16xlarge", epoch_usd);
        let c24 = sum_on(cells, "p3.24xlarge", epoch_usd);
        ensure!(c24 > c16, "24xlarge must cost more: ${c24:.2} vs ${c16:.2}");
        Ok("16xlarge and 24xlarge equally performant, 24xlarge least cost-optimal".into())
    },
    skips_failures: true,
};

/// Fig. 13: network stall of two networked p3.8xlarge instances across
/// batch sizes 4-32.
///
/// Expected shape: stalls in the hundreds of percent ("as high as
/// 500%"), monotonically falling as the batch grows (compute grows,
/// gradient volume does not).
const FIG13: Figure = Figure {
    name: "fig13_network_stall",
    title: "Network stall % of 2x p3.8xlarge vs batch size (paper Fig. 13)",
    columns: &["model", "batch", "nw_stall_pct"],
    cells: || {
        let points = [zoo::resnet50(), zoo::vgg11()]
            .into_iter()
            .flat_map(|model| [4, 8, 16, 32].map(|batch| (model.clone(), batch)));
        sweep(points, &[ClusterSpec::homogeneous(p3_8xlarge(), 2)])
    },
    row: |cell| {
        let [model, batch, _] = point(cell.0);
        vec![model, batch, pct(Some(nw_stall(cell)))]
    },
    check: |cells| {
        for model in cells.chunk_by(|(a, _), (b, _)| a.stash.model().name == b.stash.model().name) {
            let series: Vec<f64> = model.iter().map(nw_stall).collect();
            ensure!(
                series.windows(2).all(|w| w[0] >= w[1] * 0.95),
                "{}: stall must fall with batch: {series:?}",
                model[0].0.stash.model().name
            );
        }
        let peak = cells.iter().map(nw_stall).fold(0.0, f64::max);
        ensure!(
            peak > 300.0,
            "network stalls reach hundreds of percent, peak {peak}%"
        );
        Ok(format!(
            "network stall up to {peak:.0}% and falling with batch size"
        ))
    },
    skips_failures: false,
};

/// Fig. 14: P2 vs P3 training time and cost per epoch across models.
///
/// Expected shapes: P3 is generally more cost-effective despite its
/// ~3.5x hourly price — except for tiny models (ShuffleNet), which are
/// cheapest on P2.
const FIG14: Figure = Figure {
    name: "fig14_p2_vs_p3",
    title: "P2 vs P3 train-time/cost comparison (paper Fig. 14)",
    columns: &["model", "config", "epoch_s", "epoch_cost_usd"],
    cells: || {
        let models = [
            zoo::shufflenet(),
            zoo::mobilenet_v2(),
            zoo::resnet18(),
            zoo::resnet50(),
        ];
        let clusters = [
            p2_xlarge(),
            p2_8xlarge(),
            p2_16xlarge(),
            p3_2xlarge(),
            p3_8xlarge(),
            p3_16xlarge(),
        ]
        .map(ClusterSpec::single);
        sweep(models.map(|model| (model, 32)), &clusters)
    },
    row: |cell| {
        let [model, _, config] = point(cell.0);
        let [epoch_s, cost] = bill(cell);
        vec![model, config, epoch_s, cost]
    },
    check: |cells| {
        let cheapest = winners(cells, epoch_usd);
        let cheapest_for = |model: &str| {
            cheapest
                .iter()
                .find(|(m, _)| m == model)
                .map_or("", |(_, config)| config.as_str())
        };
        ensure!(
            cheapest_for("ShuffleNet").starts_with("p2."),
            "ShuffleNet is cheapest on P2: {cheapest:?}"
        );
        ensure!(
            cheapest_for("ResNet50").starts_with("p3."),
            "heavy models are cheapest on P3: {cheapest:?}"
        );
        Ok("P3 generally cheaper, except tiny models (ShuffleNet -> P2)".into())
    },
    skips_failures: false,
};

/// The ten sweep figures, in paper order.
const FIGURES: &[Figure] = &[
    FIG04, FIG05, FIG06, FIG08, FIG09, FIG10, FIG11, FIG12, FIG13, FIG14,
];

/// The union of the figures' cells: each distinct cell once, in first
/// request order, and per figure the position of each of its cells in
/// that list.
fn union(figures: &[Figure]) -> (Vec<ProfileJob>, Vec<Vec<usize>>) {
    let mut distinct = Vec::new();
    let mut position = HashMap::new();
    let per_figure = figures
        .iter()
        .map(|figure| {
            (figure.cells)()
                .into_iter()
                .map(|job| {
                    *position.entry(cell_key(&job)).or_insert_with(|| {
                        distinct.push(job);
                        distinct.len() - 1
                    })
                })
                .collect()
        })
        .collect();
    (distinct, per_figure)
}

/// Profiles the union of the ten figures' cells once, then writes every
/// figure and runs every shape check.
///
/// Fails when a shape check breaks or a cell its figure cannot skip
/// fails to profile; every other figure is still written and checked.
#[must_use]
pub fn regenerate() -> ExitCode {
    let (distinct, per_figure) = union(FIGURES);
    let requested: usize = per_figure.iter().map(Vec::len).sum();
    println!(
        "figures: {} cells simulated for {requested} requested",
        distinct.len()
    );
    let results = par_profile_many(&distinct, Some(&MeasurementCache::new()));
    let mut failed = Vec::new();
    for (figure, cells) in FIGURES.iter().zip(per_figure) {
        let cells: Vec<_> = cells.iter().map(|&i| (&distinct[i], &results[i])).collect();
        match publish(figure, &cells) {
            Ok(shape) => println!("shape check: {shape} ✓"),
            Err(broken) => failed.push(format!("{}: {broken}", figure.name)),
        }
    }
    for broken in &failed {
        eprintln!("figure failed: {broken}");
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes one figure from its cells' profiles and runs its shape check.
fn publish(
    figure: &Figure,
    cells: &[(&ProfileJob, &Result<StallReport, ProfileError>)],
) -> Result<String, String> {
    let mut table = Table::new(figure.name, figure.title, figure.columns);
    let mut profiled = Vec::with_capacity(cells.len());
    for &(job, result) in cells {
        match result {
            Ok(report) => {
                table.row((figure.row)(&(job, report)));
                profiled.push((job, report));
            }
            Err(e) if figure.skips_failures => {
                let mut row = point(job).to_vec();
                row.push(format!("skipped: {e}"));
                row.resize(figure.columns.len(), String::new());
                table.row(row);
            }
            Err(e) => {
                let [model, batch, config] = point(job);
                return Err(format!("{model} at batch {batch} on {config} failed: {e}"));
            }
        }
    }
    table.set_rollup(rollup_from_reports(profiled.iter().map(|&(_, r)| r)));
    table.finish();
    (figure.check)(&profiled)
}

/// One profiling job per `(model, batch)` point and cluster, clusters
/// innermost.
fn sweep(
    points: impl IntoIterator<Item = (Model, u64)>,
    clusters: &[ClusterSpec],
) -> Vec<ProfileJob> {
    points
        .into_iter()
        .flat_map(|(model, batch)| {
            clusters.iter().map(move |cluster| ProfileJob {
                stash: bench_stash(model.clone(), batch),
                cluster: cluster.clone(),
            })
        })
        .collect()
}

/// The small models at the smallest and largest batch sizes.
fn small_points() -> impl Iterator<Item = (Model, u64)> {
    zoo::small_models()
        .into_iter()
        .flat_map(|model| small_model_batches().map(|batch| (model.clone(), batch)))
}

/// The large vision models at their batch sizes, then BERT-large at
/// batch 4 (the 16 GB limit).
fn large_points() -> impl Iterator<Item = (Model, u64)> {
    zoo::large_vision_models()
        .into_iter()
        .flat_map(|model| large_model_batches().map(|batch| (model.clone(), batch)))
        .chain([(zoo::bert_large(), 4)])
}

/// A cell's model, batch and cluster columns.
fn point(job: &ProfileJob) -> [String; 3] {
    [
        job.stash.model().name.clone(),
        job.stash.per_gpu_batch().to_string(),
        job.cluster.display_name(),
    ]
}

/// A cell's epoch time and cost columns.
fn bill(cell: &Cell<'_>) -> [String; 2] {
    [
        format!("{:.1}", epoch_secs(cell)),
        format!("{:.2}", epoch_usd(cell)),
    ]
}

fn cpu_disk_row(cell: &Cell<'_>) -> Vec<String> {
    let mut row = point(cell.0).to_vec();
    row.extend([pct(Some(cpu(cell))), pct(Some(disk(cell)))]);
    row
}

fn time_cost_row(cell: &Cell<'_>) -> Vec<String> {
    let mut row = point(cell.0).to_vec();
    row.extend(bill(cell));
    row
}

fn cpu((_, r): &Cell<'_>) -> f64 {
    r.cpu_stall_pct().unwrap_or(0.0)
}

fn disk((_, r): &Cell<'_>) -> f64 {
    r.disk_stall_pct().unwrap_or(0.0)
}

fn ic_stall((_, r): &Cell<'_>) -> f64 {
    r.interconnect_stall_pct().unwrap_or(0.0)
}

fn nw_stall((_, r): &Cell<'_>) -> f64 {
    r.network_stall_pct().unwrap_or(0.0)
}

/// Communication stall vs a single GPU: `(T5-T1)/T1` on networked
/// clusters, `(T2-T1)/T1` on single instances.
fn comm_stall((_, r): &Cell<'_>) -> f64 {
    match (r.times.t1, r.times.t5.or(r.times.t2)) {
        (Some(t1), Some(multi)) => multi.saturating_sub(t1).ratio(t1) * 100.0,
        _ => 0.0,
    }
}

fn epoch_secs((job, r): &Cell<'_>) -> f64 {
    epoch_cost(r, &job.cluster).epoch_time.as_secs_f64()
}

fn epoch_usd((job, r): &Cell<'_>) -> f64 {
    epoch_cost(r, &job.cluster).epoch_cost
}

/// Sums `value` over the cells on the cluster named `config`.
fn sum_on(cells: &[Cell<'_>], config: &str, value: fn(&Cell<'_>) -> f64) -> f64 {
    cells
        .iter()
        .filter(|(job, _)| job.cluster.display_name() == config)
        .map(value)
        .sum()
}

/// Per `(model, batch)` point, its model and the cluster with the lowest
/// `value` (the first on ties).
fn winners(cells: &[Cell<'_>], value: fn(&Cell<'_>) -> f64) -> Vec<(String, String)> {
    cells
        .chunk_by(|(a, _), (b, _)| {
            a.stash.model().name == b.stash.model().name
                && a.stash.per_gpu_batch() == b.stash.per_gpu_batch()
        })
        .filter_map(|point| {
            let best = point.iter().min_by(|a, b| value(a).total_cmp(&value(b)))?;
            Some((
                best.0.stash.model().name.clone(),
                best.0.cluster.display_name(),
            ))
        })
        .collect()
}

/// How many points one of `configs` won.
fn votes(winners: &[(String, String)], configs: &[&str]) -> usize {
    winners
        .iter()
        .filter(|(_, config)| configs.contains(&config.as_str()))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ten_figures_request_367_cells_over_122_distinct() {
        let (distinct, per_figure) = union(FIGURES);
        let requested: Vec<usize> = per_figure.iter().map(Vec::len).collect();
        assert_eq!(requested, [40, 60, 40, 50, 25, 50, 45, 25, 8, 24]);
        assert_eq!(requested.iter().sum::<usize>(), 367);
        assert_eq!(distinct.len(), 122);
    }
}
