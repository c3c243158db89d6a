//! # stash-bench — experiment harness
//!
//! Shared plumbing for the per-table/per-figure benchmark targets (see
//! `benches/`): a [`Table`] emitter that prints the paper-style rows and
//! persists CSV + JSON under `results/`, plus the standard sweeps
//! (instances, batch sizes, profiler settings) used across figures.
//! The ten sweep figures are declared once in [`figures`] and regenerated
//! together by the `figures` target from one characterization grid;
//! results are identical at any `STASH_BENCH_THREADS`.
//!
//! Every bench target is a `harness = false` binary: running
//! `cargo bench --workspace` regenerates every table and figure of the
//! paper, each measurement simulating [`BENCH_ITERS`] iterations.

use std::fs;
use std::path::PathBuf;

pub mod chart;
pub mod figures;

use stash_core::profiler::Stash;
use stash_core::report::StallReport;
use stash_dnn::dataset::DatasetSpec;
use stash_dnn::model::Model;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::{
    p2_16xlarge, p2_8xlarge, p2_xlarge, p3_16xlarge, p3_24xlarge, p3_2xlarge, p3_8xlarge,
};
use stash_trace::rollup::StallRollup;
use stash_trace::span::{Category, Track};

/// Number of iterations each profiling step simulates. Every committed
/// `results/` file comes from this budget; at 3 or 4 iterations the
/// shape checks of Figs. 8 and 10 fail.
pub const BENCH_ITERS: u64 = 12;

/// The batch sizes the paper sweeps for small models (Figs. 4-6, 8, 10 show
/// the smallest and largest: 32 and 128).
#[must_use]
pub fn small_model_batches() -> [u64; 2] {
    [32, 128]
}

/// Batch sizes for the large vision models (bounded by V100 memory).
#[must_use]
pub fn large_model_batches() -> [u64; 2] {
    [4, 32]
}

/// The P2 configurations of Figs. 4-6.
#[must_use]
pub fn p2_configs() -> Vec<ClusterSpec> {
    vec![
        ClusterSpec::single(p2_xlarge()),
        ClusterSpec::single(p2_8xlarge()),
        ClusterSpec::homogeneous(p2_8xlarge(), 2),
        ClusterSpec::single(p2_16xlarge()),
    ]
}

/// The P3 configurations of Figs. 8-12.
#[must_use]
pub fn p3_configs() -> Vec<ClusterSpec> {
    vec![
        ClusterSpec::single(p3_2xlarge()),
        ClusterSpec::single(p3_8xlarge()),
        ClusterSpec::homogeneous(p3_8xlarge(), 2),
        ClusterSpec::single(p3_16xlarge()),
        ClusterSpec::single(p3_24xlarge()),
    ]
}

/// A profiler tuned for benchmark runs: the right dataset per model and
/// the benchmark iteration budget.
#[must_use]
pub fn bench_stash(model: Model, batch: u64) -> Stash {
    let dataset = DatasetSpec::for_model(&model);
    Stash::new(model)
        .with_batch(batch)
        .with_dataset(dataset)
        .with_sampled_iterations(BENCH_ITERS)
}

/// Folds profiled stall breakdowns into one [`StallRollup`], using the
/// same `(track, category)` placement a traced run produces: compute and
/// the exposed interconnect / network / fetch stalls land on the rank-0
/// GPU lane, CPU prep on the loader lane. The figure harnesses attach
/// the result via [`Table::set_rollup`] so every `results/fig*.csv`
/// gains a machine-readable `_rollup.json` sibling.
#[must_use]
pub fn rollup_from_reports<'a, I>(reports: I) -> StallRollup
where
    I: IntoIterator<Item = &'a StallReport>,
{
    let mut rollup = StallRollup::default();
    let gpu = Track::gpu(0, 0);
    let loader = Track::loader(0, 0);
    for r in reports {
        for (track, category, stall) in [
            (gpu, Category::Compute, r.times.t1),
            (gpu, Category::Interconnect, r.interconnect_stall()),
            (gpu, Category::Network, r.network_stall()),
            (loader, Category::Prep, r.cpu_stall()),
            (gpu, Category::Fetch, r.disk_stall()),
        ] {
            if let Some(d) = stall {
                rollup.add_span_ns(track, category, d.as_nanos());
            }
        }
    }
    rollup
}

/// Formats an optional percentage.
#[must_use]
pub fn pct(p: Option<f64>) -> String {
    p.map_or_else(|| "-".into(), |v| format!("{v:.1}"))
}

/// Locates the repository `results/` directory.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if let Err(e) = fs::create_dir_all(&dir) {
        panic!("cannot create results dir {}: {e}", dir.display());
    }
    dir
}

/// A printable, persistable experiment table.
#[derive(Debug)]
pub struct Table {
    name: String,
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    rollup: Option<StallRollup>,
}

impl Table {
    /// Starts a table named `name` (the file stem under `results/`).
    #[must_use]
    pub fn new(name: &str, title: &str, columns: &[&str]) -> Table {
        Table {
            name: name.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|c| (*c).to_string()).collect(),
            rows: Vec::new(),
            rollup: None,
        }
    }

    /// Attaches the sweep's per-category stall rollup; it is written as
    /// `results/<name>_rollup.json` alongside the CSV when the table
    /// finishes.
    pub fn set_rollup(&mut self, rollup: StallRollup) {
        self.rollup = Some(rollup);
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of rows so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders a bar chart of `value_col` (numeric) keyed by the
    /// concatenation of `label_cols` — a terminal stand-in for the paper's
    /// figure panel.
    ///
    /// # Panics
    ///
    /// Panics on unknown column names.
    #[must_use]
    pub fn to_bar_chart(&self, label_cols: &[&str], value_col: &str) -> String {
        let Some(vi) = self.columns.iter().position(|c| c == value_col) else {
            panic!("unknown value column '{value_col}'")
        };
        let lis: Vec<usize> = label_cols
            .iter()
            .map(|lc| match self.columns.iter().position(|c| c == *lc) {
                Some(i) => i,
                None => panic!("unknown label column '{lc}'"),
            })
            .collect();
        let rows: Vec<(String, f64)> = self
            .rows
            .iter()
            .filter_map(|r| {
                let value: f64 = r[vi].parse().ok()?;
                let label = lis
                    .iter()
                    .map(|i| r[*i].as_str())
                    .collect::<Vec<_>>()
                    .join(" ");
                Some((label, value))
            })
            .collect();
        chart::bar_chart(&format!("{} — {}", self.title, value_col), &rows, 40)
    }

    /// Prints the table and writes `results/<name>.csv` and `.json`.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors (benchmarks should fail loudly).
    pub fn finish(&self) {
        // Pretty print.
        let widths: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(c.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        println!("\n== {} — {} ==", self.name, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", header.join("  "));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("{}", line.join("  "));
        }

        // CSV.
        let csv_path = results_dir().join(format!("{}.csv", self.name));
        let mut csv_text = self.columns.join(",");
        csv_text.push('\n');
        for row in &self.rows {
            csv_text.push_str(&row.join(","));
            csv_text.push('\n');
        }
        if let Err(e) = fs::write(&csv_path, csv_text) {
            panic!("cannot write {}: {e}", csv_path.display());
        }

        // JSON.
        let json_rows: Vec<serde_json::Value> = self
            .rows
            .iter()
            .map(|row| {
                let obj: serde_json::Map<String, serde_json::Value> = self
                    .columns
                    .iter()
                    .zip(row)
                    .map(|(c, v)| (c.clone(), serde_json::Value::String(v.clone())))
                    .collect();
                serde_json::Value::Object(obj)
            })
            .collect();
        let json_path = results_dir().join(format!("{}.json", self.name));
        let mut doc = serde_json::Map::new();
        doc.insert(
            "experiment".to_string(),
            serde_json::Value::String(self.name.clone()),
        );
        doc.insert(
            "title".to_string(),
            serde_json::Value::String(self.title.clone()),
        );
        doc.insert("rows".to_string(), serde_json::Value::Array(json_rows));
        let json_text = match serde_json::to_string_pretty(&serde_json::Value::Object(doc)) {
            Ok(t) => t,
            Err(e) => panic!("cannot serialize {}: {e}", self.name),
        };
        if let Err(e) = fs::write(&json_path, json_text) {
            panic!("cannot write {}: {e}", json_path.display());
        }

        if let Some(rollup) = &self.rollup {
            let rollup_path = results_dir().join(format!("{}_rollup.json", self.name));
            let rollup_text = match serde_json::to_string_pretty(&rollup.to_json()) {
                Ok(t) => t,
                Err(e) => panic!("cannot serialize {} rollup: {e}", self.name),
            };
            if let Err(e) = fs::write(&rollup_path, rollup_text) {
                panic!("cannot write {}: {e}", rollup_path.display());
            }
            println!(
                "[written: results/{0}.csv, results/{0}.json, results/{0}_rollup.json]",
                self.name
            );
        } else {
            println!("[written: results/{0}.csv, results/{0}.json]", self.name);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trip() {
        let mut t = Table::new("unit_test_table", "test", &["a", "b"]);
        t.row(vec!["1", "2"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        t.finish();
        let csv = std::fs::read_to_string(results_dir().join("unit_test_table.csv")).unwrap();
        assert!(csv.contains("a,b"));
        let _ = std::fs::remove_file(results_dir().join("unit_test_table.csv"));
        let _ = std::fs::remove_file(results_dir().join("unit_test_table.json"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", "y", &["a", "b"]);
        t.row(vec!["1"]);
    }

    #[test]
    fn table_renders_bar_charts() {
        let mut t = Table::new("chart_test", "test", &["config", "stall"]);
        t.row(vec!["a", "10.0"]);
        t.row(vec!["b", "20.0"]);
        let c = t.to_bar_chart(&["config"], "stall");
        assert!(c.contains('a') && c.contains("20.0"));
    }

    #[test]
    fn rollup_json_is_written_next_to_the_table() {
        let mut t = Table::new("unit_test_rollup_table", "test", &["a"]);
        t.row(vec!["1"]);
        let mut rollup = StallRollup::default();
        rollup.add_span_ns(Track::gpu(0, 0), Category::Compute, 123);
        t.set_rollup(rollup);
        t.finish();
        let path = results_dir().join("unit_test_rollup_table_rollup.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("stash-rollup-v1"));
        assert!(text.contains("compute"));
        for suffix in [".csv", ".json", "_rollup.json"] {
            let _ =
                std::fs::remove_file(results_dir().join(format!("unit_test_rollup_table{suffix}")));
        }
    }

    #[test]
    fn sweeps_have_expected_sizes() {
        assert_eq!(p2_configs().len(), 4);
        assert_eq!(p3_configs().len(), 5);
    }
}
