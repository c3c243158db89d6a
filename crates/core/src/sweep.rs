//! The resilient sweep runner: characterization sweeps that survive the
//! process running them.
//!
//! A sweep is a list of [`ProfileJob`] cells (cluster × model × batch).
//! Run against a [`ResultStore`], each cell is *consult-first*: a
//! verified on-disk record is decoded and reused bit-identically
//! ([`CellStatus::Resumed`]); a missing, quarantined or stale record is
//! recomputed through the shared [`MeasurementCache`] and durably stored.
//! The store's write-ahead journal records intent only: a `plan` line for
//! every cell, all in one synced append before any work starts, so a
//! sweep killed mid-write resumes the *whole* grid (including cells it
//! never reached) and re-runs only those whose records do not verify.
//! What a cell produced is its record and nothing else: a failed cell
//! has none, so resume recomputes it. The engine being deterministic,
//! the resumed store converges to the same bytes an uninterrupted run
//! produces.
//!
//! Misses are simulated in parallel on the profiler's worker pool, but
//! every store and journal operation happens on the calling thread, and
//! cells are committed strictly in input order. A cell that finished
//! simulating but waits behind a slower earlier cell is not yet durable:
//! a crash in that window costs its recomputation on resume, never a
//! wrong or missing record.
//!
//! Failure is graceful by construction: store I/O goes through the retry
//! policy, profile errors are permanent and typed, and a failed cell is
//! reported with its [`FailReason`] while the sweep continues — one sick
//! cell costs one row in the results, never the run.

use std::io;

use serde::Serialize;
use stash_dnn::dataset::DatasetSpec;
use stash_dnn::zoo;
use stash_hwtopo::cluster::ClusterSpec;
use stash_store::journal::JournalEntry;
use stash_store::prelude::{with_retry, FailReason, Fetch, ResultStore, RetryPolicy};
use stash_store::{fnv128, key_hex};

use crate::cache::MeasurementCache;
use crate::error::ProfileError;
use crate::profiler::{profile_in_order, profile_threads, ProfileJob, Stash};
use crate::report::StallReport;

/// Schema tag stamped into every cell record payload and journal plan.
pub const CELL_SCHEMA: &str = "stash-cell-v1";

/// How a cell's result came to be.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum CellStatus {
    /// Simulated in this run (and stored, when a store was given).
    Computed,
    /// Served bit-identically from a verified store record.
    Resumed,
    /// Permanently failed; the sweep continued without it.
    Failed(FailReason),
}

impl CellStatus {
    /// The CSV `status` column value.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            CellStatus::Computed => "computed",
            CellStatus::Resumed => "resumed",
            CellStatus::Failed(reason) => reason.code(),
        }
    }
}

/// One sweep cell's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct CellOutcome {
    /// The cell's content-address in the store (32-hex form).
    pub key: String,
    /// Cluster display name.
    pub cluster: String,
    /// Model name.
    pub model: String,
    /// Per-GPU batch size.
    pub per_gpu_batch: u64,
    /// The characterization, when one was produced.
    pub report: Option<StallReport>,
    /// How it was produced (or why not).
    pub status: CellStatus,
}

/// The whole sweep's outcome, in input cell order.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SweepOutcome {
    /// Per-cell outcomes, in input order.
    pub cells: Vec<CellOutcome>,
}

impl SweepOutcome {
    /// Cells that failed permanently.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.status, CellStatus::Failed(_)))
            .count()
    }

    /// Cells served from the store without simulation.
    #[must_use]
    pub fn resumed(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.status == CellStatus::Resumed)
            .count()
    }

    /// Cells simulated in this run.
    #[must_use]
    pub fn computed(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.status == CellStatus::Computed)
            .count()
    }

    /// The successful reports, in input order.
    pub fn reports(&self) -> impl Iterator<Item = &StallReport> {
        self.cells.iter().filter_map(|c| c.report.as_ref())
    }

    /// The canonical results CSV. Deterministic: byte-identical for
    /// byte-identical outcomes, which is what the differential and
    /// crash-resume gates compare. The `status` column distinguishes
    /// `computed` from `resumed` rows and carries the typed failure code
    /// for failed cells.
    #[must_use]
    pub fn results_csv(&self) -> String {
        let mut out = String::from(
            "cluster,model,per_gpu_batch,world,t1_ns,t2_ns,t3_ns,t4_ns,t5_ns,\
             interconnect_stall_pct,network_stall_pct,cpu_stall_pct,disk_stall_pct,status\n",
        );
        let ns = |t: Option<stash_simkit::time::SimDuration>| {
            t.map_or_else(String::new, |t| t.as_nanos().to_string())
        };
        let pc = |p: Option<f64>| p.map_or_else(String::new, |p| format!("{p:.4}"));
        for cell in &self.cells {
            let (times, pcts, world) = match &cell.report {
                Some(r) => (
                    [
                        ns(r.times.t1),
                        ns(r.times.t2),
                        ns(r.times.t3),
                        ns(r.times.t4),
                        ns(r.times.t5),
                    ],
                    [
                        pc(r.interconnect_stall_pct()),
                        pc(r.network_stall_pct()),
                        pc(r.cpu_stall_pct()),
                        pc(r.disk_stall_pct()),
                    ],
                    r.world.to_string(),
                ),
                None => (
                    std::array::from_fn(|_| String::new()),
                    std::array::from_fn(|_| String::new()),
                    String::new(),
                ),
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                cell.cluster,
                cell.model,
                cell.per_gpu_batch,
                world,
                times[0],
                times[1],
                times[2],
                times[3],
                times[4],
                pcts[0],
                pcts[1],
                pcts[2],
                pcts[3],
                cell.status.code(),
            ));
        }
        out
    }
}

/// The cell's self-describing journal/plan descriptor: everything
/// [`job_from_descriptor`] needs to rebuild the job on resume. It names
/// no bucketing, algorithm or precision: the rebuilt job takes the
/// defaults, and the decoder refuses a plan whose key says otherwise.
#[must_use]
pub fn cell_descriptor(job: &ProfileJob) -> serde_json::Value {
    let mut m = serde_json::Map::new();
    m.insert("schema".to_string(), CELL_SCHEMA.to_json_value());
    m.insert(
        "cluster".to_string(),
        job.cluster.display_name().to_json_value(),
    );
    m.insert("model".to_string(), job.stash.model().name.to_json_value());
    m.insert(
        "per_gpu_batch".to_string(),
        job.stash.per_gpu_batch().to_json_value(),
    );
    m.insert(
        "sampled_iterations".to_string(),
        job.stash.sampled_iterations().to_json_value(),
    );
    m.insert(
        "epoch_samples".to_string(),
        match job.stash.epoch_samples_override() {
            Some(n) => n.to_json_value(),
            None => serde_json::Value::Null,
        },
    );
    m.insert(
        "dataset".to_string(),
        job.stash.dataset().name.to_json_value(),
    );
    serde_json::Value::Object(m)
}

/// Rebuilds the job a journal `plan` line describes, so `--resume` and
/// `fsck --repair` re-run exactly what the interrupted sweep intended.
/// `key` is the line's store key and `detail` its [`cell_descriptor`]
/// JSON.
///
/// # Errors
///
/// A message naming the cell when the descriptor is not JSON, carries
/// another schema, lacks a field or has one of the wrong type, names an
/// unknown model or cluster (or more replicas than
/// [`ClusterSpec::parse`] admits), or names a dataset other than the
/// model's; and when the rebuilt job's [`cell_key`] is not `key`, as for
/// a cell swept with a bucketing, algorithm or precision the descriptor
/// does not carry.
pub fn job_from_descriptor(key: &str, detail: &str) -> Result<ProfileJob, String> {
    decode_descriptor(key, detail).map_err(|e| format!("journal plan for cell {key}: {e}"))
}

fn decode_descriptor(key: &str, detail: &str) -> Result<ProfileJob, String> {
    use serde_json::Value;
    let v: Value = serde_json::from_str(detail).map_err(|e| format!("not JSON: {e}"))?;
    let field = |k: &str| v.get(k).ok_or_else(|| format!("missing '{k}'"));
    let text = |k: &str| {
        field(k)?
            .as_str()
            .ok_or_else(|| format!("'{k}' is not a string"))
    };
    let count = |k: &str| {
        field(k)?
            .as_u64()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("'{k}' is not a positive integer"))
    };
    match text("schema")? {
        CELL_SCHEMA => {}
        other => return Err(format!("unknown schema '{other}'")),
    }
    let cluster = ClusterSpec::parse(text("cluster")?)?;
    let model_name = text("model")?;
    let model = zoo::by_name(model_name).ok_or_else(|| format!("unknown model '{model_name}'"))?;
    let dataset = DatasetSpec::for_model(&model);
    let named = text("dataset")?;
    if named != dataset.name {
        return Err(format!(
            "dataset '{named}' is not '{}', the model's",
            dataset.name
        ));
    }
    let mut stash = Stash::new(model)
        .with_dataset(dataset)
        .with_batch(count("per_gpu_batch")?)
        .with_sampled_iterations(count("sampled_iterations")?);
    match field("epoch_samples")? {
        Value::Null => {}
        _ => stash = stash.with_epoch_samples(count("epoch_samples")?),
    }
    let job = ProfileJob { stash, cluster };
    let rebuilt = key_hex(cell_key(&job));
    if rebuilt != key {
        return Err(format!(
            "the rebuilt job's key is {rebuilt}: the plan does not describe this cell"
        ));
    }
    Ok(job)
}

/// The cell's content address: FNV-128 over the canonical compact JSON
/// of `{"schema", "cluster", "stash"}` — the schema tag, the cluster
/// display name and the *full* profiler configuration — the same
/// derivation family as `cache::config_key`, so equal cells share a key
/// and (the engine being deterministic) bit-identical records. The JSON
/// is written straight into one buffer, without a value tree.
#[must_use]
pub fn cell_key(job: &ProfileJob) -> u128 {
    let mut canonical = String::with_capacity(4096);
    canonical.push_str("{\"schema\":");
    CELL_SCHEMA.write_json(&mut canonical);
    canonical.push_str(",\"cluster\":");
    job.cluster.display_name().write_json(&mut canonical);
    canonical.push_str(",\"stash\":");
    job.stash.write_json(&mut canonical);
    canonical.push('}');
    fnv128(canonical.as_bytes())
}

/// Encodes a cell's record payload: canonical compact JSON wrapping the
/// descriptor and the report.
#[must_use]
pub fn encode_cell_record(job: &ProfileJob, report: &StallReport) -> Vec<u8> {
    let descriptor = serde_json::to_string(&cell_descriptor(job)).unwrap_or_default();
    encode_record(&descriptor, report)
}

/// [`encode_cell_record`] from the descriptor's compact JSON: the same
/// bytes as serializing the `{schema, cell, report}` object whole.
fn encode_record(descriptor: &str, report: &StallReport) -> Vec<u8> {
    let report = serde_json::to_string(report).unwrap_or_default();
    format!("{{\"schema\":\"{CELL_SCHEMA}\",\"cell\":{descriptor},\"report\":{report}}}")
        .into_bytes()
}

/// Decodes a record payload back to its report, validating the schema
/// tag.
///
/// # Errors
///
/// A description of what made the payload unusable (wrong schema,
/// malformed JSON, missing fields).
pub fn decode_cell_record(payload: &[u8]) -> Result<StallReport, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("record not UTF-8: {e}"))?;
    let v: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("record not JSON: {e}"))?;
    match v.get("schema").and_then(serde_json::Value::as_str) {
        Some(CELL_SCHEMA) => {}
        Some(other) => return Err(format!("unknown record schema '{other}'")),
        None => return Err("record missing schema tag".to_string()),
    }
    let report = v.get("report").ok_or("record missing report")?;
    StallReport::from_json_value(report)
}

/// A sweep cell with its store key and plan descriptor, each derived
/// once per sweep.
struct Cell<'a> {
    job: &'a ProfileJob,
    key: u128,
    hex: String,
    descriptor: String,
}

impl<'a> Cell<'a> {
    fn new(job: &'a ProfileJob) -> Cell<'a> {
        let key = cell_key(job);
        Cell {
            job,
            key,
            hex: key_hex(key),
            descriptor: serde_json::to_string(&cell_descriptor(job)).unwrap_or_default(),
        }
    }

    fn outcome(&self, report: Option<StallReport>, status: CellStatus) -> CellOutcome {
        CellOutcome {
            key: self.hex.clone(),
            cluster: self.job.cluster.display_name(),
            model: self.job.stash.model().name.clone(),
            per_gpu_batch: self.job.stash.per_gpu_batch(),
            report,
            status,
        }
    }
}

/// What consulting the store decided for a cell.
enum Consult {
    /// A verified record decoded: the cell resumes without simulation.
    Resumed(StallReport),
    /// The lookup itself failed after retries.
    Failed(FailReason),
    /// No usable record (or no store): simulate.
    Miss,
    /// A key an earlier cell of this sweep already has. The serial runner
    /// would find the earlier cell's fresh record, so the store is asked
    /// again at commit time; the cell is simulated too, in case it misses.
    Repeat,
}

impl Consult {
    fn needs_profile(&self) -> bool {
        matches!(self, Consult::Miss | Consult::Repeat)
    }
}

/// Consult-first: a verified record whose payload decodes is the result;
/// a miss, a quarantined-corrupt record or a valid frame with a
/// stale/foreign payload is recomputed (and overwritten on commit).
fn consult(store: &ResultStore, policy: &RetryPolicy, key: u128) -> Consult {
    match with_retry(policy, || store.get(key).map_err(io::Error::other)) {
        Ok(Fetch::Hit(payload)) => match decode_cell_record(&payload) {
            Ok(report) => Consult::Resumed(report),
            Err(_) => Consult::Miss,
        },
        Ok(Fetch::Miss | Fetch::Quarantined { .. }) => Consult::Miss,
        Err(reason) => Consult::Failed(reason),
    }
}

/// Settles one cell on the calling thread: asks the store again for a
/// repeated cell, writes a freshly simulated cell's record, and returns
/// the outcome. `profiled` is the simulation result exactly when the
/// consult asked for one.
fn commit(
    store: Option<&ResultStore>,
    policy: &RetryPolicy,
    cell: &Cell<'_>,
    consulted: Consult,
    profiled: Option<Result<StallReport, ProfileError>>,
) -> CellOutcome {
    let consulted = match (consulted, store) {
        (Consult::Repeat, Some(store)) => consult(store, policy, cell.key),
        (consulted, _) => consulted,
    };
    let report = match (consulted, profiled) {
        (Consult::Resumed(report), _) => return cell.outcome(Some(report), CellStatus::Resumed),
        (Consult::Failed(reason), _) => return cell.outcome(None, CellStatus::Failed(reason)),
        // Profile errors are permanent: typed, never retried.
        (_, Some(Err(e))) => {
            let reason = FailReason::Profile {
                error: e.to_string(),
            };
            return cell.outcome(None, CellStatus::Failed(reason));
        }
        (_, Some(Ok(report))) => report,
        (Consult::Miss | Consult::Repeat, None) => {
            unreachable!("cells that miss the store are always profiled")
        }
    };
    let Some(store) = store else {
        return cell.outcome(Some(report), CellStatus::Computed);
    };
    let payload = encode_record(&cell.descriptor, &report);
    match with_retry(policy, || {
        store.put(cell.key, &payload).map_err(io::Error::other)
    }) {
        Ok(()) => cell.outcome(Some(report), CellStatus::Computed),
        // Computed but not durable: report the result, flag the cell — a
        // resumed run finds no record and re-runs it.
        Err(reason) => cell.outcome(Some(report), CellStatus::Failed(reason)),
    }
}

/// Runs a sweep over `jobs`, optionally backed by a durable store, on
/// [`profile_threads`] workers.
///
/// The sweep keys every cell once, journals a `plan` line for every cell
/// in one append (write-ahead intent), then consults the store for every
/// cell in input order. Only the misses go to the worker pool that
/// [`par_profile_many`] also runs on: one arena per worker, with `cache`
/// shared by all of them, so repeated reference-instance measurements
/// are deduplicated across cells. Each cell is then committed on the
/// calling thread in strict input order: a computed cell's record is
/// written, and nothing more goes to the journal. All store and journal
/// I/O therefore happens on one thread, in the same order whatever the
/// worker count: records, journal and results CSV are byte-identical at
/// any worker count. Without a store this is a plain storeless sweep
/// producing the identical reports and CSV.
///
/// Never aborts on a failed cell: failures land in the outcome with
/// typed reasons, and the caller maps `outcome.failed() > 0` to its
/// distinct exit class.
///
/// [`profile_threads`]: crate::profiler::profile_threads
/// [`par_profile_many`]: crate::profiler::par_profile_many
#[must_use]
pub fn run_sweep(
    jobs: &[ProfileJob],
    store: Option<&ResultStore>,
    policy: &RetryPolicy,
    cache: &MeasurementCache,
) -> SweepOutcome {
    run_sweep_on(jobs, store, policy, cache, profile_threads())
}

fn run_sweep_on(
    jobs: &[ProfileJob],
    store: Option<&ResultStore>,
    policy: &RetryPolicy,
    cache: &MeasurementCache,
    workers: usize,
) -> SweepOutcome {
    let cells: Vec<Cell<'_>> = jobs.iter().map(Cell::new).collect();

    // Write-ahead intent: journal a plan line for *every* cell, in one
    // append, before any work starts, so a sweep killed in cell 2 of 10
    // still resumes all ten — including the cells it never reached. The
    // journal is a hint (resume re-verifies records), so once retries run
    // out the sweep goes on without it rather than failing a cell.
    if let Some(store) = store {
        let plan: Vec<JournalEntry> = cells
            .iter()
            .map(|cell| JournalEntry::plan(&cell.hex, &cell.descriptor))
            .collect();
        let _ = store.journal().append(store.io(), &plan, policy);
    }

    let mut seen = std::collections::HashSet::new();
    let consulted: Vec<Consult> = cells
        .iter()
        .map(|cell| match store {
            Some(_) if !seen.insert(cell.key) => Consult::Repeat,
            Some(store) => consult(store, policy, cell.key),
            None => Consult::Miss,
        })
        .collect();
    let misses: Vec<&ProfileJob> = cells
        .iter()
        .zip(&consulted)
        .filter(|(_, c)| c.needs_profile())
        .map(|(cell, _)| cell.job)
        .collect();

    // Commit in input order: each profiled result first settles every
    // consulted cell ahead of it, then itself.
    let mut outcome = SweepOutcome {
        cells: Vec::with_capacity(cells.len()),
    };
    let mut pending = cells.iter().zip(consulted);
    profile_in_order(
        &misses,
        workers,
        |job, arena| {
            job.stash
                .profile_serial_in(&job.cluster, Some(cache), arena)
        },
        |profiled| {
            let mut profiled = Some(profiled);
            for (cell, consulted) in pending.by_ref() {
                let needs_profile = consulted.needs_profile();
                let result = if needs_profile { profiled.take() } else { None };
                outcome
                    .cells
                    .push(commit(store, policy, cell, consulted, result));
                if needs_profile {
                    break;
                }
            }
        },
    );
    for (cell, consulted) in pending {
        outcome
            .cells
            .push(commit(store, policy, cell, consulted, None));
    }
    outcome
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use stash_hwtopo::instance::{p3_2xlarge, p3_8xlarge};
    use stash_store::prelude::{FaultFs, IoFaultPlan, StdFs, StoreIo};
    use std::path::{Path, PathBuf};

    fn jobs() -> Vec<ProfileJob> {
        let quick = |m| {
            Stash::new(m)
                .with_sampled_iterations(3)
                .with_epoch_samples(20_000)
        };
        vec![
            ProfileJob {
                stash: quick(zoo::alexnet()),
                cluster: ClusterSpec::single(p3_2xlarge()),
            },
            ProfileJob {
                stash: quick(zoo::resnet18()),
                cluster: ClusterSpec::single(p3_8xlarge()),
            },
            ProfileJob {
                stash: quick(zoo::alexnet()),
                cluster: ClusterSpec::homogeneous(p3_8xlarge(), 2),
            },
        ]
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stash_sweep_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cell_keys_are_stable_and_distinct() {
        use stash_collectives::{bucket::Bucketing, schedule::Algorithm};
        use stash_dnn::dataset::DatasetSpec;
        use stash_gpucompute::precision::Precision;

        let jobs = jobs();
        assert_eq!(cell_key(&jobs[0]), cell_key(&jobs[0]));
        assert_ne!(cell_key(&jobs[0]), cell_key(&jobs[1]));
        assert_ne!(cell_key(&jobs[1]), cell_key(&jobs[2]));

        // Each profiler setting changed on its own, and the base job on a
        // second cluster, must get a key of its own: a key of cluster,
        // model and batch alone would serve an fp32 record to AMP.
        let base = &jobs[0];
        let vary = |with: fn(Stash) -> Stash| ProfileJob {
            stash: with(base.stash.clone()),
            cluster: base.cluster.clone(),
        };
        let variants = [
            base.clone(),
            vary(|s| s.with_batch(64)),
            vary(|s| s.with_dataset(DatasetSpec::squad2())),
            vary(|s| s.with_epoch_samples(40_000)),
            vary(|s| s.with_sampled_iterations(6)),
            vary(|s| s.with_bucketing(Bucketing::pytorch_default())),
            vary(|s| s.with_algorithm(Algorithm::Tree)),
            vary(|s| s.with_precision(Precision::Amp)),
            ProfileJob {
                stash: base.stash.clone(),
                cluster: ClusterSpec::single(p3_8xlarge()),
            },
        ];
        let keys: Vec<u128> = variants.iter().map(cell_key).collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "variants {i} and {j} share a cell key");
            }
        }
    }

    #[test]
    fn cell_keys_match_the_value_tree_derivation() {
        use stash_hwtopo::instance::p3_16xlarge;
        // The derivation stores were keyed with before keys were
        // streamed: records written by either must resume under the other.
        let tree_key = |job: &ProfileJob| {
            let mut m = serde_json::Map::new();
            m.insert("schema".to_string(), CELL_SCHEMA.to_json_value());
            m.insert(
                "cluster".to_string(),
                job.cluster.display_name().to_json_value(),
            );
            m.insert("stash".to_string(), job.stash.to_json_value());
            let mut canonical = String::new();
            serde::write_json_value(&serde_json::Value::Object(m), &mut canonical);
            fnv128(canonical.as_bytes())
        };
        for (model, _) in zoo::all_models() {
            let job = ProfileJob {
                stash: Stash::new(model).with_batch(48).with_epoch_samples(9_000),
                cluster: ClusterSpec::homogeneous(p3_16xlarge(), 2),
            };
            assert_eq!(cell_key(&job), tree_key(&job), "{}", job.stash.model().name);
        }
        let job = &jobs()[0];
        assert_eq!(
            key_hex(cell_key(job)),
            key_hex(tree_key(job)),
            "quick AlexNet cell"
        );
    }

    #[test]
    fn record_payload_round_trips() {
        let jobs = jobs();
        let report = jobs[0].stash.profile_serial(&jobs[0].cluster).unwrap();
        let payload = encode_cell_record(&jobs[0], &report);
        assert_eq!(decode_cell_record(&payload).unwrap(), report);
        assert!(decode_cell_record(b"not json").is_err());
        assert!(decode_cell_record(b"{\"schema\":\"other\"}").is_err());
        assert!(decode_cell_record(b"{}").is_err());
    }

    #[test]
    fn storeless_and_stored_sweeps_are_bit_identical() {
        let jobs = jobs();
        let policy = RetryPolicy::default();
        let storeless = run_sweep(&jobs, None, &policy, &MeasurementCache::new());
        assert_eq!(storeless.failed(), 0);
        assert_eq!(storeless.computed(), jobs.len());

        let root = tmp("differential");
        let store = ResultStore::open(&root, Box::new(StdFs::new())).unwrap();
        let stored = run_sweep(&jobs, Some(&store), &policy, &MeasurementCache::new());
        assert_eq!(stored.failed(), 0);
        assert_eq!(storeless.results_csv(), stored.results_csv());

        // Second run over the same store: everything resumes, reports
        // and CSV rows (modulo the status column) stay bit-identical.
        let resumed = run_sweep(&jobs, Some(&store), &policy, &MeasurementCache::new());
        assert_eq!(resumed.resumed(), jobs.len());
        assert_eq!(resumed.computed(), 0);
        let strip_status = |csv: &str| {
            csv.lines()
                .map(|l| {
                    l.rsplit_once(',')
                        .map_or(l.to_string(), |(a, _)| a.to_string())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            strip_status(&stored.results_csv()),
            strip_status(&resumed.results_csv())
        );
        let reports: Vec<_> = stored.reports().cloned().collect();
        let reports_resumed: Vec<_> = resumed.reports().cloned().collect();
        assert_eq!(reports, reports_resumed);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn seeded_faults_recover_to_identical_bytes() {
        let jobs = jobs();
        let policy = RetryPolicy {
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            ..RetryPolicy::default()
        };
        let clean_root = tmp("faults_clean");
        let clean = ResultStore::open(&clean_root, Box::new(StdFs::new())).unwrap();
        let clean_out = run_sweep(&jobs, Some(&clean), &policy, &MeasurementCache::new());
        assert_eq!(clean_out.failed(), 0);

        let faulty_root = tmp("faults_faulty");
        let faulty = ResultStore::open(
            &faulty_root,
            Box::new(FaultFs::new(IoFaultPlan::seeded(11))),
        )
        .unwrap();
        let faulty_out = run_sweep(&jobs, Some(&faulty), &policy, &MeasurementCache::new());
        assert_eq!(faulty_out.failed(), 0, "seeded faults must be recoverable");
        assert_eq!(clean_out.results_csv(), faulty_out.results_csv());

        // The record *files* converge byte-identically.
        for key in clean.keys().unwrap() {
            let a = std::fs::read(clean.record_path(key)).unwrap();
            let b = std::fs::read(faulty.record_path(key)).unwrap();
            assert_eq!(a, b, "record {} diverged", key_hex(key));
        }
        assert_eq!(clean.keys().unwrap(), faulty.keys().unwrap());
        let _ = std::fs::remove_dir_all(&clean_root);
        let _ = std::fs::remove_dir_all(&faulty_root);
    }

    #[test]
    fn profile_failures_degrade_gracefully() {
        use stash_hwtopo::instance::p3_16xlarge;
        let quick = |m| {
            Stash::new(m)
                .with_sampled_iterations(3)
                .with_epoch_samples(20_000)
        };
        let jobs = vec![
            ProfileJob {
                stash: quick(zoo::alexnet()),
                cluster: ClusterSpec::single(p3_2xlarge()),
            },
            // 3x p3.16xlarge = 24 GPUs: no single-instance reference
            // exists, so this cell fails permanently.
            ProfileJob {
                stash: quick(zoo::alexnet()),
                cluster: ClusterSpec::homogeneous(p3_16xlarge(), 3),
            },
        ];
        let root = tmp("degrade");
        let store = ResultStore::open(&root, Box::new(StdFs::new())).unwrap();
        let out = run_sweep(
            &jobs,
            Some(&store),
            &RetryPolicy::default(),
            &MeasurementCache::new(),
        );
        assert_eq!(out.failed(), 1);
        assert_eq!(out.computed(), 1);
        assert!(matches!(
            out.cells[1].status,
            CellStatus::Failed(FailReason::Profile { .. })
        ));
        let csv = out.results_csv();
        assert!(csv.contains("profile-error"));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A stored sweep on `workers` workers: its outcome's CSV and status
    /// list, and the journal bytes.
    fn stored_run(
        tag: &str,
        jobs: &[ProfileJob],
        workers: usize,
    ) -> (String, Vec<CellStatus>, Vec<u8>) {
        let root = tmp(tag);
        let store = ResultStore::open(&root, Box::new(StdFs::new())).unwrap();
        let out = run_sweep_on(
            jobs,
            Some(&store),
            &RetryPolicy::default(),
            &MeasurementCache::new(),
            workers,
        );
        let journal = std::fs::read(store.journal().path()).unwrap();
        let _ = std::fs::remove_dir_all(&root);
        let statuses = out.cells.iter().map(|c| c.status.clone()).collect();
        (out.results_csv(), statuses, journal)
    }

    /// [`StdFs`] that keeps the bytes of every append it makes.
    #[derive(Debug, Clone, Default)]
    struct CountingIo {
        appends: std::sync::Arc<std::sync::Mutex<Vec<String>>>,
    }

    impl CountingIo {
        fn take(&self) -> Vec<String> {
            std::mem::take(&mut *self.appends.lock().unwrap())
        }
    }

    impl StoreIo for CountingIo {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            StdFs.read(path)
        }
        fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            StdFs.write_atomic(path, bytes)
        }
        fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            let text = String::from_utf8(bytes.to_vec()).unwrap();
            self.appends.lock().unwrap().push(text);
            StdFs.append(path, bytes)
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
            StdFs.list(dir)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            StdFs.rename(from, to)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            StdFs.remove(path)
        }
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            StdFs.create_dir_all(dir)
        }
        fn exists(&self, path: &Path) -> bool {
            StdFs.exists(path)
        }
    }

    #[test]
    fn a_sweep_journals_its_plan_in_one_append_and_nothing_else() {
        let jobs = jobs();
        let policy = RetryPolicy::default();
        let root = tmp("one_append");
        let io = CountingIo::default();
        let store = ResultStore::open(&root, Box::new(io.clone())).unwrap();
        let lines: String = jobs
            .iter()
            .map(Cell::new)
            .map(|cell| {
                let json = serde_json::to_string(&JournalEntry::plan(&cell.hex, &cell.descriptor))
                    .unwrap();
                let sum = (fnv128(json.as_bytes()) & u128::from(u64::MAX)) as u64;
                format!("{sum:016x} {json}\n")
            })
            .collect();
        let plan = [format!("\n{lines}")];

        // Cold and resumed sweeps alike: the whole plan in one append,
        // behind the newline every batch starts with.
        let cold = run_sweep(&jobs, Some(&store), &policy, &MeasurementCache::new());
        assert_eq!(cold.computed(), 3);
        assert_eq!(io.take(), plan);
        let resumed = run_sweep(&jobs, Some(&store), &policy, &MeasurementCache::new());
        assert_eq!(resumed.resumed(), 3);
        assert_eq!(io.take(), plan);
        assert_eq!(
            std::fs::read_to_string(store.journal().path()).unwrap(),
            plan[0].repeat(2)
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn plans_decode_to_the_jobs_that_wrote_them() {
        use stash_gpucompute::precision::Precision;
        use stash_hwtopo::instance::p3_16xlarge;
        let mut jobs = jobs();
        jobs.push(ProfileJob {
            stash: Stash::new(zoo::bert_large())
                .with_dataset(DatasetSpec::squad2())
                .with_sampled_iterations(2),
            cluster: ClusterSpec::homogeneous(p3_16xlarge(), 3),
        });
        for job in &jobs {
            let key = key_hex(cell_key(job));
            let detail = serde_json::to_string(&cell_descriptor(job)).unwrap();
            let back = job_from_descriptor(&key, &detail).unwrap();
            assert_eq!(key_hex(cell_key(&back)), key);
            assert_eq!(back.cluster, job.cluster);
        }

        // The descriptor does not carry the precision: an AMP cell's plan
        // rebuilds an fp32 job, and the decoder refuses it by its key.
        let amp = ProfileJob {
            stash: jobs[0].stash.clone().with_precision(Precision::Amp),
            cluster: jobs[0].cluster.clone(),
        };
        let key = key_hex(cell_key(&amp));
        let detail = serde_json::to_string(&cell_descriptor(&amp)).unwrap();
        let err = job_from_descriptor(&key, &detail).unwrap_err();
        assert!(err.contains(&format!("cell {key}")), "{err}");
        assert!(err.contains("does not describe this cell"), "{err}");
    }

    #[test]
    fn pooled_failures_keep_serial_order_and_precedence() {
        use stash_hwtopo::instance::p3_16xlarge;
        let mut jobs = jobs();
        // 3x p3.16xlarge has no single-instance reference: this cell
        // fails permanently, between cells that succeed.
        jobs.insert(
            1,
            ProfileJob {
                stash: jobs[0].stash.clone(),
                cluster: ClusterSpec::homogeneous(p3_16xlarge(), 3),
            },
        );
        let serial = stored_run("precedence_1", &jobs, 1);
        assert!(matches!(
            serial.1[1],
            CellStatus::Failed(FailReason::Profile { .. })
        ));
        assert_eq!(
            serial
                .1
                .iter()
                .filter(|s| **s == CellStatus::Computed)
                .count(),
            3
        );
        for workers in [2, 3] {
            let pooled = stored_run(&format!("precedence_{workers}"), &jobs, workers);
            assert_eq!(pooled, serial, "{workers} workers diverged from one");
        }
    }

    #[test]
    fn repeated_cells_resume_from_their_first_occurrence() {
        let base = jobs();
        let jobs = vec![base[0].clone(), base[1].clone(), base[0].clone()];
        let serial = stored_run("repeat_1", &jobs, 1);
        assert_eq!(
            serial.1,
            vec![
                CellStatus::Computed,
                CellStatus::Computed,
                CellStatus::Resumed
            ]
        );
        assert_eq!(stored_run("repeat_3", &jobs, 3), serial);
    }

    #[test]
    fn faulted_stores_are_byte_identical_across_worker_counts() {
        let jobs = jobs();
        let policy = RetryPolicy {
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            ..RetryPolicy::default()
        };
        let run = |workers: usize| {
            let root = tmp(&format!("faulted_workers_{workers}"));
            let store =
                ResultStore::open(&root, Box::new(FaultFs::new(IoFaultPlan::seeded(11)))).unwrap();
            let out = run_sweep_on(
                &jobs,
                Some(&store),
                &policy,
                &MeasurementCache::new(),
                workers,
            );
            let records: Vec<Vec<u8>> = store
                .keys()
                .unwrap()
                .into_iter()
                .map(|k| std::fs::read(store.record_path(k)).unwrap())
                .collect();
            let journal = std::fs::read(store.journal().path()).unwrap();
            let _ = std::fs::remove_dir_all(&root);
            (out.results_csv(), records, journal)
        };
        let serial = run(1);
        assert_eq!(run(3), serial);
    }
}
