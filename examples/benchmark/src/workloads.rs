//! The four workloads. Each is a closed loop with one client: the next
//! request is issued only after the previous one returned.
//!
//! * `grid` — the figure sweep: one `par_profile_many` call per pass over
//!   the 262-cell figure grid, with a fresh `MeasurementCache` per pass.
//! * `profile` — interactive `Stash::profile` calls, one cell each.
//! * `store` — durable `run_sweep`s into a fresh `ResultStore` (cold),
//!   then resume passes that serve every cell from verified records.
//! * `chaos` — a fault-free baseline epoch plus a seeded faulted epoch per
//!   cell.
//!
//! Requests are grouped into *rounds* of identical mix (a grid pass, or a
//! seeded shuffle of every input pair), and each metric is a median over
//! rounds: host speed here drifts by tens of percent for seconds at a
//! time, and a median over rounds discards a slow spell that covers fewer
//! than half of them.
//!
//! A workload sets itself up from the seed, runs a measured leg under a
//! [`Budget`], and afterwards — outside the timed window — re-checks a
//! seeded 1-in-20 sample of cells through an independent path and digests
//! its first round for the golden comparison.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use stash::core::cache::MeasurementCache;
use stash::core::profiler::{par_profile_many, ProfileJob, DEFAULT_SAMPLED_ITERATIONS};
use stash::core::report::StallReport;
use stash::core::sweep::{cell_key, run_sweep, SweepOutcome};
use stash::ddl::config::{EpochMode, TrainConfig};
use stash::ddl::engine::{
    run_epoch_faulted_with, run_epoch_in_with, run_epoch_with, EngineArena, EngineOptions,
};
use stash::ddl::recovery::FaultedRun;
use stash::ddl::report::EpochReport;
use stash::faults::plan::FaultPlan;
use stash::simkit::rng::DetRng;
use stash::store::retry::RetryPolicy;
use stash::store::store::ResultStore;

use crate::check::{Checks, Digest};
use crate::inputs::{self, Catalog};
use crate::trace::{self, timed, within, Tracer};

/// Workload names, in the order a full run executes them.
pub const NAMES: [&str; 4] = ["grid", "profile", "store", "chaos"];

/// How many rounds a measured leg runs, and what runs between them.
pub struct Budget<'a> {
    limit: Limit,
    started: Instant,
    between: Option<&'a mut dyn FnMut()>,
}

#[derive(Debug, Clone, Copy)]
enum Limit {
    Time(Duration),
    Rounds(u64),
}

impl<'a> Budget<'a> {
    /// Start rounds until `until` has passed, completing at least one (the
    /// first round is the golden digest's prefix). `between` runs before
    /// every round after the first, outside the rounds' timing.
    pub fn time(until: Duration, between: &'a mut dyn FnMut()) -> Budget<'a> {
        Budget {
            limit: Limit::Time(until),
            started: Instant::now(),
            between: Some(between),
        }
    }

    /// Exactly `n` rounds: traced runs, whose layer counts must repeat
    /// from run to run.
    pub fn rounds(n: u64) -> Budget<'a> {
        Budget {
            limit: Limit::Rounds(n),
            started: Instant::now(),
            between: None,
        }
    }

    /// Whether round `done` (0-based) should run.
    fn more(&mut self, done: u64) -> bool {
        let more = match self.limit {
            Limit::Time(until) => done == 0 || self.started.elapsed() < until,
            Limit::Rounds(n) => done < n,
        };
        if let (true, 1.., Some(between)) = (more, done, self.between.as_mut()) {
            between();
        }
        more
    }
}

/// What a measured leg produced.
#[derive(Debug, Default)]
pub struct Leg {
    /// Wall time of the whole leg.
    pub wall: Duration,
    /// Cells completed in the throughput rounds.
    pub cells: u64,
    /// (cells, wall) of each throughput round: grid passes, profile and
    /// chaos rounds, the cold sweeps of `store`.
    pub throughput: Vec<(u64, Duration)>,
    /// Request latencies in ms, one vector per round: the profile (182)
    /// and chaos (231) rounds, one grid pass or one `store` resume each.
    pub latency: Vec<Vec<f64>>,
    /// Cells attempted, in every phase.
    pub attempted: u64,
    /// Cells that returned an error.
    pub failed_cells: u64,
    /// Iterations the inputs ask the engine for (steps × sampled
    /// iterations), the base of the fast-forward ratio.
    pub requested_iterations: u64,
    /// Failed correctness checks.
    pub checks: Checks,
    /// Digest of the first round's results.
    pub digest: Digest,
}

/// A seeded workload instance.
pub trait Workload {
    /// Runs one measured leg.
    fn run(&mut self, budget: Budget<'_>, tracer: Option<&Tracer>) -> Leg;
    /// Re-checks the leg's sample, outside the timed window.
    fn verify(&mut self, leg: &mut Leg);
    /// Rounds a traced run makes for a `seconds`-long run.
    fn trace_rounds(&self, seconds: f64) -> u64;
}

/// Builds workload `name` from `seed`: its catalog, inputs and (for
/// `store`) its directory under `tmp`.
pub fn setup(name: &str, seed: u64, smoke: bool, tmp: &Path) -> Option<Box<dyn Workload>> {
    let catalog = Catalog::new(smoke);
    Some(match name {
        "grid" => Box::new(Grid::new(catalog, seed, smoke)),
        "profile" => Box::new(Profile::new(catalog, seed)),
        "store" => Box::new(Store::new(catalog, seed, smoke, tmp)),
        "chaos" => Box::new(Chaos::new(catalog, seed)),
        _ => return None,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `seconds × per_second` rounds, at least one.
fn scaled(seconds: f64, per_second: f64) -> u64 {
    ((seconds * per_second).round() as u64).max(1)
}

/// Seeded sample of (input, result) pairs kept for the re-check.
type Sample<I, R> = Vec<(I, R)>;

/// Cells re-checked per run at most, so the re-check stays short however
/// long the run.
const MAX_RECHECKS: usize = 48;

/// Records one profiler result: the golden prefix, the re-check sample
/// and the failure tally.
fn keep(
    leg: &mut Leg,
    sample: &mut Sample<ProfileJob, StallReport>,
    seed: u64,
    cell: u64,
    first_round: bool,
    job: &ProfileJob,
    result: &Result<StallReport, impl std::fmt::Display>,
) {
    match result {
        Ok(report) => {
            if first_round {
                leg.digest.add(report);
            }
            if sample.len() < MAX_RECHECKS && inputs::sampled_for_recheck(seed, cell) {
                sample.push((job.clone(), report.clone()));
            }
        }
        Err(e) => {
            leg.failed_cells += 1;
            leg.checks.failures.push(format!("cell {cell}: {e}"));
        }
    }
}

/// Re-profiles each sampled cell serially, uncached, from scratch.
fn recheck_profiles(leg: &mut Leg, sample: &[(ProfileJob, StallReport)]) {
    for (job, want) in sample {
        let got = job.stash.profile_serial(&job.cluster);
        leg.checks.expect(got.as_ref().ok() == Some(want), || {
            format!(
                "re-check of {} {} b{} differs",
                job.cluster.display_name(),
                job.stash.model().name,
                job.stash.per_gpu_batch()
            )
        });
    }
}

// --------------------------------------------------------------- grid

/// Per-pass sampled-iteration budgets, taken in a seeded order so passes
/// never repeat a cell within a cycle. They are close together so every
/// pass costs about the same.
const GRID_ITERATIONS: [u64; 5] = [30, 31, 32, 33, 34];
const GRID_SMOKE_ITERATIONS: [u64; 3] = [6, 7, 8];

struct Grid {
    seed: u64,
    cells: Vec<(usize, usize, u64)>,
    catalog: Catalog,
    iterations: Vec<u64>,
    /// The first pass's jobs, built during set-up.
    first: Option<Vec<ProfileJob>>,
    sample: Sample<ProfileJob, StallReport>,
}

impl Grid {
    fn new(catalog: Catalog, seed: u64, smoke: bool) -> Grid {
        let cells = catalog
            .pairs()
            .into_iter()
            .flat_map(|(s, m)| [32, 64, 128].map(|b| (s, m, b)))
            .filter(|&(s, m, b)| inputs::fits(&catalog.shapes[s], &catalog.models[m], b))
            .collect();
        let mut iterations = if smoke {
            GRID_SMOKE_ITERATIONS.to_vec()
        } else {
            GRID_ITERATIONS.to_vec()
        };
        DetRng::new(seed ^ 0x6772_6964).shuffle(&mut iterations);
        let mut grid = Grid {
            seed,
            cells,
            catalog,
            iterations,
            first: None,
            sample: Vec::new(),
        };
        grid.first = Some(grid.jobs(0));
        grid
    }

    /// Pass `pass`'s jobs: every grid cell at the pass's iteration budget.
    fn jobs(&self, pass: u64) -> Vec<ProfileJob> {
        let iters = self.iterations[pass as usize % self.iterations.len()];
        self.cells
            .iter()
            .map(|&(s, m, b)| {
                let (shape, model) = (&self.catalog.shapes[s], &self.catalog.models[m]);
                inputs::job(model, shape, b, Some(iters))
            })
            .collect()
    }
}

impl Workload for Grid {
    fn run(&mut self, mut budget: Budget<'_>, tracer: Option<&Tracer>) -> Leg {
        let mut leg = Leg::default();
        let started = Instant::now();
        let mut pass = 0u64;
        while budget.more(pass) {
            let jobs = self.first.take().unwrap_or_else(|| self.jobs(pass));
            let cache = MeasurementCache::new();
            let (results, took) = timed(tracer, "grid.pass", Some(pass), || {
                par_profile_many(&jobs, Some(&cache))
            });
            leg.throughput.push((jobs.len() as u64, took));
            leg.latency.push(vec![ms(took)]);
            let first = pass * jobs.len() as u64;
            for (i, (job, result)) in jobs.iter().zip(&results).enumerate() {
                let cell = first + i as u64;
                keep(
                    &mut leg,
                    &mut self.sample,
                    self.seed,
                    cell,
                    pass == 0,
                    job,
                    result,
                );
                leg.requested_iterations +=
                    inputs::profile_steps(&job.cluster) * job.stash.sampled_iterations();
            }
            leg.cells += jobs.len() as u64;
            pass += 1;
        }
        leg.attempted = leg.cells;
        leg.wall = started.elapsed();
        leg
    }

    fn verify(&mut self, leg: &mut Leg) {
        recheck_profiles(leg, &self.sample);
    }

    fn trace_rounds(&self, seconds: f64) -> u64 {
        scaled(seconds, 0.2)
    }
}

// ------------------------------------------------------------ profile

struct Profile {
    seed: u64,
    catalog: Catalog,
    rng: DetRng,
    /// The first round's jobs, drawn during set-up.
    first: Option<Vec<ProfileJob>>,
    sample: Sample<ProfileJob, StallReport>,
}

impl Profile {
    fn new(catalog: Catalog, seed: u64) -> Profile {
        let mut profile = Profile {
            seed,
            catalog,
            rng: DetRng::new(seed ^ 0x7072_6f66),
            first: None,
            sample: Vec::new(),
        };
        profile.first = Some(profile.round());
        profile
    }

    /// One round: two seeded shuffles of every (shape, model) pair — enough
    /// requests for a p90 with ten samples beyond it — each with a
    /// memory-feasible batch in 8..=128, the default 25 sampled iterations
    /// and the full ImageNet epoch.
    fn round(&mut self) -> Vec<ProfileJob> {
        let mut pairs = Vec::new();
        for _ in 0..2 {
            let mut shuffled = self.catalog.pairs();
            self.rng.shuffle(&mut shuffled);
            pairs.append(&mut shuffled);
        }
        pairs
            .into_iter()
            .map(|(s, m)| {
                let (shape, model) = (&self.catalog.shapes[s], &self.catalog.models[m]);
                let batch = inputs::feasible_batch(&mut self.rng, shape, model, 8, 128);
                inputs::job(model, shape, batch.unwrap_or(8), None)
            })
            .collect()
    }
}

impl Workload for Profile {
    fn run(&mut self, mut budget: Budget<'_>, tracer: Option<&Tracer>) -> Leg {
        let mut leg = Leg::default();
        let started = Instant::now();
        let mut round = 0u64;
        while budget.more(round) {
            let jobs = self.first.take().unwrap_or_else(|| self.round());
            let mut latencies = Vec::with_capacity(jobs.len());
            let round_start = Instant::now();
            for job in &jobs {
                let cell = leg.cells;
                let (result, took) = timed(tracer, "profile.call", Some(cell), || {
                    job.stash.profile(&job.cluster)
                });
                latencies.push(ms(took));
                keep(
                    &mut leg,
                    &mut self.sample,
                    self.seed,
                    cell,
                    round == 0,
                    job,
                    &result,
                );
                leg.requested_iterations +=
                    inputs::profile_steps(&job.cluster) * DEFAULT_SAMPLED_ITERATIONS;
                leg.cells += 1;
            }
            leg.throughput
                .push((jobs.len() as u64, round_start.elapsed()));
            leg.latency.push(latencies);
            round += 1;
        }
        leg.attempted = leg.cells;
        leg.wall = started.elapsed();
        leg
    }

    fn verify(&mut self, leg: &mut Leg) {
        recheck_profiles(leg, &self.sample);
    }

    fn trace_rounds(&self, seconds: f64) -> u64 {
        scaled(seconds, 0.2)
    }
}

// -------------------------------------------------------------- store

/// A directory removed when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Store {
    seed: u64,
    dir: TempDir,
    legs: u32,
    /// Cold sweeps, one round of distinct cells each.
    rounds: Vec<Vec<ProfileJob>>,
    /// Every cell, in sweep order: what each resume pass serves.
    jobs: Vec<ProfileJob>,
    cold: Vec<StallReport>,
    store_root: PathBuf,
}

impl Store {
    /// Cold rounds of distinct cells: each a seeded shuffle of every
    /// (shape, model) pair with a feasible batch in 16..=128 and a
    /// sampled-iteration budget in 8..=24 (4..=8 for `--smoke`),
    /// deduplicated by cell key across all rounds.
    fn new(catalog: Catalog, seed: u64, smoke: bool, tmp: &Path) -> Store {
        let (count, lo, hi) = if smoke { (1, 4, 8) } else { (5, 8, 24) };
        let mut rng = DetRng::new(seed ^ 0x7374_6f72);
        let mut keys = std::collections::BTreeSet::new();
        let mut rounds = Vec::new();
        for _ in 0..count {
            let mut pairs = catalog.pairs();
            rng.shuffle(&mut pairs);
            let round = pairs
                .into_iter()
                .map(|(s, m)| {
                    let (shape, model) = (&catalog.shapes[s], &catalog.models[m]);
                    loop {
                        let batch = inputs::feasible_batch(&mut rng, shape, model, 16, 128);
                        let iterations = inputs::draw(&mut rng, lo, hi);
                        let job = inputs::job(model, shape, batch.unwrap_or(16), Some(iterations));
                        if keys.insert(cell_key(&job)) {
                            break job;
                        }
                    }
                })
                .collect();
            rounds.push(round);
        }
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = TempDir(tmp.join(format!("store-{n}")));
        Store {
            seed,
            store_root: dir.0.clone(),
            dir,
            legs: 0,
            jobs: rounds.concat(),
            rounds,
            cold: Vec::new(),
        }
    }

    fn sweep(
        &self,
        tracer: Option<&Tracer>,
        store: &ResultStore,
        jobs: &[ProfileJob],
    ) -> SweepOutcome {
        within(tracer, "core.run_sweep", None, || {
            run_sweep(
                jobs,
                Some(store),
                &RetryPolicy::default(),
                &MeasurementCache::new(),
            )
        })
    }

    fn open(&self, tracer: Option<&Tracer>) -> Option<ResultStore> {
        within(tracer, "store.open", None, || {
            ResultStore::open(&self.store_root, trace::store_io(tracer)).ok()
        })
    }
}

impl Workload for Store {
    fn run(&mut self, mut budget: Budget<'_>, tracer: Option<&Tracer>) -> Leg {
        // Each leg sweeps into a store of its own.
        self.store_root = self.dir.0.join(format!("leg-{}", self.legs));
        self.legs += 1;
        let mut leg = Leg::default();
        let started = Instant::now();

        self.cold.clear();
        for (i, round) in self.rounds.iter().enumerate() {
            let (cold, took) = timed(tracer, "store.cold", Some(i as u64), || {
                self.open(tracer)
                    .map(|store| self.sweep(tracer, &store, round))
            });
            leg.throughput.push((round.len() as u64, took));
            leg.cells += round.len() as u64;
            leg.attempted += round.len() as u64;
            let Some(cold) = cold else {
                leg.checks.failures.push("cannot open the store".into());
                leg.failed_cells += round.len() as u64;
                continue;
            };
            leg.failed_cells += cold.failed() as u64;
            self.cold.extend(cold.reports().cloned());
        }
        for job in &self.jobs {
            leg.requested_iterations +=
                inputs::profile_steps(&job.cluster) * job.stash.sampled_iterations();
        }

        // Every resume pass resumes the store as the cold sweeps left it: a
        // resume appends to the journal, so the journal is put back before
        // each pass (untimed) and each pass replays the same history.
        let journal = match ResultStore::open(&self.store_root, trace::store_io(None)) {
            Ok(store) => store.journal(),
            Err(e) => {
                leg.checks
                    .failures
                    .push(format!("cannot reopen the store: {e}"));
                return leg;
            }
        };
        let cold_journal = std::fs::read(journal.path()).unwrap_or_default();
        let n = self.jobs.len() as u64;
        let mut pass = 0u64;
        while budget.more(pass) {
            if let Err(e) = std::fs::write(journal.path(), &cold_journal) {
                leg.checks
                    .failures
                    .push(format!("cannot restore the journal: {e}"));
            }
            let (resumed, took) = timed(tracer, "store.resume", Some(pass), || {
                let store = self.open(tracer)?;
                let replay = within(tracer, "journal.replay", None, || {
                    store.journal().replay(store.io()).ok()
                })?;
                Some((replay, self.sweep(tracer, &store, &self.jobs)))
            });
            leg.latency.push(vec![ms(took)]);
            leg.attempted += n;
            pass += 1;
            let Some((replay, out)) = resumed else {
                leg.failed_cells += n;
                leg.checks
                    .failures
                    .push(format!("resume {pass}: store unreadable"));
                continue;
            };
            leg.failed_cells += out.failed() as u64;
            let reports: Vec<StallReport> = out.reports().cloned().collect();
            leg.checks.expect(out.resumed() as u64 == n, || {
                format!("resume {pass}: {} of {n} cells resumed", out.resumed())
            });
            leg.checks.expect(reports == self.cold, || {
                format!("resume {pass}: resumed reports differ from the cold sweeps")
            });
            leg.checks
                .expect(replay.planned_cells().len() as u64 == n, || {
                    let planned = replay.planned_cells().len();
                    format!("resume {pass}: the journal plans {planned} cells")
                });
        }
        leg.wall = started.elapsed();
        leg
    }

    fn verify(&mut self, leg: &mut Leg) {
        let fsck =
            ResultStore::open(&self.store_root, trace::store_io(None)).and_then(|s| s.fsck());
        match fsck {
            Ok(report) => leg
                .checks
                .expect(report.clean() && report.ok == self.jobs.len(), || {
                    let n = self.jobs.len();
                    format!("fsck: {} of {n} records ok, {:?}", report.ok, report.issues)
                }),
            Err(e) => leg.checks.failures.push(format!("fsck: {e}")),
        }
        let first = self.rounds.first().map_or(0, Vec::len);
        self.cold.iter().take(first).for_each(|r| leg.digest.add(r));
        let sample: Vec<(ProfileJob, StallReport)> = self
            .jobs
            .iter()
            .zip(&self.cold)
            .enumerate()
            .filter(|(i, _)| inputs::sampled_for_recheck(self.seed, *i as u64))
            .map(|(_, (job, report))| (job.clone(), report.clone()))
            .take(MAX_RECHECKS)
            .collect();
        recheck_profiles(leg, &sample);
    }

    fn trace_rounds(&self, seconds: f64) -> u64 {
        scaled(seconds, 1.0)
    }
}

// -------------------------------------------------------------- chaos

/// Synthetic iterations in each chaos epoch.
const CHAOS_ITERATIONS: u64 = 48;

/// One chaos cell's input: the epoch config and its fault-plan seed.
type ChaosInput = (TrainConfig, u64);

struct Chaos {
    seed: u64,
    catalog: Catalog,
    rng: DetRng,
    /// The first round's configs, drawn during set-up.
    first: Option<Vec<TrainConfig>>,
    arena: EngineArena,
    sample: Sample<ChaosInput, (EpochReport, FaultedRun)>,
}

impl Chaos {
    fn new(catalog: Catalog, seed: u64) -> Chaos {
        let mut chaos = Chaos {
            seed,
            catalog,
            rng: DetRng::new(seed ^ 0x6368_616f),
            first: None,
            arena: EngineArena::new(),
            sample: Vec::new(),
        };
        chaos.first = Some(chaos.round());
        chaos
    }

    /// One round: a seeded shuffle of every feasible (shape, model, batch)
    /// triple on the multi-GPU shapes, batch 16, 32 or 64, each a full
    /// 48-iteration synthetic epoch.
    fn round(&mut self) -> Vec<TrainConfig> {
        let c = &self.catalog;
        let mut triples: Vec<(usize, usize, u64)> = (0..c.chaos_shapes.len())
            .flat_map(|s| (0..c.models.len()).flat_map(move |m| [16, 32, 64].map(|b| (s, m, b))))
            .filter(|&(s, m, b)| inputs::fits(&c.chaos_shapes[s], &c.models[m], b))
            .collect();
        self.rng.shuffle(&mut triples);
        triples
            .into_iter()
            .map(|(s, m, b)| {
                let (shape, model) = (&c.chaos_shapes[s], &c.models[m]);
                let mut cfg =
                    TrainConfig::synthetic(shape.clone(), model.clone(), b, b * CHAOS_ITERATIONS);
                cfg.epoch_mode = EpochMode::Full;
                cfg
            })
            .collect()
    }
}

/// A fault-free baseline epoch, then the same epoch under the seeded plan
/// whose horizon is the baseline's epoch time.
fn chaos_cell(
    cfg: &TrainConfig,
    plan_seed: u64,
    options: &EngineOptions,
    arena: Option<&mut EngineArena>,
    tracer: Option<&Tracer>,
) -> Result<(EpochReport, FaultedRun), String> {
    let baseline = within(tracer, "ddl.baseline", None, || match arena {
        Some(arena) => run_epoch_in_with(cfg, options, arena),
        None => run_epoch_with(cfg, options),
    })
    .map_err(|e| e.to_string())?;
    let (world, nodes) = (cfg.cluster.world_size(), cfg.cluster.node_count());
    let plan = FaultPlan::seeded(plan_seed, world, nodes, baseline.epoch_time);
    let faulted = within(tracer, "ddl.faulted", None, || {
        run_epoch_faulted_with(cfg, &plan, options)
    })
    .map_err(|e| e.to_string())?;
    Ok((baseline, faulted))
}

impl Workload for Chaos {
    fn run(&mut self, mut budget: Budget<'_>, tracer: Option<&Tracer>) -> Leg {
        let mut leg = Leg::default();
        let options = EngineOptions::default();
        let started = Instant::now();
        let mut round = 0u64;
        while budget.more(round) {
            let configs = self.first.take().unwrap_or_else(|| self.round());
            let mut latencies = Vec::with_capacity(configs.len());
            let round_start = Instant::now();
            for cfg in configs {
                let cell = leg.cells;
                let plan_seed = self.seed ^ cell;
                let arena = &mut self.arena;
                let (result, took) = timed(tracer, "chaos.cell", Some(cell), || {
                    chaos_cell(&cfg, plan_seed, &options, Some(arena), tracer)
                });
                latencies.push(ms(took));
                match result {
                    Ok(out) => {
                        if round == 0 {
                            leg.digest.add(&out.0);
                            leg.digest.add(&out.1);
                        }
                        if self.sample.len() < MAX_RECHECKS
                            && inputs::sampled_for_recheck(self.seed, cell)
                        {
                            self.sample.push(((cfg, plan_seed), out));
                        }
                    }
                    Err(e) => {
                        leg.failed_cells += 1;
                        leg.checks.failures.push(format!("cell {cell}: {e}"));
                    }
                }
                leg.requested_iterations += 2 * CHAOS_ITERATIONS;
                leg.cells += 1;
            }
            leg.throughput
                .push((latencies.len() as u64, round_start.elapsed()));
            leg.latency.push(latencies);
            round += 1;
        }
        leg.attempted = leg.cells;
        leg.wall = started.elapsed();
        leg
    }

    /// Re-runs each sampled cell with fast-forward off and a fresh engine.
    fn verify(&mut self, leg: &mut Leg) {
        let slow = EngineOptions {
            fast_forward: false,
        };
        for ((cfg, plan_seed), want) in &self.sample {
            let got = chaos_cell(cfg, *plan_seed, &slow, None, None);
            leg.checks.expect(got.as_ref().ok() == Some(want), || {
                format!(
                    "re-check of chaos {} {} b{} (plan seed {plan_seed}) differs",
                    cfg.cluster.display_name(),
                    cfg.model.name,
                    cfg.per_gpu_batch
                )
            });
        }
    }

    fn trace_rounds(&self, seconds: f64) -> u64 {
        scaled(seconds, 0.2)
    }
}
