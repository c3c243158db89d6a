//! The Stash profiler (paper §IV-B).
//!
//! [`Stash`] orchestrates the five measurement steps against the training
//! engine:
//!
//! 1. synthetic data on **one** GPU of the reference instance (`n/k`
//!    samples) → `T1`;
//! 2. synthetic data on **all** `k` GPUs of the reference instance → `T2`;
//! 3. real data with caches cleared → `T3`;
//! 4. real data fully cached → `T4`;
//! 5. synthetic data across the multi-instance cluster (same `k` total
//!    GPUs) → `T5`.
//!
//! Steps 2-4 are the prior-work DS-Analyzer subset ([`DsAnalyzer`]); steps
//! 1 and 5 are Stash's contribution — the communication stalls.

use serde::Serialize;
use stash_collectives::bucket::Bucketing;
use stash_collectives::schedule::Algorithm;
use stash_datapipe::cache::CacheState;
use stash_ddl::config::{ActiveGpus, DataMode, EpochMode, TrainConfig};
use stash_ddl::engine::{EngineArena, Run};
use stash_dnn::dataset::DatasetSpec;
use stash_dnn::model::Model;
use stash_gpucompute::precision::Precision;
use stash_hwtopo::cluster::ClusterSpec;
use stash_hwtopo::instance::{catalog, InstanceType};
use stash_simkit::time::SimDuration;

use crate::cache::MeasurementCache;
use crate::error::ProfileError;
use crate::report::{StallReport, StepTimes};

/// Default number of iterations simulated per step (the paper exploits
/// DL's repetitiveness the same way: one epoch characterizes training).
pub const DEFAULT_SAMPLED_ITERATIONS: u64 = 25;

/// Number of worker threads sweep fan-out uses: the `STASH_BENCH_THREADS`
/// environment variable when set (minimum 1), otherwise the machine's
/// available parallelism.
#[must_use]
pub fn profile_threads() -> usize {
    match std::env::var("STASH_BENCH_THREADS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// The Stash profiler: configured once per (model, dataset, batch), then
/// pointed at cluster configurations.
///
/// # Examples
///
/// ```
/// use stash_core::profiler::Stash;
/// use stash_dnn::zoo;
/// use stash_hwtopo::prelude::*;
///
/// let stash = Stash::new(zoo::resnet18()).with_batch(32);
/// let report = stash.profile(&ClusterSpec::single(p3_16xlarge()))?;
/// assert!(report.interconnect_stall_pct().is_some());
/// # Ok::<(), stash_core::error::ProfileError>(())
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Stash {
    model: Model,
    dataset: DatasetSpec,
    per_gpu_batch: u64,
    epoch_samples: Option<u64>,
    sampled_iterations: u64,
    bucketing: Bucketing,
    algorithm: Algorithm,
    precision: Precision,
}

impl Stash {
    /// Creates a profiler for `model` with paper defaults: ImageNet-1k,
    /// batch 32, ring all-reduce, per-layer buckets.
    #[must_use]
    pub fn new(model: Model) -> Stash {
        Stash {
            model,
            dataset: DatasetSpec::imagenet1k(),
            per_gpu_batch: 32,
            epoch_samples: None,
            sampled_iterations: DEFAULT_SAMPLED_ITERATIONS,
            bucketing: Bucketing::PerLayer,
            algorithm: Algorithm::Ring,
            precision: Precision::Fp32,
        }
    }

    /// Sets the per-GPU batch size.
    #[must_use]
    pub fn with_batch(mut self, per_gpu_batch: u64) -> Stash {
        self.per_gpu_batch = per_gpu_batch;
        self
    }

    /// Sets the dataset streamed in steps 3/4.
    #[must_use]
    pub fn with_dataset(mut self, dataset: DatasetSpec) -> Stash {
        self.dataset = dataset;
        self
    }

    /// Overrides the number of samples in the profiled epoch (defaults to
    /// the dataset size).
    #[must_use]
    pub fn with_epoch_samples(mut self, samples: u64) -> Stash {
        self.epoch_samples = Some(samples);
        self
    }

    /// Overrides how many iterations each step simulates before
    /// extrapolating.
    #[must_use]
    pub fn with_sampled_iterations(mut self, iterations: u64) -> Stash {
        self.sampled_iterations = iterations.max(1);
        self
    }

    /// Sets the gradient bucketing policy.
    #[must_use]
    pub fn with_bucketing(mut self, bucketing: Bucketing) -> Stash {
        self.bucketing = bucketing;
        self
    }

    /// Sets the collective algorithm.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Stash {
        self.algorithm = algorithm;
        self
    }

    /// Sets the numeric precision (fp32 default; AMP halves gradient
    /// traffic and engages tensor cores).
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Stash {
        self.precision = precision;
        self
    }

    /// The model being profiled.
    #[must_use]
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The configured per-GPU batch size.
    #[must_use]
    pub fn per_gpu_batch(&self) -> u64 {
        self.per_gpu_batch
    }

    /// The dataset streamed in steps 3/4.
    #[must_use]
    pub fn dataset(&self) -> &DatasetSpec {
        &self.dataset
    }

    /// Iterations simulated per step before extrapolating.
    #[must_use]
    pub fn sampled_iterations(&self) -> u64 {
        self.sampled_iterations
    }

    /// The configured epoch-size override, if any.
    #[must_use]
    pub fn epoch_samples_override(&self) -> Option<u64> {
        self.epoch_samples
    }

    fn epoch_samples(&self) -> u64 {
        self.epoch_samples.unwrap_or(self.dataset.num_samples)
    }

    fn base_config(&self, cluster: ClusterSpec, samples_per_gpu: u64) -> TrainConfig {
        TrainConfig {
            cluster,
            model: self.model.clone(),
            per_gpu_batch: self.per_gpu_batch,
            data: DataMode::Synthetic,
            bucketing: self.bucketing,
            algorithm: self.algorithm,
            overlap: true,
            active: ActiveGpus::All,
            samples_per_gpu,
            epoch_mode: EpochMode::Sampled {
                iterations: self.sampled_iterations,
            },
            record_trace: false,
            precision: self.precision,
            grad_accumulation: 1,
            straggler: None,
        }
    }

    /// Finds the single-instance baseline for a multi-node cluster: the
    /// same-family catalog instance whose GPU count equals the cluster's
    /// total.
    ///
    /// # Errors
    ///
    /// [`ProfileError::NoReference`] when no such instance exists.
    pub fn reference_for(cluster: &ClusterSpec) -> Result<InstanceType, ProfileError> {
        if cluster.node_count() == 1 {
            return Ok(cluster.instances[0].clone());
        }
        let world = cluster.world_size();
        let family = cluster.instances[0].family;
        catalog()
            .into_iter()
            .find(|i| i.family == family && i.gpu_count == world)
            .ok_or(ProfileError::NoReference {
                world,
                family: family.to_string(),
            })
    }

    /// Builds the configs for measurement steps 1-4 (and 5 for multi-node
    /// clusters), in step order.
    fn step_configs(&self, cluster: &ClusterSpec, reference: &InstanceType) -> Vec<TrainConfig> {
        let world = cluster.world_size();
        let samples_per_gpu = (self.epoch_samples() / world as u64).max(self.per_gpu_batch);
        let ref_cluster = ClusterSpec::single(reference.clone());

        // Step 1: one GPU, synthetic, n/k samples.
        let mut step1 = self.base_config(ref_cluster.clone(), samples_per_gpu);
        step1.active = ActiveGpus::Single;

        // Step 2: all k GPUs of the reference instance, synthetic.
        let step2 = self.base_config(ref_cluster, samples_per_gpu);

        // Step 3: real data, cold caches, on the cluster under test.
        let mut step3 = self.base_config(cluster.clone(), samples_per_gpu);
        step3.data = DataMode::Real {
            dataset: self.dataset.clone(),
            cache: CacheState::Cold,
        };

        // Step 4: real data, warm caches.
        let mut step4 = self.base_config(cluster.clone(), samples_per_gpu);
        step4.data = DataMode::Real {
            dataset: self.dataset.clone(),
            cache: CacheState::Warm,
        };

        let mut configs = vec![step1, step2, step3, step4];
        // Step 5: synthetic across the network (multi-node only).
        if cluster.node_count() > 1 {
            configs.push(self.base_config(cluster.clone(), samples_per_gpu));
        }
        configs
    }

    /// Runs the full Stash methodology against `cluster`, with the five
    /// steps executed concurrently (they are independent simulations).
    ///
    /// Single-instance clusters get steps 1-4 (`t5 = None`); multi-node
    /// clusters additionally get step 5, with steps 1/2 measured on the
    /// same-family reference instance.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (e.g. out-of-memory) and
    /// [`ProfileError::NoReference`] for unreferenced multi-node shapes.
    pub fn profile(&self, cluster: &ClusterSpec) -> Result<StallReport, ProfileError> {
        self.profile_threaded(cluster, None)
    }

    /// [`Stash::profile`] on the calling thread only — the original
    /// one-step-after-another execution, kept as the determinism baseline.
    ///
    /// # Errors
    ///
    /// As for [`Stash::profile`].
    pub fn profile_serial(&self, cluster: &ClusterSpec) -> Result<StallReport, ProfileError> {
        self.profile_serial_in(cluster, None, &mut EngineArena::new())
    }

    /// [`Stash::profile`] backed by a measurement cache: steps whose
    /// config was measured before (by any profile sharing `cache`) are
    /// answered without re-simulating.
    ///
    /// # Errors
    ///
    /// As for [`Stash::profile`].
    pub fn profile_cached(
        &self,
        cluster: &ClusterSpec,
        cache: &MeasurementCache,
    ) -> Result<StallReport, ProfileError> {
        self.profile_threaded(cluster, Some(cache))
    }

    /// The steps on scoped threads, one per step, each in an arena of its
    /// own (the engine's state is deliberately !Send).
    ///
    /// Bit-identical to [`Stash::profile_serial_in`]: the engine is
    /// deterministic, steps are independent, results are assembled in step
    /// order, and on error the lowest-numbered failing step wins (exactly
    /// the error serial execution would have surfaced first).
    fn profile_threaded(
        &self,
        cluster: &ClusterSpec,
        cache: Option<&MeasurementCache>,
    ) -> Result<StallReport, ProfileError> {
        let reference = Self::reference_for(cluster)?;
        let configs = self.step_configs(cluster, &reference);
        let results: Vec<Result<SimDuration, ProfileError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = configs
                .iter()
                .map(|cfg| scope.spawn(move || measure_in(cache, cfg, &mut EngineArena::new())))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(_) => panic!("measurement step panicked"),
                })
                .collect()
        });
        let mut times: Vec<SimDuration> = Vec::with_capacity(configs.len());
        for r in results {
            times.push(r?);
        }
        Ok(self.assemble_report(cluster, reference, &times))
    }

    /// The steps one after another inside a caller-owned [`EngineArena`]:
    /// the five-step measurement ladder reuses one flow network and event
    /// queue, and a sweep worker passes the same arena to every profile it
    /// runs.
    fn profile_serial_in(
        &self,
        cluster: &ClusterSpec,
        cache: Option<&MeasurementCache>,
        arena: &mut EngineArena,
    ) -> Result<StallReport, ProfileError> {
        let reference = Self::reference_for(cluster)?;
        let configs = self.step_configs(cluster, &reference);
        let mut times: Vec<SimDuration> = Vec::with_capacity(configs.len());
        for cfg in &configs {
            times.push(measure_in(cache, cfg, arena)?);
        }
        Ok(self.assemble_report(cluster, reference, &times))
    }

    fn assemble_report(
        &self,
        cluster: &ClusterSpec,
        reference: InstanceType,
        times: &[SimDuration],
    ) -> StallReport {
        StallReport {
            cluster: cluster.display_name(),
            reference: reference.name,
            model: self.model.name.clone(),
            per_gpu_batch: self.per_gpu_batch,
            world: cluster.world_size(),
            times: StepTimes {
                t1: Some(times[0]),
                t2: Some(times[1]),
                t3: Some(times[2]),
                t4: Some(times[3]),
                t5: times.get(4).copied(),
            },
        }
    }
}

/// Measures one step config inside `arena`, answering from `cache` when
/// possible. Host wall-clock per measurement feeds the step-wall
/// histogram (cache hits included — the point is what a step *costs*).
fn measure_in(
    cache: Option<&MeasurementCache>,
    cfg: &TrainConfig,
    arena: &mut EngineArena,
) -> Result<SimDuration, ProfileError> {
    let t0 = stash_telemetry::enabled().then(std::time::Instant::now);
    let out = match cache {
        Some(c) => c.epoch_time(cfg, arena),
        None => Ok(Run {
            arena: Some(arena),
            ..Run::default()
        }
        .epoch(cfg)?
        .report
        .epoch_time),
    };
    if let Some(t0) = t0 {
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        stash_telemetry::metrics::PROFILE_STEP_WALL_NS.record(ns);
    }
    out
}

/// A (profiler, cluster) pair to run as one unit of sweep work.
#[derive(Debug, Clone)]
pub struct ProfileJob {
    /// The configured profiler.
    pub stash: Stash,
    /// The cluster to characterize.
    pub cluster: ClusterSpec,
}

/// The sweep worker pool: profiles `jobs` on `workers` threads and hands
/// each result to `sink` *on the calling thread*, in input order, as soon
/// as it and every earlier result are done.
///
/// Each worker claims whole jobs and runs their steps serially inside one
/// [`EngineArena`] of its own — the parallelism lives at
/// the job level, so a sweep of dozens of instance x batch x model points
/// saturates the machine without oversubscribing it with nested per-step
/// threads. Passing a `cache` additionally deduplicates measurements
/// shared between jobs (e.g. the reference-instance steps of multi-node
/// points).
///
/// Results are bit-identical to profiling the jobs one by one (jobs are
/// independent and the engine is deterministic), and because `sink` sees
/// them in input order on one thread, whatever it does with them — the
/// durable sweep's store writes and journal appends — happens in the same
/// order at any worker count. Results that finish early wait in a reorder
/// buffer until their turn.
pub(crate) fn profile_in_order(
    jobs: &[&ProfileJob],
    cache: Option<&MeasurementCache>,
    workers: usize,
    mut sink: impl FnMut(Result<StallReport, ProfileError>),
) {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    if jobs.is_empty() {
        return;
    }
    let workers = workers.clamp(1, jobs.len());
    let next = AtomicUsize::new(0);
    let (done_tx, done_rx) = mpsc::channel();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let done_tx = done_tx.clone();
            let next = &next;
            scope.spawn(move || {
                // Arenas are !Send, so each is built inside its worker.
                let mut arena = EngineArena::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let result = job.stash.profile_serial_in(&job.cluster, cache, &mut arena);
                    if done_tx.send((i, result)).is_err() {
                        break;
                    }
                }
            });
        }
        // The workers hold the only senders now: the receive loop ends
        // once every one of them has run out of jobs (or died).
        drop(done_tx);
        let mut early = BTreeMap::new();
        let mut due = 0;
        for (i, result) in done_rx {
            early.insert(i, result);
            while let Some(result) = early.remove(&due) {
                sink(result);
                due += 1;
            }
        }
    });
}

/// Profiles many (profiler, cluster) jobs across [`profile_threads`]
/// workers, returning one result per job in input order: the collect
/// over the sweep worker pool that `core::sweep::run_sweep` streams
/// from. Passing a `cache` deduplicates measurements shared between jobs.
pub fn par_profile_many(
    jobs: &[ProfileJob],
    cache: Option<&MeasurementCache>,
) -> Vec<Result<StallReport, ProfileError>> {
    let jobs: Vec<&ProfileJob> = jobs.iter().collect();
    let mut results = Vec::with_capacity(jobs.len());
    profile_in_order(&jobs, cache, profile_threads(), |result| {
        results.push(result)
    });
    results
}

/// The prior-work DS-Analyzer profiler: steps 2-4 only — it measures prep
/// (CPU) and fetch (disk) stalls but is blind to communication (the gap
/// Stash fills).
#[derive(Debug, Clone, Serialize)]
pub struct DsAnalyzer {
    inner: Stash,
}

impl DsAnalyzer {
    /// Creates the baseline profiler with the same defaults as [`Stash`].
    #[must_use]
    pub fn new(model: Model) -> DsAnalyzer {
        DsAnalyzer {
            inner: Stash::new(model),
        }
    }

    /// Sets the per-GPU batch size.
    #[must_use]
    pub fn with_batch(mut self, per_gpu_batch: u64) -> DsAnalyzer {
        self.inner = self.inner.with_batch(per_gpu_batch);
        self
    }

    /// Sets the dataset.
    #[must_use]
    pub fn with_dataset(mut self, dataset: DatasetSpec) -> DsAnalyzer {
        self.inner = self.inner.with_dataset(dataset);
        self
    }

    /// Overrides sampled iterations.
    #[must_use]
    pub fn with_sampled_iterations(mut self, iterations: u64) -> DsAnalyzer {
        self.inner = self.inner.with_sampled_iterations(iterations);
        self
    }

    /// Profiles `instance` with DS-Analyzer's steps 2-4 only: the report
    /// carries CPU and disk stalls; `t1`/`t5` stay `None`, so interconnect
    /// and network stalls are unavailable.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn profile(&self, instance: InstanceType) -> Result<StallReport, ProfileError> {
        let mut report = self.inner.profile(&ClusterSpec::single(instance))?;
        report.times.t1 = None;
        report.times.t5 = None;
        Ok(report)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use stash_dnn::zoo;
    use stash_hwtopo::instance::{p2_16xlarge, p3_16xlarge, p3_2xlarge, p3_8xlarge};

    fn quick(model: Model) -> Stash {
        Stash::new(model)
            .with_sampled_iterations(3)
            .with_epoch_samples(20_000)
    }

    #[test]
    fn single_instance_report_has_no_t5() {
        let r = quick(zoo::alexnet())
            .profile(&ClusterSpec::single(p3_16xlarge()))
            .unwrap();
        assert!(r.times.t5.is_none());
        assert!(r.interconnect_stall_pct().is_some());
        assert!(r.network_stall_pct().is_none());
        assert_eq!(r.world, 8);
        assert_eq!(r.reference, "p3.16xlarge");
    }

    #[test]
    fn multi_node_uses_family_reference() {
        let r = quick(zoo::alexnet())
            .profile(&ClusterSpec::homogeneous(p3_8xlarge(), 2))
            .unwrap();
        assert_eq!(r.reference, "p3.16xlarge");
        assert!(r.times.t5.is_some());
        let nw = r.network_stall_pct().unwrap();
        assert!(nw > 0.0, "network stall must be positive, got {nw}");
    }

    #[test]
    fn unreferenced_multi_node_shape_errors() {
        let cluster = ClusterSpec::homogeneous(p3_16xlarge(), 3); // 24 GPUs
        match quick(zoo::alexnet()).profile(&cluster) {
            Err(ProfileError::NoReference { world: 24, .. }) => {}
            other => panic!("expected NoReference, got {other:?}"),
        }
    }

    #[test]
    fn single_gpu_instance_has_zero_interconnect_stall() {
        let r = quick(zoo::alexnet())
            .profile(&ClusterSpec::single(p3_2xlarge()))
            .unwrap();
        assert!(r.interconnect_stall_pct().unwrap() < 1e-9);
    }

    #[test]
    fn p2_16x_interconnect_stall_is_severe() {
        let r = quick(zoo::resnet18())
            .profile(&ClusterSpec::single(p2_16xlarge()))
            .unwrap();
        let ic = r.interconnect_stall_pct().unwrap();
        assert!(ic > 25.0, "expected substantial PCIe stall, got {ic}%");
    }

    #[test]
    fn cpu_stall_is_negligible_on_aws() {
        // Headline finding: vCPUs keep up on AWS.
        let r = quick(zoo::resnet18())
            .profile(&ClusterSpec::single(p3_16xlarge()))
            .unwrap();
        let cpu = r.cpu_stall_pct().unwrap();
        assert!(cpu < 15.0, "CPU stall should be small, got {cpu}%");
    }

    #[test]
    fn serial_and_parallel_profiles_are_bit_identical() {
        let stash = quick(zoo::resnet18());
        let cluster = ClusterSpec::homogeneous(p3_8xlarge(), 2);
        let serial = stash.profile_serial(&cluster).unwrap();
        let parallel = stash.profile(&cluster).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn cached_profile_is_bit_identical_and_hits_on_rerun() {
        let cache = crate::cache::MeasurementCache::new();
        let stash = quick(zoo::resnet18());
        let cluster = ClusterSpec::single(p3_16xlarge());
        let uncached = stash.profile_serial(&cluster).unwrap();
        let cold = stash.profile_cached(&cluster, &cache).unwrap();
        let warm = stash.profile_cached(&cluster, &cache).unwrap();
        assert_eq!(uncached, cold);
        assert_eq!(cold, warm);
        let stats = cache.stats();
        assert_eq!(stats.misses, 4, "first run simulates all four steps");
        assert_eq!(stats.hits, 4, "second run is fully cached");
    }

    #[test]
    fn par_profile_many_matches_sequential_profiles() {
        let jobs: Vec<ProfileJob> = [p3_8xlarge(), p3_16xlarge(), p3_2xlarge()]
            .into_iter()
            .map(|inst| ProfileJob {
                stash: quick(zoo::alexnet()),
                cluster: ClusterSpec::single(inst),
            })
            .collect();
        let fanned = par_profile_many(&jobs, None);
        assert_eq!(fanned.len(), jobs.len());
        for (job, got) in jobs.iter().zip(&fanned) {
            let want = job.stash.profile_serial(&job.cluster).unwrap();
            assert_eq!(got.as_ref().unwrap(), &want);
        }
    }

    #[test]
    fn par_profile_many_shares_reference_steps_through_cache() {
        // p3.8xlarge x2 resolves its steps 1/2 on the p3.16xlarge
        // reference, which the single p3.16xlarge job also measures.
        let cache = crate::cache::MeasurementCache::new();
        let jobs = vec![
            ProfileJob {
                stash: quick(zoo::alexnet()),
                cluster: ClusterSpec::single(p3_16xlarge()),
            },
            ProfileJob {
                stash: quick(zoo::alexnet()),
                cluster: ClusterSpec::homogeneous(p3_8xlarge(), 2),
            },
        ];
        let results = par_profile_many(&jobs, Some(&cache));
        assert!(results.iter().all(Result::is_ok));
        assert!(
            cache.stats().hits >= 2,
            "reference steps must be shared, stats: {:?}",
            cache.stats()
        );
    }

    #[test]
    fn profile_threads_honors_env_override() {
        // Temp-env style: the test process may run others concurrently, so
        // restore whatever was set.
        let prior = std::env::var("STASH_BENCH_THREADS").ok();
        std::env::set_var("STASH_BENCH_THREADS", "3");
        assert_eq!(profile_threads(), 3);
        std::env::set_var("STASH_BENCH_THREADS", "0");
        assert_eq!(profile_threads(), 1);
        match prior {
            Some(v) => std::env::set_var("STASH_BENCH_THREADS", v),
            None => std::env::remove_var("STASH_BENCH_THREADS"),
        }
    }

    #[test]
    fn ds_analyzer_misses_communication() {
        let r = DsAnalyzer::new(zoo::resnet18())
            .with_sampled_iterations(3)
            .profile(p2_16xlarge())
            .unwrap();
        assert!(r.interconnect_stall_pct().is_none());
        assert!(r.cpu_stall_pct().is_some());
        assert!(r.disk_stall_pct().is_some());
    }
}
