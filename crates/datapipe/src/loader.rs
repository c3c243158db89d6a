//! The per-node data-loading pipeline.
//!
//! A small pool of workers per GPU (PyTorch `DataLoader` convention; the
//! paper's "16 data loading workers running on the 16x machine" are the
//! per-GPU loader processes), each cycling through **fetch** (SSD or page
//! cache) → **prep** (vCPU decode/augment) → **H2D upload** (PCIe host
//! fabric) and filling a small prefetch queue per GPU. Multiple workers
//! pipeline the three phases so a GPU is fed at the aggregate-CPU rate
//! rather than one worker's serial cycle rate. The loader is a pure state
//! machine emitting [`LoaderAction`]s; the training engine owns the event
//! loop and flow network and feeds completions back in. This keeps the
//! pipeline unit-testable and the contention *emergent*: fetch flows share
//! the SSD link, H2D flows share the PCIe fabric with all-reduce traffic.

use serde::{Deserialize, Serialize};
use stash_dnn::dataset::DatasetSpec;
use stash_flowsim::link::LinkId;
use stash_hwtopo::constants::PREP_IMAGES_PER_VCPU_PER_SEC;
use stash_simkit::time::SimDuration;

use crate::cache::{CacheState, PageCache};

/// Default pipelined workers per GPU (PyTorch `DataLoader` convention:
/// enough to overlap fetch, prep and upload).
pub const DEFAULT_WORKERS_PER_GPU: usize = 3;

/// Static description of one node's pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoaderSpec {
    /// Number of GPUs.
    pub gpus: usize,
    /// Pipelined loader workers per GPU (PyTorch `num_workers`-style).
    pub workers_per_gpu: usize,
    /// vCPUs shared by the workers.
    pub vcpus: usize,
    /// Per-GPU mini-batch size.
    pub per_gpu_batch: u64,
    /// Batches each GPU consumes this epoch.
    pub batches_per_gpu: u64,
    /// Dataset shard streamed by this node.
    pub dataset: DatasetSpec,
    /// Bytes of one decoded sample (uploaded to the GPU).
    pub decoded_sample_bytes: f64,
    /// Cache temperature for the epoch.
    pub cache: CacheState,
    /// Node DRAM (bounds the page cache).
    pub main_memory_bytes: f64,
    /// Max batches buffered per GPU before the worker pauses.
    pub prefetch_depth: usize,
    /// Route for SSD reads.
    pub disk_route: Vec<LinkId>,
    /// Route for page-cache reads.
    pub dram_route: Vec<LinkId>,
    /// Per-GPU host-to-device routes.
    pub h2d_routes: Vec<Vec<LinkId>>,
    /// Per-sample random-read latency of the volume.
    pub per_sample_disk_latency: SimDuration,
}

/// Why a [`LoaderAction::StartTransfer`] moves bytes — lets the engine
/// attribute the flow (and any trace span covering it) to the right
/// pipeline stage without re-deriving it from the route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransferPurpose {
    /// Batch read served from the page cache (DRAM route).
    FetchHit,
    /// Batch read served from the volume (disk route, seek latency).
    FetchMiss,
    /// Decoded batch upload to the GPU (H2D route).
    Upload,
}

/// What the engine must do on the loader's behalf.
#[derive(Debug, Clone, PartialEq)]
pub enum LoaderAction {
    /// Start a flow; report completion via [`NodeLoader::transfer_done`].
    StartTransfer {
        /// Worker owning the transfer.
        worker: usize,
        /// Links to traverse.
        route: Vec<LinkId>,
        /// Payload bytes.
        bytes: f64,
        /// Fixed latency (seek overheads etc.).
        extra_latency: SimDuration,
        /// Which pipeline stage the transfer serves.
        purpose: TransferPurpose,
    },
    /// Occupy the worker's CPU share for `duration`; report via
    /// [`NodeLoader::prep_done`].
    StartPrep {
        /// Worker doing the preprocessing.
        worker: usize,
        /// CPU time to charge.
        duration: SimDuration,
    },
    /// A batch landed in `gpu`'s prefetch queue.
    Deliver {
        /// GPU whose queue grew.
        gpu: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerPhase {
    Idle,
    Fetching,
    Prepping,
    Uploading,
    Finished,
}

#[derive(Debug, Clone)]
struct Worker {
    phase: WorkerPhase,
    /// The in-flight fetch's transfer parameters, kept so a brownout can
    /// re-issue it; cleared when the fetch completes for good.
    fetch: Option<FetchSpec>,
    /// Whether the in-flight fetch has already been retried (brownouts
    /// cost exactly one deterministic retry, never a loop).
    retried: bool,
}

/// Parameters of one fetch transfer, remembered for brownout retries.
#[derive(Debug, Clone)]
struct FetchSpec {
    route: Vec<LinkId>,
    bytes: f64,
    extra_latency: SimDuration,
    purpose: TransferPurpose,
}

/// Event-driven data loader for one node.
#[derive(Debug, Clone)]
pub struct NodeLoader {
    spec: LoaderSpec,
    workers: Vec<Worker>,
    /// Batches started per GPU (bounds the quota before delivery).
    started: Vec<u64>,
    queue: Vec<usize>,
    cache: PageCache,
    /// Whether the node's volume is currently browned out (fault
    /// injection): disk fetches completing during the window are
    /// re-issued once.
    brownout: bool,
}

impl NodeLoader {
    /// Creates the loader.
    ///
    /// # Panics
    ///
    /// Panics if the spec is inconsistent (no GPUs, missing H2D routes).
    #[must_use]
    pub fn new(spec: LoaderSpec) -> NodeLoader {
        assert!(spec.gpus > 0, "loader needs at least one GPU");
        assert!(spec.workers_per_gpu > 0, "need at least one worker per GPU");
        assert_eq!(spec.h2d_routes.len(), spec.gpus, "one H2D route per GPU");
        assert!(spec.prefetch_depth > 0, "prefetch depth must be positive");
        let cache = PageCache::new(spec.cache, spec.main_memory_bytes, spec.dataset.total_bytes);
        NodeLoader {
            workers: vec![
                Worker {
                    phase: WorkerPhase::Idle,
                    fetch: None,
                    retried: false,
                };
                spec.gpus * spec.workers_per_gpu
            ],
            started: vec![0; spec.gpus],
            queue: vec![0; spec.gpus],
            cache,
            spec,
            brownout: false,
        }
    }

    /// Opens or closes a disk-brownout window. While open, a disk fetch
    /// that completes is assumed torn and re-issued exactly once; cache
    /// hits and uploads are unaffected. A no-op toggle is harmless.
    pub fn set_brownout(&mut self, on: bool) {
        self.brownout = on;
    }

    /// The GPU a worker feeds.
    fn gpu_of(&self, worker: usize) -> usize {
        worker / self.spec.workers_per_gpu
    }

    /// Kicks every idle worker of `gpu`.
    fn kick_gpu(&mut self, gpu: usize, actions: &mut Vec<LoaderAction>) {
        let lo = gpu * self.spec.workers_per_gpu;
        for w in lo..lo + self.spec.workers_per_gpu {
            self.maybe_begin_batch(w, actions);
        }
    }

    /// Kicks all workers at epoch start.
    #[must_use]
    pub fn start(&mut self) -> Vec<LoaderAction> {
        let mut actions = Vec::new();
        for g in 0..self.spec.gpus {
            self.kick_gpu(g, &mut actions);
        }
        actions
    }

    /// Number of batches currently buffered for `gpu`.
    #[must_use]
    pub fn ready(&self, gpu: usize) -> usize {
        self.queue[gpu]
    }

    /// Consumes one buffered batch for `gpu`; returns `false` (and consumes
    /// nothing) if the queue is empty — the GPU must wait for a
    /// [`LoaderAction::Deliver`]. A successful take may also restart the
    /// paused worker, hence the action list.
    pub fn try_take(&mut self, gpu: usize) -> (bool, Vec<LoaderAction>) {
        if self.queue[gpu] == 0 {
            return (false, Vec::new());
        }
        self.queue[gpu] -= 1;
        let mut actions = Vec::new();
        self.kick_gpu(gpu, &mut actions);
        (true, actions)
    }

    /// A transfer started by this loader finished.
    pub fn transfer_done(&mut self, worker: usize) -> Vec<LoaderAction> {
        let mut actions = Vec::new();
        match self.workers[worker].phase {
            WorkerPhase::Fetching => {
                // A disk read landing inside a brownout window is torn:
                // re-issue it once (deterministically), then let the
                // retry complete even if the window is still open.
                let retry = match &self.workers[worker].fetch {
                    Some(f) if self.brownout && !self.workers[worker].retried => {
                        (f.purpose == TransferPurpose::FetchMiss).then(|| f.clone())
                    }
                    _ => None,
                };
                if let Some(f) = retry {
                    let w = &mut self.workers[worker];
                    w.retried = true;
                    actions.push(LoaderAction::StartTransfer {
                        worker,
                        route: f.route,
                        bytes: f.bytes,
                        extra_latency: f.extra_latency,
                        purpose: f.purpose,
                    });
                    return actions;
                }
                let w = &mut self.workers[worker];
                w.fetch = None;
                w.retried = false;
                w.phase = WorkerPhase::Prepping;
                let duration = self.prep_duration();
                stash_telemetry::metrics::DATA_PREP_SERVICE_NS.record(duration.as_nanos());
                actions.push(LoaderAction::StartPrep { worker, duration });
            }
            WorkerPhase::Uploading => {
                let gpu = self.gpu_of(worker);
                self.queue[gpu] += 1;
                actions.push(LoaderAction::Deliver { gpu });
                self.workers[worker].phase = WorkerPhase::Idle;
                self.kick_gpu(gpu, &mut actions);
            }
            other => panic!("unexpected transfer completion in phase {other:?}"),
        }
        actions
    }

    /// A preprocessing interval finished.
    pub fn prep_done(&mut self, worker: usize) -> Vec<LoaderAction> {
        assert_eq!(
            self.workers[worker].phase,
            WorkerPhase::Prepping,
            "not prepping"
        );
        self.workers[worker].phase = WorkerPhase::Uploading;
        vec![LoaderAction::StartTransfer {
            worker,
            route: self.spec.h2d_routes[self.gpu_of(worker)].clone(),
            bytes: self.spec.decoded_sample_bytes * self.spec.per_gpu_batch as f64,
            extra_latency: SimDuration::ZERO,
            purpose: TransferPurpose::Upload,
        }]
    }

    /// Batches each GPU consumes this epoch: its quota.
    #[must_use]
    pub fn batches_per_gpu(&self) -> u64 {
        self.spec.batches_per_gpu
    }

    /// Most batches started for any one GPU.
    #[must_use]
    pub fn max_started(&self) -> u64 {
        self.started.iter().copied().max().unwrap_or(0)
    }

    /// Appends the loader's complete mutable state to `key`, each GPU's
    /// started-batch count relative to `base` (wrapping): per worker its
    /// phase, retry flag and in-flight fetch purpose (which fixes the
    /// fetch's route, bytes and latency); per GPU its queue depth and
    /// started count; the brownout flag and the page-cache accumulator's
    /// bits. Two loaders with equal keys act identically for as long as
    /// no GPU's started count reaches its quota.
    pub fn key_into(&self, base: u64, key: &mut Vec<u64>) {
        for w in &self.workers {
            let fetch = w.fetch.as_ref().map_or(0, |f| match f.purpose {
                TransferPurpose::FetchHit => 1,
                TransferPurpose::FetchMiss => 2,
                TransferPurpose::Upload => 3,
            });
            key.extend([w.phase as u64, u64::from(w.retried), fetch]);
        }
        for (queued, started) in self.queue.iter().zip(&self.started) {
            key.extend([*queued as u64, started.wrapping_sub(base)]);
        }
        key.extend([u64::from(self.brownout), self.cache.acc_bits()]);
    }

    /// Advances every GPU's started-batch count by `batches`, as after
    /// that many more batches per GPU had passed through a pipeline in
    /// the same state.
    pub fn shift(&mut self, batches: u64) {
        for s in &mut self.started {
            *s += batches;
        }
    }

    /// `true` when every GPU's quota has been started and all workers are
    /// parked.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.started.iter().all(|&s| s >= self.spec.batches_per_gpu)
            && self
                .workers
                .iter()
                .all(|w| matches!(w.phase, WorkerPhase::Idle | WorkerPhase::Finished))
    }

    fn maybe_begin_batch(&mut self, worker: usize, actions: &mut Vec<LoaderAction>) {
        let gpu = self.gpu_of(worker);
        if self.workers[worker].phase != WorkerPhase::Idle {
            return;
        }
        if self.started[gpu] >= self.spec.batches_per_gpu {
            self.workers[worker].phase = WorkerPhase::Finished;
            return;
        }
        // Count in-flight batches of this GPU's other workers against the
        // prefetch budget so the pool does not run arbitrarily far ahead.
        let lo = gpu * self.spec.workers_per_gpu;
        let in_flight = (lo..lo + self.spec.workers_per_gpu)
            .filter(|w| {
                !matches!(
                    self.workers[*w].phase,
                    WorkerPhase::Idle | WorkerPhase::Finished
                )
            })
            .count();
        if self.queue[gpu] + in_flight >= self.spec.prefetch_depth + self.spec.workers_per_gpu - 1 {
            return; // stay idle until the GPU drains the queue
        }
        self.started[gpu] += 1;
        let batch = self.spec.per_gpu_batch;
        let bytes = self.spec.dataset.avg_sample_bytes() * batch as f64;
        let hit = self.cache.next_is_hit();
        let (route, extra) = if hit {
            (self.spec.dram_route.clone(), SimDuration::ZERO)
        } else {
            (
                self.spec.disk_route.clone(),
                self.spec.per_sample_disk_latency * batch,
            )
        };
        let purpose = if hit {
            TransferPurpose::FetchHit
        } else {
            TransferPurpose::FetchMiss
        };
        let w = &mut self.workers[worker];
        w.phase = WorkerPhase::Fetching;
        w.retried = false;
        w.fetch = Some(FetchSpec {
            route: route.clone(),
            bytes,
            extra_latency: extra,
            purpose,
        });
        actions.push(LoaderAction::StartTransfer {
            worker,
            route,
            bytes,
            extra_latency: extra,
            purpose,
        });
    }

    /// Time to preprocess one batch on this worker's static vCPU share.
    #[must_use]
    pub fn prep_duration(&self) -> SimDuration {
        let workers = (self.spec.gpus * self.spec.workers_per_gpu) as f64;
        let cores_per_worker = (self.spec.vcpus as f64 / workers).max(0.25);
        let per_sample =
            self.spec.dataset.prep_cost_factor / (PREP_IMAGES_PER_VCPU_PER_SEC * cores_per_worker);
        SimDuration::from_secs_f64(per_sample * self.spec.per_gpu_batch as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(gpus: usize, batches: u64, cache: CacheState) -> LoaderSpec {
        LoaderSpec {
            gpus,
            workers_per_gpu: 1,
            vcpus: gpus * 8,
            per_gpu_batch: 32,
            batches_per_gpu: batches,
            dataset: DatasetSpec::imagenet1k(),
            decoded_sample_bytes: 602_112.0,
            cache,
            main_memory_bytes: 488e9,
            prefetch_depth: 2,
            disk_route: vec![],
            dram_route: vec![],
            h2d_routes: vec![vec![]; gpus],
            per_sample_disk_latency: SimDuration::from_micros(20),
        }
    }

    /// Drives a loader to completion assuming instantaneous transfers and
    /// preps; returns delivered batch counts per GPU.
    fn drive(loader: &mut NodeLoader) -> Vec<u64> {
        let mut delivered = vec![0_u64; loader.spec.gpus];
        let mut pending: Vec<LoaderAction> = loader.start();
        let mut guard = 0;
        while let Some(a) = pending.pop() {
            guard += 1;
            assert!(guard < 100_000, "loader did not converge");
            match a {
                LoaderAction::StartTransfer { worker, .. } => {
                    pending.extend(loader.transfer_done(worker));
                }
                LoaderAction::StartPrep { worker, .. } => {
                    pending.extend(loader.prep_done(worker));
                }
                LoaderAction::Deliver { gpu } => {
                    delivered[gpu] += 1;
                    // Consume immediately so prefetch never blocks.
                    let (ok, more) = loader.try_take(gpu);
                    assert!(ok);
                    pending.extend(more);
                }
            }
        }
        delivered
    }

    #[test]
    fn delivers_exact_quota_per_gpu() {
        let mut loader = NodeLoader::new(spec(4, 10, CacheState::Cold));
        let delivered = drive(&mut loader);
        assert_eq!(delivered, vec![10, 10, 10, 10]);
        assert!(loader.finished());
    }

    #[test]
    fn cold_fetches_use_disk_route_with_seek_latency() {
        let mut loader = NodeLoader::new(spec(1, 1, CacheState::Cold));
        let actions = loader.start();
        match &actions[0] {
            LoaderAction::StartTransfer { extra_latency, .. } => {
                assert_eq!(*extra_latency, SimDuration::from_micros(20) * 32);
            }
            other => panic!("expected fetch, got {other:?}"),
        }
    }

    #[test]
    fn warm_fetches_have_no_seek_latency() {
        let mut loader = NodeLoader::new(spec(1, 1, CacheState::Warm));
        let actions = loader.start();
        match &actions[0] {
            LoaderAction::StartTransfer { extra_latency, .. } => {
                assert_eq!(*extra_latency, SimDuration::ZERO);
            }
            other => panic!("expected fetch, got {other:?}"),
        }
    }

    #[test]
    fn prefetch_depth_pauses_workers() {
        let mut loader = NodeLoader::new(spec(1, 100, CacheState::Warm));
        // Fill the queue without consuming.
        let mut pending = loader.start();
        let mut delivers = 0;
        let mut guard = 0;
        while let Some(a) = pending.pop() {
            guard += 1;
            assert!(guard < 1000);
            match a {
                LoaderAction::StartTransfer { worker, .. } => {
                    pending.extend(loader.transfer_done(worker))
                }
                LoaderAction::StartPrep { worker, .. } => pending.extend(loader.prep_done(worker)),
                LoaderAction::Deliver { .. } => delivers += 1,
            }
        }
        assert_eq!(delivers, 2, "stops at prefetch depth");
        assert_eq!(loader.ready(0), 2);
        // Draining one batch restarts the worker.
        let (ok, actions) = loader.try_take(0);
        assert!(ok);
        assert!(matches!(actions[0], LoaderAction::StartTransfer { .. }));
    }

    #[test]
    fn try_take_on_empty_queue_blocks() {
        let mut loader = NodeLoader::new(spec(2, 5, CacheState::Cold));
        let (ok, actions) = loader.try_take(1);
        assert!(!ok);
        assert!(actions.is_empty());
    }

    #[test]
    fn prep_time_scales_with_batch_and_cores() {
        let few_cores = NodeLoader::new(LoaderSpec {
            vcpus: 4,
            ..spec(1, 1, CacheState::Warm)
        });
        let many_cores = NodeLoader::new(LoaderSpec {
            vcpus: 32,
            ..spec(1, 1, CacheState::Warm)
        });
        assert!(few_cores.prep_duration() > many_cores.prep_duration());
    }

    #[test]
    fn squad_prep_is_far_cheaper_than_imagenet() {
        let imagenet = NodeLoader::new(spec(1, 1, CacheState::Warm));
        let squad = NodeLoader::new(LoaderSpec {
            dataset: DatasetSpec::squad2(),
            ..spec(1, 1, CacheState::Warm)
        });
        assert!(squad.prep_duration().as_secs_f64() < imagenet.prep_duration().as_secs_f64() / 5.0);
    }

    #[test]
    fn multi_worker_pool_delivers_exact_quota() {
        let mut loader = NodeLoader::new(LoaderSpec {
            workers_per_gpu: 3,
            ..spec(2, 9, CacheState::Warm)
        });
        let delivered = drive(&mut loader);
        assert_eq!(delivered, vec![9, 9]);
        assert!(loader.finished());
    }

    #[test]
    fn multi_worker_pool_pipelines_ahead() {
        // With 3 workers and depth 2, up to queue(2) + in-flight(2 extra)
        // batches may be outstanding before the GPU consumes anything.
        let mut loader = NodeLoader::new(LoaderSpec {
            workers_per_gpu: 3,
            ..spec(1, 100, CacheState::Warm)
        });
        let starts = loader
            .start()
            .iter()
            .filter(|a| matches!(a, LoaderAction::StartTransfer { .. }))
            .count();
        assert_eq!(starts, 3, "all three workers begin fetching immediately");
    }

    #[test]
    fn multi_worker_prep_shares_the_cores() {
        // Same vCPUs split across more workers → each prep takes longer,
        // but aggregate throughput is preserved by parallelism.
        let one = NodeLoader::new(spec(1, 1, CacheState::Warm));
        let three = NodeLoader::new(LoaderSpec {
            workers_per_gpu: 3,
            ..spec(1, 1, CacheState::Warm)
        });
        let ratio = three.prep_duration().as_secs_f64() / one.prep_duration().as_secs_f64();
        assert!((2.9..3.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn workers_map_to_their_gpus() {
        let mut loader = NodeLoader::new(LoaderSpec {
            workers_per_gpu: 2,
            ..spec(2, 4, CacheState::Warm)
        });
        // Drive worker 3 (gpu 1) through a full batch; the delivery must
        // land in gpu 1's queue.
        let _ = loader.start();
        let actions = loader.transfer_done(3); // fetch -> prep
        assert!(matches!(
            actions[0],
            LoaderAction::StartPrep { worker: 3, .. }
        ));
        let actions = loader.prep_done(3); // prep -> upload
        assert!(matches!(
            actions[0],
            LoaderAction::StartTransfer { worker: 3, .. }
        ));
        let actions = loader.transfer_done(3); // upload -> deliver
        assert!(actions
            .iter()
            .any(|a| matches!(a, LoaderAction::Deliver { gpu: 1 })));
        assert_eq!(loader.ready(1), 1);
        assert_eq!(loader.ready(0), 0);
    }

    #[test]
    fn transfer_purposes_label_the_pipeline_stages() {
        let mut warm = NodeLoader::new(spec(1, 1, CacheState::Warm));
        let first = warm.start();
        assert!(matches!(
            first[0],
            LoaderAction::StartTransfer {
                purpose: TransferPurpose::FetchHit,
                ..
            }
        ));
        let _ = warm.transfer_done(0);
        let upload = warm.prep_done(0);
        assert!(matches!(
            upload[0],
            LoaderAction::StartTransfer {
                purpose: TransferPurpose::Upload,
                ..
            }
        ));
        let mut cold = NodeLoader::new(spec(1, 1, CacheState::Cold));
        let first = cold.start();
        assert!(matches!(
            first[0],
            LoaderAction::StartTransfer {
                purpose: TransferPurpose::FetchMiss,
                ..
            }
        ));
    }

    #[test]
    fn brownout_retries_disk_fetches_exactly_once() {
        let mut loader = NodeLoader::new(spec(1, 1, CacheState::Cold));
        let first = loader.start();
        assert!(matches!(
            first[0],
            LoaderAction::StartTransfer {
                purpose: TransferPurpose::FetchMiss,
                ..
            }
        ));
        loader.set_brownout(true);
        // The in-window completion is torn: same fetch re-issued once.
        let retry = loader.transfer_done(0);
        assert_eq!(first, retry, "retry must re-issue the identical fetch");
        // The retry's completion proceeds to prep even while the window
        // is still open (exactly one retry, never a loop).
        let next = loader.transfer_done(0);
        assert!(matches!(next[0], LoaderAction::StartPrep { .. }));
        loader.set_brownout(false);
    }

    #[test]
    fn brownout_leaves_cache_hits_alone() {
        let mut loader = NodeLoader::new(spec(1, 1, CacheState::Warm));
        let _ = loader.start();
        loader.set_brownout(true);
        // Page-cache reads don't touch the volume: no retry.
        let next = loader.transfer_done(0);
        assert!(matches!(next[0], LoaderAction::StartPrep { .. }));
    }

    #[test]
    #[should_panic(expected = "one H2D route per GPU")]
    fn mismatched_routes_rejected() {
        let mut s = spec(2, 1, CacheState::Cold);
        s.h2d_routes.pop();
        let _ = NodeLoader::new(s);
    }
}
