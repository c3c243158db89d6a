//! The per-node data-loading pipeline.
//!
//! A small pool of workers per GPU (PyTorch `DataLoader` convention; the
//! paper's "16 data loading workers running on the 16x machine" are the
//! per-GPU loader processes), each cycling through **fetch** (SSD or page
//! cache) → **prep** (vCPU decode/augment) → **H2D upload** (PCIe host
//! fabric) and filling a small prefetch queue per GPU. Multiple workers
//! pipeline the three phases so a GPU is fed at the aggregate-CPU rate
//! rather than one worker's serial cycle rate. The loader is a pure state
//! machine appending [`LoaderAction`]s to its caller's work list; the
//! training engine owns the event loop and flow network and feeds
//! completions back in. An action names a transfer only by worker and
//! [`TransferPurpose`]: [`NodeLoader::transfer`] gives its route, bytes
//! and latency. This keeps the pipeline unit-testable and the contention
//! *emergent*: fetch flows share the SSD link, H2D flows share the PCIe
//! fabric with all-reduce traffic.

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoaderAction {
    /// Start the flow [`NodeLoader::transfer`] describes for `worker` and
    /// `purpose`; report completion via [`NodeLoader::transfer_done`].
    StartTransfer {
        /// Worker owning the transfer.
        worker: usize,
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
    /// The in-flight fetch's purpose, kept so a brownout can re-issue it;
    /// cleared when the fetch completes for good.
    fetch: Option<TransferPurpose>,
    /// Whether the in-flight fetch has already been retried (brownouts
    /// cost exactly one deterministic retry, never a loop).
    retried: bool,
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

    /// Kicks all workers at epoch start, appending their actions.
    pub fn start(&mut self, actions: &mut Vec<LoaderAction>) {
        for g in 0..self.spec.gpus {
            self.kick_gpu(g, actions);
        }
    }

    /// Number of batches currently buffered for `gpu`.
    #[must_use]
    pub fn ready(&self, gpu: usize) -> usize {
        self.queue[gpu]
    }

    /// Consumes one buffered batch for `gpu`; returns `false` (and consumes
    /// nothing) if the queue is empty — the GPU must wait for a
    /// [`LoaderAction::Deliver`]. A successful take may also restart the
    /// paused worker, whose actions it appends.
    pub fn try_take(&mut self, gpu: usize, actions: &mut Vec<LoaderAction>) -> bool {
        if self.queue[gpu] == 0 {
            return false;
        }
        self.queue[gpu] -= 1;
        self.kick_gpu(gpu, actions);
        true
    }

    /// The transfer `worker` makes for `purpose`: its route (borrowed from
    /// the spec), payload bytes and fixed latency. A fetch reads one batch
    /// of raw samples from the page cache or, paying the volume's
    /// per-sample seek latency, from the disk; an upload moves one decoded
    /// batch to the worker's GPU.
    #[must_use]
    pub fn transfer(
        &self,
        worker: usize,
        purpose: TransferPurpose,
    ) -> (&[LinkId], f64, SimDuration) {
        let batch = self.spec.per_gpu_batch;
        let fetch_bytes = self.spec.dataset.avg_sample_bytes() * batch as f64;
        match purpose {
            TransferPurpose::FetchHit => (&self.spec.dram_route, fetch_bytes, SimDuration::ZERO),
            TransferPurpose::FetchMiss => (
                &self.spec.disk_route,
                fetch_bytes,
                self.spec.per_sample_disk_latency * batch,
            ),
            TransferPurpose::Upload => (
                &self.spec.h2d_routes[self.gpu_of(worker)],
                self.spec.decoded_sample_bytes * batch as f64,
                SimDuration::ZERO,
            ),
        }
    }

    /// A transfer started by this loader finished; appends what follows.
    pub fn transfer_done(&mut self, worker: usize, actions: &mut Vec<LoaderAction>) {
        match self.workers[worker].phase {
            WorkerPhase::Fetching => {
                let w = &mut self.workers[worker];
                // A disk read landing inside a brownout window is torn:
                // re-issue it once (deterministically), then let the
                // retry complete even if the window is still open.
                if self.brownout && !w.retried && w.fetch == Some(TransferPurpose::FetchMiss) {
                    w.retried = true;
                    actions.push(LoaderAction::StartTransfer {
                        worker,
                        purpose: TransferPurpose::FetchMiss,
                    });
                    return;
                }
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
                self.kick_gpu(gpu, actions);
            }
            other => panic!("unexpected transfer completion in phase {other:?}"),
        }
    }

    /// A preprocessing interval finished; appends the upload.
    pub fn prep_done(&mut self, worker: usize, actions: &mut Vec<LoaderAction>) {
        assert_eq!(
            self.workers[worker].phase,
            WorkerPhase::Prepping,
            "not prepping"
        );
        self.workers[worker].phase = WorkerPhase::Uploading;
        actions.push(LoaderAction::StartTransfer {
            worker,
            purpose: TransferPurpose::Upload,
        });
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
    /// fetch's [`transfer`](NodeLoader::transfer)); per GPU its queue
    /// depth and started count; the brownout flag and the page-cache
    /// accumulator's bits. Two loaders with equal keys act identically
    /// for as long as no GPU's started count reaches its quota.
    pub fn key_into(&self, base: u64, key: &mut Vec<u64>) {
        for w in &self.workers {
            let fetch = w.fetch.map_or(0, |purpose| match purpose {
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
        let purpose = if self.cache.next_is_hit() {
            TransferPurpose::FetchHit
        } else {
            TransferPurpose::FetchMiss
        };
        let w = &mut self.workers[worker];
        w.phase = WorkerPhase::Fetching;
        w.retried = false;
        w.fetch = Some(purpose);
        actions.push(LoaderAction::StartTransfer { worker, purpose });
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

    /// The actions one loader call appends to an empty list.
    fn acts(call: impl FnOnce(&mut Vec<LoaderAction>)) -> Vec<LoaderAction> {
        let mut actions = Vec::new();
        call(&mut actions);
        actions
    }

    /// Drives a loader to completion assuming instantaneous transfers and
    /// preps; returns delivered batch counts per GPU.
    fn drive(loader: &mut NodeLoader) -> Vec<u64> {
        let mut delivered = vec![0_u64; loader.spec.gpus];
        let mut pending = acts(|a| loader.start(a));
        let mut guard = 0;
        while let Some(a) = pending.pop() {
            guard += 1;
            assert!(guard < 100_000, "loader did not converge");
            match a {
                LoaderAction::StartTransfer { worker, .. } => {
                    loader.transfer_done(worker, &mut pending);
                }
                LoaderAction::StartPrep { worker, .. } => loader.prep_done(worker, &mut pending),
                LoaderAction::Deliver { gpu } => {
                    delivered[gpu] += 1;
                    // Consume immediately so prefetch never blocks.
                    assert!(loader.try_take(gpu, &mut pending));
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
        let actions = acts(|a| loader.start(a));
        let LoaderAction::StartTransfer { worker, purpose } = actions[0] else {
            panic!("expected fetch, got {:?}", actions[0]);
        };
        let (_, _, latency) = loader.transfer(worker, purpose);
        assert_eq!(latency, SimDuration::from_micros(20) * 32);
    }

    #[test]
    fn warm_fetches_have_no_seek_latency() {
        let mut loader = NodeLoader::new(spec(1, 1, CacheState::Warm));
        let actions = acts(|a| loader.start(a));
        let LoaderAction::StartTransfer { worker, purpose } = actions[0] else {
            panic!("expected fetch, got {:?}", actions[0]);
        };
        let (_, _, latency) = loader.transfer(worker, purpose);
        assert_eq!(latency, SimDuration::ZERO);
    }

    #[test]
    fn transfers_take_route_bytes_and_latency_from_the_spec() {
        use stash_flowsim::link::{Link, LinkClass};
        use stash_flowsim::net::FlowNet;

        let mut net = FlowNet::new();
        let mut link =
            |name: &str| net.add_link(Link::new(name, 1e9, SimDuration::ZERO, LinkClass::Other));
        let (disk, dram, h2d0, h2d1) = (link("disk"), link("dram"), link("h2d0"), link("h2d1"));
        let loader = NodeLoader::new(LoaderSpec {
            workers_per_gpu: 2,
            disk_route: vec![disk],
            dram_route: vec![dram],
            h2d_routes: vec![vec![h2d0], vec![h2d1]],
            ..spec(2, 1, CacheState::Cold)
        });
        let fetch_bytes = DatasetSpec::imagenet1k().avg_sample_bytes() * 32.0;
        let seek = SimDuration::from_micros(20) * 32;
        let want = [
            (
                TransferPurpose::FetchHit,
                0,
                dram,
                fetch_bytes,
                SimDuration::ZERO,
            ),
            (TransferPurpose::FetchMiss, 3, disk, fetch_bytes, seek),
            // Workers 0-1 feed GPU 0, workers 2-3 GPU 1.
            (
                TransferPurpose::Upload,
                1,
                h2d0,
                602_112.0 * 32.0,
                SimDuration::ZERO,
            ),
            (
                TransferPurpose::Upload,
                2,
                h2d1,
                602_112.0 * 32.0,
                SimDuration::ZERO,
            ),
        ];
        for (purpose, worker, route, bytes, latency) in want {
            assert_eq!(
                loader.transfer(worker, purpose),
                (&[route][..], bytes, latency),
                "{purpose:?} by worker {worker}"
            );
        }
    }

    #[test]
    fn prefetch_depth_pauses_workers() {
        let mut loader = NodeLoader::new(spec(1, 100, CacheState::Warm));
        // Fill the queue without consuming.
        let mut pending = acts(|a| loader.start(a));
        let mut delivers = 0;
        let mut guard = 0;
        while let Some(a) = pending.pop() {
            guard += 1;
            assert!(guard < 1000);
            match a {
                LoaderAction::StartTransfer { worker, .. } => {
                    loader.transfer_done(worker, &mut pending);
                }
                LoaderAction::StartPrep { worker, .. } => loader.prep_done(worker, &mut pending),
                LoaderAction::Deliver { .. } => delivers += 1,
            }
        }
        assert_eq!(delivers, 2, "stops at prefetch depth");
        assert_eq!(loader.ready(0), 2);
        // Draining one batch restarts the worker.
        let mut actions = Vec::new();
        assert!(loader.try_take(0, &mut actions));
        assert!(matches!(actions[0], LoaderAction::StartTransfer { .. }));
    }

    #[test]
    fn try_take_on_empty_queue_blocks() {
        let mut loader = NodeLoader::new(spec(2, 5, CacheState::Cold));
        let mut actions = Vec::new();
        assert!(!loader.try_take(1, &mut actions));
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
        let starts = acts(|a| loader.start(a))
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
        let _ = acts(|a| loader.start(a));
        let actions = acts(|a| loader.transfer_done(3, a)); // fetch -> prep
        assert!(matches!(
            actions[0],
            LoaderAction::StartPrep { worker: 3, .. }
        ));
        let actions = acts(|a| loader.prep_done(3, a)); // prep -> upload
        assert!(matches!(
            actions[0],
            LoaderAction::StartTransfer { worker: 3, .. }
        ));
        let actions = acts(|a| loader.transfer_done(3, a)); // upload -> deliver
        assert!(actions
            .iter()
            .any(|a| matches!(a, LoaderAction::Deliver { gpu: 1 })));
        assert_eq!(loader.ready(1), 1);
        assert_eq!(loader.ready(0), 0);
    }

    #[test]
    fn transfer_purposes_label_the_pipeline_stages() {
        let mut warm = NodeLoader::new(spec(1, 1, CacheState::Warm));
        let first = acts(|a| warm.start(a));
        assert!(matches!(
            first[0],
            LoaderAction::StartTransfer {
                purpose: TransferPurpose::FetchHit,
                ..
            }
        ));
        let _ = acts(|a| warm.transfer_done(0, a));
        let upload = acts(|a| warm.prep_done(0, a));
        assert!(matches!(
            upload[0],
            LoaderAction::StartTransfer {
                purpose: TransferPurpose::Upload,
                ..
            }
        ));
        let mut cold = NodeLoader::new(spec(1, 1, CacheState::Cold));
        let first = acts(|a| cold.start(a));
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
        let first = acts(|a| loader.start(a));
        assert!(matches!(
            first[0],
            LoaderAction::StartTransfer {
                purpose: TransferPurpose::FetchMiss,
                ..
            }
        ));
        loader.set_brownout(true);
        // The in-window completion is torn: same fetch re-issued once.
        let retry = acts(|a| loader.transfer_done(0, a));
        assert_eq!(first, retry, "retry must re-issue the identical fetch");
        // The retry's completion proceeds to prep even while the window
        // is still open (exactly one retry, never a loop).
        let next = acts(|a| loader.transfer_done(0, a));
        assert!(matches!(next[0], LoaderAction::StartPrep { .. }));
        loader.set_brownout(false);
    }

    #[test]
    fn brownout_leaves_cache_hits_alone() {
        let mut loader = NodeLoader::new(spec(1, 1, CacheState::Warm));
        let _ = acts(|a| loader.start(a));
        loader.set_brownout(true);
        // Page-cache reads don't touch the volume: no retry.
        let next = acts(|a| loader.transfer_done(0, a));
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
