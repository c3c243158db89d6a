//! The event-driven distributed-training engine.
//!
//! Simulates synchronous data-parallel training the way PyTorch DDP
//! executes it: every rank runs `wait-for-batch → forward → backward`
//! where the backward pass releases gradient buckets in reverse layer
//! order; buckets are all-reduced **in order, one at a time** (NCCL
//! single-stream semantics), overlapped with the remaining backward
//! compute; the iteration ends when both the backward pass and the last
//! bucket's collective have finished, followed by the optimizer step.
//!
//! All transfers — collective hops, SSD fetches, page-cache reads, H2D
//! uploads — are flows in one shared [`FlowNet`], so bus/SSD/NIC
//! contention between subsystems is emergent.

use std::collections::{BTreeMap, VecDeque};

use stash_collectives::bucket::CommPlan;
use stash_collectives::constants::GRAD_HOOK_OVERHEAD;
use stash_collectives::schedule::{allreduce_transfers, allreduce_transfers_among, TransferSpec};
use stash_datapipe::loader::{LoaderAction, LoaderSpec, NodeLoader, TransferPurpose};
use stash_faults::plan::{FaultKind, FaultPlan};
use stash_flowsim::link::{LinkClass, LinkId};
use stash_flowsim::net::{FlowId, FlowNet, FlowSpec};
use stash_gpucompute::kernel::ComputeModel;
use stash_gpucompute::memory;
use stash_hwtopo::topology::{GpuId, Topology};
use stash_simkit::prelude::*;
use stash_telemetry::series::{IterSeries, SeriesRecorder, SeriesSample};
use stash_trace::{Category, SharedTracer, Track};

use crate::config::{ActiveGpus, DataMode, TrainConfig};
use crate::error::TrainError;
use crate::recovery::{FaultOutcome, FaultRecord, FaultedRun, StragglerDetection};
use crate::report::{EpochReport, IterationSample};

/// Panicking accessor for engine invariants. The engine's phase machine
/// guarantees a number of `Option` fields are populated whenever the
/// corresponding code path runs (the fault scheduler once a plan is
/// armed, the fast-forward state inside a skip, the per-node loaders
/// after setup). This makes the invariant explicit at each site while
/// keeping the crate free of `unwrap`/`expect` under the clippy deny
/// gate: a violated invariant is a simulator bug, never a user error.
trait Req<T> {
    fn req(self, what: &str) -> T;
}

impl<T> Req<T> for Option<T> {
    #[inline]
    #[track_caller]
    fn req(self, what: &str) -> T {
        match self {
            Some(v) => v,
            None => panic!("engine invariant violated: {what}"),
        }
    }
}

const TAG_COMM: u64 = 1 << 48;
const TAG_LOADER: u64 = 2 << 48;

fn loader_tag(node: usize, worker: usize) -> u64 {
    TAG_LOADER | ((node as u64) << 16) | worker as u64
}

fn decode_loader_tag(tag: u64) -> (usize, usize) {
    (((tag >> 16) & 0xFFFF) as usize, (tag & 0xFFFF) as usize)
}

#[derive(Debug)]
enum Ev {
    NetWake,
    RankCompute {
        rank: usize,
    },
    LoaderPrep {
        node: usize,
        worker: usize,
    },
    /// Plan event `idx` fires (fault injection).
    Fault {
        idx: usize,
    },
    /// Window fault `idx` closes.
    FaultClear {
        idx: usize,
    },
    /// A preemption's restart delay elapsed; parked ranks resume.
    FaultResume,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    AwaitBatch,
    Forward,
    Backward {
        seg: usize,
    },
    AwaitComm,
    Step,
    /// Parked at a preemption barrier (iteration-boundary quantized),
    /// waiting for the restart delay or elastic re-formation.
    Recovering,
    Done,
}

#[derive(Debug)]
struct RankState {
    gpu: GpuId,
    phase: Phase,
    iter: u64,
    /// Micro-batch index within the current iteration (gradient
    /// accumulation); communication happens only on the last one.
    micro: u64,
    wait_start: Option<SimTime>,
    first_iter_done: Option<SimTime>,
    done_at: Option<SimTime>,
    compute: SimDuration,
    data_wait: SimDuration,
    comm_wait: SimDuration,
    /// Fault-recovery stall: preemption barrier waits, restart delays and
    /// replayed iterations. Zero on fault-free runs.
    recovery: SimDuration,
    /// Excess compute inflicted by transient straggler windows. Zero on
    /// fault-free runs.
    straggler: SimDuration,
}

#[derive(Debug)]
struct NodeCompute {
    fwd: SimDuration,
    bwd_segments: Vec<SimDuration>,
    step: SimDuration,
}

/// Rank-0 accumulators at the start of the current iteration.
#[derive(Debug, Default, Clone, Copy)]
struct IterMark {
    start: SimTime,
    data_wait: SimDuration,
    comm_wait: SimDuration,
}

#[derive(Debug)]
struct Comm {
    world: usize,
    ready: Vec<usize>,
    started: usize,
    completed: usize,
    inflight_remaining: usize,
}

/// Knobs controlling *how* an epoch is simulated. Every combination
/// produces a bit-identical [`EpochReport`]; the options only trade
/// simulation effort.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Detect the exact periodic steady state of synthetic-data runs and
    /// extend the remaining iterations analytically instead of simulating
    /// them event by event. On by default.
    pub fast_forward: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions { fast_forward: true }
    }
}

/// Reusable simulation state: the flow network, the event queue and the
/// engine's pooled scratch buffers.
///
/// `Run { arena: Some(&mut arena), .. }` ([`Run::arena`]) borrows an
/// arena for the duration of one epoch and returns it with all capacity
/// intact, so a sweep that simulates thousands of configurations
/// allocates its arenas once per worker instead of once per epoch. A
/// reused arena is observationally identical to a fresh one — reports
/// are bit-identical either way.
#[derive(Debug, Default)]
pub struct EngineArena {
    net: FlowNet,
    q: EventQueue<Ev>,
    completed: Vec<(FlowId, u64)>,
    loader_work: VecDeque<(usize, LoaderAction)>,
}

impl EngineArena {
    /// Creates an empty arena (buffers grow on first use).
    #[must_use]
    pub fn new() -> EngineArena {
        EngineArena::default()
    }
}

/// Consecutive identical iteration fingerprints (per rank) and identical
/// host-bus load cycles (globally) required before fast-forward engages.
const FF_CONFIRM: u32 = 3;

/// Per-rank steady-state fingerprint: the integer-ns deltas of one
/// iteration. Two iterations with equal deltas are indistinguishable to
/// every accumulator the report reads.
#[derive(Debug, Default, Clone, Copy)]
struct FfRank {
    last_done: SimTime,
    compute: SimDuration,
    data_wait: SimDuration,
    comm_wait: SimDuration,
    /// (iteration period, Δcompute, Δdata_wait, Δcomm_wait) in ns.
    delta: (u64, u64, u64, u64),
    repeats: u32,
    seen: bool,
}

/// Steady-state detector. Lives only on synthetic-data, untraced runs.
#[derive(Debug)]
struct FfState {
    ranks: Vec<FfRank>,
    last_boundary: Option<SimTime>,
    cycle_repeats: u32,
    /// Host-bus load samples of the previous completed iteration cycle.
    probe_prev: Vec<(SimTime, f64)>,
    /// Scratch for the cycle currently being compared.
    probe_cur: Vec<(SimTime, f64)>,
}

/// The reporting rank's accumulator baseline at the last emitted series
/// boundary. Every series bucket is the exact integer-ns delta of these
/// fields, so the series totals reconcile against the rank accumulators
/// (and through them the [`EpochReport`]) by construction.
#[derive(Debug, Default, Clone, Copy)]
struct SeriesMark {
    start: SimTime,
    compute: SimDuration,
    data_wait: SimDuration,
    comm_wait: SimDuration,
    recovery: SimDuration,
    straggler: SimDuration,
    /// Flow-solver full-recompute counter at the boundary.
    recomputes: u64,
}

/// Live iteration-series recording state: the bounded exact-sum recorder
/// plus the delta baseline. Constructed only when the run asked for a
/// series ([`Run::series`]); `None` otherwise, so the default path
/// records nothing and allocates nothing.
#[derive(Debug)]
struct SeriesState {
    rec: SeriesRecorder,
    mark: SeriesMark,
}

/// Snapshot of a rank's timing accumulators, taken when replay of lost
/// iterations begins so the replayed work can be re-billed as recovery
/// stall when it completes.
#[derive(Debug, Clone, Copy)]
struct AccumSnap {
    compute: SimDuration,
    data_wait: SimDuration,
    comm_wait: SimDuration,
}

/// Live state of the fault injector and the recovery machinery.
///
/// Constructed **only** for a non-empty [`FaultPlan`]; when absent, every
/// fault branch in the engine is skipped and the simulation is
/// bit-identical to the fault-free engine (enforced by the workspace
/// `faults_differential` test).
#[derive(Debug)]
struct FaultRuntime {
    plan: FaultPlan,
    /// Whether each window fault is currently open.
    open: Vec<bool>,
    /// Whether each plan event fired before the epoch finished.
    fired: Vec<bool>,
    /// Wall-clock stall blamed directly on each plan event.
    blame: Vec<SimDuration>,
    /// Plan events not yet fully resolved. Fast-forward may only engage
    /// once this reaches zero (and no replay is active): an engaged
    /// fast-forward would otherwise skip straight past scheduled faults.
    outstanding: usize,
    /// Per-rank product of the slowdowns of open straggler windows
    /// (exactly 1.0 when none are open).
    slow_factor: Vec<f64>,
    /// Nominal `(tx, rx)` NIC capacities per node, captured before any
    /// fault fires so overlapping windows compose multiplicatively and
    /// restore exactly.
    nominal_nic: Vec<[(LinkId, f64); 2]>,
    /// Nominal SSD capacity per node.
    nominal_ssd: Vec<(LinkId, f64)>,
    /// Preemptions waiting for the current one to resolve.
    preempt_queue: VecDeque<usize>,
    /// The preemption currently gathering ranks at the iteration barrier.
    barrier: Option<usize>,
    /// The preemption whose restart delay is running (barrier complete).
    resume: Option<usize>,
    /// Per-rank replay state: `(replay_until, snapshot, blamed event)`.
    replay: Vec<Option<(u64, AccumSnap, usize)>>,
    /// Ranks with an active replay.
    replaying: usize,
    /// Nodes permanently removed by elastic re-formation.
    dead_nodes: Vec<bool>,
    /// Ranks removed from the active set by elastic re-formation.
    dead_ranks: Vec<usize>,
    /// First-notify time of each gradient bucket this iteration
    /// (straggler detection bookkeeping; never perturbs timing).
    bucket_first: Vec<Option<SimTime>>,
    /// Current straggler-detection timeout; grows by the policy backoff
    /// after each detection so a persistent straggler is flagged a
    /// bounded number of times.
    timeout: SimDuration,
    detections: Vec<StragglerDetection>,
    replayed_iterations: u64,
}

/// Runs one training epoch under `cfg` and reports the timing breakdown:
/// the report of `Run::default().epoch(cfg)`.
///
/// # Errors
///
/// As for [`Run::epoch`].
pub fn run_epoch(cfg: &TrainConfig) -> Result<EpochReport, TrainError> {
    Run::default().epoch(cfg).map(|run| run.report)
}

/// The report of `Run { options, .. }`. Kept because the repository
/// benchmark (`examples/benchmark`) imports it by name.
///
/// # Errors
///
/// As for [`Run::epoch`].
pub fn run_epoch_with(
    cfg: &TrainConfig,
    options: &EngineOptions,
) -> Result<EpochReport, TrainError> {
    Run {
        options: options.clone(),
        ..Run::default()
    }
    .epoch(cfg)
    .map(|run| run.report)
}

/// The report of `Run { options, arena, .. }`. Kept because the
/// repository benchmark imports it by name.
///
/// # Errors
///
/// As for [`Run::epoch`].
pub fn run_epoch_in_with(
    cfg: &TrainConfig,
    options: &EngineOptions,
    arena: &mut EngineArena,
) -> Result<EpochReport, TrainError> {
    Run {
        options: options.clone(),
        arena: Some(arena),
        ..Run::default()
    }
    .epoch(cfg)
    .map(|run| run.report)
}

/// `Run { options, plan, .. }`. Kept because the repository benchmark
/// imports it by name.
///
/// # Errors
///
/// As for [`Run::epoch`].
pub fn run_epoch_faulted_with(
    cfg: &TrainConfig,
    plan: &FaultPlan,
    options: &EngineOptions,
) -> Result<FaultedRun, TrainError> {
    Run {
        options: options.clone(),
        plan: Some(plan),
        ..Run::default()
    }
    .epoch(cfg)
}

/// How one epoch is run: the engine options, an optional fault plan, an
/// optional caller-owned arena, and the observers the caller attaches.
/// `Run::default()` is the plain run.
///
/// Only a non-empty `plan` changes the simulation. The options, the
/// arena and both observers trade simulation effort or record what
/// happens; none of them changes a bit of the [`FaultedRun`].
///
/// ```
/// use stash_ddl::prelude::*;
/// use stash_dnn::zoo;
/// use stash_hwtopo::prelude::*;
/// use stash_telemetry::series::IterSeries;
///
/// let mut cfg = TrainConfig::synthetic(ClusterSpec::single(p3_2xlarge()), zoo::resnet18(), 32, 320);
/// cfg.epoch_mode = EpochMode::Sampled { iterations: 6 };
/// let mut arena = EngineArena::new();
/// let mut series = IterSeries::default();
/// let run = Run { arena: Some(&mut arena), series: Some(&mut series), ..Run::default() }
///     .epoch(&cfg)?;
/// assert_eq!(run.report, run_epoch(&cfg)?);
/// assert_eq!(series.totals().iterations, run.report.simulated_iterations);
/// # Ok::<(), TrainError>(())
/// ```
#[derive(Debug, Default)]
pub struct Run<'a> {
    /// How the epoch is simulated.
    pub options: EngineOptions,
    /// Faults injected through the event queue, with checkpoint/restart
    /// replay, elastic re-formation and straggler detection engaged. An
    /// empty plan is the fault-free run. Fast-forward pauses while a fault
    /// is pending or being recovered from.
    pub plan: Option<&'a FaultPlan>,
    /// Simulation state to reuse, returned with its capacity intact; a
    /// fresh arena when `None`.
    pub arena: Option<&'a mut EngineArena>,
    /// Receives the engine's and the flow network's spans as the
    /// simulation executes. An enabled tracer turns fast-forward off (it
    /// would skip the spans); a disabled one
    /// ([`stash_trace::Tracer::disabled`]) is dropped, so nothing is
    /// emitted or allocated for it.
    pub tracer: Option<&'a SharedTracer>,
    /// Receives the iteration-resolved series: one sample per iteration of
    /// the reporting rank, fast-forwarded spans as marked compressed
    /// regions and fault windows as annotations. Its totals reconcile with
    /// the report's stall accumulators to the nanosecond. Recording keeps
    /// fast-forward on.
    pub series: Option<&'a mut IterSeries>,
}

impl Run<'_> {
    /// Runs one training epoch under `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidConfig`] for contradictory settings,
    /// [`TrainError::OutOfMemory`] when the model + batch exceeds any
    /// participating GPU's memory, and [`TrainError::InvalidFaultPlan`]
    /// when the plan does not fit the cluster.
    pub fn epoch(self, cfg: &TrainConfig) -> Result<FaultedRun, TrainError> {
        cfg.validate()?;
        if let Some(p) = self.plan {
            p.validate(cfg.cluster.world_size(), cfg.cluster.node_count())
                .map_err(|e| TrainError::InvalidFaultPlan(e.to_string()))?;
        }
        for inst in &cfg.cluster.instances {
            let spec = inst.gpu.spec();
            let est = memory::estimate_with(&cfg.model, cfg.per_gpu_batch, cfg.precision);
            if est.total() > spec.mem_bytes {
                return Err(TrainError::OutOfMemory {
                    gpu: spec.name.to_string(),
                    required_bytes: est.total(),
                    capacity_bytes: spec.mem_bytes,
                });
            }
        }
        let tracer = self.tracer.filter(|t| t.borrow().is_enabled());
        let mut local = EngineArena::default();
        let arena = self.arena.unwrap_or(&mut local);
        let mut engine = Engine::new(
            cfg,
            &self.options,
            self.plan,
            arena,
            tracer,
            self.series.is_some(),
        );
        let run = engine.run();
        if let Some(series) = self.series {
            *series = engine.take_series();
        }
        engine.into_arena(arena);
        Ok(run)
    }
}

struct Engine<'a> {
    cfg: &'a TrainConfig,
    q: EventQueue<Ev>,
    net: FlowNet,
    topo: Topology,
    plan: CommPlan,
    node_compute: Vec<NodeCompute>,
    ranks: Vec<RankState>,
    active: Vec<usize>,
    comm: Option<Comm>,
    loaders: Vec<Option<NodeLoader>>,
    /// The single pending [`Ev::NetWake`], if any. Keeping (and
    /// cancelling) the key guarantees at most one wake is ever queued:
    /// without cancellation, every same-timestamp stale wake re-arms a
    /// fresh future wake, and the duplicate population grows by one per
    /// rate change — quadratic event counts on contended epochs.
    next_wake: Option<(SimTime, EventKey)>,
    sim_iters: u64,
    trace: Vec<IterationSample>,
    iter_mark: IterMark,
    /// Whether bucket all-reduces overlap with backward compute. Requested
    /// via [`TrainConfig::overlap`], but *forced off* when the collective
    /// ring is staged through the PCIe host fabric: without peer-to-peer
    /// DMA the staged copies monopolise the GPU's DMA engines and streams,
    /// so in practice (and in the paper's P2 measurements) communication
    /// serializes with compute.
    overlap: bool,
    /// Span recorder shared with the flow network. `Some` only for an
    /// enabled tracer ([`Run::epoch`] drops a disabled one), so it alone
    /// gates every emission site and all trace-only bookkeeping.
    tracer: Option<SharedTracer>,
    /// Stall class of gradient synchronisation on this cluster: `Network`
    /// when ranks span instances, `Interconnect` within one.
    comm_cat: Category,
    /// When the in-flight all-reduce bucket entered the network, and its
    /// bucket index (for per-bucket blame in trace analysis).
    bucket_open: Option<(SimTime, usize)>,
    /// Start time and purpose of each loader worker's in-flight transfer,
    /// keyed by `(node, worker)`. Populated only when tracing.
    xfer_open: BTreeMap<(usize, usize), (SimTime, TransferPurpose)>,
    /// Per-bucket all-reduce transfer plans, computed once at construction.
    /// `allreduce_transfers` depends only on the (static) topology and the
    /// bucket's wire bytes, so starting flows from the cached plan is
    /// bit-identical to replanning every iteration — without the per-bucket
    /// `Vec` and route clones.
    comm_plans: Vec<Vec<TransferSpec>>,
    /// Pooled buffer ping-ponged with [`FlowNet`]'s completion list.
    completed_buf: Vec<(FlowId, u64)>,
    /// Pooled loader action work-list.
    loader_work: VecDeque<(usize, LoaderAction)>,
    /// Steady-state fast-forward detector; `None` when ineligible
    /// (real-data input, tracing, per-iteration trace recording, or
    /// disabled via [`EngineOptions`]).
    ff: Option<FfState>,
    /// Fault injector and recovery machinery; `None` unless a non-empty
    /// [`FaultPlan`] was supplied, in which case every fault branch is
    /// dead code and the simulation is bit-identical to the fault-free
    /// engine.
    faults: Option<FaultRuntime>,
    /// Iterations skipped by fast-forward (diagnostic only; flushed to
    /// the telemetry registry, never reported in the [`EpochReport`]).
    ff_iterations: u64,
    /// Iteration-series recorder; `None` unless the run asked for a
    /// series. Pure observation — never perturbs the simulation.
    series: Option<SeriesState>,
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("world", &self.active.len())
            .field("now", &self.q.now())
            .finish()
    }
}

impl<'a> Engine<'a> {
    fn new(
        cfg: &'a TrainConfig,
        options: &EngineOptions,
        fault_plan: Option<&FaultPlan>,
        arena: &mut EngineArena,
        tracer: Option<&SharedTracer>,
        record_series: bool,
    ) -> Engine<'a> {
        let mut net = std::mem::take(&mut arena.net);
        if net.link_count() > 0 {
            // A non-empty network means this arena already ran an epoch:
            // its slabs and route pools come back warm.
            stash_telemetry::metrics::ARENA_REUSE.inc();
        }
        net.reset();
        let mut q = std::mem::take(&mut arena.q);
        q.reset();
        let mut completed_buf = std::mem::take(&mut arena.completed);
        completed_buf.clear();
        let mut loader_work = std::mem::take(&mut arena.loader_work);
        loader_work.clear();
        let topo = Topology::build(&cfg.cluster, &mut net);
        let plan = CommPlan::new(&cfg.model, cfg.bucketing);
        let sim_iters = cfg.simulated_iterations();

        let node_compute: Vec<NodeCompute> = cfg
            .cluster
            .instances
            .iter()
            .map(|inst| {
                let cm = ComputeModel::new(inst.gpu.spec()).with_precision(cfg.precision);
                let bwd_segments = plan
                    .buckets
                    .iter()
                    .map(|b| {
                        (b.layer_range.0..b.layer_range.1)
                            .map(|i| cm.layer_bwd(&cfg.model.layers[i], cfg.per_gpu_batch))
                            .sum()
                    })
                    .collect();
                NodeCompute {
                    fwd: cm.fwd_time(&cfg.model, cfg.per_gpu_batch),
                    bwd_segments,
                    step: cm.optimizer_step_time(&cfg.model),
                }
            })
            .collect();

        let active: Vec<usize> = match cfg.active {
            ActiveGpus::All => (0..topo.world_size()).collect(),
            ActiveGpus::Single => vec![0],
        };
        let ranks: Vec<RankState> = (0..topo.world_size())
            .map(|r| RankState {
                gpu: topo.rank_gpu(r),
                phase: Phase::Done,
                iter: 0,
                micro: 0,
                wait_start: None,
                first_iter_done: None,
                done_at: None,
                compute: SimDuration::ZERO,
                data_wait: SimDuration::ZERO,
                comm_wait: SimDuration::ZERO,
                recovery: SimDuration::ZERO,
                straggler: SimDuration::ZERO,
            })
            .collect();

        let world = active.len();
        let staged_ring = world > 1
            && allreduce_transfers(&topo, &net, cfg.algorithm, 1.0)
                .iter()
                .any(|t| {
                    t.route
                        .iter()
                        .any(|l| net.link(*l).class == LinkClass::PcieHostBus)
                });
        let overlap = cfg.overlap && !staged_ring;
        let comm = (world > 1).then(|| Comm {
            world,
            ready: vec![0; plan.buckets.len()],
            started: 0,
            completed: 0,
            inflight_remaining: 0,
        });
        let comm_plans: Vec<Vec<TransferSpec>> = if world > 1 {
            plan.buckets
                .iter()
                .map(|b| {
                    // Bucket bytes are planned in fp32; scale to the wire
                    // precision.
                    let bytes = b.bytes * cfg.precision.gradient_bytes_per_param() / 4.0;
                    allreduce_transfers(&topo, &net, cfg.algorithm, bytes)
                })
                .collect()
        } else {
            Vec::new()
        };

        // Recompute counter at construction, so series deltas survive
        // arena reuse.
        let (recomputes0, _) = net.recompute_stats();
        // Fast-forward needs exactly repeating iterations: synthetic input
        // (loader pipelines have their own long-period state), no
        // per-iteration trace samples, and enough iterations for the
        // detector to confirm a cycle and still have something to skip.
        // It would also skip the very spans a tracer exists to record.
        let ff = (options.fast_forward
            && cfg.data.is_synthetic()
            && !cfg.record_trace
            && tracer.is_none()
            && sim_iters > u64::from(FF_CONFIRM) + 2)
            .then(|| FfState {
                ranks: vec![FfRank::default(); topo.world_size()],
                last_boundary: None,
                cycle_repeats: 0,
                probe_prev: Vec::new(),
                probe_cur: Vec::new(),
            });
        if ff.is_some() {
            // Record the host bus — the one lane whose utilization the
            // report reads — so skipped cycles can be replayed exactly.
            net.set_load_probe(topo.host_bus(0));
        }
        // The flow network gets the same handle, so network events
        // interleave with engine spans.
        if let Some(t) = tracer {
            net.set_tracer(t.clone());
        }

        // Fault machinery exists only for non-empty plans: the empty-plan
        // path must stay bit-identical to the fault-free engine.
        let faults = fault_plan.filter(|p| !p.is_empty()).map(|p| {
            let nodes = cfg.cluster.node_count();
            FaultRuntime {
                plan: p.clone(),
                open: vec![false; p.events.len()],
                fired: vec![false; p.events.len()],
                blame: vec![SimDuration::ZERO; p.events.len()],
                outstanding: p.events.len(),
                slow_factor: vec![1.0; topo.world_size()],
                nominal_nic: (0..nodes)
                    .map(|n| topo.degraded_nic_capacities(&net, n, 1.0))
                    .collect(),
                nominal_ssd: (0..nodes)
                    .map(|n| topo.degraded_ssd_capacity(&net, n, 1.0))
                    .collect(),
                preempt_queue: VecDeque::new(),
                barrier: None,
                resume: None,
                replay: vec![None; topo.world_size()],
                replaying: 0,
                dead_nodes: vec![false; nodes],
                dead_ranks: Vec::new(),
                bucket_first: vec![None; plan.buckets.len()],
                timeout: p.recovery.straggler_timeout,
                detections: Vec::new(),
                replayed_iterations: 0,
            }
        });
        // Checkpoint replay re-consumes input batches, so loaders need
        // headroom beyond the epoch's own iterations. Zero without a
        // restart-style preemption, keeping fault-free runs untouched.
        let replay_slack: u64 = faults.as_ref().map_or(0, |fr| {
            fr.plan
                .events
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        FaultKind::Preemption {
                            restart_after: Some(_),
                            ..
                        }
                    )
                })
                .count() as u64
                * fr.plan.recovery.checkpoint_every
        });

        let loaders: Vec<Option<NodeLoader>> = match &cfg.data {
            DataMode::Synthetic => vec![None; cfg.cluster.node_count()],
            DataMode::Real { dataset, cache } => cfg
                .cluster
                .instances
                .iter()
                .enumerate()
                .map(|(n, inst)| {
                    // Each node streams its shard of the dataset.
                    let shard = stash_dnn::dataset::DatasetSpec {
                        name: dataset.name.clone(),
                        num_samples: dataset.num_samples / cfg.cluster.node_count() as u64,
                        total_bytes: dataset.total_bytes / cfg.cluster.node_count() as f64,
                        prep_cost_factor: dataset.prep_cost_factor,
                    };
                    Some(NodeLoader::new(LoaderSpec {
                        gpus: inst.gpu_count,
                        workers_per_gpu: stash_datapipe::loader::DEFAULT_WORKERS_PER_GPU,
                        vcpus: inst.vcpus,
                        per_gpu_batch: cfg.per_gpu_batch,
                        batches_per_gpu: sim_iters + replay_slack,
                        dataset: shard,
                        decoded_sample_bytes: cfg.model.input_sample_bytes,
                        cache: *cache,
                        main_memory_bytes: inst.main_memory_bytes,
                        prefetch_depth: 2,
                        disk_route: topo.disk_route(n),
                        dram_route: topo.dram_route(n),
                        h2d_routes: (0..inst.gpu_count)
                            .map(|g| topo.h2d_route(GpuId { node: n, local: g }))
                            .collect(),
                        per_sample_disk_latency: inst.storage.per_sample_latency,
                    }))
                })
                .collect(),
        };

        Engine {
            cfg,
            q,
            net,
            topo,
            plan,
            node_compute,
            ranks,
            active,
            comm,
            loaders,
            next_wake: None,
            sim_iters,
            trace: Vec::new(),
            iter_mark: IterMark::default(),
            overlap,
            tracer: tracer.cloned(),
            comm_cat: if cfg.cluster.node_count() > 1 {
                Category::Network
            } else {
                Category::Interconnect
            },
            bucket_open: None,
            xfer_open: BTreeMap::new(),
            comm_plans,
            completed_buf,
            loader_work,
            ff,
            faults,
            ff_iterations: 0,
            series: record_series.then(|| SeriesState {
                rec: SeriesRecorder::new(),
                mark: SeriesMark {
                    recomputes: recomputes0,
                    ..SeriesMark::default()
                },
            }),
        }
    }

    /// Returns the reusable state to `arena`, capacity intact.
    fn into_arena(self, arena: &mut EngineArena) {
        arena.net = self.net;
        arena.q = self.q;
        arena.completed = self.completed_buf;
        arena.loader_work = self.loader_work;
    }

    /// Records a complete span; a no-op unless tracing is enabled.
    fn emit_span(
        &self,
        track: Track,
        category: Category,
        name: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().span(track, category, name, start, end);
        }
    }

    /// Records a complete span carrying a numeric payload (bucket or
    /// backward-segment index); a no-op unless tracing is enabled.
    #[allow(clippy::too_many_arguments)]
    fn emit_span_arg(
        &self,
        track: Track,
        category: Category,
        name: &'static str,
        arg: u32,
        start: SimTime,
        end: SimTime,
    ) {
        if let Some(t) = &self.tracer {
            t.borrow_mut()
                .span_arg(track, category, name, arg, start, end);
        }
    }

    /// Records an instant marker; a no-op unless tracing is enabled.
    fn emit_instant(&self, track: Track, category: Category, name: &'static str, at: SimTime) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().instant(track, category, name, at);
        }
    }

    /// The timeline lane of `rank`'s GPU.
    fn gpu_track(&self, rank: usize) -> Track {
        let gpu = self.ranks[rank].gpu;
        Track::gpu(gpu.node, gpu.local)
    }

    // ----- iteration series ---------------------------------------------

    /// Emits one series bucket covering `rank`'s activity from the last
    /// mark to `end`, then re-baselines the mark at `end`. Category
    /// fields are signed accumulator deltas, so a zero-iteration call
    /// after a replay rewind (or an elastic reporting-rank change) emits
    /// exactly the correction that keeps the running series totals equal
    /// to the current reporting rank's accumulators. A no-op unless
    /// series recording is on.
    fn emit_series(
        &mut self,
        rank: usize,
        end: SimTime,
        start_iter: u64,
        iterations: u64,
        ff: u64,
    ) {
        let Some(s) = self.series.as_mut() else {
            return;
        };
        let r = &self.ranks[rank];
        let (full_recomputes, _) = self.net.recompute_stats();
        let m = s.mark;
        let delta =
            |cur: SimDuration, base: SimDuration| cur.as_nanos() as i64 - base.as_nanos() as i64;
        s.rec.record(SeriesSample {
            start_iter,
            iterations,
            ff_iterations: ff,
            start_ns: m.start.as_nanos(),
            wall_ns: end.duration_since(m.start).as_nanos(),
            compute_ns: delta(r.compute, m.compute),
            data_wait_ns: delta(r.data_wait, m.data_wait),
            comm_wait_ns: delta(r.comm_wait, m.comm_wait),
            recovery_ns: delta(r.recovery, m.recovery),
            straggler_ns: delta(r.straggler, m.straggler),
            recomputes: full_recomputes - m.recomputes,
            queue_depth_hw: self.q.take_depth_high_water(),
        });
        s.mark = SeriesMark {
            start: end,
            compute: r.compute,
            data_wait: r.data_wait,
            comm_wait: r.comm_wait,
            recovery: r.recovery,
            straggler: r.straggler,
            recomputes: full_recomputes,
        };
    }

    /// Opens a fault-window annotation on the series (no-op when off).
    fn series_annotate_open(&mut self, idx: usize, label: &str, kind: &str) {
        let now = self.q.now();
        if let Some(s) = self.series.as_mut() {
            s.rec.annotate_open(idx as u64, label, kind, now.as_nanos());
        }
    }

    /// Closes a fault-window annotation on the series (no-op when off).
    fn series_annotate_close(&mut self, idx: usize) {
        let now = self.q.now();
        if let Some(s) = self.series.as_mut() {
            s.rec.annotate_close(idx as u64, now.as_nanos());
        }
    }

    /// Finishes series recording (empty when it never started). The end
    /// stamp is the last rank completion — after a fast-forward the
    /// analytic completion times run past the event-queue clock.
    fn take_series(&mut self) -> IterSeries {
        let Some(s) = self.series.take() else {
            return IterSeries::default();
        };
        let end = self
            .active
            .iter()
            .filter_map(|r| self.ranks[*r].done_at)
            .max()
            .unwrap_or_else(|| self.q.now());
        s.rec.finish(end.as_nanos())
    }

    fn run(&mut self) -> FaultedRun {
        // Kick loaders and ranks.
        for node in 0..self.loaders.len() {
            if self.loaders[node].is_some() {
                let actions = self.loaders[node].as_mut().req("loader").start();
                self.apply_loader_actions(node, actions);
            }
        }
        for i in 0..self.active.len() {
            let rank = self.active[i];
            self.begin_iteration(rank);
        }
        // Arm the fault plan: every event goes through the one event
        // queue, so injection is as deterministic as the engine itself.
        for idx in 0..self.faults.as_ref().map_or(0, |fr| fr.plan.events.len()) {
            let at = self.faults.as_ref().req("faults").plan.events[idx].at;
            self.q.schedule_at(at, Ev::Fault { idx });
        }
        self.schedule_wake();

        let mut event_guard: u64 = 0;
        while !self.all_done() {
            let Some((_, ev)) = self.q.pop() else {
                panic!(
                    "deadlock: event queue drained with ranks unfinished (phases: {:?})",
                    self.active
                        .iter()
                        .map(|r| self.ranks[*r].phase)
                        .collect::<Vec<_>>()
                );
            };
            event_guard += 1;
            assert!(event_guard < 500_000_000, "runaway simulation");
            if stash_telemetry::flight::flight_enabled() {
                let (code, a, b) = match &ev {
                    Ev::NetWake => ("net_wake", 0, 0),
                    Ev::RankCompute { rank } => ("rank_compute", *rank as u64, 0),
                    Ev::LoaderPrep { node, worker } => {
                        ("loader_prep", *node as u64, *worker as u64)
                    }
                    Ev::Fault { idx } => ("fault", *idx as u64, 0),
                    Ev::FaultClear { idx } => ("fault_clear", *idx as u64, 0),
                    Ev::FaultResume => ("fault_resume", 0, 0),
                };
                stash_telemetry::flight::flight_record(self.q.now().as_nanos(), code, a, b);
            }
            match ev {
                Ev::NetWake => {
                    self.next_wake = None;
                    self.net.advance(self.q.now());
                }
                Ev::RankCompute { rank } => self.on_rank_compute(rank),
                Ev::LoaderPrep { node, worker } => {
                    // A preempted node's loader is gone; late prep events
                    // for it are dropped.
                    if let Some(loader) = self.loaders[node].as_mut() {
                        let actions = loader.prep_done(worker);
                        self.apply_loader_actions(node, actions);
                    }
                }
                Ev::Fault { idx } => {
                    stash_telemetry::metrics::FAULT_BRANCHES.inc();
                    self.on_fault_fired(idx);
                }
                Ev::FaultClear { idx } => {
                    stash_telemetry::metrics::FAULT_BRANCHES.inc();
                    self.on_fault_cleared(idx);
                }
                Ev::FaultResume => {
                    stash_telemetry::metrics::FAULT_BRANCHES.inc();
                    self.on_fault_resume();
                }
            }
            self.drain_flows();
            self.schedule_wake();
        }
        let report = self.build_report();
        let faults = self.fault_outcome();
        FaultedRun { report, faults }
    }

    fn all_done(&self) -> bool {
        self.active
            .iter()
            .all(|r| self.ranks[*r].phase == Phase::Done && self.ranks[*r].done_at.is_some())
    }

    // ----- rank state machine -----------------------------------------

    fn begin_iteration(&mut self, rank: usize) {
        let now = self.q.now();
        if self.ranks[rank].iter >= self.sim_iters {
            self.ranks[rank].phase = Phase::Done;
            self.ranks[rank].done_at = Some(now);
            return;
        }
        self.ranks[rank].micro = 0;
        self.begin_micro_batch(rank);
    }

    /// Starts one micro-batch: acquire input (real data) then forward.
    fn begin_micro_batch(&mut self, rank: usize) {
        let now = self.q.now();
        let node = self.ranks[rank].gpu.node;
        let local = self.ranks[rank].gpu.local;
        if self.loaders[node].is_some() {
            let (ok, actions) = self.loaders[node].as_mut().req("loader").try_take(local);
            self.apply_loader_actions(node, actions);
            if ok {
                self.start_forward(rank);
            } else {
                self.ranks[rank].phase = Phase::AwaitBatch;
                self.ranks[rank].wait_start = Some(now);
            }
        } else {
            self.start_forward(rank);
        }
    }

    /// Applies the straggler slowdown to `rank`'s compute durations.
    fn straggle(&self, rank: usize, dur: SimDuration) -> SimDuration {
        match self.cfg.straggler {
            Some(s) if s.rank == rank => dur.mul_f64(s.slowdown),
            _ => dur,
        }
    }

    /// Excess time open straggler windows inflict on a compute interval
    /// that *starts* now. [`SimDuration::ZERO`] on fault-free runs.
    fn fault_extra(&self, rank: usize, dur: SimDuration) -> SimDuration {
        match &self.faults {
            Some(fr) if fr.slow_factor[rank] > 1.0 => {
                dur.mul_f64(fr.slow_factor[rank]).saturating_sub(dur)
            }
            _ => SimDuration::ZERO,
        }
    }

    /// The span category for `rank`'s work right now: replayed iterations
    /// are recovery stall, everything else keeps its nominal category.
    fn rank_cat(&self, rank: usize, cat: Category) -> Category {
        match &self.faults {
            Some(fr) if fr.replay[rank].is_some() => Category::Recovery,
            _ => cat,
        }
    }

    /// Books `dur` of compute for `rank` (plus any straggler-window
    /// excess, billed to the `straggler` accumulator and emitted as its
    /// own span so the timeline still tiles exactly), then schedules the
    /// completion event.
    fn run_compute(&mut self, rank: usize, dur: SimDuration, name: &'static str, arg: Option<u32>) {
        let extra = self.fault_extra(rank, dur);
        self.ranks[rank].compute += dur;
        if !extra.is_zero() {
            self.ranks[rank].straggler += extra;
            self.blame_straggler(rank, extra);
        }
        if self.tracer.is_some() {
            let now = self.q.now();
            let cat = self.rank_cat(rank, Category::Compute);
            match arg {
                Some(a) => self.emit_span_arg(self.gpu_track(rank), cat, name, a, now, now + dur),
                None => self.emit_span(self.gpu_track(rank), cat, name, now, now + dur),
            }
            if !extra.is_zero() {
                self.emit_span(
                    self.gpu_track(rank),
                    Category::Straggler,
                    "straggler_excess",
                    now + dur,
                    now + dur + extra,
                );
            }
        }
        self.q.schedule_in(dur + extra, Ev::RankCompute { rank });
    }

    fn start_forward(&mut self, rank: usize) {
        let dur = self.straggle(rank, self.node_compute[self.ranks[rank].gpu.node].fwd);
        self.ranks[rank].phase = Phase::Forward;
        self.run_compute(rank, dur, "forward", None);
    }

    fn is_sync_micro(&self, rank: usize) -> bool {
        self.ranks[rank].micro + 1 >= self.cfg.grad_accumulation.max(1)
    }

    fn start_backward_segment(&mut self, rank: usize, seg: usize) {
        let node = self.ranks[rank].gpu.node;
        let mut dur = self.straggle(rank, self.node_compute[node].bwd_segments[seg]);
        if self.comm.is_some() && self.is_sync_micro(rank) {
            dur += GRAD_HOOK_OVERHEAD; // DDP autograd hook per bucket
        }
        self.ranks[rank].phase = Phase::Backward { seg };
        self.run_compute(rank, dur, "backward", Some(seg as u32));
    }

    fn start_step(&mut self, rank: usize) {
        let dur = self.straggle(rank, self.node_compute[self.ranks[rank].gpu.node].step);
        self.ranks[rank].phase = Phase::Step;
        self.run_compute(rank, dur, "step", None);
    }

    fn on_rank_compute(&mut self, rank: usize) {
        match self.ranks[rank].phase {
            Phase::Forward => self.start_backward_segment(rank, 0),
            Phase::Backward { seg } => {
                let syncing = self.is_sync_micro(rank);
                if self.overlap && syncing {
                    self.notify_bucket_ready(rank, seg);
                }
                let last = seg + 1 >= self.plan.buckets.len();
                if !last {
                    self.start_backward_segment(rank, seg + 1);
                } else if !syncing {
                    // Accumulation micro-batch: no synchronisation, go
                    // straight to the next forward (PyTorch `no_sync()`).
                    self.ranks[rank].micro += 1;
                    self.begin_micro_batch(rank);
                } else {
                    if !self.overlap {
                        for k in 0..self.plan.buckets.len() {
                            self.notify_bucket_ready(rank, k);
                        }
                    }
                    match &self.comm {
                        None => self.start_step(rank),
                        Some(c) if c.completed >= self.plan.buckets.len() => {
                            // Communication already finished (cannot happen
                            // before our own last notify, but kept for
                            // symmetry with the reset path).
                            self.start_step(rank);
                        }
                        Some(_) => {
                            self.ranks[rank].phase = Phase::AwaitComm;
                            self.ranks[rank].wait_start = Some(self.q.now());
                        }
                    }
                }
            }
            Phase::Step => {
                self.ranks[rank].iter += 1;
                if self.ranks[rank].first_iter_done.is_none() {
                    self.ranks[rank].first_iter_done = Some(self.q.now());
                }
                if self.tracer.is_some() {
                    self.emit_instant(
                        self.gpu_track(rank),
                        Category::Compute,
                        "iter_done",
                        self.q.now(),
                    );
                }
                if self.cfg.record_trace && rank == self.active[0] {
                    let r = &self.ranks[rank];
                    let now = self.q.now();
                    self.trace.push(IterationSample {
                        iteration: r.iter - 1,
                        total: now.duration_since(self.iter_mark.start),
                        data_wait: r.data_wait - self.iter_mark.data_wait,
                        comm_wait: r.comm_wait - self.iter_mark.comm_wait,
                    });
                    self.iter_mark = IterMark {
                        start: now,
                        data_wait: r.data_wait,
                        comm_wait: r.comm_wait,
                    };
                }
                if self.series.is_some() && rank == self.active[0] {
                    // One series bucket per reporting-rank iteration. Must
                    // precede the fault boundary below: a replay rewind
                    // there emits its correction against this mark.
                    let now = self.q.now();
                    let it = self.ranks[rank].iter - 1;
                    self.emit_series(rank, now, it, 1, 0);
                }
                if self.faults.is_some() && self.on_fault_step_boundary(rank) {
                    // Captured by a preemption barrier (or retired at it).
                    return;
                }
                // Fast-forward stays disengaged while any fault is
                // pending, open or being recovered from: an engaged
                // fast-forward would skip straight past scheduled faults.
                if self.ff.is_some() && self.faults_quiescent() && self.on_ff_iteration_done(rank) {
                    // Steady state confirmed: every rank's remaining
                    // iterations were just extended analytically.
                    return;
                }
                self.begin_iteration(rank);
            }
            other => panic!("compute completion in unexpected phase {other:?}"),
        }
    }

    // ----- steady-state fast-forward ------------------------------------

    /// Updates the steady-state fingerprints after `rank` finished an
    /// iteration. Returns `true` when the periodic steady state is
    /// confirmed and the remaining iterations have been applied
    /// analytically — every active rank is then `Done`.
    ///
    /// The detector is conservative: it requires, for [`FF_CONFIRM`]
    /// consecutive iteration cycles, (a) every rank's integer-ns deltas
    /// (period, Δcompute, Δdata_wait, Δcomm_wait) to repeat exactly and
    /// (b) the host-bus load samples to repeat bitwise, shifted by exactly
    /// one period. Everything the report reads is a function of those
    /// quantities, so extending by `n` more periods is indistinguishable
    /// from simulating them.
    fn on_ff_iteration_done(&mut self, rank: usize) -> bool {
        let now = self.q.now();
        let iter = self.ranks[rank].iter;

        // Refresh this rank's iteration fingerprint.
        {
            let ff = self.ff.as_mut().req("ff state");
            let fr = &mut ff.ranks[rank];
            let r = &self.ranks[rank];
            let delta = (
                now.duration_since(fr.last_done).as_nanos(),
                (r.compute - fr.compute).as_nanos(),
                (r.data_wait - fr.data_wait).as_nanos(),
                (r.comm_wait - fr.comm_wait).as_nanos(),
            );
            fr.repeats = if fr.seen && delta == fr.delta {
                fr.repeats + 1
            } else {
                0
            };
            fr.delta = delta;
            fr.last_done = now;
            fr.compute = r.compute;
            fr.data_wait = r.data_wait;
            fr.comm_wait = r.comm_wait;
            fr.seen = true;
        }

        // Cycle boundary: every active rank has now finished this
        // iteration (synchronous training keeps ranks within one
        // iteration of each other, so the last finisher closes the cycle).
        if !self.active.iter().all(|&r| self.ranks[r].iter >= iter) {
            return false;
        }

        let period = match self.ff.as_ref().req("ff state").last_boundary {
            Some(b) => now.duration_since(b).as_nanos(),
            None => 0,
        };
        let ranks_periodic = period > 0
            && self.active.iter().all(|&r| {
                let fr = &self.ff.as_ref().req("ff state").ranks[r];
                fr.repeats >= FF_CONFIRM && fr.delta.0 == period
            });

        // Compare this cycle's host-bus load samples against the previous
        // cycle, shifted by one period.
        {
            let ff = self.ff.as_mut().req("ff state");
            let mut cur = std::mem::take(&mut ff.probe_cur);
            self.net.take_probe_samples(&mut cur);
            let p = SimDuration::from_nanos(period);
            let cycle_matches = ranks_periodic
                && ff.probe_prev.len() == cur.len()
                && ff
                    .probe_prev
                    .iter()
                    .zip(cur.iter())
                    .all(|(&(t0, v0), &(t1, v1))| t0 + p == t1 && v0.to_bits() == v1.to_bits());
            ff.cycle_repeats = if cycle_matches {
                ff.cycle_repeats + 1
            } else {
                0
            };
            std::mem::swap(&mut ff.probe_prev, &mut cur);
            ff.probe_cur = cur;
            ff.last_boundary = Some(now);
        }

        let confirmed = self.ff.as_ref().req("ff state").cycle_repeats >= FF_CONFIRM
            && self.net.active_flows() == 0
            && self.sim_iters > iter;
        if !confirmed {
            return false;
        }
        stash_telemetry::metrics::FF_CONFIRMATIONS.inc();
        self.fast_forward_to_end(iter, period);
        true
    }

    /// Extends the confirmed steady state by the remaining
    /// `sim_iters - iter` periods: rank accumulators and completion times
    /// are set to exactly the values event-by-event simulation would
    /// produce, and the recorded host-bus load cycle is replayed
    /// (time-shifted) so link utilization integrates identically.
    fn fast_forward_to_end(&mut self, iter: u64, period_ns: u64) {
        let n = self.sim_iters - iter;
        debug_assert!(n > 0);
        {
            let ff = self.ff.as_ref().req("ff state");
            for &r in &self.active {
                debug_assert_eq!(self.ranks[r].iter, iter, "rank {r} not at the boundary");
                let fr = &ff.ranks[r];
                let rs = &mut self.ranks[r];
                rs.iter = self.sim_iters;
                rs.phase = Phase::Done;
                rs.done_at = Some(fr.last_done + SimDuration::from_nanos(fr.delta.0 * n));
                // Overwrite rather than add: ranks that closed their
                // iteration before the boundary have already accrued
                // compute for the next one, which the analytic extension
                // accounts for.
                rs.compute = fr.compute + SimDuration::from_nanos(fr.delta.1 * n);
                rs.data_wait = fr.data_wait + SimDuration::from_nanos(fr.delta.2 * n);
                rs.comm_wait = fr.comm_wait + SimDuration::from_nanos(fr.delta.3 * n);
                rs.wait_start = None;
                rs.micro = 0;
            }
        }
        // Replay the host-bus load cycle for the skipped periods, then
        // advance the network clock to where the full simulation's last
        // network event would have left it.
        let w = self.net.last_advance();
        let host_bus = self.topo.host_bus(0);
        let p = SimDuration::from_nanos(period_ns);
        {
            let ff = self.ff.as_ref().req("ff state");
            self.net.replay_probe_load(host_bus, &ff.probe_prev, p, n);
        }
        self.net.clear_load_probe();
        self.net.advance(w + SimDuration::from_nanos(period_ns * n));
        self.ff_iterations = n;
        self.ff = None;
        // The skipped span becomes one explicitly-marked compressed series
        // bucket: the reporting rank's accumulators were just set to their
        // analytic end values, so the delta from the mark is exactly the
        // `n` skipped periods.
        if self.series.is_some() {
            if let Some(&r0) = self.active.first() {
                if let Some(end) = self.ranks[r0].done_at {
                    self.emit_series(r0, end, iter, n, n);
                }
            }
        }
    }

    // ----- communicator -------------------------------------------------

    fn notify_bucket_ready(&mut self, rank: usize, bucket: usize) {
        if self.comm.is_none() {
            return;
        }
        {
            let comm = self.comm.as_mut().req("comm");
            comm.ready[bucket] += 1;
        }
        self.note_bucket_notify(rank, bucket);
        self.try_start_comm();
    }

    /// Bounded-timeout straggler detection: pure bookkeeping on the
    /// first-to-last skew of each gradient bucket. Never perturbs timing.
    fn note_bucket_notify(&mut self, rank: usize, bucket: usize) {
        let now = self.q.now();
        let world = match &self.comm {
            Some(c) => c.world,
            None => return,
        };
        let ready = self.comm.as_ref().req("comm").ready[bucket];
        let Some(fr) = &mut self.faults else {
            return;
        };
        match fr.bucket_first[bucket] {
            None => fr.bucket_first[bucket] = Some(now),
            Some(first) if ready >= world => {
                let gap = now.duration_since(first);
                if gap > fr.timeout {
                    fr.detections.push(StragglerDetection {
                        at: now,
                        rank,
                        bucket,
                        gap,
                    });
                    fr.timeout = fr.timeout.mul_f64(fr.plan.recovery.straggler_backoff);
                }
            }
            Some(_) => {}
        }
    }

    fn try_start_comm(&mut self) {
        let Some(comm) = self.comm.as_ref() else {
            return;
        };
        let next = comm.started;
        if next >= self.plan.buckets.len()
            || comm.started != comm.completed // one bucket in flight at a time
            || comm.ready[next] < comm.world
        {
            return;
        }
        let transfers = &self.comm_plans[next];
        debug_assert!(!transfers.is_empty(), "world > 1 must communicate");
        let now = self.q.now();
        for t in transfers.iter() {
            self.net
                .start_flow_borrowed(now, &t.route, t.bytes, t.extra_latency, TAG_COMM);
        }
        let inflight = transfers.len();
        let comm = self.comm.as_mut().req("comm");
        comm.inflight_remaining = inflight;
        comm.started += 1;
        self.bucket_open = Some((now, next));
    }

    fn on_comm_flow_done(&mut self) {
        let comm = self.comm.as_mut().req("comm flow without communicator");
        comm.inflight_remaining -= 1;
        if comm.inflight_remaining > 0 {
            return;
        }
        comm.completed += 1;
        let bucket_start = self.bucket_open.take();
        if self.tracer.is_some() {
            let (start, bucket) = bucket_start.req("bucket completion without an open bucket");
            self.emit_span_arg(
                Track::comm(),
                self.comm_cat,
                "allreduce",
                bucket as u32,
                start,
                self.q.now(),
            );
        }
        let comm = self.comm.as_mut().req("comm flow without communicator");
        if comm.completed >= self.plan.buckets.len() {
            // Iteration's gradients are synchronised everywhere.
            comm.ready.iter_mut().for_each(|r| *r = 0);
            comm.started = 0;
            comm.completed = 0;
            if let Some(fr) = &mut self.faults {
                fr.bucket_first.iter_mut().for_each(|b| *b = None);
            }
            let now = self.q.now();
            let mut released = 0;
            for i in 0..self.active.len() {
                let rank = self.active[i];
                if self.ranks[rank].phase != Phase::AwaitComm {
                    continue;
                }
                released += 1;
                let start = self.ranks[rank].wait_start.take().req("wait start");
                self.ranks[rank].comm_wait += now.duration_since(start);
                if self.tracer.is_some() {
                    self.emit_span(
                        self.gpu_track(rank),
                        self.rank_cat(rank, self.comm_cat),
                        "await_comm",
                        start,
                        now,
                    );
                }
                self.start_step(rank);
            }
            debug_assert_eq!(released, self.comm.as_ref().req("comm").world);
        } else {
            self.try_start_comm();
        }
    }

    // ----- fault injection and recovery -----------------------------------

    /// `true` when the plan is fully resolved: every event fired, every
    /// window closed, every recovery completed. Fast-forward may only
    /// engage while this holds, so it can never skip a scheduled fault.
    fn faults_quiescent(&self) -> bool {
        self.faults
            .as_ref()
            .is_none_or(|fr| fr.outstanding == 0 && fr.replaying == 0)
    }

    /// Attributes straggler-window excess to the most recently opened
    /// window targeting `rank`.
    fn blame_straggler(&mut self, rank: usize, extra: SimDuration) {
        let Some(fr) = &mut self.faults else { return };
        for (i, ev) in fr.plan.events.iter().enumerate().rev() {
            if fr.open[i] {
                if let FaultKind::StragglerWindow { rank: r, .. } = ev.kind {
                    if r == rank {
                        fr.blame[i] += extra;
                        return;
                    }
                }
            }
        }
    }

    fn on_fault_fired(&mut self, idx: usize) {
        let now = self.q.now();
        let kind = {
            let fr = self.faults.as_mut().req("faults");
            fr.fired[idx] = true;
            fr.plan.events[idx].kind.clone()
        };
        if self.series.is_some() {
            // Fault windows overlay the series as annotations; they close
            // at resolution (window end or preemption recovery complete).
            let label = match &kind {
                FaultKind::Preemption { node, .. } => format!("preemption node{node}"),
                FaultKind::StragglerWindow { rank, .. } => format!("straggler rank{rank}"),
                FaultKind::LinkDegradation { node, .. } => format!("link node{node}"),
                FaultKind::DiskBrownout { node, .. } => format!("disk node{node}"),
            };
            self.series_annotate_open(idx, &label, kind.label());
        }
        match kind {
            FaultKind::StragglerWindow { rank, duration, .. } => {
                self.faults.as_mut().req("faults").open[idx] = true;
                self.refresh_slow_factor(rank);
                self.q.schedule_at(now + duration, Ev::FaultClear { idx });
            }
            FaultKind::LinkDegradation { node, duration, .. } => {
                self.faults.as_mut().req("faults").open[idx] = true;
                self.apply_nic_state(node);
                self.q.schedule_at(now + duration, Ev::FaultClear { idx });
            }
            FaultKind::DiskBrownout { node, duration, .. } => {
                self.faults.as_mut().req("faults").open[idx] = true;
                self.apply_ssd_state(node);
                self.q.schedule_at(now + duration, Ev::FaultClear { idx });
            }
            FaultKind::Preemption { .. } => {
                self.faults
                    .as_mut()
                    .req("faults")
                    .preempt_queue
                    .push_back(idx);
                self.arm_next_preemption();
            }
        }
    }

    fn on_fault_cleared(&mut self, idx: usize) {
        let kind = {
            let fr = self.faults.as_mut().req("faults");
            fr.open[idx] = false;
            fr.plan.events[idx].kind.clone()
        };
        match kind {
            FaultKind::StragglerWindow { rank, .. } => self.refresh_slow_factor(rank),
            FaultKind::LinkDegradation { node, .. } => self.apply_nic_state(node),
            FaultKind::DiskBrownout { node, .. } => self.apply_ssd_state(node),
            FaultKind::Preemption { .. } => unreachable!("preemptions have no clear event"),
        }
        self.resolve_fault(idx);
    }

    /// Re-derives `rank`'s slowdown multiplier from the open straggler
    /// windows: the product is exactly 1.0 again when the last closes.
    fn refresh_slow_factor(&mut self, rank: usize) {
        let fr = self.faults.as_mut().req("faults");
        let mut f = 1.0;
        for (i, ev) in fr.plan.events.iter().enumerate() {
            if fr.open[i] {
                if let FaultKind::StragglerWindow {
                    rank: r, slowdown, ..
                } = ev.kind
                {
                    if r == rank {
                        f *= slowdown;
                    }
                }
            }
        }
        fr.slow_factor[rank] = f;
    }

    /// Re-derives a node's NIC capacities from the open degradation
    /// windows: multiplicative over overlapping windows against the
    /// *nominal* capacity, so the restore when the last window closes is
    /// exact.
    fn apply_nic_state(&mut self, node: usize) {
        let now = self.q.now();
        let (targets, factor) = {
            let fr = self.faults.as_ref().req("faults");
            let mut f = 1.0;
            for (i, ev) in fr.plan.events.iter().enumerate() {
                if fr.open[i] {
                    if let FaultKind::LinkDegradation {
                        node: n, factor, ..
                    } = ev.kind
                    {
                        if n == node {
                            f *= factor;
                        }
                    }
                }
            }
            (fr.nominal_nic[node], f)
        };
        for (l, nominal) in targets {
            self.net.set_link_capacity(now, l, nominal * factor);
        }
    }

    /// Re-derives a node's SSD capacity and the loader's brownout retry
    /// flag from the open brownout windows.
    fn apply_ssd_state(&mut self, node: usize) {
        let now = self.q.now();
        let ((link, nominal), factor, brown) = {
            let fr = self.faults.as_ref().req("faults");
            let mut f = 1.0;
            let mut brown = false;
            for (i, ev) in fr.plan.events.iter().enumerate() {
                if fr.open[i] {
                    if let FaultKind::DiskBrownout {
                        node: n, factor, ..
                    } = ev.kind
                    {
                        if n == node {
                            f *= factor;
                            brown = true;
                        }
                    }
                }
            }
            (fr.nominal_ssd[node], f, brown)
        };
        self.net.set_link_capacity(now, link, nominal * factor);
        if let Some(loader) = self.loaders[node].as_mut() {
            loader.set_brownout(brown);
        }
    }

    /// Fault bookkeeping at an iteration boundary: completes replay
    /// re-billing and parks the rank when a preemption barrier is armed
    /// (preemptions are quantized to iteration boundaries). Returns
    /// `true` when the rank was parked or retired and must not begin
    /// another iteration through the normal path.
    fn on_fault_step_boundary(&mut self, rank: usize) -> bool {
        if self
            .faults
            .as_ref()
            .and_then(|fr| fr.replay[rank])
            .is_some_and(|(until, _, _)| self.ranks[rank].iter >= until)
        {
            self.finish_replay(rank);
        }
        if self.faults.as_ref().is_none_or(|fr| fr.barrier.is_none()) {
            return false;
        }
        let now = self.q.now();
        if self.ranks[rank].iter >= self.sim_iters {
            // The epoch is already over for this rank; finished work is
            // final (the terminal state counts as checkpointed).
            self.ranks[rank].phase = Phase::Done;
            self.ranks[rank].done_at = Some(now);
        } else {
            self.ranks[rank].phase = Phase::Recovering;
            self.ranks[rank].wait_start = Some(now);
        }
        self.try_complete_barrier();
        true
    }

    /// Replay of lost iterations finished: everything accrued since the
    /// rollback snapshot is re-billed as recovery stall. The rank's total
    /// accounted time is unchanged, so its timeline still tiles exactly.
    fn finish_replay(&mut self, rank: usize) {
        let Some(fr) = &mut self.faults else { return };
        let Some((_, snap, idx)) = fr.replay[rank].take() else {
            return;
        };
        fr.replaying -= 1;
        let r = &mut self.ranks[rank];
        let delta = r.compute.saturating_sub(snap.compute)
            + r.data_wait.saturating_sub(snap.data_wait)
            + r.comm_wait.saturating_sub(snap.comm_wait);
        r.recovery += delta;
        r.compute = snap.compute;
        r.data_wait = snap.data_wait;
        r.comm_wait = snap.comm_wait;
        fr.blame[idx] += delta;
        // The rewound accumulators must never underflow a later
        // per-iteration sample's baseline.
        if self.cfg.record_trace && rank == self.active[0] {
            self.iter_mark.data_wait = self.ranks[rank].data_wait;
            self.iter_mark.comm_wait = self.ranks[rank].comm_wait;
        }
        // The series already recorded the replayed work as compute/data/
        // comm; emit the rewind as a zero-width correction (negative
        // category deltas, positive recovery) so its running totals keep
        // matching the accumulators exactly.
        if self.series.is_some() && rank == self.active[0] {
            let now = self.q.now();
            let it = self.ranks[rank].iter;
            self.emit_series(rank, now, it, 0, 0);
        }
    }

    /// Completes the armed preemption barrier once every active rank is
    /// parked (or done): restart-style preemptions schedule the resume,
    /// elastic ones re-form the cluster in place.
    fn try_complete_barrier(&mut self) {
        let Some(idx) = self.faults.as_ref().and_then(|fr| fr.barrier) else {
            return;
        };
        let all_in = self
            .active
            .iter()
            .all(|&r| matches!(self.ranks[r].phase, Phase::Recovering | Phase::Done));
        if !all_in {
            return;
        }
        let kind = self.faults.as_ref().req("faults").plan.events[idx]
            .kind
            .clone();
        let FaultKind::Preemption { restart_after, .. } = kind else {
            unreachable!("barrier is only armed by preemptions");
        };
        let parked = self
            .active
            .iter()
            .any(|&r| self.ranks[r].phase == Phase::Recovering);
        self.faults.as_mut().req("faults").barrier = None;
        if !parked {
            // The epoch outran the fault: nothing left to preempt.
            self.resolve_fault(idx);
            return;
        }
        // Both outcomes pay a wall-clock gap before training resumes:
        // replacement capacity for a restart, rendezvous + communicator
        // rebuild for an elastic re-formation.
        let delay = restart_after.unwrap_or(
            self.faults
                .as_ref()
                .req("faults")
                .plan
                .recovery
                .reform_delay,
        );
        self.faults.as_mut().req("faults").resume = Some(idx);
        self.q.schedule_in(delay, Ev::FaultResume);
    }

    /// The restart delay elapsed: bill the outage, roll every parked rank
    /// back to its last checkpoint (lost iterations will be replayed) and
    /// resume training.
    fn on_fault_resume(&mut self) {
        let now = self.q.now();
        let Some(idx) = self.faults.as_mut().req("faults").resume.take() else {
            return;
        };
        let kind = self.faults.as_ref().req("faults").plan.events[idx]
            .kind
            .clone();
        let FaultKind::Preemption {
            node,
            restart_after,
        } = kind
        else {
            unreachable!("resume is only armed by preemptions");
        };
        if restart_after.is_none() {
            self.reform_elastic(idx, node);
            return;
        }
        let ckpt = self
            .faults
            .as_ref()
            .req("faults")
            .plan
            .recovery
            .checkpoint_every
            .max(1);
        let mut resumed: Vec<usize> = Vec::new();
        for i in 0..self.active.len() {
            let rank = self.active[i];
            if self.ranks[rank].phase != Phase::Recovering {
                continue;
            }
            let start = self.ranks[rank].wait_start.take().req("barrier wait start");
            let wait = now.duration_since(start);
            self.ranks[rank].recovery += wait;
            self.emit_span(
                self.gpu_track(rank),
                Category::Recovery,
                "preempt_wait",
                start,
                now,
            );
            let it = self.ranks[rank].iter;
            let ck = (it / ckpt) * ckpt;
            let snap = AccumSnap {
                compute: self.ranks[rank].compute,
                data_wait: self.ranks[rank].data_wait,
                comm_wait: self.ranks[rank].comm_wait,
            };
            let fr = self.faults.as_mut().req("faults");
            fr.blame[idx] += wait;
            if ck < it {
                // Iterations since the last checkpoint are lost. A rank
                // caught mid-replay keeps its original snapshot and
                // replay target; it only rolls further back.
                if fr.replay[rank].is_none() {
                    fr.replay[rank] = Some((it, snap, idx));
                    fr.replaying += 1;
                }
                fr.replayed_iterations += it - ck;
                self.ranks[rank].iter = ck;
            }
            resumed.push(rank);
        }
        // Fresh per-iteration mark for the reporting rank: the sample
        // covering the outage would otherwise swallow the recovery gap.
        if self.cfg.record_trace && resumed.contains(&self.active[0]) {
            self.iter_mark.start = now;
        }
        for &rank in &resumed {
            self.begin_iteration(rank);
        }
        self.resolve_fault(idx);
    }

    /// Elastic re-formation: the preempted node's ranks retire where they
    /// stand, the survivors bill the barrier wait as recovery stall,
    /// rebuild the collective over the survivor ring and continue.
    fn reform_elastic(&mut self, idx: usize, node: usize) {
        let now = self.q.now();
        let mut resumed: Vec<usize> = Vec::new();
        let mut survivors: Vec<usize> = Vec::new();
        for i in 0..self.active.len() {
            let rank = self.active[i];
            if self.ranks[rank].phase == Phase::Recovering {
                let start = self.ranks[rank].wait_start.take().req("barrier wait start");
                let wait = now.duration_since(start);
                self.ranks[rank].recovery += wait;
                self.faults.as_mut().req("faults").blame[idx] += wait;
                self.emit_span(
                    self.gpu_track(rank),
                    Category::Recovery,
                    "reform_wait",
                    start,
                    now,
                );
            }
            if self.ranks[rank].gpu.node == node {
                let fr = self.faults.as_mut().req("faults");
                if fr.replay[rank].take().is_some() {
                    fr.replaying -= 1;
                }
                fr.dead_ranks.push(rank);
                self.ranks[rank].phase = Phase::Done;
                if self.ranks[rank].done_at.is_none() {
                    self.ranks[rank].done_at = Some(now);
                }
            } else {
                if self.ranks[rank].phase == Phase::Recovering {
                    resumed.push(rank);
                }
                survivors.push(rank);
            }
        }
        self.active = survivors;
        self.faults.as_mut().req("faults").dead_nodes[node] = true;
        self.loaders[node] = None;
        // Rescale the collective to the survivor ring.
        let world = self.active.len();
        if world > 1 {
            let ring: Vec<GpuId> = self.active.iter().map(|&r| self.ranks[r].gpu).collect();
            self.comm = Some(Comm {
                world,
                ready: vec![0; self.plan.buckets.len()],
                started: 0,
                completed: 0,
                inflight_remaining: 0,
            });
            self.comm_plans = self
                .plan
                .buckets
                .iter()
                .map(|b| {
                    let bytes = b.bytes * self.cfg.precision.gradient_bytes_per_param() / 4.0;
                    allreduce_transfers_among(
                        &self.topo,
                        &self.net,
                        self.cfg.algorithm,
                        bytes,
                        &ring,
                    )
                })
                .collect();
        } else {
            self.comm = None;
            self.comm_plans.clear();
        }
        // Fresh per-iteration mark: the reporting rank may have changed.
        if self.cfg.record_trace && !self.active.is_empty() {
            let r = &self.ranks[self.active[0]];
            self.iter_mark = IterMark {
                start: now,
                data_wait: r.data_wait,
                comm_wait: r.comm_wait,
            };
        }
        // Rebase the series onto the (possibly new) reporting rank: the
        // zero-iteration bucket's deltas are new-rank accumulators minus
        // the totals recorded so far, so the running sums continue to
        // match the rank the report will read.
        if self.series.is_some() {
            if let Some(&r0) = self.active.first() {
                let it = self.ranks[r0].iter;
                self.emit_series(r0, now, it, 0, 0);
            }
        }
        for &rank in &resumed {
            self.begin_iteration(rank);
        }
        self.resolve_fault(idx);
    }

    /// Marks a plan event fully resolved and arms the next queued
    /// preemption, if any.
    fn resolve_fault(&mut self, idx: usize) {
        self.series_annotate_close(idx);
        self.faults.as_mut().req("faults").outstanding -= 1;
        self.arm_next_preemption();
    }

    fn arm_next_preemption(&mut self) {
        let armed = {
            let fr = self.faults.as_mut().req("faults");
            if fr.barrier.is_none() && fr.resume.is_none() {
                if let Some(next) = fr.preempt_queue.pop_front() {
                    fr.barrier = Some(next);
                    true
                } else {
                    false
                }
            } else {
                false
            }
        };
        if armed {
            // Every rank may already be parked or done (back-to-back
            // preemptions).
            self.try_complete_barrier();
        }
    }

    /// Consumes the fault runtime into the outcome half of the result.
    fn fault_outcome(&mut self) -> FaultOutcome {
        match self.faults.take() {
            None => FaultOutcome::default(),
            Some(fr) => FaultOutcome {
                events: fr
                    .plan
                    .events
                    .iter()
                    .enumerate()
                    .map(|(i, ev)| FaultRecord {
                        label: ev.kind.label().to_string(),
                        at: ev.at,
                        fired: fr.fired[i],
                        blame: fr.blame[i],
                    })
                    .collect(),
                detections: fr.detections,
                replayed_iterations: fr.replayed_iterations,
                dead_nodes: fr
                    .dead_nodes
                    .iter()
                    .enumerate()
                    .filter_map(|(n, &d)| d.then_some(n))
                    .collect(),
            },
        }
    }

    // ----- loaders --------------------------------------------------------

    fn apply_loader_actions(&mut self, node: usize, actions: Vec<LoaderAction>) {
        // Pooled work-list: `apply_loader_actions` never re-enters itself,
        // so the engine-owned deque is always free here.
        let mut work = std::mem::take(&mut self.loader_work);
        debug_assert!(work.is_empty());
        work.extend(actions.into_iter().map(|a| (node, a)));
        while let Some((n, action)) = work.pop_front() {
            match action {
                LoaderAction::StartTransfer {
                    worker,
                    route,
                    bytes,
                    extra_latency,
                    purpose,
                } => {
                    if self.tracer.is_some() {
                        let now = self.q.now();
                        let track = Track::loader(n, worker);
                        match purpose {
                            TransferPurpose::FetchHit => {
                                self.emit_instant(track, Category::Cache, "cache_hit", now);
                            }
                            TransferPurpose::FetchMiss => {
                                self.emit_instant(track, Category::Cache, "cache_miss", now);
                            }
                            TransferPurpose::Upload => {}
                        }
                    }
                    if self.tracer.is_some() || stash_telemetry::enabled() {
                        // Transfer timing is emergent (flow-based), so the
                        // service-time histogram and fetch spans both key
                        // off this open-transfer table.
                        self.xfer_open.insert((n, worker), (self.q.now(), purpose));
                    }
                    self.net.start_flow(
                        self.q.now(),
                        FlowSpec {
                            route,
                            bytes,
                            extra_latency,
                            tag: loader_tag(n, worker),
                        },
                    );
                }
                LoaderAction::StartPrep { worker, duration } => {
                    if self.tracer.is_some() {
                        let now = self.q.now();
                        self.emit_span(
                            Track::loader(n, worker),
                            Category::Prep,
                            "prep",
                            now,
                            now + duration,
                        );
                    }
                    self.q
                        .schedule_in(duration, Ev::LoaderPrep { node: n, worker });
                }
                LoaderAction::Deliver { gpu } => {
                    let rank = self.global_rank(n, gpu);
                    if self.ranks[rank].phase == Phase::AwaitBatch {
                        let (ok, more) = self.loaders[n].as_mut().req("loader").try_take(gpu);
                        debug_assert!(ok, "delivery must satisfy a waiting GPU");
                        let now = self.q.now();
                        let start = self.ranks[rank].wait_start.take().req("wait start");
                        self.ranks[rank].data_wait += now.duration_since(start);
                        if self.tracer.is_some() {
                            self.emit_span(
                                self.gpu_track(rank),
                                self.rank_cat(rank, Category::Fetch),
                                "await_batch",
                                start,
                                now,
                            );
                        }
                        self.start_forward(rank);
                        for a in more {
                            work.push_back((n, a));
                        }
                    }
                }
            }
        }
        self.loader_work = work;
    }

    fn global_rank(&self, node: usize, local: usize) -> usize {
        let mut rank = 0;
        for (n, inst) in self.cfg.cluster.instances.iter().enumerate() {
            if n == node {
                return rank + local;
            }
            rank += inst.gpu_count;
        }
        panic!("node {node} out of range");
    }

    // ----- flow plumbing ---------------------------------------------------

    fn drain_flows(&mut self) {
        loop {
            // Ping-pong the pooled buffer with the network's completion
            // list: no allocation on either side.
            let mut completed = std::mem::take(&mut self.completed_buf);
            self.net.drain_completed_into(&mut completed);
            if completed.is_empty() {
                self.completed_buf = completed;
                break;
            }
            for &(_, tag) in completed.iter() {
                if tag & TAG_COMM != 0 {
                    self.on_comm_flow_done();
                } else {
                    let (node, worker) = decode_loader_tag(tag);
                    if let Some((start, purpose)) = self.xfer_open.remove(&(node, worker)) {
                        stash_telemetry::metrics::DATA_FETCH_SERVICE_NS
                            .record(self.q.now().duration_since(start).as_nanos());
                        if self.tracer.is_some() {
                            let name = match purpose {
                                TransferPurpose::FetchHit => "fetch_dram",
                                TransferPurpose::FetchMiss => "fetch_disk",
                                TransferPurpose::Upload => "h2d",
                            };
                            self.emit_span(
                                Track::loader(node, worker),
                                Category::Fetch,
                                name,
                                start,
                                self.q.now(),
                            );
                        }
                    }
                    // A preempted node's loader is gone; its in-flight
                    // transfers complete into the void.
                    if let Some(loader) = self.loaders[node].as_mut() {
                        let actions = loader.transfer_done(worker);
                        self.apply_loader_actions(node, actions);
                    }
                }
            }
            self.completed_buf = completed;
        }
    }

    fn schedule_wake(&mut self) {
        let now = self.q.now();
        if let Some(t) = self.net.next_event_time(now) {
            let t = t.max(now + SimDuration::from_nanos(1));
            if self.next_wake.is_none_or(|(w, _)| t < w) {
                // The earlier prediction wins; the superseded wake is
                // cancelled O(1) so it can never be delivered stale.
                if let Some((_, key)) = self.next_wake.take() {
                    self.q.cancel(key);
                }
                let key = self.q.schedule_at(t, Ev::NetWake);
                self.next_wake = Some((t, key));
            }
        }
    }

    // ----- reporting --------------------------------------------------------

    fn build_report(&mut self) -> EpochReport {
        // The solver/queue registry metrics are recorded at their own
        // hot-path sites; only epoch-scoped facts flush here. The report
        // itself never carries them: it must stay bit-identical across
        // fast-forward on/off and arena reuse.
        stash_telemetry::metrics::FF_ITERATIONS.add(self.ff_iterations);
        stash_telemetry::metrics::EPOCHS.inc();
        let full_iters = self.cfg.epoch_iterations();
        let factor = full_iters as f64 / self.sim_iters as f64;
        let sim_end = self
            .active
            .iter()
            .filter_map(|r| self.ranks[*r].done_at)
            .max()
            .req("all ranks done");
        let r0 = &self.ranks[self.active[0]];
        // Extrapolate from the steady state: the first iteration carries
        // the pipeline fill (prefetch queues, cold flows), so it is billed
        // once and only the remaining iterations are scaled.
        let first_iter_end = self
            .active
            .iter()
            .filter_map(|r| self.ranks[*r].first_iter_done)
            .max()
            .unwrap_or(sim_end);
        let epoch_time = if self.sim_iters > 1 && full_iters > 1 {
            let warmup = first_iter_end - SimTime::ZERO;
            let steady = sim_end.duration_since(first_iter_end);
            warmup + steady.mul_f64((full_iters - 1) as f64 / (self.sim_iters - 1) as f64)
        } else {
            (sim_end - SimTime::ZERO).mul_f64(factor)
        };
        let world = self.active.len();
        let samples = match &self.faults {
            // Keep the historic formula verbatim on the fault-free path.
            None => self.cfg.samples_per_gpu * world as u64,
            // Under faults ranks can retire early (elastic) so the epoch's
            // useful work is whatever each rank actually completed.
            Some(fr) => {
                let per_iter = self.cfg.per_gpu_batch * self.cfg.grad_accumulation.max(1);
                let simulated: u64 = self
                    .active
                    .iter()
                    .chain(fr.dead_ranks.iter())
                    .map(|&r| self.ranks[r].iter * per_iter)
                    .sum();
                (simulated as f64 * factor).round() as u64
            }
        };
        EpochReport {
            cluster: self.cfg.cluster.display_name(),
            model: self.cfg.model.name.clone(),
            per_gpu_batch: self.cfg.per_gpu_batch,
            world,
            iterations: full_iters,
            simulated_iterations: self.sim_iters,
            epoch_time,
            compute_time: r0.compute.mul_f64(factor),
            data_wait: r0.data_wait.mul_f64(factor),
            comm_wait: r0.comm_wait.mul_f64(factor),
            recovery_time: r0.recovery.mul_f64(factor),
            straggler_time: r0.straggler.mul_f64(factor),
            samples,
            throughput: samples as f64 / epoch_time.as_secs_f64().max(1e-12),
            host_bus_utilization: self.net.link_utilization(self.topo.host_bus(0)),
            trace: std::mem::take(&mut self.trace),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::config::EpochMode;
    use stash_datapipe::cache::CacheState;
    use stash_dnn::dataset::DatasetSpec;
    use stash_dnn::zoo;
    use stash_hwtopo::cluster::ClusterSpec;
    use stash_hwtopo::instance::{p2_16xlarge, p3_16xlarge, p3_2xlarge, p3_8xlarge};

    fn quick(mut cfg: TrainConfig) -> EpochReport {
        cfg.epoch_mode = EpochMode::Sampled { iterations: 4 };
        run_epoch(&cfg).expect("run")
    }

    #[test]
    fn single_gpu_synthetic_matches_compute_model() {
        let model = zoo::resnet18();
        let cfg = TrainConfig::synthetic(ClusterSpec::single(p3_2xlarge()), model.clone(), 32, 320);
        let report = quick(cfg);
        let cm = ComputeModel::new(stash_hwtopo::gpu::GpuModel::V100.spec());
        let expected = cm.iteration_time(&model, 32).as_secs_f64() * 10.0;
        let got = report.epoch_time.as_secs_f64();
        assert!(
            (got - expected).abs() / expected < 0.01,
            "engine {got} vs analytic {expected}"
        );
        assert_eq!(report.comm_wait, SimDuration::ZERO);
        assert_eq!(report.data_wait, SimDuration::ZERO);
    }

    #[test]
    fn multi_gpu_is_slower_per_sample_than_single() {
        // Same per-GPU work; the distributed run adds communication.
        let model = zoo::resnet18();
        let single = {
            let mut c =
                TrainConfig::synthetic(ClusterSpec::single(p3_16xlarge()), model.clone(), 32, 320);
            c.active = ActiveGpus::Single;
            quick(c)
        };
        let multi = quick(TrainConfig::synthetic(
            ClusterSpec::single(p3_16xlarge()),
            model.clone(),
            32,
            320,
        ));
        assert!(multi.epoch_time > single.epoch_time);
        assert!(multi.comm_wait > SimDuration::ZERO || multi.compute_time > single.compute_time);
    }

    #[test]
    fn pcie_sixteen_gpus_stall_far_more_than_nvlink_eight() {
        let model = zoo::resnet18();
        let p2 = quick(TrainConfig::synthetic(
            ClusterSpec::single(p2_16xlarge()),
            model.clone(),
            32,
            320,
        ));
        let p3 = quick(TrainConfig::synthetic(
            ClusterSpec::single(p3_16xlarge()),
            model,
            32,
            320,
        ));
        assert!(
            p2.comm_wait_fraction() > 2.0 * p3.comm_wait_fraction(),
            "p2 {} vs p3 {}",
            p2.comm_wait_fraction(),
            p3.comm_wait_fraction()
        );
    }

    #[test]
    fn cold_cache_is_slower_than_warm() {
        let model = zoo::resnet18();
        let mk = |cache| {
            let mut c =
                TrainConfig::synthetic(ClusterSpec::single(p3_16xlarge()), model.clone(), 32, 320);
            c.data = DataMode::Real {
                dataset: DatasetSpec::imagenet1k(),
                cache,
            };
            quick(c)
        };
        let cold = mk(CacheState::Cold);
        let warm = mk(CacheState::Warm);
        assert!(
            cold.epoch_time > warm.epoch_time,
            "cold {} warm {}",
            cold.epoch_time,
            warm.epoch_time
        );
        assert!(cold.data_wait >= warm.data_wait);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut cfg = TrainConfig::synthetic(
            ClusterSpec::single(p3_2xlarge()),
            zoo::bert_large(),
            64,
            640,
        );
        cfg.epoch_mode = EpochMode::Sampled { iterations: 2 };
        match run_epoch(&cfg) {
            Err(TrainError::OutOfMemory { .. }) => {}
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn overlap_off_is_no_faster_than_on() {
        let model = zoo::resnet50();
        let mut on =
            TrainConfig::synthetic(ClusterSpec::single(p3_16xlarge()), model.clone(), 32, 320);
        on.epoch_mode = EpochMode::Sampled { iterations: 4 };
        let mut off = on.clone();
        off.overlap = false;
        let r_on = run_epoch(&on).unwrap();
        let r_off = run_epoch(&off).unwrap();
        assert!(r_off.epoch_time >= r_on.epoch_time);
    }

    #[test]
    fn network_split_is_slower_than_single_instance() {
        let model = zoo::resnet18();
        let single = quick(TrainConfig::synthetic(
            ClusterSpec::single(p3_16xlarge()),
            model.clone(),
            32,
            320,
        ));
        let split = quick(TrainConfig::synthetic(
            ClusterSpec::homogeneous(p3_8xlarge(), 2),
            model,
            32,
            320,
        ));
        assert!(
            split.epoch_time > single.epoch_time,
            "split {} single {}",
            split.epoch_time,
            single.epoch_time
        );
    }

    #[test]
    fn traced_report_is_bit_identical_and_spans_reconcile() {
        use stash_trace::rollup::StallRollup;
        use stash_trace::{shared, JsonSink, Tracer};
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut cfg =
            TrainConfig::synthetic(ClusterSpec::single(p3_16xlarge()), zoo::resnet18(), 32, 320);
        cfg.data = DataMode::Real {
            dataset: DatasetSpec::imagenet1k(),
            cache: CacheState::Warm,
        };
        cfg.epoch_mode = EpochMode::Sampled { iterations: 4 };
        let untraced = run_epoch(&cfg).unwrap();
        let sink = Rc::new(RefCell::new(JsonSink::new()));
        let tracer = shared(Tracer::new(sink.clone()));
        let traced = Run {
            tracer: Some(&tracer),
            ..Run::default()
        }
        .epoch(&cfg)
        .unwrap()
        .report;
        assert_eq!(untraced.epoch_time, traced.epoch_time);
        assert_eq!(untraced.compute_time, traced.compute_time);
        assert_eq!(untraced.data_wait, traced.data_wait);
        assert_eq!(untraced.comm_wait, traced.comm_wait);

        // Raw span sums on rank 0's lane, extrapolated exactly like the
        // report's accumulators, must reproduce the report to the ns.
        let rollup = StallRollup::from_events(sink.borrow().events());
        let factor = traced.iterations as f64 / traced.simulated_iterations as f64;
        let track0 = Track::gpu(0, 0);
        assert_eq!(
            rollup
                .track_total(track0, Category::Compute)
                .mul_f64(factor),
            traced.compute_time
        );
        assert_eq!(
            rollup.track_total(track0, Category::Fetch).mul_f64(factor),
            traced.data_wait
        );
        let comm_raw = rollup.track_total(track0, Category::Interconnect)
            + rollup.track_total(track0, Category::Network);
        assert_eq!(comm_raw.mul_f64(factor), traced.comm_wait);
        assert!(
            traced.comm_wait > SimDuration::ZERO,
            "8 GPUs must synchronise"
        );
    }

    #[test]
    fn disabled_tracer_emits_nothing_and_changes_nothing() {
        use stash_trace::{shared, Tracer};

        let mut cfg =
            TrainConfig::synthetic(ClusterSpec::single(p3_8xlarge()), zoo::alexnet(), 32, 320);
        cfg.epoch_mode = EpochMode::Sampled { iterations: 3 };
        let baseline = run_epoch(&cfg).unwrap();
        let tracer = shared(Tracer::disabled());
        let traced = Run {
            tracer: Some(&tracer),
            ..Run::default()
        }
        .epoch(&cfg)
        .unwrap()
        .report;
        assert_eq!(baseline.epoch_time, traced.epoch_time);
        assert_eq!(baseline.compute_time, traced.compute_time);
        assert_eq!(baseline.comm_wait, traced.comm_wait);
        assert_eq!(tracer.borrow().events_emitted(), 0);
    }

    #[test]
    fn deterministic_replay() {
        let cfg = TrainConfig::synthetic(
            ClusterSpec::homogeneous(p3_8xlarge(), 2),
            zoo::alexnet(),
            32,
            320,
        );
        let a = quick(cfg.clone());
        let b = quick(cfg);
        assert_eq!(a.epoch_time, b.epoch_time);
        assert_eq!(a.comm_wait, b.comm_wait);
    }

    #[test]
    fn extrapolation_scales_linearly() {
        let mut cfg = TrainConfig::synthetic(
            ClusterSpec::single(p3_2xlarge()),
            zoo::alexnet(),
            32,
            32 * 100,
        );
        cfg.epoch_mode = EpochMode::Sampled { iterations: 5 };
        let sampled = run_epoch(&cfg).unwrap();
        cfg.epoch_mode = EpochMode::Full;
        let full = run_epoch(&cfg).unwrap();
        let rel = (sampled.epoch_time.as_secs_f64() - full.epoch_time.as_secs_f64()).abs()
            / full.epoch_time.as_secs_f64();
        assert!(rel < 0.01, "sampled vs full differ by {rel}");
    }

    // ----- fault injection ------------------------------------------------

    use stash_faults::plan::FaultEvent;

    /// A full-epoch config (factor 1) so faulted accumulators must tile
    /// the wall clock *exactly* at integer-nanosecond resolution.
    fn full_cfg(cluster: ClusterSpec, iters: u64) -> TrainConfig {
        let mut cfg = TrainConfig::synthetic(cluster, zoo::resnet18(), 32, 32 * iters);
        cfg.epoch_mode = EpochMode::Full;
        cfg
    }

    fn faulted(cfg: &TrainConfig, plan: &FaultPlan) -> Result<FaultedRun, TrainError> {
        Run {
            plan: Some(plan),
            ..Run::default()
        }
        .epoch(cfg)
    }

    fn assert_tiles(r: &EpochReport) {
        let accounted =
            r.compute_time + r.data_wait + r.comm_wait + r.recovery_time + r.straggler_time;
        assert_eq!(
            accounted.as_nanos(),
            r.epoch_time.as_nanos(),
            "rank-0 accumulators must tile the epoch exactly"
        );
    }

    #[test]
    fn empty_plan_is_bit_identical_to_fault_free() {
        let cfg = full_cfg(ClusterSpec::single(p3_16xlarge()), 6);
        let plain = run_epoch(&cfg).expect("plain");
        let faulted = faulted(&cfg, &FaultPlan::empty()).expect("faulted");
        assert_eq!(plain, faulted.report);
        assert_eq!(faulted.faults, crate::recovery::FaultOutcome::default());
    }

    #[test]
    fn straggler_window_inflates_epoch_and_tiles_exactly() {
        let cfg = full_cfg(ClusterSpec::single(p3_16xlarge()), 8);
        let base = run_epoch(&cfg).expect("baseline");
        let mut plan = FaultPlan::empty();
        plan.events.push(FaultEvent {
            at: SimTime::ZERO + base.epoch_time.mul_f64(0.15),
            kind: FaultKind::StragglerWindow {
                rank: 0,
                duration: base.epoch_time.mul_f64(0.4),
                slowdown: 1.8,
            },
        });
        let run = faulted(&cfg, &plan).expect("faulted");
        assert!(run.report.epoch_time > base.epoch_time);
        assert!(run.report.straggler_time > SimDuration::ZERO);
        assert_eq!(run.report.recovery_time, SimDuration::ZERO);
        assert_tiles(&run.report);
        assert!(run.faults.events[0].fired);
        assert!(run.faults.events[0].blame > SimDuration::ZERO);
        // The nominal kernel time is unchanged: all excess is separated.
        assert_eq!(run.report.compute_time, base.compute_time);
    }

    #[test]
    fn preemption_with_restart_bills_recovery_and_replays() {
        let cfg = full_cfg(ClusterSpec::single(p3_16xlarge()), 10);
        let base = run_epoch(&cfg).expect("baseline");
        let mut plan = FaultPlan::empty();
        plan.recovery.checkpoint_every = 4;
        plan.events.push(FaultEvent {
            at: SimTime::ZERO + base.epoch_time.mul_f64(0.55),
            kind: FaultKind::Preemption {
                node: 0,
                restart_after: Some(base.epoch_time.mul_f64(0.1)),
            },
        });
        let run = faulted(&cfg, &plan).expect("faulted");
        assert!(run.report.epoch_time > base.epoch_time);
        assert!(run.report.recovery_time > SimDuration::ZERO);
        assert!(run.faults.replayed_iterations > 0);
        assert!(run.faults.events[0].fired);
        assert!(run.faults.events[0].blame > SimDuration::ZERO);
        assert_tiles(&run.report);
        // Work is conserved: the same samples are processed, just later.
        assert_eq!(run.report.samples, base.samples);
        assert!(run.faults.dead_nodes.is_empty());
    }

    #[test]
    fn elastic_preemption_retires_the_node_and_continues() {
        let cfg = full_cfg(ClusterSpec::homogeneous(p3_8xlarge(), 2), 10);
        let base = run_epoch(&cfg).expect("baseline");
        let mut plan = FaultPlan::empty();
        plan.events.push(FaultEvent {
            at: SimTime::ZERO + base.epoch_time.mul_f64(0.5),
            kind: FaultKind::Preemption {
                node: 1,
                restart_after: None,
            },
        });
        let run = faulted(&cfg, &plan).expect("faulted");
        assert_eq!(run.faults.dead_nodes, vec![1]);
        assert_eq!(run.report.world, 4, "survivor world after re-formation");
        assert!(run.report.recovery_time > SimDuration::ZERO);
        assert!(
            run.report.samples < base.samples,
            "dead ranks stop contributing samples"
        );
        assert_tiles(&run.report);
    }

    #[test]
    fn faulted_runs_are_deterministic_and_ff_invariant() {
        let cfg = full_cfg(ClusterSpec::single(p3_16xlarge()), 10);
        let base = run_epoch(&cfg).expect("baseline");
        let plan = FaultPlan::seeded(11, 8, 1, base.epoch_time);
        let a = faulted(&cfg, &plan).expect("a");
        let b = faulted(&cfg, &plan).expect("b");
        assert_eq!(a, b);
        let no_ff = Run {
            options: EngineOptions {
                fast_forward: false,
            },
            plan: Some(&plan),
            ..Run::default()
        }
        .epoch(&cfg)
        .expect("no ff");
        assert_eq!(a, no_ff, "fast-forward must not change faulted results");
    }
}
