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
use stash_datapipe::loader::{
    LoaderAction, LoaderSpec, NodeLoader, TransferPurpose, DEFAULT_WORKERS_PER_GPU,
};
use stash_faults::plan::{FaultKind, FaultPlan};
use stash_flowsim::link::{LinkClass, LinkId};
use stash_flowsim::net::FlowNet;
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
/// armed, the fast-forward state at an iteration boundary, the per-node
/// loaders after setup). This makes the invariant explicit at each site while
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

impl Ev {
    /// Whether the event's time is fixed by the fault plan or a recovery
    /// delay rather than by the periodic dynamics. State keys leave pinned
    /// events out, and a fast-forward skip moves every other event but
    /// lands it before the earliest pinned one.
    fn pinned(&self) -> bool {
        matches!(
            self,
            Ev::Fault { .. } | Ev::FaultClear { .. } | Ev::FaultResume
        )
    }

    /// One word naming the event and its target, for state keys; `None`
    /// for a pinned event.
    fn code(&self) -> Option<u64> {
        match *self {
            Ev::NetWake => Some(0),
            Ev::RankCompute { rank } => Some(1 << 56 | rank as u64),
            Ev::LoaderPrep { node, worker } => Some(2 << 56 | (node as u64) << 24 | worker as u64),
            Ev::Fault { .. } | Ev::FaultClear { .. } | Ev::FaultResume => None,
        }
    }
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

impl Phase {
    /// Two words naming the phase, for state keys.
    fn code(self) -> [u64; 2] {
        match self {
            Phase::AwaitBatch => [0, 0],
            Phase::Forward => [1, 0],
            Phase::Backward { seg } => [2, seg as u64],
            Phase::AwaitComm => [3, 0],
            Phase::Step => [4, 0],
            Phase::Recovering => [5, 0],
            Phase::Done => [6, 0],
        }
    }
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

impl RankState {
    /// The five time accumulators, in a fixed order: compute, data wait,
    /// comm wait, recovery, straggler.
    fn accs(&self) -> [SimDuration; 5] {
        [
            self.compute,
            self.data_wait,
            self.comm_wait,
            self.recovery,
            self.straggler,
        ]
    }

    /// Adds `delta` (ordered as [`RankState::accs`]) to the accumulators.
    fn add_accs(&mut self, delta: [SimDuration; 5]) {
        self.compute += delta[0];
        self.data_wait += delta[1];
        self.comm_wait += delta[2];
        self.recovery += delta[3];
        self.straggler += delta[4];
    }
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
    /// Skip the periodic steady state of an epoch, synthetic or real
    /// data. At each iteration boundary the engine keys its complete
    /// state; when the key equals that of one of the previous three
    /// boundaries, the state is periodic, and the engine shifts time
    /// forward by as many whole periods as fit before the epoch's last
    /// iteration, its loaders' drain and the next fault event, then
    /// simulates the rest event by event. On by default.
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
    completed: Vec<u64>,
    loader_work: Vec<LoaderAction>,
}

impl EngineArena {
    /// Creates an empty arena (buffers grow on first use).
    #[must_use]
    pub fn new() -> EngineArena {
        EngineArena::default()
    }
}

/// Longest period, in iterations, the fast-forward looks for. Each
/// GPU's loader workers take turns fetching, so a real-data pipeline may
/// need a full turn of them to come round to the same state.
const MAX_PERIOD: u64 = DEFAULT_WORKERS_PER_GPU as u64;

/// What the fast-forward keeps of one iteration boundary.
#[derive(Debug, Default)]
struct FfBoundary {
    /// Iterations every active rank has completed.
    iter: u64,
    at: SimTime,
    /// The complete simulation state, times relative to `at` and counters
    /// relative to `iter` ([`Engine::state_key`]).
    key: Vec<u64>,
    /// Each active rank's accumulators ([`RankState::accs`]).
    accs: Vec<[SimDuration; 5]>,
    /// Each plan event's blame ([`FaultRuntime::blame`]); empty on
    /// fault-free runs.
    blame: Vec<SimDuration>,
    /// The flow network's clock, which the key holds only while a flow
    /// is live.
    net_clock: SimTime,
    /// End of the host-bus load samples up to this boundary in
    /// [`FfState::samples`].
    samples_end: usize,
}

/// Exact-state fast-forward: the last [`MAX_PERIOD`] boundaries and the
/// host-bus load samples since the oldest. Lives only on untraced runs
/// without per-iteration trace samples, and only until a skip that no
/// pending fault event cut short, or until no skip can fit any more.
#[derive(Debug, Default)]
struct FfState {
    /// Consecutive boundaries since the last delivered pinned event
    /// ([`Ev::pinned`]), oldest first.
    seen: VecDeque<FfBoundary>,
    /// A retired boundary whose buffers the next one reuses.
    spare: FfBoundary,
    /// Host-bus load samples, from the oldest kept boundary on.
    samples: Vec<(SimTime, f64)>,
    /// Set when the earliest pending pinned event left no room for
    /// another period: no boundary is keyed until it is delivered.
    held: bool,
}

impl FfState {
    /// Forgets the kept boundaries and load samples, the net's pending
    /// ones included: the next keyed boundary starts a new stretch.
    fn restart(&mut self, net: &mut FlowNet) {
        net.take_probe_samples(&mut self.samples);
        self.samples.clear();
        self.seen.clear();
    }
}

/// The reporting rank's accumulator baseline at the last emitted series
/// boundary. Every series bucket is the exact integer-ns delta of these
/// fields, so the series totals reconcile against the rank accumulators
/// (and through them the [`EpochReport`]) by construction.
#[derive(Debug, Default, Clone, Copy)]
struct SeriesMark {
    start: SimTime,
    /// The reporting rank's accumulators ([`RankState::accs`]).
    accs: [SimDuration; 5],
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

impl FaultRuntime {
    /// Whether a preemption is being recovered from: one is queued,
    /// gathering ranks at its barrier, waiting out its delay or being
    /// replayed. Fast-forward keys no boundary meanwhile.
    fn recovering(&self) -> bool {
        !self.preempt_queue.is_empty()
            || self.barrier.is_some()
            || self.resume.is_some()
            || self.replaying > 0
    }

    /// The open window faults with their plan indices, in plan order.
    fn open_windows(&self) -> impl DoubleEndedIterator<Item = (usize, &FaultKind)> {
        self.plan
            .events
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.open[i])
            .map(|(i, e)| (i, &e.kind))
    }

    /// The product, in plan order, of the factors `pick` takes from the
    /// open windows (exactly 1.0 when it takes none), and whether it took
    /// any. Overlapping windows compose multiplicatively against the
    /// nominal value, so the restore when the last one closes is exact.
    fn open_product(&self, pick: impl Fn(&FaultKind) -> Option<f64>) -> (f64, bool) {
        let mut any = false;
        let product = self
            .open_windows()
            .filter_map(|(_, kind)| pick(kind))
            .inspect(|_| any = true)
            .product();
        (product, any)
    }
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
    /// empty plan is the fault-free run. Fast-forward skips only between
    /// fault events, never across one, and pauses while a preemption is
    /// being recovered from.
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
    completed_buf: Vec<u64>,
    /// Pooled loader action work list ([`Engine::loader_step`]).
    loader_work: Vec<LoaderAction>,
    /// Fast-forward state; `None` when disabled via [`EngineOptions`],
    /// when every iteration must be seen (tracing, per-iteration trace
    /// samples), and once it has skipped or no skip can fit any more.
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
        net.track_utilization(topo.host_bus(0));
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
        // Fast-forward skips iterations, so it stays off when something
        // must see every one: per-iteration trace samples, or a tracer's
        // spans. A skip needs two keyed boundaries and an iteration after
        // them: four iterations at least.
        let ff = (options.fast_forward && !cfg.record_trace && tracer.is_none() && sim_iters > 3)
            .then(FfState::default);
        if ff.is_some() {
            // Record the host bus — the one lane whose utilization the
            // report reads — so skipped periods can be replayed exactly.
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
        // Every iteration consumes `grad_accumulation` micro-batches.
        let batches_per_gpu = (sim_iters + replay_slack) * cfg.grad_accumulation.max(1);

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
                        batches_per_gpu,
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

    /// Emits one series bucket of `iterations` iterations from
    /// `start_iter`, `ff` of them fast-forwarded, that runs from the last
    /// mark to `end`, where the reporting rank's accumulators
    /// ([`RankState::accs`]) read `accs`; then moves the mark there.
    /// Category fields are signed accumulator deltas, so a zero-iteration
    /// bucket after a replay rewind (or an elastic reporting-rank change)
    /// is exactly the correction that keeps the running series totals
    /// equal to the current reporting rank's accumulators. Solver work is
    /// counted as performed, not as skipped. A no-op unless series
    /// recording is on.
    fn emit_series(
        &mut self,
        start_iter: u64,
        iterations: u64,
        ff: u64,
        end: SimTime,
        accs: [SimDuration; 5],
    ) {
        let Some(s) = self.series.as_mut() else {
            return;
        };
        let (full_recomputes, _) = self.net.recompute_stats();
        let m = s.mark;
        let delta = |a: usize| accs[a].as_nanos() as i64 - m.accs[a].as_nanos() as i64;
        s.rec.record(SeriesSample {
            start_iter,
            iterations,
            ff_iterations: ff,
            start_ns: m.start.as_nanos(),
            wall_ns: end.duration_since(m.start).as_nanos(),
            compute_ns: delta(0),
            data_wait_ns: delta(1),
            comm_wait_ns: delta(2),
            recovery_ns: delta(3),
            straggler_ns: delta(4),
            recomputes: full_recomputes - m.recomputes,
            queue_depth_hw: self.q.take_depth_high_water(),
        });
        s.mark = SeriesMark {
            start: end,
            accs,
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
    /// stamp is the last rank completion.
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
            self.loader_step(node, NodeLoader::start);
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
            if ev.pinned() {
                stash_telemetry::metrics::FAULT_BRANCHES.inc();
                // A proven period never contains a fault transition.
                if let Some(ff) = &mut self.ff {
                    ff.restart(&mut self.net);
                    ff.held = false;
                }
            }
            match ev {
                Ev::NetWake => {
                    self.next_wake = None;
                    self.net.advance(self.q.now());
                }
                Ev::RankCompute { rank } => self.on_rank_compute(rank),
                Ev::LoaderPrep { node, worker } => {
                    self.loader_step(node, |l, work| l.prep_done(worker, work));
                }
                Ev::Fault { idx } => self.on_fault_fired(idx),
                Ev::FaultClear { idx } => self.on_fault_cleared(idx),
                Ev::FaultResume => self.on_fault_resume(),
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
        let GpuId { node, local } = self.ranks[rank].gpu;
        // Synthetic data never waits for a batch.
        let ready = self
            .loader_step(node, |l, work| l.try_take(local, work))
            .unwrap_or(true);
        if ready {
            self.start_forward(rank);
        } else {
            self.ranks[rank].phase = Phase::AwaitBatch;
            self.ranks[rank].wait_start = Some(self.q.now());
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
                    let r = &self.ranks[rank];
                    self.emit_series(r.iter - 1, 1, 0, self.q.now(), r.accs());
                }
                if self.faults.is_some() && self.on_fault_step_boundary(rank) {
                    // Captured by a preemption barrier (or retired at it).
                    return;
                }
                if self.ff.is_some() {
                    self.on_ff_iteration_done(rank);
                }
                self.begin_iteration(rank);
            }
            other => panic!("compute completion in unexpected phase {other:?}"),
        }
    }

    // ----- steady-state fast-forward ------------------------------------

    /// Fast-forward step after `rank` finished an iteration. At an
    /// iteration boundary — every active rank has finished it — it keys
    /// the complete simulation state ([`Engine::state_key`]). A key equal
    /// to that of the boundary `k ≤ MAX_PERIOD` iterations earlier proves
    /// the state periodic: everything from here on repeats what followed
    /// that boundary, `k` iterations and the time between later, until
    /// the next pinned event ([`Ev::pinned`]) is delivered. The engine
    /// then skips as many whole periods as [`Engine::ff_room`] and
    /// [`Engine::ff_pin_room`] allow ([`Engine::ff_skip`]) and simulates
    /// the rest, the loader drain included, event by event.
    ///
    /// Keys are taken whenever no preemption is being recovered from
    /// ([`FaultRuntime::recovering`]); open fault windows are keyed
    /// through their effects. Delivering a pinned event discards the kept
    /// boundaries, so a proven period never contains a fault transition.
    /// When the next pinned event cuts a skip short, or leaves no room for
    /// one, keying holds until it is delivered; otherwise the fast-forward
    /// switches itself off after a match, and as soon as not even one
    /// period could be skipped.
    fn on_ff_iteration_done(&mut self, rank: usize) {
        let iter = self.ranks[rank].iter;
        if !self.active.iter().all(|&r| self.ranks[r].iter >= iter) {
            return;
        }
        if self.ff_room(iter, 1) == 0 {
            self.ff = None;
            self.net.clear_load_probe();
            return;
        }
        let mut ff = self.ff.take().req("ff state");
        if ff.held || self.faults.as_ref().is_some_and(FaultRuntime::recovering) {
            ff.restart(&mut self.net);
            self.ff = Some(ff);
            return;
        }
        self.net.take_probe_samples(&mut ff.samples);
        let mut cur = std::mem::take(&mut ff.spare);
        cur.iter = iter;
        cur.at = self.q.now();
        cur.key.clear();
        self.state_key(iter, &mut cur.key);
        cur.accs.clear();
        cur.accs
            .extend(self.active.iter().map(|&r| self.ranks[r].accs()));
        cur.blame.clear();
        if let Some(fr) = &self.faults {
            cur.blame.extend_from_slice(&fr.blame);
        }
        cur.net_clock = self.net.last_advance();
        cur.samples_end = ff.samples.len();
        let matched = (1..=MAX_PERIOD).find_map(|k| {
            let b = ff.seen.iter().rev().nth(k as usize - 1)?;
            (b.iter + k == iter && b.key == cur.key).then_some((k, b))
        });
        if let Some((k, b)) = matched {
            stash_telemetry::metrics::FF_CONFIRMATIONS.inc();
            let room = self.ff_room(iter, k);
            let n = room.min(self.ff_pin_room(cur.at.duration_since(b.at)));
            if n > 0 {
                self.ff_skip(&ff.samples[b.samples_end..cur.samples_end], b, &cur, k, n);
            }
            if n < room {
                // The next pinned event cut the skip short: what is left
                // of this stretch is shorter than a period.
                ff.restart(&mut self.net);
                ff.spare = cur;
                ff.held = true;
                self.ff = Some(ff);
            } else {
                self.net.clear_load_probe();
            }
            return;
        }
        ff.seen.push_back(cur);
        if ff.seen.len() > MAX_PERIOD as usize {
            ff.spare = ff.seen.pop_front().req("kept boundary");
            // Samples before the oldest kept boundary replay nothing.
            let cut = ff.seen.front().req("kept boundary").samples_end;
            ff.samples.drain(..cut);
            ff.seen.iter_mut().for_each(|b| b.samples_end -= cut);
        }
        self.ff = Some(ff);
    }

    /// Largest number of whole `k`-iteration periods a skip from the
    /// boundary after iteration `iter` may cover. Every period skipped
    /// must repeat the proven one exactly, so each rank must still begin
    /// the iteration after the landing boundary (`iter + n·k ≤
    /// sim_iters − 1`), and no GPU's started batches may reach its
    /// loader's quota, where the pipeline starts to drain.
    fn ff_room(&self, iter: u64, k: u64) -> u64 {
        let per_period = k * self.cfg.grad_accumulation.max(1);
        self.loaders
            .iter()
            .flatten()
            .fold(self.sim_iters.saturating_sub(iter + 1) / k, |n, l| {
                n.min(l.batches_per_gpu().saturating_sub(l.max_started() + 1) / per_period)
            })
    }

    /// Largest number of whole periods of length `period` a skip may
    /// cover so that every shifted event, and the clock, lands strictly
    /// before the earliest pending pinned event ([`Ev::pinned`]): then no
    /// fault falls inside the skipped span, and no shifted event ties with
    /// a pinned one, so FIFO order matches the unskipped run. Unbounded
    /// when no pinned event is pending.
    fn ff_pin_room(&self, period: SimDuration) -> u64 {
        let (first_pinned, last_other) = self.q.pin_bounds(Ev::pinned);
        let Some(first_pinned) = first_pinned else {
            return u64::MAX;
        };
        let last = last_other.unwrap_or_else(|| self.q.now());
        first_pinned
            .as_nanos()
            .checked_sub(last.as_nanos() + 1)
            .map_or(0, |slack| {
                slack.checked_div(period.as_nanos()).unwrap_or(u64::MAX)
            })
    }

    /// Appends the complete simulation state at this iteration boundary
    /// to `key`: times relative to now, iteration and batch counters
    /// relative to `iter`. Two boundaries with equal keys continue
    /// identically until the next pinned event. The key holds the active
    /// ranks (phase, iteration, micro-batch, wait start), the
    /// communicator and its open bucket, the pending network wake, every
    /// loader, the fault runtime's window and straggler-detection state,
    /// the flow network ([`FlowNet::key_into`]) and the event queue's live
    /// events in delivery order, pinned ones left out. Accumulators are
    /// left out: nothing the simulation decides reads them. So are the
    /// recovery fields, which are idle whenever a key is taken.
    fn state_key(&mut self, iter: u64, key: &mut Vec<u64>) {
        let now = self.q.now();
        let time = |key: &mut Vec<u64>, t: Option<SimTime>| match t {
            None => key.push(0),
            Some(t) => key.extend([1, t.as_nanos().wrapping_sub(now.as_nanos())]),
        };
        key.push(self.active.len() as u64);
        for &r in &self.active {
            let rs = &self.ranks[r];
            key.push(r as u64);
            key.extend(rs.phase.code());
            key.extend([rs.iter.wrapping_sub(iter), rs.micro]);
            key.extend([
                u64::from(rs.first_iter_done.is_some()),
                u64::from(rs.done_at.is_some()),
            ]);
            time(key, rs.wait_start);
        }
        match &self.comm {
            None => key.push(0),
            Some(c) => {
                key.extend([1, c.world as u64, c.started as u64, c.completed as u64]);
                key.push(c.inflight_remaining as u64);
                key.extend(c.ready.iter().map(|&n| n as u64));
            }
        }
        time(key, self.bucket_open.map(|(t, _)| t));
        key.push(self.bucket_open.map_or(0, |(_, b)| b as u64));
        time(key, self.next_wake.map(|(t, _)| t));
        let batches = iter * self.cfg.grad_accumulation.max(1);
        for loader in &self.loaders {
            match loader {
                None => key.push(0),
                Some(l) => {
                    key.push(1);
                    l.key_into(batches, key);
                }
            }
        }
        if let Some(fr) = &self.faults {
            key.extend(fr.open.iter().map(|&o| u64::from(o)));
            key.extend(fr.slow_factor.iter().map(|f| f.to_bits()));
            for &t in &fr.bucket_first {
                time(key, t);
            }
            key.extend([fr.timeout.as_nanos(), fr.detections.len() as u64]);
        }
        self.net.key_into(now, key);
        self.q.key_into(now, key, Ev::code);
    }

    /// Skips `n` periods of `k` iterations: the state at boundary `cur`
    /// equals the state at `b`, so `n` periods later it is the same state
    /// again, every time `n` periods later and every counter `n·k`
    /// iterations on. One time offset moves the event queue (order, ties
    /// and keys intact; pinned events stay at their times, after every
    /// moved one by [`Engine::ff_pin_room`]), the network's clock and
    /// memo (an idle network's clock only if it moved during the proven
    /// period), the pending wake, the open bucket, straggler-detection
    /// stamps, wait starts and the telemetry-only open transfers. The
    /// rank accumulators and the plan events' blame grow by `n` times
    /// their per-period deltas, the loaders' started counts by `n·k`
    /// iterations' batches, and the host-bus utilization integral by the
    /// recorded load `samples` of one period, replayed `n` times. The
    /// series gets the skipped span as one compressed bucket.
    fn ff_skip(
        &mut self,
        samples: &[(SimTime, f64)],
        b: &FfBoundary,
        cur: &FfBoundary,
        k: u64,
        n: u64,
    ) {
        let period = cur.at.duration_since(b.at);
        let d = period * n;
        self.q.shift(d, Ev::pinned);
        self.net
            .replay_probe_load(self.topo.host_bus(0), samples, period, n);
        // An idle network's clock is not in the key. It moved during the
        // proven period exactly if it moves in every skipped one.
        if cur.net_clock != b.net_clock {
            self.net.shift(d);
        }
        let later = |t: &mut SimTime| *t += d;
        self.next_wake.iter_mut().for_each(|(t, _)| later(t));
        self.bucket_open.iter_mut().for_each(|(t, _)| later(t));
        self.xfer_open.values_mut().for_each(|(t, _)| later(t));
        if let Some(fr) = &mut self.faults {
            fr.bucket_first.iter_mut().flatten().for_each(later);
            for (blame, (now, then)) in fr.blame.iter_mut().zip(cur.blame.iter().zip(&b.blame)) {
                *blame += (*now - *then) * n;
            }
        }
        let batches = n * k * self.cfg.grad_accumulation.max(1);
        self.loaders
            .iter_mut()
            .flatten()
            .for_each(|l| l.shift(batches));
        let skipped = |i: usize| -> [SimDuration; 5] {
            std::array::from_fn(|a| (cur.accs[i][a] - b.accs[i][a]) * n)
        };
        for (i, &r) in self.active.iter().enumerate() {
            let rs = &mut self.ranks[r];
            rs.iter += n * k;
            rs.wait_start.iter_mut().for_each(later);
            rs.add_accs(skipped(i));
        }
        self.ff_iterations += n * k;
        // The reporting rank finished iteration `cur.iter` at the series
        // mark, so the skipped span ends where it finishes iteration
        // `cur.iter + n·k`: the mark shifted by `d` and the skipped deltas.
        if let Some(m) = self.series.as_ref().map(|s| s.mark) {
            let delta = skipped(0);
            let accs = std::array::from_fn(|a| m.accs[a] + delta[a]);
            self.emit_series(cur.iter, n * k, n * k, m.start + d, accs);
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
                .start_flow(now, &t.route, t.bytes, t.extra_latency, TAG_COMM);
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

    /// Attributes straggler-window excess to the most recently opened
    /// window targeting `rank`.
    fn blame_straggler(&mut self, rank: usize, extra: SimDuration) {
        let Some(fr) = &mut self.faults else { return };
        let blamed = fr.open_windows().rev().find_map(|(i, kind)| {
            matches!(*kind, FaultKind::StragglerWindow { rank: r, .. } if r == rank).then_some(i)
        });
        if let Some(i) = blamed {
            fr.blame[i] += extra;
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
        fr.slow_factor[rank] = fr
            .open_product(|kind| match *kind {
                FaultKind::StragglerWindow {
                    rank: r, slowdown, ..
                } if r == rank => Some(slowdown),
                _ => None,
            })
            .0;
    }

    /// Re-derives a node's NIC capacities from the open degradation
    /// windows, against the *nominal* capacities.
    fn apply_nic_state(&mut self, node: usize) {
        let now = self.q.now();
        let fr = self.faults.as_ref().req("faults");
        let (factor, _) = fr.open_product(|kind| match *kind {
            FaultKind::LinkDegradation {
                node: n, factor, ..
            } if n == node => Some(factor),
            _ => None,
        });
        for (l, nominal) in fr.nominal_nic[node] {
            self.net.set_link_capacity(now, l, nominal * factor);
        }
    }

    /// Re-derives a node's SSD capacity and the loader's brownout retry
    /// flag from the open brownout windows.
    fn apply_ssd_state(&mut self, node: usize) {
        let now = self.q.now();
        let fr = self.faults.as_ref().req("faults");
        let (factor, brown) = fr.open_product(|kind| match *kind {
            FaultKind::DiskBrownout {
                node: n, factor, ..
            } if n == node => Some(factor),
            _ => None,
        });
        let (link, nominal) = fr.nominal_ssd[node];
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
            let r = &self.ranks[rank];
            self.emit_series(r.iter, 0, 0, self.q.now(), r.accs());
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
        if let Some(&r0) = self.active.first() {
            let r = &self.ranks[r0];
            self.emit_series(r.iter, 0, 0, now, r.accs());
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

    /// Runs `step` on `node`'s loader with the engine's pooled work list,
    /// then applies the actions it appended. `None` when the node has no
    /// loader: synthetic data, or a node elastic re-formation retired,
    /// whose late prep and transfer completions are dropped.
    fn loader_step<R>(
        &mut self,
        node: usize,
        step: impl FnOnce(&mut NodeLoader, &mut Vec<LoaderAction>) -> R,
    ) -> Option<R> {
        let loader = self.loaders[node].as_mut()?;
        // Applying actions never runs another step, so the pooled list is
        // always free here.
        let mut work = std::mem::take(&mut self.loader_work);
        debug_assert!(work.is_empty());
        let out = step(loader, &mut work);
        self.apply_loader_actions(node, &mut work);
        self.loader_work = work;
        Some(out)
    }

    /// Applies `node`'s loader actions in FIFO order, walking `work` by
    /// index: a delivery to a waiting GPU takes the batch at once, and the
    /// actions that take appends run after those already listed. Leaves
    /// `work` empty.
    fn apply_loader_actions(&mut self, node: usize, work: &mut Vec<LoaderAction>) {
        let now = self.q.now();
        let mut next = 0;
        while let Some(&action) = work.get(next) {
            next += 1;
            match action {
                LoaderAction::StartTransfer { worker, purpose } => {
                    if self.tracer.is_some() {
                        let track = Track::loader(node, worker);
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
                        self.xfer_open.insert((node, worker), (now, purpose));
                    }
                    let loader = self.loaders[node].as_ref().req("loader");
                    let (route, bytes, latency) = loader.transfer(worker, purpose);
                    self.net
                        .start_flow(now, route, bytes, latency, loader_tag(node, worker));
                }
                LoaderAction::StartPrep { worker, duration } => {
                    self.emit_span(
                        Track::loader(node, worker),
                        Category::Prep,
                        "prep",
                        now,
                        now + duration,
                    );
                    self.q
                        .schedule_in(duration, Ev::LoaderPrep { node, worker });
                }
                LoaderAction::Deliver { gpu } => {
                    let rank = self.global_rank(node, gpu);
                    if self.ranks[rank].phase == Phase::AwaitBatch {
                        let loader = self.loaders[node].as_mut().req("loader");
                        let ok = loader.try_take(gpu, work);
                        debug_assert!(ok, "delivery must satisfy a waiting GPU");
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
                    }
                }
            }
        }
        work.clear();
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
            for &tag in &completed {
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
                    self.loader_step(node, |l, work| l.transfer_done(worker, work));
                }
            }
            self.completed_buf = completed;
        }
    }

    fn schedule_wake(&mut self) {
        let now = self.q.now();
        if let Some(t) = self.net.next_event_time() {
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
