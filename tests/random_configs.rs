//! Randomly drawn configurations face the engine's differentials, not
//! only the fixed zoo grids of the other tests.
//!
//! Each case draws a catalog instance (one, or two networked), a small zoo
//! model, a batch size, synthetic data or a cold or warm page cache,
//! gradient accumulation 1-3, the collective algorithm, overlap,
//! precision, bucketing, an optional static straggler and an optional
//! seeded fault plan. Every case must run or be refused with a typed
//! error, never panic. Every run must give the same `FaultedRun` with
//! fast-forward off, on, on with an iteration series attached, on inside
//! one `EngineArena` that every case that runs reuses in turn (so nothing
//! a case leaves in the arena's network, queue or loaders may steer the
//! next, whatever its topology), and with an enabled tracer (which keeps
//! fast-forward off and records spans). The series totals must reconcile with the report to
//! the nanosecond. Cases come from fixed seeds and are not shrunk; a
//! failing case prints its configuration and fault plan as JSON.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use proptest::prelude::*;
use proptest::TestRng;
use stash::ddl::engine::EngineArena;
use stash::prelude::*;
use stash::telemetry::series::IterSeries;

thread_local! {
    /// The one arena every case that runs reuses, in case order.
    static ARENA: RefCell<EngineArena> = RefCell::new(EngineArena::new());
}

/// One drawn configuration, and the seed of its fault plan if it has one.
#[derive(Debug)]
struct Case {
    cfg: TrainConfig,
    fault_seed: Option<u64>,
}

fn pick<T: Clone>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize].clone()
}

/// The configuration space described in the module docs.
struct RandomConfigs;

impl Strategy for RandomConfigs {
    type Value = Case;

    fn new_value(&self, rng: &mut TestRng) -> Case {
        let instance = pick(rng, &catalog());
        let cluster = if rng.below(2) == 0 {
            ClusterSpec::single(instance)
        } else {
            ClusterSpec::homogeneous(instance, 2)
        };
        let world = cluster.world_size() as u64;
        let model = pick(rng, &zoo::small_models());
        let batch = pick(rng, &[8, 32, 128, 1024]);
        let grad_accumulation = 1 + rng.below(3);
        // A 32-iteration epoch, of which a sample is simulated.
        let mut cfg = TrainConfig::synthetic(cluster, model, batch, batch * grad_accumulation * 32);
        cfg.epoch_mode = EpochMode::Sampled {
            iterations: pick(rng, &[4, 8, 16]),
        };
        cfg.grad_accumulation = grad_accumulation;
        if let Some(cache) = pick(rng, &[None, Some(CacheState::Cold), Some(CacheState::Warm)]) {
            cfg.data = DataMode::Real {
                dataset: DatasetSpec::for_model(&cfg.model),
                cache,
            };
        }
        cfg.algorithm = pick(
            rng,
            &[Algorithm::Ring, Algorithm::Tree, Algorithm::ParameterServer],
        );
        cfg.overlap = rng.below(2) == 0;
        cfg.precision = pick(rng, &[Precision::Fp32, Precision::Amp]);
        cfg.bucketing = pick(
            rng,
            &[Bucketing::PerLayer, Bucketing::BySize { bytes: 25e6 }],
        );
        if rng.below(4) == 0 {
            cfg.straggler = Some(Straggler {
                rank: rng.below(world) as usize,
                slowdown: pick(rng, &[1.0, 1.5, 3.0]),
            });
        }
        let fault_seed = (rng.below(4) == 0).then(|| rng.next_u64());
        Case { cfg, fault_seed }
    }
}

/// The series' running sums equal the report's accumulators exactly,
/// after the report's own sampled-epoch extrapolation.
fn reconciles(report: &EpochReport, series: &IterSeries) -> Result<(), String> {
    let t = series.totals();
    let factor = report.iterations as f64 / report.simulated_iterations as f64;
    let totals = [
        ("compute", t.compute_ns, report.compute_time),
        ("data wait", t.data_wait_ns, report.data_wait),
        ("comm wait", t.comm_wait_ns, report.comm_wait),
        ("recovery", t.recovery_ns, report.recovery_time),
        ("straggler", t.straggler_ns, report.straggler_time),
    ];
    for (what, ns, want) in totals {
        let ns = u64::try_from(ns).map_err(|_| format!("negative {what} total {ns}"))?;
        let got = SimDuration::from_nanos(ns).mul_f64(factor);
        if got != want {
            return Err(format!("series {what} {got:?} != report {want:?}"));
        }
    }
    Ok(())
}

/// Runs `case` fast-forward off, on, on with a series, on in `arena` and
/// traced; `Ok` when all five agree (a typed error included), the tracer
/// saw spans and the series reconciles.
fn differential(
    case: &Case,
    plan: &mut Option<FaultPlan>,
    arena: &mut EngineArena,
) -> Result<(), String> {
    let cfg = &case.cfg;
    let run = |fast_forward: bool, plan: Option<&FaultPlan>, series: Option<&mut IterSeries>| {
        Run {
            options: EngineOptions { fast_forward },
            plan,
            series,
            ..Run::default()
        }
        .epoch(cfg)
    };
    // A refused configuration (out of memory, say) has nothing to compare.
    let Ok(base) = run(false, None, None) else {
        return Ok(());
    };
    *plan = case.fault_seed.map(|seed| {
        // Faults land inside the simulated part of the epoch.
        let simulated = base
            .report
            .epoch_time
            .mul_f64(base.report.simulated_iterations as f64 / base.report.iterations as f64);
        let (world, nodes) = (cfg.cluster.world_size(), cfg.cluster.node_count());
        FaultPlan::seeded(seed, world, nodes, simulated)
    });
    let plan = plan.as_ref();
    let off = run(false, plan, None);
    let on = run(true, plan, None);
    let mut series = IterSeries::default();
    let with_series = run(true, plan, Some(&mut series));
    let in_arena = Run {
        plan,
        arena: Some(arena),
        ..Run::default()
    }
    .epoch(cfg);
    let sink = Rc::new(RefCell::new(CountingSink::new()));
    let tracer = shared(Tracer::new(sink.clone()));
    let traced = Run {
        plan,
        tracer: Some(&tracer),
        ..Run::default()
    }
    .epoch(cfg);
    if on != off {
        return Err(format!("fast-forward on {on:?} != off {off:?}"));
    }
    if with_series != off {
        return Err(format!("with a series {with_series:?} != without {off:?}"));
    }
    if in_arena != off {
        return Err(format!("in a reused arena {in_arena:?} != fresh {off:?}"));
    }
    if traced != off {
        return Err(format!("traced {traced:?} != untraced {off:?}"));
    }
    if off.is_ok() && sink.borrow().spans() == 0 {
        return Err("the tracer saw no spans: the traced comparison is vacuous".into());
    }
    match off {
        Ok(run) => reconciles(&run.report, &series),
        Err(_) => Ok(()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every random configuration runs or is refused with a typed error,
    /// and every run is the same with fast-forward on, off, recording a
    /// series, in a reused arena and traced.
    #[test]
    fn random_configs_run_and_agree_across_fast_forward_and_series(case in RandomConfigs) {
        let mut plan = None;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            ARENA.with_borrow_mut(|arena| differential(&case, &mut plan, arena))
        }))
        .unwrap_or_else(|_| Err("panicked".to_string()));
        if let Err(failure) = outcome {
            let config = serde_json::to_string(&case.cfg).unwrap_or_else(|e| format!("<{e}>"));
            let plan = plan.as_ref().map_or_else(|| "none".to_string(), FaultPlan::to_json);
            return Err(TestCaseError::fail(format!(
                "{failure}\nconfig: {config}\nfault plan: {plan}"
            )));
        }
    }
}
