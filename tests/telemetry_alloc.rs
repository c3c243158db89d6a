//! The telemetry cost model, proven with a counting allocator:
//!
//! 1. a *disabled* record call never allocates (it is one relaxed load);
//! 2. an *enabled* record call never allocates either (atomics only —
//!    allocation happens exclusively at snapshot time);
//! 3. the engine's steady-state zero-allocation guarantee (see
//!    `tests/alloc_budget.rs`) survives with telemetry switched on.
//!
//! This file holds exactly one test so the global counting allocator is
//! not polluted by concurrent tests in the same binary.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use stash::ddl::engine::EngineArena;
use stash::prelude::*;
use stash::telemetry::metrics;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// Count only while the measuring thread says so: the libtest harness
// thread blocks in `recv()` for the duration of the test and can lazily
// allocate its parker mid-window, which used to land ±2 allocations in
// a random measured region and flake the exact-equality assertions.
std::thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if MEASURING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    let value = f();
    MEASURING.with(|m| m.set(false));
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

fn hammer_registry() {
    for i in 0..10_000_u64 {
        metrics::QUEUE_PUSHED.inc();
        metrics::SOLVER_ROUNDS.add(3);
        metrics::QUEUE_DEPTH_HIGH_WATER.record_max(i);
        metrics::SOLVER_RECOMPUTE_LATENCY_NS.record(i * 17);
    }
}

#[test]
fn telemetry_records_allocate_exactly_nothing() {
    // --- 1. disabled records are free ---------------------------------
    stash::telemetry::disable();
    let ((), off_allocs) = allocations_during(hammer_registry);
    assert_eq!(off_allocs, 0, "disabled record calls allocated");

    // --- 2. enabled records are atomics only --------------------------
    stash::telemetry::enable();
    let ((), on_allocs) = allocations_during(hammer_registry);
    assert_eq!(on_allocs, 0, "enabled record calls allocated");

    // --- 3. the engine's steady-state gate holds with telemetry on ----
    // Same shape as tests/alloc_budget.rs: N vs 2N warm iterations in a
    // reused arena must allocate identically; any per-iteration telemetry
    // allocation would show up in the longer run. Synthetic data (no
    // loader transfers) and fast-forward off, so every extra iteration is
    // simulated event by event through the instrumented queue and solver.
    let mk = |iters: u64| {
        let mut cfg = TrainConfig::synthetic(
            ClusterSpec::single(p3_8xlarge()),
            zoo::alexnet(),
            8,
            8 * 128,
        );
        cfg.epoch_mode = EpochMode::Sampled { iterations: iters };
        cfg
    };
    let options = stash::ddl::engine::EngineOptions {
        fast_forward: false,
    };
    let run = |arena: &mut EngineArena, iters: u64| {
        let cfg = mk(iters);
        allocations_during(|| {
            Run {
                options: options.clone(),
                arena: Some(arena),
                ..Run::default()
            }
            .epoch(&cfg)
            .expect("epoch")
            .report
        })
    };

    let mut arena = EngineArena::new();
    run(&mut arena, 64);
    run(&mut arena, 64);
    let (_, short_allocs) = run(&mut arena, 64);
    let (_, long_allocs) = run(&mut arena, 128);
    stash::telemetry::disable();

    assert_eq!(
        short_allocs, long_allocs,
        "with telemetry enabled, 64 extra steady-state iterations changed \
         the allocation count (short run {short_allocs}, long run {long_allocs})"
    );

    // Sanity: the hammering and the engine runs really recorded.
    let snap = stash::telemetry::snapshot::Snapshot::take();
    assert!(snap.counter("stash_sim_queue_events_pushed_total") >= 10_000);
    assert!(snap.counter("stash_sim_epochs_total") >= 4);
}
