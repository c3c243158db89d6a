//! Zero-cost-when-disabled, measured: an epoch run with tracing
//! disabled must perform exactly as many heap allocations as a run with
//! no tracer at all, and must never construct a single event.
//!
//! This file holds exactly one test so the global counting allocator is
//! not polluted by concurrent tests in the same binary.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use stash::prelude::*;

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

#[test]
fn disabled_tracer_allocates_exactly_nothing_extra() {
    let mut cfg =
        TrainConfig::synthetic(ClusterSpec::single(p3_8xlarge()), zoo::alexnet(), 8, 8 * 2);
    cfg.epoch_mode = EpochMode::Sampled { iterations: 2 };

    // Warm up both code paths once (lazy one-time allocations).
    let warm_tracer = shared(Tracer::disabled());
    run_epoch(&cfg).expect("warmup untraced");
    Run {
        tracer: Some(&warm_tracer),
        ..Run::default()
    }
    .epoch(&cfg)
    .expect("warmup traced-disabled");

    let (plain, plain_allocs) = allocations_during(|| run_epoch(&cfg).expect("untraced"));

    let tracer = shared(Tracer::disabled());
    let (traced, traced_allocs) = allocations_during(|| {
        Run {
            tracer: Some(&tracer),
            ..Run::default()
        }
        .epoch(&cfg)
        .expect("traced-disabled")
        .report
    });

    assert_eq!(
        plain_allocs, traced_allocs,
        "a disabled tracer must not change the allocation profile"
    );
    assert_eq!(
        tracer.borrow().events_emitted(),
        0,
        "disabled tracer emitted events"
    );
    assert_eq!(plain.epoch_time, traced.epoch_time);
    assert_eq!(plain.compute_time, traced.compute_time);
    assert_eq!(plain.data_wait, traced.data_wait);
    assert_eq!(plain.comm_wait, traced.comm_wait);
}
