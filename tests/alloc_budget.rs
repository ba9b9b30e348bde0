//! The heap-allocation budget of building and running a node, measured:
//! a counting global allocator around `System::build` and `System::run`
//! for three quick workloads on the baseline and the NetCrafter node. A
//! count may fall but never rise. The simulator is deterministic and
//! single-threaded here, so debug and release builds agree to the digit.
//! Only the measuring thread's allocations count, and only while it
//! builds or runs: the test harness's own threads allocate when they
//! will.

// The counting flag is a thread-local, which clippy.toml disallows: it is
// per thread so that another thread's allocation is never
// counted, and it is no simulation state, which is what the lint guards.
// Clippy reads this lint's level at the crate root only.
#![allow(clippy::disallowed_macros)]

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use netcrafter::multigpu::{Experiment, System, SystemVariant};
use netcrafter::workloads::Workload;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the measuring thread while it builds or runs a system.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Counts one allocation if the calling thread is measuring. A `const`
/// thread-local without a destructor allocates nothing and is readable
/// for the whole life of its thread.
fn count() {
    if COUNTING.get() {
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

/// Runs `f` on this thread with counting on; returns its result and the
/// allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Relaxed);
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    (out, ALLOCATIONS.load(Relaxed) - before)
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator, whose
// contract the caller already upholds; the counter is a statistic that
// publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { SystemAlloc.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `SystemAlloc.alloc` with `layout`.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(workload, variant, build, run)`: what `System::build` and
/// `System::run` allocated.
const BUDGET: [(Workload, SystemVariant, u64, u64); 6] = [
    (Workload::Gups, SystemVariant::Baseline, 547, 5_659),
    (Workload::Gups, SystemVariant::NetCrafter, 547, 5_571),
    (Workload::Mt, SystemVariant::Baseline, 548, 2_272),
    (Workload::Mt, SystemVariant::NetCrafter, 548, 2_100),
    (Workload::Spmv, SystemVariant::Baseline, 549, 3_947),
    (Workload::Spmv, SystemVariant::NetCrafter, 549, 3_688),
];

#[test]
fn the_simulation_loop_stays_within_its_allocation_budget() {
    let mut over = Vec::new();
    for (workload, variant, build_budget, run_budget) in BUDGET {
        let exp = Experiment::quick(workload, variant);
        let cfg = variant.apply(exp.base_cfg);
        let kernel = workload.generate(&exp.scale, cfg.total_gpus(), exp.seed);
        let (mut sys, build) = counted(|| System::build(cfg, &kernel));
        let ((), run) = counted(|| {
            sys.run(exp.max_cycles);
        });
        let (ticks, messages) = (sys.engine.ticks_executed(), sys.engine.messages_delivered());
        if build > build_budget || run > run_budget {
            over.push(format!(
                "{workload} {}: build {build} allocations (budget {build_budget}), run {run} \
                 (budget {run_budget}; {:.2} per message, {:.2} per tick); if intended, \
                 re-pin: (Workload::{workload:?}, SystemVariant::{variant:?}, {build}, {run})",
                variant.label(),
                run as f64 / messages as f64,
                run as f64 / ticks as f64,
            ));
        }
    }
    assert!(over.is_empty(), "{}", over.join("\n"));
}
