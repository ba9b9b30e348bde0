//! The heap-allocation budget of the simulation loop, measured: a
//! counting global allocator around `System::run` for three quick
//! workloads on the baseline and the NetCrafter node. A count may fall
//! but never rise. The simulator is deterministic and single-threaded
//! here, so debug and release builds agree to the digit. This file holds
//! one `#[test]` on purpose: nothing else may allocate in the process
//! while a run is being counted.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use netcrafter::multigpu::{Experiment, System, SystemVariant};
use netcrafter::workloads::Workload;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator, whose
// contract the caller already upholds; the counter is a statistic that
// publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { SystemAlloc.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `SystemAlloc.alloc` with `layout`.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(workload, variant, allocations)`: what `System::run` allocated.
const BUDGET: [(Workload, SystemVariant, u64); 6] = [
    (Workload::Gups, SystemVariant::Baseline, 5_690),
    (Workload::Gups, SystemVariant::NetCrafter, 5_602),
    (Workload::Mt, SystemVariant::Baseline, 2_301),
    (Workload::Mt, SystemVariant::NetCrafter, 2_128),
    (Workload::Spmv, SystemVariant::Baseline, 3_978),
    (Workload::Spmv, SystemVariant::NetCrafter, 3_719),
];

#[test]
fn the_simulation_loop_stays_within_its_allocation_budget() {
    let mut over = Vec::new();
    for (workload, variant, budget) in BUDGET {
        let exp = Experiment::quick(workload, variant);
        let cfg = variant.apply(exp.base_cfg);
        let kernel = workload.generate(&exp.scale, cfg.total_gpus(), exp.seed);
        let mut sys = System::build(cfg, &kernel);
        let before = ALLOCATIONS.load(Relaxed);
        sys.run(exp.max_cycles);
        let allocations = ALLOCATIONS.load(Relaxed) - before;
        let (ticks, messages) = (sys.engine.ticks_executed(), sys.engine.messages_delivered());
        if allocations > budget {
            over.push(format!(
                "{workload} {}: {allocations} allocations, budget {budget} ({:.2} per message, \
                 {:.2} per tick); if intended, re-pin: \
                 (Workload::{workload:?}, SystemVariant::{variant:?}, {allocations})",
                variant.label(),
                allocations as f64 / messages as f64,
                allocations as f64 / ticks as f64,
            ));
        }
    }
    assert!(over.is_empty(), "{}", over.join("\n"));
}
