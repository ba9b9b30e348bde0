//! Multi-kernel execution: a data-parallel DNN training loop where every
//! step is its own kernel launch separated by a global kernel barrier —
//! the launch structure of §2.2. Later steps run on warm TLBs and caches,
//! and the per-step gradient exchange keeps the inter-cluster links busy,
//! so NetCrafter's benefit persists across steps.
//!
//! Also demonstrates the hang diagnostic: the components still reporting
//! work and the tail of the structured event trace, dumped at the end.
//!
//! ```text
//! cargo run --release --example training_loop
//! ```

use netcrafter::multigpu::{System, SystemVariant};
use netcrafter::proto::SystemConfig;
use netcrafter::sim::TraceConfig;
use netcrafter::workloads::{Scale, Workload};

const STEPS: usize = 4;

fn run(variant: SystemVariant, trace: bool) -> (u64, Vec<(String, u64)>, Vec<String>) {
    let cfg = variant.apply(SystemConfig::small(8));
    // One kernel per training step; all steps touch the same buffers, so
    // placement and translations persist across the barriers.
    let kernels: Vec<_> = (0..STEPS)
        .map(|step| {
            let mut k = Workload::Vgg16.generate(&Scale::small(), cfg.total_gpus(), 7);
            k.name = format!("vgg16-step{step}");
            k
        })
        .collect();
    let mut sys = System::build_multi(cfg, &kernels);
    if trace {
        let switch_flits = TraceConfig::parse("comp=switch;class=flit").expect("valid filter");
        sys.enable_tracing(switch_flits);
    }
    let total = sys.run_all(50_000_000);
    // What one prints when a run hangs: who still has work, and the last
    // things that happened. After a clean run the first list is empty.
    let mut dump = vec![format!("busy: {:?}", sys.engine.busy_components())];
    let recorded = sys.take_trace();
    let tail = recorded.events.len().saturating_sub(12);
    for e in &recorded.events[tail..] {
        let who = &recorded.tracks[e.track as usize];
        dump.push(format!("cycle {:>8}: {:<10} @ {who}", e.cycle, e.name));
    }
    (total, sys.kernel_cycles.clone(), dump)
}

fn main() {
    let (base_total, base_steps, _) = run(SystemVariant::Baseline, false);
    let (nc_total, nc_steps, trace) = run(SystemVariant::NetCrafter, true);

    println!("VGG16 data-parallel training, {STEPS} steps (kernel barriers between):\n");
    println!("{:<18} {:>12} {:>12}", "step", "baseline", "netcrafter");
    for (b, n) in base_steps.iter().zip(&nc_steps) {
        println!("{:<18} {:>12} {:>12}", b.0, b.1, n.1);
    }
    println!("{:<18} {:>12} {:>12}", "TOTAL", base_total, nc_total);
    println!(
        "\ncold-start effect: step 0 vs steady-state step (baseline): {} vs {} cycles",
        base_steps[0].1,
        base_steps.last().unwrap().1
    );
    println!(
        "NetCrafter end-to-end speedup: {:.2}x",
        base_total as f64 / nc_total as f64
    );

    println!("\nbusy components and last switch flit events of the NetCrafter run:");
    for line in trace {
        println!("  {line}");
    }
}
