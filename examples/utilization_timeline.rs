//! Utilization over time: samples the inter-cluster links while a DNN
//! training step runs and renders a text timeline — the bursty
//! compute/sync phase structure is clearly visible, and NetCrafter
//! flattens and shortens the bursts.
//!
//! ```text
//! cargo run --release --example utilization_timeline [WORKLOAD]
//! ```

use netcrafter::multigpu::{Experiment, SystemVariant, TraceOptions};
use netcrafter::workloads::Workload;

const INTERVAL: u64 = 500;
const BARS: &[char] = &[' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

fn timeline(variant: SystemVariant, workload: Workload) -> (u64, Vec<f64>) {
    let exp = Experiment::new(workload, variant).with_seed(7);
    let cfg = variant.apply(exp.base_cfg);
    let (result, data) = exp.run_traced(&TraceOptions::sample(INTERVAL));
    let inter: Vec<_> = data.links.iter().filter(|l| l.is_inter).collect();
    let flits_per_cycle = cfg.topology.inter_bytes_per_cycle() / cfg.flit_bytes as f64;
    let capacity = INTERVAL as f64 * flits_per_cycle * inter.len() as f64;
    let buckets = (result.exec_cycles / INTERVAL + 1) as usize;
    let utils = (0..buckets)
        .map(|ix| {
            let flits: u64 = inter.iter().map(|l| l.series.flits.bucket(ix)).sum();
            flits as f64 / capacity
        })
        .collect();
    (result.exec_cycles, utils)
}

fn render(utils: &[f64]) -> String {
    utils
        .iter()
        .map(|u| BARS[((u * (BARS.len() - 1) as f64).round() as usize).min(BARS.len() - 1)])
        .collect()
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "VGG16".into());
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.abbrev().eq_ignore_ascii_case(&name))
        .unwrap_or(Workload::Vgg16);

    println!("inter-cluster link utilization over time ({workload}, {INTERVAL}-cycle buckets):\n");
    for variant in [SystemVariant::Baseline, SystemVariant::NetCrafter] {
        let (cycles, utils) = timeline(variant, workload);
        let avg = utils.iter().sum::<f64>() / utils.len().max(1) as f64;
        println!("{:<11} [{}]", variant.label(), render(&utils));
        println!(
            "{:<11} {} cycles, avg {:.0}% / peak {:.0}%\n",
            "",
            cycles,
            100.0 * avg,
            100.0 * utils.iter().copied().fold(0.0, f64::max)
        );
    }
    println!("Each column is one {INTERVAL}-cycle bucket; height is link utilization.");
}
