//! The metric tables: every name, unit, direction and regression bound the
//! benchmark prints. `BENCHMARK.json` at the repository root repeats the
//! part the driver checks; a unit test keeps the two in step.

/// How a value behaves between two runs of one commit on one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Host time or memory: noisy, compared within a bound.
    Host,
    /// Simulated and deterministic: must repeat to the digit.
    Exact,
}

impl Class {
    pub fn label(self) -> &'static str {
        match self {
            Class::Host => "host",
            Class::Exact => "exact",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher: bool,
    pub class: Class,
    /// Share of the reference median by which the metric may get worse
    /// before it counts as regressed (0 for exact metrics). Host times get
    /// 25 %: on this shared box the interquartile spread of ten calibrated
    /// runs is 4 % to 12 % (see `calib`), and a bound has to be about three
    /// times the spread to tell a regression from noise.
    pub bound: f64,
    /// In the `end_to_end` list of `BENCHMARK.json`: reported by all four
    /// workloads, never 0, and steady across seeds (the job a percentile
    /// falls on changes with the seed, so the job-wall metrics are not).
    pub contract: bool,
}

/// The direction as `BENCHMARK.json` spells it.
fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

impl Metric {
    pub fn better(&self) -> &'static str {
        better(self.higher)
    }
}

const fn host(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    bound: f64,
    contract: bool,
) -> Metric {
    Metric {
        name,
        unit,
        higher,
        class: Class::Host,
        bound,
        contract,
    }
}

const fn exact(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher,
        class: Class::Exact,
        bound: 0.0,
        contract: false,
    }
}

/// The twelve end-to-end metrics, measured with tracing off.
pub const END_TO_END: [Metric; 12] = [
    host("wall_s", "s", false, 0.25, true),
    host("setup_s", "s", false, 0.25, true),
    host("sim_kcycles_per_host_s", "kcycles/s", true, 0.25, true),
    host("host_ns_per_event", "ns", false, 0.25, true),
    host("job_wall_ms_p50", "ms", false, 0.25, false),
    host("job_wall_ms_p85", "ms", false, 0.25, false),
    host("peak_rss_mb", "MB", false, 0.10, true),
    exact("ops_attempted", "count", true),
    exact("ops_failed", "count", false),
    exact("nc_geomean_speedup", "x", true),
    exact("paper_geomean_err_pct", "%", false),
    exact("paper_max_err_pct", "%", false),
];

pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// What a layer metric is, which decides how `compare` treats it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// Deterministic count or simulated statistic: repeats to the digit.
    Count,
    /// Host time spent in the layer during the traced pass.
    Time,
    /// Fixed seeded operation sequence driven into a public type.
    Probe,
}

impl LayerKind {
    pub fn label(self) -> &'static str {
        match self {
            LayerKind::Count => "count",
            LayerKind::Time => "time",
            LayerKind::Probe => "probe",
        }
    }
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher: bool,
    pub kind: LayerKind,
}

impl Layer {
    pub fn better(&self) -> &'static str {
        better(self.higher)
    }
}

const fn count(name: &'static str, unit: &'static str, higher: bool) -> Layer {
    Layer {
        name,
        unit,
        higher,
        kind: LayerKind::Count,
    }
}

const fn time(name: &'static str, unit: &'static str, higher: bool) -> Layer {
    Layer {
        name,
        unit,
        higher,
        kind: LayerKind::Time,
    }
}

const fn probe(name: &'static str, unit: &'static str, higher: bool) -> Layer {
    Layer {
        name,
        unit,
        higher,
        kind: LayerKind::Probe,
    }
}

/// Per-layer metrics of the traced run; the prefix is the crate. A layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [Layer; 67] = [
    time("workloads.generate_s", "s", false),
    count("workloads.mem_ops", "count", false),
    time("multigpu.build_s", "s", false),
    time("multigpu.run_s", "s", false),
    time("multigpu.harvest_s", "s", false),
    count("multigpu.sims", "count", false),
    count("multigpu.sim_cycles", "cycles", false),
    count("multigpu.golden_mismatches", "count", false),
    count("sim.messages", "count", false),
    time("sim.host_ns_per_message", "ns", false),
    probe("sim.engine.dense_ns_per_tick", "ns", false),
    probe("sim.engine.sparse_ns_per_wake", "ns", false),
    probe("sim.engine.idle_skip_mcycles_per_s", "Mcycles/s", true),
    probe("sim.arena.ns_per_msg", "ns", false),
    probe("sim.snapshot.save_ms", "ms", false),
    probe("sim.snapshot.fork_ms", "ms", false),
    probe("sim.snapshot.restore_ms", "ms", false),
    probe("sim.snapshot.hash_ms", "ms", false),
    count("sim.snapshot.bytes", "bytes", false),
    probe("sim.trace.overhead_pct", "%", false),
    time("sim.parallel.speedup_t2", "x", true),
    count("net.inter_flits", "count", false),
    count("net.inter_link_util_pct", "%", true),
    probe("net.seg.ns_per_packet", "ns", false),
    probe("net.synth.light_mflits_per_host_s", "Mflits/s", true),
    probe("net.synth.sat_mflits_per_host_s", "Mflits/s", true),
    count("net.synth.sat_throughput_fpc", "flits/cycle", true),
    count("net.synth.sat_avg_latency_cyc", "cycles", false),
    count("core.cq.stitched_flits", "count", true),
    count("core.trim.trimmed", "count", true),
    count("core.cq.stitch_ratio", "ratio", true),
    probe("core.cq.ns_per_flit", "ns", false),
    probe("core.trim.ns_per_decision", "ns", false),
    count("mem.l1.accesses", "count", false),
    count("mem.l1.miss_pct", "%", false),
    count("mem.l2.accesses", "count", false),
    count("mem.l2.mshr_retries", "count", false),
    count("mem.dram.accesses", "count", false),
    count("mem.dram.queue_wait_cycles", "cycles", false),
    probe("mem.tagstore.ns_per_access", "ns", false),
    probe("mem.mshr.ns_per_op", "ns", false),
    count("vm.l1tlb.accesses", "count", false),
    count("vm.l1tlb.miss_pct", "%", false),
    count("vm.l2tlb.miss_pct", "%", false),
    count("vm.gmmu.walks", "count", false),
    count("vm.gmmu.pt_reads", "count", false),
    count("vm.gmmu.walker_queue_events", "count", false),
    count("vm.gmmu.walk_latency_cyc", "cycles", false),
    probe("vm.pagetable.ns_per_walk", "ns", false),
    probe("vm.tlb.ns_per_lookup", "ns", false),
    count("gpu.cu.mem_ops", "count", false),
    count("gpu.cu.idle_cycles", "cycles", false),
    count("gpu.cu.inter_read_latency_cyc", "cycles", false),
    count("gpu.rdma.packets", "count", false),
    probe("gpu.coalescer.ns_per_wave", "ns", false),
    time("bench.runner.sweep_s", "s", false),
    time("bench.runner.overhead_pct", "%", false),
    count("bench.runner.prefix_hit_ratio", "ratio", true),
    count("bench.runner.forked_jobs", "count", true),
    count("bench.runner.fork_drift_jobs", "count", false),
    time("bench.runner.fork_capture_s", "s", false),
    time("bench.runner.prefix_share_speedup", "x", true),
    time("bench.runner.jobs2_speedup", "x", true),
    time("bench.cache.replay_us_per_job", "us", false),
    time("bench.figures.table_s", "s", false),
    probe("proto.metrics.kv_roundtrip_us", "us", false),
    time("trace.pass_wall_s", "s", false),
];

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "fig14_paper",
        "the paper's headline figure as users run it: 15 workloads x 5 variants at paper scale; every simulation crate works, snapshots and forks do not",
    ),
    (
        "scaleout_ft16",
        "six long simulations on a 16-GPU fat-tree: 12 switches, 3-hop routes and a ClusterQueue per switch put net, core and the engine wake heap in front",
    ),
    (
        "sweep_prefix",
        "a 60-job policy sweep whose 20000-cycle warmup is shared through in-memory forks: snapshot save/restore, System::build and runner planning carry it",
    ),
    (
        "net_saturation",
        "synthetic flits through sim and net only, from light load to saturation: any CU, cache, TLB or ClusterQueue change must leave it unmoved",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{members, num, text};
    use netcrafter::sim::trace::json::{parse, Value};

    fn named(v: &Value, key: &str) -> Vec<Value> {
        v.get(key).and_then(Value::as_arr).expect(key).to_vec()
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|l| l.name))
            .chain(WORKLOADS.iter().map(|w| w.0));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn benchmark_json_repeats_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses");
        assert_eq!(members(&v).len(), 6);

        let e2e = named(&v, "end_to_end");
        let want: Vec<&Metric> = END_TO_END.iter().filter(|m| m.contract).collect();
        assert_eq!(e2e.len(), want.len());
        for (got, want) in e2e.iter().zip(want) {
            assert_eq!(text(got, "name"), Some(want.name));
            assert_eq!(text(got, "unit"), Some(want.unit));
            assert_eq!(text(got, "better"), Some(want.better()));
            assert_eq!(num(got, "bound"), Some(want.bound));
            assert!(want.bound <= 0.25);
        }
        let setup = end_to_end("setup_s").unwrap();
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "set-up has the largest bound"
        );

        let layers = named(&v, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(got, "name"), Some(want.name));
            assert_eq!(text(got, "unit"), Some(want.unit));
            assert_eq!(text(got, "better"), Some(want.better()));
            assert!(want.unit.len() <= 16);
        }

        let workloads = named(&v, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(got, "name"), Some(want.0));
            assert_eq!(text(got, "why"), Some(want.1));
        }
        assert_eq!(named(&v, "paths"), [Value::Str("benchmark".into())]);
    }
}
