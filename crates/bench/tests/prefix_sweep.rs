//! Integration test for prefix-sharing sweeps: the in-memory fork path
//! composed with `--threads` parallelism inside each job.

use netcrafter_bench::Runner;
use netcrafter_multigpu::{JobSpec, SystemVariant};
use netcrafter_workloads::Workload;

const WARMUP: u64 = 400;

fn sweep_variants() -> [SystemVariant; 3] {
    [
        SystemVariant::NetCrafter,
        SystemVariant::StitchTrim,
        SystemVariant::Baseline,
    ]
}

fn jobs_for(r: &Runner) -> Vec<JobSpec> {
    sweep_variants()
        .iter()
        .map(|&v| r.job(Workload::Gups, v))
        .collect()
}

fn cold_reference() -> Vec<String> {
    let mut r = Runner::quick().with_prefix_share(false);
    r.base_cfg.netcrafter.warmup_cycles = WARMUP;
    r.sweep(&jobs_for(&r)).iter().map(|x| x.to_kv()).collect()
}

#[test]
fn prefix_sharing_composes_with_pdes_threads() {
    // `--threads` parallelism inside each job must not perturb forked
    // results (snapshots are scheduler-portable and PDES is bit-exact).
    let reference = cold_reference();
    let mut r = Runner::quick().with_jobs(2).with_threads(2);
    r.base_cfg.netcrafter.warmup_cycles = WARMUP;
    let results = r.sweep(&jobs_for(&r));
    for (got, want) in results.iter().zip(&reference) {
        assert_eq!(&got.to_kv(), want, "threaded forked run must match cold");
    }
    assert!(r.prefix_stats().forked_jobs >= 1);
}
