//! Integration tests for prefix-sharing sweeps: the fork cycle itself
//! and the counts a sweep reports.

use std::collections::BTreeMap;

use netcrafter_bench::{JobSource, Runner};
use netcrafter_multigpu::{CheckpointPlan, Experiment, SystemVariant};
use netcrafter_workloads::Workload;

const WARMUP: u64 = 400;

fn sweep_variants() -> [SystemVariant; 3] {
    [
        SystemVariant::NetCrafter,
        SystemVariant::StitchTrim,
        SystemVariant::Baseline,
    ]
}

fn jobs_for(r: &Runner) -> Vec<Experiment> {
    sweep_variants()
        .iter()
        .map(|&v| r.job(Workload::Gups, v))
        .collect()
}

/// Quick GUPS at warmup 500 is a point where a fork taken *at* the
/// warmup cycle drifts: cycle 500 already runs under the representative's
/// own policy, so the other variants inherit one cycle of it.
#[test]
fn forks_are_taken_before_any_policy_acts() {
    const WARMUP: u64 = 500;
    let variants = [
        SystemVariant::StitchOnly,
        SystemVariant::SeqOnly,
        SystemVariant::DataPrio,
        SystemVariant::StitchPool {
            window: 32,
            selective: true,
        },
        SystemVariant::StitchPool {
            window: 32,
            selective: false,
        },
    ];
    let runner = |share| {
        let mut r = Runner::quick().with_prefix_share(share);
        r.base_cfg.netcrafter.warmup_cycles = WARMUP;
        r
    };
    let (shared, cold) = (runner(true), runner(false));
    let jobs: Vec<Experiment> = variants
        .iter()
        .map(|&v| shared.job(Workload::Gups, v))
        .collect();
    let (forked, reference) = (shared.sweep(&jobs), cold.sweep(&jobs));
    assert_eq!(shared.prefix_stats().forked_jobs, variants.len() - 1);
    let drifted: Vec<String> = jobs
        .iter()
        .zip(forked.iter().zip(&reference))
        .filter(|(_, (got, want))| got.to_kv() != want.to_kv())
        .map(|(job, (got, want))| {
            let (forked, cold) = (got.exec_cycles, want.exec_cycles);
            format!("{} ({forked} cycles forked, {cold} cold)", job.memo_key())
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "forked runs differ from cold: {drifted:?}"
    );

    // The invariant behind it: paused at the fork cycle — the last one
    // every knob is inert — each member is in the representative's state.
    let hashes: Vec<u64> = jobs
        .iter()
        .map(|job| {
            let plan = CheckpointPlan {
                resume_from: None,
                pause_at: Some(job.warmup_cycles() - 1),
            };
            let run = job.run_planned(plan, None);
            let fork = run.expect("a cold run restores nothing").snapshot;
            fork.expect("the run outlives its warmup").state_hash()
        })
        .collect();
    assert!(hashes.iter().all(|&h| h == hashes[0]), "{hashes:x?}");
}

/// `PrefixStats`' job counts are the tallies of the job stats, across
/// sweeps and whatever answered each job, and every job finds its stat
/// by display name, as the benchmark's runner pass looks it up.
#[test]
fn prefix_counts_are_the_job_stat_tallies() {
    let mut r = Runner::quick();
    r.base_cfg.netcrafter.warmup_cycles = WARMUP;
    let mut sweeps = [jobs_for(&r), jobs_for(&r)];
    // The first sweep lists Baseline twice; the second repeats StitchTrim
    // (a memo hit), renames NetCrafter and Baseline (one result, two
    // names each) and adds Ideal.
    sweeps[0].push(r.job(Workload::Gups, SystemVariant::Baseline));
    sweeps[1][0].tag = "alias".into();
    sweeps[1][2].tag = "alias".into();
    sweeps[1].push(r.job(Workload::Gups, SystemVariant::Ideal));
    for jobs in &sweeps {
        r.sweep(jobs);
    }

    let all = r.job_stats();
    let stats: BTreeMap<&str, JobSource> = (all.iter())
        .map(|s| (s.memo_key.as_str(), s.source))
        .collect();
    assert_eq!(stats.len(), all.len(), "one stat per display name");
    for job in sweeps.iter().flatten() {
        assert!(stats.contains_key(&*job.memo_key()), "{}", job.memo_key());
    }
    use JobSource::{Forked, Fresh, Shared};
    let tally = |of: &[JobSource]| stats.values().filter(|s| of.contains(s)).count();
    let ps = r.prefix_stats();
    let counts = (ps.forked_jobs, ps.shared_jobs, ps.simulated_jobs);
    let tallies = (tally(&[Forked]), tally(&[Shared]), tally(&[Fresh, Forked]));
    assert_eq!(counts, tallies, "{ps:?}");
    // NetCrafter forks for StitchTrim; Baseline and Ideal run cold; the
    // two aliases are answered by the first sweep's results.
    assert_eq!(counts, (1, 2, 4), "{ps:?}");
    assert_eq!((ps.groups, ps.prefix_runs, ps.swept_jobs), (1, 1, 8));
}
