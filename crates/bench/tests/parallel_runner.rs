//! Integration tests for the sweep runner: parallel execution must be
//! indistinguishable from sequential execution, and the on-disk result
//! cache must survive a process restart (modelled here as a fresh
//! `Runner` over the same directory).

use std::path::PathBuf;
use std::sync::Arc;

use netcrafter_bench::{figures, geomean, JobSource, Runner, Table};
use netcrafter_multigpu::{Experiment, RunResult, SystemVariant};
use netcrafter_workloads::Workload;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "netcrafter-runner-test-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A representative job mix: three workloads, several variants, plus a
/// tagged alternate-config job and a duplicate.
fn job_mix(r: &Runner) -> Vec<Experiment> {
    let mut jobs = Vec::new();
    for w in [Workload::Gups, Workload::Mt, Workload::Spmv] {
        jobs.push(r.job(w, SystemVariant::Baseline));
        jobs.push(r.job(w, SystemVariant::Ideal));
        jobs.push(r.job(w, SystemVariant::NetCrafter));
    }
    let mut cfg8 = r.base_cfg;
    cfg8.flit_bytes = 8;
    jobs.push(r.job_with(Workload::Gups, SystemVariant::Baseline, cfg8, "flit8"));
    jobs.push(r.job(Workload::Gups, SystemVariant::Baseline)); // duplicate
    jobs
}

fn render(results: &[Arc<RunResult>]) -> Vec<String> {
    results.iter().map(|r| r.to_kv()).collect()
}

#[test]
fn parallel_sweep_matches_sequential() {
    let seq = Runner::quick(); // jobs = 1
    let par = Runner::quick().with_jobs(4);
    let seq_results = seq.sweep(&job_mix(&seq));
    let par_results = par.sweep(&job_mix(&par));
    assert_eq!(
        render(&seq_results),
        render(&par_results),
        "4-worker sweep must be bit-identical to the sequential one"
    );
    assert_eq!(seq.runs_completed(), par.runs_completed());
}

/// A simulation that panics ends the sweep with that panic: the other
/// worker used to wait forever for the job the dead one held.
#[test]
#[should_panic]
fn a_panicking_job_ends_a_parallel_sweep() {
    let r = Runner::quick().with_jobs(2);
    let mut unbuildable = r.base_cfg;
    unbuildable.flit_bytes = 3;
    r.sweep(&[
        r.job_with(
            Workload::Gups,
            SystemVariant::Baseline,
            unbuildable,
            "flit3",
        ),
        r.job(Workload::Gups, SystemVariant::Baseline),
        r.job(Workload::Mt, SystemVariant::Baseline),
    ]);
}

/// A representative that panics after capturing its fork still owes its
/// group mates that fork: the sweep ends with the panic all the same,
/// with the other worker waiting on the task channel, not hanging on it.
#[test]
#[should_panic]
fn a_panicking_representative_ends_a_parallel_sweep() {
    let mut r = Runner::quick().with_jobs(2);
    r.base_cfg.netcrafter.warmup_cycles = 400;
    // The group's first job is its representative; its watchdog fires
    // two cycles after the fork is taken at 399.
    let mut rep = r.job(Workload::Gups, SystemVariant::NetCrafter);
    rep.max_cycles = 401;
    let mate = r.job(Workload::Gups, SystemVariant::StitchTrim);
    assert_eq!(rep.prefix_key(), mate.prefix_key(), "one prefix group");
    r.sweep(&[rep, mate]);
}

#[test]
fn figure_output_is_identical_across_worker_counts() {
    let seq = Runner::quick();
    let par = Runner::quick().with_jobs(4);
    for id in ["fig12", "fig17", "ablation"] {
        // Prewarm the parallel runner the way the figures binary does; the
        // sequential runner resolves each table's jobs inside `generate`.
        par.sweep(&figures::sweep_jobs(id, &par));
        let a = figures::generate(id, &seq).to_string();
        let b = figures::generate(id, &par).to_string();
        assert_eq!(a, b, "{id}");
    }
}

/// Every run of Figure 17 and the ablation (6 + 15) goes through the
/// runner, so a second process over the same cache simulates none.
#[test]
fn warm_cache_replays_every_figure_run() {
    let dir = tempdir("figures");
    let ids = ["fig17", "ablation"];
    let first = Runner::quick().with_cache_dir(&dir).unwrap();
    let cold: Vec<String> = ids
        .map(|id| figures::generate(id, &first).to_string())
        .into();
    let second = Runner::quick().with_cache_dir(&dir).unwrap();
    let warm: Vec<String> = ids
        .map(|id| figures::generate(id, &second).to_string())
        .into();
    assert_eq!(cold, warm);
    let stats = second.job_stats();
    assert_eq!(stats.len(), 21);
    assert!(
        stats.iter().all(|s| s.source == JobSource::DiskHit),
        "warm cache must re-simulate nothing: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_cache_survives_restart() {
    let dir = tempdir("restart");

    // First "process": everything is simulated fresh and persisted.
    let first = Runner::quick().with_jobs(2).with_cache_dir(&dir).unwrap();
    let before = first.sweep(&job_mix(&first));
    let stats = first.job_stats();
    assert!(stats.iter().all(|s| s.source == JobSource::Fresh));
    // The memo and the disk hold one entry per cache key; the duplicate
    // adds none.
    assert_eq!(first.runs_completed(), job_mix(&first).len() - 1);
    assert_eq!(first.disk_cache().unwrap().len(), first.runs_completed());

    // Second "process": same directory, fresh memo. Zero simulations.
    let second = Runner::quick().with_jobs(2).with_cache_dir(&dir).unwrap();
    let after = second.sweep(&job_mix(&second));
    assert_eq!(render(&before), render(&after));
    let stats = second.job_stats();
    assert!(!stats.is_empty());
    assert!(
        stats.iter().all(|s| s.source == JobSource::DiskHit),
        "warm cache must re-simulate nothing: {stats:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jobs_sharing_physical_config_share_disk_entries() {
    let dir = tempdir("shared-key");
    let r = Runner::quick().with_cache_dir(&dir).unwrap();
    // Same physical simulation under two tags: one fresh run, one disk
    // entry, and the second resolves without simulating — from the memo,
    // which knows the job by the same key as the disk.
    for tag in ["tag-a", "tag-b"] {
        r.sweep(&[r.job_with(Workload::Gups, SystemVariant::Baseline, r.base_cfg, tag)]);
    }
    let stats = r.job_stats();
    assert_eq!(stats.len(), 2);
    assert_eq!(stats[0].source, JobSource::Fresh);
    assert_eq!(stats[1].source, JobSource::Shared);
    assert_eq!(r.disk_cache().unwrap().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn geomean_edge_cases() {
    assert_eq!(geomean(&[]), 0.0);
    assert!((geomean(&[7.5]) - 7.5).abs() < 1e-9);
    assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
    // Non-positive inputs are clamped, not NaN/-inf.
    assert!(geomean(&[0.0, 1.0]).is_finite());
    assert!(geomean(&[-3.0]).is_finite());
    // Tiny positive values survive the log-domain round trip.
    let small = geomean(&[1e-9, 1e-9]);
    assert!(small > 0.0 && small < 1e-8);
}

#[test]
fn table_row_edge_cases() {
    // Zero-row table still renders a header and separator.
    let t = Table::new("Empty", vec!["A", "B"]);
    let s = t.to_string();
    assert!(s.contains("### Empty"));
    assert!(s.contains("| A | B |"));

    // Cells wider than headers stretch the column.
    let mut t = Table::new("Wide", vec!["X"]);
    t.row(vec!["a-very-long-cell".into()]);
    assert!(t.to_string().contains("a-very-long-cell"));

    // Width mismatches panic in both directions.
    let wide = std::panic::catch_unwind(|| {
        let mut t = Table::new("T", vec!["A"]);
        t.row(vec!["a".into(), "b".into()]);
    });
    assert!(wide.is_err());
}
