//! The four workloads: their frozen parameters, one pass over each (the
//! timed region), the set-up measurement and the output checks.
//!
//! Every workload is a closed batch: one process, one measuring thread
//! (`jobs = 1`, `threads = 1`), the next simulation starting when the
//! previous one ends. The seed goes to `Runner::seed`, from which the
//! workload generators make the kernels; `net_saturation`, whose
//! `SyntheticConfig` has no seed, jitters its offered rates instead.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use netcrafter::core::SplitMix64;
use netcrafter::multigpu::{JobSpec, RunResult, System, SystemVariant};
use netcrafter::net::synthetic::run_load_point;
use netcrafter::net::{LoadPoint, SyntheticConfig};
use netcrafter::proto::{Metrics, SystemConfig};
use netcrafter::workloads::Workload;
use netcrafter_bench::figures::{self, TOPOLOGY_WORKLOADS};
use netcrafter_bench::{DiskCache, JobSource, PrefixStats, Runner};

use crate::calib::Calibrator;
use crate::span::Recorder;
use crate::stats::{digest, median};

pub const DEFAULT_SEED: u64 = 0xC0FFEE;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig14Paper,
    ScaleoutFt16,
    SweepPrefix,
    NetSaturation,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Fig14Paper,
        Kind::ScaleoutFt16,
        Kind::SweepPrefix,
        Kind::NetSaturation,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig14Paper => "fig14_paper",
            Kind::ScaleoutFt16 => "scaleout_ft16",
            Kind::SweepPrefix => "sweep_prefix",
            Kind::NetSaturation => "net_saturation",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Quick scale: exercises every code path of the harness in seconds;
    /// its numbers are not of record.
    pub smoke: bool,
}

/// The policy variants of `crates/bench/benches/sweep_prefix.rs`: the
/// seven full-line variants share one warmup prefix per workload and the
/// two trimming variants a second; Baseline shares nothing.
const SWEEP_VARIANTS: [SystemVariant; 10] = [
    SystemVariant::Baseline,
    SystemVariant::StitchOnly,
    SystemVariant::SeqOnly,
    SystemVariant::DataPrio,
    SystemVariant::StitchPool {
        window: 16,
        selective: true,
    },
    SystemVariant::StitchPool {
        window: 32,
        selective: true,
    },
    SystemVariant::StitchPool {
        window: 64,
        selective: true,
    },
    SystemVariant::StitchPool {
        window: 32,
        selective: false,
    },
    SystemVariant::StitchTrim,
    SystemVariant::NetCrafter,
];

const SWEEP_WORKLOADS: [Workload; 6] = [
    Workload::Gups,
    Workload::Spmv,
    Workload::Pr,
    Workload::Mt,
    Workload::Atax,
    Workload::Mvt,
];

/// Offered loads of `net_saturation` in flits/cycle/source. With four
/// sources per cluster and 4/7 of uniform traffic crossing the 1
/// flit/cycle inter-cluster link, the fabric saturates at 0.4375: two
/// points sit below it and two above.
const NET_RATES: [f64; 4] = [0.05, 0.2, 0.5, 1.0];

/// A fresh runner for one pass: an empty memo, so nothing is replayed.
pub fn runner(kind: Kind, p: Params) -> Runner {
    let mut r = if p.smoke {
        Runner::quick()
    } else {
        Runner::paper()
    }
    .with_jobs(1);
    r.seed = p.seed;
    if kind == Kind::SweepPrefix {
        r.base_cfg.netcrafter.warmup_cycles = if p.smoke { 2_800 } else { 20_000 };
    }
    r
}

/// The workload's simulations (none for `net_saturation`).
pub fn job_list(kind: Kind, r: &Runner) -> Vec<JobSpec> {
    match kind {
        Kind::Fig14Paper => figures::sweep_jobs("fig14", r),
        Kind::ScaleoutFt16 => {
            let mut cfg = r.base_cfg;
            cfg.topology = SystemConfig::fat_tree_16().topology;
            let mut jobs = Vec::new();
            for w in TOPOLOGY_WORKLOADS {
                for v in [SystemVariant::Baseline, SystemVariant::NetCrafter] {
                    jobs.push(figures::topology_job(r, w, v, cfg, "topo-fat-tree-16"));
                }
            }
            jobs
        }
        Kind::SweepPrefix => {
            let mut jobs = Vec::new();
            for w in SWEEP_WORKLOADS {
                for v in SWEEP_VARIANTS {
                    jobs.push(r.job(w, v));
                }
            }
            jobs
        }
        Kind::NetSaturation => Vec::new(),
    }
}

/// The synthetic fabric of `net_saturation` (and of the `net.synth`
/// probes): 8 endpoints, a hundredth of the flits in a smoke run.
pub fn net_config(smoke: bool, flits_per_source: u64) -> SyntheticConfig {
    SyntheticConfig {
        endpoints_per_cluster: 4,
        flits_per_source: if smoke {
            flits_per_source / 100
        } else {
            flits_per_source
        },
        ..SyntheticConfig::default()
    }
}

/// Flits each of the eight sources injects per offered rate.
const NET_FLITS_PER_SOURCE: u64 = 500_000;
/// Load points each offered rate is run as.
const NET_POINTS_PER_RATE: u64 = 5;
/// Flits per source of one warm-up point (the workload's set-up).
const NET_WARMUP_FLITS: u64 = 20_000;

/// The seed's offered rates: each base rate moved by at most 2 %.
pub fn net_rates(seed: u64) -> [f64; 4] {
    let mut rng = SplitMix64::new(seed);
    NET_RATES.map(|rate| {
        let unit = rng.next_u64() as f64 / u64::MAX as f64;
        rate * (1.0 + 0.02 * (2.0 * unit - 1.0))
    })
}

/// One simulation (or load point) of a pass.
#[derive(Debug, Clone)]
pub struct JobOut {
    pub key: String,
    /// `sim`, `fork`, `disk` or `dup` for runner jobs; `sim` otherwise.
    pub source: &'static str,
    pub wall_ms: f64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Messages the engine delivered (delivered flits for a load point).
    pub events: u64,
    /// FNV-1a of the result's text form.
    pub digest: String,
    /// Why the job failed, if it did.
    pub fault: Option<String>,
}

/// Everything one pass over a workload produced.
pub struct Pass {
    /// The timed region, in raw host seconds.
    pub wall_s: f64,
    /// The host's speed factor over the pass (see `calib`); host times of
    /// the pass are divided by it before they are reported.
    pub factor: f64,
    pub jobs: Vec<JobOut>,
    /// The Figure 14 table text (`fig14_paper` only).
    pub table: Option<String>,
    /// Baseline ÷ NetCrafter execution cycles, one per workload that ran
    /// under both.
    pub speedups: Vec<f64>,
    /// Harvested metrics of all jobs, merged.
    pub totals: Metrics,
    pub prefix: Option<PrefixStats>,
    /// Results in job order, kept so the traced run can replay them.
    pub results: Vec<Arc<RunResult>>,
}

impl Pass {
    pub fn cycles(&self) -> u64 {
        self.jobs.iter().map(|j| j.cycles).sum()
    }

    pub fn events(&self) -> u64 {
        self.jobs.iter().map(|j| j.events).sum()
    }

    pub fn failed(&self) -> usize {
        self.jobs.iter().filter(|j| j.fault.is_some()).count()
    }

    /// The timed region in seconds at the reference host speed.
    pub fn calibrated_wall_s(&self) -> f64 {
        self.wall_s / self.factor
    }

    /// Calibrated job walls, ascending.
    pub fn job_walls_ms(&self) -> Vec<f64> {
        let mut walls: Vec<f64> = self.jobs.iter().map(|j| j.wall_ms / self.factor).collect();
        walls.sort_by(f64::total_cmp);
        walls
    }
}

/// The invariants every finished simulation must satisfy, whatever the
/// seed: each generated wavefront retired, and every packet an RDMA engine
/// sent was received by one.
fn verify(job: &JobSpec, res: &RunResult) -> Option<String> {
    let cfg = job.variant.apply(job.base_cfg);
    let kernel = job
        .workload
        .generate(&job.scale, cfg.total_gpus(), job.seed);
    let done = res.metrics.counter("total.cu.waves_done");
    if done != kernel.total_waves() as u64 {
        return Some(format!(
            "{done} wavefronts retired, {} generated",
            kernel.total_waves()
        ));
    }
    let sent: Vec<(String, u64)> = res
        .metrics
        .counters_with_prefix("total.rdma.out.")
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
    for (key, out) in sent {
        let kind = key.trim_start_matches("total.rdma.out.");
        let inn = res.metrics.counter(&format!("total.rdma.in.{kind}"));
        if inn != out {
            return Some(format!("rdma {kind}: {out} sent, {inn} received"));
        }
    }
    (res.exec_cycles == 0).then(|| "zero execution cycles".to_owned())
}

fn verify_point(rate: f64, point: &LoadPoint) -> Option<String> {
    // Flit conservation is asserted inside `run_load_point`. Beyond it:
    // throughput can exceed neither the offered load nor what the two
    // inter-cluster links carry (2 flits/cycle, 4/7 of traffic crossing).
    let cap = (8.0 * rate).min(3.5) * 1.01;
    if !(point.throughput > 0.0 && point.throughput <= cap) {
        return Some(format!(
            "throughput {} outside (0, {cap}]",
            point.throughput
        ));
    }
    // One switch pipeline (30 cycles) plus two wires is the floor.
    (point.avg_latency < 32.0).then(|| format!("latency {} below the pipeline", point.avg_latency))
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "panic".to_owned())
}

fn speedups(jobs: &[JobSpec], results: &[Arc<RunResult>]) -> Vec<f64> {
    let mut by_workload: BTreeMap<String, [Option<u64>; 2]> = BTreeMap::new();
    for (job, res) in jobs.iter().zip(results) {
        let slot = match job.variant {
            SystemVariant::Baseline => 0,
            SystemVariant::NetCrafter => 1,
            _ => continue,
        };
        by_workload.entry(job.workload.to_string()).or_default()[slot] = Some(res.exec_cycles);
    }
    by_workload
        .values()
        .filter_map(|pair| Some(pair[0]? as f64 / pair[1]? as f64))
        .collect()
}

fn source_label(source: JobSource) -> &'static str {
    match source {
        JobSource::Fresh => "sim",
        JobSource::Forked => "fork",
        JobSource::DiskHit => "disk",
        JobSource::Shared => "dup",
    }
}

fn finish(
    wall_s: f64,
    factor: f64,
    jobs: &[JobSpec],
    results: Vec<Arc<RunResult>>,
    mut outs: Vec<JobOut>,
    table: Option<String>,
    prefix: Option<PrefixStats>,
) -> Pass {
    let mut totals = Metrics::new();
    for ((job, res), out) in jobs.iter().zip(&results).zip(&mut outs) {
        totals.merge(&res.metrics);
        out.cycles = res.exec_cycles;
        out.events = res.metrics.counter("sys.messages");
        out.digest = digest(&res.to_kv());
        out.fault = verify(job, res);
    }
    Pass {
        wall_s,
        factor,
        speedups: speedups(jobs, &results),
        jobs: outs,
        table,
        totals,
        prefix,
        results,
    }
}

/// A job before its result is filled in.
pub fn blank(key: String, source: &'static str, wall_ms: f64) -> JobOut {
    JobOut {
        key,
        source,
        wall_ms,
        cycles: 0,
        events: 0,
        digest: String::new(),
        fault: None,
    }
}

/// The calibrator of a pass. A sample is taken wherever the pass can be
/// interrupted; calibration stays below a tenth of the pass and outside
/// the timed region.
pub fn calibrator(p: Params) -> Calibrator {
    Calibrator::new(if p.smoke { 10_000 } else { 200_000 })
}

/// The job list cut into `Runner::sweep` calls. A calibration sample is
/// taken between calls, so the chunks are as small as the plan tree allows:
/// jobs that share a warmup prefix stay in one call, every other job gets
/// its own. Prefix groups are runs of neighbours in the matrices here, so
/// the simulations and the forks are those of one sweep over the whole
/// list.
fn chunks(jobs: &[JobSpec]) -> impl Iterator<Item = &[JobSpec]> {
    jobs.chunk_by(|a, b| {
        let key = a.prefix_key();
        key.is_some() && key == b.prefix_key()
    })
}

/// One pass through `Runner::sweep`, as `figures` and policy sweeps run
/// it. The timed region is the sweeps plus, on `fig14_paper`, generating
/// the table. When tracing, each resolved job becomes a child span laid
/// end to end in completion order (one worker, so that is their order in
/// time; the runner records walls, not start times).
///
/// # Errors
///
/// A panic inside a sweep (a watchdog, a broken model invariant) fails
/// the whole pass: the runner holds no partial results worth reporting.
pub fn runner_pass(
    kind: Kind,
    p: Params,
    r: &Runner,
    jobs: &[JobSpec],
    rec: &mut Recorder,
) -> Result<Pass, String> {
    let mut cal = calibrator(p);
    let mut wall_s = 0.0;
    let swept = rec.scope("bench.runner.sweep", 0, |rec| {
        let mut results = Vec::new();
        for chunk in chunks(jobs) {
            cal.sample();
            let resolved = r.runs_completed();
            let start_ns = rec.now_ns();
            let t0 = Instant::now();
            results.extend(catch_unwind(AssertUnwindSafe(|| r.sweep(chunk))).map_err(panic_text)?);
            wall_s += t0.elapsed().as_secs_f64();
            if rec.on() {
                let mut at = start_ns;
                for (i, stat) in r.job_stats().iter().enumerate().skip(resolved) {
                    let end = at + stat.wall.as_nanos() as u64;
                    rec.add(
                        &format!("job.{}", source_label(stat.source)),
                        at,
                        end,
                        i as u32 + 1,
                    );
                    at = end;
                }
            }
        }
        cal.sample();
        let t0 = Instant::now();
        let table = (kind == Kind::Fig14Paper).then(|| {
            rec.scope("bench.figures.table", 0, |_| {
                figures::generate("fig14", r).to_string()
            })
        });
        wall_s += t0.elapsed().as_secs_f64();
        Ok::<_, String>((results, table))
    });
    let (results, table) = swept?;

    let stats: BTreeMap<String, (JobSource, f64)> = r
        .job_stats()
        .into_iter()
        .map(|s| (s.memo_key, (s.source, s.wall.as_secs_f64() * 1e3)))
        .collect();
    let outs = jobs
        .iter()
        .map(|job| {
            let key = job.memo_key();
            let (source, wall_ms) = stats[&key];
            blank(key, source_label(source), wall_ms)
        })
        .collect();
    Ok(finish(
        wall_s,
        cal.factor(),
        jobs,
        results,
        outs,
        table,
        Some(r.prefix_stats()),
    ))
}

/// One pass that drives every job itself through the public steps the
/// runner would take, with a span around each: the traced pass of
/// `fig14_paper` and `scaleout_ft16`. A job that panics fails alone.
pub fn stepped_pass(p: Params, jobs: &[JobSpec], rec: &mut Recorder) -> (Pass, u64) {
    let mut cal = calibrator(p);
    let mut done = Vec::new();
    let mut mem_ops = 0;
    for (i, job) in jobs.iter().enumerate() {
        let id = i as u32 + 1;
        cal.sample();
        let t_job = Instant::now();
        let ran = rec.scope("job", id, |rec| {
            catch_unwind(AssertUnwindSafe(|| {
                let cfg = rec.scope("multigpu.variant_apply", id, |_| {
                    job.variant.apply(job.base_cfg)
                });
                let kernel = rec.scope("workloads.generate", id, |_| {
                    job.workload
                        .generate(&job.scale, cfg.total_gpus(), job.seed)
                });
                let mut sys = rec.scope("multigpu.build", id, |_| System::build(cfg, &kernel));
                sys.set_threads(job.threads);
                let exec_cycles = rec.scope("multigpu.run", id, |_| sys.run(job.max_cycles));
                let metrics = rec.scope("multigpu.harvest", id, |_| sys.harvest());
                (
                    RunResult {
                        exec_cycles,
                        metrics,
                    },
                    kernel.total_mem_ops() as u64,
                )
            }))
        });
        done.push((ran.map_err(panic_text), t_job.elapsed().as_secs_f64() * 1e3));
    }
    cal.sample();
    let wall_s = done.iter().map(|d| d.1 / 1e3).sum();

    let mut ok_jobs = Vec::new();
    let mut results = Vec::new();
    let mut outs = Vec::new();
    let mut failed = Vec::new();
    for (job, (ran, wall_ms)) in jobs.iter().zip(done) {
        match ran {
            Ok((res, ops)) => {
                mem_ops += ops;
                ok_jobs.push(job.clone());
                results.push(Arc::new(res));
                outs.push(blank(job.memo_key(), "sim", wall_ms));
            }
            Err(why) => failed.push(JobOut {
                fault: Some(why),
                ..blank(job.memo_key(), "sim", wall_ms)
            }),
        }
    }
    let mut pass = finish(wall_s, cal.factor(), &ok_jobs, results, outs, None, None);
    pass.jobs.extend(failed);
    (pass, mem_ops)
}

/// One pass of `net_saturation`: each offered rate as five load points of
/// a fifth of its flits, one span each, so that the pass can be
/// interrupted for calibration every second or so.
pub fn net_pass(p: Params, rec: &mut Recorder) -> Pass {
    let cfg = net_config(p.smoke, NET_FLITS_PER_SOURCE / NET_POINTS_PER_RATE);
    let delivered = cfg.flits_per_source * 2 * u64::from(cfg.endpoints_per_cluster);
    let mut cal = calibrator(p);
    let mut jobs = Vec::new();
    for rate in net_rates(p.seed) {
        for part in 0..NET_POINTS_PER_RATE {
            cal.sample();
            let t_point = Instant::now();
            let ran = rec.scope("net.synth.load_point", jobs.len() as u32 + 1, |_| {
                catch_unwind(|| run_load_point(&cfg, rate)).map_err(panic_text)
            });
            let wall_ms = t_point.elapsed().as_secs_f64() * 1e3;
            let mut out = blank(format!("offered={rate}/{part}"), "sim", wall_ms);
            match ran {
                Ok(point) => {
                    out.cycles = (delivered as f64 / point.throughput).round() as u64;
                    out.events = delivered;
                    out.digest = digest(&format!("{point:?}"));
                    out.fault = verify_point(rate, &point);
                }
                Err(why) => out.fault = Some(why),
            }
            jobs.push(out);
        }
    }
    cal.sample();
    Pass {
        wall_s: jobs.iter().map(|j| j.wall_ms / 1e3).sum(),
        factor: cal.factor(),
        jobs,
        table: None,
        speedups: Vec::new(),
        totals: Metrics::new(),
        prefix: None,
        results: Vec::new(),
    }
}

/// One untraced or runner-driven pass over `kind`.
pub fn pass(kind: Kind, p: Params, rec: &mut Recorder) -> Result<Pass, String> {
    if kind == Kind::NetSaturation {
        return Ok(net_pass(p, rec));
    }
    let r = runner(kind, p);
    let jobs = job_list(kind, &r);
    runner_pass(kind, p, &r, &jobs, rec)
}

/// Set-up time: what a run pays before the first simulated cycle, summed
/// over the workload's job list — `Workload::generate` plus
/// `System::build` for every job. `net_saturation` has no build step of
/// its own (`run_load_point` builds and runs in one call), so its set-up
/// is a short warm-up burst at each offered rate. Repeated at least five
/// times and for at least a second; the median is reported, calibrated
/// like a pass. The first repetition also brings the allocator to its
/// working size.
pub fn setup_s(kind: Kind, p: Params) -> f64 {
    let r = runner(kind, p);
    let jobs = job_list(kind, &r);
    let warmup = net_config(p.smoke, NET_WARMUP_FLITS);
    let rates = net_rates(p.seed);
    let mut cal = calibrator(p);
    let t_all = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < 5 || (t_all.elapsed().as_secs_f64() < 1.0 && reps.len() < 25) {
        cal.sample();
        let t0 = Instant::now();
        for job in &jobs {
            let cfg = job.variant.apply(job.base_cfg);
            let kernel = job
                .workload
                .generate(&job.scale, cfg.total_gpus(), job.seed);
            std::hint::black_box(System::build(cfg, &kernel));
        }
        if kind == Kind::NetSaturation {
            for rate in rates {
                std::hint::black_box(run_load_point(&warmup, rate));
            }
        }
        reps.push(t0.elapsed().as_secs_f64());
    }
    cal.sample();
    median(&reps) / cal.factor()
}

/// A scratch directory under `benchmark/out`, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(name: &str) -> std::io::Result<Self> {
        let dir = out_dir().join(format!("tmp-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Leftover scratch files are harmless; nothing to report from drop.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where the benchmark writes: `benchmark/out`, next to its manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Stores `pass`'s results in a disk cache and resolves the job list
/// again on a second runner over that cache: every job replays from disk.
/// Returns microseconds per replayed job and, on `fig14_paper`, the table
/// generated from the replayed results with the seconds that took.
pub fn replay(
    kind: Kind,
    p: Params,
    pass: &Pass,
    rec: &mut Recorder,
) -> std::io::Result<(f64, Option<(String, f64)>)> {
    let scratch = Scratch::new("cache")?;
    let r = runner(kind, p);
    let jobs = job_list(kind, &r);
    let cache = DiskCache::open(scratch.path())?;
    for (job, res) in jobs.iter().zip(&pass.results) {
        cache.store(&job.cache_key(), res)?;
    }
    let r = r.with_cache_dir(scratch.path())?;
    let t0 = Instant::now();
    rec.scope("bench.cache.replay", 0, |_| r.sweep(&jobs));
    let per_job_us = t0.elapsed().as_secs_f64() * 1e6 / jobs.len().max(1) as f64;
    let replayed = r
        .job_stats()
        .iter()
        .filter(|s| s.source == JobSource::DiskHit)
        .count();
    if replayed != jobs.len() {
        return Err(std::io::Error::other(format!(
            "{replayed} of {} jobs replayed from the disk cache",
            jobs.len()
        )));
    }
    let table = (kind == Kind::Fig14Paper).then(|| {
        let t0 = Instant::now();
        let text = rec.scope("bench.figures.table", 0, |_| {
            figures::generate("fig14", &r).to_string()
        });
        (text, t0.elapsed().as_secs_f64())
    });
    Ok((per_job_us, table))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_matrices_are_frozen() {
        let p = Params {
            seed: DEFAULT_SEED,
            smoke: false,
        };
        assert_eq!(
            job_list(Kind::Fig14Paper, &runner(Kind::Fig14Paper, p)).len(),
            75
        );
        let ft16 = job_list(Kind::ScaleoutFt16, &runner(Kind::ScaleoutFt16, p));
        assert_eq!(ft16.len(), 6);
        assert!(ft16
            .iter()
            .all(|j| j.variant.apply(j.base_cfg).total_gpus() == 16 && j.scale.ctas == 256));
        let sweep = job_list(Kind::SweepPrefix, &runner(Kind::SweepPrefix, p));
        assert_eq!(sweep.len(), 60);
        // Nine of ten variants can share a prefix; Baseline cannot.
        assert_eq!(
            sweep.iter().filter(|j| j.prefix_key().is_some()).count(),
            54
        );
        assert!(sweep
            .iter()
            .all(|j| j.warmup_cycles() == 20_000 && j.seed == DEFAULT_SEED));
    }

    #[test]
    fn chunks_keep_prefix_groups_whole() {
        let p = Params {
            seed: DEFAULT_SEED,
            smoke: false,
        };
        let fig14 = job_list(Kind::Fig14Paper, &runner(Kind::Fig14Paper, p));
        assert!(chunks(&fig14).all(|c| c.len() == 1));
        // Per workload: Baseline alone, seven full-line variants, two
        // trimming variants.
        let sweep = job_list(Kind::SweepPrefix, &runner(Kind::SweepPrefix, p));
        let lens: Vec<usize> = chunks(&sweep).map(<[JobSpec]>::len).collect();
        assert_eq!(lens, [1, 7, 2].repeat(6));
        let keys: std::collections::BTreeSet<_> =
            sweep.iter().filter_map(JobSpec::prefix_key).collect();
        assert_eq!(keys.len(), 12, "no prefix group is split over two chunks");
    }

    #[test]
    fn seed_moves_each_rate_by_at_most_two_percent() {
        assert_eq!(net_rates(7), net_rates(7));
        assert_ne!(net_rates(7), net_rates(8));
        for seed in 0..200 {
            for (got, base) in net_rates(seed).iter().zip(NET_RATES) {
                assert!((got / base - 1.0).abs() <= 0.02, "{got} vs {base}");
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("fig14"), None);
    }
}
