//! Benchmark harness: regenerates every table and figure of the
//! NetCrafter paper's evaluation (§5) from the simulator.
//!
//! * [`Runner`] — memoizing experiment executor (most figures share the
//!   per-workload baseline runs, so results are cached by configuration).
//! * [`Table`] — plain-text/markdown table renderer.
//! * [`figures`] — one job list and one renderer per paper artifact
//!   (`table1`, `fig3` … `fig22`, `table3`), each rendering a [`Table`]
//!   whose rows match the series the paper plots.
//!
//! The `figures` binary drives this library from the command line:
//!
//! ```text
//! cargo run -p netcrafter-bench --release --bin figures -- all
//! cargo run -p netcrafter-bench --release --bin figures -- fig14 fig18
//! cargo run -p netcrafter-bench --release --bin figures -- --quick fig3
//! cargo run -p netcrafter-bench --release --bin figures -- all --jobs 4 --cache-dir .figure-cache
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Host-side crate: it owns the sweep stopwatch (`Instant`) and the memo and
// planning maps, whose iteration order never reaches a result (groups are
// sorted before they run, results are read back by key).
#![allow(clippy::disallowed_types)]

pub mod cache;
pub mod cli;
pub mod figures;

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use netcrafter_multigpu::{CheckpointPlan, Experiment, RunResult, SystemVariant};
use netcrafter_proto::SystemConfig;
use netcrafter_sim::{ForkSnapshot, SchedulerMode};
use netcrafter_workloads::{Scale, Workload};

pub use cache::DiskCache;
pub use cli::Cli;

/// Geometric mean of strictly positive values (0.0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean (0.0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A renderable result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table caption, e.g. `"Figure 14: overall speedup"`.
    pub title: String,
    /// Column headers; the first column is the row label.
    pub header: Vec<String>,
    /// Row cells (first cell is the label).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, header: Vec<&str>) -> Self {
        Self {
            title: title.into(),
            header: header.into_iter().map(str::to_owned).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }
}

/// Formats a ratio/speedup.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "### {}\n", self.title)?;
        let render = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, cell) in cells.iter().enumerate() {
                write!(f, " {cell:>w$} |", w = widths[i])?;
            }
            writeln!(f)
        };
        render(f, &self.header)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<w$}|", "", w = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            render(f, row)?;
        }
        Ok(())
    }
}

/// Where a job's result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSource {
    /// Simulated in this process from cycle 0.
    Fresh,
    /// Simulated in this process from an in-memory prefix fork shared
    /// with other jobs of the same sweep.
    Forked,
    /// Replayed from the persistent on-disk cache.
    DiskHit,
    /// Answered by a result another display name produced, in this sweep
    /// or an earlier one: the two jobs have one
    /// [`Experiment::cache_key`]. No execution at all.
    Shared,
}

/// Wall-clock/throughput record for one resolved job. Each display name
/// is recorded once; a memo replay under a name already recorded is free
/// and not recorded again.
#[derive(Debug, Clone)]
pub struct JobStat {
    /// The job's display name, [`Experiment::memo_key`]
    /// (`workload|variant|tag`).
    pub memo_key: String,
    /// Where the result came from.
    pub source: JobSource,
    /// Time to resolve the job.
    pub wall: Duration,
    /// Simulated cycles of the resolved result.
    pub exec_cycles: u64,
    /// Cycle the simulation started stepping from: the fork's cycle for
    /// a [`JobSource::Forked`] job, 0 otherwise.
    pub resumed_at: u64,
    /// Component ticks the engine executed from `resumed_at` on (0 for a
    /// replay): the deterministic measure of host work that the
    /// `gated_counts` test holds per run.
    pub ticks: u64,
    /// Cycles the engine executed over the same span (0 for a replay):
    /// the event-driven scheduler's skipped cycles are not among them,
    /// and `gated_counts` holds this per run too.
    pub steps: u64,
    /// Messages delivered over the same cycles.
    pub messages: u64,
}

impl JobStat {
    /// The record of a job that simulated nothing: a disk replay or a
    /// shared result.
    fn replay(memo_key: String, source: JobSource, wall: Duration, result: &RunResult) -> Self {
        Self {
            memo_key,
            source,
            wall,
            exec_cycles: result.exec_cycles,
            resumed_at: 0,
            ticks: 0,
            steps: 0,
            messages: 0,
        }
    }
}

/// `n` per second of `over` (0.0 over no time at all: a replay).
fn per_sec(n: u64, over: Duration) -> f64 {
    if over.is_zero() {
        0.0
    } else {
        n as f64 / over.as_secs_f64()
    }
}

/// The footer line on engine work: component ticks executed and ticks
/// per message delivered over the same cycles. A component that spins
/// shows up here before it shows up on the clock.
pub fn ticks_line(ticks: u64, messages: u64) -> String {
    let per_message = ticks as f64 / messages.max(1) as f64;
    format!("  {ticks} ticks, {per_message:.2} ticks/message\n")
}

/// Counters describing how a [`Runner`]'s sweeps exploited shared work:
/// prefix groups, in-memory forks, duplicate aliasing, and the wall-clock
/// the sweeps took end to end. Retrieved via [`Runner::prefix_stats`];
/// all counters accumulate across every [`Runner::sweep`] call on the
/// runner, and the three job counts are tallies of [`Runner::job_stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefixStats {
    /// Prefix groups planned (two or more jobs sharing a warmup window).
    pub groups: usize,
    /// Representative runs that captured a shared fork in flight
    /// (≤ `groups`: a representative that another process's disk result
    /// answered simulates nothing, so its group mates start from cycle 0).
    pub prefix_runs: usize,
    /// Wall-clock of the fork-capturing representative runs (full runs,
    /// not just their warmup windows).
    pub prefix_wall: Duration,
    /// Jobs that resumed from an in-memory fork instead of cycle 0: the
    /// [`JobSource::Forked`] stats.
    pub forked_jobs: usize,
    /// Display names answered by a result another name produced
    /// (identical cache key): the [`JobSource::Shared`] stats.
    pub shared_jobs: usize,
    /// Fresh simulations executed (cold and forked alike): the
    /// [`JobSource::Fresh`] and [`JobSource::Forked`] stats.
    pub simulated_jobs: usize,
    /// Jobs requested across all sweeps (memo hits included).
    pub swept_jobs: usize,
    /// End-to-end wall-clock of all sweeps.
    pub sweep_wall: Duration,
}

impl PrefixStats {
    /// Fraction of fresh simulations that resumed from a shared prefix
    /// fork — the sweep matrix's prefix-hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        if self.simulated_jobs == 0 {
            0.0
        } else {
            self.forked_jobs as f64 / self.simulated_jobs as f64
        }
    }
}

/// Everything a [`Runner`] has resolved, behind its one lock: the memo,
/// the job stats and the counters only a sweep knows.
#[derive(Default)]
struct Record {
    /// [`Experiment::cache_key`] → result.
    memo: HashMap<String, Arc<RunResult>>,
    /// One stat per resolved display name, in completion order.
    stats: Vec<JobStat>,
    /// `groups`, `prefix_runs`, `prefix_wall`, `swept_jobs` and
    /// `sweep_wall`; the job counts stay 0 here, since
    /// [`Runner::prefix_stats`] reads them off `stats`.
    sweeps: PrefixStats,
}

/// Memoizing experiment executor shared by all figure generators.
///
/// A job is an [`Experiment`], and the runner knows it by one key, what
/// it runs: [`Experiment::cache_key`]. A result comes from the first of
/// four sources that has it:
///
/// 1. the in-process memo (thread-safe; `cache_key` → result),
/// 2. an optional persistent [`DiskCache`] under the same key, so
///    re-running `figures` only simulates configurations it has never
///    seen,
/// 3. a simulation resumed from an in-memory prefix fork shared with the
///    other jobs of its [`Experiment::prefix_key`] group (`prefix_share`),
/// 4. a fresh simulation from cycle 0.
///
/// The display name [`Experiment::memo_key`] only labels the job's
/// [`JobStat`]. [`Runner::sweep`] is the one entry point: it resolves a
/// batch of jobs on `jobs` worker threads, and every figure reaches every
/// simulation through it. Because every simulation is deterministic in
/// its key and results are retrieved from the memo by key, figure output
/// is bit-identical no matter how many workers ran the sweep (or whether
/// results came from disk).
pub struct Runner {
    /// Base system configuration (before variant application).
    pub base_cfg: SystemConfig,
    /// Workload scale.
    pub scale: Scale,
    /// Workload seed.
    pub seed: u64,
    /// Watchdog limit per simulation.
    pub max_cycles: u64,
    /// Print one progress line per fresh run to stderr.
    pub verbose: bool,
    /// Worker threads used by [`Runner::sweep`].
    pub jobs: usize,
    /// Group sweep jobs by [`Experiment::prefix_key`] and execute each
    /// group's warmup window once, forking the paused state in memory to
    /// every member (the default). `false` runs every job from cycle 0 —
    /// results are byte-identical either way, so this is host-side
    /// tuning, not a simulation input.
    pub prefix_share: bool,
    disk: Option<DiskCache>,
    state: Mutex<Record>,
}

impl Runner {
    /// Full experiment configuration: 4 GPUs × 8 CUs, paper-scale
    /// workloads. A complete `figures all` pass takes minutes.
    pub fn paper() -> Self {
        Self::with_base(SystemConfig::small(8), Scale::paper())
    }

    /// Scaled-down configuration for smoke tests and the gated matrices:
    /// 2 CUs per GPU, tiny workloads.
    pub fn quick() -> Self {
        Self::with_base(SystemConfig::small(2), Scale::tiny())
    }

    /// A runner over an arbitrary configuration and scale.
    pub fn with_base(base_cfg: SystemConfig, scale: Scale) -> Self {
        Self {
            base_cfg,
            scale,
            seed: 0xC0FFEE,
            max_cycles: 300_000_000,
            verbose: false,
            jobs: 1,
            prefix_share: true,
            disk: None,
            state: Mutex::default(),
        }
    }

    /// Enables or disables prefix-sharing in [`Runner::sweep`] (on by
    /// default; results are byte-identical either way).
    pub fn with_prefix_share(mut self, on: bool) -> Self {
        self.prefix_share = on;
        self
    }

    /// Sets the worker-thread count for [`Runner::sweep`] (0 is treated
    /// as 1).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Attaches a persistent result cache rooted at `dir`.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        self.disk = Some(DiskCache::open(dir)?);
        Ok(self)
    }

    /// The attached disk cache, if any.
    pub fn disk_cache(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// The job for `workload` × `variant` on the base config.
    pub fn job(&self, workload: Workload, variant: SystemVariant) -> Experiment {
        self.job_with(workload, variant, self.base_cfg, "")
    }

    /// The job for an alternate base configuration; `tag` names the
    /// alteration in reports (results are keyed by what the job runs).
    pub fn job_with(
        &self,
        workload: Workload,
        variant: SystemVariant,
        base_cfg: SystemConfig,
        tag: &str,
    ) -> Experiment {
        Experiment {
            workload,
            variant,
            base_cfg,
            scale: self.scale,
            seed: self.seed,
            max_cycles: self.max_cycles,
            threads: 1,
            scheduler: SchedulerMode::EventDriven,
            tag: tag.to_owned(),
        }
    }

    /// The runner's one lock. No simulation runs while it is held, so a
    /// panicking job cannot poison it.
    fn lock(&self) -> MutexGuard<'_, Record> {
        self.state
            .lock()
            .expect("no simulation runs under the runner's lock")
    }

    /// Resolves one job of a sweep, known by its `key`
    /// ([`Experiment::cache_key`]), through memo → disk → simulation
    /// under `plan`, in one of the plan tree's two fork roles: a group
    /// member's plan resumes from its group's fork instead of stepping
    /// from 0; a representative's plan pauses at `pause_at`, captures an
    /// in-memory fork for its group mates — returned alongside the
    /// result — and continues. The forks only shortcut the simulations
    /// themselves, so results stay byte-identical to cold runs.
    fn resolve(
        &self,
        job: &Experiment,
        key: &str,
        plan: CheckpointPlan<'_>,
    ) -> (Arc<RunResult>, Option<ForkSnapshot>) {
        if let Some(hit) = self.lock().memo.get(key) {
            return (Arc::clone(hit), None);
        }
        let name = job.memo_key();
        let t0 = Instant::now();
        if let Some(result) = self.disk.as_ref().and_then(|disk| disk.load(key)) {
            let stat = JobStat::replay(name, JobSource::DiskHit, t0.elapsed(), &result);
            return (self.record(key, stat, result), None);
        }
        if self.verbose {
            eprintln!("  running {name} …");
        }
        let run = job.run_planned(plan, None).unwrap_or_else(|e| {
            // Prefix sharing is an optimization, never a correctness
            // dependency: a fork that does not restore costs a cold run.
            eprintln!("warning: unusable prefix fork for {name} ({e}); simulating cold");
            let cold = CheckpointPlan {
                resume_from: None,
                ..plan
            };
            job.run_planned(cold, None)
                .expect("a cold run restores nothing")
        });
        let forked = run.resumed_at > 0;
        if forked && self.verbose {
            eprintln!(
                "  forked {name}: simulated from cycle {} instead of 0",
                run.resumed_at
            );
        }
        let result = run.result;
        let wall = t0.elapsed();
        if let Some(disk) = &self.disk {
            if let Err(e) = disk.store(key, &result) {
                eprintln!("warning: cannot persist {name}: {e}");
            }
        }
        let stat = JobStat {
            memo_key: name,
            source: if forked {
                JobSource::Forked
            } else {
                JobSource::Fresh
            },
            wall,
            exec_cycles: result.exec_cycles,
            resumed_at: run.resumed_at,
            ticks: run.ticks,
            steps: run.steps,
            messages: run.messages,
        };
        (self.record(key, stat, result), run.snapshot)
    }

    /// Records `stat` and memoizes `result` under `key`, in one critical
    /// section.
    fn record(&self, key: &str, stat: JobStat, result: RunResult) -> Arc<RunResult> {
        let result = Arc::new(result);
        let mut record = self.lock();
        record.stats.push(stat);
        record.memo.insert(key.to_owned(), Arc::clone(&result));
        result
    }

    /// Resolves a batch of jobs and returns the results in input order.
    ///
    /// Each job's [`Experiment::cache_key`] is computed once and is the
    /// only key the sweep uses. The batch is planned as a
    /// *prefix-sharing tree* before anything runs (DESIGN.md §3.7):
    ///
    /// 1. Jobs whose key is memoized are answered; of the rest, the first
    ///    job of each key is *pending* and the others wait for its result.
    /// 2. Pending jobs that will not replay from disk are grouped by
    ///    [`Experiment::prefix_key`]; each group of two or more becomes an
    ///    internal tree node whose *representative* (the group's first
    ///    job in canonical order) runs from cycle 0, pauses one cycle
    ///    before the warmup cycle to capture an in-memory
    ///    [`ForkSnapshot`], and continues to completion. The other
    ///    members restore the fork — no cycle of the shared warmup window
    ///    is ever simulated twice.
    /// 3. A task channel is drained by [`Runner::jobs`] workers. It is
    ///    seeded with the representatives, each carrying a sender, and
    ///    the ungrouped jobs; a completing representative sends its group
    ///    mates along with the fork it captured, so divergent suffixes
    ///    start the moment their prefix unblocks them, with no barrier
    ///    between tree levels. The channel closes, and the workers go
    ///    home, once no task that could still send one is left — a
    ///    panicking representative drops its sender as it unwinds.
    ///
    /// Every job then reads its result from the memo by key, which keeps
    /// output in input order. A display name ([`Experiment::memo_key`])
    /// with no [`JobStat`] yet — its result was produced under another
    /// name, in this sweep or an earlier one — gets one
    /// [`JobSource::Shared`] stat. Results are byte-identical to cold
    /// execution no matter how the tree was shaped or how many workers
    /// drained it.
    pub fn sweep(&self, jobs: &[Experiment]) -> Vec<Arc<RunResult>> {
        let t0 = Instant::now();
        // -- plan: one job per new key, then group shareable jobs by prefix key --
        let keys: Vec<String> = jobs.iter().map(Experiment::cache_key).collect();
        let pending: Vec<(&Experiment, &str)> = {
            let record = self.lock();
            let mut queued = HashSet::new();
            jobs.iter()
                .zip(&keys)
                .filter(|(_, key)| !record.memo.contains_key(*key) && queued.insert(key.as_str()))
                .map(|(job, key)| (job, key.as_str()))
                .collect()
        };
        let mut groups: Vec<Vec<usize>> = Vec::new();
        if self.prefix_share {
            let mut by_key: HashMap<String, Vec<usize>> = HashMap::new();
            for (i, (job, key)) in pending.iter().enumerate() {
                // A disk replay never simulates, so its prefix is not
                // worth paying for.
                if self.disk.as_ref().is_some_and(|d| d.contains(key)) {
                    continue;
                }
                if let Some(prefix) = job.prefix_key() {
                    by_key.entry(prefix).or_default().push(i);
                }
            }
            groups = by_key.into_values().filter(|g| g.len() >= 2).collect();
            // Deterministic planning order (HashMap iteration is not).
            groups.sort_by_key(|g| g[0]);
        }
        let grouped: HashSet<usize> = groups.iter().flatten().copied().collect();

        // -- execute: a task channel that closes when no task can add one --
        enum Task {
            /// Run group `g`'s representative from cycle 0, capturing a
            /// fork of its paused warmup state in flight, then send the
            /// remaining members on the sender it carries.
            Rep(usize, mpsc::Sender<Task>),
            /// Resolve `pending[idx]`, restoring `fork` when present.
            Job(usize, Option<ForkSnapshot>),
        }
        const OPEN: &str = "the sweep holds the receiver until every sender is gone";
        let (tx, rx) = mpsc::channel();
        for g in 0..groups.len() {
            tx.send(Task::Rep(g, tx.clone())).expect(OPEN);
        }
        for i in (0..pending.len()).filter(|i| !grouped.contains(i)) {
            tx.send(Task::Job(i, None)).expect(OPEN);
        }
        drop(tx);
        let rx = Mutex::new(rx);
        let worker = || loop {
            // The guard is dropped at the end of this statement, so a task
            // runs without it.
            let next = rx
                .lock()
                .expect("no task runs under the receiver's lock")
                .recv();
            let Ok(task) = next else { return };
            match task {
                Task::Rep(g, mates) => {
                    let (rep, key) = pending[groups[g][0]];
                    let t0 = Instant::now();
                    // Fork at W - 1, the last cycle every policy knob is
                    // inert: pausing *at* W executes cycle W under the
                    // representative's own policy (`prefix_key` makes W >= 1).
                    let plan = CheckpointPlan {
                        resume_from: None,
                        pause_at: Some(rep.warmup_cycles() - 1),
                    };
                    let (_, fork) = self.resolve(rep, key, plan);
                    if fork.is_some() {
                        let mut record = self.lock();
                        record.sweeps.prefix_runs += 1;
                        record.sweeps.prefix_wall += t0.elapsed();
                    }
                    for &idx in &groups[g][1..] {
                        mates.send(Task::Job(idx, fork.clone())).expect(OPEN);
                    }
                }
                Task::Job(idx, fork) => {
                    let (job, key) = pending[idx];
                    let plan = CheckpointPlan {
                        resume_from: fork.as_ref().map(ForkSnapshot::bytes),
                        pause_at: None,
                    };
                    self.resolve(job, key, plan);
                }
            }
        };
        let workers = self.jobs.max(1).min(pending.len());
        if workers <= 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            });
        }

        // -- answer every job by key; name the shared results --
        let mut record = self.lock();
        let results: Vec<_> = keys
            .iter()
            .map(|key| Arc::clone(&record.memo[key]))
            .collect();
        for (job, result) in jobs.iter().zip(&results) {
            let name = job.memo_key();
            if !record.stats.iter().any(|s| s.memo_key == name) {
                let stat = JobStat::replay(name, JobSource::Shared, Duration::ZERO, result);
                record.stats.push(stat);
            }
        }
        record.sweeps.groups += groups.len();
        record.sweeps.swept_jobs += jobs.len();
        record.sweeps.sweep_wall += t0.elapsed();
        results
    }

    /// Accumulated prefix-sharing counters (see [`PrefixStats`]).
    pub fn prefix_stats(&self) -> PrefixStats {
        let record = self.lock();
        let count = |of: &[JobSource]| {
            let stats = record.stats.iter();
            stats.filter(|s| of.contains(&s.source)).count()
        };
        PrefixStats {
            forked_jobs: count(&[JobSource::Forked]),
            shared_jobs: count(&[JobSource::Shared]),
            simulated_jobs: count(&[JobSource::Fresh, JobSource::Forked]),
            ..record.sweeps
        }
    }

    /// Number of distinct results held (memoized cache keys).
    pub fn runs_completed(&self) -> usize {
        self.lock().memo.len()
    }

    /// Per-job stats for every job resolved so far (simulated or replayed
    /// from disk), in completion order.
    pub fn job_stats(&self) -> Vec<JobStat> {
        self.lock().stats.clone()
    }

    /// The stats footer both binaries print: one line per resolved job,
    /// the totals (simulated vs replayed from disk, aggregate throughput,
    /// engine ticks) and what the sweeps shared.
    pub fn report(&self) -> String {
        let ps = self.prefix_stats();
        let mut out = String::new();
        let (mut wall, mut cycles, mut ticks, mut messages) = (Duration::ZERO, 0, 0, 0);
        let mut replayed = 0usize;
        for s in &self.job_stats() {
            let src = match s.source {
                JobSource::Fresh => "sim",
                JobSource::Forked => "fork",
                JobSource::DiskHit => "disk",
                JobSource::Shared => "dup",
            };
            let resumed = if s.resumed_at > 0 {
                format!("  resumed from cycle {}", s.resumed_at)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  {:<40} {src:>4}  {:>9.1?}  {:>12} cyc  {:>7.1} Mcyc/s{resumed}\n",
                s.memo_key,
                s.wall,
                s.exec_cycles,
                per_sec(s.exec_cycles, s.wall) / 1e6,
            ));
            match s.source {
                JobSource::Fresh | JobSource::Forked => {
                    wall += s.wall;
                    cycles += s.exec_cycles;
                    ticks += s.ticks;
                    messages += s.messages;
                }
                JobSource::DiskHit => replayed += 1,
                JobSource::Shared => {}
            }
        }
        out.push_str(&format!(
            "  {} simulated ({cycles} cycles in {wall:.1?} cpu-time, {:.1} Mcyc/s), \
             {replayed} replayed from disk\n",
            ps.simulated_jobs,
            per_sec(cycles, wall) / 1e6,
        ));
        if ticks > 0 {
            out.push_str(&ticks_line(ticks, messages));
        }
        out.push_str(&format!(
            "  sweep wall-clock {:.1?} ({:.1} jobs/s): {} prefix group(s), \
             {} fork-capturing representative(s) in {:.1?}, {} forked, {} deduped \
             (prefix-hit ratio {:.2})\n",
            ps.sweep_wall,
            per_sec(ps.swept_jobs as u64, ps.sweep_wall),
            ps.groups,
            ps.prefix_runs,
            ps.prefix_wall,
            ps.forked_jobs,
            ps.shared_jobs,
            ps.hit_ratio(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("Demo", vec!["Workload", "Speedup"]);
        t.row(vec!["GUPS".into(), f2(1.5)]);
        let s = t.to_string();
        assert!(s.contains("### Demo"));
        assert!(s.contains("GUPS |"), "cells are right-aligned: {s}");
        assert!(s.contains("1.50"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("Demo", vec!["A", "B"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn runner_memoizes() {
        let r = Runner::quick();
        let job = [r.job(Workload::Gups, SystemVariant::Baseline)];
        let a = &r.sweep(&job)[0];
        let b = &r.sweep(&job)[0];
        assert!(Arc::ptr_eq(a, b));
        assert_eq!(r.runs_completed(), 1);
        // Only the fresh run is recorded; the memo replay is free.
        let stats = r.job_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].source, JobSource::Fresh);
        assert_eq!(stats[0].exec_cycles, a.exec_cycles);
    }

    #[test]
    fn sweep_returns_input_order_and_dedups() {
        let r = Runner::quick().with_jobs(2);
        let jobs = vec![
            r.job(Workload::Gups, SystemVariant::Baseline),
            r.job(Workload::Gups, SystemVariant::Ideal),
            r.job(Workload::Gups, SystemVariant::Baseline), // duplicate
        ];
        let results = r.sweep(&jobs);
        assert_eq!(results.len(), 3);
        assert!(Arc::ptr_eq(&results[0], &results[2]));
        assert!(!Arc::ptr_eq(&results[0], &results[1]));
        assert_eq!(r.runs_completed(), 2, "duplicate simulated once");
        // A second sweep is fully memoized.
        let again = r.sweep(&jobs);
        assert!(Arc::ptr_eq(&results[0], &again[0]));
        assert_eq!(r.job_stats().len(), 2);
    }

    #[test]
    fn prefix_shared_sweep_matches_cold_results() {
        // The tentpole oracle at runner granularity: a warmup-window
        // sweep over several policy variants must produce byte-identical
        // results with and without prefix sharing — and the shared run
        // must actually fork.
        let variants = [
            SystemVariant::NetCrafter,
            SystemVariant::StitchTrim,
            SystemVariant::StitchOnly,
            SystemVariant::SeqOnly,
            SystemVariant::Baseline, // FIFO roster: never forked
        ];
        let mut shared = Runner::quick().with_jobs(3);
        shared.base_cfg.netcrafter.warmup_cycles = 400;
        let mut cold = Runner::quick().with_prefix_share(false);
        cold.base_cfg.netcrafter.warmup_cycles = 400;

        let jobs = |r: &Runner| -> Vec<Experiment> {
            variants.iter().map(|&v| r.job(Workload::Gups, v)).collect()
        };
        let a = shared.sweep(&jobs(&shared));
        let b = cold.sweep(&jobs(&cold));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.exec_cycles, y.exec_cycles);
            assert_eq!(x.metrics.to_kv(), y.metrics.to_kv());
        }

        let ps = shared.prefix_stats();
        // NetCrafter+StitchTrim share an OnTrim-fill prefix; StitchOnly+
        // SeqOnly share a FullLine one; Baseline runs cold. Each group's
        // representative (NetCrafter, StitchOnly) runs from cycle 0 and
        // forks in flight, so only the non-representative member of each
        // pair resumes from the fork.
        assert_eq!(ps.groups, 2, "{ps:?}");
        assert_eq!(ps.prefix_runs, 2, "{ps:?}");
        assert_eq!(ps.forked_jobs, 2, "{ps:?}");
        assert_eq!(ps.simulated_jobs, 5, "{ps:?}");
        assert!((ps.hit_ratio() - 0.4).abs() < 1e-9);
        assert!(ps.sweep_wall > Duration::ZERO);
        assert!(ps.prefix_wall > Duration::ZERO);
        assert_eq!(cold.prefix_stats().forked_jobs, 0);

        // Stats record the forked jobs as such.
        let forked = shared
            .job_stats()
            .iter()
            .filter(|s| s.source == JobSource::Forked)
            .count();
        assert_eq!(forked, 2);
        assert!(shared
            .job_stats()
            .iter()
            .filter(|s| s.source == JobSource::Forked)
            .all(|s| s.resumed_at > 0 && s.resumed_at <= 400));
    }

    #[test]
    fn unusable_fork_falls_back_to_a_cold_run() {
        // Prefix sharing is never a correctness dependency: a fork that
        // does not restore costs a warning and a run from cycle 0.
        let r = Runner::quick();
        let job = r.job(Workload::Gups, SystemVariant::NetCrafter);
        let cold = Runner::quick().sweep(std::slice::from_ref(&job)).remove(0);
        let bad = ForkSnapshot::new(400, b"not a snapshot".to_vec(), 0);
        let plan = CheckpointPlan {
            resume_from: Some(bad.bytes()),
            pause_at: None,
        };
        let (result, _) = r.resolve(&job, &job.cache_key(), plan);
        assert_eq!(result.to_kv(), cold.to_kv());
        let stats = r.job_stats();
        assert_eq!(stats[0].source, JobSource::Fresh);
        assert_eq!(stats[0].resumed_at, 0);
        assert_eq!(r.prefix_stats().forked_jobs, 0);
    }

    #[test]
    fn sweep_aliases_identical_physical_jobs() {
        // Two jobs with different display names but one physical identity
        // (tag is display-only) share a single execution, whether they
        // come in one sweep or in two. The name that did not run is
        // recorded once, as Shared.
        let plain = Runner::quick().job(Workload::Gups, SystemVariant::Baseline);
        let tagged = Experiment {
            tag: "alias".into(),
            ..plain.clone()
        };
        let both = [plain.clone(), tagged.clone()];
        let apart = [plain, tagged.clone()];
        for batches in [vec![&both[..]], vec![&apart[..1], &apart[1..]]] {
            let r = Runner::quick().with_jobs(2);
            let results: Vec<_> = batches.iter().flat_map(|b| r.sweep(b)).collect();
            assert!(Arc::ptr_eq(&results[0], &results[1]));
            r.sweep(std::slice::from_ref(&tagged));
            assert_eq!(r.runs_completed(), 1);
            let ps = r.prefix_stats();
            assert_eq!((ps.simulated_jobs, ps.shared_jobs), (1, 1), "{ps:?}");
            let stats: Vec<_> = r
                .job_stats()
                .into_iter()
                .map(|s| (s.memo_key, s.source))
                .collect();
            assert_eq!(
                stats,
                [
                    ("GUPS|Baseline|".to_owned(), JobSource::Fresh),
                    ("GUPS|Baseline|alias".to_owned(), JobSource::Shared),
                ],
                "{} sweep(s)",
                batches.len()
            );
        }
    }

    #[test]
    fn sweep_keeps_jobs_that_differ_only_in_seed_apart() {
        // One display name, two seeds: two simulations, and each result is
        // the one its job gets when swept alone.
        let r = Runner::quick();
        let default_seed = r.job(Workload::Gups, SystemVariant::NetCrafter);
        let seed1 = default_seed.clone().with_seed(1);
        assert_eq!(default_seed.memo_key(), seed1.memo_key());
        let results = r.sweep(&[default_seed, seed1.clone()]);
        let alone = Runner::quick().sweep(&[seed1]).remove(0);
        assert_eq!(results[1].to_kv(), alone.to_kv());
        assert_ne!(results[0].exec_cycles, results[1].exec_cycles);
        assert_eq!(r.prefix_stats().simulated_jobs, 2);
    }

    #[test]
    fn no_sharing_without_warmup_window() {
        // warmup_cycles == 0 (the default): knobs act from cycle 0, so
        // nothing can group and the sweep runs exactly as before.
        let r = Runner::quick().with_jobs(2);
        let jobs = vec![
            r.job(Workload::Gups, SystemVariant::NetCrafter),
            r.job(Workload::Gups, SystemVariant::StitchTrim),
        ];
        r.sweep(&jobs);
        let ps = r.prefix_stats();
        assert_eq!(ps.groups, 0);
        assert_eq!(ps.forked_jobs, 0);
        assert_eq!(ps.simulated_jobs, 2);
    }

    #[test]
    fn prefix_stats_reports_render() {
        let r = Runner::quick();
        assert_eq!(r.prefix_stats().hit_ratio(), 0.0);
        assert!(r.report().contains("(0.0 jobs/s)"), "{}", r.report());
        let nothing = RunResult {
            exec_cycles: 0,
            metrics: Default::default(),
        };
        let stat = |source| JobStat::replay(String::new(), source, Duration::ZERO, &nothing);
        {
            let mut record = r.lock();
            record.stats = [JobSource::Fresh, JobSource::Shared]
                .into_iter()
                .chain([JobSource::Forked; 9])
                .map(stat)
                .collect();
            record.sweeps.groups = 2;
            record.sweeps.prefix_runs = 2;
            record.sweeps.swept_jobs = 12;
            record.sweeps.sweep_wall = Duration::from_secs(2);
        }
        let ps = r.prefix_stats();
        assert_eq!(
            (ps.forked_jobs, ps.shared_jobs, ps.simulated_jobs),
            (9, 1, 10)
        );
        assert!((ps.hit_ratio() - 0.9).abs() < 1e-9);
        let report = r.report();
        assert!(report.contains("prefix-hit ratio 0.90"), "{report}");
        assert!(report.contains("2 prefix group(s)"), "{report}");
        assert!(report.contains("(6.0 jobs/s)"), "{report}");
    }

    #[test]
    fn stats_report_summarizes() {
        let stats = vec![
            JobStat {
                memo_key: "GUPS|Baseline|".into(),
                source: JobSource::Fresh,
                wall: std::time::Duration::from_millis(10),
                exec_cycles: 1_000_000,
                resumed_at: 0,
                ticks: 3_000,
                steps: 900,
                messages: 2_000,
            },
            JobStat {
                memo_key: "GUPS|Ideal|".into(),
                source: JobSource::DiskHit,
                wall: std::time::Duration::from_micros(50),
                exec_cycles: 900_000,
                resumed_at: 0,
                ticks: 0,
                steps: 0,
                messages: 0,
            },
            JobStat {
                memo_key: "GUPS|NetCrafter|".into(),
                source: JobSource::Forked,
                wall: std::time::Duration::from_millis(5),
                exec_cycles: 800_000,
                resumed_at: 250_000,
                ticks: 1_500,
                steps: 400,
                messages: 1_000,
            },
        ];
        let r = Runner::quick();
        r.lock().stats = stats;
        let report = r.report();
        assert!(report.contains("GUPS|Baseline|"));
        assert!(report.contains("2 simulated"));
        assert!(report.contains("1 replayed from disk"));
        assert!(report.contains("resumed from cycle 250000"));
        assert!(
            report.contains("4500 ticks, 1.50 ticks/message"),
            "{report}"
        );
        assert!(report.contains("100.0 Mcyc/s"), "{report}");
    }
}
