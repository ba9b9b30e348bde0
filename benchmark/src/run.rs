//! One run of one workload in this process: untraced (`--trace 0`, the
//! end-to-end metrics) or traced (`--trace 1`, the per-layer metrics and
//! the trace file). `all` starts one such process per run.

use std::time::Instant;

use netcrafter::multigpu::{JobSpec, System};
use netcrafter::proto::Metrics;
use netcrafter::sim::trace::json::Value;
use netcrafter_bench::geomean;

use crate::json::{self, members, text, J};
use crate::probes::{self, Values};
use crate::span::Recorder;
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{median, tail_index};
use crate::workloads::{self, JobOut, Kind, Params, Pass, DEFAULT_SEED};

/// Figure 14 of the paper: NetCrafter over the non-uniform baseline.
const PAPER_GEOMEAN: f64 = 1.16;
const PAPER_MAX: f64 = 1.64;

/// What one run reports. `metrics` holds every end-to-end metric (untraced)
/// or every per-layer metric (traced); `None` marks one that does not
/// apply to the workload.
pub struct Outcome {
    pub kind: Kind,
    pub params: Params,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, Option<f64>)>,
    /// Remarks on single metrics (which percentile, how many samples).
    pub notes: Vec<(&'static str, String)>,
    pub pass_wall_s: Vec<f64>,
    /// The jobs of the first pass.
    pub jobs: Vec<JobOut>,
    pub table: Option<String>,
    /// Digests checked against `golden.json` (default seed, full scale).
    pub golden_checked: bool,
    /// Rows of the "where host time goes" table (traced `fig14_paper`).
    pub host_time: Vec<HostRow>,
}

pub struct HostRow {
    pub layer: String,
    pub what: String,
    pub count: f64,
    pub ns_each: f64,
}

impl HostRow {
    pub fn seconds(&self) -> f64 {
        self.count * self.ns_each / 1e9
    }
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name)?.2
    }

    /// The result line the driver reads: exactly the metrics
    /// `BENCHMARK.json` lists for this kind of run.
    pub fn contract_line(&self) -> String {
        let listed = |name: &str| self.traced || spec::end_to_end(name).is_some_and(|m| m.contract);
        let metrics = self
            .metrics
            .iter()
            .filter(|m| listed(m.0))
            .map(|&(name, unit, value)| {
                let value = value.unwrap_or(0.0);
                (
                    name,
                    J::obj([("value", J::Num(value)), ("unit", J::str(unit))]),
                )
            });
        J::obj([
            ("correct", J::Bool(self.correct())),
            ("attempted", J::Int(self.attempted)),
            ("failed", J::Int(self.failed)),
            ("metrics", J::obj(metrics)),
        ])
        .compact()
    }

    /// Everything, for `all` to aggregate.
    pub fn detail(&self) -> J {
        let metrics = self.metrics.iter().map(|&(name, unit, value)| {
            let value = value.map_or(J::Null, J::Num);
            (name, J::obj([("value", value), ("unit", J::str(unit))]))
        });
        let jobs = self.jobs.iter().map(|j| {
            J::obj([
                ("key", J::str(&*j.key)),
                ("source", J::str(j.source)),
                ("wall_ms", J::Num(j.wall_ms)),
                ("cycles", J::Int(j.cycles)),
                ("events", J::Int(j.events)),
                ("digest", J::str(&*j.digest)),
                ("fault", j.fault.as_deref().map_or(J::Null, J::str)),
            ])
        });
        let host_time = self.host_time.iter().map(|r| {
            J::obj([
                ("layer", J::str(&*r.layer)),
                ("what", J::str(&*r.what)),
                ("count", J::Num(r.count)),
                ("ns_each", J::Num(r.ns_each)),
                ("seconds", J::Num(r.seconds())),
            ])
        });
        J::obj([
            ("workload", J::str(self.kind.name())),
            ("seed", J::str(format!("{:#x}", self.params.seed))),
            ("smoke", J::Bool(self.params.smoke)),
            ("traced", J::Bool(self.traced)),
            ("correct", J::Bool(self.correct())),
            ("attempted", J::Int(self.attempted)),
            ("failed", J::Int(self.failed)),
            ("metrics", J::obj(metrics)),
            (
                "notes",
                J::obj(self.notes.iter().map(|(k, v)| (*k, J::str(&**v)))),
            ),
            ("pass_wall_s", J::nums(&self.pass_wall_s)),
            ("jobs", J::Arr(jobs.collect())),
            ("table", self.table.as_deref().map_or(J::Null, J::str)),
            ("golden_checked", J::Bool(self.golden_checked)),
            ("host_time", J::Arr(host_time.collect())),
        ])
    }

    /// The human-readable report: every metric by name with its unit.
    pub fn print(&self) {
        let p = self.params;
        println!(
            "{} seed {:#x} {}{}",
            self.kind.name(),
            p.seed,
            if self.traced { "traced" } else { "untraced" },
            if p.smoke {
                " SMOKE (quick scale, not of record)"
            } else {
                ""
            },
        );
        for &(name, unit, value) in &self.metrics {
            let note = self
                .notes
                .iter()
                .find(|n| n.0 == name)
                .map_or(String::new(), |n| format!("  ({})", n.1));
            match value {
                Some(v) => println!("  {name:<38} {v:>16.6} {unit}{note}"),
                None => println!("  {name:<38} {:>16} {unit}{note}", "n/a"),
            }
        }
        for job in self.jobs.iter().filter(|j| j.fault.is_some()) {
            println!(
                "  FAILED {}: {}",
                job.key,
                job.fault.as_deref().unwrap_or("")
            );
        }
        if !self.host_time.is_empty() {
            print!(
                "{}",
                host_time_table(&self.host_time, self.value("multigpu.run_s").unwrap_or(0.0))
            );
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Counts jobs of later passes whose digest differs from the first pass:
/// a deterministic simulator that disagrees with itself has failed.
fn digest_drift(passes: &[Pass]) -> u64 {
    let first = &passes[0];
    passes[1..]
        .iter()
        .flat_map(|p| p.jobs.iter().zip(&first.jobs))
        .filter(|(a, b)| a.digest != b.digest)
        .count() as u64
}

/// A pass that died whole (a panic inside `Runner::sweep`): every job of
/// the workload counts as attempted and failed.
fn dead_pass(kind: Kind, p: Params, why: String) -> Vec<JobOut> {
    let r = workloads::runner(kind, p);
    workloads::job_list(kind, &r)
        .iter()
        .map(|job| JobOut {
            fault: Some(why.clone()),
            ..workloads::blank(job.memo_key(), "sim", 0.0)
        })
        .collect()
}

/// The untraced run: set-up measured first, then whole passes over the
/// closed batch until `seconds` of measuring have gone (at least one).
/// Host-time metrics are medians over the passes.
pub fn untraced(kind: Kind, p: Params, seconds: f64) -> Outcome {
    let setup_s = workloads::setup_s(kind, p);
    let mut rec = Recorder::new(false);
    let mut passes = Vec::new();
    let mut dead = None;
    let mut measured = 0.0;
    let mut raw = Vec::new();
    while passes.is_empty() || measured < seconds {
        match workloads::pass(kind, p, &mut rec) {
            Ok(pass) => {
                measured += pass.wall_s;
                raw.push(format!("{:.3} s raw / {:.3}", pass.wall_s, pass.factor));
                passes.push(pass);
            }
            Err(why) => {
                dead = Some(dead_pass(kind, p, why));
                break;
            }
        }
    }
    let rss = peak_rss_mb();

    let mut out = Outcome {
        kind,
        params: p,
        traced: false,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: Vec::new(),
        pass_wall_s: passes.iter().map(Pass::calibrated_wall_s).collect(),
        jobs: Vec::new(),
        table: None,
        golden_checked: false,
        host_time: Vec::new(),
    };
    // What applies to this workload; the rest is reported as n/a.
    let mut values = Values::new();
    if let Some(first) = passes.first() {
        let wall_s = median(&out.pass_wall_s);
        let over = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        values.insert("wall_s", wall_s);
        out.notes.push((
            "wall_s",
            format!("calibrated: {} host-speed factor", raw.join(", ")),
        ));
        values.insert(
            "sim_kcycles_per_host_s",
            first.cycles() as f64 / 1e3 / wall_s,
        );
        values.insert("host_ns_per_event", wall_s * 1e9 / first.events() as f64);
        values.insert("job_wall_ms_p50", over(&|p| median(&p.job_walls_ms())));
        out.notes
            .push(("job_wall_ms_p50", format!("n={}", first.jobs.len())));
        if let Some((ix, pct)) = tail_index(first.jobs.len()) {
            values.insert("job_wall_ms_p85", over(&|p| p.job_walls_ms()[ix]));
            out.notes.push((
                "job_wall_ms_p85",
                format!(
                    "p{pct:.1} of n={}: the highest percentile with ten samples beyond it",
                    first.jobs.len()
                ),
            ));
        }
        if !first.speedups.is_empty() {
            let gm = geomean(&first.speedups);
            values.insert("nc_geomean_speedup", gm);
            if kind == Kind::Fig14Paper && !p.smoke {
                let max = first.speedups.iter().copied().fold(0.0, f64::max);
                values.insert(
                    "paper_geomean_err_pct",
                    (gm / PAPER_GEOMEAN - 1.0).abs() * 100.0,
                );
                values.insert("paper_max_err_pct", (max / PAPER_MAX - 1.0).abs() * 100.0);
            } else {
                out.notes.push((
                    "nc_geomean_speedup",
                    "unvalidated: the paper has no figure for this matrix".to_owned(),
                ));
            }
        }
        out.attempted = passes.iter().map(|p| p.jobs.len() as u64).sum();
        out.failed = passes.iter().map(|p| p.failed() as u64).sum::<u64>() + digest_drift(&passes);
        out.table = first.table.clone();
    }
    if let Some(jobs) = &dead {
        out.attempted += jobs.len() as u64;
        out.failed += jobs.len() as u64;
    }
    out.jobs = match passes.into_iter().next() {
        Some(first) => first.jobs,
        None => dead.unwrap_or_default(),
    };
    values.insert("setup_s", setup_s);
    if let Some(rss) = rss {
        values.insert("peak_rss_mb", rss);
    }
    values.insert("ops_attempted", out.attempted as f64);
    values.insert("ops_failed", out.failed as f64);
    out.metrics = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, values.get(m.name).copied()))
        .collect();
    out
}

fn pct(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        100.0 * num / den
    }
}

/// The count and simulated layer metrics, from the merged harvest of all
/// jobs of the pass.
fn counts(layers: &mut Values, t: &Metrics) {
    let c = |key: &str| t.counter(key) as f64;
    layers.insert("net.inter_flits", c("net.inter.flits"));
    layers.insert(
        "net.inter_link_util_pct",
        pct(c("net.inter.flits"), c("net.inter.capacity_flits")),
    );
    layers.insert("core.cq.stitched_flits", c("net.inter.cq.absorbed"));
    layers.insert(
        "core.cq.stitch_ratio",
        pct(c("net.inter.cq.absorbed"), c("net.inter.cq.pushed")) / 100.0,
    );
    layers.insert("core.trim.trimmed", c("total.trim.trimmed"));
    layers.insert(
        "mem.l1.accesses",
        c("total.l1.reads") + c("total.l1.writes"),
    );
    layers.insert(
        "mem.l1.miss_pct",
        pct(
            c("total.l1.misses"),
            c("total.l1.hits") + c("total.l1.misses"),
        ),
    );
    layers.insert(
        "mem.l2.accesses",
        c("total.l2.reads") + c("total.l2.writes"),
    );
    layers.insert("mem.l2.mshr_retries", c("total.l2.mshr_retries"));
    layers.insert(
        "mem.dram.accesses",
        c("total.dram.reads") + c("total.dram.writes"),
    );
    layers.insert(
        "mem.dram.queue_wait_cycles",
        c("total.dram.queue_wait_cycles"),
    );
    let l1tlb = c("total.l1tlb.hits") + c("total.l1tlb.misses");
    layers.insert("vm.l1tlb.accesses", l1tlb);
    layers.insert("vm.l1tlb.miss_pct", pct(c("total.l1tlb.misses"), l1tlb));
    layers.insert(
        "vm.l2tlb.miss_pct",
        pct(
            c("total.l2tlb.misses"),
            c("total.l2tlb.hits") + c("total.l2tlb.misses"),
        ),
    );
    layers.insert("vm.gmmu.walks", c("total.gmmu.walks"));
    layers.insert(
        "vm.gmmu.pt_reads",
        c("total.gmmu.local_pt_reads") + c("total.gmmu.remote_pt_reads"),
    );
    layers.insert(
        "vm.gmmu.walker_queue_events",
        c("total.gmmu.walker_queue_events"),
    );
    layers.insert(
        "vm.gmmu.walk_latency_cyc",
        t.latency("total.gmmu.walk_latency").mean(),
    );
    layers.insert("gpu.cu.mem_ops", c("total.cu.mem_ops"));
    layers.insert("gpu.cu.idle_cycles", c("total.cu.idle_cycles"));
    layers.insert(
        "gpu.cu.inter_read_latency_cyc",
        t.latency("total.cu.inter_cluster_read_latency").mean(),
    );
    let packets: u64 = t
        .counters_with_prefix("total.rdma.out.")
        .map(|(_, v)| v)
        .sum();
    layers.insert("gpu.rdma.packets", packets as f64);
}

/// "Where host time goes", estimated from outside: how often a layer's
/// operation ran in the traced `fig14_paper` pass times what the probe
/// says one costs. The probes run hot and alone, so each row is a floor.
fn host_time(layers: &Values, t: &Metrics) -> Vec<HostRow> {
    let c = |key: &str| t.counter(key) as f64;
    let l = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let row = |layer: &str, what: &str, count, ns_each| HostRow {
        layer: layer.to_owned(),
        what: what.to_owned(),
        count,
        ns_each,
    };
    vec![
        row(
            "sim",
            "message through the arena",
            l("sim.messages"),
            l("sim.arena.ns_per_msg"),
        ),
        row(
            "sim",
            "message waking its receiver",
            l("sim.messages"),
            l("sim.engine.sparse_ns_per_wake"),
        ),
        row(
            "net",
            "packet segmented and reassembled",
            l("gpu.rdma.packets"),
            l("net.seg.ns_per_packet"),
        ),
        row(
            "core",
            "flit through a ClusterQueue",
            c("net.inter.cq.pushed"),
            l("core.cq.ns_per_flit"),
        ),
        row(
            "core",
            "trimming decision",
            c("total.trim.considered"),
            l("core.trim.ns_per_decision"),
        ),
        row(
            "mem",
            "L1/L2 tag lookup",
            l("mem.l1.accesses") + l("mem.l2.accesses"),
            l("mem.tagstore.ns_per_access"),
        ),
        row(
            "mem",
            "MSHR allocate and complete",
            c("total.l1.misses") + c("total.l2.read_misses") + c("total.l2.write_misses"),
            l("mem.mshr.ns_per_op"),
        ),
        row(
            "vm",
            "TLB lookup",
            l("vm.l1tlb.accesses") + c("total.l2tlb.hits") + c("total.l2tlb.misses"),
            l("vm.tlb.ns_per_lookup"),
        ),
        row(
            "vm",
            "page-table walk",
            l("vm.gmmu.walks"),
            l("vm.pagetable.ns_per_walk"),
        ),
    ]
}

pub fn host_time_table(rows: &[HostRow], run_s: f64) -> String {
    let mut out = String::from(
        "  where host time goes in multigpu.run_s (estimated from outside: count x probe cost)\n",
    );
    out.push_str(&format!(
        "    {:<5} {:<34} {:>13} {:>9} {:>9} {:>7}\n",
        "crate", "operation", "count", "ns each", "seconds", "share"
    ));
    let mut attributed = 0.0;
    for r in rows {
        attributed += r.seconds();
        out.push_str(&format!(
            "    {:<5} {:<34} {:>13.0} {:>9.1} {:>9.3} {:>6.1}%\n",
            r.layer,
            r.what,
            r.count,
            r.ns_each,
            r.seconds(),
            pct(r.seconds(), run_s)
        ));
    }
    out.push_str(&format!(
        "    {:<5} {:<34} {:>13} {:>9} {:>9.3} {:>6.1}%\n",
        "-",
        "unattributed: engine dispatch, CU,",
        "",
        "",
        run_s - attributed,
        pct(run_s - attributed, run_s)
    ));
    out.push_str(&format!(
        "    {:<5} {:<34} {:>13} {:>9} {:>9.3} {:>6.1}%\n",
        "", "  component glue, cache misses", "", "", run_s, 100.0
    ));
    out
}

/// Digests of `jobs` (and the table) that `golden.json` does not confirm.
fn golden_mismatches(kind: Kind, jobs: &[JobOut], table: Option<&str>) -> Result<u64, String> {
    let path = golden_path();
    // No file yet (the first `--bless`) confirms nothing; an unreadable or
    // malformed one is an error.
    let golden = if path.exists() {
        json::read(&path)?
    } else {
        Value::Null
    };
    let Some(mine) = golden.get("workloads").and_then(|w| w.get(kind.name())) else {
        return Ok(jobs.len() as u64);
    };
    let known = mine.get("jobs").map_or(&[][..], members);
    let mut bad = jobs
        .iter()
        .filter(|j| {
            !known
                .iter()
                .any(|(k, v)| *k == j.key && v.as_str() == Some(&j.digest))
        })
        .count() as u64;
    bad += known.len().saturating_sub(jobs.len()) as u64;
    if text(mine, "table") != table {
        bad += 1;
    }
    Ok(bad)
}

pub fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json")
}

/// The golden entry of one workload, from its jobs and table.
pub fn golden_entry(jobs: &[(String, String)], table: Option<&str>) -> J {
    J::obj([
        (
            "jobs",
            J::obj(jobs.iter().map(|(k, d)| (k.clone(), J::str(&**d)))),
        ),
        ("table", table.map_or(J::Null, J::str)),
    ])
}

/// The traced run: one pass with a span around every call into a layer,
/// the layer's counts from the harvest, the probes, and the workload's own
/// extras. Writes `out/trace-<workload>.json`.
///
/// # Errors
///
/// Scratch-directory and trace-file I/O errors, and an unreadable
/// `golden.json`.
pub fn traced(kind: Kind, p: Params) -> Result<Outcome, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut rec = Recorder::new(true);
    let mut layers: Values = PER_LAYER.iter().map(|l| (l.name, 0.0)).collect();
    let r = workloads::runner(kind, p);
    let jobs = workloads::job_list(kind, &r);
    let mut dead = None;

    let pass = match kind {
        Kind::Fig14Paper | Kind::ScaleoutFt16 => {
            let (pass, mem_ops) = workloads::stepped_pass(p, &jobs, &mut rec);
            layers.insert("workloads.mem_ops", mem_ops as f64);
            layers.insert("workloads.generate_s", rec.total_s("workloads.generate"));
            layers.insert("multigpu.build_s", rec.total_s("multigpu.build"));
            layers.insert("multigpu.run_s", rec.total_s("multigpu.run"));
            layers.insert("multigpu.harvest_s", rec.total_s("multigpu.harvest"));
            Some(pass)
        }
        Kind::SweepPrefix => {
            // Under the runner, generate and build happen inside each job
            // and cannot be told apart from outside; a stepped set-up over
            // the same job list gives their cost.
            let mut mem_ops = 0;
            rec.scope("setup", 0, |rec| {
                for (i, job) in jobs.iter().enumerate() {
                    let id = i as u32 + 1;
                    let cfg = job.variant.apply(job.base_cfg);
                    let kernel = rec.scope("workloads.generate", id, |_| {
                        job.workload
                            .generate(&job.scale, cfg.total_gpus(), job.seed)
                    });
                    mem_ops += kernel.total_mem_ops();
                    rec.scope("multigpu.build", id, |_| {
                        std::hint::black_box(System::build(cfg, &kernel));
                    });
                }
            });
            layers.insert("workloads.mem_ops", mem_ops as f64);
            layers.insert("workloads.generate_s", rec.total_s("workloads.generate"));
            layers.insert("multigpu.build_s", rec.total_s("multigpu.build"));
            match workloads::runner_pass(kind, p, &r, &jobs, &mut rec) {
                Ok(pass) => Some(pass),
                Err(why) => {
                    dead = Some(dead_pass(kind, p, why));
                    None
                }
            }
        }
        Kind::NetSaturation => {
            let pass = workloads::net_pass(p, &mut rec);
            layers.insert("multigpu.run_s", rec.total_s("net.synth.load_point"));
            Some(pass)
        }
    };

    let mut out = Outcome {
        kind,
        params: p,
        traced: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: Vec::new(),
        pass_wall_s: Vec::new(),
        jobs: dead.unwrap_or_default(),
        table: None,
        golden_checked: false,
        host_time: Vec::new(),
    };
    let mut totals = Metrics::new();
    if let Some(pass) = pass {
        layers.insert("trace.pass_wall_s", pass.calibrated_wall_s());
        out.notes.push((
            "trace.pass_wall_s",
            format!(
                "calibrated: {:.3} s raw / {:.3} host-speed factor",
                pass.wall_s, pass.factor
            ),
        ));
        layers.insert("multigpu.sims", pass.results.len() as f64);
        layers.insert("multigpu.sim_cycles", pass.cycles() as f64);
        layers.insert("sim.messages", pass.events() as f64);
        counts(&mut layers, &pass.totals);
        out.pass_wall_s.push(pass.calibrated_wall_s());
        out.table = pass.table.clone();

        if let Some(stats) = pass.prefix {
            let job_walls: f64 = pass.jobs.iter().map(|j| j.wall_ms / 1e3).sum();
            layers.insert("bench.runner.sweep_s", stats.sweep_wall.as_secs_f64());
            layers.insert(
                "bench.runner.overhead_pct",
                pct(
                    stats.sweep_wall.as_secs_f64() - job_walls,
                    stats.sweep_wall.as_secs_f64(),
                ),
            );
            layers.insert("bench.runner.prefix_hit_ratio", stats.hit_ratio());
            layers.insert("bench.runner.forked_jobs", stats.forked_jobs as f64);
            layers.insert(
                "bench.runner.fork_capture_s",
                stats.prefix_wall.as_secs_f64(),
            );
            layers.insert("bench.figures.table_s", rec.total_s("bench.figures.table"));
        }
        if kind != Kind::NetSaturation {
            let (replay_us, table) = workloads::replay(kind, p, &pass, &mut rec).map_err(io)?;
            layers.insert("bench.cache.replay_us_per_job", replay_us);
            if let Some((text, secs)) = table {
                layers.insert("bench.figures.table_s", secs);
                out.table = Some(text);
            }
        }
        if kind == Kind::SweepPrefix {
            sweep_extras(p, &pass, &mut layers, &mut rec, &mut out);
        }
        if kind == Kind::ScaleoutFt16 {
            let one_thread_s = run_span_s(&rec, 1);
            parallel_speedup(&jobs[0], one_thread_s, &pass, &mut layers, &mut rec);
        }
        totals = pass.totals;
        out.jobs = pass.jobs;
    }

    for (name, value) in probes::run_all(&mut rec, p.smoke) {
        layers.insert(name, value);
    }
    let run_s = layers["multigpu.run_s"];
    if run_s > 0.0 {
        layers.insert(
            "sim.host_ns_per_message",
            run_s * 1e9 / layers["sim.messages"].max(1.0),
        );
    }
    if kind == Kind::Fig14Paper {
        out.host_time = host_time(&layers, &totals);
    }
    if p.seed == DEFAULT_SEED && !p.smoke {
        out.golden_checked = true;
        let bad = golden_mismatches(kind, &out.jobs, out.table.as_deref())?;
        layers.insert("multigpu.golden_mismatches", bad as f64);
    } else {
        out.notes.push((
            "multigpu.golden_mismatches",
            "not checked: golden.json holds the default seed at full scale".to_owned(),
        ));
    }

    out.attempted = out.jobs.len() as u64;
    out.failed += out.jobs.iter().filter(|j| j.fault.is_some()).count() as u64;
    out.metrics = PER_LAYER
        .iter()
        .map(|l| (l.name, l.unit, Some(layers[l.name])))
        .collect();

    let dir = workloads::out_dir();
    std::fs::create_dir_all(&dir).map_err(io)?;
    std::fs::write(
        dir.join(format!("trace-{}.json", kind.name())),
        rec.to_chrome_json(),
    )
    .map_err(io)?;
    Ok(out)
}

/// Seconds of the `multigpu.run` span of job `id` in the traced pass.
fn run_span_s(rec: &Recorder, id: u32) -> f64 {
    rec.spans()
        .iter()
        .find(|s| s.name == "multigpu.run" && s.job == id)
        .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e9)
}

/// `sim.parallel.speedup_t2`: the first job of `scaleout_ft16` again, on
/// two engine threads, against its own one-thread `multigpu.run` span.
/// The result must not change; if it does the job counts as failed.
fn parallel_speedup(
    job: &JobSpec,
    one_thread_s: f64,
    pass: &Pass,
    layers: &mut Values,
    rec: &mut Recorder,
) {
    let cfg = job.variant.apply(job.base_cfg);
    let kernel = job
        .workload
        .generate(&job.scale, cfg.total_gpus(), job.seed);
    let mut sys = System::build(cfg, &kernel);
    sys.set_threads(2);
    let t0 = Instant::now();
    let exec_cycles = rec.scope("multigpu.run.threads2", 1, |_| sys.run(job.max_cycles));
    let two_threads_s = t0.elapsed().as_secs_f64();
    let same = pass
        .results
        .first()
        .is_some_and(|r| r.exec_cycles == exec_cycles);
    if same && two_threads_s > 0.0 {
        layers.insert("sim.parallel.speedup_t2", one_thread_s / two_threads_s);
    }
}

/// The extras of `sweep_prefix`: the same matrix swept cold (no prefix
/// sharing) and on two sweep workers. Two workers must reproduce the shared
/// pass to the byte: a job that does not has failed. Jobs whose cold result
/// differs from their forked one are counted in
/// `bench.runner.fork_drift_jobs`, visibly but not as failures — the forked
/// results repeat exactly, so the workload is sound; the count says how far
/// prefix sharing is from byte-exact.
fn sweep_extras(
    p: Params,
    shared: &Pass,
    layers: &mut Values,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let kind = Kind::SweepPrefix;
    // (calibrated wall, jobs whose digest differs from the shared pass's)
    let mut resweep = |name: &str, r: netcrafter_bench::Runner| -> Option<(f64, u64)> {
        let jobs = workloads::job_list(kind, &r);
        // Spans of a re-sweep's jobs would repeat the first sweep's; the
        // root span is what the ratio needs.
        let again = rec
            .scope(name, 0, |_| {
                workloads::runner_pass(kind, p, &r, &jobs, &mut Recorder::new(false))
            })
            .ok()?;
        let drift = again
            .jobs
            .iter()
            .zip(&shared.jobs)
            .filter(|(a, b)| a.digest != b.digest);
        Some((again.calibrated_wall_s(), drift.count() as u64))
    };
    let cold = resweep(
        "bench.runner.sweep.cold",
        workloads::runner(kind, p).with_prefix_share(false),
    );
    let two = resweep(
        "bench.runner.sweep.jobs2",
        workloads::runner(kind, p).with_jobs(2),
    );
    match cold {
        Some((cold_s, drift)) => {
            layers.insert(
                "bench.runner.prefix_share_speedup",
                cold_s / shared.calibrated_wall_s(),
            );
            layers.insert("bench.runner.fork_drift_jobs", drift as f64);
        }
        None => out.failed += 1,
    }
    match two {
        Some((two_s, drift)) => {
            layers.insert(
                "bench.runner.jobs2_speedup",
                shared.calibrated_wall_s() / two_s,
            );
            out.failed += drift;
        }
        None => out.failed += 1,
    }
}

/// Reads an `Outcome`'s detail file back (the parent side of `detail`).
pub struct Detail {
    pub value: Value,
}

impl Detail {
    pub fn read(path: &std::path::Path) -> Result<Self, String> {
        Ok(Self {
            value: json::read(path)?,
        })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.value.get("metrics")?.get(name)?.get("value")?.as_f64()
    }

    pub fn count(&self, key: &str) -> u64 {
        self.value.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64
    }

    /// `(key, digest)` of every job.
    pub fn digests(&self) -> Vec<(String, String)> {
        let jobs = self
            .value
            .get("jobs")
            .and_then(Value::as_arr)
            .unwrap_or(&[]);
        jobs.iter()
            .map(|j| {
                (
                    text(j, "key").unwrap_or("").to_owned(),
                    text(j, "digest").unwrap_or("").to_owned(),
                )
            })
            .collect()
    }

    pub fn table(&self) -> Option<&str> {
        text(&self.value, "table")
    }

    pub fn note(&self, name: &str) -> Option<&str> {
        text(self.value.get("notes")?, name)
    }
}
