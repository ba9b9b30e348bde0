//! CI perf-regression gate over the Figure 14 headline numbers and the
//! scale-out topology matrix.
//!
//! ```text
//! bench_gate emit OUT.json [--matrix fig14|topology|sweep] [--jobs N]
//!            [--threads N] [--reps N] [--no-prefix-share]
//! bench_gate check BASELINE.json CURRENT.json [--tolerance PCT]
//!            [--no-throughput-gate]
//! ```
//!
//! `emit` runs a quick-scale experiment matrix and writes a JSON report:
//! per-run execution cycles, per-variant speedups over baseline, geomean
//! speedups, and the host simulation rate (aggregate plus per-run
//! `host_cycles_per_sec`). `--matrix fig14` (the default) is every
//! workload × the cumulative NetCrafter variants on the paper's 2×2
//! mesh; `--matrix topology` drives baseline vs full NetCrafter across
//! the fat-tree-8 and torus-8 scale-out fabrics, keying each run as
//! `WORKLOAD@FABRIC`. `--matrix sweep` exercises the prefix-sharing
//! sweep engine (DESIGN.md §3.7): three workloads × baseline + nine
//! policy variants under a 2800-cycle warmup window, with the runner's
//! in-memory snapshot forks on (unless `--no-prefix-share`); its report
//! carries an extra `prefix` block — host `wall_ms` and `jobs_per_sec`
//! (informational) plus the deterministic `prefix_hit_ratio`, which IS
//! gated. The simulator is deterministic, so
//! cycles and speedups are exactly reproducible; `check` compares two
//! reports and fails (exit 1) with a readable diff when any gated number
//! drifts beyond `--tolerance` percent (default 0, i.e. exact). Each run
//! also records `ticks`, the component ticks the engine executed for it
//! (`Engine::ticks_executed`; left out under `--threads N`, where domain
//! workers tick differently): host work as an exact count, so `check`
//! fails a run that executes *more* ticks than its baseline — a component
//! that starts spinning again — on any runner, however noisy; fewer
//! ticks pass. The
//! per-run cycles-per-second rates vary with the host and are reported
//! but never gated; the aggregate `cycles_per_sec` is *soft*-gated —
//! a regression of more than 25% vs the baseline fails the check, and
//! `--no-throughput-gate` downgrades that to a warning on noisy
//! machines. To keep that soft gate out of the noise floor, `emit`
//! times the sweep over `--reps` repetitions (default 3) and records
//! the *median* rate as `cycles_per_sec`, with every repetition's rate
//! kept in `rate_reps` and the min-to-max spread in `rate_spread_pct`.
//! Independently of the regression gate, both `emit` and `check` print
//! the distance to the committed aspirational `target_cycles_per_sec`
//! (never gated — it tracks the host-speed goal, not the floor).
//! `--threads N` runs each simulation on N domain worker threads (the
//! numbers must not change).
//!
//! An intentional model change therefore requires re-committing the
//! baseline: `cargo run --release -p netcrafter-bench --bin bench_gate --
//! emit ci/BENCH_fig14.baseline.json`.

use std::time::Instant;

use netcrafter_bench::{
    figures::{topology_job, TOPOLOGY_WORKLOADS},
    geomean, Runner,
};
use netcrafter_multigpu::{JobSpec, SystemVariant};
use netcrafter_proto::SystemConfig;
use netcrafter_sim::trace::{json, json_string};
use netcrafter_workloads::Workload;

/// Aspirational host-throughput target (cycles/s on the quick fig14
/// matrix). Never gated: `emit` stamps it into the report and both
/// `emit` and `check` print the distance to it, so the remaining gap
/// is visible in every CI log. Raise it when it is met — it tracks the
/// ROADMAP's raw-host-speed goal, not the regression floor.
const TARGET_CYCLES_PER_SEC: f64 = 1_000_000.0;

/// The cumulative Figure 14 variants, in presentation order.
const VARIANTS: [SystemVariant; 4] = [
    SystemVariant::StitchPool {
        window: 32,
        selective: true,
    },
    SystemVariant::StitchTrim,
    SystemVariant::NetCrafter,
    SystemVariant::SectorCache,
];

fn usage() -> ! {
    eprintln!(
        "usage: bench_gate emit OUT.json [--matrix fig14|topology|sweep] [--jobs N] \
         [--threads N] [--reps N] [--no-prefix-share]\n\
         \u{20}      bench_gate check BASELINE.json CURRENT.json [--tolerance PCT] \
         [--no-throughput-gate]"
    );
    std::process::exit(2);
}

/// One gated run of an emit matrix: the JSON identity keys (`workload`
/// may embed a fabric name) plus the job that produces its numbers.
/// `speedup_base` rows anchor the speedups of the non-base rows sharing
/// their `workload` key.
struct Cell {
    workload: String,
    variant: String,
    job: JobSpec,
    speedup_base: bool,
}

/// The Figure 14 matrix: every workload × baseline + the cumulative
/// NetCrafter variants, all on the runner's 2×2 mesh.
fn fig14_cells(r: &Runner) -> Vec<Cell> {
    let mut cells = Vec::new();
    for w in Workload::ALL {
        for v in std::iter::once(SystemVariant::Baseline).chain(VARIANTS) {
            cells.push(Cell {
                workload: w.abbrev().to_owned(),
                variant: v.label(),
                job: r.job(w, v),
                speedup_base: v == SystemVariant::Baseline,
            });
        }
    }
    cells
}

/// The scale-out matrix: baseline vs full NetCrafter on the fat-tree-8
/// and torus-8 fabrics (the figure's workload subset), keyed
/// `WORKLOAD@FABRIC` so the gate distinguishes fabrics.
fn topology_cells(r: &Runner) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (name, preset) in [
        ("fat-tree-8", SystemConfig::fat_tree_8()),
        ("torus-8", SystemConfig::torus_8()),
    ] {
        let mut cfg = r.base_cfg;
        cfg.topology = preset.topology;
        let tag = format!("topo-{name}");
        for w in TOPOLOGY_WORKLOADS {
            for v in [SystemVariant::Baseline, SystemVariant::NetCrafter] {
                cells.push(Cell {
                    workload: format!("{}@{name}", w.abbrev()),
                    variant: v.label(),
                    job: topology_job(r, w, v, cfg, &tag),
                    speedup_base: v == SystemVariant::Baseline,
                });
            }
        }
    }
    cells
}

/// Warmup window (cycles) of the `sweep` matrix: late enough that every
/// prefix covers most of a quick-scale run (the shortest run executes
/// ~3100 cycles), early enough that every run is still going when the
/// knobs activate.
const SWEEP_WARMUP: u64 = 2_800;

/// The prefix-sharing sweep matrix: three bandwidth-sensitive workloads
/// × baseline + nine policy variants, all under a [`SWEEP_WARMUP`]-cycle
/// warmup window. The seven full-line variants share one warmup prefix
/// per workload and the two trimming variants a second (trimming changes
/// L1 fills from cycle 0, so it keys the prefix); baseline has no knob
/// to delay and runs cold. Each group's representative runs cold and
/// forks in flight, so 21 of the 30 runs fork — a deterministic
/// prefix-hit ratio of 0.7.
fn sweep_cells(r: &Runner) -> Vec<Cell> {
    const SWEEP_VARIANTS: [SystemVariant; 9] = [
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
    let mut cells = Vec::new();
    for w in [Workload::Gups, Workload::Spmv, Workload::Pr] {
        for v in std::iter::once(SystemVariant::Baseline).chain(SWEEP_VARIANTS) {
            cells.push(Cell {
                workload: w.abbrev().to_owned(),
                variant: v.label(),
                job: r.job(w, v),
                speedup_base: v == SystemVariant::Baseline,
            });
        }
    }
    cells
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("emit") => emit(&args[1..]),
        Some("check") => check(&args[1..]),
        _ => usage(),
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn emit(args: &[String]) -> ! {
    let out_path = args.first().filter(|a| !a.starts_with("--")).cloned();
    let Some(out_path) = out_path else { usage() };
    let jobs: usize = flag_value(args, "--jobs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let threads: usize = flag_value(args, "--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let reps: usize = flag_value(args, "--reps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);
    let matrix_name = flag_value(args, "--matrix").unwrap_or_else(|| "fig14".into());
    let matrix: fn(&Runner) -> Vec<Cell> = match matrix_name.as_str() {
        "fig14" => fig14_cells,
        "topology" => topology_cells,
        "sweep" => sweep_cells,
        other => {
            eprintln!("bench_gate: unknown matrix {other:?} (fig14 | topology | sweep)");
            std::process::exit(2);
        }
    };
    let sweep_matrix = matrix_name == "sweep";
    let no_prefix_share = args.iter().any(|a| a == "--no-prefix-share");
    // The sweep matrix configures its warmup window *before* cells are
    // built: each JobSpec snapshots the runner's base config, and the
    // warmup is part of the job's physical identity.
    let mk_runner = || {
        let mut r = Runner::quick().with_jobs(jobs).with_threads(threads);
        if sweep_matrix {
            r.base_cfg.netcrafter.warmup_cycles = SWEEP_WARMUP;
            r = r.with_prefix_share(!no_prefix_share);
        }
        r
    };

    // Host throughput is noisy, so the sweep is timed `reps` times on
    // fresh (memo-cold) runners and the gate uses the median. The first
    // repetition's runner also supplies the deterministic numbers below.
    let runner = mk_runner();
    let cells = matrix(&runner);
    let jobs_list: Vec<JobSpec> = cells.iter().map(|c| c.job.clone()).collect();
    let mut walls = Vec::with_capacity(reps);
    let t0 = Instant::now();
    runner.sweep(&jobs_list);
    walls.push(t0.elapsed().as_secs_f64());
    for _ in 1..reps {
        let rep = mk_runner();
        let rep_jobs: Vec<JobSpec> = matrix(&rep).into_iter().map(|c| c.job).collect();
        let t = Instant::now();
        rep.sweep(&rep_jobs);
        walls.push(t.elapsed().as_secs_f64());
    }
    let median = |xs: &[f64]| -> f64 {
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        }
    };
    let wall = median(&walls);

    // Per-run host throughput (informational, never gated): the sweep
    // resolves each unique job exactly once, so its stat is the run's.
    let stats = runner.job_stats();
    let stat_of = |key: &str| stats.iter().find(|s| s.memo_key == key);
    let host_rate =
        |key: &str| -> f64 { stat_of(key).map_or(0.0, netcrafter_bench::JobStat::cycles_per_sec) };
    // Component ticks the engine executed for the run: deterministic
    // under the default scheduler for a given plan (a forked sweep job
    // counts its suffix only), so `check` can hold it exactly even on a
    // noisy runner. Domain workers tick differently; `--threads N`
    // reports leave it out.
    let ticks_field = |key: &str| -> String {
        match stat_of(key) {
            Some(s) if threads <= 1 => format!(",\"ticks\":{}", s.ticks),
            _ => String::new(),
        }
    };

    // Cells are ordered with each group's baseline first, so the base
    // cycles for a `workload` key are always known before its speedup
    // rows; geomean columns keep first-seen variant order (the VARIANTS
    // order for fig14).
    let mut runs = String::new();
    let mut speedups = String::new();
    let mut total_cycles = 0u64;
    let mut base_cycles: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
    let mut variant_order: Vec<&str> = Vec::new();
    let mut per_variant: std::collections::HashMap<&str, Vec<f64>> =
        std::collections::HashMap::new();
    for cell in &cells {
        let r = runner.run_job(&cell.job);
        total_cycles += r.exec_cycles;
        if !runs.is_empty() {
            runs.push_str(",\n    ");
        }
        runs.push_str(&format!(
            "{{\"workload\":{},\"variant\":{},\"exec_cycles\":{},\
             \"host_cycles_per_sec\":{:.0}{}}}",
            json_string(&cell.workload),
            json_string(&cell.variant),
            r.exec_cycles,
            host_rate(&cell.job.memo_key()),
            ticks_field(&cell.job.memo_key()),
        ));
        if cell.speedup_base {
            base_cycles.insert(cell.workload.as_str(), r.exec_cycles);
        } else {
            let base = base_cycles[cell.workload.as_str()];
            let s = base as f64 / r.exec_cycles as f64;
            if !variant_order.contains(&cell.variant.as_str()) {
                variant_order.push(cell.variant.as_str());
            }
            per_variant
                .entry(cell.variant.as_str())
                .or_default()
                .push(s);
            if !speedups.is_empty() {
                speedups.push_str(",\n    ");
            }
            speedups.push_str(&format!(
                "{{\"workload\":{},\"variant\":{},\"speedup\":{:.6}}}",
                json_string(&cell.workload),
                json_string(&cell.variant),
                s,
            ));
        }
    }
    let mut geo = String::new();
    for v in &variant_order {
        if !geo.is_empty() {
            geo.push_str(",\n    ");
        }
        geo.push_str(&format!(
            "{{\"variant\":{},\"speedup\":{:.6}}}",
            json_string(v),
            geomean(&per_variant[v]),
        ));
    }
    let rate_reps: Vec<f64> = walls
        .iter()
        .map(|w| total_cycles as f64 / w.max(1e-9))
        .collect();
    let rate_reps_json = rate_reps
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect::<Vec<_>>()
        .join(", ");
    let rate_min = rate_reps.iter().copied().fold(f64::INFINITY, f64::min);
    let rate_max = rate_reps.iter().copied().fold(0.0, f64::max);
    let rate_spread_pct = 100.0 * (rate_max - rate_min) / rate_max.max(1e-9);
    let rate = total_cycles as f64 / wall.max(1e-9);
    print_target_delta(rate);
    // Only the sweep matrix carries the prefix block; `wall_ms` and
    // `jobs_per_sec` describe the host (informational), while
    // `prefix_hit_ratio` is a deterministic function of the plan tree
    // and is gated exactly by `check`.
    let prefix_block = if sweep_matrix {
        let ps = runner.prefix_stats();
        eprint!("{}", ps.report());
        format!(
            ",\n  \"prefix\": {{\"wall_ms\": {:.0}, \"jobs_per_sec\": {:.1}, \
             \"prefix_hit_ratio\": {:.6}}}",
            ps.sweep_wall.as_secs_f64() * 1e3,
            ps.jobs_per_sec(),
            ps.hit_ratio(),
        )
    } else {
        String::new()
    };
    let report = format!(
        "{{\n  \"schema\": 1,\n  \"scale\": \"quick\",\n  \
         \"wall_seconds\": {wall:.3},\n  \"cycles_per_sec\": {:.0},\n  \
         \"target_cycles_per_sec\": {TARGET_CYCLES_PER_SEC:.0},\n  \
         \"rate_reps\": [{rate_reps_json}],\n  \
         \"rate_spread_pct\": {rate_spread_pct:.1},\n  \
         \"runs\": [\n    {runs}\n  ],\n  \"speedups\": [\n    {speedups}\n  ],\n  \
         \"geomean\": [\n    {geo}\n  ]{prefix_block}\n}}\n",
        total_cycles as f64 / wall.max(1e-9),
    );
    // Sanity: the report must parse with our own reader before it can gate.
    json::parse(&report).expect("emitted report is valid JSON");
    std::fs::write(&out_path, report).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "bench_gate: {} runs x {reps} rep(s), median {wall:.1}s \
         (rate spread {rate_spread_pct:.1}%), written to {out_path}",
        jobs_list.len()
    );
    std::process::exit(0);
}

/// Prints the non-fatal distance to [`TARGET_CYCLES_PER_SEC`]. The
/// `target` override lets `check` honour the target committed in the
/// baseline file rather than this binary's (possibly newer) constant.
fn print_target_delta_vs(rate: f64, target: f64) {
    let pct = 100.0 * (rate - target) / target.max(1e-9);
    let verdict = if rate >= target { "met" } else { "not yet met" };
    eprintln!(
        "bench_gate: aspirational target {target:.0} cycles/s: {verdict} \
         ({rate:.0} cycles/s, {pct:+.1}%; informational, never gated)"
    );
}

fn print_target_delta(rate: f64) {
    print_target_delta_vs(rate, TARGET_CYCLES_PER_SEC);
}

/// Flattens a report's gated numbers into `(key, value)` pairs.
fn gated_numbers(report: &json::Value) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for (section, value_key) in [("runs", "exec_cycles"), ("speedups", "speedup")] {
        let entries = report
            .get(section)
            .and_then(|v| v.as_arr())
            .ok_or_else(|| format!("report is missing the `{section}` array"))?;
        for entry in entries {
            let workload = entry
                .get("workload")
                .and_then(|v| v.as_str())
                .ok_or("entry missing `workload`")?;
            let variant = entry
                .get("variant")
                .and_then(|v| v.as_str())
                .ok_or("entry missing `variant`")?;
            let value = entry
                .get(value_key)
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("entry missing `{value_key}`"))?;
            out.push((format!("{section}:{workload}|{variant}"), value));
        }
    }
    if let Some(entries) = report.get("geomean").and_then(|v| v.as_arr()) {
        for entry in entries {
            let variant = entry
                .get("variant")
                .and_then(|v| v.as_str())
                .ok_or("geomean entry missing `variant`")?;
            let value = entry
                .get("speedup")
                .and_then(json::Value::as_f64)
                .ok_or("geomean entry missing `speedup`")?;
            out.push((format!("geomean:{variant}"), value));
        }
    }
    // Sweep-matrix reports gate the plan-tree hit ratio too (its host
    // timings stay informational).
    if let Some(prefix) = report.get("prefix") {
        let value = prefix
            .get("prefix_hit_ratio")
            .and_then(json::Value::as_f64)
            .ok_or("prefix block missing `prefix_hit_ratio`")?;
        out.push(("prefix:hit_ratio".into(), value));
    }
    Ok(out)
}

/// The `ticks` of every run that recorded them, keyed like the gated
/// `runs:` numbers. Reports emitted with `--threads N` record none.
fn run_ticks(report: &json::Value) -> std::collections::BTreeMap<String, f64> {
    let runs = report.get("runs").and_then(|v| v.as_arr());
    runs.into_iter()
        .flatten()
        .filter_map(|run| {
            let workload = run.get("workload")?.as_str()?;
            let variant = run.get("variant")?.as_str()?;
            let ticks = run.get("ticks")?.as_f64()?;
            Some((format!("{workload}|{variant}"), ticks))
        })
        .collect()
}

fn load(path: &str) -> json::Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: invalid JSON: {e}");
        std::process::exit(1);
    })
}

fn check(args: &[String]) -> ! {
    let (Some(base_path), Some(cur_path)) = (
        args.first().filter(|a| !a.starts_with("--")),
        args.get(1).filter(|a| !a.starts_with("--")),
    ) else {
        usage()
    };
    let tolerance_pct: f64 = flag_value(args, "--tolerance").map_or(0.0, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--tolerance expects a percentage, got {v:?}");
            std::process::exit(2);
        })
    });

    let base = load(base_path);
    let cur = load(cur_path);
    let base_nums = gated_numbers(&base).unwrap_or_else(|e| {
        eprintln!("{base_path}: {e}");
        std::process::exit(1);
    });
    let cur_nums = gated_numbers(&cur).unwrap_or_else(|e| {
        eprintln!("{cur_path}: {e}");
        std::process::exit(1);
    });
    let cur_map: std::collections::BTreeMap<&str, f64> =
        cur_nums.iter().map(|(k, v)| (k.as_str(), *v)).collect();

    let mut failures = Vec::new();
    for (key, want) in &base_nums {
        match cur_map.get(key.as_str()) {
            None => failures.push(format!("{key}: missing from {cur_path}")),
            Some(got) => {
                // Relative drift, with an epsilon for f64 formatting noise.
                let denom = want.abs().max(1e-12);
                let drift_pct = 100.0 * (got - want).abs() / denom;
                if drift_pct > tolerance_pct + 1e-6 {
                    failures.push(format!(
                        "{key}: baseline {want} vs current {got} ({drift_pct:+.2}% > ±{tolerance_pct}%)"
                    ));
                }
            }
        }
    }
    for (key, _) in &cur_nums {
        if !base_nums.iter().any(|(k, _)| k == key) {
            failures.push(format!(
                "{key}: not in baseline {base_path} (re-emit the baseline?)"
            ));
        }
    }

    // Tick gate: a run may execute fewer component ticks than its
    // baseline, never more. The count is exact under the default
    // scheduler, so a component that starts spinning again fails here
    // even where host time is too noisy to show it.
    let base_ticks = run_ticks(&base);
    let cur_ticks = run_ticks(&cur);
    let mut ticks_compared = 0usize;
    for (key, want) in &base_ticks {
        let Some(got) = cur_ticks.get(key) else {
            continue;
        };
        ticks_compared += 1;
        if got > want {
            failures.push(format!(
                "ticks:{key}: {got} engine ticks vs baseline {want} ({:+.2}%; more ticks never pass)",
                100.0 * (got - want) / want.max(1.0)
            ));
        }
    }
    if ticks_compared > 0 {
        let total = |t: &std::collections::BTreeMap<String, f64>| -> f64 {
            base_ticks.keys().filter_map(|k| t.get(k)).sum()
        };
        eprintln!(
            "bench_gate: {:.0} engine ticks over {ticks_compared} runs vs baseline {:.0}",
            total(&cur_ticks),
            total(&base_ticks)
        );
    }

    // Soft throughput gate: the aggregate host rate may regress up to
    // 25% before the check fails (hosts are noisy; the simulated numbers
    // above are the hard gate). `--no-throughput-gate` keeps the message
    // but never fails on it.
    const MAX_RATE_REGRESSION_PCT: f64 = 25.0;
    let rate_gated = !args.iter().any(|a| a == "--no-throughput-gate");
    let rate = |v: &json::Value| v.get("cycles_per_sec").and_then(json::Value::as_f64);
    let mut rate_failure = None;
    if let (Some(b), Some(c)) = (rate(&base), rate(&cur)) {
        let drift_pct = 100.0 * (c - b) / b.max(1e-9);
        eprintln!(
            "bench_gate: host rate {c:.0} cycles/s vs baseline {b:.0} ({drift_pct:+.1}%, \
             gated at -{MAX_RATE_REGRESSION_PCT}%)",
        );
        let target = base
            .get("target_cycles_per_sec")
            .and_then(json::Value::as_f64)
            .unwrap_or(TARGET_CYCLES_PER_SEC);
        print_target_delta_vs(c, target);
        if drift_pct < -MAX_RATE_REGRESSION_PCT {
            let msg = format!(
                "host throughput regressed {:.1}% (> {MAX_RATE_REGRESSION_PCT}%): \
                 {c:.0} cycles/s vs baseline {b:.0}",
                -drift_pct,
            );
            if rate_gated {
                rate_failure = Some(msg);
            } else {
                eprintln!("bench_gate: WARNING (--no-throughput-gate): {msg}");
            }
        }
    }

    if failures.is_empty() && rate_failure.is_none() {
        eprintln!(
            "bench_gate: {} gated numbers match within ±{tolerance_pct}%",
            base_nums.len()
        );
        std::process::exit(0);
    }
    if !failures.is_empty() {
        eprintln!(
            "bench_gate: {} of {} gated numbers drifted:",
            failures.len(),
            base_nums.len()
        );
        for f in &failures {
            eprintln!("  {f}");
        }
    }
    if let Some(msg) = rate_failure {
        eprintln!("bench_gate: throughput gate failed:\n  {msg}");
    }
    eprintln!(
        "if this change is intentional, re-emit the baseline:\n  \
         cargo run --release -p netcrafter-bench --bin bench_gate -- emit {base_path}"
    );
    std::process::exit(1);
}
