//! General-purpose simulator CLI: run any workload on any configuration
//! and dump the metrics.
//!
//! ```text
//! simulate [--workload GUPS] [--variant netcrafter|all] [--cus 8]
//!          [--topology mesh:CxG|fat-tree:k=K|torus:XxYxZ]
//!          [--intra 128] [--inter 16] [--flit 16]
//!          [--scale tiny|small|paper] [--seed N]
//!          [--trim-granularity 4|8|16]
//!          [--jobs N] [--cache-dir DIR]
//!          [--checkpoint-at CYCLE] [--checkpoint-dir DIR]
//!          [--restore-from FILE]
//!          [--dump-metrics] [--csv FILE]
//!          [--trace FILE] [--timeseries FILE]
//!          [--trace-filter SPEC] [--sample-window N]
//! ```
//!
//! `--variant all` sweeps every variant of the workload (in parallel
//! with `--jobs N`) and prints a comparison table. `--cache-dir DIR`
//! replays identical configurations from the persistent result cache
//! instead of re-simulating.
//!
//! `--trace FILE` records a Chrome-trace JSON event trace (load it in
//! `chrome://tracing` or Perfetto), optionally filtered by
//! `--trace-filter "comp=...;class=...;cycles=a..b"`. `--timeseries FILE`
//! records per-link bandwidth/occupancy curves as JSONL with
//! `--sample-window`-cycle buckets. Both force a fresh (uncached) run;
//! a filter without `--trace` or a window without `--timeseries` is
//! refused.
//!
//! `--checkpoint-at CYCLE --checkpoint-dir DIR` pauses the simulation at
//! CYCLE (at least 1), or earlier if the run quiesces first, writes the
//! full engine state to `DIR/ckpt-<config hash>-<cycle>.bin` and runs on
//! to completion; the two flags only go together. `--restore-from FILE`
//! resumes from such a file instead of simulating from cycle 0; a file
//! of another run (configuration, workload, scale or seed) fails with
//! exit code 2 before anything is simulated.
//! Checkpoint → restore → continue is byte-identical to an
//! uninterrupted run. A snapshot holds simulated state only, so the
//! file is the same with or without `--trace`/`--timeseries`, and a
//! restored run takes any of them: it records the cycles it simulates,
//! from the resume cycle on. The checkpoint and observability flags all
//! act on *one* run, so `--variant all` refuses them.

use netcrafter_bench::cache::write_atomic;
use netcrafter_bench::{f2, pct, ticks_line, Cli, Runner, Table};
use netcrafter_multigpu::{CheckpointPlan, SystemVariant, TraceData, TraceOptions};
use netcrafter_proto::{fnv1a64, SystemConfig, TopologyConfig};
use netcrafter_sim::TraceConfig;
use netcrafter_workloads::{Scale, Workload};

fn parse_variant(s: &str) -> Option<SystemVariant> {
    Some(match s.to_ascii_lowercase().as_str() {
        "baseline" => SystemVariant::Baseline,
        "ideal" => SystemVariant::Ideal,
        "netcrafter" => SystemVariant::NetCrafter,
        "stitch" | "stitching" => SystemVariant::StitchOnly,
        "trim" | "trimming" => SystemVariant::TrimOnly,
        "seq" | "sequencing" => SystemVariant::SeqOnly,
        "sector" | "sectorcache" => SystemVariant::SectorCache,
        "stitchtrim" => SystemVariant::StitchTrim,
        _ => return None,
    })
}

/// The variants `--variant all` compares, baseline first.
const ALL_VARIANTS: [SystemVariant; 8] = [
    SystemVariant::Baseline,
    SystemVariant::Ideal,
    SystemVariant::StitchOnly,
    SystemVariant::TrimOnly,
    SystemVariant::SeqOnly,
    SystemVariant::StitchTrim,
    SystemVariant::NetCrafter,
    SystemVariant::SectorCache,
];

const USAGE: &str = "usage: simulate [--workload NAME] [--variant V|all] [--cus N] \
     [--topology mesh:CxG|fat-tree:k=K[:g=G][:cores=N]|torus:XxYxZ[:g=G]] \
     [--intra GBPS] [--inter GBPS] [--flit BYTES] \
     [--scale tiny|small|paper] [--seed N] \
     [--trim-granularity N] [--jobs N] [--cache-dir DIR] \
     [--checkpoint-at CYCLE] [--checkpoint-dir DIR] [--restore-from FILE] \
     [--dump-metrics] [--csv FILE] \
     [--trace FILE] [--timeseries FILE] [--trace-filter SPEC] [--sample-window N]\n\
     variants: baseline ideal netcrafter stitch trim seq sector stitchtrim all";

const VALUE_FLAGS: [&str; 20] = [
    "--workload",
    "--variant",
    "--cus",
    "--topology",
    "--intra",
    "--inter",
    "--flit",
    "--scale",
    "--seed",
    "--trim-granularity",
    "--jobs",
    "--cache-dir",
    "--checkpoint-at",
    "--checkpoint-dir",
    "--restore-from",
    "--csv",
    "--trace",
    "--timeseries",
    "--trace-filter",
    "--sample-window",
];

/// The flags that pause, resume or observe one run (`--checkpoint-dir`
/// only comes with `--checkpoint-at`).
const ONE_RUN_FLAGS: [&str; 6] = [
    "--checkpoint-at",
    "--restore-from",
    "--trace",
    "--timeseries",
    "--trace-filter",
    "--sample-window",
];

/// Time-series bucket width when `--sample-window` is absent.
const DEFAULT_SAMPLE_WINDOW: u64 = 1000;

/// What `--trace FILE` (filtered by `--trace-filter SPEC`) and
/// `--timeseries FILE` (in `--sample-window N`-cycle buckets) ask a run
/// to record; `None` when neither output was asked for.
///
/// # Errors
///
/// The usage error of a window of 0 cycles, a filter without `--trace`,
/// a window without `--timeseries` or a filter [`TraceConfig::parse`]
/// rejects.
fn trace_options(cli: &Cli) -> Result<Option<TraceOptions>, String> {
    let (trace, series) = (cli.value("--trace"), cli.value("--timeseries"));
    let (filter, window) = (cli.value("--trace-filter"), cli.parsed("--sample-window"));
    if window == Some(0) {
        return Err("--sample-window expects a positive cycle count".into());
    }
    if filter.is_some() && trace.is_none() {
        return Err("--trace-filter needs --trace FILE".into());
    }
    if window.is_some() && series.is_none() {
        return Err("--sample-window needs --timeseries FILE".into());
    }
    if trace.is_none() && series.is_none() {
        return Ok(None);
    }
    let filter = filter.map(TraceConfig::parse).transpose();
    let filter = filter.map_err(|e| format!("--trace-filter: {e}"))?;
    Ok(Some(TraceOptions {
        config: trace.map(|_| filter.unwrap_or_default()),
        sample_window: series.map(|_| window.unwrap_or(DEFAULT_SAMPLE_WINDOW)),
    }))
}

/// Writes what a traced run recorded to the `--trace` and `--timeseries`
/// paths, reporting each file on stderr.
fn write_recorded(cli: &Cli, data: &TraceData) -> std::io::Result<()> {
    if let Some(path) = cli.value("--trace") {
        std::fs::write(path, data.trace.to_chrome_json())?;
        let (events, tracks) = (data.trace.events.len(), data.trace.tracks.len());
        eprintln!("trace: {events} events on {tracks} tracks written to {path}");
    }
    if let Some(path) = cli.value("--timeseries") {
        std::fs::write(path, data.links_to_jsonl())?;
        eprintln!("timeseries: {} links written to {path}", data.links.len());
    }
    Ok(())
}

fn main() {
    let cli = Cli::from_env(USAGE, &VALUE_FLAGS, &["--dump-metrics"]);
    if let Some(stray) = cli.positionals().first() {
        cli.fail(&format!("unexpected argument {stray:?}"));
    }

    let workload_name = cli.value("--workload").unwrap_or("GUPS");
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.abbrev().eq_ignore_ascii_case(workload_name))
        .unwrap_or_else(|| {
            cli.fail(&format!(
                "unknown workload {workload_name:?}; known: {:?}",
                Workload::ALL.map(Workload::abbrev)
            ))
        });
    let variant_name = cli.value("--variant").unwrap_or("baseline");
    let sweep_all = variant_name.eq_ignore_ascii_case("all");
    let variant = if sweep_all {
        SystemVariant::Baseline
    } else {
        parse_variant(variant_name)
            .unwrap_or_else(|| cli.fail(&format!("unknown variant {variant_name:?}")))
    };
    let checkpoint_at: Option<u64> = cli.parsed("--checkpoint-at");
    let checkpoint_dir = cli.value("--checkpoint-dir");
    let restore_path = cli.value("--restore-from");
    match (checkpoint_at, checkpoint_dir) {
        (Some(_), None) => cli.fail("--checkpoint-at needs --checkpoint-dir DIR to write to"),
        (None, Some(_)) => cli.fail("--checkpoint-dir needs --checkpoint-at CYCLE"),
        (Some(0), _) => cli.fail("--checkpoint-at expects a positive cycle: a run starts at 0"),
        _ => {}
    }
    if sweep_all {
        if let Some(flag) = ONE_RUN_FLAGS.iter().find(|f| cli.value(f).is_some()) {
            cli.fail(&format!("{flag} acts on one run, not --variant all"));
        }
    }
    let trace = trace_options(&cli).unwrap_or_else(|e| cli.fail(&e));

    let mut cfg = SystemConfig::small(cli.parsed("--cus").unwrap_or(8));
    // --topology is the fabric's shape; the bandwidth knobs below
    // override its rates.
    if let Some(spec) = cli.value("--topology") {
        cfg.topology = TopologyConfig::parse_spec(spec).unwrap_or_else(|e| cli.fail(&e));
    }
    if let Some(v) = cli.parsed("--intra") {
        cfg.topology.intra_gbps = v;
    }
    if let Some(v) = cli.parsed("--inter") {
        cfg.topology.inter_gbps = v;
    }
    if let Some(v) = cli.parsed("--flit") {
        cfg.flit_bytes = v;
    }
    if let Some(v) = cli.parsed("--trim-granularity") {
        cfg.trim_granularity = v;
    }
    // What `System::build` would otherwise panic on: a flit or trim size
    // that is no power-of-two divisor, an empty or oversize fabric, a link
    // with no bandwidth.
    if let Err(e) = variant.apply(cfg).validate() {
        cli.fail(&format!("invalid configuration: {e}"));
    }
    let scale = match cli.value("--scale") {
        None | Some("small") => Scale::small(),
        Some("tiny") => Scale::tiny(),
        Some("paper") => Scale::paper(),
        Some(other) => cli.fail(&format!("unknown scale {other:?}")),
    };

    let mut runner = Runner::with_base(cfg, scale);
    runner.seed = cli.parsed("--seed").unwrap_or(0xC0FFEE);
    runner.max_cycles = 1_000_000_000;
    runner = runner.with_jobs(cli.parsed("--jobs").unwrap_or(1));
    if let Some(dir) = cli.value("--cache-dir") {
        runner = runner.with_cache_dir(dir).unwrap_or_else(|e| {
            eprintln!("cannot open cache dir {dir}: {e}");
            std::process::exit(1);
        });
    }

    if sweep_all {
        eprintln!(
            "sweeping {workload} across {} variants on {} worker(s) …",
            ALL_VARIANTS.len(),
            runner.jobs,
        );
        let jobs: Vec<_> = ALL_VARIANTS
            .iter()
            .map(|&v| runner.job(workload, v))
            .collect();
        let results = runner.sweep(&jobs);
        let base_cycles = results[0].exec_cycles;
        let mut t = Table::new(
            format!("{workload} across system variants"),
            vec![
                "Variant",
                "Cycles",
                "Speedup",
                "Link util",
                "Read lat",
                "L1 MPKI",
            ],
        );
        for (v, r) in ALL_VARIANTS.iter().zip(&results) {
            t.row(vec![
                v.label(),
                r.exec_cycles.to_string(),
                f2(base_cycles as f64 / r.exec_cycles as f64),
                pct(r.inter_utilization()),
                format!("{:.0}", r.inter_read_latency()),
                f2(r.l1_mpki()),
            ]);
        }
        println!("{t}");
        eprint!("{}", runner.report());
        return;
    }

    eprintln!(
        "simulating {workload} / {} on {} clusters x {} GPUs x {} CUs …",
        variant.label(),
        runner.base_cfg.topology.clusters,
        runner.base_cfg.topology.gpus_per_cluster,
        runner.base_cfg.cus_per_gpu,
    );
    let (r, footer) = if trace.is_some() || checkpoint_at.is_some() || restore_path.is_some() {
        // Paused, resumed and traced runs drive the experiment directly:
        // all three must actually simulate, not replay the result cache.
        let snapshot = restore_path.map(|path| {
            std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("cannot read snapshot {path}: {e}");
                std::process::exit(1);
            })
        });
        let plan = CheckpointPlan {
            resume_from: snapshot.as_deref(),
            pause_at: checkpoint_at,
        };
        if let Some(dir) = checkpoint_dir {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                eprintln!("cannot open checkpoint dir {dir}: {e}");
                std::process::exit(1);
            });
        }
        let job = runner.job(workload, variant);
        let run = job.run_planned(plan, trace.as_ref()).unwrap_or_else(|e| {
            eprintln!(
                "error: cannot restore {}: {e}",
                restore_path.unwrap_or_default()
            );
            std::process::exit(2);
        });
        if run.resumed_at > 0 {
            eprintln!(
                "restored snapshot: simulated from cycle {} instead of 0",
                run.resumed_at
            );
        }
        if let (Some(dir), Some(at)) = (checkpoint_dir, checkpoint_at) {
            match &run.snapshot {
                Some(taken) => {
                    let path = std::path::Path::new(dir).join(format!(
                        "ckpt-{:016x}-{}.bin",
                        fnv1a64(job.cache_key().as_bytes()),
                        taken.cycle()
                    ));
                    write_atomic(&path, taken.bytes()).unwrap_or_else(|e| {
                        eprintln!("cannot write checkpoint {}: {e}", path.display());
                        std::process::exit(1);
                    });
                    eprintln!(
                        "checkpoint at cycle {} written to {}",
                        taken.cycle(),
                        path.display()
                    );
                }
                // A cold run always pauses at a positive cycle: only a
                // restore can start at or past it.
                None => eprintln!(
                    "no checkpoint taken: {} resumes at cycle {}, not before {at}",
                    restore_path.unwrap_or_default(),
                    run.resumed_at
                ),
            }
        }
        if let Some(data) = &run.recorded {
            write_recorded(&cli, data).unwrap_or_else(|e| {
                eprintln!("cannot write trace output: {e}");
                std::process::exit(1);
            });
        }
        let footer = ticks_line(run.ticks, run.messages);
        (std::sync::Arc::new(run.result), footer)
    } else {
        let r = runner.sweep(&[runner.job(workload, variant)]).remove(0);
        (r, runner.report())
    };

    println!(
        "workload             : {workload} ({})",
        workload.description()
    );
    println!("variant              : {}", variant.label());
    println!("execution cycles     : {}", r.exec_cycles);
    println!(
        "instructions         : {}",
        r.metrics.counter("total.cu.instructions")
    );
    println!(
        "memory ops           : {}",
        r.metrics.counter("total.cu.mem_ops")
    );
    println!(
        "inter-cluster flits  : {}",
        r.metrics.counter("net.inter.flits")
    );
    println!(
        "inter link util      : {:.1}%",
        100.0 * r.inter_utilization()
    );
    println!(
        "inter read latency   : {:.0} cycles",
        r.inter_read_latency()
    );
    println!("PTW byte share       : {:.1}%", 100.0 * r.ptw_byte_share());
    println!("L1 MPKI              : {:.2}", r.l1_mpki());
    println!(
        "stitched-away flits  : {:.1}%",
        100.0 * r.stitched_fraction()
    );
    println!(
        "trimmed responses    : {}",
        r.metrics.counter("total.trim.trimmed")
    );
    println!(
        "page-table walks     : {}",
        r.metrics.counter("total.gmmu.walks")
    );
    eprint!("{footer}");

    if cli.has("--dump-metrics") {
        println!("\n--- all metrics ---\n{}", r.metrics);
    }
    if let Some(path) = cli.value("--csv") {
        std::fs::write(path, r.metrics.to_csv()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("metrics written to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(s: &[&str]) -> Result<Option<TraceOptions>, String> {
        let args: Vec<String> = s.iter().map(ToString::to_string).collect();
        let cli = Cli::parse(&args, "usage", &VALUE_FLAGS, &["--dump-metrics"]).expect("valid");
        trace_options(&cli)
    }

    #[test]
    fn parses_all_flags() {
        let opts = options(&[
            "--trace",
            "t.json",
            "--timeseries",
            "ts.jsonl",
            "--trace-filter",
            "class=flit",
            "--sample-window",
            "500",
        ]);
        let opts = opts.unwrap().expect("outputs asked for");
        assert!(opts.config.is_some_and(|c| c != TraceConfig::default()));
        assert_eq!(opts.sample_window, Some(500));
    }

    #[test]
    fn absent_flags_mean_inactive() {
        assert!(options(&["--workload", "GUPS", "--dump-metrics"])
            .unwrap()
            .is_none());
    }

    #[test]
    fn timeseries_without_window_uses_default() {
        let opts = options(&["--timeseries", "ts.jsonl"])
            .unwrap()
            .expect("sampled");
        assert_eq!(opts.sample_window, Some(DEFAULT_SAMPLE_WINDOW));
        assert!(opts.config.is_none(), "no --trace, no event tracing");
    }

    #[test]
    fn bad_filter_surfaces_parse_error() {
        let e = options(&["--trace", "t.json", "--trace-filter", "class=nope"]).unwrap_err();
        assert!(e.starts_with("--trace-filter: unknown event class"), "{e}");
    }
}
