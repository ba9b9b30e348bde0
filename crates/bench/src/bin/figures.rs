//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures [--quick] [--verbose] [--jobs N] [--cache-dir DIR]
//!         [--warmup CYCLES] <id>... | all
//! ```
//!
//! Ids: table1, table3, fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig12,
//! fig14, fig15, fig16, fig17, fig18, fig19, fig20, fig21, fig22,
//! ablation, scaling, topology.
//!
//! The figures run at paper scale (`Runner::paper`) or, with `--quick`,
//! at smoke scale (`Runner::quick`, seconds).
//!
//! `--jobs N` resolves every figure's simulations on N worker threads;
//! `--cache-dir DIR` persists every result so a re-run only simulates
//! configurations it has never seen. Both leave the printed tables
//! byte-identical to a sequential, uncached run.
//!
//! Tracing is the `simulate` binary's job: its `--trace` /
//! `--timeseries` flags observe any single run, including any one of the
//! figures' simulations.
//!
//! `--warmup CYCLES` keeps every NetCrafter policy knob inert until the
//! given cycle, which lets the sweep share one simulated warmup prefix
//! across all policy variants of a workload (in-memory snapshot forks;
//! DESIGN.md §3.7); the output is byte-identical to cold runs.

// The stderr progress lines time the host, as `netcrafter_bench` itself does.
#![allow(clippy::disallowed_types)]

use std::time::Instant;

use netcrafter_bench::{figures, Cli, Runner};

const USAGE: &str = "usage: figures [--quick] [--verbose] [--jobs N] [--cache-dir DIR] \
     [--warmup CYCLES] <id>... | all";

const VALUE_FLAGS: [&str; 3] = ["--jobs", "--cache-dir", "--warmup"];

fn main() {
    let cli = Cli::from_env(USAGE, &VALUE_FLAGS, &["--quick", "--verbose"]);
    let quick = cli.has("--quick");
    let jobs: usize = cli.parsed("--jobs").unwrap_or(1);
    let warmup: Option<u64> = cli.parsed("--warmup");

    // Everything that is not a flag (or a flag's value) is a figure id.
    let mut ids: Vec<String> = cli.positionals().to_vec();
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = figures::all_ids().iter().map(ToString::to_string).collect();
    }
    for id in &ids {
        if !figures::all_ids().contains(&id.as_str()) {
            cli.fail(&format!(
                "unknown figure id {id:?}; known: {:?}",
                figures::all_ids()
            ));
        }
    }

    let mut runner = if quick {
        Runner::quick()
    } else {
        Runner::paper()
    };
    runner.verbose = cli.has("--verbose");
    runner = runner.with_jobs(jobs);
    if let Some(w) = warmup {
        runner.base_cfg.netcrafter.warmup_cycles = w;
    }
    if let Some(dir) = cli.value("--cache-dir") {
        runner = runner.with_cache_dir(dir).unwrap_or_else(|e| {
            eprintln!("cannot open cache dir {dir}: {e}");
            std::process::exit(1);
        });
    }

    println!(
        "# NetCrafter figure regeneration ({} scale)\n",
        if quick { "quick" } else { "paper" }
    );
    let t0 = Instant::now();

    // Resolve every simulation the requested figures need in one parallel
    // sweep; the generators below then hit a warm memo, so stdout is
    // byte-identical regardless of worker count or cache state.
    let mut all_jobs = Vec::new();
    for id in &ids {
        all_jobs.extend(figures::sweep_jobs(id, &runner));
    }
    if !all_jobs.is_empty() {
        runner.sweep(&all_jobs);
        eprintln!(
            "[sweep: {} unique runs resolved in {:.1?}]",
            runner.runs_completed(),
            t0.elapsed()
        );
    }

    for id in &ids {
        let t = Instant::now();
        let table = figures::generate(id, &runner);
        println!("{table}");
        eprintln!(
            "[{id} done in {:.1?}; {} runs cached]",
            t.elapsed(),
            runner.runs_completed()
        );
    }
    eprintln!("[total {:.1?}]", t0.elapsed());
    eprint!("{}", runner.report());
}
