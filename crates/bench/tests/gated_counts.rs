//! The simulated counts this reproduction holds exactly, as a tier-1
//! test. Three quick-scale matrices — Figure 14 (75 runs), the scale-out
//! topology matrix (12) and the prefix-sharing sweep (30) — run on a
//! sequential [`Runner::quick`] and are compared with the committed
//! `ci/BENCH_{fig14,topology,sweep}.baseline.json`: every `exec_cycles`,
//! `speedup`, `geomean` and `prefix_hit_ratio` must be equal, a run's
//! engine `ticks` and executed cycles (`steps`) may fall but never rise
//! (a component that starts spinning again, or a scheduler that executes
//! a cycle with nothing due, fails here on any host, however noisy), and
//! a key on one side only fails. The simulator is deterministic, so debug and
//! release builds on any machine agree to the digit. Host time is not
//! measured here: `benchmark/` owns the stopwatch.
//!
//! The fresh report is always written to `target/tmp/BENCH_<x>.json`; an
//! intended model change is re-committed by copying it over the baseline
//! (a failure prints the `cp` line).

use std::collections::BTreeMap;
use std::path::Path;

use netcrafter_bench::{figures, geomean, Runner};
use netcrafter_multigpu::{Experiment, SystemVariant};
use netcrafter_sim::trace::{json, json_string};
use netcrafter_workloads::Workload;

/// Sweeps `jobs` and renders the report: per-run cycles, engine ticks and
/// executed cycles (a forked job counts its suffix only), each variant's speedup over the
/// `Baseline` run of the same workload key — scale-out runs are keyed
/// `WORKLOAD@FABRIC` — the geomeans in first-seen variant order, and,
/// when the sweep planned prefix groups, the plan tree's hit ratio.
fn report(r: &Runner, jobs: &[Experiment]) -> String {
    let results = r.sweep(jobs);
    let stats = r.job_stats();
    let (mut runs, mut speedups) = (Vec::new(), Vec::new());
    let mut base_cycles = BTreeMap::new();
    let mut per_variant: Vec<(String, Vec<f64>)> = Vec::new();
    for (job, res) in jobs.iter().zip(&results) {
        let workload = json_string(&match job.tag.strip_prefix("topo-") {
            Some(fabric) => format!("{}@{fabric}", job.workload.abbrev()),
            None => job.workload.abbrev().to_owned(),
        });
        let variant = json_string(&job.variant.label());
        let memo_key = job.memo_key();
        let stat = stats.iter().find(|s| s.memo_key == memo_key);
        let stat = stat.expect("a sweep records one stat per job");
        let (cycles, ticks, steps) = (res.exec_cycles, stat.ticks, stat.steps);
        runs.push(format!(
            "{{\"workload\":{workload},\"variant\":{variant},\"exec_cycles\":{cycles},\"ticks\":{ticks},\"steps\":{steps}}}"
        ));
        if job.variant == SystemVariant::Baseline {
            base_cycles.insert(workload, cycles);
            continue;
        }
        let s = base_cycles[&workload] as f64 / cycles as f64;
        speedups.push(format!(
            "{{\"workload\":{workload},\"variant\":{variant},\"speedup\":{s:.6}}}"
        ));
        match per_variant.iter_mut().find(|(v, _)| *v == variant) {
            Some((_, column)) => column.push(s),
            None => per_variant.push((variant, vec![s])),
        }
    }
    let geo: Vec<String> = per_variant
        .iter()
        .map(|(v, column)| format!("{{\"variant\":{v},\"speedup\":{:.6}}}", geomean(column)))
        .collect();
    let ps = r.prefix_stats();
    let mut prefix = String::new();
    if ps.groups > 0 {
        let ratio = ps.hit_ratio();
        prefix = format!(",\n  \"prefix\": {{\"prefix_hit_ratio\": {ratio:.6}}}");
    }
    format!(
        "{{\n  \"schema\": 1,\n  \"scale\": \"quick\",\n  \"runs\": [\n    {}\n  ],\n  \
         \"speedups\": [\n    {}\n  ],\n  \"geomean\": [\n    {}\n  ]{prefix}\n}}\n",
        runs.join(",\n    "),
        speedups.join(",\n    "),
        geo.join(",\n    "),
    )
}

/// The per-run host-work counts, which may only fall.
const FALLING: [&str; 2] = ["ticks", "steps"];

/// A report's gated numbers by key: `exact` must equal the baseline's,
/// `falling` (each of `FALLING` once per run) may only fall.
#[derive(Clone, Debug, Default)]
struct Gated {
    exact: BTreeMap<String, f64>,
    falling: BTreeMap<String, f64>,
}

/// `entry[key]` as a number; `at` names the entry in the error.
fn num_of(entry: &json::Value, at: &str, key: &str) -> Result<f64, String> {
    let value = entry.get(key).and_then(json::Value::as_f64);
    value.ok_or_else(|| format!("`{at}` lacks the number `{key}`"))
}

/// Reads a report, fresh or committed; the error is one line saying what
/// is wrong with the text.
fn read_report(text: &str) -> Result<Gated, String> {
    let report = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let mut gated = Gated::default();
    for (section, key_fields, value) in [
        ("runs", &["workload", "variant"][..], "exec_cycles"),
        ("speedups", &["workload", "variant"], "speedup"),
        ("geomean", &["variant"], "speedup"),
    ] {
        let entries = report.get(section).and_then(json::Value::as_arr);
        let entries = entries.ok_or_else(|| format!("no `{section}` array"))?;
        for (i, entry) in entries.iter().enumerate() {
            let at = format!("{section}[{i}]");
            let mut key = Vec::new();
            for field in key_fields {
                let part = entry.get(field).and_then(json::Value::as_str);
                key.push(part.ok_or_else(|| format!("`{at}` lacks the string `{field}`"))?);
            }
            let key = key.join("|");
            let number = num_of(entry, &at, value)?;
            gated.exact.insert(format!("{section}:{key}"), number);
            if section == "runs" {
                for count in FALLING {
                    let n = num_of(entry, &at, count)?;
                    gated.falling.insert(format!("{count}:{key}"), n);
                }
            }
        }
    }
    if let Some(prefix) = report.get("prefix") {
        let ratio = num_of(prefix, "prefix", "prefix_hit_ratio")?;
        gated.exact.insert("prefix:hit_ratio".to_owned(), ratio);
    }
    Ok(gated)
}

/// Holds a fresh report against its baseline: `Ok` is the one-line
/// summary, `Err` one line per drifted key.
fn compare(base: &Gated, cur: &Gated) -> Result<String, Vec<String>> {
    let mut drifted = Vec::new();
    for (key, want) in &base.exact {
        match cur.exact.get(key) {
            None => drifted.push(format!("{key}: in the baseline, missing from this run")),
            Some(got) if got != want => drifted.push(format!("{key}: baseline {want}, now {got}")),
            Some(_) => {}
        }
    }
    for key in cur.exact.keys().filter(|k| !base.exact.contains_key(*k)) {
        drifted.push(format!("{key}: in this run, missing from the baseline"));
    }
    // A run on one side only is already listed under its `runs:` key.
    for (key, want) in &base.falling {
        if let Some(got) = cur.falling.get(key).filter(|got| *got > want) {
            drifted.push(format!("{key}: rose from {want} to {got}"));
        }
    }
    if !drifted.is_empty() {
        return Err(drifted);
    }
    let total = |g: &Gated, count: &str| -> f64 {
        let prefix = format!("{count}:");
        let of_count = g.falling.iter().filter(|(k, _)| k.starts_with(&prefix));
        of_count.map(|(_, n)| n).sum()
    };
    let runs = cur.falling.len() / FALLING.len();
    let totals: Vec<String> = FALLING
        .iter()
        .map(|c| format!("{} {c} vs baseline {}", total(cur, c), total(base, c)))
        .collect();
    Ok(format!(
        "{} compared (cycles, speedups, geomeans, hit ratio); over {runs} runs {}",
        base.exact.len(),
        totals.join(", "),
    ))
}

/// Runs one matrix, leaves its report in the target tmpdir and fails on
/// any drift from `ci/BENCH_<name>.baseline.json`, which holds `numbers`
/// exact numbers.
fn gate(name: &str, numbers: usize, r: &Runner, jobs: &[Experiment]) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    let root = root.expect("crates/bench sits two levels below the workspace root");
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("BENCH_{name}.json"));
    let baseline = format!("ci/BENCH_{name}.baseline.json");
    let text = report(r, jobs);
    std::fs::write(&fresh, &text).unwrap_or_else(|e| panic!("{}: {e}", fresh.display()));
    let recommit = format!(
        "to commit this run's numbers as the baseline, from the repository root:\n  cp {} {baseline}",
        fresh.strip_prefix(root).unwrap_or(&fresh).display()
    );
    let cur = read_report(&text).expect("the reader accepts what `report` renders");
    let base = std::fs::read_to_string(root.join(&baseline))
        .map_err(|e| e.to_string())
        .and_then(|text| read_report(&text))
        .unwrap_or_else(|e| panic!("{baseline}: {e}\n{recommit}"));
    match compare(&base, &cur) {
        Ok(summary) => {
            println!("{name}: {summary}");
            assert_eq!(base.exact.len(), numbers, "{baseline} changed shape");
        }
        Err(drifted) => panic!(
            "{} of {} gated numbers drifted from {baseline}:\n  {}\n{recommit}",
            drifted.len(),
            base.exact.len() + base.falling.len(),
            drifted.join("\n  ")
        ),
    }
}

#[test]
fn fig14_counts_match_the_baseline() {
    let r = Runner::quick();
    gate("fig14", 139, &r, &figures::sweep_jobs("fig14", &r));
}

/// The scale-out matrix: the `topology` figure's baseline vs NetCrafter
/// runs on its two 8-GPU fabrics.
#[test]
fn topology_counts_match_the_baseline() {
    let r = Runner::quick();
    let mut jobs = figures::sweep_jobs("topology", &r);
    jobs.retain(|j| matches!(j.tag.as_str(), "topo-fat-tree-8" | "topo-torus-8"));
    gate("topology", 19, &r, &jobs);
}

/// The prefix-sharing sweep matrix: three bandwidth-sensitive workloads
/// × baseline + nine policy variants under a 2800-cycle warmup window —
/// late enough that every prefix covers most of a quick-scale run (the
/// shortest executes ~3100 cycles), early enough that every run is still
/// going when the knobs activate. The seven full-line variants share one
/// warmup prefix per workload and the two trimming variants a second
/// (trimming changes L1 fills from cycle 0, so it keys the prefix);
/// baseline has no knob to delay and runs cold. Each group's
/// representative runs cold and forks in flight, so 21 of the 30 runs
/// fork — a deterministic prefix-hit ratio of 0.7.
#[test]
fn sweep_counts_and_hit_ratio_match_the_baseline() {
    let pool = |window, selective| SystemVariant::StitchPool { window, selective };
    let variants = [
        SystemVariant::Baseline,
        SystemVariant::StitchOnly,
        SystemVariant::SeqOnly,
        SystemVariant::DataPrio,
        pool(16, true),
        pool(32, true),
        pool(64, true),
        pool(32, false),
        SystemVariant::StitchTrim,
        SystemVariant::NetCrafter,
    ];
    let mut r = Runner::quick();
    r.base_cfg.netcrafter.warmup_cycles = 2_800;
    let mut jobs = Vec::new();
    for w in [Workload::Gups, Workload::Spmv, Workload::Pr] {
        jobs.extend(variants.iter().map(|&v| r.job(w, v)));
    }
    gate("sweep", 67, &r, &jobs);
}

const MT_RUN: &str = r#",
    {"workload":"MT","variant":"Baseline","exec_cycles":2423,"ticks":2860,"steps":2423}"#;
const SYNTHETIC: &str = r#"{"runs": [
    {"workload":"GUPS","variant":"Baseline","exec_cycles":3224,"ticks":7047,"steps":3224},
    {"workload":"GUPS","variant":"NetCrafter","exec_cycles":3210,"ticks":6393,"steps":3190},
    {"workload":"MT","variant":"Baseline","exec_cycles":2423,"ticks":2860,"steps":2423}],
  "speedups": [{"workload":"GUPS","variant":"NetCrafter","speedup":1.004361}],
  "geomean": [{"variant":"NetCrafter","speedup":1.004361}],
  "prefix": {"prefix_hit_ratio": 0.700000}}"#;

#[test]
fn the_gate_can_fail() {
    let read = |text: &str| read_report(text).unwrap();
    let drift = |base: &str, cur: &str| compare(&read(base), &read(cur)).err().unwrap_or_default();
    let edit = |from: &str, to: &str| drift(SYNTHETIC, &SYNTHETIC.replace(from, to));
    assert!(drift(SYNTHETIC, SYNTHETIC).is_empty());
    for (from, to, key) in [
        ("cycles\":3210", "cycles\":3211", "runs:GUPS|NetCrafter: "),
        ("ticks\":7047", "ticks\":7048", "ticks:GUPS|Baseline: "),
        ("steps\":3190", "steps\":3191", "steps:GUPS|NetCrafter: "),
        ("0.700000", "0.690000", "prefix:hit_ratio: "),
        (MT_RUN, "", "runs:MT|Baseline: in the baseline, "),
    ] {
        let lines = edit(from, to);
        assert!(lines.len() == 1 && lines[0].starts_with(key), "{lines:?}");
    }
    assert!(edit("ticks\":7047", "ticks\":7046").is_empty());
    assert!(edit("steps\":3190", "steps\":3189").is_empty());
    let lines = drift(&SYNTHETIC.replace(MT_RUN, ""), SYNTHETIC);
    assert!(
        lines.len() == 1 && lines[0].starts_with("runs:MT|Baseline: in this run, "),
        "{lines:?}"
    );
}

#[test]
fn a_bad_baseline_is_diagnosed_in_one_line() {
    let truncated = read_report(&SYNTHETIC[..SYNTHETIC.len() / 2]).unwrap_err();
    assert!(truncated.starts_with("invalid JSON: "), "{truncated}");
    let no_cycles = read_report(&SYNTHETIC.replace("\"exec_cycles\":3210,", "")).unwrap_err();
    assert_eq!(no_cycles, "`runs[1]` lacks the number `exec_cycles`");
    let no_steps = read_report(&SYNTHETIC.replace(",\"steps\":3224", "")).unwrap_err();
    assert_eq!(no_steps, "`runs[0]` lacks the number `steps`");
    assert_eq!(read_report("{}").unwrap_err(), "no `runs` array");
}
