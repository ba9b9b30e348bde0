//! `benchmark all`: every workload, each run in a child process of its own
//! (so `peak_rss_mb` is that run's and nothing carries over), `--reps`
//! untraced runs for the end-to-end medians and one traced run for the
//! layers. Prints every metric, writes `out/result.json`.

use std::process::{Command, ExitCode, Stdio};

use netcrafter::sim::trace::json::Value;

use crate::json::{members, num, text, J};
use crate::run::{golden_entry, golden_path, host_time_table, Detail, HostRow};
use crate::spec::{Class, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use crate::workloads::{out_dir, Kind, Params};

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn git_rev() -> String {
    let dir = env!("CARGO_MANIFEST_DIR");
    let Some(rev) = command_line("git", &["-C", dir, "rev-parse", "HEAD"]) else {
        return "unknown".to_owned();
    };
    let dirty = command_line("git", &["-C", dir, "status", "--porcelain"]);
    if dirty.is_some_and(|d| !d.is_empty()) {
        format!("{rev}-dirty")
    } else {
        rev
    }
}

/// One run in a child process; waits for it and reads its detail file.
fn child(kind: Kind, p: Params, traced: bool, tag: &str) -> Result<Detail, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let detail = out_dir().join(format!("detail-{}-{tag}.json", kind.name()));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name(), "--seconds", "0"])
        .args(["--seed", &format!("{:#x}", p.seed)])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail);
    if p.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a {} run: {e}", kind.name()))?;
    if !out.status.success() {
        return Err(format!(
            "the {} {tag} run ended with {}",
            kind.name(),
            out.status
        ));
    }
    Detail::read(&detail)
}

/// Everything `all` learned about one workload.
struct Workload {
    kind: Kind,
    /// Per end-to-end metric, one value per repetition (none when n/a).
    raw: Vec<Vec<f64>>,
    traced: Detail,
    first: Detail,
    failed: u64,
    trace_overhead_pct: f64,
}

fn measure(kind: Kind, p: Params, reps: usize) -> Result<Workload, String> {
    let mut details = Vec::new();
    for rep in 0..reps {
        eprintln!("  {} untraced run {}/{reps} ...", kind.name(), rep + 1);
        details.push(child(kind, p, false, &format!("rep{rep}"))?);
    }
    eprintln!("  {} traced run ...", kind.name());
    let traced = child(kind, p, true, "traced")?;

    let raw: Vec<Vec<f64>> = END_TO_END
        .iter()
        .map(|m| details.iter().filter_map(|d| d.metric(m.name)).collect())
        .collect();
    let mut failed: u64 = details.iter().map(|d| d.count("failed")).sum();
    failed += traced.count("failed");
    // A deterministic simulator must agree with itself across runs.
    let want = details[0].digests();
    for other in details[1..].iter().chain([&traced]) {
        let got = other.digests();
        failed += want.len().abs_diff(got.len()) as u64;
        failed += want.iter().zip(&got).filter(|(a, b)| a != b).count() as u64;
    }
    let wall = median(&raw[0]);
    let trace_overhead_pct = traced
        .metric("trace.pass_wall_s")
        .map_or(0.0, |t| (t / wall - 1.0) * 100.0);
    Ok(Workload {
        kind,
        raw,
        traced,
        first: details.swap_remove(0),
        failed,
        trace_overhead_pct,
    })
}

impl Workload {
    fn host_rows(&self) -> Vec<HostRow> {
        let rows = self
            .traced
            .value
            .get("host_time")
            .and_then(Value::as_arr)
            .unwrap_or(&[]);
        rows.iter()
            .map(|r| HostRow {
                layer: text(r, "layer").unwrap_or("").to_owned(),
                what: text(r, "what").unwrap_or("").to_owned(),
                count: num(r, "count").unwrap_or(0.0),
                ns_each: num(r, "ns_each").unwrap_or(0.0),
            })
            .collect()
    }

    /// The value of an end-to-end metric as `all` reports it: the median
    /// over the repetitions (so `ops_attempted` is the jobs of one run,
    /// whatever `--reps` was), except that failures are summed over every
    /// run, the traced one and the cross-run digest check included.
    fn end_to_end(&self, ix: usize) -> Option<f64> {
        if END_TO_END[ix].name == "ops_failed" {
            return Some(self.failed as f64);
        }
        (!self.raw[ix].is_empty()).then(|| median(&self.raw[ix]))
    }

    fn print(&self, warnings: &mut Vec<String>) {
        let name = self.kind.name();
        let why = WORKLOADS.iter().find(|w| w.0 == name).map_or("", |w| w.1);
        println!("\n== {name}: {why}");
        println!(
            "  end to end (tracing off, median of {} runs)",
            self.raw[0].len()
        );
        for (ix, m) in END_TO_END.iter().enumerate() {
            let Some(value) = self.end_to_end(ix) else {
                println!(
                    "    {:<26} {:>16} {:<10} not applicable to this workload",
                    m.name, "n/a", m.unit
                );
                continue;
            };
            let mut line = format!("    {:<26} {value:>16.6} {:<10}", m.name, m.unit);
            if m.class == Class::Host {
                if let Some([q1, _, q3]) = quartiles(&self.raw[ix]) {
                    line += &format!(
                        " q1 {q1:.6} q3 {q3:.6} spread {:.2}% bound {:.0}%",
                        spread(&self.raw[ix]) * 100.0,
                        m.bound * 100.0
                    );
                }
                for v in &self.raw[ix] {
                    if (v / value - 1.0).abs() > 0.10 {
                        warnings.push(format!(
                            "{name}: a run's {} ({v:.6}) is more than 10% from the median ({value:.6})",
                            m.name
                        ));
                    }
                }
            } else {
                line += " exact";
                if self.raw[ix].iter().any(|v| v != &self.raw[ix][0]) {
                    warnings.push(format!(
                        "{name}: {} differs between runs of one seed",
                        m.name
                    ));
                }
            }
            if let Some(note) = self.first.note(m.name) {
                line += &format!("  ({note})");
            }
            println!("{line}");
        }
        println!("  per layer (traced run)");
        for l in &PER_LAYER {
            let value = self.traced.metric(l.name).unwrap_or(0.0);
            let note = self
                .traced
                .note(l.name)
                .map_or(String::new(), |n| format!("  ({n})"));
            println!(
                "    {:<38} {value:>18.6} {:<12} {}{note}",
                l.name,
                l.unit,
                l.kind.label()
            );
        }
        println!(
            "    {:<38} {:>18.6} {:<12} traced pass against the untraced median",
            "trace_overhead_pct", self.trace_overhead_pct, "%"
        );
        let rows = self.host_rows();
        if !rows.is_empty() {
            print!(
                "{}",
                host_time_table(&rows, self.traced.metric("multigpu.run_s").unwrap_or(0.0))
            );
        }
    }

    fn to_json(&self) -> J {
        let end_to_end = END_TO_END.iter().enumerate().map(|(ix, m)| {
            let q = quartiles(&self.raw[ix]);
            let entry = J::obj([
                ("unit", J::str(m.unit)),
                ("better", J::str(m.better())),
                ("class", J::str(m.class.label())),
                ("bound", J::Num(m.bound)),
                ("median", self.end_to_end(ix).map_or(J::Null, J::Num)),
                ("q1", q.map_or(J::Null, |q| J::Num(q[0]))),
                ("q3", q.map_or(J::Null, |q| J::Num(q[2]))),
                ("raw", J::nums(&self.raw[ix])),
                ("note", self.first.note(m.name).map_or(J::Null, J::str)),
            ]);
            (m.name, entry)
        });
        let per_layer = PER_LAYER.iter().map(|l| {
            let entry = J::obj([
                ("unit", J::str(l.unit)),
                ("kind", J::str(l.kind.label())),
                ("better", J::str(l.better())),
                ("value", J::Num(self.traced.metric(l.name).unwrap_or(0.0))),
            ]);
            (l.name, entry)
        });
        let host_time = self.host_rows().into_iter().map(|r| {
            J::obj([
                ("seconds", J::Num(r.seconds())),
                ("layer", J::Str(r.layer)),
                ("what", J::Str(r.what)),
                ("count", J::Num(r.count)),
                ("ns_each", J::Num(r.ns_each)),
            ])
        });
        J::obj([
            ("end_to_end", J::obj(end_to_end)),
            ("per_layer", J::obj(per_layer)),
            ("trace_overhead_pct", J::Num(self.trace_overhead_pct)),
            (
                "golden_checked",
                J::Bool(self.traced.value.get("golden_checked") == Some(&Value::Bool(true))),
            ),
            ("host_time", J::Arr(host_time.collect())),
            (
                "trace_file",
                J::str(format!("trace-{}.json", self.kind.name())),
            ),
        ])
    }
}

fn bless(workloads: &[Workload], p: Params) -> Result<(), String> {
    if let Some(w) = workloads.iter().find(|w| w.failed > 0) {
        return Err(format!(
            "not blessing: {} has failed operations",
            w.kind.name()
        ));
    }
    let entries = workloads.iter().map(|w| {
        (
            w.kind.name(),
            golden_entry(&w.traced.digests(), w.traced.table()),
        )
    });
    let golden = J::obj([
        ("seed", J::str(format!("{:#x}", p.seed))),
        (
            "what",
            J::str("FNV-1a 64 of RunResult::to_kv() per job (of the LoadPoint's debug form on net_saturation) and the Figure 14 table; regenerate with `benchmark all --bless`"),
        ),
        ("workloads", J::obj(entries)),
    ]);
    std::fs::write(golden_path(), golden.pretty()).map_err(|e| e.to_string())?;
    println!("\nwrote {}", golden_path().display());
    Ok(())
}

pub fn all(p: Params, reps: usize, blessing: bool) -> Result<ExitCode, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let load_start = load_average();
    let mut workloads = Vec::new();
    for kind in Kind::ALL {
        workloads.push(measure(kind, p, reps)?);
    }
    let load_end = load_average();

    let mut warnings = Vec::new();
    if p.smoke {
        println!("SMOKE RUN: quick scale, the numbers below are not of record");
    }
    for w in &workloads {
        w.print(&mut warnings);
    }
    // At the end the 1-minute average holds this benchmark's own measuring
    // thread; what is above that is someone else's load.
    for (when, others) in [("start", load_start), ("end", load_end - 1.0)] {
        if others > 0.5 * nproc as f64 {
            warnings.push(format!(
                "1-minute load average at the {when} shows {others:.2} busy threads besides the benchmark's own on {nproc} cores: host times may be inflated"
            ));
        }
    }
    println!();
    for w in &warnings {
        println!("warning: {w}");
    }

    let failed: u64 = workloads.iter().map(|w| w.failed).sum();
    let mismatches: f64 = workloads
        .iter()
        .filter_map(|w| w.traced.metric("multigpu.golden_mismatches"))
        .sum();
    println!("ops_failed = {failed}, multigpu.golden_mismatches = {mismatches}");

    let result = J::obj([
        ("of_record", J::Bool(!p.smoke)),
        (
            "provenance",
            J::obj([
                ("git_rev", J::Str(git_rev())),
                (
                    "rustc",
                    J::Str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned())),
                ),
                ("nproc", J::Int(nproc as u64)),
                ("cpu_model", J::Str(cpu_model())),
                ("load_average_start", J::Num(load_start)),
                ("load_average_end", J::Num(load_end)),
                ("seed", J::str(format!("{:#x}", p.seed))),
                ("reps", J::Int(reps as u64)),
                ("measuring_threads", J::Int(1)),
            ]),
        ),
        (
            "warnings",
            J::Arr(warnings.iter().map(|w| J::str(&**w)).collect()),
        ),
        (
            "workloads",
            J::obj(workloads.iter().map(|w| (w.kind.name(), w.to_json()))),
        ),
    ]);
    let path = out_dir().join("result.json");
    std::fs::write(&path, result.pretty()).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());

    if blessing {
        bless(&workloads, p)?;
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The workloads of a result file, in file order.
pub fn workloads_of(result: &Value) -> &[(String, Value)] {
    result.get("workloads").map_or(&[], members)
}
