//! `benchmark compare A.json B.json`: B against the reference A, one row
//! per workload and end-to-end metric.
//!
//! * `regressed` — B's median is worse than A's by more than the metric's
//!   bound; for an exact metric or a count layer metric, any difference.
//! * `unresolved` — within the bound, but the spread between either side's
//!   own runs is wider than the bound, so "unchanged" cannot be claimed.
//! * `ok` — otherwise.

use std::path::Path;
use std::process::ExitCode;

use netcrafter::sim::trace::json::Value;

use crate::json::{self, num, text};
use crate::report::workloads_of;
use crate::spec::{self, LayerKind};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the median and the quartiles of its runs.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub q1: Option<f64>,
    pub q3: Option<f64>,
}

impl Side {
    fn read(entry: &Value) -> Option<Side> {
        Some(Side {
            median: num(entry, "median")?,
            q1: num(entry, "q1"),
            q3: num(entry, "q3"),
        })
    }

    fn spread(&self) -> f64 {
        match (self.q1, self.q3) {
            (Some(q1), Some(q3)) if self.median != 0.0 => (q3 - q1) / self.median.abs(),
            _ => 0.0,
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == b {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

pub fn verdict(a: Side, b: Side, higher_is_better: bool, bound: f64) -> Verdict {
    if bound == 0.0 {
        return if a.median == b.median {
            Verdict::Ok
        } else {
            Verdict::Regressed
        };
    }
    if worse_by(a.median, b.median, higher_is_better) > bound {
        Verdict::Regressed
    } else if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn fmt_quartiles(s: Side) -> String {
    match (s.q1, s.q3) {
        (Some(q1), Some(q3)) => format!("[{q1:.4} .. {q3:.4}]"),
        _ => "[one run]".to_owned(),
    }
}

pub fn compare(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let a = json::read(a_path)?;
    let b = json::read(b_path)?;
    for (name, file) in [("A", &a), ("B", &b)] {
        if file.get("of_record") != Some(&Value::Bool(true)) {
            println!("warning: {name} is a smoke run, not of record");
        }
    }
    let seed = |v: &Value| {
        v.get("provenance")
            .and_then(|p| text(p, "seed"))
            .map(str::to_owned)
    };
    if seed(&a) != seed(&b) {
        println!("warning: A and B ran different seeds; exact metrics and counts will differ");
    }

    let mut regressed = 0;
    println!(
        "{:<15} {:<24} {:>14} {:<24} {:>14} {:<24} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "worse by",
        "bound"
    );
    for (workload, wa) in workloads_of(&a) {
        let Some(wb) = workloads_of(&b)
            .iter()
            .find(|w| &w.0 == workload)
            .map(|w| &w.1)
        else {
            println!("{workload:<15} missing from B: regressed");
            regressed += 1;
            continue;
        };
        for m in &spec::END_TO_END {
            let entry = |w: &Value| w.get("end_to_end")?.get(m.name).and_then(Side::read);
            let (sa, sb) = match (entry(wa), entry(wb)) {
                (Some(sa), Some(sb)) => (sa, sb),
                (None, None) => continue,
                _ => {
                    println!(
                        "{workload:<15} {:<24} reported by one side only: regressed",
                        m.name
                    );
                    regressed += 1;
                    continue;
                }
            };
            let v = verdict(sa, sb, m.higher, m.bound);
            regressed += usize::from(v == Verdict::Regressed);
            println!(
                "{workload:<15} {:<24} {:>14.6} {:<24} {:>14.6} {:<24} {:>+7.2}% {:>5.0}%  {}",
                m.name,
                sa.median,
                fmt_quartiles(sa),
                sb.median,
                fmt_quartiles(sb),
                worse_by(sa.median, sb.median, m.higher) * 100.0,
                m.bound * 100.0,
                v.label()
            );
        }
        // Counts and simulated statistics of the layers repeat to the
        // digit or something changed the simulation.
        for l in spec::PER_LAYER
            .iter()
            .filter(|l| l.kind == LayerKind::Count)
        {
            let value = |w: &Value| {
                w.get("per_layer")?
                    .get(l.name)
                    .and_then(|e| num(e, "value"))
            };
            let (va, vb) = (value(wa), value(wb));
            if va != vb {
                println!(
                    "{workload:<15} {:<24} count differs: A {va:?} B {vb:?}: regressed",
                    l.name
                );
                regressed += 1;
            }
        }
    }
    println!("{regressed} regressed");
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, q1: f64, q3: f64) -> Side {
        Side {
            median,
            q1: Some(q1),
            q3: Some(q3),
        }
    }

    #[test]
    fn lower_is_better_within_and_beyond_the_bound() {
        let a = side(10.0, 9.9, 10.1);
        assert_eq!(verdict(a, side(10.4, 10.3, 10.5), false, 0.05), Verdict::Ok);
        assert_eq!(
            verdict(a, side(10.6, 10.5, 10.7), false, 0.05),
            Verdict::Regressed
        );
        // Much better is not a regression.
        assert_eq!(verdict(a, side(5.0, 4.9, 5.1), false, 0.05), Verdict::Ok);
    }

    #[test]
    fn higher_is_better_flips_the_sign() {
        let a = side(100.0, 99.0, 101.0);
        assert_eq!(
            verdict(a, side(94.0, 93.5, 94.5), true, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(a, side(120.0, 119.0, 121.0), true, 0.05),
            Verdict::Ok
        );
        assert!((worse_by(100.0, 94.0, true) - 0.06).abs() < 1e-12);
        assert!((worse_by(100.0, 94.0, false) + 0.06).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, false), 0.0);
    }

    #[test]
    fn wide_spread_is_unresolved_not_ok() {
        let steady = side(10.0, 9.9, 10.1);
        let noisy = side(10.1, 9.0, 11.0);
        assert_eq!(verdict(steady, noisy, false, 0.05), Verdict::Unresolved);
        assert_eq!(verdict(noisy, steady, false, 0.05), Verdict::Unresolved);
        // A regression stays a regression however noisy the runs.
        assert_eq!(
            verdict(steady, side(12.0, 10.0, 14.0), false, 0.05),
            Verdict::Regressed
        );
        // One run a side has no spread to judge by.
        let single = Side {
            median: 10.2,
            q1: None,
            q3: None,
        };
        assert_eq!(verdict(steady, single, false, 0.05), Verdict::Ok);
    }

    #[test]
    fn exact_metrics_must_match_to_the_digit() {
        let a = side(1.1437, 1.1437, 1.1437);
        assert_eq!(verdict(a, a, true, 0.0), Verdict::Ok);
        assert_eq!(
            verdict(a, side(1.1438, 1.1438, 1.1438), true, 0.0),
            Verdict::Regressed
        );
    }
}
