//! CLI for the in-tree determinism & invariant lint.
//!
//! ```text
//! cargo run -p netcrafter-lint                      # lint the workspace
//! cargo run -p netcrafter-lint -- --jobs 4          # parallel indexing
//! cargo run -p netcrafter-lint -- --report out.json # + JSON report
//! cargo run -p netcrafter-lint -- --as-crate net f.rs  # lint one file
//! cargo run -p netcrafter-lint -- --list-rules
//! ```
//!
//! Exit codes: 0 clean, 1 unwaived violations, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use netcrafter_lint::{
    analyze_units, analyze_workspace, crate_of, render_json, render_text, summarize, Finding,
    SourceUnit, RULES,
};

struct Args {
    root: PathBuf,
    report: Option<PathBuf>,
    as_crate: Option<String>,
    paths: Vec<PathBuf>,
    list_rules: bool,
    jobs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        report: None,
        as_crate: None,
        paths: Vec::new(),
        list_rules: false,
        jobs: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => args.root = it.next().ok_or("--root needs a value")?.into(),
            "--report" => args.report = Some(it.next().ok_or("--report needs a value")?.into()),
            "--as-crate" => {
                args.as_crate = Some(it.next().ok_or("--as-crate needs a value")?);
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                args.jobs = v
                    .parse::<usize>()
                    .map_err(|_| format!("--jobs needs a positive integer, got {v}"))?
                    .max(1);
            }
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                return Err("usage: netcrafter-lint [--root DIR] [--report FILE] \
                     [--as-crate NAME] [--jobs N] [--list-rules] [FILES...]"
                    .to_string())
            }
            p if !p.starts_with('-') => args.paths.push(p.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> std::io::Result<Vec<Finding>> {
    if args.paths.is_empty() {
        return analyze_workspace(&args.root, args.jobs);
    }
    let mut units = Vec::new();
    for path in &args.paths {
        let src = std::fs::read_to_string(path)
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        let rel = path.strip_prefix(&args.root).unwrap_or(path);
        let crate_name = match &args.as_crate {
            Some(name) => Some(name.clone()),
            None => crate_of(rel),
        };
        units.push(SourceUnit {
            path: rel.to_string_lossy().into_owned(),
            src,
            crate_name,
        });
    }
    Ok(analyze_units(&units))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        for rule in RULES {
            let scope = match rule.crates {
                Some(crates) => crates.join(", "),
                None => "all crates".to_string(),
            };
            println!("{}\n  scope: {}\n  {}\n", rule.name, scope, rule.summary);
        }
        return ExitCode::SUCCESS;
    }

    let findings = match run(&args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("netcrafter-lint: {e}");
            return ExitCode::from(2);
        }
    };

    print!("{}", render_text(&findings));
    if let Some(report) = &args.report {
        if let Err(e) = std::fs::write(report, render_json(&findings)) {
            eprintln!("netcrafter-lint: writing {}: {e}", report.display());
            return ExitCode::from(2);
        }
    }
    if summarize(&findings).violations > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
