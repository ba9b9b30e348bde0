//! The benchmark of record for the NetCrafter simulator.
//!
//! ```text
//! benchmark all [--seed 0xC0FFEE] [--reps 3] [--smoke] [--bless]
//! benchmark compare A.json B.json
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last form is one run of one workload and is what the driver calls;
//! `all` starts it once per repetition in a child process and aggregates.
//! README.md in this directory explains the workloads and the metrics.

mod calib;
mod compare;
mod json;
mod probes;
mod report;
mod run;
mod span;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;

use workloads::{Kind, Params, DEFAULT_SEED};

const USAGE: &str = "usage:
  benchmark all [--seed N] [--reps N] [--smoke] [--bless]
  benchmark compare A.json B.json
  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--detail FILE]
workloads: fig14_paper scaleout_ft16 sweep_prefix net_saturation";

/// Flags as `(name, value)`; a flag without a value gets an empty one.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            let value = if switches.contains(&name) {
                String::new()
            } else {
                it.next()
                    .ok_or_else(|| format!("--{name} needs a value"))?
                    .clone()
            };
            flags.push((name.to_owned(), value));
        }
        Ok(Flags(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().find(|f| f.0 == name).map(|f| f.1.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|f| !known.contains(&f.0.as_str())) {
            Some(f) => Err(format!("unknown flag --{}", f.0)),
            None => Ok(()),
        }
    }
}

/// A seed in decimal or `0x` hexadecimal.
fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("bad seed `{text}`"))
}

fn one_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["smoke"])?;
    flags.only(&["workload", "seed", "seconds", "trace", "smoke", "detail"])?;
    let name = flags.get("workload").ok_or("--workload is required")?;
    let kind = Kind::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = flags.get("seed").map_or(Ok(DEFAULT_SEED), parse_seed)?;
    let seconds: f64 = flags
        .get("seconds")
        .map_or(Ok(0.0), str::parse)
        .map_err(|_| "bad --seconds".to_owned())?;
    let traced = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let params = Params {
        seed,
        smoke: flags.has("smoke"),
    };
    let outcome = if traced {
        run::traced(kind, params)?
    } else {
        run::untraced(kind, params, seconds)
    };
    outcome.print();
    if let Some(path) = flags.get("detail") {
        std::fs::write(path, outcome.detail().pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", outcome.contract_line());
    Ok(ExitCode::SUCCESS)
}

fn all(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["smoke", "bless"])?;
    flags.only(&["seed", "reps", "smoke", "bless"])?;
    let seed = flags.get("seed").map_or(Ok(DEFAULT_SEED), parse_seed)?;
    let reps: usize = flags
        .get("reps")
        .map_or(Ok(3), str::parse)
        .map_err(|_| "bad --reps".to_owned())?;
    if reps == 0 {
        return Err("--reps must be at least 1".to_owned());
    }
    let params = Params {
        seed,
        smoke: flags.has("smoke"),
    };
    if flags.has("bless") && (params.smoke || seed != DEFAULT_SEED) {
        return Err("--bless records the default seed at full scale only".to_owned());
    }
    report::all(params, reps, flags.has("bless"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => Err("compare takes two result files".to_owned()),
        },
        Some(flag) if flag.starts_with("--") && flag != "--help" => one_run(&args),
        _ => {
            println!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn seeds_in_both_bases() {
        assert_eq!(parse_seed("0xC0FFEE"), Ok(DEFAULT_SEED));
        assert_eq!(parse_seed("12648430"), Ok(DEFAULT_SEED));
        assert!(parse_seed("coffee").is_err());
        assert!(parse_seed("-1").is_err());
    }

    #[test]
    fn flags_with_and_without_values() {
        let f = Flags::parse(
            &strings(&["--workload", "x", "--smoke", "--seed", "7"]),
            &["smoke"],
        )
        .unwrap();
        assert_eq!(f.get("workload"), Some("x"));
        assert!(f.has("smoke"));
        assert_eq!(f.get("seed"), Some("7"));
        assert!(f.only(&["workload", "smoke"]).is_err());
        assert!(Flags::parse(&strings(&["--seed"]), &[]).is_err());
        assert!(Flags::parse(&strings(&["seed"]), &[]).is_err());
    }
}
