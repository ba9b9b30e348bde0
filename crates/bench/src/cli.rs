//! Strict command-line parsing shared by the `simulate` and `figures`
//! binaries: a flag the binary does not know, a flag without its value
//! or a number that does not parse ends the process with the usage
//! line and exit code 2 instead of silently running something else.

use std::collections::BTreeMap;
use std::str::FromStr;

/// A command line split into `--flag value` pairs, bare `--switch`es and
/// positional arguments.
#[derive(Debug)]
pub struct Cli {
    usage: &'static str,
    values: BTreeMap<&'static str, String>,
    switches: Vec<&'static str>,
    positionals: Vec<String>,
}

/// Why a command line was not accepted.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help` / `-h`: print the usage and succeed.
    Help,
    /// Anything the binary does not understand; the message names it.
    Bad(String),
}

impl Cli {
    /// Parses `args` against the flags a binary understands:
    /// `value_flags` take the next argument as their value, `switches`
    /// stand alone, everything not starting with `-` is positional.
    /// The first occurrence of a repeated flag wins.
    ///
    /// # Errors
    ///
    /// [`CliError::Help`] on `--help`/`-h`; [`CliError::Bad`] on an
    /// unknown flag or a value flag with no value after it.
    pub fn parse(
        args: &[String],
        usage: &'static str,
        value_flags: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Cli, CliError> {
        let mut cli = Cli {
            usage,
            values: BTreeMap::new(),
            switches: Vec::new(),
            positionals: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Err(CliError::Help);
            }
            if let Some(&flag) = value_flags.iter().find(|f| *f == arg) {
                match it.next() {
                    Some(value) if !value.starts_with("--") => {
                        cli.values.entry(flag).or_insert_with(|| value.clone());
                    }
                    _ => return Err(CliError::Bad(format!("{flag} expects a value"))),
                }
            } else if let Some(&switch) = switches.iter().find(|s| *s == arg) {
                cli.switches.push(switch);
            } else if arg.starts_with('-') {
                return Err(CliError::Bad(format!("unknown flag {arg}")));
            } else {
                cli.positionals.push(arg.clone());
            }
        }
        Ok(cli)
    }

    /// [`Cli::parse`] over the process arguments; prints the usage and
    /// exits (0 for `--help`, 2 for anything not understood) on failure.
    pub fn from_env(
        usage: &'static str,
        value_flags: &[&'static str],
        switches: &[&'static str],
    ) -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Cli::parse(&args, usage, value_flags, switches) {
            Ok(cli) => cli,
            Err(CliError::Help) => {
                println!("{usage}");
                std::process::exit(0);
            }
            Err(CliError::Bad(why)) => fail(usage, &why),
        }
    }

    /// The value given for `flag`, if the flag was present.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// The value of `flag` parsed as `T`; an unparsable value is a usage
    /// error (exit 2), never a silent default.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| self.fail(&format!("{flag}: cannot parse {v:?}")))
        })
    }

    /// True if the bare `switch` was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// Arguments that are neither flags nor flag values, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Reports `why` with the usage line on stderr and exits with code 2.
    pub fn fail(&self, why: &str) -> ! {
        fail(self.usage, why)
    }
}

fn fail(usage: &str, why: &str) -> ! {
    eprintln!("error: {why}\n{usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, CliError> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        Cli::parse(&args, "usage", &["--seed", "--workload"], &["--quick"])
    }

    #[test]
    fn splits_values_switches_and_positionals() {
        let cli = parse(&["fig14", "--seed", "7", "--quick", "fig3"]).expect("valid");
        assert_eq!(cli.value("--seed"), Some("7"));
        assert_eq!(cli.parsed::<u64>("--seed"), Some(7));
        assert_eq!(cli.value("--workload"), None);
        assert!(cli.has("--quick"));
        assert_eq!(cli.positionals(), ["fig14", "fig3"]);
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        assert_eq!(
            parse(&["--varient", "x"]).unwrap_err(),
            CliError::Bad("unknown flag --varient".to_string())
        );
        assert_eq!(
            parse(&["--workload"]).unwrap_err(),
            CliError::Bad("--workload expects a value".to_string())
        );
        assert_eq!(
            parse(&["--workload", "--quick"]).unwrap_err(),
            CliError::Bad("--workload expects a value".to_string())
        );
        assert_eq!(parse(&["fig14", "--help"]).unwrap_err(), CliError::Help);
        assert_eq!(parse(&["-h"]).unwrap_err(), CliError::Help);
    }
}
