//! CLI plumbing for `simulate`'s observability flags (the one binary that
//! traces): `--trace FILE`, `--timeseries FILE`, `--trace-filter SPEC` and
//! `--sample-window N` parse into a [`TraceArgs`], which turns into the
//! [`TraceOptions`] handed to [`Experiment::run_traced`] and writes the
//! recorded data to disk.
//!
//! [`Experiment::run_traced`]: netcrafter_multigpu::Experiment::run_traced

use netcrafter_multigpu::{TraceData, TraceOptions};
use netcrafter_sim::TraceConfig;

use crate::cli::Cli;

/// Default time-series bucket width when `--sample-window` is absent.
pub const DEFAULT_SAMPLE_WINDOW: u64 = 1000;

/// Parsed observability flags.
#[derive(Debug, Clone, Default)]
pub struct TraceArgs {
    /// `--trace FILE`: Chrome-trace JSON output path.
    pub trace_path: Option<String>,
    /// `--timeseries FILE`: per-link time-series JSONL output path.
    pub timeseries_path: Option<String>,
    /// `--trace-filter SPEC`: [`TraceConfig`] filter expression.
    pub filter: Option<String>,
    /// `--sample-window N`: time-series bucket width in cycles.
    pub sample_window: Option<u64>,
}

/// The flags that take a value (a binary adds them to its own when it
/// builds its [`Cli`]).
pub const TRACE_VALUE_FLAGS: [&str; 4] = [
    "--trace",
    "--timeseries",
    "--trace-filter",
    "--sample-window",
];

impl TraceArgs {
    /// Extracts the observability flags from a parsed command line
    /// (whose value flags must include [`TRACE_VALUE_FLAGS`]).
    pub fn parse(cli: &Cli) -> TraceArgs {
        let sample_window = cli.parsed::<u64>("--sample-window");
        if sample_window == Some(0) {
            cli.fail("--sample-window expects a positive cycle count");
        }
        let get = |flag: &str| cli.value(flag).map(str::to_owned);
        TraceArgs {
            trace_path: get("--trace"),
            timeseries_path: get("--timeseries"),
            filter: get("--trace-filter"),
            sample_window,
        }
    }

    /// True if any output was requested, i.e. a traced run is needed.
    pub fn active(&self) -> bool {
        self.trace_path.is_some() || self.timeseries_path.is_some()
    }

    /// The run options the flags describe: event tracing when `--trace`
    /// was given (filtered by `--trace-filter`), link sampling when
    /// `--timeseries` was given.
    ///
    /// # Errors
    ///
    /// Returns the [`TraceConfig::parse`] message on a bad filter.
    pub fn options(&self) -> Result<TraceOptions, String> {
        let config = if self.trace_path.is_some() {
            Some(match &self.filter {
                Some(spec) => TraceConfig::parse(spec)?,
                None => TraceConfig::default(),
            })
        } else {
            None
        };
        let sample_window = self
            .timeseries_path
            .is_some()
            .then(|| self.sample_window.unwrap_or(DEFAULT_SAMPLE_WINDOW));
        Ok(TraceOptions {
            config,
            sample_window,
        })
    }

    /// Writes the recorded data to the requested paths, reporting each
    /// file on stderr.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write(&self, data: &TraceData) -> std::io::Result<()> {
        if let Some(path) = &self.trace_path {
            std::fs::write(path, data.trace.to_chrome_json())?;
            eprintln!(
                "trace: {} events on {} tracks written to {path}",
                data.trace.events.len(),
                data.trace.tracks.len(),
            );
        }
        if let Some(path) = &self.timeseries_path {
            std::fs::write(path, data.links_to_jsonl())?;
            eprintln!("timeseries: {} links written to {path}", data.links.len());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> TraceArgs {
        let args: Vec<String> = s.iter().map(ToString::to_string).collect();
        let cli = Cli::parse(&args, "usage", &TRACE_VALUE_FLAGS, &["--quick"]).expect("valid");
        TraceArgs::parse(&cli)
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&[
            "fig14",
            "--trace",
            "t.json",
            "--timeseries",
            "ts.jsonl",
            "--trace-filter",
            "class=flit",
            "--sample-window",
            "500",
        ]);
        assert!(a.active());
        assert_eq!(a.trace_path.as_deref(), Some("t.json"));
        assert_eq!(a.timeseries_path.as_deref(), Some("ts.jsonl"));
        assert_eq!(a.sample_window, Some(500));
        let opts = a.options().unwrap();
        assert!(opts.config.is_some());
        assert_eq!(opts.sample_window, Some(500));
    }

    #[test]
    fn absent_flags_mean_inactive() {
        let a = parse(&["--quick", "fig14"]);
        assert!(!a.active());
        let opts = a.options().unwrap();
        assert!(opts.config.is_none());
        assert!(opts.sample_window.is_none());
    }

    #[test]
    fn timeseries_without_window_uses_default() {
        let a = parse(&["--timeseries", "ts.jsonl"]);
        let opts = a.options().unwrap();
        assert_eq!(opts.sample_window, Some(DEFAULT_SAMPLE_WINDOW));
        assert!(opts.config.is_none(), "no --trace, no event tracing");
    }

    #[test]
    fn bad_filter_surfaces_parse_error() {
        let a = parse(&["--trace", "t.json", "--trace-filter", "class=nope"]);
        assert!(a.options().is_err());
    }
}
