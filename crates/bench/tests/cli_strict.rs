//! `simulate` and `figures` refuse what they do not understand: an
//! unknown flag, a flag without its value, an unparsable number or a
//! configuration no system can be built from ends with the usage line
//! and exit code 2 before anything is simulated,
//! and `--help` prints the usage and exits 0. Checkpoint files go
//! through the binary too: what `--checkpoint-at` writes does not depend
//! on the observers, and `--restore-from` takes any of them.

use std::process::Command;

use netcrafter_sim::trace::json;

const SIMULATE: &str = env!("CARGO_BIN_EXE_simulate");
const FIGURES: &str = env!("CARGO_BIN_EXE_figures");

/// `(binary, arguments, expected exit code, text that must appear)` —
/// on stderr for exit 2, on stdout for exit 0.
type Case = (&'static str, &'static [&'static str], i32, &'static str);

#[rustfmt::skip]
const CASES: &[Case] = &[
    // A misspelt flag used to run the Baseline and exit 0.
    (SIMULATE, &["--varient", "netcrafter"], 2, "unknown flag --varient"),
    (SIMULATE, &["--help"], 0, "usage: simulate"),
    (SIMULATE, &["--workload", "GUPS", "-h"], 0, "usage: simulate"),
    // Unparsable numbers used to fall back to the defaults.
    (SIMULATE, &["--seed", "x"], 2, "--seed: cannot parse \"x\""),
    (SIMULATE, &["--cus", "x"], 2, "--cus: cannot parse \"x\""),
    (SIMULATE, &["--jobs", "x"], 2, "--jobs: cannot parse \"x\""),
    (SIMULATE, &["--flit", "-3"], 2, "--flit: cannot parse \"-3\""),
    // A value flag at the end of the line used to run GUPS.
    (SIMULATE, &["--workload"], 2, "--workload expects a value"),
    (SIMULATE, &["--workload", "--variant", "netcrafter"], 2, "--workload expects a value"),
    (SIMULATE, &["--workload", "NOPE"], 2, "unknown workload \"NOPE\""),
    (SIMULATE, &["--variant", "fastest"], 2, "unknown variant \"fastest\""),
    (SIMULATE, &["--scale", "huge"], 2, "unknown scale \"huge\""),
    (SIMULATE, &["gups"], 2, "unexpected argument \"gups\""),
    (SIMULATE, &["--sample-window", "0"], 2, "--sample-window expects a positive cycle count"),
    // A configuration `System::build` rejects used to be a panic with a backtrace.
    (SIMULATE, &["--flit", "3"], 2, "flit size must be a power of two, got 3"),
    (SIMULATE, &["--flit", "0"], 2, "flit size must be a power of two, got 0"),
    (SIMULATE, &["--trim-granularity", "0"], 2, "trim granularity must divide the 64 B line, got 0"),
    (SIMULATE, &["--trim-granularity", "5"], 2, "trim granularity must divide the 64 B line, got 5"),
    (SIMULATE, &["--topology", "mesh:0x2"], 2, "topology must contain at least one GPU"),
    (SIMULATE, &["--intra", "0"], 2, "intra-cluster link bandwidth must be positive"),
    (SIMULATE, &["--inter", "0"], 2, "inter-cluster link bandwidth must be positive"),
    // A rate no bucket holds used to build a link that could not send a flit in 10^30 cycles.
    (SIMULATE, &["--inter", "1e-30"], 2, "inter-cluster link rate in flits 6.25e-32 per cycle is refused"),
    (SIMULATE, &["--topology", "mesh:300x300"], 2, "exceed the 65535 nodes"),
    // Parallelism is across runs (`--jobs`); no binary runs one simulation on threads.
    (SIMULATE, &["--threads", "2"], 2, "unknown flag --threads"),
    (FIGURES, &["--quick", "fig14", "--threads", "2"], 2, "unknown flag --threads"),
    // The paper and quick scales are the figures' two; `--big` scaled by hand.
    (FIGURES, &["--big", "fig14"], 2, "unknown flag --big"),
    // `--topology` names the fabric; its shape has no second spelling.
    (SIMULATE, &["--clusters", "4"], 2, "unknown flag --clusters"),
    // A checkpoint with nowhere to go used to be simulated, serialised and discarded.
    (SIMULATE, &["--checkpoint-at", "100"], 2, "--checkpoint-at needs --checkpoint-dir"),
    (SIMULATE, &["--checkpoint-dir", "d"], 2, "--checkpoint-dir needs --checkpoint-at"),
    // Pause and resume belong to one run, not to a sweep.
    (SIMULATE, &["--variant", "all", "--checkpoint-at", "100", "--checkpoint-dir", "d"], 2, "not --variant all"),
    (SIMULATE, &["--variant", "all", "--restore-from", "f"], 2, "not --variant all"),
    // So do observers: a sweep used to take these and drop them.
    (SIMULATE, &["--variant", "all", "--trace", "t.json"], 2, "--trace acts on one run, not --variant all"),
    (SIMULATE, &["--variant", "all", "--timeseries", "ts"], 2, "--timeseries acts on one run, not --variant all"),
    (SIMULATE, &["--variant", "all", "--trace-filter", "class=flit"], 2, "--trace-filter acts on one run, not --variant all"),
    (SIMULATE, &["--variant", "all", "--sample-window", "0"], 2, "--sample-window acts on one run, not --variant all"),
    // A modifier without the output it shapes used to be dropped unparsed.
    (SIMULATE, &["--trace-filter", "class=nope"], 2, "--trace-filter needs --trace"),
    (SIMULATE, &["--sample-window", "500"], 2, "--sample-window needs --timeseries"),
    (SIMULATE, &["--trace", "t.json", "--trace-filter", "class=nope"], 2, "--trace-filter: unknown event class `nope`"),
    // Cycle 0 used to simulate the whole run, write nothing and blame a restore.
    (SIMULATE, &["--checkpoint-at", "0", "--checkpoint-dir", "d"], 2, "--checkpoint-at expects a positive cycle"),
    // `figures --help` used to start a paper-scale `all` pass.
    (FIGURES, &["--help"], 0, "usage: figures"),
    (FIGURES, &["--quick", "fig14", "-h"], 0, "usage: figures"),
    (FIGURES, &["--quik", "fig14"], 2, "unknown flag --quik"),
    (FIGURES, &["--quick", "fig14", "--jobs"], 2, "--jobs expects a value"),
    (FIGURES, &["--quick", "fig14", "--jobs", "many"], 2, "--jobs: cannot parse \"many\""),
    (FIGURES, &["--quick", "--warmup", "soon", "fig14"], 2, "--warmup: cannot parse \"soon\""),
    (FIGURES, &["--quick", "fig99"], 2, "unknown figure id \"fig99\""),
    // One binary traces: `simulate --trace` observes any single run.
    (FIGURES, &["--quick", "fig14", "--trace"], 2, "unknown flag --trace"),
    // A sweep of sub-second jobs has no checkpoint flags.
    (FIGURES, &["--quick", "fig14", "--checkpoint-dir", "d"], 2, "unknown flag --checkpoint-dir"),
    // Prefix sharing is byte-identical to cold runs; there is nothing to turn off.
    (FIGURES, &["--quick", "fig14", "--no-prefix-share"], 2, "unknown flag --no-prefix-share"),
];

#[test]
fn misunderstood_command_lines_exit_with_the_usage_line() {
    for &(bin, args, code, says) in CASES {
        let line = format!("{bin} {}", args.join(" "));
        let out = Command::new(bin)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("{line}: {e}"));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(code),
            "{line}\nstdout: {stdout}\nstderr: {stderr}"
        );
        if code == 0 {
            assert!(stdout.contains(says), "{line}\nstdout: {stdout}");
            assert!(stderr.is_empty(), "{line}\nstderr: {stderr}");
        } else {
            assert!(stderr.contains(says), "{line}\nstderr: {stderr}");
            assert!(stderr.contains("usage: "), "{line}\nstderr: {stderr}");
            // Nothing ran: no result line, no table.
            assert!(stdout.is_empty(), "{line}\nstdout: {stdout}");
        }
    }
}

#[test]
fn a_well_formed_command_line_still_runs() {
    for (args, says) in [
        (
            "--workload GUPS --variant netcrafter --cus 2 --scale tiny --seed 7",
            "variant              : NetCrafter",
        ),
        // 64 waves per CU for its 40 slots: the run used to spin forever.
        ("--cus 1 --dump-metrics", "total.cu.waves_done = 256"),
    ] {
        let out = Command::new(SIMULATE)
            .args(args.split(' '))
            .output()
            .expect("simulate runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args}: {stdout}");
        assert!(stdout.contains(says), "{args}: {stdout}");
    }
}

/// Runs `simulate` on quick GUPS/NetCrafter with `extra` flags, which
/// must exit 0; returns stdout and stderr.
fn simulate_quick(extra: &[&str]) -> (String, String) {
    let out = Command::new(SIMULATE)
        .args("--workload GUPS --variant netcrafter --cus 2 --scale tiny".split(' '))
        .args(extra)
        .output()
        .expect("simulate runs");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    assert!(out.status.success(), "{extra:?}: {}", text(&out.stderr));
    (text(&out.stdout), text(&out.stderr))
}

#[test]
fn checkpoint_files_hold_no_observer_and_restore_under_any() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_checkpoints");
    let _ = std::fs::remove_dir_all(&dir);
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (cold, _) = simulate_quick(&["--dump-metrics"]);
    let cycles: u64 = (cold.lines())
        .find_map(|l| l.strip_prefix("execution cycles     : ")?.parse().ok())
        .expect("execution cycles");
    let mid = cycles / 2;
    let at = mid.to_string();

    // One checkpoint untraced, one traced: the same bytes.
    let trace = path("taken.json");
    let mut taken = Vec::new();
    for (dir, observe) in [
        (path("plain"), vec![]),
        (path("traced"), vec!["--trace", &trace]),
    ] {
        let checkpoint = ["--checkpoint-at", &at, "--checkpoint-dir", &dir];
        simulate_quick(&[&checkpoint[..], &observe].concat());
        let files: Vec<_> = std::fs::read_dir(&dir).expect("checkpoint dir").collect();
        assert_eq!(files.len(), 1, "{dir}: {files:?}");
        taken.push(files[0].as_ref().expect("dir entry").path());
    }
    let bytes = |f| std::fs::read(f).expect("checkpoint readable");
    assert!(bytes(&taken[0]) == bytes(&taken[1]), "tracing moved it");

    // Restored under tracing and sampling the run that took it had neither
    // of, and asked for a checkpoint the restore has already passed.
    let (snapshot, trace, series) = (taken[0].to_string_lossy(), path("trace.json"), path("ts"));
    let restore = ["--restore-from", &snapshot, "--trace", &trace];
    let sample = ["--timeseries", &series, "--dump-metrics"];
    let passed = [
        "--checkpoint-at",
        "1",
        "--checkpoint-dir",
        &dir.to_string_lossy(),
    ];
    let (warm, stderr) = simulate_quick(&[&restore[..], &sample, &passed].concat());
    let resumed = format!("simulated from cycle {mid} ");
    assert!(stderr.contains(&resumed), "{stderr}");
    let none = format!("no checkpoint taken: {snapshot} resumes at cycle {mid}, not before 1");
    assert!(stderr.contains(&none), "{stderr}");
    assert!(warm == cold, "restored stdout differs");
    let doc = json::parse(&std::fs::read_to_string(&trace).expect("trace")).expect("valid JSON");
    let events = doc.get("traceEvents").and_then(json::Value::as_arr);
    let first = (events.expect("traceEvents").iter())
        .filter_map(|e| e.get("ts")?.as_f64())
        .reduce(f64::min);
    assert!(first.is_some_and(|ts| ts > mid as f64), "{first:?}");
}

/// `simulate` on quick GUPS/NetCrafter restoring `file`, with `other`
/// in front (the first occurrence of a flag wins): exit code and stderr,
/// after checking that nothing ran.
fn restore_quick(other: &[&str], file: &std::path::Path) -> (Option<i32>, String) {
    let out = Command::new(SIMULATE)
        .args(other)
        .args("--workload GUPS --variant netcrafter --cus 2 --scale tiny".split(' '))
        .arg("--restore-from")
        .arg(file)
        .output()
        .expect("simulate runs");
    assert!(out.stdout.is_empty(), "{other:?}: nothing ran");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{other:?}\nstderr: {stderr}");
    (out.status.code(), stderr)
}

#[test]
fn a_checkpoint_restores_into_its_own_run_only() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_wrong_run");
    let _ = std::fs::remove_dir_all(&dir);
    simulate_quick(&[
        "--checkpoint-at",
        "1000",
        "--checkpoint-dir",
        &dir.to_string_lossy(),
    ]);
    let files: Vec<_> = std::fs::read_dir(&dir).expect("checkpoint dir").collect();
    assert_eq!(files.len(), 1, "{files:?}");
    let snapshot = files[0].as_ref().expect("dir entry").path();

    // Each used to run on (a wrong number), panic in the GMMU or exit 1.
    for other in [
        ["--seed", "7"],
        ["--workload", "SPMV"],
        ["--inter", "32"],
        ["--cus", "4"],
    ] {
        let (code, stderr) = restore_quick(&other, &snapshot);
        assert_eq!(code, Some(2), "{other:?}\nstderr: {stderr}");
        let last = stderr.lines().last().unwrap_or_default();
        assert!(
            last.starts_with("error: cannot restore") && last.contains("another run"),
            "{other:?}\nstderr: {stderr}"
        );
        assert_eq!(stderr.matches("error:").count(), 1, "{stderr}");
    }

    // Bytes that do not decode exit 2 as well; a file that cannot be read
    // is an I/O failure, exit 1.
    let junk = dir.join("junk.bin");
    std::fs::write(&junk, b"not a snapshot").expect("scratch file");
    let (code, stderr) = restore_quick(&[], &junk);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("error: cannot restore"), "{stderr}");
    let (code, stderr) = restore_quick(&[], &dir.join("missing.bin"));
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("cannot read snapshot"), "{stderr}");
}
