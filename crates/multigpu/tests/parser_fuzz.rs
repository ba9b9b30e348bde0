//! Damaged text never takes the process down: the JSON parser that reads
//! the `gated_counts` baselines and the two readers of the on-disk result
//! cache (`Metrics::from_kv`, `RunResult::from_kv`) answer seeded
//! corruptions of real inputs with `Err` / `None`, or with a value that
//! renders back to what it parsed — never with a panic or a stack
//! overflow.
//!
//! The corruptions (SplitMix64, so a failure reproduces): truncation at
//! every 5th (JSON) or 29th (key-value) offset, single-bit flips,
//! runs of inserted digits, duplicated lines, and arrays or objects
//! nested far past `json::MAX_DEPTH`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use netcrafter_core::SplitMix64;
use netcrafter_multigpu::{Experiment, RunResult, SystemVariant};
use netcrafter_proto::Metrics;
use netcrafter_sim::trace::json;
use netcrafter_workloads::Workload;

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    usize::try_from(rng.next_u64() % n as u64).expect("below a usize")
}

/// `text` with one bit of one byte flipped (invalid UTF-8 is replaced,
/// as the readers take `&str`).
fn flip(text: &str, rng: &mut SplitMix64) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = below(rng, bytes.len());
    bytes[at] ^= 1 << below(rng, 8);
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `text` with 1–40 random digits inserted at a char boundary.
fn insert_digits(text: &str, rng: &mut SplitMix64) -> String {
    let mut at = below(rng, text.len() + 1);
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    let digits: String = (0..1 + below(rng, 40))
        .map(|_| char::from(b'0' + u8::try_from(below(rng, 10)).expect("a digit")))
        .collect();
    format!("{}{digits}{}", &text[..at], &text[at..])
}

/// `text` with one of its lines repeated in place.
fn duplicate_line(text: &str, rng: &mut SplitMix64) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let at = below(rng, lines.len());
    let mut out = lines[..=at].join("\n");
    out.push('\n');
    out.push_str(&lines[at..].join("\n"));
    out
}

/// Runs `f`, failing with `what` and the input when it panics.
fn no_panic<T>(what: &str, input: &str, f: impl FnOnce(&str) -> T) -> T {
    catch_unwind(AssertUnwindSafe(|| f(input))).unwrap_or_else(|_| {
        let shown: String = input.chars().take(300).collect();
        panic!("{what} panicked on ({} bytes) {shown:?}", input.len())
    })
}

/// `count` mutations of `text` of each kind, tagged with their kind.
fn mutations(text: &str, seed: u64, count: usize) -> Vec<(&'static str, String)> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    for _ in 0..count {
        out.push(("flip", flip(text, &mut rng)));
        out.push(("digits", insert_digits(text, &mut rng)));
        out.push(("duplicate line", duplicate_line(text, &mut rng)));
    }
    out
}

#[test]
fn json_parse_rejects_damage_without_panicking() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for name in ["fig14", "topology", "sweep"] {
        let path = root.join(format!("ci/BENCH_{name}.baseline.json"));
        let text = std::fs::read_to_string(&path).expect("the committed baselines are readable");
        let whole = text.trim_end().len();
        assert!(json::parse(&text).is_ok(), "{name}: the baseline parses");
        // Every proper prefix of an object document is unterminated.
        for cut in (0..whole).step_by(5).filter(|&c| text.is_char_boundary(c)) {
            let result = no_panic("json::parse", &text[..cut], json::parse);
            assert!(result.is_err(), "{name}: a {cut}-byte prefix parsed");
        }
        for (kind, damaged) in mutations(&text, 0x150_u64 ^ name.len() as u64, 400) {
            let parsed = no_panic(kind, &damaged, json::parse);
            if let Ok(value) = parsed {
                assert!(
                    matches!(value, json::Value::Obj(_)),
                    "{name}: {kind} turned the document into {value:?}"
                );
            }
        }
    }
}

#[test]
fn json_parse_caps_nesting_depth() {
    let depth = json::MAX_DEPTH;
    let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    assert!(json::parse(&nest(depth)).is_ok(), "{depth} levels are fine");
    let err = json::parse(&nest(depth + 1)).expect_err("one level too many");
    assert!(err.contains(&format!("at byte {depth}")), "{err}");

    for deep in [
        "[".repeat(1_000_000),
        "{\"a\":".repeat(200_000),
        "[{\"k\":".repeat(100_000),
    ] {
        let err = no_panic("json::parse", &deep, json::parse).expect_err("far too deep");
        assert!(err.contains("nesting deeper than"), "{err}");
    }
}

#[test]
fn kv_readers_reject_damage_without_panicking() {
    let text = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter)
        .run()
        .to_kv();
    let metrics_text = text.split_once('\n').expect("a header line").1;
    let reread = |m: &Metrics| Metrics::from_kv(&m.to_kv()).map(|again| again.to_kv());
    let run_reread = |r: &RunResult| RunResult::from_kv(&r.to_kv()).map(|again| again.to_kv());

    let mut inputs: Vec<(&str, String)> = (0..text.len())
        .step_by(29)
        .filter(|&c| text.is_char_boundary(c))
        .map(|c| ("truncation", text[..c].to_owned()))
        .collect();
    inputs.extend(mutations(&text, 0x4B56, 120));
    inputs.extend(mutations(metrics_text, 0x4B57, 120));
    for (kind, damaged) in &inputs {
        if let Some(m) = no_panic(kind, damaged, Metrics::from_kv) {
            assert_eq!(reread(&m), Some(m.to_kv()), "{kind}: Metrics round trip");
        }
        if let Some(r) = no_panic(kind, damaged, RunResult::from_kv) {
            assert_eq!(
                run_reread(&r),
                Some(r.to_kv()),
                "{kind}: RunResult round trip"
            );
        }
    }

    // Damage that must be refused outright.
    let max = u64::MAX;
    for bad in [
        format!("hist h = 1:{max} 1:1\n"),
        format!("counter c = {max}0\n"),
        "latency l = 1 2\n".to_owned(),
        "latency l = 1 2 3 4\n".to_owned(),
        "bogus x = 1\n".to_owned(),
    ] {
        assert!(
            no_panic("Metrics::from_kv", &bad, Metrics::from_kv).is_none(),
            "accepted {bad:?}"
        );
    }
    assert!(RunResult::from_kv("exec_cycles = 12").is_none());
    assert!(RunResult::from_kv(&format!("exec_cycles = {max}0\n")).is_none());
}
