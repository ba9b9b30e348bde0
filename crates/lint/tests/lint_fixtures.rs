//! Fixture self-tests: every `bad_*` fixture must fire its rule, every
//! `allowed_*` fixture must be fully waived, and the clean fixture must
//! produce nothing. This is the linter's own regression corpus — CI
//! additionally runs the CLI over each bad fixture and asserts a
//! nonzero exit.

use std::path::{Path, PathBuf};

use netcrafter_lint::{check_path, summarize, Finding};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lints a fixture as if it lived in the `net` crate, which is in scope
/// for every rule.
fn lint(name: &str) -> Vec<Finding> {
    check_path(&fixture(name), Path::new("."), Some("net")).expect("fixture readable")
}

fn violations(findings: &[Finding]) -> Vec<&Finding> {
    findings.iter().filter(|f| f.allowed.is_none()).collect()
}

#[track_caller]
fn assert_fires(name: &str, rule: &str, at_least: usize) {
    let findings = lint(name);
    let hits: Vec<_> = violations(&findings)
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect();
    assert!(
        hits.len() >= at_least,
        "{name}: expected >= {at_least} unwaived {rule} finding(s), got {findings:?}"
    );
}

#[track_caller]
fn assert_fully_waived(name: &str) {
    let findings = lint(name);
    let summary = summarize(&findings);
    assert_eq!(
        summary.violations, 0,
        "{name}: expected every finding waived, got {findings:?}"
    );
    assert!(
        summary.allowed > 0,
        "{name}: expected waived findings to exist (the fixture must \
         exercise the annotation), got {findings:?}"
    );
}

#[test]
fn bad_unordered_iteration_fires() {
    // Both the import and each struct field use fire.
    assert_fires("bad_unordered_iteration.rs", "no-unordered-iteration", 3);
}

#[test]
fn bad_wall_clock_fires() {
    assert_fires("bad_wall_clock.rs", "no-wall-clock", 2);
}

#[test]
fn bad_wake_contract_fires() {
    assert_fires("bad_wake_contract.rs", "wake-contract", 1);
}

#[test]
fn bad_snapshot_coverage_fires() {
    // Both the pairless impl and the save-only impl fire.
    assert_fires("bad_snapshot_coverage.rs", "snapshot-coverage", 2);
}

#[test]
fn bad_narrowing_fires() {
    assert_fires("bad_narrowing.rs", "no-unchecked-narrowing", 2);
}

#[test]
fn bad_tracer_threading_fires() {
    // Both the trait impl `pop` and the free `stitch_into` fire.
    assert_fires("bad_tracer_threading.rs", "tracer-threading", 2);
}

#[test]
fn bad_ambient_state_fires() {
    // static mut, the atomic static, the Mutex static and thread_local!
    // each fire.
    assert_fires("bad_ambient_state.rs", "no-ambient-state", 4);
}

#[test]
fn bad_hot_path_alloc_fires() {
    // Vec::new, Box::new (in tick) and .to_vec (in tick_burst) each
    // fire; the constructor's Vec::new does not.
    assert_fires("bad_hot_path_alloc.rs", "no-hot-path-alloc", 3);
}

#[test]
fn bad_hot_path_alloc_interproc_fires() {
    // The Vec::new in flush, two calls below tick, fires with the chain
    // tick -> drain -> flush named in the message.
    let findings = lint("bad_hot_path_alloc_interproc.rs");
    let hit = violations(&findings)
        .into_iter()
        .find(|f| f.rule == "no-hot-path-alloc")
        .unwrap_or_else(|| panic!("no interprocedural finding: {findings:?}"));
    assert!(
        hit.message.contains("tick -> drain -> flush"),
        "chain missing from message: {}",
        hit.message
    );
}

#[test]
fn unused_and_reasonless_allows_fire() {
    assert_fires("bad_unused_allow.rs", "unused-allow", 1);
    assert_fires("bad_unused_allow.rs", "allow-missing-reason", 1);
}

#[test]
fn allowed_fixtures_are_fully_waived() {
    for name in [
        "allowed_unordered_iteration.rs",
        "allowed_wall_clock.rs",
        "allowed_wake_contract.rs",
        "allowed_snapshot_coverage.rs",
        "allowed_narrowing.rs",
        "allowed_tracer_threading.rs",
        "allowed_ambient_state.rs",
        "allowed_hot_path_alloc.rs",
        "allowed_hot_path_alloc_interproc.rs",
    ] {
        assert_fully_waived(name);
    }
}

#[test]
fn clean_fixture_is_silent() {
    let findings = lint("clean.rs");
    assert!(findings.is_empty(), "clean fixture fired: {findings:?}");
}

#[test]
fn rule_scoping_by_crate() {
    // The same bad file is out of scope for the bench crate (every rule
    // here is sim-facing), so nothing fires.
    let findings = check_path(
        &fixture("bad_unordered_iteration.rs"),
        Path::new("."),
        Some("bench"),
    )
    .expect("fixture readable");
    assert!(
        findings.is_empty(),
        "bench is out of scope for sim rules: {findings:?}"
    );
}

#[test]
fn every_rule_has_bad_and_allowed_coverage() {
    // Keeps the corpus honest as rules are added: each registered rule
    // name must appear in at least one fixture finding above.
    let mut covered: Vec<&str> = Vec::new();
    for name in [
        "bad_unordered_iteration.rs",
        "bad_wall_clock.rs",
        "bad_wake_contract.rs",
        "bad_snapshot_coverage.rs",
        "bad_narrowing.rs",
        "bad_tracer_threading.rs",
        "bad_ambient_state.rs",
        "bad_hot_path_alloc.rs",
        "bad_hot_path_alloc_interproc.rs",
    ] {
        for f in lint(name) {
            if !covered.contains(&f.rule) {
                covered.push(f.rule);
            }
        }
    }
    assert_eq!(netcrafter_lint::RULES.len(), 8);
    for rule in netcrafter_lint::RULES {
        assert!(
            covered.contains(&rule.name),
            "rule {} has no bad fixture coverage",
            rule.name
        );
    }
}
