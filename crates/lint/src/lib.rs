//! `netcrafter-lint`: the in-tree determinism & invariant static-
//! analysis pass.
//!
//! The simulator's evaluation rests on bit-exact determinism: the
//! scheduler-equivalence table test, the `gated_counts` baselines and the
//! Chrome-trace byte-diffs all assume two runs of one config produce
//! identical flit streams. This crate makes the determinism rules
//! machine-checked instead of tribal knowledge: a small Rust lexer (no
//! `syn`; the workspace stays offline and dependency-free) feeds an
//! item index (impls, call graph) and a rule engine with per-site
//! `// lint:allow(<rule>) reason` waivers and a machine-readable
//! findings report. Local rules see one file; semantic rules
//! (interprocedural hot-path allocation, caller-aware tracer threading)
//! see the whole workspace.
//!
//! Run it over the workspace with `cargo run -p netcrafter-lint`; see
//! DESIGN.md §"Determinism rules" for the rule catalogue and rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod index;
pub mod lexer;
pub mod report;
pub mod rules;
mod semantic;

pub use report::{render_json, render_text, summarize, Summary};
pub use rules::{Finding, Rule, RULES};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use index::{index_file, FileIndex};
use semantic::Raw;

/// One in-memory source file to analyze.
#[derive(Debug, Clone)]
pub struct SourceUnit {
    /// Path as it should appear in findings.
    pub path: String,
    /// Full source text.
    pub src: String,
    /// Workspace crate (`None` activates every rule).
    pub crate_name: Option<String>,
}

/// The workspace crate a source path belongs to: `crates/<name>/…` maps
/// to `<name>`, the root `src/` to `netcrafter`, anything else to
/// `None` (every rule applies — used for fixtures and ad-hoc files).
pub fn crate_of(path: &Path) -> Option<String> {
    let mut comps = path.components().map(|c| c.as_os_str().to_string_lossy());
    while let Some(c) = comps.next() {
        if c == "crates" {
            return comps.next().map(|n| n.to_string());
        }
        if c == "src" {
            return Some("netcrafter".to_string());
        }
    }
    None
}

/// Collects the `.rs` files the workspace pass scans, sorted for
/// deterministic reports: every `crates/<c>/src/**/*.rs` (the linter's
/// own crate excluded — its sources quote rule patterns and its test
/// fixtures are violations on purpose) plus the root `src/`.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "lint"))
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), &mut files)?;
    }
    collect_rs(&root.join("src"), &mut files)?;
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyzes a set of in-memory sources together (they share the item
/// index, so cross-file rules see all of them). Findings come back
/// ordered by (file, line, rule).
pub fn analyze_units(units: &[SourceUnit]) -> Vec<Finding> {
    let files: Vec<FileIndex> = units
        .iter()
        .map(|u| index_file(&u.path, &u.src, u.crate_name.as_deref()))
        .collect();
    finish(files)
}

/// Reads, indexes (in parallel with `jobs` threads) and analyzes the
/// whole workspace under `root`.
pub fn analyze_workspace(root: &Path, jobs: usize) -> std::io::Result<Vec<Finding>> {
    let paths = workspace_files(root)?;
    let files = index_paths(root, &paths, jobs)?;
    Ok(finish(files))
}

/// Reads and lexes/indexes `paths` with up to `jobs` worker threads.
/// Results come back in path order regardless of completion order, so
/// reports stay deterministic.
fn index_paths(root: &Path, paths: &[PathBuf], jobs: usize) -> std::io::Result<Vec<FileIndex>> {
    let n = paths.len();
    let workers = jobs.max(1).min(n.max(1));
    let slots: Vec<Mutex<Option<std::io::Result<FileIndex>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let index_one = |path: &Path| -> std::io::Result<FileIndex> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        let rel = path.strip_prefix(root).unwrap_or(path);
        let crate_name = crate_of(rel);
        Ok(index_file(
            &rel.to_string_lossy(),
            &src,
            crate_name.as_deref(),
        ))
    };
    if workers <= 1 {
        return paths.iter().map(|p| index_one(p)).collect();
    }
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let res = index_one(&paths[i]);
                *slots[i].lock().expect("indexing worker never panics") = Some(res);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("indexing worker never panics")
                .expect("every slot filled")
        })
        .collect()
}

/// Runs local rules per file, semantic rules over the whole index,
/// then resolves allow-annotations and appends the meta-findings.
fn finish(files: Vec<FileIndex>) -> Vec<Finding> {
    let mut raw: Vec<Raw> = Vec::new();
    for (fx, fi) in files.iter().enumerate() {
        for rule in RULES {
            let Some(check) = rule.check else {
                continue;
            };
            if !rules::rule_applies(rule, fi.crate_name.as_deref()) {
                continue;
            }
            let mut hits = Vec::new();
            check(fi, &mut hits);
            for (line, message) in hits {
                raw.push(Raw {
                    file: fx,
                    line,
                    rule: rule.name,
                    message,
                });
            }
        }
    }
    semantic::interproc_hot_path_alloc(&files, &mut raw);
    semantic::tracer_threading(&files, &mut raw);

    // Group raw findings per file, resolve allows, emit meta-findings.
    let mut per_file: Vec<Vec<(u32, &'static str, String)>> = vec![Vec::new(); files.len()];
    for r in raw {
        per_file[r.file].push((r.line, r.rule, r.message));
    }
    let mut findings = Vec::new();
    for (fx, mut file_raw) in per_file.into_iter().enumerate() {
        let fi = &files[fx];
        file_raw.sort_by(|a, b| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2)));
        file_raw.dedup();
        let mut used_allows = vec![false; fi.allows.len()];
        let mut file_findings: Vec<Finding> = Vec::new();
        for (line, rule, message) in file_raw {
            let allowed = match_allow(fi, line, rule, &mut used_allows);
            file_findings.push(Finding {
                rule,
                file: fi.path.clone(),
                line,
                message,
                allowed,
            });
        }
        // Meta-findings: annotations must be justified and must be
        // load-bearing. Neither can itself be allow-annotated away.
        for (ix, allow) in fi.allows.iter().enumerate() {
            if allow.reason.is_empty() {
                file_findings.push(Finding {
                    rule: "allow-missing-reason",
                    file: fi.path.clone(),
                    line: allow.line,
                    message: format!(
                        "lint:allow({}) has no justification; write \
                         `// lint:allow({}) <why this site is safe>`",
                        allow.rule, allow.rule
                    ),
                    allowed: None,
                });
            } else if !used_allows[ix] {
                file_findings.push(Finding {
                    rule: "unused-allow",
                    file: fi.path.clone(),
                    line: allow.line,
                    message: format!(
                        "lint:allow({}) suppresses nothing on this or the \
                         next code line; remove the stale annotation",
                        allow.rule
                    ),
                    allowed: None,
                });
            }
        }
        file_findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
        findings.extend(file_findings);
    }
    findings
}

/// Resolves the allow-annotation for a finding of `rule` at `line`, if
/// any: an annotation counts when it sits on the finding's own line or
/// on a comment line directly above it (further comment-only lines may
/// stack in between). Annotations without a reason never match — they
/// are reported separately.
fn match_allow(fi: &FileIndex, line: u32, rule: &str, used: &mut [bool]) -> Option<String> {
    let candidate = |l: u32, used: &mut [bool]| -> Option<String> {
        for (ix, a) in fi.allows.iter().enumerate() {
            if a.line == l && a.rule == rule && !a.reason.is_empty() {
                used[ix] = true;
                return Some(a.reason.clone());
            }
        }
        None
    };
    if let Some(reason) = candidate(line, used) {
        return Some(reason);
    }
    let mut l = line.saturating_sub(1);
    while l >= 1 && fi.comment_only_lines.binary_search(&l).is_ok() {
        if let Some(reason) = candidate(l, used) {
            return Some(reason);
        }
        l -= 1;
    }
    None
}

/// Runs every applicable rule over one file's source text (the file is
/// analyzed alone, so the call graph sees only it).
pub fn check_file(path: &str, src: &str, crate_name: Option<&str>) -> Vec<Finding> {
    analyze_units(&[SourceUnit {
        path: path.to_string(),
        src: src.to_string(),
        crate_name: crate_name.map(str::to_string),
    }])
}

/// Lints one file from disk. `as_crate` overrides crate detection
/// (fixtures use this to activate every rule); `root` makes reported
/// paths repo-relative when possible.
pub fn check_path(
    path: &Path,
    root: &Path,
    as_crate: Option<&str>,
) -> std::io::Result<Vec<Finding>> {
    let src = std::fs::read_to_string(path)?;
    let rel = path.strip_prefix(root).unwrap_or(path);
    let crate_name = match as_crate {
        Some(name) => Some(name.to_string()),
        None => crate_of(rel),
    };
    Ok(check_file(
        &rel.to_string_lossy(),
        &src,
        crate_name.as_deref(),
    ))
}

/// Lints the whole workspace under `root` (single-threaded; the CLI
/// exposes `--jobs` via [`analyze_workspace`]).
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    analyze_workspace(root, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_detection() {
        assert_eq!(
            crate_of(Path::new("crates/net/src/seg.rs")).as_deref(),
            Some("net")
        );
        assert_eq!(
            crate_of(Path::new("src/lib.rs")).as_deref(),
            Some("netcrafter")
        );
        assert_eq!(crate_of(Path::new("ci.sh")), None);
    }

    #[test]
    fn parallel_indexing_matches_serial() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let serial = analyze_workspace(root, 1).expect("serial run");
        let parallel = analyze_workspace(root, 4).expect("parallel run");
        assert_eq!(serial, parallel);
    }
}
