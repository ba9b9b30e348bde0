//! The semantic (interprocedural) rules: transitive hot-path allocation
//! and caller-aware tracer threading.
//!
//! Unlike the local rules in [`crate::rules`], these need a whole crate
//! in view: an allocation can hide an arbitrary number of calls below
//! `tick`, and whether a helper may drop the Tracer depends on its
//! callers. They run once per analysis over the full [`FileIndex`]
//! slice and report findings anchored in whichever file the fix belongs
//! in.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::{alloc_sites, build_crate_graph, can_reach_alloc};
use crate::index::{ident_at, FileIndex};
use crate::rules::{rule_applies, rule_by_name, TRACED_ENTRY_POINTS};

/// An unresolved finding: like [`crate::Finding`] but file-indexed and
/// not yet matched against allow-annotations.
#[derive(Debug)]
pub(crate) struct Raw {
    /// Index into the analysis' `FileIndex` slice.
    pub file: usize,
    /// 1-based line.
    pub line: u32,
    /// Rule name.
    pub rule: &'static str,
    /// Finding text.
    pub message: String,
}

/// Interprocedural half of `no-hot-path-alloc`: walk the same-crate
/// call graph from every `tick`/`tick_burst` and report allocation
/// sites in reached helpers. An allow-annotation at a call site cuts
/// the walk there (the waived call is still reported, as waived, so
/// the annotation registers as used); helpers named `tick`/`tick_burst`
/// are themselves roots and already covered by the local rule.
pub(crate) fn interproc_hot_path_alloc(files: &[FileIndex], out: &mut Vec<Raw>) {
    let rule = rule_by_name("no-hot-path-alloc").expect("registered");
    for (_, file_ixs) in crate_groups(files) {
        if !rule_applies(rule, files[file_ixs[0]].crate_name.as_deref()) {
            continue;
        }
        let g = build_crate_graph(files, &file_ixs);
        let reach = can_reach_alloc(files, &g);
        let is_root = |n: usize| matches!(g.def(files, n).name.as_str(), "tick" | "tick_burst");

        let mut visited = vec![false; g.nodes.len()];
        let mut parent: Vec<Option<(usize, u32)>> = vec![None; g.nodes.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for (n, slot) in visited.iter_mut().enumerate() {
            if is_root(n) && g.def(files, n).body.is_some() {
                *slot = true;
                queue.push_back(n);
            }
        }
        let mut waived_calls: BTreeSet<(usize, u32, String)> = BTreeSet::new();
        while let Some(u) = queue.pop_front() {
            let caller_file = g.nodes[u].file;
            for e in &g.edges[u] {
                if !reach[e.to] {
                    continue;
                }
                if files[caller_file].allow_covers(e.line, rule.name) {
                    waived_calls.insert((caller_file, e.line, g.def(files, e.to).name.clone()));
                    continue;
                }
                if !visited[e.to] {
                    visited[e.to] = true;
                    parent[e.to] = Some((u, e.line));
                    queue.push_back(e.to);
                }
            }
        }

        let chain = |n: usize| -> String {
            let mut names = vec![g.def(files, n).name.clone()];
            let mut cur = n;
            while let Some((p, _)) = parent[cur] {
                names.push(g.def(files, p).name.clone());
                cur = p;
            }
            names.reverse();
            names.join(" -> ")
        };

        let mut reported: BTreeSet<(usize, u32)> = BTreeSet::new();
        for (n, &seen) in visited.iter().enumerate() {
            if !seen || is_root(n) {
                continue;
            }
            let def = g.def(files, n);
            let Some(body) = def.body else {
                continue;
            };
            let file = g.nodes[n].file;
            for (line, what) in alloc_sites(&files[file].tokens, body) {
                if reported.insert((file, line)) {
                    out.push(Raw {
                        file,
                        line,
                        rule: rule.name,
                        message: format!(
                            "{what} in `{}` allocates on the dispatch hot path: \
                             reachable from the tick loop via {} — preallocate or \
                             reuse a scratch buffer, or waive no-hot-path-alloc at \
                             the call site to accept the cost",
                            def.name,
                            chain(n),
                        ),
                    });
                }
            }
        }
        for (file, line, callee) in waived_calls {
            out.push(Raw {
                file,
                line,
                rule: rule.name,
                message: format!(
                    "call into `{callee}` can reach a heap allocation from the \
                     tick hot path (accepted at this call site)"
                ),
            });
        }
    }
}

/// Caller-aware `tracer-threading`: a traced entry point whose
/// signature drops the Tracer is exempt when it has at least one
/// same-crate caller and every such caller threads a `Tracer`/`Ctx` —
/// the decision is then reported one level up, where the tracer lives.
pub(crate) fn tracer_threading(files: &[FileIndex], out: &mut Vec<Raw>) {
    let rule = rule_by_name("tracer-threading").expect("registered");
    for (_, file_ixs) in crate_groups(files) {
        if !rule_applies(rule, files[file_ixs[0]].crate_name.as_deref()) {
            continue;
        }
        let g = build_crate_graph(files, &file_ixs);
        let sig_has_tracer = |n: usize| {
            let def = g.def(files, n);
            let toks = &files[g.nodes[n].file].tokens;
            (def.sig.0..=def.sig.1).any(|ix| matches!(ident_at(toks, ix), Some("Tracer" | "Ctx")))
        };
        // Reverse edges once to find callers.
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); g.nodes.len()];
        for (u, es) in g.edges.iter().enumerate() {
            for e in es {
                callers[e.to].push(u);
            }
        }
        for (n, direct_callers) in callers.iter().enumerate() {
            let def = g.def(files, n);
            if !TRACED_ENTRY_POINTS.contains(&def.name.as_str()) || sig_has_tracer(n) {
                continue;
            }
            let exempt =
                !direct_callers.is_empty() && direct_callers.iter().all(|&u| sig_has_tracer(u));
            if exempt {
                continue;
            }
            out.push(Raw {
                file: g.nodes[n].file,
                line: def.line,
                rule: rule.name,
                message: format!(
                    "`fn {}` is a traced event-emission entry point but its \
                     signature drops the Tracer: decisions made here become \
                     invisible in traces — take `&mut Tracer` (or a `Ctx`, which \
                     carries one); a helper is exempt only when every same-crate \
                     caller threads a Tracer",
                    def.name
                ),
            });
        }
    }
}

/// Groups file indices by crate, in first-appearance order.
fn crate_groups(files: &[FileIndex]) -> Vec<(Option<String>, Vec<usize>)> {
    let mut order: Vec<Option<String>> = Vec::new();
    let mut groups: BTreeMap<Option<String>, Vec<usize>> = BTreeMap::new();
    for (fx, fi) in files.iter().enumerate() {
        let key = fi.crate_name.clone();
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(fx);
    }
    order
        .into_iter()
        .map(|k| {
            let v = groups[&k].clone();
            (k, v)
        })
        .collect()
}
