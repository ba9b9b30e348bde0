//! The item index: a structural view of one lexed file.
//!
//! A flat token walker cannot answer questions like "does this impl
//! define `next_wake`?" or "does this helper's caller thread a Tracer?".
//! This module extracts just enough structure from the token stream —
//! `impl` blocks with per-method body ranges, free functions — for the
//! trait-contract and interprocedural rules to work on, while staying a
//! linear scan over the existing lexer's output (still no `syn`; the
//! workspace is offline).
//!
//! The extraction is deliberately forgiving: anything it cannot parse
//! (exotic generics, macro bodies) is skipped rather than guessed at,
//! so a parse gap degrades to a missed finding, never a false one.

use crate::lexer::{lex, Allow, SpannedTok, Tok};

/// A function item (free or method) with its token extents.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range `[open, close]` of the parameter list's parentheses.
    pub sig: (usize, usize),
    /// Token range `[open, close]` of the body braces; `None` for
    /// bodiless declarations (trait methods, extern).
    pub body: Option<(usize, usize)>,
}

/// An `impl` block and the methods defined directly inside it.
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// The implementing type's name (last path segment, generics
    /// stripped): `impl Snap for DelayQueue<T>` yields `DelayQueue`.
    pub self_ty: String,
    /// The trait's last path segment for trait impls, `None` for
    /// inherent impls.
    pub trait_name: Option<String>,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Methods defined at the top level of the block, including the
    /// pair a `snap_fields! { fn A + B { .. } }` invocation generates
    /// (bodiless: the body is the macro's).
    pub fns: Vec<FnDef>,
}

/// Everything the semantic rules need to know about one file.
#[derive(Debug)]
pub struct FileIndex {
    /// Path as reported in findings (repo-relative in workspace runs).
    pub path: String,
    /// Workspace crate the file belongs to (`None` activates every
    /// rule — fixtures and ad-hoc files).
    pub crate_name: Option<String>,
    /// Token stream with `#[cfg(test)] mod` bodies removed.
    pub tokens: Vec<SpannedTok>,
    /// Every `lint:allow` annotation in the file.
    pub allows: Vec<Allow>,
    /// Lines containing only whitespace/comments, sorted ascending.
    pub comment_only_lines: Vec<u32>,
    /// Impl blocks in source order.
    pub impls: Vec<ImplDef>,
    /// Free functions in source order.
    pub free_fns: Vec<FnDef>,
}

impl FileIndex {
    /// True when the allow-annotation list waives `rule` at `line`
    /// (same line, or stacked on comment-only lines directly above).
    /// Does not mark the annotation used — the driver tracks that.
    pub fn allow_covers(&self, line: u32, rule: &str) -> bool {
        let hit = |l: u32| {
            self.allows
                .iter()
                .any(|a| a.line == l && a.rule == rule && !a.reason.is_empty())
        };
        if hit(line) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 && self.comment_only_lines.binary_search(&l).is_ok() {
            if hit(l) {
                return true;
            }
            l -= 1;
        }
        false
    }
}

/// Lexes and indexes one file.
pub fn index_file(path: &str, src: &str, crate_name: Option<&str>) -> FileIndex {
    let lexed = lex(src);
    let tokens = strip_test_modules(&lexed.tokens);
    let (impls, free_fns) = extract_items(&tokens);
    FileIndex {
        path: path.to_string(),
        crate_name: crate_name.map(str::to_string),
        tokens,
        allows: lexed.allows,
        comment_only_lines: lexed.comment_only_lines,
        impls,
        free_fns,
    }
}

/// Removes the token ranges of `#[cfg(test)] mod … { … }` blocks: the
/// rules guard simulation logic, not its test harnesses (which freely
/// use unwrap, wall-clock-free defaults, etc.). Removing a balanced
/// brace region keeps the surrounding structure intact.
pub fn strip_test_modules(tokens: &[SpannedTok]) -> Vec<SpannedTok> {
    let mut drop = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // `#` `[` `cfg` `(` `test` `)` `]` is 7 tokens; then allow
            // further attributes, then expect `mod name {`.
            let mut j = i + 7;
            while j < tokens.len() && tokens[j].tok == Tok::Punct('#') {
                j = skip_attr(tokens, j);
            }
            if matches!(&tokens[j].tok, Tok::Ident(k) if k == "mod") {
                if let Some(open) = tokens[j..]
                    .iter()
                    .position(|t| t.tok == Tok::Punct('{'))
                    .map(|p| j + p)
                {
                    let close = matching_brace(tokens, open);
                    for flag in &mut drop[i..=close.min(tokens.len() - 1)] {
                        *flag = true;
                    }
                    i = close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    tokens
        .iter()
        .zip(&drop)
        .filter(|(_, &d)| !d)
        .map(|(t, _)| t.clone())
        .collect()
}

/// True if `#` at index `i` begins exactly `#[cfg(test)]`.
fn is_cfg_test_attr(tokens: &[SpannedTok], i: usize) -> bool {
    let pat: [&Tok; 7] = [
        &Tok::Punct('#'),
        &Tok::Punct('['),
        &Tok::Ident("cfg".into()),
        &Tok::Punct('('),
        &Tok::Ident("test".into()),
        &Tok::Punct(')'),
        &Tok::Punct(']'),
    ];
    tokens.len() >= i + pat.len() && pat.iter().zip(&tokens[i..]).all(|(p, t)| **p == t.tok)
}

/// Skips one `#[...]` attribute starting at the `#`; returns the index
/// just past its closing `]`.
pub(crate) fn skip_attr(tokens: &[SpannedTok], i: usize) -> usize {
    let mut j = i + 1;
    if j < tokens.len() && tokens[j].tok == Tok::Punct('[') {
        let mut depth = 0i32;
        while j < tokens.len() {
            match tokens[j].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    j
}

/// Index of the `}` matching the `{` at `open` (or the last token).
pub(crate) fn matching_brace(tokens: &[SpannedTok], open: usize) -> usize {
    matching_pair(tokens, open, '{', '}')
}

/// Index of the `)` matching the `(` at `open` (or the last token).
pub(crate) fn matching_paren(tokens: &[SpannedTok], open: usize) -> usize {
    matching_pair(tokens, open, '(', ')')
}

fn matching_pair(tokens: &[SpannedTok], open: usize, o: char, c: char) -> usize {
    let mut depth = 0i32;
    for (ix, t) in tokens.iter().enumerate().skip(open) {
        match &t.tok {
            Tok::Punct(p) if *p == o => depth += 1,
            Tok::Punct(p) if *p == c => {
                depth -= 1;
                if depth == 0 {
                    return ix;
                }
            }
            _ => {}
        }
    }
    tokens.len() - 1
}

pub(crate) fn ident_at(tokens: &[SpannedTok], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s),
        _ => None,
    }
}

pub(crate) fn punct_at(tokens: &[SpannedTok], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Skips a balanced `<…>` generic group starting at the `<` at `i`;
/// `->` arrows inside (closure/fn-trait returns) do not count as
/// closing angles. Returns the index just past the closing `>`.
fn skip_angles(tokens: &[SpannedTok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        if punct_at(tokens, j, '-') && punct_at(tokens, j + 1, '>') {
            j += 2;
            continue;
        }
        match tokens[j].tok {
            Tok::Punct('<') => depth += 1,
            Tok::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// One linear pass over the (test-stripped) token stream, collecting
/// impl blocks and free functions. Structs, enums, unions, traits,
/// `macro_rules!` bodies and item-level macro invocations are skipped
/// whole.
fn extract_items(tokens: &[SpannedTok]) -> (Vec<ImplDef>, Vec<FnDef>) {
    let mut impls = Vec::new();
    let mut free_fns = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        match ident_at(tokens, i) {
            Some("macro_rules") if punct_at(tokens, i + 1, '!') => {
                i = skip_item_block(tokens, i + 2);
            }
            // An item-level `name! { .. }` invocation: its tokens are the
            // macro's input language, not items.
            Some(_) if punct_at(tokens, i + 1, '!') && punct_at(tokens, i + 2, '{') => {
                i = matching_brace(tokens, i + 2) + 1;
            }
            Some("struct" | "enum" | "union" | "trait") => {
                i = skip_item_block(tokens, i + 1);
            }
            Some("impl") => {
                let (im, next) = parse_impl(tokens, i);
                if let Some(im) = im {
                    impls.push(im);
                }
                i = next;
            }
            Some("fn") => {
                let (f, next) = parse_fn(tokens, i, tokens.len());
                if let Some(f) = f {
                    free_fns.push(f);
                }
                i = next;
            }
            _ => i += 1,
        }
    }
    (impls, free_fns)
}

/// Advances past the current item: to just after the first balanced
/// `{…}` block, or just after a top-level `;`, whichever comes first.
fn skip_item_block(tokens: &[SpannedTok], mut j: usize) -> usize {
    while j < tokens.len() {
        if punct_at(tokens, j, '{') {
            return matching_brace(tokens, j) + 1;
        }
        if punct_at(tokens, j, ';') {
            return j + 1;
        }
        j += 1;
    }
    j
}

/// Collects the last segment of a type/trait path (skipping `&`,
/// lifetimes, `mut`, `dyn` prefixes and per-segment generics); stops
/// before `for`, `where` or anything that is not part of the path.
fn collect_path(tokens: &[SpannedTok], mut j: usize) -> (Option<String>, usize) {
    loop {
        if punct_at(tokens, j, '&') {
            j += 1;
            continue;
        }
        match tokens.get(j).map(|t| &t.tok) {
            Some(Tok::Lifetime) => j += 1,
            Some(Tok::Ident(id)) if id == "mut" || id == "dyn" => j += 1,
            _ => break,
        }
    }
    let mut last = None;
    while let Some(id) = ident_at(tokens, j) {
        if id == "for" || id == "where" {
            break;
        }
        last = Some(id.to_string());
        j += 1;
        if punct_at(tokens, j, '<') {
            j = skip_angles(tokens, j);
        }
        if punct_at(tokens, j, ':') && punct_at(tokens, j + 1, ':') {
            j += 2;
        } else {
            break;
        }
    }
    (last, j)
}

/// Parses an impl block; `i` points at the `impl` keyword.
fn parse_impl(tokens: &[SpannedTok], i: usize) -> (Option<ImplDef>, usize) {
    let line = tokens[i].line;
    let mut j = i + 1;
    if punct_at(tokens, j, '<') {
        j = skip_angles(tokens, j);
    }
    let (first, after_first) = collect_path(tokens, j);
    j = after_first;
    let (trait_name, self_ty) = if ident_at(tokens, j) == Some("for") {
        let (second, after_second) = collect_path(tokens, j + 1);
        j = after_second;
        (first, second)
    } else {
        (None, first)
    };
    let Some(self_ty) = self_ty else {
        // Unparseable (e.g. `impl !Send for …`): skip the whole block.
        return (None, skip_item_block(tokens, j));
    };
    while j < tokens.len() && !punct_at(tokens, j, '{') {
        j += 1; // where clause
    }
    if j >= tokens.len() {
        return (None, j);
    }
    let open = j;
    let close = matching_brace(tokens, open);
    let mut fns = Vec::new();
    let mut k = open + 1;
    while k < close {
        if punct_at(tokens, k, '#') {
            k = skip_attr(tokens, k);
            continue;
        }
        if ident_at(tokens, k) == Some("fn") {
            let (f, next) = parse_fn(tokens, k, close);
            if let Some(f) = f {
                fns.push(f);
            }
            k = next;
            continue;
        }
        if ident_at(tokens, k) == Some("snap_fields") && punct_at(tokens, k + 1, '!') {
            fns.extend(snap_fields_pair(tokens, k + 2));
        }
        if punct_at(tokens, k, '{') {
            // Associated-const initializer, macro body etc.: stay at
            // method depth.
            k = matching_brace(tokens, k) + 1;
            continue;
        }
        k += 1;
    }
    (
        Some(ImplDef {
            self_ty,
            trait_name,
            line,
            fns,
        }),
        close + 1,
    )
}

/// The two methods a `snap_fields! { [pub] fn A + B { .. } }` invocation
/// expands to; `open` points at the invocation's opening brace. Anything
/// else (the item-level `impl Snap for T` form) yields nothing.
fn snap_fields_pair(tokens: &[SpannedTok], open: usize) -> Vec<FnDef> {
    let mut k = open + 1;
    if ident_at(tokens, k) == Some("pub") {
        k += 1;
        if punct_at(tokens, k, '(') {
            k = matching_paren(tokens, k) + 1;
        }
    }
    if ident_at(tokens, k) != Some("fn") || !punct_at(tokens, k + 2, '+') {
        return Vec::new();
    }
    [k + 1, k + 3]
        .into_iter()
        .filter_map(|at| {
            Some(FnDef {
                name: ident_at(tokens, at)?.to_string(),
                line: tokens[at].line,
                sig: (at, at),
                body: None,
            })
        })
        .collect()
}

/// Parses one `fn`; `k` points at the keyword, `limit` bounds the scan
/// (the enclosing impl's closing brace, or the token count).
fn parse_fn(tokens: &[SpannedTok], k: usize, limit: usize) -> (Option<FnDef>, usize) {
    let Some(name) = ident_at(tokens, k + 1).map(str::to_string) else {
        return (None, k + 1);
    };
    let line = tokens[k].line;
    let mut j = k + 2;
    if punct_at(tokens, j, '<') {
        j = skip_angles(tokens, j);
    }
    if !punct_at(tokens, j, '(') {
        return (None, j);
    }
    let sig_open = j;
    let sig_close = matching_paren(tokens, j);
    j = sig_close + 1;
    while j < limit {
        if punct_at(tokens, j, '{') {
            let open = j;
            let close = matching_brace(tokens, open);
            return (
                Some(FnDef {
                    name,
                    line,
                    sig: (sig_open, sig_close),
                    body: Some((open, close)),
                }),
                close + 1,
            );
        }
        if punct_at(tokens, j, ';') {
            return (
                Some(FnDef {
                    name,
                    line,
                    sig: (sig_open, sig_close),
                    body: None,
                }),
                j + 1,
            );
        }
        j += 1;
    }
    (
        Some(FnDef {
            name,
            line,
            sig: (sig_open, sig_close),
            body: None,
        }),
        j,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(src: &str) -> FileIndex {
        index_file("t.rs", src, None)
    }

    #[test]
    fn extracts_impls_and_methods() {
        let ix = index(
            "impl Component for Switch { fn tick(&mut self) { self.a += 1; } fn save_state(&self, \
             w: &mut W) {} }\nimpl Switch { fn helper(&self) -> u32 { 0 } }\nimpl<T: Snap> Snap \
             for DelayQueue<T> { fn save(&self, w: &mut W); }",
        );
        assert_eq!(ix.impls.len(), 3);
        assert_eq!(ix.impls[0].self_ty, "Switch");
        assert_eq!(ix.impls[0].trait_name.as_deref(), Some("Component"));
        let fn_names: Vec<&str> = ix.impls[0].fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(fn_names, ["tick", "save_state"]);
        assert!(ix.impls[0].fns[0].body.is_some());
        assert_eq!(ix.impls[1].trait_name, None);
        assert_eq!(ix.impls[2].self_ty, "DelayQueue");
        assert_eq!(ix.impls[2].trait_name.as_deref(), Some("Snap"));
        assert!(ix.impls[2].fns[0].body.is_none());
    }

    #[test]
    fn free_fns_and_test_mods() {
        let ix = index(
            "fn helper(x: u32) -> u32 { x + 1 }\n#[cfg(test)]\nmod tests { fn hidden() {} \
             impl Ghost { fn g(&self) {} } }",
        );
        assert_eq!(ix.free_fns.len(), 1);
        assert_eq!(ix.free_fns[0].name, "helper");
        assert!(ix.impls.is_empty());
    }

    #[test]
    fn qualified_trait_paths_resolve_to_last_segment() {
        let ix = index("impl crate::engine::Component for mem::Dram { fn tick(&mut self) {} }");
        assert_eq!(ix.impls[0].trait_name.as_deref(), Some("Component"));
        assert_eq!(ix.impls[0].self_ty, "Dram");
    }

    #[test]
    fn structs_enums_traits_and_macros_are_skipped() {
        let ix = index(
            "enum E { A { x: u32 }, B }\ntrait T { fn save_state(&self); }\nmacro_rules! m { () \
             => { fn fake() {} }; }\nstruct S { cb: fn(u32) -> bool }\nstruct P(u32);\nfn real() {}",
        );
        assert!(ix.impls.is_empty());
        let names: Vec<&str> = ix.free_fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["real"]);
    }

    #[test]
    fn snap_fields_in_an_impl_contributes_its_method_pair() {
        let ix = index(
            "impl Component for Dram { fn tick(&mut self) {} snap_fields! { fn save_state + \
             load_state { l2: skipped(wiring), queue } } }\nimpl L1 { snap_fields! { pub fn save \
             + load_into { tags } } }\nsnap_fields! { impl Snap for Stats { reads } }",
        );
        let names =
            |im: &ImplDef| -> Vec<String> { im.fns.iter().map(|f| f.name.clone()).collect() };
        assert_eq!(names(&ix.impls[0]), ["tick", "save_state", "load_state"]);
        assert!(ix.impls[0].fns[1].body.is_none());
        assert_eq!(names(&ix.impls[1]), ["save", "load_into"]);
        // The item-level form is a macro invocation, not an impl block.
        assert_eq!(ix.impls.len(), 2);
    }
}
