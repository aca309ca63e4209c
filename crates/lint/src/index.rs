//! Phase 1 of the interprocedural analysis: the workspace index.
//!
//! Every file is lexed **once** into a [`FileAnalysis`] — the scrubbed
//! text plus the full `fn`/`impl` item lists — and every rule (lexical
//! and interprocedural alike) is a filter over that shared result; no
//! rule re-lexes or re-walks items. On top of the per-file analyses the
//! [`WorkspaceIndex`] records every `fn` item in the workspace (crate,
//! name, receiver-type heuristic, body span) and every call site inside
//! each body (bare calls, method calls, `Self::`/path calls), which is
//! what the phase-2 fact propagation (`facts.rs`) and the call-graph
//! resolver (`callgraph.rs`) consume.
//!
//! The index is token-level and name-best-effort by design: it has no
//! type information, so resolution (see [`crate::callgraph`]) prefers
//! same-file and same-crate candidates and records everything it cannot
//! resolve as an external leaf. Approximation is acceptable because every
//! rule keeps the `// rtr-lint: allow` escape hatch.

use crate::lexer::{all_fns, all_impls, scrub, FnItem, ImplItem, Scrubbed, Span};
use std::collections::{BTreeMap, BTreeSet};

/// One lexed source file: the single shared product of the per-file lex.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Workspace-relative path (selects which rules apply).
    pub path: String,
    /// Crate name under `crates/`, or empty.
    pub krate: String,
    /// Scrubbed text + harvested allow annotations.
    pub scrubbed: Scrubbed,
    /// Every `fn` item with a body, in source order.
    pub fns: Vec<FnItem>,
    /// Every `impl` block, in source order.
    pub impls: Vec<ImplItem>,
}

impl FileAnalysis {
    /// Lexes `source` once; `path` must be workspace-relative.
    pub fn new(path: &str, source: &str) -> Self {
        let scrubbed = scrub(source);
        // Manifests (`Cargo.toml`) only scope cross-crate calls: they
        // have no items.
        let (fns, impls) = if path.ends_with(".rs") {
            (all_fns(&scrubbed.text), all_impls(&scrubbed.text))
        } else {
            (Vec::new(), Vec::new())
        };
        FileAnalysis {
            path: path.to_owned(),
            krate: crate::rules::crate_of(path).unwrap_or("").to_owned(),
            scrubbed,
            fns,
            impls,
        }
    }
}

/// Index of one `fn` item in [`WorkspaceIndex::fns`].
pub type FnId = usize;

/// One indexed function: where it lives and what it looks like.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Index into [`WorkspaceIndex::files`].
    pub file: usize,
    /// The function's name.
    pub name: String,
    /// Name of the implemented type when the `fn` sits inside an `impl`
    /// block (the receiver-type heuristic): `impl Foo` and
    /// `impl Trait for Foo` both yield `Foo`.
    pub impl_type: Option<String>,
    /// `true` when the first parameter is a `self` receiver.
    pub has_self: bool,
    /// Full item span in the file.
    pub span: Span,
    /// Offset of the body's opening brace.
    pub body_start: usize,
}

impl FnInfo {
    /// `Type::name` when inside an impl, bare `name` otherwise — how the
    /// function appears in call-chain evidence.
    pub fn qualified_name(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One call expression inside an indexed function's body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (`helper`, `new`, `read`, …).
    pub name: String,
    /// Path qualifier for `Q::name(..)` calls (`Vec`, `Self`, a module).
    pub qualifier: Option<String>,
    /// `true` for `.name(..)` method calls.
    pub is_method: bool,
    /// Byte offset of the called name in the file's scrubbed text.
    pub offset: usize,
}

/// The whole-workspace function/call index.
#[derive(Debug)]
pub struct WorkspaceIndex {
    /// One entry per input file, in input order.
    pub files: Vec<FileAnalysis>,
    /// Every `fn` item across all files.
    pub fns: Vec<FnInfo>,
    /// `calls[f]` lists the call sites inside `fns[f]`'s body, in source
    /// order. Nested fns own their sites (innermost-span assignment).
    pub calls: Vec<Vec<CallSite>>,
    /// For every crate whose `Cargo.toml` was indexed: the crates its code
    /// can name — itself plus the transitive closure of its manifest
    /// dependencies — as directory names under `crates/`.
    pub reach: BTreeMap<String, BTreeSet<String>>,
}

/// Keywords and prelude constructors that look like calls but are not
/// workspace function calls.
const CALL_KEYWORDS: [&str; 20] = [
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "else", "let", "mut",
    "ref", "dyn", "fn", "use", "pub", "where", "break", "continue",
];

impl WorkspaceIndex {
    /// Builds the index over pre-lexed files.
    pub fn build(files: Vec<FileAnalysis>) -> Self {
        let mut fns = Vec::new();
        for (file_idx, file) in files.iter().enumerate() {
            for item in &file.fns {
                // The innermost impl block containing the fn names the
                // receiver type; free fns match no impl.
                let impl_type = file
                    .impls
                    .iter()
                    .filter(|imp| imp.span.contains(item.span.start))
                    .min_by_key(|imp| imp.span.end - imp.span.start)
                    .and_then(|imp| impl_type_of(&imp.header));
                fns.push(FnInfo {
                    file: file_idx,
                    name: item.name.clone(),
                    impl_type,
                    has_self: item.has_self,
                    span: item.span,
                    body_start: item.body_start,
                });
            }
        }
        let mut calls: Vec<Vec<CallSite>> = vec![Vec::new(); fns.len()];
        for (id, info) in fns.iter().enumerate() {
            let file = &files[info.file];
            // A nested fn's span lies inside its parent's; sites are
            // assigned to the innermost enclosing fn, so skip any offset
            // that a *smaller* fn span (ours excluded) also contains.
            let body = &file.scrubbed.text;
            for site in extract_calls(body, info.body_start, info.span.end) {
                let owned_by_nested = fns.iter().enumerate().any(|(other, o)| {
                    other != id
                        && o.file == info.file
                        && o.span.contains(site.offset)
                        && (o.span.end - o.span.start) < (info.span.end - info.span.start)
                });
                if !owned_by_nested {
                    calls[id].push(site);
                }
            }
        }
        let reach = crate_reach(&files);
        WorkspaceIndex {
            files,
            fns,
            calls,
            reach,
        }
    }

    /// The impl type of the fn's enclosing impl block (resolves `Self::`).
    pub fn self_type_of(&self, f: FnId) -> Option<&str> {
        self.fns[f].impl_type.as_deref()
    }

    /// `true` when code in crate `from` can call into crate `to`: `to` is
    /// `from` itself or one of its (transitive) manifest dependencies.
    /// Without both manifests indexed the answer is unknown, so `true`.
    pub fn can_reach(&self, from: &str, to: &str) -> bool {
        match self.reach.get(from) {
            Some(r) => r.contains(to) || !self.reach.contains_key(to),
            None => true,
        }
    }
}

/// Package name and dependency keys of one `Cargo.toml`: `name` under
/// `[package]`, and every key of a `*dependencies` table
/// (`rtr-geom.workspace = true` and `rtr-geom = { .. }` both yield
/// `rtr-geom`).
fn parse_manifest(text: &str) -> (Option<&str>, Vec<&str>) {
    let mut table = "";
    let mut name = None;
    let mut deps = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            table = line;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        if table == "[package]" && key == "name" {
            name = Some(value.trim().trim_matches('"'));
        } else if table.ends_with("dependencies]") {
            deps.push(key.split('.').next().unwrap_or(key).trim());
        }
    }
    (name, deps)
}

/// The [`WorkspaceIndex::reach`] table, built from the indexed manifests.
fn crate_reach(files: &[FileAnalysis]) -> BTreeMap<String, BTreeSet<String>> {
    let mut dir_of: BTreeMap<&str, &str> = BTreeMap::new();
    let mut deps: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for fa in files
        .iter()
        .filter(|fa| !fa.krate.is_empty() && fa.path.ends_with("/Cargo.toml"))
    {
        let (name, keys) = parse_manifest(&fa.scrubbed.original);
        if let Some(name) = name {
            dir_of.insert(name, &fa.krate);
        }
        deps.insert(&fa.krate, keys);
    }
    deps.keys()
        .map(|&krate| {
            let mut seen = BTreeSet::from([krate.to_owned()]);
            let mut stack = vec![krate];
            while let Some(k) = stack.pop() {
                for &dir in deps[k].iter().filter_map(|d| dir_of.get(d)) {
                    if seen.insert(dir.to_owned()) && deps.contains_key(dir) {
                        stack.push(dir);
                    }
                }
            }
            (krate.to_owned(), seen)
        })
        .collect()
}

/// Extracts the implemented type name from an impl header: the last path
/// segment of the type after `for` (trait impls) or after the generics
/// (inherent impls), with generic arguments stripped.
pub fn impl_type_of(header: &str) -> Option<String> {
    // Cut an optional where-clause, then skip leading generics.
    let header = header.split(" where ").next().unwrap_or(header);
    let mut rest = header.trim_start();
    if rest.starts_with('<') {
        rest = &rest[skip_angle_brackets(rest)..];
    }
    // Trait impl: the type follows the last top-level ` for `.
    if let Some(pos) = find_top_level_for(rest) {
        rest = &rest[pos + 5..];
    }
    let rest = rest
        .trim_start()
        .trim_start_matches('&')
        .trim_start_matches("dyn ")
        .trim_start();
    // Last `::` segment of the path, cut at `<`.
    let path = rest.split('<').next().unwrap_or(rest).trim();
    let segment = path.rsplit("::").next().unwrap_or(path).trim();
    let name: String = segment
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Byte offset one past the matching `>` for a string starting with `<`.
/// `->` inside `Fn(..) -> T` bounds does not count as a closer.
fn skip_angle_brackets(s: &str) -> usize {
    let bytes = s.as_bytes();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' if i > 0 && bytes[i - 1] == b'-' => {}
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    s.len()
}

/// Offset of the last ` for ` outside angle brackets (the trait/type
/// separator; bounds like `T: Into<X> for` cannot appear there).
fn find_top_level_for(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut depth = 0i32;
    let mut found = None;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' if i > 0 && bytes[i - 1] == b'-' => {}
            b'>' => depth -= 1,
            b' ' if depth == 0 && s[i..].starts_with(" for ") => found = Some(i + 1),
            _ => {}
        }
        i += 1;
    }
    found.map(|p| p - 1)
}

fn is_ident(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// Scans `text[from..to]` (a fn body in scrubbed text) for call
/// expressions: an identifier followed by `(`, classified as bare, path
/// (`Q::name`), or method (`.name`). Macro invocations (`name!(`) and
/// nested `fn` definitions are skipped.
fn extract_calls(text: &str, from: usize, to: usize) -> Vec<CallSite> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = from;
    let to = to.min(bytes.len());
    while i < to {
        if !is_ident(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < to && is_ident(bytes[i]) {
            i += 1;
        }
        // Numbers are not call names.
        if bytes[start].is_ascii_digit() {
            continue;
        }
        let name = &text[start..i];
        // Next significant char must be `(`; `!` marks a macro.
        let mut j = i;
        while j < to && (bytes[j] == b' ' || bytes[j] == b'\n' || bytes[j] == b'\r') {
            j += 1;
        }
        if j >= to || bytes[j] != b'(' {
            continue;
        }
        if CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // Preceding context decides the call kind.
        let mut p = start;
        while p > 0 && (bytes[p - 1] == b' ' || bytes[p - 1] == b'\n' || bytes[p - 1] == b'\r') {
            p -= 1;
        }
        // `fn name(` is a definition, not a call.
        if p >= 2 && &text[p - 2..p] == "fn" && (p < 3 || !is_ident(bytes[p - 3])) {
            continue;
        }
        let (qualifier, is_method) = if p >= 2 && &text[p - 2..p] == "::" {
            let q_end = p - 2;
            let mut q_start = q_end;
            while q_start > 0 && is_ident(bytes[q_start - 1]) {
                q_start -= 1;
            }
            // `<T as Trait>::name` or similar leaves the qualifier empty.
            (Some(text[q_start..q_end].to_owned()), false)
        } else {
            (None, p >= 1 && bytes[p - 1] == b'.')
        };
        out.push(CallSite {
            name: name.to_owned(),
            qualifier,
            is_method,
            offset: start,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_one(path: &str, src: &str) -> WorkspaceIndex {
        WorkspaceIndex::build(vec![FileAnalysis::new(path, src)])
    }

    #[test]
    fn fns_get_impl_types_and_self_flags() {
        let src = "impl<T: MemTrace> Workspace<T> {\n  pub fn new() -> Self { Self { v: 0 } }\n  fn step(&mut self, x: u32) { helper(x); }\n}\nfn helper(x: u32) { }\n";
        let idx = index_one("crates/linalg/src/x.rs", src);
        assert_eq!(idx.fns.len(), 3);
        assert_eq!(idx.fns[0].impl_type.as_deref(), Some("Workspace"));
        assert!(!idx.fns[0].has_self);
        assert!(idx.fns[1].has_self);
        assert_eq!(idx.fns[2].impl_type, None);
        assert_eq!(idx.fns[1].qualified_name(), "Workspace::step");
    }

    #[test]
    fn trait_impl_header_yields_the_implemented_type() {
        assert_eq!(
            impl_type_of("<T: MemTrace + ?Sized> MemTrace for SharedTrace<'_, T>").as_deref(),
            Some("SharedTrace")
        );
        assert_eq!(impl_type_of(" IcpScratch ").as_deref(), Some("IcpScratch"));
        assert_eq!(
            impl_type_of("<F: Fn(usize) -> u64> Apply for Holder<F>").as_deref(),
            Some("Holder")
        );
        assert_eq!(
            impl_type_of(" std::fmt::Display for Finding ").as_deref(),
            Some("Finding")
        );
    }

    #[test]
    fn calls_are_classified_by_kind() {
        let src = "fn outer(v: &mut Vec<u32>) {\n  helper(1);\n  Vec::new();\n  Self::reset();\n  v.push(2);\n  self.trace.read(3);\n  vec![4];\n  mod_a::free(5);\n}\n";
        let idx = index_one("crates/geom/src/x.rs", src);
        let calls = &idx.calls[0];
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["helper", "new", "reset", "push", "read", "free"]);
        assert_eq!(calls[1].qualifier.as_deref(), Some("Vec"));
        assert_eq!(calls[2].qualifier.as_deref(), Some("Self"));
        assert!(calls[3].is_method && calls[4].is_method);
        assert_eq!(calls[5].qualifier.as_deref(), Some("mod_a"));
    }

    #[test]
    fn nested_fn_owns_its_call_sites() {
        let src =
            "fn outer() {\n  fn inner() { leaf(); }\n  top();\n}\nfn leaf() {}\nfn top() {}\n";
        let idx = index_one("crates/geom/src/x.rs", src);
        let outer = idx.fns.iter().position(|f| f.name == "outer").unwrap();
        let inner = idx.fns.iter().position(|f| f.name == "inner").unwrap();
        let outer_names: Vec<&str> = idx.calls[outer].iter().map(|c| c.name.as_str()).collect();
        let inner_names: Vec<&str> = idx.calls[inner].iter().map(|c| c.name.as_str()).collect();
        assert_eq!(outer_names, ["top"]);
        assert_eq!(inner_names, ["leaf"]);
    }

    #[test]
    fn manifests_give_each_crate_its_transitive_dependencies() {
        let idx = WorkspaceIndex::build(vec![
            FileAnalysis::new(
                "crates/geom/Cargo.toml",
                "[package]\nname = \"rtr-geom\"\n\n[dependencies]\nrtr-simd.workspace = true\nrand = { path = \"../../vendor/rand\" }\n",
            ),
            FileAnalysis::new(
                "crates/simd/Cargo.toml",
                "[package]\nname = \"rtr-simd\" # lane kernels\n",
            ),
            FileAnalysis::new(
                "crates/perception/Cargo.toml",
                "[package]\nname = \"rtr-perception\"\n[dependencies]\nrtr-geom.workspace = true\n[dev-dependencies]\nproptest.workspace = true\n",
            ),
        ]);
        assert!(idx.can_reach("perception", "perception"));
        assert!(idx.can_reach("perception", "geom"));
        assert!(idx.can_reach("perception", "simd"), "transitive via geom");
        assert!(!idx.can_reach("geom", "perception"));
        assert!(!idx.can_reach("simd", "geom"));
        // A crate without an indexed manifest: nothing is ruled out.
        assert!(idx.can_reach("planning", "perception"));
        assert!(idx.can_reach("geom", "planning"));
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let src =
            "fn f(x: bool) { if (x) { vec![1]; println!(\"{}\", 2); } match (x) { _ => {} } }\n";
        let idx = index_one("crates/geom/src/x.rs", src);
        assert!(idx.calls[0].is_empty(), "{:?}", idx.calls[0]);
    }
}
