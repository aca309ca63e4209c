//! Call-graph construction: name-best-effort resolution of the call
//! sites collected by [`crate::index`] to workspace `fn` items.
//!
//! The resolver is deliberately conservative about *method* calls —
//! `.clone()` on an arbitrary receiver is almost never the workspace's
//! own `clone` — so common std method names are treated as external
//! leaves and everything else requires a workspace fn with a `self`
//! receiver. Bare and `Type::`-qualified calls resolve in tiers
//! (same file, then same crate, then the crates the caller's manifest
//! depends on) so a `helper()` call binds to the nearest plausible
//! definition and never to a crate the caller cannot name. Anything unresolved
//! stays a leaf: it contributes no transitive facts, but qualified
//! external names (`Vec::new`, `Box::new`) are still caught by the
//! direct token seeds in [`crate::facts`].

use crate::index::{CallSite, FnId, WorkspaceIndex};
use std::collections::BTreeMap;

/// Std/prelude method names that never resolve into the workspace:
/// resolving `.len()` or `.clone()` by name alone would wire unrelated
/// types together and poison the transitive facts.
const COMMON_METHODS: [&str; 55] = [
    "abs",
    // `add` collides across the workspace itself (Profiler::add,
    // Tree::add) besides std's ops::Add; name-only resolution would wire
    // the profiler's publish path to the RRT tree.
    "add",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "borrow",
    "borrow_mut",
    "ceil",
    "chars",
    "clamp",
    "clone",
    "cloned",
    "collect",
    "contains",
    "copied",
    "count",
    "drain",
    "enumerate",
    "eq",
    "extend",
    "fill",
    "filter",
    "floor",
    "fold",
    "get",
    "insert",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "len",
    "lock",
    "map",
    "max",
    "min",
    "next",
    "parse",
    "pop",
    "powi",
    "push",
    "push_str",
    "remove",
    "rev",
    "skip",
    "sort",
    "split",
    "sqrt",
    "starts_with",
    "sum",
    "take",
    "to_owned",
    "to_string",
    "unwrap",
    "zip",
];

/// One resolved call edge: `caller`'s call site (by index into
/// `index.calls[caller]`) resolves to workspace fn `callee`.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// The calling fn.
    pub caller: FnId,
    /// Index into `index.calls[caller]`.
    pub site: usize,
    /// The resolved workspace callee.
    pub callee: FnId,
}

/// The resolved workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// All resolved edges, ordered by (caller, site).
    pub edges: Vec<Edge>,
    /// `outgoing[f]` = indices into `edges` whose caller is `f`.
    pub outgoing: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Resolves every call site in the index. A site that matches several
    /// candidates in its best tier gets one edge per candidate (the facts
    /// layer treats any-of as may-reach, which is the sound direction for
    /// a linter).
    pub fn build(index: &WorkspaceIndex) -> CallGraph {
        let maps = Maps::build(index);
        let mut edges = Vec::new();
        for caller in 0..index.fns.len() {
            for (site_idx, site) in index.calls[caller].iter().enumerate() {
                for callee in maps.resolve(index, caller, site) {
                    edges.push(Edge {
                        caller,
                        site: site_idx,
                        callee,
                    });
                }
            }
        }
        let mut outgoing = vec![Vec::new(); index.fns.len()];
        for (i, e) in edges.iter().enumerate() {
            outgoing[e.caller].push(i);
        }
        CallGraph { edges, outgoing }
    }
}

/// Name-keyed lookup tables; `BTreeMap` keeps resolution deterministic.
struct Maps {
    /// `(impl type, fn name)` → fn ids (associated fns and methods).
    typed: BTreeMap<(String, String), Vec<FnId>>,
    /// Free fns (no impl block) by name.
    free: BTreeMap<String, Vec<FnId>>,
    /// Fns with a `self` receiver by name (method-call candidates).
    methods: BTreeMap<String, Vec<FnId>>,
}

impl Maps {
    fn build(index: &WorkspaceIndex) -> Maps {
        let mut typed: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        let mut free: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut methods: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        for (id, info) in index.fns.iter().enumerate() {
            match &info.impl_type {
                Some(t) => typed
                    .entry((t.clone(), info.name.clone()))
                    .or_default()
                    .push(id),
                None => free.entry(info.name.clone()).or_default().push(id),
            }
            if info.has_self {
                methods.entry(info.name.clone()).or_default().push(id);
            }
        }
        Maps {
            typed,
            free,
            methods,
        }
    }

    /// Candidates for one call site; empty = external leaf.
    fn resolve(&self, index: &WorkspaceIndex, caller: FnId, site: &CallSite) -> Vec<FnId> {
        match (&site.qualifier, site.is_method) {
            (Some(q), _) if q == "Self" => {
                let Some(self_ty) = index.self_type_of(caller) else {
                    return Vec::new();
                };
                self.typed
                    .get(&(self_ty.to_owned(), site.name.clone()))
                    .cloned()
                    .unwrap_or_default()
            }
            (Some(q), _) if q.starts_with(|c: char| c.is_ascii_uppercase()) => {
                // `Type::name` — exact (type, name) or external.
                self.typed
                    .get(&(q.clone(), site.name.clone()))
                    .cloned()
                    .unwrap_or_default()
            }
            (Some(_q), _) => {
                // `module::name` — a module-qualified free fn; the module
                // path is not tracked, so fall back to free fns by name
                // with locality tiers.
                tier(index, caller, self.free.get(&site.name))
            }
            (None, true) => {
                if COMMON_METHODS.contains(&site.name.as_str()) {
                    return Vec::new();
                }
                tier(index, caller, self.methods.get(&site.name))
            }
            (None, false) => tier(index, caller, self.free.get(&site.name)),
        }
    }
}

/// Picks the best locality tier from `candidates`: same file beats same
/// crate beats the rest of the workspace — restricted to the crates the
/// caller's crate depends on ([`WorkspaceIndex::can_reach`]), because a
/// call cannot land in a crate its manifest does not pull in.
fn tier(index: &WorkspaceIndex, caller: FnId, candidates: Option<&Vec<FnId>>) -> Vec<FnId> {
    let Some(cands) = candidates else {
        return Vec::new();
    };
    let caller_file = index.fns[caller].file;
    let caller_crate = &index.files[caller_file].krate;
    let same_file: Vec<FnId> = cands
        .iter()
        .copied()
        .filter(|&c| index.fns[c].file == caller_file)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<FnId> = cands
        .iter()
        .copied()
        .filter(|&c| &index.files[index.fns[c].file].krate == caller_crate)
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    cands
        .iter()
        .copied()
        .filter(|&c| index.can_reach(caller_crate, &index.files[index.fns[c].file].krate))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::FileAnalysis;

    fn graph(files: &[(&str, &str)]) -> (WorkspaceIndex, CallGraph) {
        let idx =
            WorkspaceIndex::build(files.iter().map(|(p, s)| FileAnalysis::new(p, s)).collect());
        let g = CallGraph::build(&idx);
        (idx, g)
    }

    fn edge_names(idx: &WorkspaceIndex, g: &CallGraph) -> Vec<(String, String)> {
        g.edges
            .iter()
            .map(|e| {
                (
                    idx.fns[e.caller].name.clone(),
                    idx.fns[e.callee].name.clone(),
                )
            })
            .collect()
    }

    #[test]
    fn bare_calls_prefer_same_file_then_same_crate() {
        let (idx, g) = graph(&[
            (
                "crates/geom/src/a.rs",
                "fn caller() { helper(); remote(); }\nfn helper() {}\n",
            ),
            ("crates/geom/src/b.rs", "fn helper() {}\nfn remote() {}\n"),
            ("crates/sim/src/c.rs", "fn remote() {}\n"),
        ]);
        let names = edge_names(&idx, &g);
        assert_eq!(names.len(), 2);
        // helper resolves to the same-file definition only.
        let helper_edge = g
            .edges
            .iter()
            .find(|e| idx.fns[e.callee].name == "helper")
            .unwrap();
        assert_eq!(idx.fns[helper_edge.callee].file, 0);
        // remote resolves to the same-crate definition, not sim's.
        let remote_edge = g
            .edges
            .iter()
            .find(|e| idx.fns[e.callee].name == "remote")
            .unwrap();
        assert_eq!(idx.files[idx.fns[remote_edge.callee].file].krate, "geom");
    }

    #[test]
    fn typed_and_self_calls_resolve_exactly() {
        let (idx, g) = graph(&[(
            "crates/geom/src/a.rs",
            "struct Foo;\nimpl Foo {\n  fn new() -> Foo { Foo }\n  fn go(&self) { Self::new(); Foo::other(); }\n  fn other() {}\n}\nimpl Bar {\n  fn new() -> Bar { Bar }\n}\n",
        )]);
        let names = edge_names(&idx, &g);
        assert!(names.contains(&("go".into(), "new".into())));
        assert!(names.contains(&("go".into(), "other".into())));
        // Self::new must bind to Foo::new, not Bar::new.
        let e = g
            .edges
            .iter()
            .find(|e| idx.fns[e.callee].name == "new")
            .unwrap();
        assert_eq!(idx.fns[e.callee].impl_type.as_deref(), Some("Foo"));
        assert_eq!(g.edges.len(), 2);
    }

    #[test]
    fn common_std_methods_stay_external() {
        let (_idx, g) = graph(&[(
            "crates/geom/src/a.rs",
            "struct W;\nimpl W {\n  fn clone(&self) -> W { W }\n  fn go(&self, v: &[u32]) { v.len(); self.clone(); }\n}\n",
        )]);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn workspace_tier_skips_crates_outside_the_manifest_dependencies() {
        let files = [
            (
                "crates/perception/Cargo.toml",
                "[package]\nname = \"rtr-perception\"\n[dependencies]\nrtr-geom.workspace = true\n",
            ),
            ("crates/geom/Cargo.toml", "[package]\nname = \"rtr-geom\"\n"),
            (
                "crates/planning/Cargo.toml",
                "[package]\nname = \"rtr-planning\"\n",
            ),
            (
                "crates/perception/src/a.rs",
                "fn solve(t: T, p: P) { t.apply(p); }\n",
            ),
            (
                "crates/geom/src/t.rs",
                "struct T;\nimpl T {\n  fn apply(&self, p: P) {}\n}\n",
            ),
            (
                "crates/planning/src/g.rs",
                "struct G;\nimpl G {\n  fn apply(&self, s: S) {}\n}\n",
            ),
        ];
        let (idx, g) = graph(&files);
        let callee_crates: Vec<&str> = g
            .edges
            .iter()
            .map(|e| idx.files[idx.fns[e.callee].file].krate.as_str())
            .collect();
        assert_eq!(callee_crates, ["geom"], "planning is not a dependency");
        // Without the manifests the resolver cannot rule planning out.
        let (_, g) = graph(&files[3..]);
        assert_eq!(g.edges.len(), 2);
    }

    #[test]
    fn workspace_methods_resolve_when_not_blocklisted() {
        let (idx, g) = graph(&[(
            "crates/trace/src/a.rs",
            "struct Ring;\nimpl Ring {\n  fn publish(&self) {}\n}\nstruct P { ring: Ring }\nimpl P {\n  fn go(&self) { self.ring.publish(); }\n}\n",
        )]);
        let names = edge_names(&idx, &g);
        assert_eq!(names, [("go".to_owned(), "publish".to_owned())]);
    }
}
