//! Phase 2 of the interprocedural analysis: the transitive `allocates`
//! fact over the call graph.
//!
//! The fact is seeded per workspace fn by token patterns in the fn's own
//! body (the needles the lexical `hot-alloc` scan uses) and propagated
//! caller-ward over resolved call edges to a fixpoint: a fn holds it iff
//! its body matches a seed or any resolved callee holds it. Every derived
//! fact keeps a *witness* (the seeding token, or the call site + callee
//! it came through), so a finding can print the full offending chain
//! (`a_into -> helper -> Vec::new`). Witnesses form a DAG by
//! construction — a `Via` witness always points at a fn whose fact was
//! established strictly earlier — so chain reconstruction terminates.

use crate::callgraph::CallGraph;
use crate::index::{FnId, WorkspaceIndex};

/// Why a fn holds a fact.
#[derive(Debug, Clone)]
pub enum Origin {
    /// The fn's own body contains the needle at `offset`.
    Direct {
        /// Absolute byte offset of the needle in the file's text.
        offset: usize,
        /// The matched token pattern.
        needle: &'static str,
    },
    /// Inherited from `callee` through the call at `site_offset`.
    Via {
        /// Absolute byte offset of the inheriting call site.
        site_offset: usize,
        /// The callee the fact came through.
        callee: FnId,
    },
}

/// One fact lattice: `Some(origin)` iff the fn holds the fact.
pub type Fact = Vec<Option<Origin>>;

/// A structural barrier: fns matching one of these never *hold* the
/// fact — their body tokens are not seeded and the fixpoint never
/// assigns them an inherited origin, so nothing propagates through them
/// to callers. Barriers express "this fn's needle hits are machinery,
/// not steady-state work": the thread-pool fan-out that clones a range
/// and collects join handles once per parallel region. A barrier masks
/// the whole fn, including any genuinely-hot callees below it, so keep
/// the list short and the match as specific as possible.
pub struct Barrier {
    /// Workspace crate the fn must live in (`crate_of` name).
    pub krate: &'static str,
    /// Required `impl` type, or `None` to match free fns and any impl.
    pub impl_type: Option<&'static str>,
    /// Required fn name, or `None` to match every fn of the impl.
    pub name: Option<&'static str>,
}

impl Barrier {
    /// Does this barrier cover `info` (a fn in crate `krate`)?
    fn matches(&self, krate: &str, impl_type: Option<&str>, name: &str) -> bool {
        self.krate == krate
            && self.impl_type.is_none_or(|t| impl_type == Some(t))
            && self.name.is_none_or(|n| name == n)
    }
}

/// Seeds one fact from body tokens, then iterates the edge list to a
/// fixpoint. Facts only ever flip `None` → `Some` and the edge order is
/// fixed, so the result (including witnesses) is deterministic. Fns
/// covered by a [`Barrier`] are held at `None` throughout: not seeded,
/// never assigned by the fixpoint, hence opaque to their callers. The
/// needles and barriers are parameters so the rule layer owns the single
/// source of truth for token patterns.
pub fn propagate(
    index: &WorkspaceIndex,
    graph: &CallGraph,
    needles: &[&'static str],
    barriers: &[Barrier],
) -> Fact {
    let barred: Vec<bool> = index
        .fns
        .iter()
        .map(|info| {
            let krate = index.files[info.file].krate.as_str();
            barriers
                .iter()
                .any(|b| b.matches(krate, info.impl_type.as_deref(), &info.name))
        })
        .collect();
    let mut fact: Fact = vec![None; index.fns.len()];
    for (id, info) in index.fns.iter().enumerate() {
        if barred[id] {
            continue;
        }
        let body = &index.files[info.file].scrubbed.text[info.body_start..info.span.end];
        let mut best: Option<(usize, &'static str)> = None;
        for needle in needles {
            if let Some(pos) = body.find(needle) {
                let abs = info.body_start + pos;
                if best.is_none_or(|(b, _)| abs < b) {
                    best = Some((abs, needle));
                }
            }
        }
        if let Some((offset, needle)) = best {
            fact[id] = Some(Origin::Direct { offset, needle });
        }
    }
    loop {
        let mut changed = false;
        for edge in &graph.edges {
            if !barred[edge.caller] && fact[edge.caller].is_none() && fact[edge.callee].is_some() {
                let site = &index.calls[edge.caller][edge.site];
                fact[edge.caller] = Some(Origin::Via {
                    site_offset: site.offset,
                    callee: edge.callee,
                });
                changed = true;
            }
        }
        if !changed {
            return fact;
        }
    }
}

/// Renders a needle for chain evidence: `"Vec::new("` → `Vec::new`,
/// `".clone()"` → `clone()`.
pub fn pretty_needle(needle: &str) -> String {
    let s = needle.trim_start_matches('.');
    let s = s.strip_suffix("::<").unwrap_or(s);
    let s = if s.ends_with('(') && !s.ends_with("()") {
        &s[..s.len() - 1]
    } else {
        s
    };
    s.trim_end_matches('!').to_owned()
}

/// The offending call chain from `start` down to the seeding token:
/// qualified fn names, ending with the pretty-printed needle. `start`
/// must hold the fact.
pub fn chain(index: &WorkspaceIndex, fact: &Fact, start: FnId) -> Vec<String> {
    let mut out = vec![index.fns[start].qualified_name()];
    let mut cur = start;
    // Witnesses are acyclic, but cap the walk defensively.
    for _ in 0..64 {
        match &fact[cur] {
            Some(Origin::Direct { needle, .. }) => {
                out.push(pretty_needle(needle));
                return out;
            }
            Some(Origin::Via { callee, .. }) => {
                out.push(index.fns[*callee].qualified_name());
                cur = *callee;
            }
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::FileAnalysis;

    const ALLOC: [&str; 3] = ["Vec::new(", "vec!", ".clone()"];

    fn fact_with_barriers(src: &str, barriers: &[Barrier]) -> (WorkspaceIndex, Fact) {
        let idx = WorkspaceIndex::build(vec![FileAnalysis::new("crates/geom/src/x.rs", src)]);
        let graph = CallGraph::build(&idx);
        let allocates = propagate(&idx, &graph, &ALLOC, barriers);
        (idx, allocates)
    }

    fn fact_for(src: &str) -> (WorkspaceIndex, Fact) {
        fact_with_barriers(src, &[])
    }
    use crate::callgraph::CallGraph;

    #[test]
    fn two_hop_chain_is_reconstructed() {
        let src = "fn entry() { middle(); }\nfn middle() { leaf(); }\nfn leaf() -> Vec<u32> { Vec::new() }\n";
        let (idx, allocates) = fact_for(src);
        let entry = idx.fns.iter().position(|f| f.name == "entry").unwrap();
        assert!(allocates[entry].is_some());
        assert_eq!(
            chain(&idx, &allocates, entry),
            ["entry", "middle", "leaf", "Vec::new"]
        );
    }

    #[test]
    fn facts_do_not_leak_without_edges() {
        let src = "fn clean(x: u32) -> u32 { x + 1 }\nfn dirty() { vec![1]; }\n";
        let (idx, allocates) = fact_for(src);
        let clean = idx.fns.iter().position(|f| f.name == "clean").unwrap();
        let dirty = idx.fns.iter().position(|f| f.name == "dirty").unwrap();
        assert!(allocates[clean].is_none());
        assert!(allocates[dirty].is_some());
    }

    #[test]
    fn recursive_fns_terminate() {
        let src = "fn a() { b(); }\nfn b() { a(); vec![1]; }\n";
        let (idx, allocates) = fact_for(src);
        let a = idx.fns.iter().position(|f| f.name == "a").unwrap();
        assert_eq!(chain(&idx, &allocates, a), ["a", "b", "vec"]);
    }

    #[test]
    fn barred_fns_never_hold_or_propagate_the_fact() {
        let src = "impl Pool {\n  fn fan_out(&self) { self.spawn_all(); }\n}\nimpl Pool {\n  fn spawn_all(&self) { let h = self.handles.clone(); }\n}\n";
        let (idx, plain) = fact_with_barriers(src, &[]);
        let fan_out = idx.fns.iter().position(|f| f.name == "fan_out").unwrap();
        let spawn_all = idx.fns.iter().position(|f| f.name == "spawn_all").unwrap();
        assert!(plain[fan_out].is_some());
        assert!(plain[spawn_all].is_some());

        let barrier = [Barrier {
            krate: "geom",
            impl_type: Some("Pool"),
            name: Some("spawn_all"),
        }];
        let (idx, barred) = fact_with_barriers(src, &barrier);
        let fan_out = idx.fns.iter().position(|f| f.name == "fan_out").unwrap();
        let spawn_all = idx.fns.iter().position(|f| f.name == "spawn_all").unwrap();
        assert!(barred[spawn_all].is_none(), "seeding masked");
        assert!(barred[fan_out].is_none(), "nothing to inherit");
    }

    #[test]
    fn barriers_match_crate_impl_and_name_exactly() {
        let b = Barrier {
            krate: "harness",
            impl_type: Some("Pool"),
            name: Some("par_chunks_mut"),
        };
        assert!(b.matches("harness", Some("Pool"), "par_chunks_mut"));
        assert!(!b.matches("geom", Some("Pool"), "par_chunks_mut"));
        assert!(!b.matches("harness", None, "par_chunks_mut"));
        assert!(!b.matches("harness", Some("Pool"), "par_map"));
        let whole_impl = Barrier {
            krate: "harness",
            impl_type: Some("Pool"),
            name: None,
        };
        assert!(whole_impl.matches("harness", Some("Pool"), "par_map"));
        assert!(!whole_impl.matches("harness", Some("Roi"), "enter"));
    }

    #[test]
    fn needles_render_cleanly() {
        assert_eq!(pretty_needle("Vec::new("), "Vec::new");
        assert_eq!(pretty_needle(".clone()"), "clone()");
        assert_eq!(pretty_needle(".collect::<"), "collect");
        assert_eq!(pretty_needle("vec!"), "vec");
    }
}
