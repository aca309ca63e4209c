//! The rule engine: `hot-alloc`, the one contract the compiler cannot
//! check because it needs rtr-lint's call graph, plus the
//! `allow-syntax` meta rule.
//!
//! `hot-alloc`: the steady state of `*_into` / `process_batch` / `flush`
//! / batch-producer (`push`/`try_push`/`swap`/`try_swap`/`publish`) /
//! `*Scratch` / `step` on `*Instance`/`*State` fns is heap-free, across
//! the whole workspace. One predicate, `is_alloc_hot_entry`, picks the
//! hot entry points from the index; each one's body is scanned for the
//! allocation needles, and the rule also fires *transitively* (a hot
//! entry point whose resolved callees allocate is a finding even when
//! its own body is clean, with the offending call chain attached, see
//! [`crate::facts`]). The entry point for a whole workspace is
//! [`lint_workspace`]; [`lint_source`] lints one file by wrapping it in
//! a single-file workspace.

use crate::callgraph::CallGraph;
use crate::facts::{chain, propagate, Barrier, Fact};
use crate::index::{FileAnalysis, FnId, WorkspaceIndex};
use crate::lexer::{line_of, token_positions};
use crate::report::Finding;

/// Lane-kernel entry points in `crates/simd` whose bodies `hot-alloc`
/// scans like any `*_into` span: the SoA fast paths sit inside kernel
/// inner loops and must be allocation-free. Private helpers they call
/// are reached by the transitive pass.
pub const SIMD_HOT_FNS: [&str; 8] = [
    "sum",
    "sum_sq",
    "dot",
    "axpy",
    "axpy4",
    "div_assign",
    "squared_distances",
    "squared_distances_dyn",
];

/// Batch-producer fns in `crates/trace` whose bodies `hot-alloc` scans
/// like any `*_into` span: the per-record pushes, the buffer swaps and
/// the metric publish run on the kernel's hot thread, and the
/// transport's whole point is that this path never touches the
/// allocator.
pub const PRODUCER_HOT_FNS: [&str; 5] = ["push", "try_push", "swap", "try_swap", "publish"];

/// All rule identifiers, as used in `allow(<rule>)` annotations.
pub const RULES: [&str; 1] = ["hot-alloc"];

/// Heap-allocating expressions forbidden inside hot spans; these also
/// seed the transitive `allocates` fact.
pub const ALLOC_NEEDLES: [&str; 7] = [
    "Vec::new",
    "vec!",
    ".to_vec()",
    ".collect()",
    ".collect::",
    "Box::new",
    ".clone()",
];

/// Structural barriers for the transitive `allocates` fact.
/// `Pool::par_chunks_mut` is fan-out machinery: its needle hits (the
/// chunk-range `.clone()` and the join-handle `.collect()`) run once per
/// parallel region, not per item, and the per-item work it executes is
/// the caller's own closure — which the caller's span is scanned for
/// directly. Without the barrier every `par_map_into` caller would
/// inherit a phantom "allocates" fact from the scaffolding.
pub const ALLOC_BARRIERS: [Barrier; 1] = [Barrier {
    krate: "harness",
    impl_type: Some("Pool"),
    name: Some("par_chunks_mut"),
}];

/// Extracts the crate name from a workspace-relative path like
/// `crates/planning/src/rrtstar.rs`.
pub fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// Lints one file. `path` must be workspace-relative (it selects which
/// rules apply); `source` is the file text. A convenience wrapper over
/// [`lint_workspace`] with a single-file workspace — transitive rules
/// still run, over the file's internal call graph.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    lint_workspace(&[(path.to_owned(), source.to_owned())])
}

/// Lints a whole workspace: each file is lexed exactly once into a
/// [`FileAnalysis`], the index, call graph and transitive `allocates`
/// fact are built over them, and `hot-alloc` runs over the hot entry
/// points. Allow suppression is applied per file at the end.
pub fn lint_workspace(files: &[(String, String)]) -> Vec<Finding> {
    let analyses: Vec<FileAnalysis> = files.iter().map(|(p, s)| FileAnalysis::new(p, s)).collect();
    let index = WorkspaceIndex::build(analyses);
    let graph = CallGraph::build(&index);
    let allocates = propagate(&index, &graph, &ALLOC_NEEDLES, &ALLOC_BARRIERS);
    let mut raw: Vec<Finding> = Vec::new();
    rule_hot_alloc(&index, &graph, &allocates, &mut raw);

    // Dedup overlapping-span double reports (a nested fn inside a hot
    // entry that is itself hot).
    raw.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    raw.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.rule == b.rule && a.message == b.message
    });

    let mut out = Vec::new();
    for fa in &index.files {
        let file_findings: Vec<Finding> =
            raw.iter().filter(|f| f.file == fa.path).cloned().collect();
        out.extend(apply_allows(fa, file_findings));
    }
    out
}

/// Marks findings covered by an allow annotation and emits
/// `allow-syntax` findings for annotations that name an unknown rule or
/// omit the `-- <reason>`. An annotation covers its own line and the
/// next *item* line below it — attribute lines (`#[...]`/`#![...]`) are
/// skipped, so an allow above a `#[inline]`-decorated fn still attaches
/// to the fn itself.
fn apply_allows(fa: &FileAnalysis, mut findings: Vec<Finding>) -> Vec<Finding> {
    let lines: Vec<&str> = fa.scrubbed.original.lines().collect();
    for allow in &fa.scrubbed.allows {
        if allow.reason.is_empty() {
            findings.push(Finding {
                rule: "allow-syntax".to_owned(),
                file: fa.path.clone(),
                line: allow.line,
                message: format!(
                    "allow({}) annotation is missing its `-- <reason>` justification",
                    allow.rule
                ),
                allowed: None,
                chain: Vec::new(),
            });
            continue;
        }
        if !RULES.contains(&allow.rule.as_str()) {
            findings.push(Finding {
                rule: "allow-syntax".to_owned(),
                file: fa.path.clone(),
                line: allow.line,
                message: format!("allow({}) names an unknown rule", allow.rule),
                allowed: None,
                chain: Vec::new(),
            });
            continue;
        }
        // The covered line below the annotation: skip attributes.
        let mut below = allow.line + 1;
        while lines
            .get(below - 1)
            .is_some_and(|l| l.trim_start().starts_with("#["))
        {
            below += 1;
        }
        for finding in &mut findings {
            if finding.rule == allow.rule && (finding.line == allow.line || finding.line == below) {
                finding.allowed = Some(allow.reason.clone());
            }
        }
    }
    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    findings
}

/// Scratch-impl constructor names exempt from `hot-alloc`.
fn is_ctor(name: &str) -> bool {
    name == "new" || name == "default" || name.starts_with("with_")
}

/// Plain substring occurrences (for dotted/macro needles that carry their
/// own boundary characters).
fn find_all(text: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(needle) {
        out.push(from + pos);
        from += pos + needle.len();
    }
    out
}

/// True when `f` is a `hot-alloc` entry point — the one place that
/// decides what is hot: a `*_into`, `process_batch` or `flush` fn, a
/// batch-producer fn in `crates/trace` ([`PRODUCER_HOT_FNS`]: the
/// telemetry push and publish path runs on the kernel's hot thread), a
/// lane kernel in `crates/simd` ([`SIMD_HOT_FNS`]), any fn of a
/// `*Scratch` impl but its constructors (`new`, `default`, `with_*`:
/// warmup may allocate, steady state may not), or `step` on a
/// `*Instance`/`*State` impl (the stepped lifecycle's per-tick path;
/// `instantiate` and `finish` may allocate).
fn is_alloc_hot_entry(index: &WorkspaceIndex, f: FnId) -> bool {
    let info = &index.fns[f];
    let fa = &index.files[info.file];
    let n = info.name.as_str();
    let name_hot = n.ends_with("_into")
        || n == "process_batch"
        || n == "flush"
        || (fa.krate == "trace" && PRODUCER_HOT_FNS.contains(&n))
        || (fa.krate == "simd" && SIMD_HOT_FNS.contains(&n));
    let scratch_hot = info
        .impl_type
        .as_deref()
        .is_some_and(|t| t.ends_with("Scratch"))
        && !is_ctor(n);
    let step_hot = n == "step"
        && info
            .impl_type
            .as_deref()
            .is_some_and(|t| t.ends_with("Instance") || t.ends_with("State"));
    name_hot || scratch_hot || step_hot
}

/// R3 — `hot-alloc`: every needle hit in a hot entry point's body
/// ([`is_alloc_hot_entry`]), and every call from one into a callee that
/// holds the `allocates` fact, with the full chain down to the seeding
/// token attached. Edges into fns that are themselves hot entries are
/// skipped — those fns get their own findings, and fixing the callee
/// fixes every caller.
fn rule_hot_alloc(
    index: &WorkspaceIndex,
    graph: &CallGraph,
    allocates: &Fact,
    out: &mut Vec<Finding>,
) {
    for f in (0..index.fns.len()).filter(|&f| is_alloc_hot_entry(index, f)) {
        let info = &index.fns[f];
        let fa = &index.files[info.file];
        let text = &fa.scrubbed.text;
        let finding = |offset: usize, message: String, chain: Vec<String>| Finding {
            rule: "hot-alloc".to_owned(),
            file: fa.path.clone(),
            line: line_of(text, offset),
            message,
            allowed: None,
            chain,
        };
        let body = &text[info.body_start..info.span.end];
        for needle in ALLOC_NEEDLES {
            let hits = if needle.starts_with('.') || needle.ends_with('!') {
                find_all(body, needle)
            } else {
                token_positions(body, needle)
            };
            for rel in hits {
                let message = format!(
                    "{needle} inside an allocation-free hot span (*_into/\
                     process_batch/flush fn, *Scratch impl, or step fn \
                     on a *Instance/*State impl)"
                );
                out.push(finding(info.body_start + rel, message, Vec::new()));
            }
        }
        for (site_idx, site) in index.calls[f].iter().enumerate() {
            let callee = graph.outgoing[f]
                .iter()
                .map(|&e| graph.edges[e])
                .filter(|e| e.site == site_idx)
                .map(|e| e.callee)
                .find(|&c| !is_alloc_hot_entry(index, c) && allocates[c].is_some());
            let Some(c) = callee else { continue };
            let mut full = vec![info.qualified_name()];
            full.extend(chain(index, allocates, c));
            let message = format!(
                "transitive allocation in an allocation-free hot span: {}",
                full.join(" -> ")
            );
            out.push(finding(site.offset, message, full));
        }
    }
}

/// The one-paragraph specification printed by `--explain <rule>`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "hot-alloc" => "hot-alloc: heap allocation (Vec::new, vec!, .to_vec(), .collect(), Box::new, .clone()) inside a hot span: *_into/process_batch/flush fns, batch-producer fns in crates/trace (push, try_push, swap, try_swap, publish), lane kernels in crates/simd, fns of *Scratch impls (constructors new/default/with_* exempt), and step fns on *Instance/*State impls (the stepped kernel lifecycle's per-tick path; instantiate/finish may allocate). Fires transitively: a hot entry point whose resolved callees allocate is flagged with the call chain. Pool::par_chunks_mut is a barrier: its clones/collects are per-region fan-out scaffolding, not per-item work.",
        "allow-syntax" => "allow-syntax: a `// rtr-lint: allow(<rule>) -- <reason>` annotation must name a known rule and carry a non-empty reason. An annotation covers its own line and the next non-attribute line below it.",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(src: &str) -> Vec<Finding> {
        lint_source("crates/planning/src/x.rs", src)
    }

    #[test]
    fn crate_classification() {
        assert_eq!(crate_of("crates/geom/src/kdtree.rs"), Some("geom"));
        assert_eq!(crate_of("src/lib.rs"), None);
    }

    #[test]
    fn alloc_flagged_only_inside_hot_spans() {
        let src =
            "fn cold() { let v = vec![1]; }\nfn mul_into(o: &mut V) { let v = Vec::new(); }\n";
        let f = kernel(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "hot-alloc");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn scratch_constructors_are_exempt() {
        let src = "impl IcpScratch {\n  fn new() -> Self { Self { v: Vec::new() } }\n  fn step(&mut self) { self.v = x.to_vec(); }\n}\n";
        let f = kernel(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains(".to_vec()"));
    }

    #[test]
    fn allow_suppresses_and_requires_reason() {
        let ok = "fn warm_into(v: &mut V) {\n  // rtr-lint: allow(hot-alloc) -- a one-off warm-up fill\n  let t = Vec::new();\n}\n";
        let f = kernel(ok);
        assert_eq!(f.len(), 1);
        assert!(f[0].allowed.is_some());

        let bad = "fn warm_into(v: &mut V) { let t = Vec::new(); } // rtr-lint: allow(hot-alloc)\n";
        let f = kernel(bad);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f
            .iter()
            .any(|x| x.rule == "allow-syntax" && x.allowed.is_none()));
    }

    #[test]
    fn allow_skips_attribute_lines() {
        let src = "// rtr-lint: allow(hot-alloc) -- warm-up fill, measured cold\n#[inline(never)]\n#[cold]\nfn warm_into(v: &mut Vec<u32>) { let x = vec![1]; }\n";
        let f = kernel(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "hot-alloc");
        assert!(f[0].allowed.is_some(), "{f:?}");
    }

    #[test]
    fn unknown_rule_in_allow_is_flagged() {
        // Retired rules are unknown too, so a leftover annotation naming
        // one cannot go unnoticed.
        for rule in [
            "made-up",
            "nondet-iter",
            "unsafe-hygiene",
            "wall-clock",
            "layering",
            "par-rng",
            "trace-gated",
        ] {
            let f = kernel(&format!(
                "let x = 1; // rtr-lint: allow({rule}) -- because\n"
            ));
            assert_eq!(f.len(), 1, "{rule}: {f:?}");
            assert_eq!(f[0].rule, "allow-syntax");
            assert!(f[0].message.contains("unknown rule"), "{f:?}");
        }
    }

    #[test]
    fn simd_lane_kernels_are_hot_alloc_spans() {
        let src = "pub fn dot(xs: &[f64]) -> f64 { let v = xs.to_vec(); v[0] }\npub fn sum(xs: &[f64]) -> f64 { fold(xs) }\nfn fold(xs: &[f64]) -> f64 { let c = xs.to_vec(); c[0] }\nfn helper(xs: &[f64]) -> f64 { xs.to_vec()[0] }\n";
        let f = lint_source("crates/simd/src/kernels.rs", src);
        let hot: Vec<_> = f.iter().filter(|x| x.rule == "hot-alloc").collect();
        assert_eq!(hot.len(), 2, "dot, and sum through fold; not helper: {f:?}");
        assert!(
            hot.iter()
                .any(|x| x.chain.first().is_some_and(|f| f == "sum")),
            "sum's private helper is reached transitively: {f:?}"
        );
        // The same names outside the SIMD crate stay cold.
        assert!(lint_source("crates/planning/src/x.rs", src)
            .iter()
            .all(|x| x.rule != "hot-alloc"));
    }

    #[test]
    fn producer_fns_are_hot_alloc_spans_in_trace_crate() {
        let src = "pub fn swap(&mut self) { self.batch = Vec::new(); }\npub fn publish(&mut self, id: u32, v: u64) -> bool { let b = Box::new(v); true }\nfn helper(items: &[u64]) -> Vec<u64> { items.to_vec() }\n";
        let f = lint_source("crates/trace/src/other.rs", src);
        let hot: Vec<_> = f.iter().filter(|x| x.rule == "hot-alloc").collect();
        assert_eq!(hot.len(), 2, "swap and publish, not helper: {f:?}");
        // The same names outside the trace crate stay cold.
        assert!(lint_source("crates/harness/src/x.rs", src)
            .iter()
            .all(|x| x.rule != "hot-alloc"));
    }

    // ---- interprocedural: transitive hot-alloc ----

    #[test]
    fn two_hop_transitive_alloc_chain_is_flagged() {
        let src = "fn mul_into(o: &mut V) { helper(o); }\nfn helper(o: &mut V) { grow(o); }\nfn grow(o: &mut V) { o.data = Vec::new(); }\n";
        let f = kernel(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "hot-alloc");
        assert_eq!(f[0].line, 1);
        assert_eq!(f[0].chain, ["mul_into", "helper", "grow", "Vec::new"]);
        assert!(f[0]
            .message
            .contains("mul_into -> helper -> grow -> Vec::new"));
    }

    #[test]
    fn transitive_findings_respect_allows() {
        let src = "fn mul_into(o: &mut V) {\n  // rtr-lint: allow(hot-alloc) -- one-time lazy growth, amortized\n  helper(o);\n}\nfn helper(o: &mut V) { o.data = Vec::new(); }\n";
        let f = kernel(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].allowed.is_some());
    }

    #[test]
    fn calls_between_hot_entries_are_not_double_reported() {
        // flush -> process_batch: both hot; process_batch's own body is
        // flagged directly, the edge is not.
        let src = "fn flush(&mut self) { self.process_batch(); }\nfn process_batch(&mut self) { let v = vec![1]; }\n";
        let f = kernel(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn cold_fns_calling_allocating_helpers_stay_clean() {
        let src = "fn setup() { helper(); }\nfn helper() -> Vec<u32> { Vec::new() }\n";
        assert!(kernel(src).is_empty());
    }

    #[test]
    fn scratch_steady_state_is_transitively_checked() {
        let src = "impl PfScratch {\n  fn new() -> Self { build() }\n  fn resample(&mut self) { self.w = build(); }\n}\nfn build() -> Vec<f64> { Vec::new() }\n";
        let f = kernel(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "hot-alloc");
        assert_eq!(f[0].chain, ["PfScratch::resample", "build", "Vec::new"]);
    }

    #[test]
    fn instance_step_fns_are_hot_alloc_spans() {
        let src = "impl PflInstance {\n  fn instantiate() -> Self { Self { v: Vec::new() } }\n  fn step(&mut self) { self.v = x.to_vec(); }\n  fn finish(self) -> Vec<f64> { self.v.clone() }\n}\n";
        let f = kernel(src);
        assert_eq!(f.len(), 1, "only the step body: {f:?}");
        assert_eq!(f[0].rule, "hot-alloc");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains(".to_vec()"));
    }

    #[test]
    fn state_step_fns_are_hot_alloc_spans() {
        let src = "impl ScenarioState {\n  fn step(&mut self) -> bool { let v = vec![1]; true }\n  fn reset(&mut self) { self.v = vec![1]; }\n}\n";
        let f = kernel(src);
        assert_eq!(f.len(), 1, "step hot, reset cold: {f:?}");
        assert_eq!(f[0].line, 2);
        // `step` on an unrelated impl type stays cold.
        let other = "impl Planner {\n  fn step(&mut self) { let v = vec![1]; }\n}\n";
        assert!(kernel(other).is_empty());
    }

    #[test]
    fn instance_step_bodies_are_transitively_checked() {
        let src = "impl SrecInstance {\n  fn step(&mut self) { self.buf = build(); }\n}\nfn build() -> Vec<f64> { Vec::new() }\n";
        let f = kernel(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "hot-alloc");
        assert_eq!(f[0].chain, ["SrecInstance::step", "build", "Vec::new"]);
    }

    #[test]
    fn pool_fanout_barrier_masks_the_structural_clone() {
        let src = "impl Pool {\n  pub fn par_map_into(&self, o: &mut V) { self.par_chunks_mut(o); }\n  pub fn par_chunks_mut(&self, o: &mut V) { let f = job.clone(); }\n}\n";
        let f = lint_source("crates/harness/src/pool.rs", src);
        assert!(f.is_empty(), "barrier masks the fan-out clone: {f:?}");
        // The same shape on a non-barrier type is still a finding.
        let src = "impl Worker {\n  pub fn par_map_into(&self, o: &mut V) { self.fan_out(o); }\n  pub fn fan_out(&self, o: &mut V) { let f = job.clone(); }\n}\n";
        let f = lint_source("crates/harness/src/pool.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "hot-alloc");
        assert!(f[0].message.contains("transitive"));
    }

    #[test]
    fn cross_file_transitive_chain_resolves_within_crate() {
        let files = vec![
            (
                "crates/geom/src/hot.rs".to_owned(),
                "pub fn icp_into(o: &mut V) { crate::util::prepare(o); }\n".to_owned(),
            ),
            (
                "crates/geom/src/util.rs".to_owned(),
                "pub fn prepare(o: &mut V) { o.buf = Vec::new(); }\n".to_owned(),
            ),
        ];
        let f = lint_workspace(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].file, "crates/geom/src/hot.rs");
        assert_eq!(f[0].chain, ["icp_into", "prepare", "Vec::new"]);
    }

    // ---- explain ----

    #[test]
    fn every_rule_has_an_explanation() {
        for rule in RULES {
            assert!(explain(rule).is_some(), "{rule}");
        }
        assert!(explain("allow-syntax").is_some());
        for unknown in [
            "made-up",
            "nondet-iter",
            "unsafe-hygiene",
            "wall-clock",
            "layering",
            "par-rng",
            "trace-gated",
        ] {
            assert!(explain(unknown).is_none(), "{unknown}");
        }
    }
}
