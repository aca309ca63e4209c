//! The rule engine: two rules, each the static form of a ROADMAP
//! contract that needs rtr-lint's call graph, plus the `allow-syntax`
//! meta rule.
//!
//! | id | contract |
//! |------------------|-----------------------------------------------|
//! | `hot-alloc`      | `*_into` / `process_batch` / `flush` / batch-producer (`push`/`try_push`/`swap`/`try_swap`/`publish`) / `*Scratch` / `step` on `*Instance`/`*State` steady state is heap-free |
//! | `trace-gated`    | kernel `MemTrace` emissions are dominated by a `trace.enabled()` check |
//!
//! `trace-gated` is scoped to the kernel crates (see [`crate_of`]),
//! `hot-alloc` to the whole workspace. Both need the call graph:
//! `hot-alloc` also fires *transitively* (a hot entry point whose
//! resolved callees allocate is a finding even when its own body is
//! clean, with the offending call chain attached, see
//! [`crate::facts`]), and `trace-gated` accepts an emission in a helper
//! whose every caller is guarded. The entry point for a whole workspace
//! is [`lint_workspace`]; [`lint_source`] lints one file by wrapping it
//! in a single-file workspace.

use crate::callgraph::CallGraph;
use crate::facts::{chain, propagate, Barrier, Fact};
use crate::index::{FileAnalysis, FnId, WorkspaceIndex};
use crate::lexer::{line_of, matching_delim, token_positions, Span};
use crate::report::Finding;

/// Crates whose outputs are benchmark kernel results: `trace-gated`
/// scans them, and hash-iteration order must never reach them (ROADMAP
/// determinism contract), which each one's `clippy.toml` enforces by
/// disallowing `HashMap`/`HashSet`. `scenario` is here because its
/// golden replay is the same contract at closed-loop scale:
/// byte-identical at any thread count.
pub const KERNEL_CRATES: [&str; 7] = [
    "control",
    "core",
    "geom",
    "perception",
    "planning",
    "scenario",
    "sim",
];

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
pub const RULES: [&str; 2] = ["hot-alloc", "trace-gated"];

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
/// [`FileAnalysis`] shared by every rule, the lexical `hot-alloc` scan
/// runs, then the interprocedural phase (index → call graph → transitive
/// facts) adds the graph-backed findings. Allow suppression is applied
/// per file at the end.
pub fn lint_workspace(files: &[(String, String)]) -> Vec<Finding> {
    let analyses: Vec<FileAnalysis> = files.iter().map(|(p, s)| FileAnalysis::new(p, s)).collect();

    let mut raw: Vec<Finding> = Vec::new();
    // Manifests (`Cargo.toml`) only scope the call graph's cross-crate
    // edges; the rules read `.rs` files.
    for fa in analyses.iter().filter(|fa| fa.is_rust) {
        rule_hot_alloc(fa, &mut raw);
    }

    let index = WorkspaceIndex::build(analyses);
    let graph = CallGraph::build(&index);
    let allocates = propagate(&index, &graph, &ALLOC_NEEDLES, &ALLOC_BARRIERS);
    rule_transitive(&index, &graph, &allocates, &mut raw);
    rule_trace_gated(&index, &graph, &mut raw);

    // Dedup overlapping-span double reports.
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

fn push(out: &mut Vec<Finding>, rule: &str, fa: &FileAnalysis, offset: usize, message: String) {
    out.push(Finding {
        rule: rule.to_owned(),
        file: fa.path.clone(),
        line: line_of(&fa.scrubbed.text, offset),
        message,
        allowed: None,
        chain: Vec::new(),
    });
}

/// R3 — `hot-alloc`: allocation inside the span of a `*_into` function,
/// a `process_batch`/`flush` function (the batched trace transport: one
/// of these runs per buffer flush on every traced access stream), a
/// batch-producer fn in `crates/trace` ([`PRODUCER_HOT_FNS`]: the
/// telemetry push and publish path runs on the kernel's hot thread), a
/// `*Scratch` impl, or a `step` fn on a `*Instance`/`*State` impl (the
/// stepped kernel lifecycle: `step` is the per-tick hot path; the
/// `instantiate`/`finish` ends may allocate). Constructors (`fn new`,
/// `fn default`, `fn with_*`) inside Scratch impls are exempt: warmup
/// may allocate, steady state may not (ROADMAP workspace convention).
fn rule_hot_alloc(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    let text = &fa.scrubbed.text;
    // In the SIMD crate the lane-kernel entry points are hot spans too;
    // in the trace crate, the batch-producer fns.
    let simd_crate = fa.krate == "simd";
    let trace_crate = fa.krate == "trace";
    let mut hot: Vec<Span> = fa
        .fns
        .iter()
        .filter(|f| {
            let n = f.name.as_str();
            n.ends_with("_into")
                || n == "process_batch"
                || n == "flush"
                || (trace_crate && PRODUCER_HOT_FNS.contains(&n))
                || (simd_crate && SIMD_HOT_FNS.contains(&n))
        })
        .map(|f| f.span)
        .collect();
    // Constructor sub-spans are exempt from the Scratch-impl scan.
    let mut exempt: Vec<Span> = Vec::new();
    for imp in fa.impls.iter().filter(|imp| {
        imp.header
            .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .any(|word| word.ends_with("Scratch") && !word.is_empty())
    }) {
        for f in fa.fns.iter().filter(|f| imp.span.contains(f.span.start)) {
            if is_ctor(&f.name) {
                exempt.push(f.span);
            }
        }
        hot.push(imp.span);
    }
    // Stepped-lifecycle impls: only the `step` fn joins the hot set —
    // `instantiate` allocates the instance and `finish` builds the
    // report, both off the per-tick path.
    for imp in fa.impls.iter().filter(|imp| {
        imp.header
            .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .any(|word| !word.is_empty() && (word.ends_with("Instance") || word.ends_with("State")))
    }) {
        for f in fa
            .fns
            .iter()
            .filter(|f| f.name == "step" && imp.span.contains(f.span.start))
        {
            hot.push(f.span);
        }
    }

    for span in &hot {
        let body = &text[span.start..span.end];
        for needle in ALLOC_NEEDLES {
            let hits = if needle.starts_with('.') || needle.ends_with('!') {
                find_all(body, needle)
            } else {
                token_positions(body, needle)
            };
            for rel in hits {
                let at = span.start + rel;
                if exempt.iter().any(|e| e.contains(at)) {
                    continue;
                }
                push(
                    out,
                    "hot-alloc",
                    fa,
                    at,
                    format!(
                        "{needle} inside an allocation-free hot span (*_into/\
                         process_batch/flush fn, *Scratch impl, or step fn \
                         on a *Instance/*State impl)"
                    ),
                );
            }
        }
    }
}

/// Scratch-impl constructor names exempt from the hot-alloc scan.
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

/// Method names whose calls count as `MemTrace` emissions for R8.
const TRACE_EMIT_METHODS: [&str; 3] = ["read", "write", "process_batch"];

/// Receiver identifiers the kernels conventionally bind trace sinks to.
const TRACE_RECEIVERS: [&str; 4] = ["trace", "tr", "t", "sink"];

/// True when the hot-entry fn's *alloc* contract applies to `f` — the
/// same selection [`rule_hot_alloc`] makes lexically, lifted to per-fn
/// granularity for the transitive pass.
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

/// R3t — transitive `hot-alloc`: a hot entry point whose resolved
/// callee holds the `allocates` fact is a finding at the call site, with
/// the full chain down to the seeding token attached. Edges into fns
/// that are themselves hot entries are skipped — those fns get their own
/// findings, and fixing the callee fixes every caller.
fn rule_transitive(
    index: &WorkspaceIndex,
    graph: &CallGraph,
    allocates: &Fact,
    out: &mut Vec<Finding>,
) {
    for f in (0..index.fns.len()).filter(|&f| is_alloc_hot_entry(index, f)) {
        let fa = &index.files[index.fns[f].file];
        for (site_idx, site) in index.calls[f].iter().enumerate() {
            let callee = graph.outgoing[f]
                .iter()
                .map(|&e| graph.edges[e])
                .filter(|e| e.site == site_idx)
                .map(|e| e.callee)
                .find(|&c| !is_alloc_hot_entry(index, c) && allocates[c].is_some());
            let Some(c) = callee else { continue };
            let mut full = vec![index.fns[f].qualified_name()];
            full.extend(chain(index, allocates, c));
            out.push(Finding {
                rule: "hot-alloc".to_owned(),
                file: fa.path.clone(),
                line: line_of(&fa.scrubbed.text, site.offset),
                message: format!(
                    "transitive allocation in an allocation-free hot span: {}",
                    full.join(" -> ")
                ),
                allowed: None,
                chain: full,
            });
        }
    }
}

/// R8 — `trace-gated`: in kernel crates, a `MemTrace` emission
/// (`.read(` / `.write(` / `.process_batch(` on a trace-ish receiver)
/// must be *dominated* by a `trace.enabled()` check: either the call
/// site sits inside a guarded block (lexical block-nesting
/// approximation), or the whole fn is only ever called from guarded
/// positions (greatest-fixpoint over the workspace call graph).
/// `crates/core/src/trace.rs` is exempt — it is the deliberate
/// simulator wiring.
fn rule_trace_gated(index: &WorkspaceIndex, graph: &CallGraph, out: &mut Vec<Finding>) {
    let in_scope = |f: FnId| {
        let fa = &index.files[index.fns[f].file];
        fa.is_rust
            && KERNEL_CRATES.contains(&fa.krate.as_str())
            && fa.path != "crates/core/src/trace.rs"
    };

    // Per-fn guarded spans (absolute offsets), for every kernel fn.
    let guards: Vec<Vec<Span>> = (0..index.fns.len())
        .map(|f| {
            if in_scope(f) {
                let fa = &index.files[index.fns[f].file];
                guard_spans(&fa.scrubbed.text, &index.fns[f])
            } else {
                Vec::new()
            }
        })
        .collect();
    let at_guarded = |f: FnId, offset: usize| guards[f].iter().any(|g| g.contains(offset));

    // Greatest fixpoint: a fn is Guarded iff it has at least one
    // resolved workspace caller and every call edge into it is either at
    // a guarded position or comes from a Guarded caller. Start from the
    // optimistic assumption and strike out violators until stable.
    let mut guarded: Vec<bool> = (0..index.fns.len())
        .map(|f| !graph.incoming[f].is_empty())
        .collect();
    loop {
        let mut changed = false;
        for f in 0..index.fns.len() {
            if !guarded[f] {
                continue;
            }
            let ok = graph.incoming[f].iter().all(|&e| {
                let edge = graph.edges[e];
                let site = &index.calls[edge.caller][edge.site];
                at_guarded(edge.caller, site.offset) || guarded[edge.caller]
            });
            if !ok {
                guarded[f] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    for (f, is_guarded) in guarded.iter().enumerate() {
        if !in_scope(f) {
            continue;
        }
        let fa = &index.files[index.fns[f].file];
        for site in &index.calls[f] {
            if !site.is_method
                || !TRACE_EMIT_METHODS.contains(&site.name.as_str())
                || !is_trace_receiver(&fa.scrubbed.text, site)
            {
                continue;
            }
            if at_guarded(f, site.offset) || *is_guarded {
                continue;
            }
            out.push(Finding {
                rule: "trace-gated".to_owned(),
                file: fa.path.clone(),
                line: line_of(&fa.scrubbed.text, site.offset),
                message: format!(
                    "un-gated MemTrace::{} emission in fn `{}`: dominate it with a trace.enabled() check (or call the fn only from guarded positions)",
                    site.name, index.fns[f].name
                ),
                allowed: None,
                chain: Vec::new(),
            });
        }
    }
}

/// Heuristic: is the method call's receiver a trace sink? Conventional
/// binding names, anything containing `trace`, or (for computed
/// receivers like `self.trace.borrow_mut()`) `trace` appearing in the
/// preceding statement window.
fn is_trace_receiver(text: &str, site: &crate::index::CallSite) -> bool {
    match &site.receiver {
        Some(r) => TRACE_RECEIVERS.contains(&r.as_str()) || r.contains("trace"),
        None => {
            let mut lo = site.offset.saturating_sub(64);
            while !text.is_char_boundary(lo) {
                lo -= 1;
            }
            let window = &text[lo..site.offset];
            let stmt = window.rsplit([';', '{', '\n']).next().unwrap_or(window);
            stmt.contains("trace")
        }
    }
}

/// Computes the guarded spans of one fn (absolute offsets): bodies of
/// `if` blocks whose condition contains `.enabled()` or a guard variable
/// bound from an `.enabled()` call (`let traced = trace.enabled();`),
/// and — for negated early-return guards (`if !trace.enabled() { return }`)
/// — the rest of the fn after the `if` block.
fn guard_spans(text: &str, info: &crate::index::FnInfo) -> Vec<Span> {
    let body = &text[info.body_start..info.span.end];
    let base = info.body_start;
    let mut spans = Vec::new();

    // Guard variables: `let <name> = ... .enabled() ...;` on one line.
    let mut vars: Vec<String> = Vec::new();
    for at in find_all(body, ".enabled()") {
        let line_start = body[..at].rfind('\n').map_or(0, |p| p + 1);
        let line = body[line_start..at].trim_start();
        if let Some(rest) = line.strip_prefix("let ") {
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                vars.push(name);
            }
        }
    }

    let bytes = body.as_bytes();
    for at in token_positions(body, "if") {
        // Condition runs from after `if` to the block's `{` at bracket
        // depth zero.
        let cond_start = at + 2;
        let mut j = cond_start;
        let mut depth = 0i32;
        let open = loop {
            if j >= bytes.len() {
                break None;
            }
            match bytes[j] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth == 0 => break Some(j),
                b';' => break None,
                _ => {}
            }
            j += 1;
        };
        let Some(open) = open else { continue };
        let cond = &body[cond_start..open];
        let is_guard = cond.contains(".enabled()")
            || vars.iter().any(|v| !token_positions(cond, v).is_empty());
        if !is_guard {
            continue;
        }
        let Some(close) = matching_delim(body, open, b'{', b'}') else {
            continue;
        };
        if cond.trim_start().starts_with('!') {
            // `if !guard { return/continue; }` — everything after the
            // block (including any else arm) runs only when enabled.
            spans.push(Span {
                start: base + close,
                end: info.span.end,
            });
        } else {
            spans.push(Span {
                start: base + open,
                end: base + close + 1,
            });
        }
    }
    spans
}

/// The one-paragraph specification printed by `--explain <rule>`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "hot-alloc" => "hot-alloc: heap allocation (Vec::new, vec!, .to_vec(), .collect(), Box::new, .clone()) inside a hot span: *_into/process_batch/flush fns, batch-producer fns in crates/trace (push, try_push, swap, try_swap, publish), lane kernels in crates/simd, *Scratch impls (constructors new/default/with_* exempt), and step fns on *Instance/*State impls (the stepped kernel lifecycle's per-tick path; instantiate/finish may allocate). Fires transitively: a hot entry point whose resolved callees allocate is flagged with the call chain. Pool::par_chunks_mut is a barrier: its clones/collects are per-region fan-out scaffolding, not per-item work.",
        "trace-gated" => "trace-gated: in kernel crates, MemTrace emissions (.read/.write/.process_batch on a trace receiver) must be dominated by a trace.enabled() check: inside an `if trace.enabled()` block (or after an `if !enabled { return }` early-out, or under a bound guard variable), or in a fn whose every workspace caller calls it from a guarded position. crates/core/src/trace.rs is exempt (it is the simulator wiring).",
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

    // ---- trace-gated ----

    #[test]
    fn ungated_emission_is_flagged_and_gated_is_clean() {
        let bad = "fn step(&mut self, trace: &mut T) { trace.read(self.addr); }\n";
        let f = kernel(bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "trace-gated");
        let good =
            "fn step(&mut self, trace: &mut T) { if trace.enabled() { trace.read(self.addr); } }\n";
        assert!(kernel(good).is_empty());
    }

    #[test]
    fn negated_early_return_guard_covers_the_rest() {
        let src = "fn step(&mut self, trace: &mut T) {\n  if !trace.enabled() { return; }\n  trace.read(self.addr);\n  trace.write(self.addr);\n}\n";
        assert!(kernel(src).is_empty());
    }

    #[test]
    fn bound_guard_variable_is_recognized() {
        let src = "fn step(&mut self, t: &mut T) {\n  let traced = self.trace.borrow().enabled();\n  if traced { t.read(self.addr); }\n  t.write(self.addr);\n}\n";
        let f = kernel(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4, "only the un-gated write: {f:?}");
    }

    #[test]
    fn helper_called_only_from_guarded_positions_is_clean() {
        let src = "fn step(&mut self, trace: &mut T) {\n  if trace.enabled() { self.emit(trace); }\n}\nfn emit(&mut self, trace: &mut T) { trace.read(self.addr); }\n";
        assert!(kernel(src).is_empty());
    }

    #[test]
    fn helper_with_one_unguarded_caller_is_flagged() {
        let src = "fn step(&mut self, trace: &mut T) {\n  if trace.enabled() { self.emit(trace); }\n}\nfn sloppy(&mut self, trace: &mut T) { self.emit(trace); }\nfn emit(&mut self, trace: &mut T) { trace.read(self.addr); }\n";
        let f = kernel(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "trace-gated");
        assert!(f[0].message.contains("emit"));
    }

    #[test]
    fn non_trace_receivers_are_ignored() {
        let src =
            "fn step(&mut self, file: &mut File) { file.read(&mut buf); socket.write(&buf); }\n";
        assert!(kernel(src).is_empty());
    }

    #[test]
    fn core_trace_wiring_is_exempt_from_gating() {
        let src = "fn run(&mut self, trace: &mut T) { trace.read(0); }\n";
        assert!(lint_source("crates/core/src/trace.rs", src)
            .iter()
            .all(|x| x.rule != "trace-gated"));
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
        ] {
            assert!(explain(unknown).is_none(), "{unknown}");
        }
    }
}
