//! The rule engine: six lexical rules plus two graph-backed rules, each
//! the static form of a ROADMAP contract, plus the `allow-syntax` meta
//! rule.
//!
//! | id | contract |
//! |------------------|-----------------------------------------------|
//! | `nondet-iter`    | kernel outputs never depend on hash iteration |
//! | `wall-clock`     | kernels never read the wall clock directly; collector `consume_batch` callbacks never do, even in the measurement crates |
//! | `hot-alloc`      | `*_into` / `process_batch` / `flush` / ring-producer (`push`/`push_batch`/`publish`) / `*Scratch` / `step` on `*Instance`/`*State` steady state is heap-free |
//! | `unsafe-hygiene` | every crate root forbids `unsafe`, no exceptions |
//! | `par-rng`        | parallel closures derive RNG via `chunk_seed` |
//! | `layering`       | kernel-layer code never names the cache simulator |
//! | `atomic-ordering`| every memory-ordering token in the lock-free files sits in a fn with a `// ORDERING:` rationale; `SeqCst` is deny-by-default |
//! | `trace-gated`    | kernel `MemTrace` emissions are dominated by a `trace.enabled()` check |
//!
//! Rules are scoped by crate (see [`crate_of`]): `nondet-iter` guards the
//! kernel crates, `wall-clock` everything except the measurement crates
//! (`harness`, `bench`, `scenario` — which times its pipeline stages —
//! and `lint` itself, which times its own pass) — where only
//! `consume_batch` spans are scanned — `layering` the algorithm crates
//! plus the adapter subtree in `core` (see [`is_layered`]), the rest the
//! whole workspace.
//!
//! `hot-alloc` and `wall-clock` additionally fire *transitively*: a hot
//! entry point whose resolved callees allocate or read the clock is a
//! finding even when its own body is clean, with the offending call
//! chain attached (see [`crate::facts`]). The entry point for a whole
//! workspace is [`lint_workspace`]; [`lint_source`] lints one file by
//! wrapping it in a single-file workspace.

use crate::callgraph::CallGraph;
use crate::facts::{chain, Barrier, Facts, Seeds};
use crate::index::{FileAnalysis, FnId, WorkspaceIndex};
use crate::lexer::{line_of, matching_delim, token_positions, Span};
use crate::report::Finding;

/// Crates whose outputs are benchmark kernel results: hash-iteration
/// order must never reach them (ROADMAP determinism contract).
/// `scenario` is here because its golden replay is the same contract at
/// closed-loop scale: byte-identical at any thread count.
pub const KERNEL_CRATES: [&str; 7] = [
    "control",
    "core",
    "geom",
    "perception",
    "planning",
    "scenario",
    "sim",
];

/// Crates that own measurement: the only places wall-clock reads live.
/// `lint` is here because `rtr-lint` times its own workspace pass and
/// reports the wall time in `LINT_report.json`; `scenario` because the
/// closed-loop runner times its pipeline stages at the harness layer
/// (per-tick latencies streamed through the metric channel).
pub const CLOCK_CRATES: [&str; 4] = ["bench", "harness", "lint", "scenario"];

/// Crates whose algorithm code is generic over the `MemTrace` sink and
/// must never name the cache simulator directly (PR 5 layering
/// inversion); `crates/core/src/kernels/` joins them via [`is_layered`].
pub const LAYERED_CRATES: [&str; 6] = [
    "control",
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

/// Ring-producer entry points in `crates/trace` whose bodies `hot-alloc`
/// scans like any `*_into` span: they run once per telemetry record (or
/// per batch) on the kernel's hot thread, and the transport's whole
/// point is that this path never touches the allocator.
pub const RING_HOT_FNS: [&str; 7] = [
    "push",
    "push_batch",
    "try_push_batch",
    "publish",
    // RingTrace's amortized fast/slow split and the producer internals
    // they lean on run on the same hot thread as the entry points.
    "push_unpublished",
    "push_slow",
    "refresh_free",
];

/// All rule identifiers, as used in `allow(<rule>)` annotations.
pub const RULES: [&str; 8] = [
    "nondet-iter",
    "wall-clock",
    "hot-alloc",
    "unsafe-hygiene",
    "par-rng",
    "layering",
    "atomic-ordering",
    "trace-gated",
];

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

/// Wall-clock reads; these also seed the transitive `reads-clock` fact.
pub const CLOCK_NEEDLES: [&str; 2] = ["Instant::now", "SystemTime"];

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

/// Structural barriers for the transitive `reads-clock` fact: the
/// harness profiler types *are* the sanctioned timing channel the
/// wall-clock rule tells kernels to route through, so a hot entry that
/// calls `Profiler::hot_start`/`HotRegion`/`Roi` must not inherit a
/// clock fact from them.
pub const CLOCK_BARRIERS: [Barrier; 3] = [
    Barrier {
        krate: "harness",
        impl_type: Some("Profiler"),
        name: None,
    },
    Barrier {
        krate: "harness",
        impl_type: Some("HotRegion"),
        name: None,
    },
    Barrier {
        krate: "harness",
        impl_type: Some("Roi"),
        name: None,
    },
];

/// Hash-ordered containers; seed of the `touches-nondet-iter` fact.
pub const NONDET_NEEDLES: [&str; 2] = ["HashMap", "HashSet"];

/// The files `atomic-ordering` audits: the hand-rolled lock-free code.
pub const ATOMIC_SCOPE: [&str; 3] = [
    "crates/trace/src/ring.rs",
    "crates/trace/src/sync.rs",
    "crates/harness/src/collector.rs",
];

/// Extracts the crate name from a workspace-relative path like
/// `crates/planning/src/rrtstar.rs`.
pub fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// Returns `true` when `path` belongs to the simulator-agnostic layer:
/// the algorithm crates ([`LAYERED_CRATES`], sources and manifest alike)
/// plus the kernel-adapter subtree of `core`. The only `core` module
/// allowed to name `rtr_archsim` is `src/trace.rs`, which owns the
/// `--trace` wiring.
pub fn is_layered(path: &str) -> bool {
    crate_of(path).is_some_and(|k| LAYERED_CRATES.contains(&k))
        || path.starts_with("crates/core/src/kernels/")
}

/// Returns `true` when `path` is a crate root (`src/lib.rs` or
/// `src/main.rs` of a workspace crate), where `unsafe-hygiene` demands
/// `#![forbid(unsafe_code)]`.
pub fn is_crate_root(path: &str) -> bool {
    crate_of(path).is_some() && (path.ends_with("/src/lib.rs") || path.ends_with("/src/main.rs"))
}

/// Lints one file. `path` must be workspace-relative (it selects which
/// rules apply); `source` is the file text. A convenience wrapper over
/// [`lint_workspace`] with a single-file workspace — transitive rules
/// still run, over the file's internal call graph.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    lint_workspace(&[(path.to_owned(), source.to_owned())])
}

/// Lints a whole workspace: each file is lexed exactly once into a
/// [`FileAnalysis`] shared by every rule, the per-file lexical rules
/// run, then the interprocedural phase (index → call graph → transitive
/// facts) adds the graph-backed findings. Allow suppression is applied
/// per file at the end.
pub fn lint_workspace(files: &[(String, String)]) -> Vec<Finding> {
    let analyses: Vec<FileAnalysis> = files.iter().map(|(p, s)| FileAnalysis::new(p, s)).collect();

    let mut raw: Vec<Finding> = Vec::new();
    for fa in &analyses {
        per_file_rules(fa, &mut raw);
    }

    let index = WorkspaceIndex::build(analyses);
    let graph = CallGraph::build(&index);
    let seeds = Seeds {
        alloc: &ALLOC_NEEDLES,
        clock: &CLOCK_NEEDLES,
        nondet: &NONDET_NEEDLES,
        alloc_barriers: &ALLOC_BARRIERS,
        clock_barriers: &CLOCK_BARRIERS,
    };
    let facts = Facts::compute(&index, &graph, &seeds);
    rule_transitive(&index, &graph, &facts, &mut raw);
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

/// Runs every per-file lexical rule applicable to `fa`.
fn per_file_rules(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    // Manifests (`Cargo.toml`) only participate in the layering rule;
    // the Rust-syntax rules read `.rs` files.
    if fa.is_rust {
        if KERNEL_CRATES.contains(&fa.krate.as_str()) {
            rule_nondet_iter(fa, out);
        }
        if !CLOCK_CRATES.contains(&fa.krate.as_str()) {
            rule_wall_clock(fa, out);
        } else {
            rule_wall_clock_consumer(fa, out);
        }
        rule_hot_alloc(fa, out);
        rule_unsafe_hygiene(fa, out);
        rule_par_rng(fa, out);
        rule_atomic_ordering(fa, out);
    }
    if is_layered(&fa.path) {
        rule_layering(fa, out);
    }
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

/// R1 — `nondet-iter`: `HashMap`/`HashSet` in a kernel crate. Hash-seed
/// randomization makes their iteration order differ run to run; any
/// kernel-crate use must either switch to `BTreeMap`/`BTreeSet` or carry
/// an allow annotation proving the map is never iterated.
fn rule_nondet_iter(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    for token in NONDET_NEEDLES {
        for at in token_positions(&fa.scrubbed.text, token) {
            push(
                out,
                "nondet-iter",
                fa,
                at,
                format!("{token} in kernel crate: iteration order is nondeterministic (use BTreeMap/BTreeSet or justify with an allow)"),
            );
        }
    }
}

/// R2 — `wall-clock`: `Instant::now` / `SystemTime` outside the
/// measurement crates. Kernels must take timing through the harness
/// profiler hooks (`Profiler::hot_start`/`hot_add`, `Profiler::span`,
/// `HotRegion`), which the measurement knob can turn off.
fn rule_wall_clock(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    for needle in CLOCK_NEEDLES {
        for at in token_positions(&fa.scrubbed.text, needle) {
            push(
                out,
                "wall-clock",
                fa,
                at,
                format!(
                    "{needle} in a kernel crate: route timing through the harness profiler hooks"
                ),
            );
        }
    }
}

/// R2b — `wall-clock` inside the measurement crates: the crates are
/// exempt as a whole (they own timing), but `consume_batch` bodies are
/// not — a `RingConsumer` callback runs on the collector thread, where
/// the telemetry contract is "producer times, collector aggregates". A
/// clock read there would silently re-time records that were already
/// timed at the source.
fn rule_wall_clock_consumer(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    let text = &fa.scrubbed.text;
    for item in fa.fns.iter().filter(|f| f.name == "consume_batch") {
        let body = &text[item.span.start..item.span.end];
        for needle in CLOCK_NEEDLES {
            for rel in token_positions(body, needle) {
                push(
                    out,
                    "wall-clock",
                    fa,
                    item.span.start + rel,
                    format!(
                        "{needle} inside a consume_batch collector callback: \
                         timing belongs to the producer side of the ring"
                    ),
                );
            }
        }
    }
}

/// R3 — `hot-alloc`: allocation inside the span of a `*_into` function,
/// a `process_batch`/`flush` function (the batched trace transport: one
/// of these runs per buffer flush on every traced access stream), a
/// ring-producer entry point in `crates/trace` ([`RING_HOT_FNS`]: the
/// telemetry publish path runs on the kernel's hot thread), a
/// `*Scratch` impl, or a `step` fn on a `*Instance`/`*State` impl (the
/// stepped kernel lifecycle: `step` is the per-tick hot path; the
/// `instantiate`/`finish` ends may allocate). Constructors (`fn new`,
/// `fn default`, `fn with_*`) inside Scratch impls are exempt: warmup
/// may allocate, steady state may not (ROADMAP workspace convention).
fn rule_hot_alloc(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    let text = &fa.scrubbed.text;
    // In the SIMD crate the lane-kernel entry points are hot spans too;
    // in the trace crate, the ring-producer entry points.
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
                || (trace_crate && RING_HOT_FNS.contains(&n))
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

/// R4 — `unsafe-hygiene`: every crate root carries an unconditional
/// `#![forbid(unsafe_code)]`, and any `unsafe` token is a finding
/// outright — the workspace is safe code throughout.
fn rule_unsafe_hygiene(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    let s = &fa.scrubbed;
    if is_crate_root(&fa.path) {
        let compact: String = s.text.chars().filter(|c| !c.is_whitespace()).collect();
        if !compact.contains("#![forbid(unsafe_code)]") {
            out.push(Finding {
                rule: "unsafe-hygiene".to_owned(),
                file: fa.path.clone(),
                line: 1,
                message: "crate root is missing #![forbid(unsafe_code)]".to_owned(),
                allowed: None,
                chain: Vec::new(),
            });
        }
    }
    for at in token_positions(&s.text, "unsafe") {
        push(
            out,
            "unsafe-hygiene",
            fa,
            at,
            "unsafe code (the workspace forbids it in every crate)".to_owned(),
        );
    }
}

/// R5 — `par-rng`: inside the argument span of a
/// `par_map(...)`/`par_chunks_mut(...)` call, RNG state may only be
/// derived via `chunk_seed` (ROADMAP threading contract: per-chunk seed
/// streams keep parallel runs bit-identical at any thread count).
fn rule_par_rng(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    let s = &fa.scrubbed;
    let bytes = s.text.as_bytes();
    for entry in ["par_map", "par_chunks_mut"] {
        for at in token_positions(&s.text, entry) {
            // Find the call's opening paren.
            let mut j = at + entry.len();
            while j < bytes.len() && (bytes[j] == b' ' || bytes[j] == b'\n' || bytes[j] == b'\r') {
                j += 1;
            }
            if j >= bytes.len() || bytes[j] != b'(' {
                continue;
            }
            let Some(close) = matching_delim(&s.text, j, b'(', b')') else {
                continue;
            };
            let call = &s.text[j..close];
            for ctor in ["seed_from", "thread_rng", "from_entropy"] {
                for rel in token_positions(call, ctor) {
                    // The constructor's own argument span may launder the
                    // seed through `chunk_seed` — that is the contract.
                    let abs = j + rel;
                    let arg_open = abs + ctor.len();
                    let justified = bytes.get(arg_open) == Some(&b'(')
                        && matching_delim(&s.text, arg_open, b'(', b')')
                            .is_some_and(|end| s.text[arg_open..end].contains("chunk_seed"));
                    if !justified {
                        push(
                            out,
                            "par-rng",
                            fa,
                            abs,
                            format!("{ctor} inside a {entry} closure must derive its seed via chunk_seed"),
                        );
                    }
                }
            }
        }
    }
}

/// R6 — `layering`: the cache simulator named in the simulator-agnostic
/// layer. Kernel code emits into the `MemTrace` sink from `rtr-trace`;
/// only `crates/core/src/trace.rs` (and the measurement crates above it)
/// may mention `rtr_archsim`. Applies to manifests too, so a kernel
/// crate cannot even declare the dependency.
fn rule_layering(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    let s = &fa.scrubbed;
    for needle in ["rtr_archsim", "rtr-archsim"] {
        let hits = if needle.contains('-') {
            find_all(&s.text, needle)
        } else {
            token_positions(&s.text, needle)
        };
        for at in hits {
            push(
                out,
                "layering",
                fa,
                at,
                format!(
                    "{needle} named in the simulator-agnostic layer: emit into the MemTrace sink (rtr-trace); the simulator is wired up in crates/core/src/trace.rs"
                ),
            );
        }
    }
}

/// R7 — `atomic-ordering`: every `Ordering::<variant>` token in the
/// lock-free files ([`ATOMIC_SCOPE`]) must sit inside a fn whose item
/// span carries a `// ORDERING:` rationale comment, mirroring the
/// `// SAFETY:` convention. `SeqCst` is deny-by-default regardless: a
/// sequentially-consistent fence in an SPSC transport is either a bug or
/// a deliberate choice that deserves a justified allow.
fn rule_atomic_ordering(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    if !ATOMIC_SCOPE.contains(&fa.path.as_str()) {
        return;
    }
    let s = &fa.scrubbed;
    let bytes = s.text.as_bytes();
    for at in token_positions(&s.text, "Ordering") {
        let after = at + "Ordering".len();
        if !s.text[after..].starts_with("::") {
            continue;
        }
        let vstart = after + 2;
        let mut vend = vstart;
        while vend < bytes.len() && (bytes[vend] == b'_' || bytes[vend].is_ascii_alphanumeric()) {
            vend += 1;
        }
        let variant = &s.text[vstart..vend];
        if !["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"].contains(&variant) {
            continue;
        }
        let enclosing = fa
            .fns
            .iter()
            .filter(|f| f.span.contains(at))
            .min_by_key(|f| f.span.end - f.span.start);
        match enclosing {
            None => push(
                out,
                "atomic-ordering",
                fa,
                at,
                format!("Ordering::{variant} outside any fn: atomic operations in the lock-free files belong inside documented fns"),
            ),
            Some(item) => {
                if variant == "SeqCst" {
                    push(
                        out,
                        "atomic-ordering",
                        fa,
                        at,
                        "Ordering::SeqCst is deny-by-default in the lock-free files: justify with an allow or weaken the ordering".to_owned(),
                    );
                }
                let documented =
                    s.original[item.span.start..item.span.end].contains("ORDERING:");
                if !documented {
                    push(
                        out,
                        "atomic-ordering",
                        fa,
                        at,
                        format!("Ordering::{variant} in fn `{}` without a // ORDERING: rationale comment", item.name),
                    );
                }
            }
        }
    }
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
        || (fa.krate == "trace" && RING_HOT_FNS.contains(&n))
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

/// True when the wall-clock contract applies transitively to `f`. In the
/// measurement crates only `consume_batch` callbacks are constrained
/// (the crates otherwise own timing), mirroring the lexical scoping.
fn is_clock_hot_entry(index: &WorkspaceIndex, f: FnId) -> bool {
    let info = &index.fns[f];
    let fa = &index.files[info.file];
    if CLOCK_CRATES.contains(&fa.krate.as_str()) {
        info.name == "consume_batch"
    } else {
        info.name == "consume_batch" || is_alloc_hot_entry(index, f)
    }
}

/// R3t/R2t — transitive `hot-alloc` and `wall-clock`: a hot entry point
/// whose resolved callee holds the `allocates` (resp. `reads-clock`)
/// fact is a finding at the call site, with the full chain down to the
/// seeding token attached. Edges into fns that are themselves hot
/// entries are skipped — those fns get their own findings, and fixing
/// the callee fixes every caller.
fn rule_transitive(
    index: &WorkspaceIndex,
    graph: &CallGraph,
    facts: &Facts,
    out: &mut Vec<Finding>,
) {
    for f in 0..index.fns.len() {
        let alloc_hot = is_alloc_hot_entry(index, f);
        let clock_hot = is_clock_hot_entry(index, f);
        if !alloc_hot && !clock_hot {
            continue;
        }
        let fa = &index.files[index.fns[f].file];
        let n_sites = index.calls[f].len();
        for site_idx in 0..n_sites {
            let site = &index.calls[f][site_idx];
            let candidates = graph.outgoing[f]
                .iter()
                .map(|&e| graph.edges[e])
                .filter(|e| e.site == site_idx);
            let mut flagged_alloc = false;
            let mut flagged_clock = false;
            for edge in candidates {
                let c = edge.callee;
                if alloc_hot
                    && !flagged_alloc
                    && !is_alloc_hot_entry(index, c)
                    && facts.allocates[c].is_some()
                {
                    flagged_alloc = true;
                    let mut full = vec![index.fns[f].qualified_name()];
                    full.extend(chain(index, &facts.allocates, c));
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
                if clock_hot
                    && !flagged_clock
                    && !is_clock_hot_entry(index, c)
                    && facts.reads_clock[c].is_some()
                {
                    flagged_clock = true;
                    let mut full = vec![index.fns[f].qualified_name()];
                    full.extend(chain(index, &facts.reads_clock, c));
                    out.push(Finding {
                        rule: "wall-clock".to_owned(),
                        file: fa.path.clone(),
                        line: line_of(&fa.scrubbed.text, site.offset),
                        message: format!(
                            "transitive wall-clock read from a hot entry point: {}",
                            full.join(" -> ")
                        ),
                        allowed: None,
                        chain: full,
                    });
                }
            }
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
/// simulator wiring, the same carve-out the layering rule makes.
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
        "nondet-iter" => "nondet-iter: HashMap/HashSet tokens in a kernel crate (control, core, geom, perception, planning, sim). Hash-seed randomization makes iteration order differ run to run, which would leak nondeterminism into benchmark outputs. Use BTreeMap/BTreeSet, or carry `// rtr-lint: allow(nondet-iter) -- <reason>` proving the container is never iterated.",
        "wall-clock" => "wall-clock: Instant::now/SystemTime outside the measurement crates (bench, harness, lint, scenario), and inside consume_batch collector callbacks anywhere. Kernels take timing through the harness profiler hooks. Fires transitively: a hot entry point whose resolved callees read the clock is flagged with the call chain (a_into -> helper -> Instant::now); the harness profiler types themselves are barriers (they are the sanctioned channel).",
        "hot-alloc" => "hot-alloc: heap allocation (Vec::new, vec!, .to_vec(), .collect(), Box::new, .clone()) inside a hot span: *_into/process_batch/flush fns, ring-producer fns in crates/trace, lane kernels in crates/simd, *Scratch impls (constructors new/default/with_* exempt), and step fns on *Instance/*State impls (the stepped kernel lifecycle's per-tick path; instantiate/finish may allocate). Fires transitively: a hot entry point whose resolved callees allocate is flagged with the call chain. Pool::par_chunks_mut is a barrier: its clones/collects are per-region fan-out scaffolding, not per-item work.",
        "unsafe-hygiene" => "unsafe-hygiene: every crate root must carry an unconditional #![forbid(unsafe_code)], and any unsafe token is a finding outright: the workspace is safe code throughout, with no per-crate exceptions.",
        "par-rng" => "par-rng: inside par_map/par_chunks_mut argument spans, RNG constructors (seed_from, thread_rng, from_entropy) must derive their seed via chunk_seed so parallel runs stay bit-identical at any thread count.",
        "layering" => "layering: the cache simulator (rtr_archsim) named in the simulator-agnostic layer (algorithm crates, their manifests, and crates/core/src/kernels/). Kernel code emits into the MemTrace sink; only crates/core/src/trace.rs wires the simulator up.",
        "atomic-ordering" => "atomic-ordering: every Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst} token in crates/trace/src/{ring,sync}.rs and crates/harness/src/collector.rs must sit in a fn whose span carries a // ORDERING: rationale comment (mirroring // SAFETY:). Ordering::SeqCst is deny-by-default: justify it with an allow or weaken the ordering.",
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
        assert!(is_crate_root("crates/lint/src/lib.rs"));
        assert!(is_crate_root("crates/lint/src/main.rs"));
        assert!(!is_crate_root("crates/lint/src/rules.rs"));
    }

    #[test]
    fn hashmap_flagged_in_kernel_not_in_harness() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(kernel(src).len(), 1);
        assert!(lint_source("crates/harness/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_flagged_outside_measurement_crates() {
        let src = "let t = std::time::Instant::now();\n";
        let f = kernel(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
        assert!(lint_source("crates/bench/src/x.rs", src).is_empty());
        assert!(lint_source("crates/harness/src/x.rs", src).is_empty());
        assert!(lint_source("crates/lint/src/timing.rs", src).is_empty());
        // The scenario runner times its pipeline stages directly.
        assert!(lint_source("crates/scenario/src/runner.rs", src).is_empty());
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
        let ok = "// rtr-lint: allow(nondet-iter) -- lookups only, never iterated\nuse std::collections::HashMap;\n";
        let f = kernel(ok);
        assert_eq!(f.len(), 1);
        assert!(f[0].allowed.is_some());

        let bad = "use std::collections::HashMap; // rtr-lint: allow(nondet-iter)\n";
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
        let f = kernel("let x = 1; // rtr-lint: allow(made-up) -- because\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "allow-syntax");
    }

    #[test]
    fn missing_forbid_flagged_on_crate_roots_only() {
        let f = lint_source("crates/geom/src/lib.rs", "pub mod x;\n");
        assert!(f.iter().any(|x| x.message.contains("forbid(unsafe_code)")));
        let f = lint_source("crates/geom/src/x.rs", "pub mod y;\n");
        assert!(f.is_empty());
    }

    #[test]
    fn unsafe_is_flagged_in_every_crate_even_with_a_safety_comment() {
        let src = "#![forbid(unsafe_code)]\n// SAFETY: documented, but no crate may use unsafe\nfn f() { unsafe { g() } }\n";
        for root in ["crates/geom/src/lib.rs", "crates/simd/src/lib.rs"] {
            let f = lint_source(root, src);
            assert_eq!(f.len(), 1, "{f:?}");
            assert_eq!(f[0].rule, "unsafe-hygiene");
            assert_eq!(f[0].line, 3);
        }
    }

    #[test]
    fn feature_gated_forbid_is_not_a_forbid() {
        let gated = "#![cfg_attr(not(feature = \"fast\"), forbid(unsafe_code))]\npub fn f() {}\n";
        let f = lint_source("crates/simd/src/lib.rs", gated);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("forbid(unsafe_code)"));
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
    fn ring_producer_fns_are_hot_alloc_spans_in_trace_crate() {
        let src = "pub fn push_batch(&mut self, items: &[T]) -> usize { let v = items.to_vec(); v.len() }\npub fn publish(&mut self, id: u32, v: u64) -> bool { let b = Box::new(v); true }\nfn helper(items: &[u64]) -> Vec<u64> { items.to_vec() }\n";
        let f = lint_source("crates/trace/src/other.rs", src);
        let hot: Vec<_> = f.iter().filter(|x| x.rule == "hot-alloc").collect();
        assert_eq!(hot.len(), 2, "push_batch and publish, not helper: {f:?}");
        // The same names outside the trace crate stay cold.
        assert!(lint_source("crates/harness/src/x.rs", src)
            .iter()
            .all(|x| x.rule != "hot-alloc"));
    }

    #[test]
    fn consume_batch_clock_reads_flagged_even_in_clock_crates() {
        let bad = "fn consume_batch(&mut self, batch: &[TraceOp]) { let t = Instant::now(); }\n";
        let f = lint_source("crates/harness/src/metrics.rs", bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "wall-clock");
        assert!(f[0].message.contains("consume_batch"));
        // Clock reads elsewhere in the measurement crates stay legal...
        let ok = "fn drain(&mut self) { let t = Instant::now(); }\n";
        assert!(lint_source("crates/harness/src/metrics.rs", ok).is_empty());
        // ...and consume_batch in a non-clock crate is already covered by
        // the blanket rule (exactly one finding, not two).
        let f = lint_source("crates/archsim/src/x.rs", bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "wall-clock");
    }

    #[test]
    fn par_rng_requires_chunk_seed() {
        let bad = "pool.par_map(&xs, |i, x| { let mut rng = SimRng::seed_from(7); x })\n";
        let f = kernel(bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "par-rng");
        let good =
            "pool.par_map(&xs, |i, x| { let mut rng = SimRng::seed_from(chunk_seed(s, i as u64)); x })\n";
        assert!(kernel(good).is_empty());
    }

    #[test]
    fn rng_outside_parallel_closures_is_fine() {
        assert!(kernel("let mut rng = SimRng::seed_from(self.config.seed);\n").is_empty());
    }

    #[test]
    fn layering_scope_covers_kernel_crates_and_core_adapters() {
        assert!(is_layered("crates/control/src/mpc.rs"));
        assert!(is_layered("crates/perception/Cargo.toml"));
        assert!(is_layered("crates/core/src/kernels/planning.rs"));
        assert!(!is_layered("crates/core/src/trace.rs"));
        assert!(!is_layered("crates/bench/src/lib.rs"));
        assert!(!is_layered("crates/archsim/src/hierarchy.rs"));
    }

    #[test]
    fn simulator_named_in_kernel_source_is_flagged() {
        let src = "let report = rtr_archsim::MemorySim::i3_8109u().report();\n";
        let f = kernel(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "layering");
        assert!(lint_source("crates/core/src/trace.rs", src).is_empty());
        assert!(lint_source("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn simulator_dependency_in_kernel_manifest_is_flagged() {
        let toml = "[dependencies]\nrtr-trace.workspace = true\nrtr-archsim.workspace = true\n";
        let f = lint_source("crates/planning/Cargo.toml", toml);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "layering");
        assert_eq!(f[0].line, 3);
        assert!(lint_source("crates/core/Cargo.toml", toml).is_empty());
    }

    #[test]
    fn simulator_in_comments_or_core_adapter_subtree() {
        // Comments are scrubbed before matching: prose pointers to the
        // simulator remain legal in kernel crates.
        assert!(kernel("// measured via rtr_archsim, see bench\n").is_empty());
        let f = lint_source(
            "crates/core/src/kernels/perception.rs",
            "use rtr_archsim::MemorySim;\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "layering");
    }

    // ---- interprocedural: transitive hot-alloc / wall-clock ----

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
    fn two_hop_transitive_clock_chain_is_flagged() {
        let src = "fn step_into(o: &mut V) { helper(); }\nfn helper() { stamp(); }\nfn stamp() -> u64 { std::time::Instant::now(); 0 }\n";
        let f = kernel(src);
        // Direct wall-clock on stamp's own token, plus the transitive
        // finding at the hot entry's call site.
        let trans: Vec<_> = f
            .iter()
            .filter(|x| x.message.contains("transitive"))
            .collect();
        assert_eq!(trans.len(), 1, "{f:?}");
        assert_eq!(trans[0].rule, "wall-clock");
        assert_eq!(
            trans[0].chain,
            ["step_into", "helper", "stamp", "Instant::now"]
        );
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
    fn profiler_barrier_keeps_the_sanctioned_timing_channel_legal() {
        let files = vec![
            (
                "crates/harness/src/profiler.rs".to_owned(),
                "impl Profiler {\n  pub fn hot_start(&mut self) { self.t = Instant::now(); }\n}\n"
                    .to_owned(),
            ),
            (
                "crates/geom/src/hot.rs".to_owned(),
                "pub fn icp_into(o: &mut V, p: &mut Profiler) { p.hot_start(); }\n".to_owned(),
            ),
        ];
        let f = lint_workspace(&files);
        assert!(f.is_empty(), "profiler calls from hot entries: {f:?}");
    }

    #[test]
    fn consume_batch_transitive_clock_read_is_flagged() {
        let src = "fn consume_batch(&mut self, b: &[Op]) { self.stamp(); }\nfn stamp(&mut self) { let t = Instant::now(); }\n";
        let f = lint_source("crates/harness/src/metrics.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "wall-clock");
        assert!(f[0].message.contains("transitive"));
        assert_eq!(f[0].chain, ["consume_batch", "stamp", "Instant::now"]);
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

    // ---- atomic-ordering ----

    #[test]
    fn ordering_without_rationale_is_flagged_in_scope_only() {
        let bad = "fn load_head(&self) -> u64 { self.head.load(Ordering::Acquire) }\n";
        let f = lint_source("crates/trace/src/ring.rs", bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "atomic-ordering");
        assert!(f[0].message.contains("ORDERING:"));
        // The same code outside the audited files is not atomic-ordering's
        // business.
        assert!(lint_source("crates/harness/src/roi.rs", bad)
            .iter()
            .all(|x| x.rule != "atomic-ordering"));
    }

    #[test]
    fn ordering_with_rationale_is_clean() {
        let good = "fn load_head(&self) -> u64 {\n    // ORDERING: Acquire pairs with the producer's Release store of tail.\n    self.head.load(Ordering::Acquire)\n}\n";
        assert!(lint_source("crates/trace/src/ring.rs", good).is_empty());
    }

    #[test]
    fn seqcst_denied_even_with_rationale() {
        let src = "fn fence(&self) {\n    // ORDERING: full fence on shutdown.\n    self.flag.store(true, Ordering::SeqCst);\n}\n";
        let f = lint_source("crates/harness/src/collector.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("SeqCst"));
        let allowed = "fn fence(&self) {\n    // ORDERING: full fence on shutdown.\n    // rtr-lint: allow(atomic-ordering) -- shutdown is cold; SeqCst keeps the proof trivial\n    self.flag.store(true, Ordering::SeqCst);\n}\n";
        let f = lint_source("crates/harness/src/collector.rs", allowed);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].allowed.is_some());
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
        assert!(explain("made-up").is_none());
    }
}
