//! Self-tests: every seeded fixture violation must be flagged, every
//! annotated fixture must pass, and the findings must reach the report.
//!
//! Fixtures live under `tests/fixtures/` and are linted as text with a
//! virtual workspace path (which selects the rule set), so they never
//! need to compile.

use rtr_lint::{lint_source, Finding, Report};

/// Lints a fixture as if it lived in the planning (kernel) crate.
fn kernel(source: &str) -> Vec<Finding> {
    lint_source("crates/planning/src/fixture.rs", source)
}

fn violations(findings: &[Finding]) -> Vec<&Finding> {
    findings.iter().filter(|f| f.allowed.is_none()).collect()
}

#[test]
fn r3_bad_fixture_flags_hot_spans_only() {
    let f = kernel(include_str!("fixtures/r3_hot_alloc_bad.rs"));
    let v = violations(&f);
    assert!(v.iter().all(|x| x.rule == "hot-alloc"), "{f:?}");
    // mul_into: Vec::new, .to_vec(), Box::new, .collect(); Scratch::step:
    // .to_vec(); transport: process_batch .to_vec(), flush .collect().
    assert_eq!(v.len(), 7, "{v:?}");
    // Nothing from cold_setup (lines 4-7) or the exempt constructor.
    assert!(v.iter().all(|x| x.line >= 10), "{v:?}");
    assert!(
        !v.iter().any(|x| (22..=25).contains(&x.line)),
        "Scratch constructor must be exempt: {v:?}"
    );
    // The batched-transport spans are covered...
    assert!(v.iter().any(|x| x.line == 38), "process_batch: {v:?}");
    assert!(v.iter().any(|x| x.line == 43), "flush: {v:?}");
    // ...but ordinary methods on the same type stay cold.
    assert!(!v.iter().any(|x| x.line == 49), "describe is cold: {v:?}");
}

#[test]
fn r3_instance_step_fixture_flags_step_bodies_only() {
    let f = kernel(include_str!("fixtures/r3_instance_step_bad.rs"));
    let v = violations(&f);
    assert!(v.iter().all(|x| x.rule == "hot-alloc"), "{f:?}");
    assert_eq!(v.len(), 2, "{v:?}");
    // PflInstance::step's direct .to_vec()...
    assert!(v.iter().any(|x| x.line == 15), "{v:?}");
    // ...and TrackerState::step's transitive reach into refill.
    let trans = v.iter().find(|x| x.line == 26).expect("transitive");
    assert_eq!(trans.chain, ["TrackerState::step", "refill", "Vec::new"]);
    // The lifecycle ends and ordinary methods stay cold: instantiate's
    // Vec::new (line 11), finish's .clone() (line 20), describe (30).
    for cold in [11, 20, 30] {
        assert!(!v.iter().any(|x| x.line == cold), "line {cold}: {v:?}");
    }
}

#[test]
fn r3_producer_fixture_is_flagged_only_in_the_trace_crate() {
    let src = include_str!("fixtures/r3_producer_bad.rs");
    let f = lint_source("crates/trace/src/fixture.rs", src);
    let v = violations(&f);
    assert!(v.iter().all(|x| x.rule == "hot-alloc"), "{f:?}");
    // push: Box::new; swap: Vec::new; try_swap: .to_vec(); publish:
    // vec![...].
    assert_eq!(v.len(), 4, "{v:?}");
    for line in [13, 18, 22, 27] {
        assert!(v.iter().any(|x| x.line == line), "line {line}: {v:?}");
    }
    // The cold helper's .to_vec() (line 33) is legal.
    assert!(!v.iter().any(|x| x.line == 33), "{v:?}");
    // Outside the trace crate these fn names are not batch producers.
    assert!(kernel(src).is_empty(), "only hot in crates/trace");
}

/// The hot-alloc chain through `.apply(..)` may only resolve into crates
/// the caller's manifest (transitively) depends on.
#[test]
fn r3_method_calls_resolve_only_into_declared_dependencies() {
    let lint = |manifests: &[(&str, &str)]| {
        let mut files = vec![
            (
                "crates/perception/src/fixture.rs".to_owned(),
                include_str!("fixtures/r3_dep_scoped_caller.rs").to_owned(),
            ),
            (
                "crates/planning/src/fixture.rs".to_owned(),
                include_str!("fixtures/r3_dep_scoped_other_crate.rs").to_owned(),
            ),
        ];
        files.extend(
            manifests
                .iter()
                .map(|(path, toml)| (path.to_string(), toml.to_string())),
        );
        rtr_lint::lint_workspace(&files)
    };
    let planning = (
        "crates/planning/Cargo.toml",
        "[package]\nname = \"rtr-planning\"\n",
    );
    let assert_chain = |f: &[Finding]| {
        let v = violations(f);
        assert_eq!(v.len(), 1, "{f:?}");
        assert_eq!(v[0].rule, "hot-alloc");
        assert_eq!(v[0].line, 11, "the step's call site");
        assert_eq!(
            v[0].chain,
            [
                "SrecInstance::step",
                "assemble",
                "GroundAction::apply",
                "clone()"
            ]
        );
    };

    // The manifest does not pull in rtr-planning: no edge, no finding.
    let independent = (
        "crates/perception/Cargo.toml",
        "[package]\nname = \"rtr-perception\"\n\n[dependencies]\nrtr-geom.workspace = true\n",
    );
    let f = lint(&[independent, planning]);
    assert!(f.is_empty(), "{f:?}");

    // Declaring the dependency makes the call resolvable again...
    let dependent = (
        "crates/perception/Cargo.toml",
        "[package]\nname = \"rtr-perception\"\n\n[dependencies]\nrtr-planning.workspace = true\n",
    );
    assert_chain(&lint(&[dependent, planning]));
    // ...and so does a missing manifest: unknown dependencies rule nothing out.
    assert_chain(&lint(&[]));
}

#[test]
fn tokens_in_strings_and_comments_are_ignored() {
    let f = kernel(include_str!("fixtures/strings_and_comments_clean.rs"));
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn fixture_findings_reach_the_report() {
    let mut findings = Vec::new();
    findings.extend(kernel(include_str!("fixtures/r3_hot_alloc_bad.rs")));
    findings.extend(kernel(include_str!(
        "fixtures/transitive_two_hop_allowed.rs"
    )));
    let report = Report {
        version: 2,
        files_scanned: 2,
        elapsed_ms: 3,
        findings,
    };
    assert!(report.violations().count() > 0);
    assert!(report.allowed().count() > 0);
}

#[test]
fn transitive_two_hop_fixture_is_flagged_with_full_chains() {
    let f = kernel(include_str!("fixtures/transitive_two_hop_bad.rs"));
    let v = violations(&f);
    assert_eq!(v.len(), 1, "{f:?}");
    assert_eq!(v[0].rule, "hot-alloc");
    assert_eq!(v[0].line, 6, "finding sits on the entry's call site");
    assert_eq!(v[0].chain, ["mul_into", "stage", "grow", "Vec::new"]);
    assert!(v[0]
        .message
        .contains("mul_into -> stage -> grow -> Vec::new"));
}

#[test]
fn transitive_two_hop_allowed_fixture_passes_deny() {
    let f = kernel(include_str!("fixtures/transitive_two_hop_allowed.rs"));
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "hot-alloc");
    assert!(!f[0].chain.is_empty(), "still carries the chain evidence");
    assert!(violations(&f).is_empty(), "{f:?}");
}

#[test]
fn allow_comment_reaches_past_attribute_lines() {
    let f = kernel(include_str!("fixtures/allow_attr_skip.rs"));
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "hot-alloc");
    assert_eq!(f[0].line, 8, "the Vec::new two attributes below");
    assert!(f[0].allowed.is_some(), "{f:?}");
}

/// Satellite guard: one full workspace pass (lex + index + call graph +
/// fixpoint + every rule) must stay interactive. The 5 s budget is far
/// above the observed ~0.6 s debug-build time but low enough to catch
/// an accidental quadratic blowup in the resolver or fixpoint.
#[test]
fn full_workspace_pass_stays_under_the_latency_guard() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &root, &mut files);
    assert!(files.len() > 50, "workspace walk broke: {}", files.len());
    // Instant::now is legal here: crates/lint is a measurement crate.
    let start = std::time::Instant::now();
    let findings = rtr_lint::lint_workspace(&files);
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "full pass took {elapsed:?} over {} files",
        files.len()
    );
    // The committed workspace is clean under --deny.
    assert!(
        findings.iter().all(|f| f.allowed.is_some()),
        "workspace has unallowed violations: {:?}",
        findings
            .iter()
            .filter(|f| f.allowed.is_none())
            .collect::<Vec<_>>()
    );
}

fn collect_rs(dir: &std::path::Path, root: &std::path::Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            // Match the CLI walk: crate `src/` trees only — never
            // tests/, benches/, or fixture corpora.
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let under_crates = dir.file_name().is_some_and(|n| n == "crates");
            if under_crates {
                // Each crate's manifest joins the pass, as in the CLI walk:
                // it scopes cross-crate call resolution.
                push_file(&path.join("Cargo.toml"), root, out);
            }
            if under_crates || name == "src" || dir.to_str().is_some_and(|s| s.contains("/src")) {
                collect_rs(&path, root, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs")
            && path.to_str().is_some_and(|s| s.contains("/src/"))
        {
            push_file(&path, root, out);
        }
    }
}

fn push_file(path: &std::path::Path, root: &std::path::Path, out: &mut Vec<(String, String)>) {
    if let Ok(text) = std::fs::read_to_string(path) {
        let rel = path.strip_prefix(root).unwrap().to_string_lossy();
        out.push((rel.into_owned(), text));
    }
}
