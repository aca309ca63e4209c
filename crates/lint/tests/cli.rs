//! The `rtr-lint` binary's contracts: a stale baseline fails the run and
//! stays as it was, even when it sits at the default report path, and
//! `--explain` exits 2 for a rule it does not check.

use std::path::PathBuf;
use std::process::Command;

/// A one-crate workspace in a fresh temporary directory.
fn scratch_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("rtr-lint-{name}-{}", std::process::id()));
    let src = root.join("crates/demo/src");
    std::fs::create_dir_all(&src).expect("create the scratch crate");
    std::fs::write(
        root.join("crates/demo/Cargo.toml"),
        "[package]\nname = \"demo\"\n",
    )
    .unwrap();
    std::fs::write(
        src.join("lib.rs"),
        "//! Demo.\n\n/// Adds one.\npub fn inc(x: u32) -> u32 {\n    x + 1\n}\n",
    )
    .unwrap();
    root
}

fn rtr_lint(root: &std::path::Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rtr-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("rtr-lint runs")
}

#[test]
fn a_stale_baseline_at_the_default_report_path_fails_and_is_kept() {
    let root = scratch_root("stale");
    let baseline = root.join("LINT_report.json");
    let stale = "{\n  \"version\": 2,\n  \"files_scanned\": 0,\n  \"findings\": []\n}\n";
    std::fs::write(&baseline, stale).unwrap();

    let out = rtr_lint(&root, &["--baseline", baseline.to_str().unwrap()]);
    let kept = std::fs::read_to_string(&baseline).unwrap();
    std::fs::remove_dir_all(&root).ok();

    assert!(!out.status.success(), "a stale baseline must fail the run");
    assert!(String::from_utf8_lossy(&out.stderr).contains("differs from the committed baseline"));
    assert_eq!(kept, stale, "the baseline file was overwritten");
}

#[test]
fn a_fresh_baseline_matches() {
    let root = scratch_root("fresh");
    let baseline = root.join("baseline.json");
    let report = rtr_lint(&root, &["--report", baseline.to_str().unwrap()]);
    assert!(report.status.success());

    let out = rtr_lint(&root, &["--deny", "--baseline", baseline.to_str().unwrap()]);
    std::fs::remove_dir_all(&root).ok();

    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("baseline match"));
}

/// Retired rules: five left to the compiler (`trace-gated` to the
/// `Gated` token emission takes), `atomic-ordering`, whose lock-free
/// files the channel transport replaced, and `par-rng`, whose
/// `chunk_seed` remedy the pool no longer offers.
#[test]
fn retired_rules_are_unknown() {
    for rule in [
        "nondet-iter",
        "unsafe-hygiene",
        "atomic-ordering",
        "wall-clock",
        "layering",
        "par-rng",
        "trace-gated",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rtr-lint"))
            .args(["--explain", rule])
            .output()
            .expect("rtr-lint runs");
        assert_eq!(out.status.code(), Some(2), "--explain {rule}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown rule"));
    }
}
