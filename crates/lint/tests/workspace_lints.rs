//! The two contracts rtr-lint leaves to the compiler stay configured:
//! rustc's `unsafe_code = "forbid"` for every target of every suite
//! crate, and clippy's `disallowed-types` for `HashMap`/`HashSet` in
//! every kernel crate. CI's `cargo clippy --workspace --all-targets --
//! -D warnings` enforces both; these tests fail when the configuration
//! that arms them is removed.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The non-empty lines of TOML table `[name]`, comments dropped and
/// whitespace squeezed to single spaces.
fn table(toml: &str, name: &str) -> Vec<String> {
    let header = format!("[{name}]");
    toml.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

#[test]
fn unsafe_code_is_forbidden_workspace_wide() {
    let lints = table(&read(&root().join("Cargo.toml")), "workspace.lints.rust");
    assert!(
        lints.iter().any(|l| l == "unsafe_code = \"forbid\""),
        "[workspace.lints.rust] must forbid unsafe_code: {lints:?}"
    );
}

#[test]
fn every_suite_crate_inherits_the_workspace_lints() {
    let mut manifests = vec![root().join("Cargo.toml")];
    for entry in std::fs::read_dir(root().join("crates")).expect("crates/ lists") {
        let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 15, "workspace walk broke: {manifests:?}");
    for manifest in manifests {
        let lints = table(&read(&manifest), "lints");
        assert!(
            lints.iter().any(|l| l == "workspace = true"),
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
    }
}

#[test]
fn kernel_crates_disallow_hash_ordered_containers() {
    for krate in rtr_lint::KERNEL_CRATES {
        let path = root().join("crates").join(krate).join("clippy.toml");
        let config: String = read(&path)
            .lines()
            .filter(|l| !l.trim_start().starts_with('#'))
            .flat_map(|l| l.split_whitespace())
            .collect::<Vec<_>>()
            .join(" ");
        assert!(
            config.contains("disallowed-types = ["),
            "{}: {config}",
            path.display()
        );
        for ty in ["HashMap", "HashSet"] {
            assert!(
                config.contains(&format!("path = \"std::collections::{ty}\"")),
                "{} does not disallow {ty}",
                path.display()
            );
        }
    }
}
