//! The contracts rtr-lint leaves to the compiler stay configured:
//! rustc's `unsafe_code = "forbid"` for every target of every suite
//! crate; clippy's `disallowed-types` for `HashMap`/`HashSet` in every
//! kernel crate and for the cache simulator's types in `rtr-core`;
//! clippy's `disallowed-methods` for the wall clock outside the
//! measurement crates; and no algorithm crate depending on the
//! simulator, so rustc rejects any `rtr_archsim` path there. CI's `cargo
//! clippy --workspace --all-targets -- -D warnings` enforces them; these
//! tests fail when the configuration that arms them is removed.

use std::path::{Path, PathBuf};

/// Crates that own measurement and may read the wall clock: `bench` and
/// `harness` time the suite, `lint` times its own pass, and the scenario
/// runner times its pipeline stages.
const CLOCK_CRATES: [&str; 4] = ["bench", "harness", "lint", "scenario"];

/// Crates whose outputs are benchmark kernel results: hash-iteration
/// order must never reach them (ROADMAP determinism contract), so each
/// one's `clippy.toml` disallows `HashMap`/`HashSet`. `scenario` is here
/// because its golden replay is the same contract at closed-loop scale:
/// byte-identical at any thread count.
const KERNEL_CRATES: [&str; 7] = [
    "control",
    "core",
    "geom",
    "perception",
    "planning",
    "scenario",
    "sim",
];

/// Crates whose code is generic over the `MemTrace` sink and never names
/// the cache simulator; `rtr-core` wires it up in `src/trace.rs` alone.
const LAYERED_CRATES: [&str; 6] = [
    "control",
    "geom",
    "perception",
    "planning",
    "scenario",
    "sim",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The directory names of every suite crate under `crates/`.
fn suite_crates() -> Vec<String> {
    let mut crates: Vec<String> = std::fs::read_dir(root().join("crates"))
        .expect("crates/ lists")
        .map(|entry| entry.expect("crates/ entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .map(|dir| dir.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    crates.sort();
    assert!(crates.len() > 14, "workspace walk broke: {crates:?}");
    crates
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

/// The names `rtr-archsim`'s crate root re-exports. Its modules are
/// private, so these are every public type of the simulator; a root
/// `pub` item other than a `pub use` of named items fails the test,
/// because core's `clippy.toml` could not list what it exports.
fn simulator_types() -> Vec<String> {
    let path = root().join("crates/archsim/src/lib.rs");
    let code = read(&path)
        .lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join(" ");
    let mut names = Vec::new();
    for (at, _) in code.match_indices("pub") {
        let word_start = !code[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_');
        let rest = &code[at + "pub".len()..];
        if !word_start || !rest.starts_with(char::is_whitespace) {
            continue; // part of a longer word, or `pub(crate)`
        }
        let item = rest.split(';').next().unwrap_or("").trim();
        let path_list = item
            .strip_prefix("use ")
            .filter(|p| !p.contains('*'))
            .unwrap_or_else(|| panic!("{} exports `pub {item}`", path.display()));
        let list = match path_list.split_once('{') {
            Some((_, list)) => list.trim_end().trim_end_matches('}'),
            None => path_list,
        };
        for name in list.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            let name = name.rsplit(" as ").next().unwrap_or(name);
            names.push(name.rsplit("::").next().unwrap_or(name).trim().to_owned());
        }
    }
    assert!(
        names.iter().any(|n| n == "MemorySim"),
        "re-export walk broke: {names:?}"
    );
    names
}

/// A crate's `clippy.toml` without comment lines, on one line with
/// whitespace squeezed to single spaces.
fn clippy_config(krate: &str) -> (PathBuf, String) {
    let path = root().join("crates").join(krate).join("clippy.toml");
    let config = read(&path)
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .flat_map(|l| l.split_whitespace())
        .collect::<Vec<_>>()
        .join(" ");
    (path, config)
}

/// Asserts that `config` sets `key` and lists every path in `paths`.
fn assert_disallows(path: &Path, config: &str, key: &str, paths: &[String]) {
    assert!(
        config.contains(&format!("{key} = [")),
        "{}: {config}",
        path.display()
    );
    for item in paths {
        assert!(
            config.contains(&format!("path = \"{item}\"")),
            "{} does not disallow {item}",
            path.display()
        );
    }
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
    let crates = suite_crates().into_iter();
    let manifests = crates.map(|k| root().join("crates").join(k).join("Cargo.toml"));
    for manifest in std::iter::once(root().join("Cargo.toml")).chain(manifests) {
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
    for krate in KERNEL_CRATES {
        let (path, config) = clippy_config(krate);
        let types = ["HashMap", "HashSet"].map(|ty| format!("std::collections::{ty}"));
        assert_disallows(&path, &config, "disallowed-types", &types);
    }
}

#[test]
fn crates_outside_the_measurement_crates_disallow_the_clock() {
    let checked: Vec<String> = suite_crates()
        .into_iter()
        .filter(|k| !CLOCK_CRATES.contains(&k.as_str()))
        .collect();
    assert!(checked.len() >= 11, "{checked:?}");
    let methods = ["Instant", "SystemTime"].map(|ty| format!("std::time::{ty}::now"));
    for krate in &checked {
        let (path, config) = clippy_config(krate);
        assert_disallows(&path, &config, "disallowed-methods", &methods);
    }
}

#[test]
fn core_disallows_the_simulator_types() {
    let (path, config) = clippy_config("core");
    let types: Vec<String> = simulator_types()
        .iter()
        .map(|ty| format!("rtr_archsim::{ty}"))
        .collect();
    assert_disallows(&path, &config, "disallowed-types", &types);
}

#[test]
fn layered_crates_do_not_depend_on_the_simulator() {
    for krate in LAYERED_CRATES {
        let path = root().join("crates").join(krate).join("Cargo.toml");
        let mut table = String::new();
        for line in read(&path).lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.starts_with('[') {
                table = line.to_owned();
            }
            assert!(
                !(table.contains("dependencies") && line.contains("archsim")),
                "{} names the cache simulator in {table}: {line}",
                path.display()
            );
        }
    }
}
