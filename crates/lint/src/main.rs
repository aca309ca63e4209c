//! `rtr-lint` CLI: walks every `crates/*/src/**/*.rs` file and crate
//! `Cargo.toml`, runs the workspace rule engine (one lex per file,
//! interprocedural phase included), prints human-readable findings, and
//! writes `LINT_report.json`.
//!
//! ```text
//! rtr-lint [--root <dir>] [--report <path>] [--baseline <path>] [--deny]
//! rtr-lint --explain <rule>
//! ```
//!
//! `--deny` turns any un-allowed finding into a non-zero exit (the CI
//! gate). Allowed findings are always reported with their reasons but
//! never fail the run. `--baseline <path>` byte-compares the freshly
//! generated report against a committed one (ignoring the volatile
//! `elapsed_ms` line) and fails on any difference — so new findings
//! *and* silently vanished coverage both break the build. The baseline
//! is read before the report is written, and the report is never
//! written over it (so `--baseline LINT_report.json` without `--report`
//! compares and leaves the file alone). `--explain` prints a rule's
//! one-paragraph spec and exits.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use rtr_lint::{explain, lint_workspace, Report};

struct Args {
    root: PathBuf,
    report: Option<PathBuf>,
    baseline: Option<PathBuf>,
    deny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut root = PathBuf::from(".");
    let mut report = None;
    let mut baseline = None;
    let mut deny = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(it.next().ok_or("--root needs a directory argument")?);
            }
            "--report" => {
                report = Some(PathBuf::from(
                    it.next().ok_or("--report needs a path argument")?,
                ));
            }
            "--baseline" => {
                baseline = Some(PathBuf::from(
                    it.next().ok_or("--baseline needs a path argument")?,
                ));
            }
            "--explain" => {
                let rule = it.next().ok_or("--explain needs a rule name")?;
                match explain(&rule) {
                    Some(spec) => {
                        println!("{spec}");
                        println!();
                        println!(
                            "suppress with: // rtr-lint: allow({rule}) -- <reason> \
                             (covers its own line and the next non-attribute line)"
                        );
                        std::process::exit(0);
                    }
                    None => {
                        return Err(format!(
                            "unknown rule {rule:?}; known rules: {}",
                            rtr_lint::RULES.join(", ")
                        ))
                    }
                }
            }
            "--deny" => deny = true,
            "--help" | "-h" => {
                println!(
                    "usage: rtr-lint [--root <dir>] [--report <path>] [--baseline <path>] [--deny]\n       rtr-lint --explain <rule>"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        root,
        report,
        baseline,
        deny,
    })
}

/// Collects every `.rs` file under `crates/*/src/` plus each crate's
/// `Cargo.toml` (the `layering` rule checks manifests too), sorted so
/// output and the JSON report are stable across filesystems.
fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            out.push(manifest);
        }
        let src = dir.join("src");
        if src.is_dir() {
            walk(&src, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Whether two paths name one existing file.
fn same_file(a: &Path, b: &Path) -> bool {
    match (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    }
}

/// Strips the volatile timing line so two reports from different runs
/// over identical sources compare byte-equal.
fn strip_elapsed(text: &str) -> String {
    text.lines()
        .filter(|l| !l.contains("\"elapsed_ms\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Byte-compares the fresh report against the committed baseline,
/// printing the first few differing lines on mismatch.
fn baseline_matches(fresh: &str, baseline: &str) -> bool {
    let fresh = strip_elapsed(fresh);
    let baseline = strip_elapsed(baseline);
    if fresh == baseline {
        return true;
    }
    eprintln!("rtr-lint: report differs from the committed baseline:");
    let f: Vec<&str> = fresh.lines().collect();
    let b: Vec<&str> = baseline.lines().collect();
    let mut shown = 0;
    for i in 0..f.len().max(b.len()) {
        let fl = f.get(i).copied().unwrap_or("<missing>");
        let bl = b.get(i).copied().unwrap_or("<missing>");
        if fl != bl {
            eprintln!("  line {}:", i + 1);
            eprintln!("    baseline: {bl}");
            eprintln!("    fresh:    {fl}");
            shown += 1;
            if shown >= 5 {
                eprintln!("  ... (further differences elided)");
                break;
            }
        }
    }
    eprintln!(
        "rtr-lint: if the change is intentional, regenerate the baseline with \
         `cargo run -p rtr-lint` and commit LINT_report.json"
    );
    false
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rtr-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let started = Instant::now();
    let files = match collect_sources(&args.root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("rtr-lint: cannot walk {}/crates: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for path in &files {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rtr-lint: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let rel = path
            .strip_prefix(&args.root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, source));
    }

    let findings = lint_workspace(&sources);
    let elapsed_ms = started.elapsed().as_millis() as u64;

    let report = Report {
        version: 2,
        files_scanned: sources.len() as u64,
        elapsed_ms,
        findings,
    };

    let violations = report.violations().count();
    let allowed = report.allowed().count();
    let scanned = report.files_scanned;

    for f in &report.findings {
        println!("{f}");
    }
    println!(
        "rtr-lint: {scanned} files scanned in {elapsed_ms} ms, {violations} violation{}, {allowed} allowed",
        if violations == 1 { "" } else { "s" }
    );
    if allowed > 0 {
        println!("allow annotations in effect:");
        for f in report.allowed() {
            println!(
                "  {}:{} [{}] -- {}",
                f.file,
                f.line,
                f.rule,
                f.allowed.as_deref().unwrap_or("")
            );
        }
    }

    // Read the baseline before writing anything, and never write the
    // report over it: the default report path is the committed
    // baseline's, and writing first compared the fresh report with
    // itself.
    let baseline = match &args.baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => Some((path, text)),
            Err(e) => {
                eprintln!("rtr-lint: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    let json = report.to_json();
    let report_path = args
        .report
        .unwrap_or_else(|| args.root.join("LINT_report.json"));
    let is_baseline = baseline
        .as_ref()
        .is_some_and(|(path, _)| same_file(path, &report_path));
    if is_baseline {
        println!(
            "report not written: {} is the baseline (pass --report to keep it)",
            report_path.display()
        );
    } else if let Err(e) = std::fs::write(&report_path, &json) {
        eprintln!("rtr-lint: cannot write {}: {e}", report_path.display());
        return ExitCode::from(2);
    } else {
        println!("report written to {}", report_path.display());
    }

    if let Some((baseline_path, baseline)) = baseline {
        if !baseline_matches(&json, &baseline) {
            return ExitCode::FAILURE;
        }
        println!("baseline match: {}", baseline_path.display());
    }

    if args.deny && violations > 0 {
        eprintln!("rtr-lint: --deny set and {violations} un-allowed finding(s) present");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
