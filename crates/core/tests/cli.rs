//! Integration tests driving the `rtr` binary itself — the paper's §VI
//! usage contract (Fig. 20).

use std::process::Command;

fn rtr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rtr"))
}

#[test]
fn list_shows_all_sixteen_kernels() {
    let out = rtr().arg("--list").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for kernel in [
        "01.pfl",
        "04.pp2d",
        "08.rrt",
        "11.sym-blkw",
        "13.dmp",
        "16.bo",
    ] {
        assert!(text.contains(kernel), "missing {kernel} in --list");
    }
}

#[test]
fn help_message_matches_fig20_shape() {
    let out = rtr().args(["rrt", "--help"]).output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE:"));
    assert!(text.contains("OPTIONS:"));
    assert!(text.contains("--samples"));
    assert!(text.contains("--help, -h"));
}

#[test]
fn kernel_runs_and_reports_regions() {
    let out = rtr()
        .args(["cem", "--iterations", "3"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("15.cem"));
    assert!(text.contains("sort"));
    assert!(text.contains("best reward"));
}

#[test]
fn json_output_is_machine_readable() {
    let out = rtr()
        .args(["sym-blkw", "--blocks", "3", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.trim_start().starts_with('{'));
    assert!(text.contains("\"kernel\": \"11.sym-blkw\""));
    assert!(text.contains("\"regions\""));
    assert!(text.contains("\"metrics\""));
}

#[test]
fn unknown_kernel_fails_with_message() {
    let out = rtr().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown kernel"));
}

#[test]
fn bad_option_value_fails_cleanly() {
    let out = rtr()
        .args(["cem", "--iterations", "lots"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("iterations"));
}

#[test]
fn undeclared_option_fails_naming_it() {
    for (argv, option) in [
        (
            ["prm", "--roadmap-size", "200"].as_slice(),
            "--roadmap-size",
        ),
        (["prm", "--kdtree"].as_slice(), "--kdtree"),
        (
            ["cem", "--json", "--iteration", "3"].as_slice(),
            "--iteration",
        ),
    ] {
        let out = rtr().args(argv).output().expect("binary runs");
        assert!(!out.status.success(), "{argv:?} must be rejected");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains(&format!("unknown option {option}")),
            "{argv:?}: {err}"
        );
    }
}
