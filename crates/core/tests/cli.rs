//! Integration tests driving the `rtr` binary itself — the paper's §VI
//! usage contract (Fig. 20). A usage error exits 2, a failed run 1.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

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
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown kernel"));
}

#[test]
fn missing_kernel_exits_2_with_usage() {
    let out = rtr().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stdout).unwrap().contains("USAGE:"));
}

#[test]
fn bad_option_value_fails_cleanly() {
    for (argv, option) in [
        (["cem", "--iterations", "lots"].as_slice(), "iterations"),
        (
            ["pfl", "--particles", "1000000000000"].as_slice(),
            "particles",
        ),
        (["cem", "--threads"].as_slice(), "threads"),
    ] {
        let out = rtr().args(argv).output().expect("binary runs");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {err}");
        assert!(err.contains(option), "{argv:?}: {err}");
    }
}

#[test]
fn undeclared_option_fails_naming_it() {
    for (argv, option) in [
        (["pfl", "--bogus", "1"].as_slice(), "--bogus"),
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
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {err}");
        assert!(
            err.contains(&format!("unknown option {option}")),
            "{argv:?}: {err}"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "grounding 64 blocks alone takes tens of seconds in debug; run with --release"
)]
fn symbolic_search_stops_at_its_budget_within_time_and_memory() {
    // Each run is a child under a 1 GiB address-space limit, killed after
    // 10 s: an unbounded search aborts or times out instead of growing.
    for blocks in ["16", "64"] {
        #[expect(
            clippy::disallowed_methods,
            reason = "the test bounds its child process's run time"
        )]
        let start = Instant::now();
        let mut child = Command::new("sh")
            .args([
                "-c",
                "ulimit -v 1048576 && exec \"$0\" sym-blkw --blocks \"$1\"",
                env!("CARGO_BIN_EXE_rtr"),
                blocks,
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("sh runs");
        let status = loop {
            if let Some(status) = child.try_wait().expect("child status") {
                break status;
            }
            if start.elapsed() > Duration::from_secs(10) {
                child.kill().expect("kill the child");
                panic!("--blocks {blocks} still searching after 10 s");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut err = String::new();
        child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut err)
            .expect("utf-8 stderr");
        assert_eq!(status.code(), Some(1), "--blocks {blocks}: {err}");
        assert!(err.contains("SEARCH_BUDGET"), "--blocks {blocks}: {err}");
    }
}
