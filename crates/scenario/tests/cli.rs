//! The `scenario` binary's input boundary: a usage error (an undeclared
//! option, or a count too large or too small to run) exits 2 naming the
//! option, never an abort on allocation or a silent rewrite, and a run
//! that fails after its arguments were accepted exits 1.

use std::process::Command;

fn scenario(argv: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(argv)
        .output()
        .expect("scenario binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_counts_exit_2_naming_the_option() {
    for (flag, value) in [
        ("--ticks", "1000000000000"),
        ("--particles", "1000000000000"),
        ("--threads", "1000000000000"),
        ("--particles", "3"),
    ] {
        let (code, stderr) = scenario(&[flag, value]);
        assert_eq!(code, Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    }
}

#[test]
fn undeclared_option_exits_2_naming_it() {
    let (code, stderr) = scenario(&["--bogus", "1"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--bogus"), "{stderr}");
}

#[test]
fn unroutable_seed_exits_1() {
    // Seed 1's endpoints have no route between them (see the route
    // fixture): the arguments are fine, the run fails.
    let (code, stderr) = scenario(&["--seed", "1", "--ticks", "1"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("no route"), "{stderr}");
}
