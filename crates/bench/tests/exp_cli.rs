//! Every experiment binary checks its command line against the options
//! it declares: a mistyped option, or a thread count above the pool's
//! cap, exits 2 naming it before any work starts, and every option CI,
//! README.md and EXPERIMENTS.md pass is declared.

use std::process::Command;

/// Every `exp_*` binary with the options the docs and CI pass it.
const BINARIES: &[(&str, &[&str])] = &[
    (
        env!("CARGO_BIN_EXE_exp_arm_planners"),
        &["seeds", "threads"],
    ),
    (
        env!("CARGO_BIN_EXE_exp_characterization"),
        &["full", "vldp", "threads", "out", "telemetry"],
    ),
    (env!("CARGO_BIN_EXE_exp_dmp"), &[]),
    (env!("CARGO_BIN_EXE_exp_ekfslam"), &[]),
    (env!("CARGO_BIN_EXE_exp_librarycomp"), &["max-scale"]),
    (env!("CARGO_BIN_EXE_exp_movtar"), &[]),
    (env!("CARGO_BIN_EXE_exp_mpc"), &[]),
    (env!("CARGO_BIN_EXE_exp_pfl"), &["threads"]),
    (env!("CARGO_BIN_EXE_exp_pp2d"), &["size"]),
    (env!("CARGO_BIN_EXE_exp_pp3d"), &["size"]),
    (env!("CARGO_BIN_EXE_exp_rl"), &["threads"]),
    (env!("CARGO_BIN_EXE_exp_srec"), &["threads"]),
    (env!("CARGO_BIN_EXE_exp_symbolic"), &[]),
    (env!("CARGO_BIN_EXE_exp_table1"), &[]),
];

#[test]
fn undeclared_options_exit_2_naming_the_option() {
    for &(binary, _) in BINARIES {
        let out = Command::new(binary)
            .args(["--bogus", "1"])
            .output()
            .expect("binary runs");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{binary}: {err}");
        assert!(err.contains("--bogus"), "{binary}: {err}");
        assert!(out.stdout.is_empty(), "{binary} started its experiment");
    }
}

#[test]
fn thread_counts_above_the_cap_exit_2_naming_threads() {
    for &(binary, options) in BINARIES {
        if !options.contains(&"threads") {
            continue;
        }
        for count in ["257", "1000000000000"] {
            let out = Command::new(binary)
                .args(["--threads", count])
                .output()
                .expect("binary runs");
            let err = String::from_utf8(out.stderr).unwrap();
            assert_eq!(out.status.code(), Some(2), "{binary} {count}: {err}");
            assert!(err.contains("--threads"), "{binary}: {err}");
            assert!(out.stdout.is_empty(), "{binary} started its experiment");
        }
    }
}

#[test]
fn documented_options_are_declared() {
    for &(binary, options) in BINARIES {
        let out = Command::new(binary)
            .arg("--help")
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{binary} --help");
        let usage = String::from_utf8(out.stdout).unwrap();
        for option in options {
            assert!(
                usage.contains(&format!("--{option} ")),
                "{binary} does not declare --{option}:\n{usage}"
            );
        }
    }
}
