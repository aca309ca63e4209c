//! The `scenario` binary's input boundary: a count too large to run is
//! a typed error that names the option (exit 1), never an abort on
//! allocation.

use std::process::Command;

#[test]
fn huge_counts_exit_1_naming_the_option() {
    for option in ["ticks", "particles"] {
        let flag = format!("--{option}");
        let out = Command::new(env!("CARGO_BIN_EXE_scenario"))
            .args([flag.as_str(), "1000000000000"])
            .output()
            .expect("scenario binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(stderr.contains(&flag), "{flag}: {stderr}");
    }
}
