//! `exp_characterization` rejects bad option values before it runs the
//! sweep: exit status 2 and a message naming the option, never a silent
//! fall back to the default.

use std::process::Command;

#[test]
fn bad_values_exit_2_naming_the_option() {
    for (argv, option) in [
        (["--vldp", "bogus"], "--vldp"),
        (["--vldp", "65"], "--vldp"),
        (["--vldp", "1000000000000"], "--vldp"),
        (["--threads", "bogus"], "--threads"),
        (["--threads", "-1"], "--threads"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_exp_characterization"))
            .args(argv)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(option), "{argv:?}: {err}");
        assert!(out.stdout.is_empty(), "{argv:?} started the sweep");
    }
}
