//! Property-based tests for the harness: CLI round-trips and profiler
//! accounting.

use proptest::prelude::*;
use rtr_harness::{Args, CliError, Profiler};
use std::time::Duration;

proptest! {
    #[test]
    fn numeric_options_round_trip(value in -1.0e6..1.0e6f64) {
        let rendered = format!("{value}");
        let args = Args::parse_tokens(&["--x", &rendered]).unwrap();
        let got = args.get_f64("x", 0.0).unwrap();
        prop_assert!((got - value).abs() < 1e-9_f64.max(value.abs() * 1e-12));
    }

    #[test]
    fn usize_options_round_trip(value in 0usize..1_000_000) {
        let rendered = value.to_string();
        let args = Args::parse_tokens(&["--n", &rendered]).unwrap();
        prop_assert_eq!(args.get_usize("n", 0).unwrap(), value);
    }

    #[test]
    fn flags_and_options_do_not_interfere(
        flag_first in prop::bool::ANY,
        n in 0usize..1000,
    ) {
        let rendered = n.to_string();
        let tokens: Vec<&str> = if flag_first {
            vec!["--verbose", "--n", &rendered]
        } else {
            vec!["--n", &rendered, "--verbose"]
        };
        let args = Args::parse_tokens(&tokens).unwrap();
        prop_assert!(args.get_flag("verbose"));
        prop_assert_eq!(args.get_usize("n", usize::MAX).unwrap(), n);
    }

    #[test]
    fn profiler_addition_is_exact(
        durations in prop::collection::vec(0u64..1_000_000, 1..50),
    ) {
        let mut p = Profiler::new();
        let mut expected = Duration::ZERO;
        for &micros in &durations {
            let d = Duration::from_micros(micros);
            p.add("region", d);
            expected += d;
        }
        prop_assert_eq!(p.region_total("region"), expected);
        prop_assert_eq!(p.region_calls("region"), durations.len() as u64);
    }

    #[test]
    fn report_is_sorted_and_complete(
        totals in prop::collection::vec(0u64..1_000_000, 1..10),
    ) {
        let names: Vec<&'static str> = vec![
            "r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9",
        ];
        let mut p = Profiler::new();
        for (i, &micros) in totals.iter().enumerate() {
            p.add(names[i], Duration::from_micros(micros));
        }
        let report = p.report();
        prop_assert_eq!(report.len(), totals.len());
        for w in report.windows(2) {
            prop_assert!(w[0].total >= w[1].total);
        }
        let sum: Duration = report.iter().map(|r| r.total).sum();
        prop_assert_eq!(sum, totals.iter().map(|&m| Duration::from_micros(m)).sum());
    }
}

/// Command-line tokens: option names, help aliases, numbers that parse,
/// overflow or do not, and junk.
const TOKENS: [&str; 18] = [
    "--n",
    "--x",
    "--help",
    "-h",
    "--",
    "---n",
    "-",
    "0",
    "-1",
    "1.5",
    "nan",
    "inf",
    "1e999",
    "18446744073709551616",
    "n",
    "",
    "é",
    "--é",
];

/// Names every getter is asked for, including the empty name `--` yields.
const NAMES: [&str; 5] = ["n", "x", "help", "", "-n"];

proptest! {
    #[test]
    fn parse_then_every_getter_never_panics(
        picks in prop::collection::vec(0..TOKENS.len(), 0..10),
        bytes in prop::collection::vec(prop::collection::vec(0u8..=255, 0..6), 0..4),
    ) {
        let mut owned: Vec<String> = picks.iter().map(|&i| TOKENS[i].to_owned()).collect();
        owned.extend(bytes.iter().map(|b| String::from_utf8_lossy(b).into_owned()));
        let tokens: Vec<&str> = owned.iter().map(String::as_str).collect();
        let Ok(args) = Args::parse_tokens(&tokens) else {
            return Ok(());
        };
        let _ = (args.names(), args.wants_help());
        for name in NAMES {
            let bare = args.get_flag(name);
            let _ = args.get_str(name, "default");
            let results = [
                args.get_f64(name, 0.5).err(),
                args.get_usize(name, 5).err(),
                args.get_u64(name, 5).err(),
            ];
            for err in results {
                // A name given as a bare switch is a missing value for
                // every numeric getter; anything else parses or is a
                // bad value.
                prop_assert_eq!(
                    matches!(err, Some(CliError::MissingValue(_))),
                    bare,
                    "{:?} --{}", tokens, name
                );
            }
        }
    }
}
