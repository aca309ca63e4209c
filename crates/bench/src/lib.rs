//! Shared helpers for the RTRBench-rs experiment binaries.
//!
//! Every table and figure in the paper's evaluation has a regenerator
//! binary in `src/bin/` (see DESIGN.md's experiment index):
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `exp_table1` | Table I |
//! | `exp_pfl` | Fig. 2 + §V.01 |
//! | `exp_ekfslam` | Fig. 3 + §V.02 |
//! | `exp_srec` | Fig. 4 + §V.03 |
//! | `exp_pp2d` | Fig. 5 + §V.04 |
//! | `exp_pp3d` | Fig. 6 + §V.05 |
//! | `exp_movtar` | Fig. 7 + §V.06 |
//! | `exp_arm_planners` | Figs. 8–12 + §V.07–§V.10 |
//! | `exp_symbolic` | Figs. 13–14 + §V.11–§V.12 |
//! | `exp_dmp` | Fig. 15 + §V.13 |
//! | `exp_mpc` | Fig. 16 + §V.14 |
//! | `exp_rl` | Figs. 17–19 + §V.15–§V.16 |
//! | `exp_librarycomp` | Fig. 21 (§VII) |

pub mod characterization;

use std::time::{Duration, Instant};

use rtr_harness::{usage_error, Args, OptionSpec};

/// Parses the command line of experiment binary `bin` against the
/// options it declares. `--help` prints the usage and exits 0; a
/// malformed command line or an undeclared option (a typo such as
/// `--threadz`) exits 2 naming it, before any work starts.
pub fn parse_args(bin: &str, options: &[OptionSpec]) -> Args {
    let args = Args::parse_env().unwrap_or_else(|e| usage_error(bin, e));
    if args.wants_help() {
        println!("{}", Args::usage(bin, options));
        std::process::exit(0);
    }
    args.reject_undeclared(options, &[])
        .unwrap_or_else(|e| usage_error(bin, e));
    args
}

/// Times one closure invocation.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Formats seconds in engineering notation matching the paper's Fig. 21
/// table (`4.03E-04`).
pub fn eng(seconds: f64) -> String {
    format!("{seconds:.2E}")
}

/// Renders a numeric series as a coarse ASCII sparkline (for the
/// figure-shaped outputs).
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: &[u8] = b" .:-=+*#%@";
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    values
        .iter()
        .map(|v| {
            let idx = ((v - lo) / span * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[idx.min(LEVELS.len() - 1)] as char
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eng_matches_paper_format() {
        assert_eq!(eng(0.000403), "4.03E-4");
        assert_eq!(eng(2.2), "2.20E0");
    }

    #[test]
    fn sparkline_spans_levels() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.chars().next(), Some(' '));
        assert_eq!(s.chars().last(), Some('@'));
        assert!(sparkline(&[]).is_empty());
    }

    #[test]
    fn time_once_returns_value() {
        let (v, d) = time_once(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}
