//! Dependency-free command-line parsing in the style of the paper's
//! Fig. 20 (`./rrt.out --help`).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Description of one `--option <val>` for the help message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptionSpec {
    /// Option name without the leading dashes (e.g. `"epsilon"`).
    pub name: &'static str,
    /// One-line description shown by `--help`.
    pub help: &'static str,
}

/// Errors produced while parsing or reading command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CliError {
    /// An option was given without a value (e.g. trailing `--map`).
    MissingValue(String),
    /// A value could not be parsed as the requested type.
    BadValue {
        /// Option name.
        option: String,
        /// The raw value that failed to parse.
        value: String,
        /// The type that was requested.
        expected: &'static str,
    },
    /// A positional (non `--`) token appeared; the suite's kernels take
    /// options only.
    UnexpectedPositional(String),
    /// An option or flag the command does not declare (e.g. the typo
    /// `--roadmap-size` for `--roadmap`).
    UnknownOption(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingValue(opt) => write!(f, "option --{opt} requires a value"),
            CliError::BadValue {
                option,
                value,
                expected,
            } => write!(f, "option --{option}: cannot parse {value:?} as {expected}"),
            CliError::UnexpectedPositional(tok) => {
                write!(f, "unexpected positional argument {tok:?}")
            }
            CliError::UnknownOption(opt) => write!(f, "unknown option --{opt}"),
        }
    }
}

impl Error for CliError {}

/// Parsed command-line arguments: `--key value` options and `--flag`
/// switches.
///
/// A token starting with `--` is a flag when it is followed by another
/// `--token` (or nothing), and an option when followed by a value. `-h`
/// is accepted as an alias for `--help`, matching the paper's Fig. 20.
/// The numeric getters reject a name that was given as a bare flag, so
/// `--particles` with its value forgotten is an error, not the default.
///
/// # Example
///
/// ```
/// use rtr_harness::Args;
///
/// let args = Args::parse_tokens(&["--samples", "500", "--map", "map-c", "--verbose"]).unwrap();
/// assert_eq!(args.get_usize("samples", 100).unwrap(), 500);
/// assert_eq!(args.get_str("map", "map-f"), "map-c");
/// assert!(args.get_flag("verbose"));
/// assert_eq!(args.get_f64("epsilon", 0.1).unwrap(), 0.1); // default
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    options: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the process's own arguments (skipping `argv[0]`).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::UnexpectedPositional`] for stray values.
    pub fn parse_env() -> Result<Self, CliError> {
        let tokens: Vec<String> = std::env::args().skip(1).collect();
        let refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
        Self::parse_tokens(&refs)
    }

    /// Parses an explicit token list.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::UnexpectedPositional`] for tokens that are not
    /// options, flags, or option values.
    pub fn parse_tokens(tokens: &[&str]) -> Result<Self, CliError> {
        let mut args = Args::default();
        let mut i = 0;
        while i < tokens.len() {
            let tok = tokens[i];
            if tok == "-h" {
                args.flags.push("help".to_owned());
                i += 1;
                continue;
            }
            let Some(name) = tok.strip_prefix("--") else {
                return Err(CliError::UnexpectedPositional(tok.to_owned()));
            };
            match tokens.get(i + 1) {
                Some(val) if !val.starts_with("--") && *val != "-h" => {
                    args.options.insert(name.to_owned(), (*val).to_owned());
                    i += 2;
                }
                _ => {
                    args.flags.push(name.to_owned());
                    i += 1;
                }
            }
        }
        Ok(args)
    }

    /// Returns `true` when `--name` appeared as a switch.
    pub fn get_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Names of every option and flag given, without the leading dashes,
    /// sorted (`-h` appears as `help`).
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .options
            .keys()
            .chain(&self.flags)
            .map(String::as_str)
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Checks that every option and flag given is declared in `options`
    /// or named in `extra`, so a misspelt or retired option never
    /// silently falls back to its default.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::UnknownOption`] for the first undeclared name,
    /// in sorted order.
    pub fn reject_undeclared(
        &self,
        options: &[OptionSpec],
        extra: &[&str],
    ) -> Result<(), CliError> {
        match self
            .names()
            .into_iter()
            .find(|name| !extra.contains(name) && !options.iter().any(|o| o.name == *name))
        {
            Some(unknown) => Err(CliError::UnknownOption(unknown.to_owned())),
            None => Ok(()),
        }
    }

    /// Returns `true` when `--help` or `-h` was given.
    pub fn wants_help(&self) -> bool {
        self.get_flag("help")
    }

    /// String option with a default.
    pub fn get_str(&self, name: &str, default: &str) -> String {
        self.options
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_owned())
    }

    fn get_parsed<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, CliError> {
        if self.get_flag(name) {
            return Err(CliError::MissingValue(name.to_owned()));
        }
        match self.options.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| CliError::BadValue {
                option: name.to_owned(),
                value: raw.clone(),
                expected,
            }),
        }
    }

    /// `f64` option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::BadValue`] when the value does not parse, and
    /// [`CliError::MissingValue`] when `--{name}` was given without one.
    pub fn get_f64(&self, name: &str, default: f64) -> Result<f64, CliError> {
        self.get_parsed(name, default, "a number")
    }

    /// `usize` option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::BadValue`] when the value does not parse, and
    /// [`CliError::MissingValue`] when `--{name}` was given without one.
    pub fn get_usize(&self, name: &str, default: usize) -> Result<usize, CliError> {
        self.get_parsed(name, default, "a non-negative integer")
    }

    /// `u64` option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::BadValue`] when the value does not parse, and
    /// [`CliError::MissingValue`] when `--{name}` was given without one.
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, CliError> {
        self.get_parsed(name, default, "a non-negative integer")
    }

    /// Renders a Fig. 20-style usage message.
    pub fn usage(binary: &str, options: &[OptionSpec]) -> String {
        let mut out = String::new();
        out.push_str("USAGE:\n");
        out.push_str(&format!("  {binary} [OPTIONS] [FLAGS]\n\nOPTIONS:\n"));
        let width = options
            .iter()
            .map(|o| o.name.len())
            .max()
            .unwrap_or(0)
            .max(4);
        for opt in options {
            out.push_str(&format!(
                "  --{:<width$} <val>  {}\n",
                opt.name,
                opt.help,
                width = width
            ));
        }
        out.push_str("\nFLAGS:\n  --help, -h  Print help message\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_and_flags() {
        let args = Args::parse_tokens(&["--bias", "0.05", "--quiet", "--samples", "100"]).unwrap();
        assert_eq!(args.get_f64("bias", 0.0).unwrap(), 0.05);
        assert_eq!(args.get_usize("samples", 0).unwrap(), 100);
        assert!(args.get_flag("quiet"));
        assert!(!args.get_flag("loud"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let args = Args::parse_tokens(&[]).unwrap();
        assert_eq!(args.get_f64("epsilon", 0.25).unwrap(), 0.25);
        assert_eq!(args.get_str("map", "map-f"), "map-f");
        assert!(!args.wants_help());
    }

    #[test]
    fn help_aliases() {
        assert!(Args::parse_tokens(&["--help"]).unwrap().wants_help());
        assert!(Args::parse_tokens(&["-h"]).unwrap().wants_help());
    }

    #[test]
    fn trailing_option_becomes_flag() {
        let args = Args::parse_tokens(&["--verbose"]).unwrap();
        assert!(args.get_flag("verbose"));
    }

    #[test]
    fn numeric_option_without_a_value_is_missing_value() {
        for argv in [
            &["--particles"][..],
            &["--particles", "--threads", "2"],
            &["--particles", "5", "--particles"],
        ] {
            let args = Args::parse_tokens(argv).unwrap();
            let missing = CliError::MissingValue("particles".into());
            assert_eq!(args.get_usize("particles", 500), Err(missing.clone()));
            assert_eq!(args.get_u64("particles", 500), Err(missing.clone()));
            assert_eq!(args.get_f64("particles", 1.0), Err(missing), "{argv:?}");
        }
    }

    #[test]
    fn bad_value_is_reported() {
        let args = Args::parse_tokens(&["--samples", "many"]).unwrap();
        let err = args.get_usize("samples", 1).unwrap_err();
        assert!(matches!(err, CliError::BadValue { .. }));
        assert!(err.to_string().contains("samples"));
    }

    #[test]
    fn names_lists_options_and_flags_sorted() {
        let args = Args::parse_tokens(&["--seed", "3", "--json", "-h", "--map", "map-c"]).unwrap();
        assert_eq!(args.names(), ["help", "json", "map", "seed"]);
        assert_eq!(
            CliError::UnknownOption("roadmap-size".into()).to_string(),
            "unknown option --roadmap-size"
        );
    }

    #[test]
    fn undeclared_options_are_rejected() {
        let spec = [
            OptionSpec {
                name: "particles",
                help: "Particle count",
            },
            OptionSpec {
                name: "threads",
                help: "Worker threads",
            },
        ];
        let ok = Args::parse_tokens(&["--threads", "2", "--particles", "300", "--json"]).unwrap();
        assert_eq!(ok.reject_undeclared(&spec, &["json"]), Ok(()));
        assert_eq!(
            ok.reject_undeclared(&spec, &[]),
            Err(CliError::UnknownOption("json".into()))
        );
        // A retired option is unknown with or without a value.
        for argv in [
            &["--simd", "lanes"][..],
            &["--particles", "300", "--simd"],
            &["--threads", "2", "--simd", "scalar", "--json"],
        ] {
            let args = Args::parse_tokens(argv).unwrap();
            assert_eq!(
                args.reject_undeclared(&spec, &["json"]),
                Err(CliError::UnknownOption("simd".into())),
                "{argv:?}"
            );
        }
    }

    #[test]
    fn positional_rejected() {
        let err = Args::parse_tokens(&["stray"]).unwrap_err();
        assert!(matches!(err, CliError::UnexpectedPositional(_)));
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        let args = Args::parse_tokens(&["--bias", "-0.5"]).unwrap();
        assert_eq!(args.get_f64("bias", 0.0).unwrap(), -0.5);
    }

    #[test]
    fn usage_mentions_all_options() {
        let spec = [
            OptionSpec {
                name: "map",
                help: "Input map file",
            },
            OptionSpec {
                name: "samples",
                help: "Maximum samples",
            },
        ];
        let text = Args::usage("./rrt.out", &spec);
        assert!(text.contains("--map"));
        assert!(text.contains("Maximum samples"));
        assert!(text.contains("--help, -h"));
    }
}
