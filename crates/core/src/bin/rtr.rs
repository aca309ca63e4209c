//! The RTRBench-rs command-line harness.
//!
//! Mirrors the per-kernel binaries of the paper's repository (§VI,
//! Fig. 20): every kernel is selectable by name, prints a Fig. 20-style
//! help message with `--help`, and accepts all of its configuration
//! parameters on the command line.
//!
//! ```text
//! rtr --list
//! rtr 08.rrt --map map-c --samples 20000
//! rtr rrt --help
//! ```
//!
//! Exit status: 0 on success, 1 when an accepted run fails (e.g. an
//! unsolvable instance or an exhausted search budget), and 2 on a usage
//! error: a malformed command line, a missing or unknown kernel, an
//! undeclared option, or a bad option value.

use std::process::ExitCode;

use rtr_core::{registry, registry_lookup, KernelError};
use rtr_harness::{usage_error, Args, Table};

fn print_global_usage() {
    println!("USAGE:\n  rtr <kernel> [OPTIONS] [FLAGS]\n  rtr --list\n");
    println!("Run `rtr <kernel> --help` for the kernel's options.");
}

fn print_list() {
    let mut table = Table::new(&["kernel", "stage", "Table I bottleneck"]);
    for kernel in registry() {
        table.row_owned(vec![
            kernel.name().to_owned(),
            kernel.stage().to_string(),
            kernel.table1_bottleneck().to_owned(),
        ]);
    }
    print!("{table}");
}

/// Minimal JSON escaping for our metric/region strings.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a kernel report as JSON for downstream tooling (`--json`).
/// Hand-rolled so the suite keeps its minimal dependency set.
fn to_json(report: &rtr_core::KernelReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"kernel\": \"{}\",\n",
        json_escape(report.name)
    ));
    out.push_str(&format!("  \"stage\": \"{}\",\n", report.stage));
    out.push_str(&format!("  \"roi_seconds\": {},\n", report.roi_seconds));
    out.push_str("  \"regions\": [\n");
    for (i, region) in report.regions.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"seconds\": {}, \"fraction\": {}, \"calls\": {}}}{}\n",
            json_escape(&region.name),
            region.total.as_secs_f64(),
            region.fraction,
            region.calls,
            if i + 1 < report.regions.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n  \"metrics\": {\n");
    for (i, (key, value)) in report.metrics.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": \"{}\"{}\n",
            json_escape(key),
            json_escape(value),
            if i + 1 < report.metrics.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(selector) = argv.first() else {
        print_global_usage();
        return ExitCode::from(2);
    };
    if selector == "--list" {
        print_list();
        return ExitCode::SUCCESS;
    }
    if selector == "--help" || selector == "-h" {
        print_global_usage();
        return ExitCode::SUCCESS;
    }
    let kernel = registry_lookup(selector)
        .unwrap_or_else(|err| usage_error("rtr", format!("{err}; `rtr --list` shows all kernels")));

    let tokens: Vec<&str> = argv[1..].iter().map(String::as_str).collect();
    let args = Args::parse_tokens(&tokens).unwrap_or_else(|err| usage_error("rtr", err));
    if args.wants_help() {
        print!(
            "{}",
            Args::usage(&format!("rtr {}", kernel.name()), &kernel.cli_options())
        );
        return ExitCode::SUCCESS;
    }
    // Only the kernel's declared options, plus `--json`, are accepted.
    if let Err(err) = args.reject_undeclared(&kernel.cli_options(), &["json"]) {
        usage_error(
            "rtr",
            format!("{err}; `rtr {} --help` lists the options", kernel.name()),
        );
    }

    match kernel.run(&args) {
        Ok(result) if args.get_flag("json") => {
            print!("{}", to_json(&result));
            ExitCode::SUCCESS
        }
        Ok(result) => {
            println!(
                "{} [{}] finished in {:.3} s (ROI)",
                result.name, result.stage, result.roi_seconds
            );
            let mut regions = Table::new(&["region", "time (ms)", "share", "calls"]);
            for region in &result.regions {
                regions.row_owned(vec![
                    region.name.clone(),
                    format!("{:.2}", region.total.as_secs_f64() * 1e3),
                    format!("{:.1}%", region.fraction * 100.0),
                    region.calls.to_string(),
                ]);
            }
            print!("{regions}");
            let mut metrics = Table::new(&["metric", "value"]);
            for (label, value) in &result.metrics {
                metrics.row_owned(vec![label.clone(), value.clone()]);
            }
            print!("{metrics}");
            ExitCode::SUCCESS
        }
        Err(err @ KernelError::Cli(_)) => usage_error("rtr", err),
        Err(err) => {
            eprintln!("rtr: {err}");
            ExitCode::FAILURE
        }
    }
}
