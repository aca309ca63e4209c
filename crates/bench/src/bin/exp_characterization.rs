//! EXP-CHAR — suite-wide cache characterization (§IV–§V): every registry
//! kernel replayed through the i3-8109U cache model, with and without the
//! VLDP prefetcher, in one table.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin exp_characterization
//! cargo run --release -p rtr-bench --bin exp_characterization -- \
//!     --full --vldp 4 --threads 8 --out CHAR_report.json
//! ```
//!
//! By default each kernel runs on a reduced inputset so the traced replay
//! (every emitted access walks the three-level model) finishes quickly;
//! `--full` switches to the kernels' default paper-scale configurations.
//! Each row pairs a VLDP-off and a VLDP-on run (`--vldp` sets the degree
//! of the "on" column) of the *same* deterministic access stream, so the
//! off→on deltas isolate the prefetcher.
//!
//! Every cell is an isolated simulation, so the table shards over the
//! deterministic harness pool: `--threads N` fans the kernel × {off, on}
//! cells out without changing a single digit of the output (0 = one
//! worker per core). `--out FILE` additionally writes the table as a
//! machine-readable JSON artifact.
//!
//! `--telemetry ring` sends every cell's op stream in batches over a
//! channel to a collector-thread simulator instead of simulating inline;
//! the artifact is byte-identical either way (CI asserts this), the knob
//! only moves where the simulation time is spent.

use rtr_bench::characterization::{collect_with, CharReport};
use rtr_bench::parse_args;
use rtr_core::{vldp_arg, Telemetry};
use rtr_harness::{usage_error, CliError, OptionSpec, Table};

/// Formats an off→on pair of percentages.
fn pair(off: f64, on: f64) -> String {
    format!("{:>5.1}% → {:>5.1}%", off * 100.0, on * 100.0)
}

/// Formats the store share of the demand stream. Whole percents for the
/// store-heavy kernels; sub-percent shares (the PFL weight stores under
/// a ray-probe-dominated stream) keep two decimals instead of flooring
/// to a misleading `0%`.
fn write_share(ratio: f64) -> String {
    let pct = ratio * 100.0;
    if pct > 0.0 && pct < 1.0 {
        format!("{pct:.2}%")
    } else {
        format!("{pct:.0}%")
    }
}

fn render(report: &CharReport) -> Table {
    let mut table = Table::new(&[
        "kernel",
        "accesses",
        "wr",
        "L1D miss (off → on)",
        "L2 miss (off → on)",
        "LLC miss (off → on)",
        "mem/KA (off → on)",
        "writebacks",
    ]);
    for row in &report.rows {
        match (&row.off, &row.on) {
            (Ok(off), Ok(on)) => {
                assert_eq!(
                    off.accesses, on.accesses,
                    "{}: prefetching must not change the demand stream",
                    row.kernel
                );
                table.row_owned(vec![
                    row.kernel.clone(),
                    off.accesses.to_string(),
                    write_share(off.write_ratio()),
                    pair(off.levels[0].miss_ratio(), on.levels[0].miss_ratio()),
                    pair(off.levels[1].miss_ratio(), on.levels[1].miss_ratio()),
                    pair(off.levels[2].miss_ratio(), on.levels[2].miss_ratio()),
                    format!(
                        "{:>5.1} → {:>5.1}",
                        off.memory_access_ratio() * 1000.0,
                        on.memory_access_ratio() * 1000.0
                    ),
                    off.memory_writebacks.to_string(),
                ]);
            }
            (off, on) => {
                let err = off
                    .as_ref()
                    .err()
                    .or(on.as_ref().err())
                    .cloned()
                    .unwrap_or_default();
                let mut cells = vec![row.kernel.clone(), format!("error: {err}")];
                cells.resize(8, String::new());
                table.row_owned(cells);
            }
        }
    }
    table
}

const BIN: &str = "exp_characterization";

const OPTIONS: &[OptionSpec] = &[
    OptionSpec {
        name: "full",
        help: "Run the kernels' default paper-scale inputsets (flag)",
    },
    OptionSpec {
        name: "vldp",
        help: "VLDP prefetch degree of the 'on' column (default 4)",
    },
    OptionSpec {
        name: "threads",
        help: "Workers sharding the cells (0 = one per core)",
    },
    OptionSpec {
        name: "out",
        help: "Also write the table as JSON to this file",
    },
    OptionSpec {
        name: "telemetry",
        help: "Trace transport: inline|ring",
    },
];

fn main() {
    let args = parse_args(BIN, OPTIONS);
    let full = args.get_flag("full");
    let vldp = vldp_arg(&args, 4).unwrap_or_else(|e| usage_error(BIN, e));
    if vldp == 0 {
        // Degree 0 is the "off" column; the "on" column needs a prefetcher.
        usage_error(
            BIN,
            CliError::BadValue {
                option: "vldp".into(),
                value: "0".into(),
                expected: "a prefetch degree from 1 to 64",
            },
        );
    }
    let threads = args.get_threads(0).unwrap_or_else(|e| usage_error(BIN, e));
    let out = args.get_str("out", "");
    let telemetry = Telemetry::from_args(&args).unwrap_or_else(|e| usage_error(BIN, e));

    println!(
        "EXP-CHAR: suite-wide cache characterization ({} inputset, VLDP degree {vldp})\n",
        if full { "full" } else { "small" }
    );
    let report = collect_with(full, vldp, threads, telemetry);
    print!("{}", render(&report));
    if !out.is_empty() {
        if let Err(e) = std::fs::write(&out, report.to_json()) {
            eprintln!("exp_characterization: writing {out}: {e}");
            std::process::exit(1);
        }
        println!("\nWrote {out}");
    }
    println!(
        "\nNotes: 'wr' is the store share of the demand stream; 'mem/KA' is\n\
         memory accesses per thousand demand accesses (the paper's MPKI\n\
         analog over the synthetic trace); 'writebacks' counts dirty lines\n\
         evicted to DRAM (VLDP-off run). Prefetching never changes the\n\
         demand stream, only where it hits."
    );
}
