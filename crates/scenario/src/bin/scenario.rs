//! Closed-loop scenario runner.
//!
//! Composes the stepped kernels into the sense → localize → plan → track
//! loop, streams per-tick stage latencies to an off-thread collector,
//! and prints the human summary, the latency percentile table, and the
//! byte-stable golden. `--golden FILE` additionally writes the golden to
//! `FILE` (CI byte-compares runs at different `--threads` settings).
//!
//! Exit status: 0 on success, 1 when the run fails after its arguments
//! were accepted, and 2 on a usage error: a malformed command line, an
//! undeclared option, or a bad option value.

use std::process::ExitCode;

use rtr_harness::{usage_error, Args, Collector, OptionSpec};
use rtr_scenario::{latency_table, LocalizerKind, ScenarioConfig, ScenarioError, ScenarioState};
use rtr_trace::{metric_channel, MetricMap};

const OPTIONS: &[OptionSpec] = &[
    OptionSpec {
        name: "localizer",
        help: "Localization kernel in the loop: pfl|ekfslam",
    },
    OptionSpec {
        name: "ticks",
        help: "Control-tick budget (the run also ends at the goal)",
    },
    OptionSpec {
        name: "seed",
        help: "Seed for the map and every noise source",
    },
    OptionSpec {
        name: "particles",
        help: "Particle count for the pfl localizer",
    },
    OptionSpec {
        name: "threads",
        help: "PFL ray-casting threads (0 = all; never changes outputs)",
    },
    OptionSpec {
        name: "golden",
        help: "Also write the byte-stable golden to this file",
    },
];

/// Most control ticks `--ticks` accepts: 1667x the default 600. The run
/// reserves its tick log (56 B a tick) up front, 56 MB at the cap.
const MAX_TICKS: usize = 1_000_000;

/// Most particles `--particles` accepts: 3333x the default 300. The
/// filter keeps about 90 B per particle, under 100 MB at the cap.
const MAX_PARTICLES: usize = 1_000_000;

fn main() -> ExitCode {
    let args = Args::parse_env().unwrap_or_else(|e| usage_error("scenario", e));
    if args.wants_help() {
        println!("{}", Args::usage("scenario", OPTIONS));
        return ExitCode::SUCCESS;
    }
    let config = config_from(&args).unwrap_or_else(|e| usage_error("scenario", e));
    let outcome = match ScenarioState::begin(&config) {
        // A value the scenario rejects is a bad option value.
        Err(e @ ScenarioError::BadValue(_)) => usage_error("scenario", e),
        Err(e) => Err(e.into()),
        Ok(state) => run(state, &args.get_str("golden", "")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scenario: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Checks every option before the run sizes anything from it.
fn config_from(args: &Args) -> Result<ScenarioConfig, Box<dyn std::error::Error>> {
    args.reject_undeclared(OPTIONS, &[])?;
    let localizer_raw = args.get_str("localizer", "pfl");
    let localizer: LocalizerKind = localizer_raw
        .parse()
        .map_err(|()| format!("unknown localizer {localizer_raw:?} (expected pfl|ekfslam)"))?;
    Ok(ScenarioConfig {
        max_ticks: args.get_count("ticks", 600, MAX_TICKS, "a tick budget of at most 1000000")?,
        seed: args.get_u64("seed", 7)?,
        localizer,
        particles: args.get_count(
            "particles",
            300,
            MAX_PARTICLES,
            "a particle count of at most 1000000",
        )?,
        threads: args.get_threads(1)?,
    })
}

fn run(mut state: ScenarioState, golden_path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let (publisher, reader) = metric_channel(1 << 14);
    let collector = Collector::spawn(reader, MetricMap::new());
    state.publish_to(publisher);

    while state.step() {}

    let (report, publisher) = state.finish();
    let names = publisher.map(|p| p.into_names()).unwrap_or_default();
    let metrics = collector.finish();

    print!("{}", report.summary());
    println!();
    print!("{}", latency_table(&metrics, &names));
    println!();
    print!("{}", report.golden());

    if !golden_path.is_empty() {
        std::fs::write(golden_path, report.golden())?;
    }
    Ok(())
}
