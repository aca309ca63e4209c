//! Closed-loop scenario runner.
//!
//! Composes the stepped kernels into the sense → localize → plan → track
//! loop, streams per-tick stage latencies to an off-thread collector,
//! and prints the human summary, the latency percentile table, and the
//! byte-stable golden. `--golden FILE` additionally writes the golden to
//! `FILE` (CI byte-compares runs at different `--threads` settings).

use std::process::ExitCode;

use rtr_harness::{Args, CliError, Collector, OptionSpec};
use rtr_scenario::{latency_table, LocalizerKind, ScenarioConfig, ScenarioState};
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

/// Parses a count option, rejecting a value above `max` before the run
/// sizes anything from it.
fn count_arg(
    args: &Args,
    option: &str,
    default: usize,
    max: usize,
    expected: &'static str,
) -> Result<usize, CliError> {
    let count = args.get_usize(option, default)?;
    if count > max {
        return Err(CliError::BadValue {
            option: option.to_owned(),
            value: count.to_string(),
            expected,
        });
    }
    Ok(count)
}

fn main() -> ExitCode {
    let args = match Args::parse_env() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("scenario: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.wants_help() {
        println!("{}", Args::usage("scenario", OPTIONS));
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scenario: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.reject_undeclared(OPTIONS, &[])?;
    let localizer_raw = args.get_str("localizer", "pfl");
    let localizer: LocalizerKind = localizer_raw
        .parse()
        .map_err(|()| format!("unknown localizer {localizer_raw:?} (expected pfl|ekfslam)"))?;
    let config = ScenarioConfig {
        max_ticks: count_arg(
            args,
            "ticks",
            600,
            MAX_TICKS,
            "a tick budget of at most 1000000",
        )?,
        seed: args.get_u64("seed", 7)?,
        localizer,
        particles: count_arg(
            args,
            "particles",
            300,
            MAX_PARTICLES,
            "a particle count of at most 1000000",
        )?,
        threads: args.get_usize("threads", 1)?,
    };

    let mut state = ScenarioState::begin(&config)?;
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

    let golden_path = args.get_str("golden", "");
    if !golden_path.is_empty() {
        std::fs::write(&golden_path, report.golden())?;
    }
    Ok(())
}
