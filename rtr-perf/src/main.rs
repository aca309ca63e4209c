//! `rtr-perf --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out FILE]`
//!
//! Prints one `name value unit` line per metric, the workload's
//! informational lines, and as its last line the JSON result
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. `--workload all` runs every workload untraced and then traced.
//! `--out FILE` also writes the run, with metric ranges and the host's
//! identity, as a ledger record. Exits 1 when a check fails and 2 on bad
//! arguments.

use std::process::ExitCode;

use rtr_harness::{Args, OptionSpec};
use rtr_perf::report::{result_line, Outcome};
use rtr_perf::{host, Scope, Workload};

const OPTIONS: &[OptionSpec] = &[
    OptionSpec {
        name: "workload",
        help: "loop-pfl | loop-ekfslam | kernels | char-small | all",
    },
    OptionSpec {
        name: "seed",
        help: "Input seed (default 0)",
    },
    OptionSpec {
        name: "seconds",
        help: "Time budget of the measured passes (default 10)",
    },
    OptionSpec {
        name: "trace",
        help: "0 = end-to-end metrics, 1 = per-layer metrics (default 0)",
    },
    OptionSpec {
        name: "out",
        help: "Also write the run as a ledger record to this file",
    },
];

/// Parsed command line.
struct Request {
    workloads: Vec<Workload>,
    modes: Vec<bool>,
    scope: Scope,
    out: String,
}

fn parse(args: &Args) -> Result<Request, String> {
    let name = args.get_str("workload", "");
    let seed = args.get_u64("seed", 0).map_err(|e| e.to_string())?;
    let seconds = args.get_f64("seconds", 10.0).map_err(|e| e.to_string())?;
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 0..=3600"));
    }
    let traced = match args.get_str("trace", "0").as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let (workloads, modes) = if name == "all" {
        (Workload::ALL.to_vec(), vec![false, true])
    } else {
        let workload =
            Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        (vec![workload], vec![traced])
    };
    Ok(Request {
        workloads,
        modes,
        scope: Scope::full(seed, seconds),
        out: args.get_str("out", ""),
    })
}

/// The ledger record: host identity, the request, and every outcome with
/// its metric ranges.
fn ledger(request: &Request, outcomes: &[Outcome]) -> String {
    let host: Vec<String> = host::identity()
        .iter()
        .map(|(key, value)| format!("\"{key}\": \"{}\"", value.replace('"', "'")))
        .collect();
    let runs: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let info: Vec<String> = o
                .info
                .iter()
                .map(|(key, value)| format!("\"{key}\": \"{value}\""))
                .collect();
            format!(
                "    {{\"workload\": \"{}\", \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {},\n      \"info\": {{{}}},\n      \"metrics\": {{\n        {}\n      }}}}",
                o.workload,
                u8::from(o.traced),
                o.correct(),
                o.attempted,
                o.failed,
                info.join(", "),
                o.metrics_json("", true).join(",\n        ")
            )
        })
        .collect();
    format!(
        "{{\n  \"host\": {{{}}},\n  \"seed\": {}, \"seconds\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        host.join(", "),
        request.scope.seed,
        request.scope.seconds,
        runs.join(",\n")
    )
}

fn main() -> ExitCode {
    let args = Args::parse_env().map_err(|e| e.to_string());
    if args.as_ref().is_ok_and(Args::wants_help) {
        println!("{}", Args::usage("rtr-perf", OPTIONS));
        return ExitCode::SUCCESS;
    }
    let request = match args.and_then(|args| parse(&args)) {
        Ok(request) => request,
        Err(e) => {
            eprintln!("rtr-perf: {e}");
            return ExitCode::from(2);
        }
    };

    let mut outcomes = Vec::new();
    for &workload in &request.workloads {
        for &traced in &request.modes {
            let outcome = workload.run(&request.scope, traced);
            print!("{}", outcome.human());
            outcomes.push(outcome);
        }
    }
    if !request.out.is_empty() {
        if let Err(e) = std::fs::write(&request.out, ledger(&request, &outcomes)) {
            eprintln!("rtr-perf: cannot write {}: {e}", request.out);
            return ExitCode::from(2);
        }
    }
    println!("{}", result_line(&outcomes));
    if outcomes.iter().all(Outcome::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
