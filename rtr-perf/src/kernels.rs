//! The `kernels` workload: every registry kernel through the stepped
//! lifecycle (`instantiate → step(&mut dyn MemTrace) → finish`), untraced,
//! one worker thread, on its default inputset.
//!
//! It is the only workload through `rtr-core`'s registry path and the
//! planning and geometry layers (collision checks, k-d trees, graph
//! search); the loops touch planning only while they set up. The inputs
//! ignore `--seed`: per-seed work differs up to fivefold for `05.pp3d` and
//! `09.rrtstar`, which would swamp any useful regression bound. Rounds are
//! kernel-major inside and repeat whole, so a burst of host noise spreads
//! over every kernel instead of one.

use std::time::{Duration, Instant};

use rtr_core::{registry, Kernel, KernelReport, Stage, StepStatus, TraceSession};
use rtr_harness::Args;

use crate::host::{nproc, NoiseProbe};
use crate::report::{Outcome, PassSamples, INCREMENTAL, THREADED, VECTORISED};
use crate::stats::{geomean, median, quantile, ratio, Budget, Digest};
use crate::{twins, Scope};

/// Kernel arguments: `tokens` after `--threads 1`, so a token list may
/// override the thread count.
pub fn kernel_args(tokens: &[&str]) -> Args {
    let mut all = vec!["--threads", "1"];
    all.extend_from_slice(tokens);
    Args::parse_tokens(&all).expect("benchmark kernel arguments are well-formed")
}

/// One kernel execution, timed at the lifecycle boundaries.
#[derive(Debug)]
pub struct KernelRun {
    /// Trace-session construction plus `instantiate`.
    pub setup: Duration,
    /// The `step` loop (the registry's region of interest).
    pub roi: Duration,
    /// `finish`, which drains a traced session into its cache report.
    pub finish: Duration,
    /// Each `step` call, when step timing was requested.
    pub steps: Vec<Duration>,
    /// The kernel's report.
    pub report: KernelReport,
}

/// Drives `kernel` through its lifecycle: untraced when `vldp` is `None`,
/// otherwise through the cache simulator with that prefetcher degree.
///
/// # Errors
///
/// Returns the rendered [`rtr_core::KernelError`] of a failed stage.
pub fn drive(
    kernel: &dyn Kernel,
    args: &Args,
    vldp: Option<usize>,
    time_steps: bool,
) -> Result<KernelRun, String> {
    let fail = |e: rtr_core::KernelError| format!("{}: {e}", kernel.name());
    let start = Instant::now();
    let mut session = vldp.map_or_else(TraceSession::disabled, TraceSession::enabled);
    let mut instance = kernel.instantiate(args).map_err(fail)?;
    let setup = start.elapsed();
    let mut steps = Vec::new();
    let start = Instant::now();
    loop {
        let step_start = time_steps.then(Instant::now);
        let status = instance.step(session.sink()).map_err(fail)?;
        if let Some(step_start) = step_start {
            steps.push(step_start.elapsed());
        }
        if status == StepStatus::Done {
            break;
        }
    }
    let roi = start.elapsed();
    let start = Instant::now();
    let report = instance.finish(roi.as_secs_f64(), session).map_err(fail)?;
    Ok(KernelRun {
        setup,
        roi,
        finish: start.elapsed(),
        steps,
        report,
    })
}

/// The value of metric row `label` in a kernel report.
pub fn row<'a>(report: &'a KernelReport, label: &str) -> Option<&'a str> {
    report
        .metrics
        .iter()
        .find(|(l, _)| l == label)
        .map(|(_, v)| v.as_str())
}

/// Checks that `rows` equal the first round's rows for this kernel.
pub fn same_rows(
    first: &mut Option<Vec<(String, String)>>,
    report: &KernelReport,
) -> Result<(), String> {
    match first {
        None => {
            *first = Some(report.metrics.clone());
            Ok(())
        }
        Some(rows) if *rows == report.metrics => Ok(()),
        Some(_) => Err(format!(
            "{}: metrics differ from the first round",
            report.name
        )),
    }
}

/// Records the per-kernel layer metrics from each kernel's median
/// seconds per pass and its last report: stage busy times, each kernel's
/// share and top profiler region, and the work counts of `04.pp2d` and
/// `14.mpc`.
pub fn attribute(
    outcome: &mut Outcome,
    kernels: &[Box<dyn Kernel>],
    seconds: &[f64],
    last: &[Option<&KernelReport>],
) {
    for (stage, metric) in [
        (Stage::Perception, "perception.busy_ms"),
        (Stage::Planning, "planning.busy_ms"),
        (Stage::Control, "control.busy_ms"),
    ] {
        let busy: f64 = kernels
            .iter()
            .zip(seconds)
            .filter(|(k, _)| k.stage() == stage)
            .map(|(_, s)| s)
            .sum();
        outcome.set(metric, busy * 1e3);
    }
    let total: f64 = seconds.iter().sum();
    for ((kernel, &s), report) in kernels.iter().zip(seconds).zip(last) {
        let id = kernel.name();
        outcome.set(&format!("kernel.{id}.share"), ratio(s, total));
        let Some(report) = report else { continue };
        if let Some(top) = report.dominant_region() {
            outcome.set(&format!("kernel.{id}.top_region_share"), top.fraction);
        }
        let count = |label| {
            row(report, label)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        match id {
            "04.pp2d" => outcome.set("planning.route_expanded", count("expanded")),
            "14.mpc" => outcome.set("control.opt_iters", count("opt iterations")),
            _ => {}
        }
    }
}

/// Per-kernel samples over a run.
#[derive(Default)]
struct Samples {
    roi: Vec<f64>,
    timed_roi: Vec<f64>,
    steps: Vec<f64>,
    rows: Option<Vec<(String, String)>>,
    last: Option<KernelReport>,
}

/// Runs the `kernels` workload.
pub fn run(name: &'static str, scope: &Scope, traced: bool) -> Outcome {
    let mut outcome = Outcome::new(name, traced);
    let kernels: Vec<Box<dyn Kernel>> = registry()
        .into_iter()
        .filter(|k| scope.kernels.contains(&k.name()))
        .collect();
    let args = kernel_args(&[]);
    for kernel in &kernels {
        let _ = drive(kernel.as_ref(), &args, None, false);
    }

    let mut samples: Vec<Samples> = kernels.iter().map(|_| Samples::default()).collect();
    let mut probe = NoiseProbe::default();
    let mut budget = Budget::new(scope.seconds);
    let mut passes = PassSamples::new(kernels.len());
    while budget.next_pass() {
        probe.sample();
        // A traced pass adds a round that times every step, so the cost
        // of that timing shows as `core.step_timing_overhead`.
        let rounds: &[bool] = if traced { &[false, true] } else { &[false] };
        for &time_steps in rounds {
            let mut setup_total = 0.0;
            for (k, (kernel, s)) in kernels.iter().zip(&mut samples).enumerate() {
                let run = match drive(kernel.as_ref(), &args, None, time_steps) {
                    Ok(run) => run,
                    Err(e) => {
                        outcome.op(Err(e));
                        continue;
                    }
                };
                outcome.op(same_rows(&mut s.rows, &run.report));
                let roi = run.roi.as_secs_f64();
                if time_steps {
                    s.timed_roi.push(roi);
                    s.steps.extend(run.steps.iter().map(|d| d.as_secs_f64()));
                    continue;
                }
                s.roi.push(roi);
                passes.item(k, roi * 1e6, roi * 1e6);
                setup_total += run.setup.as_secs_f64();
                s.last = Some(run.report);
            }
            if !time_steps {
                passes.end_pass(setup_total);
            }
        }
    }

    let mut digest = Digest::default();
    for rows in samples.iter().filter_map(|s| s.rows.as_ref()) {
        for (label, value) in rows {
            digest.feed(label.as_bytes());
            digest.feed(value.as_bytes());
        }
    }
    outcome.note("output_digest", format!("{:016x}", digest.value()));
    outcome.note("kernels", kernels.len());
    crate::host::note(&mut outcome, &probe);

    let medians: Vec<f64> = samples.iter_mut().map(|s| median(&mut s.roi)).collect();
    passes.record(&mut outcome);
    if !traced {
        return outcome;
    }

    let last: Vec<Option<&KernelReport>> = samples.iter().map(|s| s.last.as_ref()).collect();
    attribute(&mut outcome, &kernels, &medians, &last);
    let mut overheads = Vec::new();
    for ((kernel, s), &m) in kernels.iter().zip(&mut samples).zip(&medians) {
        let id = kernel.name();
        if INCREMENTAL.contains(&id) {
            let tail = ratio(quantile(&mut s.steps, 0.99), quantile(&mut s.steps, 0.5));
            outcome.set(&format!("kernel.{id}.step_p99_over_p50"), tail);
        }
        if m > 0.0 {
            overheads.push(ratio(median(&mut s.timed_roi), m));
        }
    }
    outcome.set("core.step_timing_overhead", geomean(&overheads));

    let in_scope = |id: &&str| scope.kernels.contains(id);
    if in_scope(&"13.dmp") {
        twins::record(
            &mut outcome,
            "core.registry_overhead.13.dmp",
            twins::registry_overhead_dmp(),
        );
    }
    if in_scope(&"14.mpc") {
        twins::record(
            &mut outcome,
            "core.registry_overhead.14.mpc",
            twins::registry_overhead_mpc(),
        );
    }
    if nproc() >= 2 {
        for id in THREADED.into_iter().filter(in_scope) {
            let result = twins::knob_speedup(id, "threads", "1", "2");
            twins::record(
                &mut outcome,
                &format!("harness.pool.speedup_2t.{id}"),
                result,
            );
        }
    }
    for id in VECTORISED.into_iter().filter(in_scope) {
        let result = twins::knob_speedup(id, "simd", "scalar", "auto");
        twins::record(&mut outcome, &format!("simd.lanes_speedup.{id}"), result);
    }
    outcome
}
