//! Twin comparisons: the same work through two paths, alternated, with
//! the outputs checked equal before a ratio is reported.

use std::time::Instant;

use rtr_control::dmp::wheeled_robot_demo;
use rtr_control::mpc::winding_reference;
use rtr_control::{Dmp, DmpConfig, Mpc, MpcConfig};
use rtr_core::registry_lookup;
use rtr_harness::Profiler;
use rtr_trace::{MemTrace, NullTrace};

use crate::kernels::{drive, kernel_args, row};
use crate::report::Outcome;
use crate::stats::{median, ratio};

/// Alternating repetitions per comparison.
const REPS: usize = 7;

/// The `13.dmp` and `14.mpc` inputs at their registry defaults.
const DMP_DEMO_STEPS: usize = 400;
const DMP_BASIS: usize = 30;
const DMP_DT: f64 = 0.0005;
const DMP_DURATION: f64 = 2.0;
const MPC_REFERENCE: usize = 200;
const MPC_HORIZON: usize = 12;
const MPC_ITERATIONS: usize = 40;

/// One timed path: seconds and an output fingerprint.
pub type Timed = Result<(f64, String), String>;

/// Median time of `a` ÷ median time of `b` over [`REPS`] alternating
/// runs; every run's fingerprint must match the others.
///
/// # Errors
///
/// Returns the first failed run's error, or the fingerprints that differ.
pub fn compare(mut a: impl FnMut() -> Timed, mut b: impl FnMut() -> Timed) -> Result<f64, String> {
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    let mut expected: Option<String> = None;
    for _ in 0..REPS {
        for (path, times) in [
            (&mut a as &mut dyn FnMut() -> Timed, &mut ta),
            (&mut b, &mut tb),
        ] {
            let (seconds, output) = path()?;
            if *expected.get_or_insert_with(|| output.clone()) != output {
                return Err(format!("twin outputs differ: {expected:?} vs {output:?}"));
            }
            times.push(seconds);
        }
    }
    Ok(ratio(median(&mut ta), median(&mut tb)))
}

/// Records a comparison as an operation and, when it passed, a metric.
pub fn record(outcome: &mut Outcome, metric: &str, result: Result<f64, String>) {
    if let Ok(value) = result {
        outcome.set(metric, value);
    }
    outcome.op(result.map(|_| ()));
}

/// The registry's step loop for `id` at its defaults: ROI seconds and the
/// report row `label`.
fn registry_path(id: &str, label: &str) -> Timed {
    let kernel = registry_lookup(id).map_err(|e| e.to_string())?;
    let run = drive(kernel.as_ref(), &kernel_args(&[]), None, false)?;
    let value = row(&run.report, label).ok_or_else(|| format!("{id}: no {label:?} row"))?;
    Ok((run.roi.as_secs_f64(), value.to_string()))
}

/// `13.dmp` through the registry (`&mut dyn MemTrace`, one call per
/// Euler step) ÷ the generic `Dmp::rollout` with `&mut NullTrace`.
///
/// # Errors
///
/// Fails when the stepped dyn-sink rollout's endpoint differs in any bit
/// from the generic one, or the two paths integrate a different number of
/// steps.
pub fn registry_overhead_dmp() -> Result<f64, String> {
    let (demo, demo_duration) = wheeled_robot_demo(DMP_DEMO_STEPS);
    let config = DmpConfig {
        basis_count: DMP_BASIS,
        dt: DMP_DT,
        ..DmpConfig::default()
    };
    let dmp = Dmp::learn(&demo, demo_duration, config);
    let generic = dmp.rollout(DMP_DURATION, &mut Profiler::timed(), &mut NullTrace);
    let mut run = dmp.begin_rollout(DMP_DURATION);
    let (mut profiler, sink): (_, &mut dyn MemTrace) = (Profiler::timed(), &mut NullTrace);
    while dmp.integrate_step(&mut run, &mut profiler, sink) {}
    let stepped = dmp.finish_rollout(run);
    let bits = |r: &rtr_control::DmpRollout| {
        r.position
            .last()
            .map(|p| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
    };
    if bits(&generic) != bits(&stepped) {
        return Err("13.dmp: dyn-sink rollout endpoint differs from the generic call".into());
    }
    compare(
        || registry_path("13.dmp", "steps"),
        || {
            let start = Instant::now();
            let rollout = dmp.rollout(DMP_DURATION, &mut Profiler::timed(), &mut NullTrace);
            Ok((start.elapsed().as_secs_f64(), rollout.t.len().to_string()))
        },
    )
}

/// `14.mpc` through the registry ÷ the generic `Mpc::track` with
/// `&mut NullTrace`.
///
/// # Errors
///
/// Fails when the stepped dyn-sink run's tracking error differs in any
/// bit from the generic one, or the paths run different iteration counts.
pub fn registry_overhead_mpc() -> Result<f64, String> {
    let reference = winding_reference(MPC_REFERENCE);
    let mpc = Mpc::new(MpcConfig {
        horizon: MPC_HORIZON,
        opt_iterations: MPC_ITERATIONS,
        ..MpcConfig::default()
    });
    let generic = mpc.track(&reference, &mut Profiler::timed(), &mut NullTrace);
    let mut run = mpc.begin_track(&reference);
    let (mut profiler, sink): (_, &mut dyn MemTrace) = (Profiler::timed(), &mut NullTrace);
    while mpc.tick(&mut run, &reference, &mut profiler, sink) {}
    let stepped = mpc.finish_track(run);
    if generic.mean_tracking_error.to_bits() != stepped.mean_tracking_error.to_bits() {
        return Err("14.mpc: dyn-sink tracking error differs from the generic call".into());
    }
    compare(
        || registry_path("14.mpc", "opt iterations"),
        || {
            let start = Instant::now();
            let result = mpc.track(&reference, &mut Profiler::timed(), &mut NullTrace);
            Ok((
                start.elapsed().as_secs_f64(),
                result.opt_iterations.to_string(),
            ))
        },
    )
}

/// Registry kernel `id` with `--option slow` ÷ with `--option fast`,
/// timing `instantiate` plus the step loop (`07.prm` builds its roadmap in
/// parallel inside `instantiate`).
///
/// # Errors
///
/// Fails when a run errors or the two settings report different metrics.
pub fn knob_speedup(id: &str, option: &str, slow: &str, fast: &str) -> Result<f64, String> {
    let kernel = registry_lookup(id).map_err(|e| e.to_string())?;
    let flag = format!("--{option}");
    let timed = |value: &str| -> Timed {
        let run = drive(kernel.as_ref(), &kernel_args(&[&flag, value]), None, false)?;
        Ok((
            (run.setup + run.roi).as_secs_f64(),
            format!("{:?}", run.report.metrics),
        ))
    };
    compare(|| timed(slow), || timed(fast))
}
