//! Control-stage kernel adapters.

use rtr_control::{
    dmp::wheeled_robot_demo, mpc::winding_reference, BayesOpt, BoConfig, Cem, CemConfig, Dmp,
    DmpConfig, Mpc, MpcConfig, RolloutRun, TrackRun,
};
use rtr_geom::Point2;
use rtr_harness::{Args, OptionSpec, Profiler};
use rtr_sim::ThrowSim;
use rtr_trace::MemTrace;

use super::{bad_value, report, OneShotInstance};
use crate::{Kernel, KernelError, KernelInstance, KernelReport, Stage, StepStatus, TraceSession};

/// Most rollout steps (`--duration / --dt`) `13.dmp` accepts: 250x the
/// default 4 000.
const MAX_ROLLOUT_STEPS: f64 = 1e6;

/// Most basis functions `13.dmp --basis` accepts: 333x the default 30.
/// Centers, widths and per-dimension weights take about 64 B per basis
/// function, under 1 MB at the cap.
const MAX_BASIS: usize = 10_000;

/// `13.dmp`: dynamic movement primitives from a wheeled-robot demo.
#[derive(Debug, Clone, Copy, Default)]
pub struct DmpKernel;

impl Kernel for DmpKernel {
    fn name(&self) -> &'static str {
        "13.dmp"
    }

    fn stage(&self) -> Stage {
        Stage::Control
    }

    fn table1_bottleneck(&self) -> &'static str {
        "Fine-grained serialization"
    }

    fn cli_options(&self) -> Vec<OptionSpec> {
        let mut options = vec![
            OptionSpec {
                name: "basis",
                help: "Gaussian basis functions per dimension",
            },
            OptionSpec {
                name: "dt",
                help: "Integration step (seconds)",
            },
            OptionSpec {
                name: "duration",
                help: "Rollout duration (seconds)",
            },
        ];
        options.extend(super::trace_options());
        options
    }

    fn instantiate(&self, args: &Args) -> Result<Box<dyn KernelInstance>, KernelError> {
        let basis = args
            .get_count("basis", 30, MAX_BASIS, "a basis count of at most 10000")?
            .max(2);
        let dt = args.get_f64("dt", 0.0005)?;
        let duration = args.get_f64("duration", 2.0)?;
        if !(duration.is_finite() && duration >= 0.0) {
            return Err(bad_value(
                "duration",
                duration,
                "a finite, non-negative duration (s)",
            ));
        }
        // The rollout sizes its buffers for `duration / dt` steps up front.
        if !(dt.is_finite() && dt > 0.0 && duration / dt <= MAX_ROLLOUT_STEPS) {
            return Err(bad_value(
                "dt",
                dt,
                "a finite, positive time step of at least duration / 1e6 (s)",
            ));
        }

        let (demo, demo_duration) = wheeled_robot_demo(400);
        let config = DmpConfig {
            basis_count: basis,
            dt,
        };
        // Learning from the demonstration is the offline phase; only the
        // rollout integration runs inside the region of interest.
        let dmp = Dmp::learn(&demo, demo_duration, config);
        let run = dmp.begin_rollout(duration);
        Ok(Box::new(DmpInstance {
            dmp,
            run,
            profiler: Profiler::timed(),
        }))
    }
}

/// Stepped lifecycle state for `13.dmp`: each step advances the rollout by
/// one Euler integration tick, so a closed-loop driver can interleave the
/// primitive with sensing and planning at its own control rate.
struct DmpInstance {
    dmp: Dmp,
    run: RolloutRun,
    profiler: Profiler,
}

impl KernelInstance for DmpInstance {
    fn step(&mut self, trace: &mut dyn MemTrace) -> Result<StepStatus, KernelError> {
        let run = &mut self.run;
        // rtr-lint: allow(hot-alloc) -- step_inner's basis-weight clone is the DMP kernel's own measured behavior; the stepped adapter must stay bit-identical to the monolithic run
        let more = self.dmp.integrate_step(run, &mut self.profiler, trace);
        Ok(if more {
            StepStatus::Running
        } else {
            StepStatus::Done
        })
    }

    fn finish(
        self: Box<Self>,
        roi_seconds: f64,
        session: TraceSession,
    ) -> Result<KernelReport, KernelError> {
        let rollout = self.dmp.finish_rollout(self.run);
        let end = rollout.position.last().cloned().unwrap_or_default();
        let goal_error = self
            .dmp
            .goals()
            .iter()
            .zip(end.iter())
            .map(|(g, e)| (g - e).abs())
            .fold(0.0f64, f64::max);
        Ok(report(
            "13.dmp",
            Stage::Control,
            self.profiler,
            roi_seconds,
            vec![
                ("steps".into(), rollout.t.len().to_string()),
                ("goal error (m)".into(), format!("{goal_error:.4}")),
                (
                    "peak velocity (m/s)".into(),
                    format!(
                        "{:.2}",
                        rollout
                            .velocity
                            .iter()
                            .map(|v| v[0])
                            .fold(f64::NEG_INFINITY, f64::max)
                    ),
                ),
            ],
            session,
        ))
    }
}

/// Most reference samples (`--length`) `14.mpc` accepts: 500x the
/// default 200. The run reserves its trajectory for 4x this many steps.
const MAX_REFERENCE_SAMPLES: usize = 100_000;

/// `14.mpc`: model predictive control along a winding reference.
#[derive(Debug, Clone, Copy, Default)]
pub struct MpcKernel;

impl Kernel for MpcKernel {
    fn name(&self) -> &'static str {
        "14.mpc"
    }

    fn stage(&self) -> Stage {
        Stage::Control
    }

    fn table1_bottleneck(&self) -> &'static str {
        "Optimization"
    }

    fn cli_options(&self) -> Vec<OptionSpec> {
        let mut options = vec![
            OptionSpec {
                name: "length",
                help: "Reference trajectory samples",
            },
            OptionSpec {
                name: "horizon",
                help: "Prediction horizon (steps)",
            },
            OptionSpec {
                name: "iterations",
                help: "Optimizer iterations per step",
            },
        ];
        options.extend(super::trace_options());
        options
    }

    fn instantiate(&self, args: &Args) -> Result<Box<dyn KernelInstance>, KernelError> {
        // The run sizes its trajectory and solver buffers from these two.
        let length = args
            .get_count(
                "length",
                200,
                MAX_REFERENCE_SAMPLES,
                "a reference of at most 100000 samples",
            )?
            .max(2);
        let horizon = args.get_usize("horizon", 12)?.max(1);
        let iterations = args.get_usize("iterations", 40)?.max(1);
        if horizon > length {
            return Err(bad_value(
                "horizon",
                horizon,
                "a horizon no longer than the reference (--length)",
            ));
        }

        let reference = winding_reference(length);
        let config = MpcConfig {
            horizon,
            opt_iterations: iterations,
            ..Default::default()
        };
        let mpc = Mpc::new(config);
        let run = mpc.begin_track(&reference);
        Ok(Box::new(MpcInstance {
            mpc,
            reference,
            run,
            profiler: Profiler::timed(),
        }))
    }
}

/// Stepped lifecycle state for `14.mpc`: each step runs one control tick —
/// window advance, horizon optimization, and one plant update — which is
/// exactly the unit a closed-loop scenario interleaves with perception.
struct MpcInstance {
    mpc: Mpc,
    reference: Vec<Point2>,
    run: TrackRun,
    profiler: Profiler,
}

impl KernelInstance for MpcInstance {
    fn step(&mut self, trace: &mut dyn MemTrace) -> Result<StepStatus, KernelError> {
        let more = self
            .mpc
            .tick(&mut self.run, &self.reference, &mut self.profiler, trace);
        Ok(if more {
            StepStatus::Running
        } else {
            StepStatus::Done
        })
    }

    fn finish(
        self: Box<Self>,
        roi_seconds: f64,
        session: TraceSession,
    ) -> Result<KernelReport, KernelError> {
        let result = self.mpc.finish_track(self.run);
        Ok(report(
            "14.mpc",
            Stage::Control,
            self.profiler,
            roi_seconds,
            vec![
                (
                    "mean error (m)".into(),
                    format!("{:.3}", result.mean_tracking_error),
                ),
                (
                    "max error (m)".into(),
                    format!("{:.3}", result.max_tracking_error),
                ),
                ("max speed (m/s)".into(), format!("{:.2}", result.max_speed)),
                (
                    "max accel (m/s²)".into(),
                    format!("{:.2}", result.max_accel),
                ),
                ("opt iterations".into(), result.opt_iterations.to_string()),
            ],
            session,
        ))
    }
}

/// Parses `--goal`, the throw distance of `15.cem` and `16.bo` (default
/// 2 m). A goal under 0.1 m, NaN or infinite is an error, not a rewrite.
fn goal_arg(args: &Args) -> Result<f64, KernelError> {
    let goal = args.get_f64("goal", 2.0)?;
    if !(goal.is_finite() && goal >= 0.1) {
        return Err(bad_value(
            "goal",
            goal,
            "a finite goal distance of at least 0.1 (m)",
        ));
    }
    Ok(goal)
}

/// Most iterations `15.cem --iterations` accepts: 2000x the paper's 5.
/// Time grows linearly with the count: 1.2 s at the cap (default
/// samples, release build, 2-vCPU x86-64 host).
const MAX_CEM_ITERATIONS: usize = 10_000;

/// Most samples per iteration `15.cem --samples` accepts. Each iteration
/// draws its population and scores it into about 56 B per sample: 126 MB
/// peak RSS at the cap.
const MAX_CEM_SAMPLES: usize = 1_000_000;

/// `15.cem`: cross-entropy-method learning of the ball throw.
#[derive(Debug, Clone, Copy, Default)]
pub struct CemKernel;

impl Kernel for CemKernel {
    fn name(&self) -> &'static str {
        "15.cem"
    }

    fn stage(&self) -> Stage {
        Stage::Control
    }

    fn table1_bottleneck(&self) -> &'static str {
        "Sort"
    }

    fn cli_options(&self) -> Vec<OptionSpec> {
        let mut options = vec![
            OptionSpec {
                name: "iterations",
                help: "CEM iterations (paper: 5)",
            },
            OptionSpec {
                name: "samples",
                help: "Samples per iteration (paper: 15)",
            },
            OptionSpec {
                name: "goal",
                help: "Throw goal distance (m)",
            },
            OptionSpec {
                name: "seed",
                help: "Random seed",
            },
            super::threads_option(),
        ];
        options.extend(super::trace_options());
        options
    }

    fn instantiate(&self, args: &Args) -> Result<Box<dyn KernelInstance>, KernelError> {
        let config = CemConfig {
            iterations: args
                .get_count(
                    "iterations",
                    5,
                    MAX_CEM_ITERATIONS,
                    "an iteration count of at most 10000",
                )?
                .max(1),
            samples_per_iteration: args.get_count(
                "samples",
                15,
                MAX_CEM_SAMPLES,
                "a sample count of at most 1000000",
            )?,
            seed: args.get_u64("seed", 0)?,
            threads: args.get_threads(0)?,
            ..Default::default()
        };
        if config.samples_per_iteration < config.elites {
            return Err(bad_value(
                "samples",
                config.samples_per_iteration,
                "a sample count no smaller than the elite count (4)",
            ));
        }
        let sim = ThrowSim::new(goal_arg(args)?);
        Ok(OneShotInstance::boxed(
            self.name(),
            self.stage(),
            Profiler::timed(),
            move |profiler, trace| {
                let result = Cem::new(config).learn(&sim, profiler, trace);
                Ok(vec![
                    ("best reward".into(), format!("{:.3}", result.best_reward)),
                    ("evaluations".into(), result.evaluations.to_string()),
                    (
                        "first/last iter mean".into(),
                        format!(
                            "{:.3} / {:.3}",
                            result.iteration_means.first().copied().unwrap_or(f64::NAN),
                            result.iteration_means.last().copied().unwrap_or(f64::NAN)
                        ),
                    ),
                ])
            },
        ))
    }
}

/// Most iterations `16.bo --iterations` accepts: 4x the paper's 45.
/// Every iteration refits the GP on all observations so far, so time
/// grows much faster than the count: 1.2 s at the cap, 19 s at 500
/// (default candidates, release build, 2-vCPU x86-64 host).
const MAX_BO_ITERATIONS: usize = 200;

/// Most acquisition candidates per iteration `16.bo --candidates`
/// accepts: 2000x the default 500. Each iteration scores its candidates
/// into one 48 B row each (72 MB peak RSS at the cap).
const MAX_CANDIDATES: usize = 1_000_000;

/// `16.bo`: Bayesian optimization of the ball throw.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoKernel;

impl Kernel for BoKernel {
    fn name(&self) -> &'static str {
        "16.bo"
    }

    fn stage(&self) -> Stage {
        Stage::Control
    }

    fn table1_bottleneck(&self) -> &'static str {
        "Sort"
    }

    fn cli_options(&self) -> Vec<OptionSpec> {
        let mut options = vec![
            OptionSpec {
                name: "iterations",
                help: "BO iterations (paper: 45)",
            },
            OptionSpec {
                name: "candidates",
                help: "Acquisition candidates per iteration",
            },
            OptionSpec {
                name: "kappa",
                help: "UCB exploration coefficient",
            },
            OptionSpec {
                name: "goal",
                help: "Throw goal distance (m)",
            },
            OptionSpec {
                name: "seed",
                help: "Random seed",
            },
        ];
        options.extend(super::trace_options());
        options
    }

    fn instantiate(&self, args: &Args) -> Result<Box<dyn KernelInstance>, KernelError> {
        let config = BoConfig {
            iterations: args
                .get_count(
                    "iterations",
                    45,
                    MAX_BO_ITERATIONS,
                    "an iteration count of at most 200",
                )?
                .max(1),
            candidates: args
                .get_count(
                    "candidates",
                    500,
                    MAX_CANDIDATES,
                    "a candidate count of at most 1000000",
                )?
                .max(1),
            kappa: args.get_f64("kappa", 2.0)?,
            seed: args.get_u64("seed", 0)?,
        };
        let sim = ThrowSim::new(goal_arg(args)?);
        Ok(OneShotInstance::boxed(
            self.name(),
            self.stage(),
            Profiler::timed(),
            move |profiler, trace| {
                let result = BayesOpt::new(config).learn(&sim, profiler, trace);
                Ok(vec![
                    ("best reward".into(), format!("{:.3}", result.best_reward)),
                    ("evaluations".into(), result.evaluations.to_string()),
                    (
                        "candidates scored".into(),
                        result.candidates_scored.to_string(),
                    ),
                ])
            },
        ))
    }
}
