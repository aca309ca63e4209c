//! RTRBench-rs suite facade: the kernel registry and runners.
//!
//! This crate ties the 16 kernels into the uniform shape the paper's
//! harness provides: every kernel has a name (`01.pfl` … `16.bo`), a
//! pipeline stage, a set of command-line options with defaults (Fig. 20),
//! and a runner that executes it on a representative inputset, marks the
//! region of interest, and reports the per-region time breakdown behind
//! Table I.
//!
//! # Example
//!
//! ```
//! use rtr_core::{registry, Stage};
//! use rtr_harness::Args;
//!
//! let kernels = registry();
//! assert_eq!(kernels.len(), 16);
//! let pfl = &kernels[0];
//! assert_eq!(pfl.name(), "01.pfl");
//! assert_eq!(pfl.stage(), Stage::Perception);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
pub mod trace;

use std::fmt;

pub use kernels::{registry, registry_lookup};
use rtr_harness::{Args, CliError, OptionSpec, RegionReport, Roi};
use rtr_trace::MemTrace;
pub use trace::{vldp_arg, CacheReport, Telemetry, TraceSession};

/// The pipeline stage a kernel belongs to (the paper's Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Sensing → state/environment estimation.
    Perception,
    /// Path/motion/task planning.
    Planning,
    /// Trajectory generation and actuation.
    Control,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Perception => write!(f, "Perception"),
            Stage::Planning => write!(f, "Planning"),
            Stage::Control => write!(f, "Control"),
        }
    }
}

/// The outcome of one kernel run under the harness.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Kernel name, e.g. `08.rrt`.
    pub name: &'static str,
    /// Pipeline stage.
    pub stage: Stage,
    /// Wall-clock seconds inside the region of interest.
    pub roi_seconds: f64,
    /// Region breakdown, sorted by descending time.
    pub regions: Vec<RegionReport>,
    /// Kernel-specific result metrics (e.g. path cost, RMSE), as
    /// `(label, value)` pairs for the report tables.
    pub metrics: Vec<(String, String)>,
    /// Cache-hierarchy statistics when the run was traced (`--trace`).
    pub cache: Option<CacheReport>,
}

impl KernelReport {
    /// The region with the largest share — the measured Table I
    /// bottleneck.
    pub fn dominant_region(&self) -> Option<&RegionReport> {
        self.regions.first()
    }
}

/// Errors a kernel run can produce.
#[derive(Debug)]
#[non_exhaustive]
pub enum KernelError {
    /// Command-line arguments failed to parse.
    Cli(CliError),
    /// The configured problem instance has no solution (e.g. the goal is
    /// unreachable on the generated map).
    Unsolvable(&'static str),
    /// An external inputset (e.g. a MovingAI `.map`/`.scen` file) could
    /// not be read or parsed.
    Input(String),
    /// A kernel selector matched nothing in the registry (see
    /// [`registry_lookup`]).
    UnknownKernel {
        /// The selector that failed to match.
        name: String,
        /// The closest registered kernel name, when one is close enough
        /// to be a plausible typo.
        suggestion: Option<&'static str>,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Cli(e) => write!(f, "{e}"),
            KernelError::Unsolvable(what) => write!(f, "problem instance unsolvable: {what}"),
            KernelError::Input(what) => write!(f, "bad inputset: {what}"),
            KernelError::UnknownKernel { name, suggestion } => {
                write!(f, "unknown kernel {name:?}")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean {s:?}?)")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for KernelError {}

impl From<CliError> for KernelError {
    fn from(e: CliError) -> Self {
        KernelError::Cli(e)
    }
}

/// Progress signal returned by [`KernelInstance::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// More units of work remain; call `step` again.
    Running,
    /// The algorithm has finished; call [`KernelInstance::finish`].
    Done,
}

/// One resumable kernel execution: the stepped lifecycle behind
/// [`Kernel::run`].
///
/// [`Kernel::instantiate`] performs everything that belongs *outside*
/// the region of interest (argument parsing, inputset generation,
/// offline phases such as PRM roadmap construction or DMP
/// demonstration learning) and returns the instance. Each
/// [`step`](KernelInstance::step) call then advances the algorithm by
/// one unit of work — one lidar scan for PFL, one ICP iteration, one
/// RRT* sample, one MPC control tick — emitting memory accesses into
/// `trace`; kernels without a natural increment complete in a single
/// step. [`finish`](KernelInstance::finish) assembles the
/// [`KernelReport`] from the accumulated state.
///
/// The contract drivers rely on (enforced by
/// `crates/bench/tests/scenario.rs`): driving `step` to
/// [`StepStatus::Done`] and calling `finish` yields a report whose
/// `metrics` are bit-identical to the one-shot [`Kernel::run`] path for
/// the same arguments, at every thread count. Steady-state `step`
/// bodies are allocation-free (`rtr-lint`'s `hot-alloc` rule scans
/// `step` fns on `*Instance`/`*State` impls, transitively).
pub trait KernelInstance {
    /// Advances the algorithm by one unit of work.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Unsolvable`] when the instance discovers
    /// mid-run that the configured problem admits no solution.
    fn step(&mut self, trace: &mut dyn MemTrace) -> Result<StepStatus, KernelError>;

    /// Consumes the instance and assembles its report. Must only be
    /// called after [`step`](KernelInstance::step) returned
    /// [`StepStatus::Done`].
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Unsolvable`] when the finished run found
    /// no solution to report.
    fn finish(
        self: Box<Self>,
        roi_seconds: f64,
        session: TraceSession,
    ) -> Result<KernelReport, KernelError>;
}

/// A benchmark kernel: named, staged, configurable and runnable.
///
/// All sixteen of the paper's kernels implement this; [`registry`] returns
/// them in paper order.
pub trait Kernel: std::fmt::Debug {
    /// The paper's kernel id, e.g. `04.pp2d`.
    fn name(&self) -> &'static str;

    /// Pipeline stage (Table I's second column).
    fn stage(&self) -> Stage;

    /// The bottleneck Table I lists for this kernel.
    fn table1_bottleneck(&self) -> &'static str;

    /// Command-line options the kernel accepts (for `--help`).
    fn cli_options(&self) -> Vec<OptionSpec>;

    /// Creates a stepped execution of this kernel on its representative
    /// inputset: parses `args`, generates inputs, and runs any offline
    /// phase that the one-shot path performs before entering the region
    /// of interest.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Cli`] on malformed arguments,
    /// [`KernelError::Input`] on unreadable external inputsets, and
    /// [`KernelError::Unsolvable`] when instantiation already proves the
    /// instance unsolvable.
    fn instantiate(&self, args: &Args) -> Result<Box<dyn KernelInstance>, KernelError>;

    /// Runs the kernel with the given arguments on its representative
    /// inputset, tracing as the shared `--trace`/`--vldp` options ask.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Cli`] on malformed arguments and
    /// [`KernelError::Unsolvable`] when the configured instance admits no
    /// solution.
    fn run(&self, args: &Args) -> Result<KernelReport, KernelError> {
        self.run_with(args, TraceSession::from_args(args)?)
    }

    /// [`run`](Kernel::run) with a caller-built trace session, for
    /// callers that choose the transport themselves (the
    /// characterization table's [`Telemetry::Ring`] cells).
    ///
    /// The default implementation is the stepped lifecycle driven to
    /// completion: [`instantiate`](Kernel::instantiate), then
    /// [`KernelInstance::step`] inside the region of interest until
    /// [`StepStatus::Done`], then [`KernelInstance::finish`].
    ///
    /// # Errors
    ///
    /// As [`run`](Kernel::run).
    fn run_with(
        &self,
        args: &Args,
        mut session: TraceSession,
    ) -> Result<KernelReport, KernelError> {
        let mut instance = self.instantiate(args)?;
        let roi = Roi::enter(self.name());
        while instance.step(session.sink())? == StepStatus::Running {}
        let roi_seconds = roi.exit().as_secs_f64();
        instance.finish(roi_seconds, session)
    }
}
