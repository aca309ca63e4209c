//! `rtr-perf`: the suite's end-to-end and per-layer benchmark.
//!
//! Four workloads, each a fixed input set run as many passes as fit in
//! the time budget:
//!
//! - `loop-pfl` and `loop-ekfslam` ([`loops`]): closed-loop scenario
//!   episodes with the particle-filter or EKF-SLAM localizer;
//! - `kernels` ([`kernels`]): the sixteen registry kernels through the
//!   stepped lifecycle, untraced;
//! - `char-small` ([`characterize`]): the reduced-inputset cache
//!   characterization table, traced through the cache simulator.
//!
//! The untraced run reports the end-to-end metrics; the traced run
//! times each layer from outside, through public entry points only, and
//! reports the per-layer metrics (see [`report`]).

pub mod characterize;
pub mod host;
pub mod kernels;
pub mod loops;
pub mod report;
pub mod stats;
pub mod twins;

use report::Outcome;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop with the `01.pfl` localizer.
    LoopPfl,
    /// Closed loop with the `02.ekfslam` localizer.
    LoopEkfSlam,
    /// The sixteen registry kernels, untraced.
    Kernels,
    /// The reduced-inputset characterization table, traced.
    CharSmall,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::LoopPfl,
        Workload::LoopEkfSlam,
        Workload::Kernels,
        Workload::CharSmall,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LoopPfl => "loop-pfl",
            Workload::LoopEkfSlam => "loop-ekfslam",
            Workload::Kernels => "kernels",
            Workload::CharSmall => "char-small",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload: untraced for the end-to-end metrics, traced for
    /// the per-layer ones.
    pub fn run(self, scope: &Scope, traced: bool) -> Outcome {
        let mut outcome = match self {
            Workload::LoopPfl => {
                loops::run(self.name(), rtr_scenario::LocalizerKind::Pfl, scope, traced)
            }
            Workload::LoopEkfSlam => loops::run(
                self.name(),
                rtr_scenario::LocalizerKind::EkfSlam,
                scope,
                traced,
            ),
            Workload::Kernels => kernels::run(self.name(), scope, traced),
            Workload::CharSmall => characterize::run(self.name(), scope, traced),
        };
        outcome.finalize();
        outcome
    }
}

/// How much of a workload one run covers.
#[derive(Debug, Clone, PartialEq)]
pub struct Scope {
    /// Input seed (the loops draw their episodes from it).
    pub seed: u64,
    /// Wall-clock budget for the measured passes.
    pub seconds: f64,
    /// Episodes per pass of a loop workload.
    pub episodes: usize,
    /// Registry kernels in the kernel and characterization workloads.
    pub kernels: Vec<&'static str>,
}

impl Scope {
    /// Every workload at full size.
    pub fn full(seed: u64, seconds: f64) -> Scope {
        Scope {
            seed,
            seconds,
            episodes: loops::EPISODES,
            kernels: report::KERNELS.to_vec(),
        }
    }
}
