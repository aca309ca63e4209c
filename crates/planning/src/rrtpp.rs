//! `10.rrtpp` — RRT with shortcut post-processing.
//!
//! Instead of paying RRT*'s rewiring cost, the path produced by plain RRT
//! is post-processed: "two nodes along the path are shortcutted if they
//! can be directly connected to each other; i.e., there are not any
//! obstacles among them" (the paper's Fig. 12, based on the triangle
//! inequality). The paper finds the resulting computation and path cost
//! "lie in between RRT* and the baseline RRT".

use rtr_harness::Profiler;
use rtr_trace::MemTrace;

use crate::rrt::{ArmProblem, Config, Rrt, RrtConfig, RrtResult};

/// Result of an RRT + post-processing run.
#[derive(Debug, Clone)]
pub struct RrtPpResult {
    /// The final (shortcut) path and counters from the underlying RRT.
    pub base: RrtResult,
    /// Path cost before post-processing.
    pub raw_cost: f64,
    /// Shortcuts applied.
    pub shortcuts: u64,
    /// Post-processing passes executed.
    pub passes: u32,
}

/// The RRT-with-post-processing kernel.
///
/// # Example
///
/// ```
/// use rtr_planning::{ArmProblem, RrtConfig, RrtPp};
/// use rtr_harness::Profiler;
///
/// let problem = ArmProblem::map_f(1);
/// let mut profiler = Profiler::new();
/// let result = RrtPp::new(RrtConfig::default(), 4)
///     .plan(&problem, &mut profiler, &mut rtr_trace::NullTrace)
///     .expect("solvable");
/// assert!(result.base.cost <= result.raw_cost + 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct RrtPp {
    config: RrtConfig,
    /// Maximum shortcut passes ("the post-processing step could run for
    /// several iterations to further reduce the path cost").
    max_passes: u32,
}

impl RrtPp {
    /// Creates the kernel with the given RRT configuration and shortcut
    /// pass budget.
    pub fn new(config: RrtConfig, max_passes: u32) -> Self {
        RrtPp { config, max_passes }
    }

    /// Runs RRT then shortcut post-processing.
    ///
    /// Profiler regions: the underlying RRT's (`sampling`, `nn_search`,
    /// `collision_detection`) plus `post_process` for the shortcut phase.
    /// The trace stream is the underlying RRT's plus one 40-byte path-node
    /// read per shortcut candidate pair examined.
    pub fn plan<T: MemTrace + ?Sized>(
        &self,
        problem: &ArmProblem,
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> Option<RrtPpResult> {
        let mut base = Rrt::new(self.config.clone()).plan(problem, profiler, &mut *trace)?;
        let raw_cost = base.cost;

        // Once-per-solve coarse measurement: stays on even when the
        // per-iteration hot-loop timing knob is off.
        let (path, shortcuts, passes, extra_checks) = {
            let tr = &mut *trace;
            profiler.time("post_process", || {
                let mut path = base.path.clone();
                let mut shortcuts = 0u64;
                let mut passes = 0u32;
                let mut extra_checks = 0u64;
                for _ in 0..self.max_passes {
                    passes += 1;
                    let (next, cut, checks) = shortcut_pass(problem, &path, &mut *tr);
                    extra_checks += checks;
                    path = next;
                    shortcuts += cut;
                    if cut == 0 {
                        break; // Converged: no pair can be connected directly.
                    }
                }
                (path, shortcuts, passes, extra_checks)
            })
        };

        base.collision_checks += extra_checks;
        base.cost = problem.path_cost(&path);
        base.path = path;
        Some(RrtPpResult {
            base,
            raw_cost,
            shortcuts,
            passes,
        })
    }
}

/// One greedy shortcut sweep: from each node, jump to the farthest later
/// node directly reachable without collision. Returns the new path, the
/// number of shortcuts, and collision checks spent.
fn shortcut_pass<T: MemTrace + ?Sized>(
    problem: &ArmProblem,
    path: &[Config],
    trace: &mut T,
) -> (Vec<Config>, u64, u64) {
    if path.len() <= 2 {
        return (path.to_vec(), 0, 0);
    }
    let mut out = vec![path[0]];
    let mut shortcuts = 0u64;
    let mut checks = 0u64;
    let mut i = 0usize;
    while i + 1 < path.len() {
        // Farthest j > i+1 with a free straight connection.
        let mut j = i + 1;
        for candidate in ((i + 2)..path.len()).rev() {
            checks += 1;
            if let Some(g) = trace.gate() {
                trace.read(i as u64 * 40, g);
                trace.read(candidate as u64 * 40, g);
            }
            if problem.motion_free(&path[i], &path[candidate]) {
                j = candidate;
                break;
            }
        }
        if j > i + 1 {
            shortcuts += 1;
        }
        out.push(path[j]);
        i = j;
    }
    (out, shortcuts, checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrt::config_distance;
    use crate::rrtstar::RrtStar;
    use rtr_trace::{CountingTrace, NullTrace};

    #[test]
    fn shortcutting_never_increases_cost() {
        for seed in 0..4 {
            let problem = ArmProblem::map_c(20 + seed);
            let mut profiler = Profiler::new();
            let config = RrtConfig {
                seed,
                max_samples: 50_000,
                ..Default::default()
            };
            if let Some(r) = RrtPp::new(config, 6).plan(&problem, &mut profiler, &mut NullTrace) {
                assert!(r.base.cost <= r.raw_cost + 1e-9);
                assert!(problem.path_valid(&r.base.path));
            }
        }
    }

    #[test]
    fn straight_line_scenario_collapses_to_two_nodes() {
        // In a free workspace the whole path shortcuts to start→goal.
        let problem = ArmProblem::map_f(1);
        let mut profiler = Profiler::new();
        let r = RrtPp::new(RrtConfig::default(), 8)
            .plan(&problem, &mut profiler, &mut NullTrace)
            .expect("solvable");
        assert_eq!(r.base.path.len(), 2, "free space should fully shortcut");
        let direct = config_distance(&problem.start, &problem.goal);
        assert!((r.base.cost - direct).abs() < 1e-9);
    }

    #[test]
    fn cost_lies_between_rrt_and_rrtstar() {
        // The paper's §V.10 finding, averaged over seeds.
        let mut rrt_cost = 0.0;
        let mut pp_cost = 0.0;
        let mut star_cost = 0.0;
        let mut solved = 0;
        for seed in 0..3 {
            let problem = ArmProblem::map_c(30 + seed);
            let mut p = Profiler::new();
            let base_config = RrtConfig {
                seed,
                max_samples: 50_000,
                ..Default::default()
            };
            let (Some(rrt), Some(pp), Some(star)) = (
                Rrt::new(base_config.clone()).plan(&problem, &mut p, &mut NullTrace),
                RrtPp::new(base_config.clone(), 6).plan(&problem, &mut p, &mut NullTrace),
                RrtStar::new(RrtConfig {
                    max_samples: 8_000,
                    ..base_config
                })
                .plan(&problem, &mut p, &mut NullTrace),
            ) else {
                continue;
            };
            solved += 1;
            rrt_cost += rrt.cost;
            pp_cost += pp.base.cost;
            star_cost += star.base.cost;
        }
        assert!(solved >= 2, "not enough solved instances");
        assert!(pp_cost <= rrt_cost + 1e-9, "pp {pp_cost} vs rrt {rrt_cost}");
        // The full star ≤ pp ≤ rrt ordering needs larger RRT* budgets than
        // a unit test affords; the exp_arm_planners experiment reproduces
        // it. Here we assert the robust half: both refinements beat RRT.
        assert!(
            star_cost <= rrt_cost + 1e-9,
            "star {star_cost} vs rrt {rrt_cost}"
        );
    }

    #[test]
    fn post_process_region_is_recorded() {
        let problem = ArmProblem::map_c(40);
        let mut profiler = Profiler::new();
        RrtPp::new(
            RrtConfig {
                max_samples: 50_000,
                ..Default::default()
            },
            4,
        )
        .plan(&problem, &mut profiler, &mut NullTrace)
        .expect("solvable");
        assert!(profiler.region_calls("post_process") == 1);
    }

    #[test]
    fn traced_plan_is_bit_identical_and_adds_shortcut_reads() {
        let problem = ArmProblem::map_c(41);
        let mut profiler = Profiler::new();
        let config = RrtConfig {
            max_samples: 50_000,
            ..Default::default()
        };
        let mut counts = CountingTrace::default();
        let traced = RrtPp::new(config.clone(), 4)
            .plan(&problem, &mut profiler, &mut counts)
            .expect("solvable");
        let plain = RrtPp::new(config, 4)
            .plan(&problem, &mut profiler, &mut NullTrace)
            .expect("solvable");
        assert_eq!(traced.base.cost.to_bits(), plain.base.cost.to_bits());
        assert_eq!(traced.shortcuts, plain.shortcuts);
        // RRT NN visits plus two reads per shortcut candidate pair.
        assert!(counts.reads > 2 * traced.shortcuts);
        assert!(counts.writes > 0);
    }

    #[test]
    fn trivial_paths_pass_through() {
        let problem = ArmProblem::map_f(2);
        let two = vec![problem.start, problem.goal];
        let (out, cuts, _) = shortcut_pass(&problem, &two, &mut NullTrace);
        assert_eq!(out.len(), 2);
        assert_eq!(cuts, 0);
    }
}
