//! `08.rrt` — rapidly-exploring random trees for arm motion planning,
//! plus the shared [`ArmProblem`] definition used by `07.prm`–`10.rrtpp`.
//!
//! RRT "draws random samples and extends a tree from the start
//! configuration towards the goal configuration", collision-checking every
//! extension online. The paper measures collision detection at up to 62 %
//! and nearest-neighbor search at up to 31 % of execution time, with the
//! NN search's irregular accesses producing a 12–22 % L1D miss ratio —
//! both regions are instrumented here, and the NN search can stream its
//! k-d-tree node visits into the cache simulator.

use std::f64::consts::PI;

use rtr_geom::{maps, Aabb2, KdTree, Point2};
use rtr_harness::Profiler;
use rtr_sim::{PlanarArm, SimRng};
use rtr_trace::MemTrace;

/// Degrees of freedom of the paper's arm ("we model a 5-DoF arm
/// manipulator").
pub const DOF: usize = 5;

/// A joint-space configuration of the arm.
pub type Config = [f64; DOF];

/// An arm motion-planning problem instance: the arm, the workspace
/// obstacles (`Map-F` or `Map-C`), and start/goal configurations.
#[derive(Debug, Clone)]
pub struct ArmProblem {
    /// The manipulator.
    pub arm: PlanarArm<DOF>,
    /// Workspace obstacles.
    pub obstacles: Vec<Aabb2>,
    /// Workspace side length (meters).
    pub side: f64,
    /// Start configuration.
    pub start: Config,
    /// Goal configuration.
    pub goal: Config,
    /// Configuration-space distance within which the goal counts as
    /// reached.
    pub goal_tolerance: f64,
    /// Interpolation steps per edge collision check.
    pub edge_steps: usize,
}

impl ArmProblem {
    /// Builds a problem on the given obstacle set with endpoints found by
    /// deterministic rejection sampling (guaranteed collision-free and at
    /// least 2 rad apart in joint space).
    ///
    /// # Panics
    ///
    /// Panics if no valid endpoint pair is found within a generous budget
    /// (indicates an over-constrained workspace).
    pub fn with_random_endpoints(obstacles: Vec<Aabb2>, seed: u64) -> Self {
        let side = maps::ARM_WORKSPACE_SIDE;
        let arm = PlanarArm::new(Point2::new(side * 0.5, side * 0.5), [side * 0.08; DOF]);
        let mut rng = SimRng::seed_from(seed);
        let sample_free = |rng: &mut SimRng| -> Config {
            for _ in 0..100_000 {
                let mut c = [0.0; DOF];
                for v in &mut c {
                    *v = rng.uniform(-PI, PI);
                }
                if !arm.in_collision(&c, &obstacles, side) {
                    return c;
                }
            }
            panic!("workspace too cluttered: no free configuration found");
        };
        let start = sample_free(&mut rng);
        let mut goal = sample_free(&mut rng);
        for _ in 0..100_000 {
            if config_distance(&start, &goal) >= 2.0 {
                break;
            }
            goal = sample_free(&mut rng);
        }
        ArmProblem {
            arm,
            obstacles,
            side,
            start,
            goal,
            goal_tolerance: 0.25,
            edge_steps: 8,
        }
    }

    /// The paper's free workspace `Map-F`.
    pub fn map_f(seed: u64) -> Self {
        ArmProblem::with_random_endpoints(maps::arm_map_f(), seed)
    }

    /// The paper's cluttered workspace `Map-C`.
    pub fn map_c(seed: u64) -> Self {
        ArmProblem::with_random_endpoints(maps::arm_map_c(), seed)
    }

    /// Uniform random configuration.
    pub fn sample(&self, rng: &mut SimRng) -> Config {
        let mut c = [0.0; DOF];
        for v in &mut c {
            *v = rng.uniform(-PI, PI);
        }
        c
    }

    /// Workspace collision check of a single configuration.
    pub fn in_collision(&self, config: &Config) -> bool {
        self.arm.in_collision(config, &self.obstacles, self.side)
    }

    /// Collision check of the straight joint-space motion `from → to`.
    pub fn motion_free(&self, from: &Config, to: &Config) -> bool {
        self.arm
            .motion_free(from, to, &self.obstacles, self.side, self.edge_steps)
    }

    /// Total joint-space length of a path.
    pub fn path_cost(&self, path: &[Config]) -> f64 {
        path.windows(2).map(|w| config_distance(&w[0], &w[1])).sum()
    }

    /// Validates that every edge of `path` is collision-free and that it
    /// connects start to goal (used by tests).
    pub fn path_valid(&self, path: &[Config]) -> bool {
        if path.is_empty() {
            return false;
        }
        let connects = config_distance(&path[0], &self.start) < 1e-9
            && config_distance(path.last().unwrap(), &self.goal) < 1e-9;
        connects && path.windows(2).all(|w| self.motion_free(&w[0], &w[1]))
    }
}

/// Euclidean distance in joint space — the paper's "L2-norm calculations
/// ... to calculate the distance of samples in n-dimension space".
#[inline]
pub fn config_distance(a: &Config, b: &Config) -> f64 {
    let mut sum = 0.0;
    for i in 0..DOF {
        let d = a[i] - b[i];
        sum += d * d;
    }
    sum.sqrt()
}

/// Moves `from` toward `to` by at most `step` (joint-space Euclidean).
pub fn steer(from: &Config, to: &Config, step: f64) -> Config {
    let d = config_distance(from, to);
    if d <= step {
        return *to;
    }
    let scale = step / d;
    let mut out = [0.0; DOF];
    for i in 0..DOF {
        out[i] = from[i] + (to[i] - from[i]) * scale;
    }
    out
}

/// Configuration for [`Rrt`] (and, with `neighbor_radius`, for the RRT*
/// variant).
#[derive(Debug, Clone)]
pub struct RrtConfig {
    /// Maximum samples before giving up (the paper's `--samples`).
    pub max_samples: usize,
    /// Extension step ε in joint space (the paper's `--epsilon`).
    pub epsilon: f64,
    /// Probability of sampling the goal instead of uniform (the paper's
    /// `--bias`).
    pub goal_bias: f64,
    /// Neighborhood radius for RRT* rewiring (the paper's `--radius`).
    pub neighbor_radius: f64,
    /// RNG seed.
    pub seed: u64,
    /// RRT*-only refinement budget: once the goal is first connected after
    /// `s` samples, keep refining until `s × factor` samples, then stop.
    /// `None` runs the full `max_samples` budget. The paper observes RRT*
    /// "up to 8×" slower than RRT, i.e. a bounded refinement phase.
    pub star_refine_factor: Option<f64>,
}

impl Default for RrtConfig {
    fn default() -> Self {
        RrtConfig {
            max_samples: 20_000,
            epsilon: 0.3,
            goal_bias: 0.05,
            neighbor_radius: 0.9,
            seed: 0,
            star_refine_factor: None,
        }
    }
}

/// Result of an RRT-family run.
#[derive(Debug, Clone)]
pub struct RrtResult {
    /// Joint-space path from start to goal.
    pub path: Vec<Config>,
    /// Joint-space path length.
    pub cost: f64,
    /// Samples drawn.
    pub samples: usize,
    /// Tree size at termination.
    pub tree_size: usize,
    /// Nearest-neighbor queries issued.
    pub nn_queries: u64,
    /// Edge/vertex collision checks performed.
    pub collision_checks: u64,
}

#[derive(Debug)]
pub(crate) struct Tree {
    pub nodes: Vec<Config>,
    pub parents: Vec<usize>,
    /// Child adjacency, mirror of `parents`: `children[p]` lists exactly
    /// the ids whose parent is `p` (the root is never its own child).
    /// Kept in sync by `add`/`reparent` so RRT*'s cost propagation can
    /// walk just the rewired subtree instead of scanning the whole arena.
    pub children: Vec<Vec<usize>>,
    pub costs: Vec<f64>,
    pub index: KdTree<DOF>,
}

impl Tree {
    pub fn new(root: Config) -> Self {
        let mut index = KdTree::new();
        index.insert(root, 0);
        Tree {
            nodes: vec![root],
            parents: vec![0],
            children: vec![Vec::new()],
            costs: vec![0.0],
            index,
        }
    }

    pub fn add(&mut self, config: Config, parent: usize) -> usize {
        let id = self.nodes.len();
        let cost = self.costs[parent] + config_distance(&self.nodes[parent], &config);
        self.nodes.push(config);
        self.parents.push(parent);
        self.children.push(Vec::new());
        self.children[parent].push(id);
        self.costs.push(cost);
        self.index.insert(config, id);
        id
    }

    /// Moves `node` under `new_parent`, keeping the child adjacency in
    /// sync. The caller is responsible for cost bookkeeping.
    pub fn reparent(&mut self, node: usize, new_parent: usize) {
        let old_parent = self.parents[node];
        let slot = self.children[old_parent]
            .iter()
            .position(|&c| c == node)
            .expect("child adjacency out of sync with parents");
        self.children[old_parent].swap_remove(slot);
        self.parents[node] = new_parent;
        self.children[new_parent].push(node);
    }

    pub fn path_to(&self, mut id: usize) -> Vec<Config> {
        let mut path = vec![self.nodes[id]];
        while self.parents[id] != id {
            id = self.parents[id];
            path.push(self.nodes[id]);
        }
        path.reverse();
        path
    }
}

/// The RRT kernel.
///
/// # Example
///
/// ```
/// use rtr_planning::{ArmProblem, Rrt, RrtConfig};
/// use rtr_harness::Profiler;
///
/// let problem = ArmProblem::map_f(1);
/// let mut profiler = Profiler::new();
/// let result = Rrt::new(RrtConfig::default())
///     .plan(&problem, &mut profiler, &mut rtr_trace::NullTrace)
///     .expect("free workspace is solvable");
/// assert!(problem.path_valid(&result.path));
/// ```
#[derive(Debug, Clone)]
pub struct Rrt {
    config: RrtConfig,
}

impl Rrt {
    /// Creates the kernel.
    pub fn new(config: RrtConfig) -> Self {
        Rrt { config }
    }

    /// Grows a tree from `problem.start` until the goal region is reached
    /// or the sample budget is exhausted.
    ///
    /// Profiler regions: `sampling`, `nn_search`, `collision_detection`.
    /// With a live `trace` sink, k-d-tree node visits during NN search are
    /// emitted as reads of 40-byte configurations in an insertion-order
    /// arena ("samples whose values are close could be allocated in
    /// distant memory locations"), and each accepted extension writes its
    /// new arena slot. Pass [`rtr_trace::NullTrace`] for an untraced run.
    pub fn plan<T: MemTrace + ?Sized>(
        &self,
        problem: &ArmProblem,
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> Option<RrtResult> {
        if problem.in_collision(&problem.start) || problem.in_collision(&problem.goal) {
            return None;
        }
        let mut rng = SimRng::seed_from(self.config.seed);
        let mut tree = Tree::new(problem.start);
        let mut nn_queries = 0u64;
        let mut collision_checks = 0u64;

        #[allow(
            clippy::explicit_counter_loop,
            reason = "nn_queries also counts goal checks below"
        )]
        for sample_idx in 0..self.config.max_samples {
            let sample_start = profiler.hot_start();
            let target = if rng.chance(self.config.goal_bias) {
                problem.goal
            } else {
                problem.sample(&mut rng)
            };
            profiler.hot_add("sampling", sample_start);

            // Nearest neighbor in the tree.
            let nn_start = profiler.hot_start();
            nn_queries += 1;
            let (nearest_id, _) = if let Some(g) = trace.gate() {
                tree.index
                    .nearest_with(&target, |payload| {
                        trace.read(payload as u64 * 40, g); // 5 × f64 per config
                    })
                    .expect("tree is non-empty")
            } else {
                tree.index.nearest(&target).expect("tree is non-empty")
            };
            profiler.hot_add("nn_search", nn_start);

            // Steer and collision-check the new edge.
            let new_config = steer(&tree.nodes[nearest_id], &target, self.config.epsilon);
            let col_start = profiler.hot_start();
            collision_checks += 1;
            let free = problem.motion_free(&tree.nodes[nearest_id], &new_config);
            profiler.hot_add("collision_detection", col_start);
            if !free {
                continue;
            }
            let new_id = tree.add(new_config, nearest_id);
            if let Some(g) = trace.gate() {
                trace.write(new_id as u64 * 40, g);
            }

            // Goal connection test.
            if config_distance(&new_config, &problem.goal) <= problem.goal_tolerance {
                let col_start = profiler.hot_start();
                collision_checks += 1;
                let free = problem.motion_free(&new_config, &problem.goal);
                profiler.hot_add("collision_detection", col_start);
                if free {
                    let goal_id = tree.add(problem.goal, new_id);
                    if let Some(g) = trace.gate() {
                        trace.write(goal_id as u64 * 40, g);
                    }
                    let path = tree.path_to(goal_id);
                    return Some(RrtResult {
                        cost: problem.path_cost(&path),
                        path,
                        samples: sample_idx + 1,
                        tree_size: tree.nodes.len(),
                        nn_queries,
                        collision_checks,
                    });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_trace::{CountingTrace, NullTrace};

    #[test]
    fn solves_free_workspace() {
        let problem = ArmProblem::map_f(1);
        let mut profiler = Profiler::new();
        let r = Rrt::new(RrtConfig::default())
            .plan(&problem, &mut profiler, &mut NullTrace)
            .expect("solvable");
        assert!(problem.path_valid(&r.path));
        assert!(r.cost >= config_distance(&problem.start, &problem.goal) - 1e-9);
    }

    #[test]
    fn solves_cluttered_workspace() {
        let problem = ArmProblem::map_c(2);
        let mut profiler = Profiler::new();
        let r = Rrt::new(RrtConfig {
            max_samples: 50_000,
            ..Default::default()
        })
        .plan(&problem, &mut profiler, &mut NullTrace)
        .expect("map-c should be solvable");
        assert!(problem.path_valid(&r.path));
    }

    #[test]
    fn deterministic_given_seed() {
        let problem = ArmProblem::map_f(3);
        let mut p1 = Profiler::new();
        let mut p2 = Profiler::new();
        let a = Rrt::new(RrtConfig::default())
            .plan(&problem, &mut p1, &mut NullTrace)
            .unwrap();
        let b = Rrt::new(RrtConfig::default())
            .plan(&problem, &mut p2, &mut NullTrace)
            .unwrap();
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn collision_and_nn_are_the_top_regions() {
        let problem = ArmProblem::map_c(4);
        // timed(): region fractions only exist with hot timing on.
        let mut profiler = Profiler::timed();
        Rrt::new(RrtConfig {
            max_samples: 50_000,
            ..Default::default()
        })
        .plan(&problem, &mut profiler, &mut NullTrace)
        .expect("solvable");
        profiler.freeze_total();
        let report = profiler.report();
        let top2: Vec<&str> = report.iter().take(2).map(|r| r.name.as_str()).collect();
        assert!(
            top2.contains(&"collision_detection"),
            "collision not dominant: {top2:?}"
        );
    }

    #[test]
    fn in_collision_endpoint_returns_none() {
        let mut problem = ArmProblem::map_c(5);
        // Force the start into collision by boxing the whole workspace.
        problem.obstacles.push(Aabb2::new(
            Point2::new(0.0, 0.0),
            Point2::new(problem.side, problem.side),
        ));
        let mut profiler = Profiler::new();
        assert!(Rrt::new(RrtConfig::default())
            .plan(&problem, &mut profiler, &mut NullTrace)
            .is_none());
    }

    #[test]
    fn steer_limits_step_size() {
        let a = [0.0; DOF];
        let b = [1.0; DOF];
        let stepped = steer(&a, &b, 0.5);
        assert!((config_distance(&a, &stepped) - 0.5).abs() < 1e-12);
        let close = steer(&a, &[0.1, 0.0, 0.0, 0.0, 0.0], 0.5);
        assert_eq!(close, [0.1, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn traced_run_is_bit_identical_and_emits_nn_visits() {
        // The paper's 12-22 % L1D miss-ratio finding for the NN search is
        // asserted end-to-end in the bench crate's characterization tests;
        // here we check the emission shape and the determinism contract.
        let problem = ArmProblem::map_c(6);
        let mut profiler = Profiler::new();
        let config = RrtConfig {
            max_samples: 5_000,
            ..Default::default()
        };
        let mut counts = CountingTrace::default();
        let traced = Rrt::new(config.clone())
            .plan(&problem, &mut profiler, &mut counts)
            .expect("solvable");
        let plain = Rrt::new(config)
            .plan(&problem, &mut profiler, &mut NullTrace)
            .expect("solvable");
        assert_eq!(traced.cost.to_bits(), plain.cost.to_bits());
        assert_eq!(traced.samples, plain.samples);
        // Every accepted extension writes its arena slot (the root is
        // never written), and NN visits dominate reads.
        assert_eq!(counts.writes, traced.tree_size as u64 - 1);
        assert!(counts.reads > traced.nn_queries);
    }

    #[test]
    fn problem_endpoints_are_free_and_distant() {
        for seed in 0..5 {
            let p = ArmProblem::map_c(seed);
            assert!(!p.in_collision(&p.start));
            assert!(!p.in_collision(&p.goal));
            assert!(config_distance(&p.start, &p.goal) >= 2.0);
        }
    }
}
