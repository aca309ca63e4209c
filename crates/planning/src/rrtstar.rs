//! `09.rrtstar` — asymptotically optimal RRT*.
//!
//! RRT* "improves path quality by rewiring the tree: when a random sample
//! is added to the tree, near neighbors are evaluated and the connections
//! change if the addition of the new node can reduce the path cost" (the
//! paper's Fig. 11). The price is that the planner keeps sampling for its
//! whole budget instead of stopping at the first connection — the paper
//! measures RRT* "significantly slower (up to 8×) ... but generates
//! shorter paths (1.6× on average)" than RRT, with the nearest-neighbor
//! share of execution growing to ~49 % because of the per-sample
//! neighborhood queries.

use rtr_harness::Profiler;
use rtr_sim::SimRng;
use rtr_trace::MemTrace;

use crate::rrt::{config_distance, steer, ArmProblem, Config, RrtConfig, RrtResult, Tree};

/// Result of an RRT* run (same shape as RRT's, plus rewiring stats).
#[derive(Debug, Clone)]
pub struct RrtStarResult {
    /// The underlying path/cost/counters.
    pub base: RrtResult,
    /// Rewiring operations that actually changed a parent.
    pub rewirings: u64,
    /// Goal connections found over the run (the best one is returned).
    pub goal_connections: u64,
}

/// Loop state of one anytime RRT* search over a fixed [`ArmProblem`].
///
/// Created by [`RrtStar::begin`], advanced one sample at a time by
/// [`RrtStar::sample_step`], and turned into an [`RrtStarResult`] by
/// [`RrtStar::finish_plan`]. The search is *anytime*: after the first
/// goal connection every further step can only shorten the best path, so
/// a caller may stop early at any point and still harvest a valid plan.
#[derive(Debug)]
pub struct RrtStarRun {
    rng: SimRng,
    tree: Tree,
    /// Per-sample neighborhood results land in this reused buffer; after
    /// a few samples its capacity plateaus and the ~49 %-of-time NN
    /// region runs allocation-free.
    neighbors: Vec<(usize, f64)>,
    nn_queries: u64,
    collision_checks: u64,
    rewirings: u64,
    goal_connections: u64,
    /// Best goal attachment: (tree node holding the goal config's
    /// parent, cost through it).
    best_goal: Option<(usize, f64)>,
    first_connection: Option<usize>,
    samples_used: usize,
    sample_idx: usize,
    /// Start or goal began in collision: the search never runs.
    blocked: bool,
}

/// The RRT* kernel.
///
/// # Example
///
/// ```
/// use rtr_planning::{ArmProblem, RrtConfig, RrtStar};
/// use rtr_harness::Profiler;
///
/// let problem = ArmProblem::map_f(1);
/// let mut profiler = Profiler::new();
/// let result = RrtStar::new(RrtConfig { max_samples: 4000, ..Default::default() })
///     .plan(&problem, &mut profiler, &mut rtr_trace::NullTrace)
///     .expect("solvable");
/// assert!(problem.path_valid(&result.base.path));
/// ```
#[derive(Debug, Clone)]
pub struct RrtStar {
    config: RrtConfig,
}

impl RrtStar {
    /// Creates the kernel.
    pub fn new(config: RrtConfig) -> Self {
        RrtStar { config }
    }

    /// Runs RRT* for the full sample budget, returning the best goal path
    /// found (or `None` if the goal was never connected).
    ///
    /// Profiler regions: `sampling`, `nn_search` (nearest + neighborhood
    /// queries), `collision_detection` (extension, parent-choice and
    /// rewiring checks). With a live `trace` sink, both NN query kinds
    /// emit 40-byte configuration reads per visited node, and accepted
    /// extensions/rewirings write the touched arena slots.
    pub fn plan<T: MemTrace + ?Sized>(
        &self,
        problem: &ArmProblem,
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> Option<RrtStarResult> {
        let mut run = self.begin(problem);
        while self.sample_step(&mut run, problem, profiler, &mut *trace) {}
        self.finish_plan(run, problem)
    }

    /// Starts an anytime search: seeds the RNG, roots the tree at the
    /// start configuration, and zeroes the counters. Drive the returned
    /// [`RrtStarRun`] with [`RrtStar::sample_step`] until it returns
    /// `false` (or stop early), then call
    /// [`RrtStar::finish_plan`]; the full sequence is exactly
    /// [`RrtStar::plan`], bit for bit.
    pub fn begin(&self, problem: &ArmProblem) -> RrtStarRun {
        let blocked = problem.in_collision(&problem.start) || problem.in_collision(&problem.goal);
        RrtStarRun {
            rng: SimRng::seed_from(self.config.seed),
            tree: Tree::new(problem.start),
            neighbors: Vec::new(),
            nn_queries: 0,
            collision_checks: 0,
            rewirings: 0,
            goal_connections: 0,
            best_goal: None,
            first_connection: None,
            samples_used: 0,
            sample_idx: 0,
            blocked,
        }
    }

    /// Advances an anytime search by one sample: sampling, nearest and
    /// neighborhood queries, parent choice, rewiring, and goal tracking —
    /// the full Fig. 11 iteration. Returns `true` while budget remains,
    /// `false` once the sample budget (or the refine budget after the
    /// first goal connection) is exhausted. Steady-state calls are
    /// allocation-free after the neighborhood buffer plateaus.
    pub fn sample_step<T: MemTrace + ?Sized>(
        &self,
        run: &mut RrtStarRun,
        problem: &ArmProblem,
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> bool {
        if run.blocked || run.sample_idx >= self.config.max_samples {
            return false;
        }
        if let (Some(factor), Some(first)) = (self.config.star_refine_factor, run.first_connection)
        {
            let budget = ((first as f64 * factor) as usize).max(first + 50);
            if run.sample_idx >= budget {
                return false;
            }
        }
        let sample_idx = run.sample_idx;
        run.sample_idx += 1;
        run.samples_used = sample_idx + 1;
        let tree = &mut run.tree;
        let sample_start = profiler.hot_start();
        let target = if run.rng.chance(self.config.goal_bias) {
            problem.goal
        } else {
            problem.sample(&mut run.rng)
        };
        profiler.hot_add("sampling", sample_start);

        // Nearest node.
        let nn_start = profiler.hot_start();
        run.nn_queries += 1;
        let (nearest_id, _) = nearest(tree, &target, &mut *trace);
        profiler.hot_add("nn_search", nn_start);

        let new_config = steer(&tree.nodes[nearest_id], &target, self.config.epsilon);

        let col_start = profiler.hot_start();
        run.collision_checks += 1;
        let free = problem.motion_free(&tree.nodes[nearest_id], &new_config);
        profiler.hot_add("collision_detection", col_start);
        if !free {
            return true;
        }

        // Neighborhood query (the paper's yellow circle).
        let nn_start = profiler.hot_start();
        run.nn_queries += 1;
        neighborhood_into(
            tree,
            &new_config,
            self.config.neighbor_radius,
            &mut *trace,
            &mut run.neighbors,
        );
        profiler.hot_add("nn_search", nn_start);

        // Choose the cheapest collision-free parent among neighbors.
        let mut parent = nearest_id;
        let mut parent_cost =
            tree.costs[nearest_id] + config_distance(&tree.nodes[nearest_id], &new_config);
        for &(candidate, _) in &run.neighbors {
            let through =
                tree.costs[candidate] + config_distance(&tree.nodes[candidate], &new_config);
            if through < parent_cost {
                let col_start = profiler.hot_start();
                run.collision_checks += 1;
                let free = problem.motion_free(&tree.nodes[candidate], &new_config);
                profiler.hot_add("collision_detection", col_start);
                if free {
                    parent = candidate;
                    parent_cost = through;
                }
            }
        }
        let new_id = tree.add(new_config, parent);
        if let Some(g) = trace.gate() {
            trace.write(new_id as u64 * 40, g);
        }

        // Rewire neighbors through the new node when cheaper.
        for &(neighbor, _) in &run.neighbors {
            if neighbor == parent {
                continue;
            }
            let through = tree.costs[new_id] + config_distance(&new_config, &tree.nodes[neighbor]);
            if through + 1e-12 < tree.costs[neighbor] {
                let col_start = profiler.hot_start();
                run.collision_checks += 1;
                let free = problem.motion_free(&new_config, &tree.nodes[neighbor]);
                profiler.hot_add("collision_detection", col_start);
                if free {
                    let delta = tree.costs[neighbor] - through;
                    tree.reparent(neighbor, new_id);
                    propagate_cost_reduction(tree, neighbor, delta);
                    run.rewirings += 1;
                    if let Some(g) = trace.gate() {
                        // Parent-pointer update in the rewired node.
                        trace.write(neighbor as u64 * 40, g);
                    }
                }
            }
        }

        // Track the best goal connection but keep optimizing.
        if config_distance(&new_config, &problem.goal) <= problem.goal_tolerance {
            let col_start = profiler.hot_start();
            run.collision_checks += 1;
            let free = problem.motion_free(&new_config, &problem.goal);
            profiler.hot_add("collision_detection", col_start);
            if free {
                run.goal_connections += 1;
                if run.first_connection.is_none() {
                    run.first_connection = Some(sample_idx + 1);
                }
                let cost = tree.costs[new_id] + config_distance(&new_config, &problem.goal);
                if run.best_goal.is_none_or(|(_, c)| cost < c) {
                    run.best_goal = Some((new_id, cost));
                }
            }
        }
        true
    }

    /// Completes an anytime search: extracts the best goal path found so
    /// far (or `None` if the goal was never connected) and assembles the
    /// result.
    pub fn finish_plan(&self, run: RrtStarRun, problem: &ArmProblem) -> Option<RrtStarResult> {
        let (attach_id, _) = run.best_goal?;
        // Re-derive the final cost from the tree: rewiring may have
        // improved the attachment node's cost-to-come since recording.
        let mut path = run.tree.path_to(attach_id);
        path.push(problem.goal);
        Some(RrtStarResult {
            base: RrtResult {
                cost: problem.path_cost(&path),
                path,
                samples: run.samples_used,
                tree_size: run.tree.nodes.len(),
                nn_queries: run.nn_queries,
                collision_checks: run.collision_checks,
            },
            rewirings: run.rewirings,
            goal_connections: run.goal_connections,
        })
    }
}

fn nearest<T: MemTrace + ?Sized>(tree: &Tree, target: &Config, trace: &mut T) -> (usize, f64) {
    if let Some(g) = trace.gate() {
        tree.index
            .nearest_with(target, |payload| trace.read(payload as u64 * 40, g))
            .expect("tree non-empty")
    } else {
        tree.index.nearest(target).expect("tree non-empty")
    }
}

/// Radius query into a caller-owned buffer (`out` is cleared first). The
/// plan loop reuses one buffer across samples, so the per-sample `Vec`
/// allocation the neighborhood query used to pay is gone after warmup.
fn neighborhood_into<T: MemTrace + ?Sized>(
    tree: &Tree,
    center: &Config,
    radius: f64,
    trace: &mut T,
    out: &mut Vec<(usize, f64)>,
) {
    tree.index.within_radius_into(center, radius, out);
    if let Some(g) = trace.gate() {
        for &(payload, _) in out.iter() {
            trace.read(payload as u64 * 40, g);
        }
    }
}

/// After rewiring `root` to a cheaper parent, every descendant's
/// cost-to-come drops by the same delta.
///
/// Walks only the rewired subtree through the tree's child adjacency —
/// O(subtree) per rewiring instead of the old O(tree × subtree) arena
/// scan, which made late-stage rewirings quadratic in tree size. The scan
/// implementation survives as [`propagate_cost_reduction_scan`] for the
/// equivalence proptest.
fn propagate_cost_reduction(tree: &mut Tree, root: usize, delta: f64) {
    let costs = &mut tree.costs;
    let children = &tree.children;
    costs[root] -= delta;
    let mut stack: Vec<usize> = children[root].to_vec();
    while let Some(current) = stack.pop() {
        costs[current] -= delta;
        stack.extend_from_slice(&children[current]);
    }
}

/// The pre-adjacency-list propagation: one full arena scan per visited
/// node, operating on the raw parent/cost arrays. Kept (test-only) as the
/// oracle the proptest checks the subtree walk against.
#[cfg(test)]
fn propagate_cost_reduction_scan(parents: &[usize], costs: &mut [f64], root: usize, delta: f64) {
    costs[root] -= delta;
    let mut stack = vec![root];
    while let Some(current) = stack.pop() {
        for (id, &parent) in parents.iter().enumerate() {
            if parent == current && id != current {
                costs[id] -= delta;
                stack.push(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrt::Rrt;
    use rtr_trace::{NullTrace, RecordingTrace};

    fn small_budget() -> RrtConfig {
        RrtConfig {
            max_samples: 3_000,
            ..Default::default()
        }
    }

    #[test]
    fn finds_valid_path() {
        let problem = ArmProblem::map_f(1);
        let mut profiler = Profiler::new();
        let r = RrtStar::new(small_budget())
            .plan(&problem, &mut profiler, &mut NullTrace)
            .expect("solvable");
        assert!(problem.path_valid(&r.base.path));
        assert!(r.goal_connections >= 1);
    }

    #[test]
    fn cheaper_than_rrt_on_same_problem() {
        // The paper's headline: RRT* paths are shorter (1.6× on average).
        let mut star_total = 0.0;
        let mut rrt_total = 0.0;
        for seed in 0..3 {
            let problem = ArmProblem::map_f(10 + seed);
            let mut p = Profiler::new();
            let rrt = Rrt::new(RrtConfig {
                seed,
                ..Default::default()
            })
            .plan(&problem, &mut p, &mut NullTrace)
            .expect("solvable");
            let star = RrtStar::new(RrtConfig {
                seed,
                max_samples: 4_000,
                ..Default::default()
            })
            .plan(&problem, &mut p, &mut NullTrace)
            .expect("solvable");
            star_total += star.base.cost;
            rrt_total += rrt.cost;
        }
        assert!(
            star_total < rrt_total,
            "RRT* ({star_total:.2}) should beat RRT ({rrt_total:.2}) in cost"
        );
    }

    #[test]
    fn does_more_work_than_rrt() {
        let problem = ArmProblem::map_f(2);
        let mut p = Profiler::new();
        let rrt = Rrt::new(RrtConfig::default())
            .plan(&problem, &mut p, &mut NullTrace)
            .unwrap();
        let star = RrtStar::new(small_budget())
            .plan(&problem, &mut p, &mut NullTrace)
            .unwrap();
        assert!(star.base.collision_checks > rrt.collision_checks);
        assert!(star.base.nn_queries > rrt.nn_queries);
    }

    #[test]
    fn rewiring_happens() {
        let problem = ArmProblem::map_f(3);
        let mut p = Profiler::new();
        let r = RrtStar::new(small_budget())
            .plan(&problem, &mut p, &mut NullTrace)
            .unwrap();
        assert!(r.rewirings > 0, "no rewiring in {} samples", r.base.samples);
    }

    #[test]
    fn tree_costs_stay_consistent_after_rewiring() {
        // Cost bookkeeping invariant: every node's recorded cost equals
        // the sum of edge lengths along its parent chain.
        let problem = ArmProblem::map_c(4);
        let mut p = Profiler::new();
        let config = RrtConfig {
            max_samples: 2_000,
            ..Default::default()
        };
        // Re-run the planner but inspect internals through the result: the
        // returned path cost must equal the recomputed edge-sum cost.
        let r = RrtStar::new(config).plan(&problem, &mut p, &mut NullTrace);
        if let Some(r) = r {
            let recomputed = problem.path_cost(&r.base.path);
            assert!((recomputed - r.base.cost).abs() < 1e-9);
        }
    }

    #[test]
    fn refine_factor_bounds_work() {
        let problem = ArmProblem::map_f(6);
        let mut p = Profiler::new();
        let full = RrtStar::new(RrtConfig {
            max_samples: 5_000,
            ..Default::default()
        })
        .plan(&problem, &mut p, &mut NullTrace)
        .expect("solvable");
        let bounded = RrtStar::new(RrtConfig {
            max_samples: 5_000,
            star_refine_factor: Some(4.0),
            ..Default::default()
        })
        .plan(&problem, &mut p, &mut NullTrace)
        .expect("solvable");
        assert!(bounded.base.samples <= full.base.samples);
        assert!(bounded.base.collision_checks <= full.base.collision_checks);
        assert!(problem.path_valid(&bounded.base.path));
    }

    mod propagation {
        use super::super::*;
        use proptest::prelude::*;
        use std::f64::consts::PI;

        /// `true` when `candidate` sits in `node`'s subtree (including
        /// `node` itself) — reparenting onto such a candidate would cut a
        /// cycle into the tree, which neither implementation defends
        /// against.
        fn in_subtree(parents: &[usize], node: usize, mut candidate: usize) -> bool {
            loop {
                if candidate == node {
                    return true;
                }
                if parents[candidate] == candidate {
                    return false;
                }
                candidate = parents[candidate];
            }
        }

        proptest! {
            #[test]
            fn subtree_walk_matches_arena_scan(
                seed in 0u64..500,
                n in 2usize..48,
                ops in 1usize..10,
            ) {
                let mut rng = SimRng::seed_from(seed);
                let mut tree = Tree::new([0.0; crate::rrt::DOF]);
                for _ in 1..n {
                    let parent = rng.below(tree.nodes.len());
                    let mut c = [0.0; crate::rrt::DOF];
                    for v in &mut c {
                        *v = rng.uniform(-PI, PI);
                    }
                    tree.add(c, parent);
                }
                // Mirror arrays driven by the legacy full-scan oracle.
                let mut oracle_parents = tree.parents.clone();
                let mut oracle_costs = tree.costs.clone();
                for _ in 0..ops {
                    let node = 1 + rng.below(tree.nodes.len() - 1);
                    let new_parent = rng.below(tree.nodes.len());
                    if in_subtree(&tree.parents, node, new_parent) {
                        continue;
                    }
                    let delta = rng.uniform(0.01, 0.5);
                    tree.reparent(node, new_parent);
                    propagate_cost_reduction(&mut tree, node, delta);
                    oracle_parents[node] = new_parent;
                    propagate_cost_reduction_scan(&oracle_parents, &mut oracle_costs, node, delta);
                    prop_assert_eq!(&tree.parents, &oracle_parents);
                    for (id, (a, b)) in tree.costs.iter().zip(oracle_costs.iter()).enumerate() {
                        prop_assert_eq!(a.to_bits(), b.to_bits(), "cost diverged at node {}", id);
                    }
                }
            }
        }
    }

    #[test]
    fn neighborhood_buffer_plateaus_after_warmup() {
        use std::f64::consts::PI;
        let mut rng = SimRng::seed_from(9);
        let mut tree = Tree::new([0.0; crate::rrt::DOF]);
        for _ in 1..512 {
            let parent = rng.below(tree.nodes.len());
            let mut c = [0.0; crate::rrt::DOF];
            for v in &mut c {
                *v = rng.uniform(-PI, PI);
            }
            tree.add(c, parent);
        }
        let queries: Vec<Config> = (0..32)
            .map(|_| {
                let mut q = [0.0; crate::rrt::DOF];
                for v in &mut q {
                    *v = rng.uniform(-1.0, 1.0);
                }
                q
            })
            .collect();
        let mut buf: Vec<(usize, f64)> = Vec::new();
        // Warmup pass grows the buffer to the largest neighborhood seen.
        for q in &queries {
            neighborhood_into(&tree, q, 2.0, &mut NullTrace, &mut buf);
        }
        assert!(!buf.is_empty(), "radius too small to exercise the buffer");
        let cap = buf.capacity();
        // Replaying the same workload must not grow it again, and every
        // result must match a query into a fresh buffer.
        for (i, q) in queries.iter().enumerate() {
            let mut expected = Vec::new();
            tree.index.within_radius_into(q, 2.0, &mut expected);
            neighborhood_into(&tree, q, 2.0, &mut NullTrace, &mut buf);
            assert_eq!(buf, expected, "query {i} diverged from a fresh buffer");
        }
        assert_eq!(
            buf.capacity(),
            cap,
            "replaying the workload must reuse the buffer"
        );
    }

    #[test]
    fn traced_plan_is_bit_identical_and_writes_rewired_slots() {
        let problem = ArmProblem::map_f(8);
        let mut p = Profiler::new();
        let config = RrtConfig {
            max_samples: 2_000,
            ..Default::default()
        };
        let mut rec = RecordingTrace::default();
        let traced = RrtStar::new(config.clone())
            .plan(&problem, &mut p, &mut rec)
            .expect("solvable");
        let plain = RrtStar::new(config)
            .plan(&problem, &mut p, &mut NullTrace)
            .expect("solvable");
        assert_eq!(traced.base.cost.to_bits(), plain.base.cost.to_bits());
        assert_eq!(traced.rewirings, plain.rewirings);
        // One arena write per added node plus one per rewiring.
        assert_eq!(
            rec.writes(),
            traced.base.tree_size as u64 - 1 + traced.rewirings
        );
        assert!(rec.reads() > rec.writes());
    }

    #[test]
    fn solves_cluttered_map() {
        let problem = ArmProblem::map_c(5);
        let mut p = Profiler::new();
        let r = RrtStar::new(RrtConfig {
            max_samples: 12_000,
            ..Default::default()
        })
        .plan(&problem, &mut p, &mut NullTrace)
        .expect("map-c solvable");
        assert!(problem.path_valid(&r.base.path));
    }
}
