//! `07.prm` — probabilistic roadmaps for high-DoF arm planning.
//!
//! PRM "has offline and online phases. In the offline phase, it takes
//! random samples from the configuration space of the robot, then tests
//! whether they are collision-free, and finally connects nearby samples to
//! form a graph. In the online phase, PRM adds the start and goal
//! configurations to the graph, and accomplishes the planning by searching
//! the graph with an algorithm like A*." The paper stresses that only the
//! online phase is on the critical path and that "frequent L2-norm
//! calculations ... to calculate the distance of samples in n-dimension
//! space" are a bottleneck — every distance evaluation here is counted.

use std::cell::Cell;
use std::collections::BTreeMap;

use rtr_harness::{Pool, Profiler};
use rtr_sim::SimRng;
use rtr_trace::MemTrace;

use crate::rrt::{config_distance, ArmProblem, Config};
use crate::search::{astar_traced, SearchSpace};

/// Configuration for [`Prm`].
#[derive(Debug, Clone)]
pub struct PrmConfig {
    /// Roadmap size (collision-free samples kept).
    pub roadmap_size: usize,
    /// Neighbors each sample attempts to connect to.
    pub neighbors: usize,
    /// RNG seed for the offline sampling.
    pub seed: u64,
    /// Worker threads for the offline k-nearest queries and edge collision
    /// checks: `0` means one thread per hardware thread, `1` runs the pool
    /// inline on the calling thread. The roadmap (and every counter) is
    /// bit-identical for every setting: sampling and the edge-commit loop
    /// stay sequential, only the pure per-node candidate and per-pair
    /// collision computations fan out.
    pub threads: usize,
}

impl Default for PrmConfig {
    fn default() -> Self {
        PrmConfig {
            roadmap_size: 1500,
            neighbors: 10,
            seed: 0,
            threads: 1,
        }
    }
}

/// Result of an online PRM query.
#[derive(Debug, Clone)]
pub struct PrmResult {
    /// Joint-space path from start to goal.
    pub path: Vec<Config>,
    /// Joint-space path length.
    pub cost: f64,
    /// A* expansions during the online search.
    pub expanded: u64,
    /// L2-norm evaluations during the online phase (connection + search).
    pub l2_evals: u64,
}

/// A built roadmap: the product of PRM's offline phase, reusable across
/// queries (that is the point of PRM — "it is paid only once and is done
/// offline").
#[derive(Debug, Clone)]
pub struct Roadmap {
    nodes: Vec<Config>,
    adjacency: Vec<Vec<(usize, f64)>>,
    /// Collision checks spent building (offline statistics): one per
    /// rejection sample plus one per candidate edge not already in the
    /// adjacency when the commit loop reaches it, so a blocked mutual
    /// k-NN pair counts twice. Identical across thread counts.
    pub offline_collision_checks: u64,
    /// Actual `motion_free` interpolation sweeps performed while building:
    /// one per distinct undirected candidate pair, so mutual k-NN
    /// candidates share one sweep. Identical across thread counts.
    pub motion_free_evals: u64,
    /// Edges in the roadmap.
    pub edge_count: usize,
}

impl Roadmap {
    /// Number of roadmap vertices.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the roadmap has no vertices.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Neighbors `(vertex, edge cost)` of vertex `i`, in insertion order.
    pub fn neighbors(&self, i: usize) -> &[(usize, f64)] {
        &self.adjacency[i]
    }
}

/// Online search space: roadmap vertices plus virtual start (`len`) and
/// goal (`len + 1`) nodes with their connection edges.
struct QuerySpace<'a> {
    roadmap: &'a Roadmap,
    start_edges: &'a [(usize, f64)],
    goal_edges_rev: &'a [(usize, f64)],
    start: Config,
    goal: Config,
    l2_evals: &'a Cell<u64>,
}

const START_ID: usize = usize::MAX - 1;
const GOAL_ID: usize = usize::MAX;

impl QuerySpace<'_> {
    fn config_of(&self, id: usize) -> Config {
        match id {
            START_ID => self.start,
            GOAL_ID => self.goal,
            _ => self.roadmap.nodes[id],
        }
    }
}

impl SearchSpace for QuerySpace<'_> {
    type Node = usize;

    fn successors(&self, node: usize, out: &mut Vec<(usize, f64)>) {
        match node {
            START_ID => out.extend_from_slice(self.start_edges),
            GOAL_ID => {}
            _ => {
                out.extend_from_slice(&self.roadmap.adjacency[node]);
                // Edges into the goal from its connected roadmap nodes.
                for &(rm, cost) in self.goal_edges_rev {
                    if rm == node {
                        out.push((GOAL_ID, cost));
                    }
                }
            }
        }
    }

    fn heuristic(&self, node: usize) -> f64 {
        self.l2_evals.set(self.l2_evals.get() + 1);
        config_distance(&self.config_of(node), &self.goal)
    }

    fn is_goal(&self, node: usize) -> bool {
        node == GOAL_ID
    }
}

/// The PRM kernel.
///
/// # Example
///
/// ```
/// use rtr_planning::{ArmProblem, Prm, PrmConfig};
/// use rtr_harness::Profiler;
///
/// let problem = ArmProblem::map_f(1);
/// let mut profiler = Profiler::new();
/// let prm = Prm::new(PrmConfig { roadmap_size: 400, ..Default::default() });
/// let roadmap = prm.build(&problem, &mut profiler);
/// let result = prm
///     .query(&problem, &roadmap, &mut profiler, &mut rtr_trace::NullTrace)
///     .expect("solvable");
/// assert!(problem.path_valid(&result.path));
/// ```
#[derive(Debug, Clone)]
pub struct Prm {
    config: PrmConfig,
}

impl Prm {
    /// Creates the kernel.
    pub fn new(config: PrmConfig) -> Self {
        Prm { config }
    }

    /// Offline phase: samples the configuration space and connects
    /// neighbors. Profiler region: `offline_build`.
    pub fn build(&self, problem: &ArmProblem, profiler: &mut Profiler) -> Roadmap {
        profiler.time("offline_build", || {
            let mut rng = SimRng::seed_from(self.config.seed);
            let mut collision_checks = 0u64;

            // Rejection-sample collision-free vertices.
            let mut nodes: Vec<Config> = Vec::with_capacity(self.config.roadmap_size);
            while nodes.len() < self.config.roadmap_size {
                let candidate = problem.sample(&mut rng);
                collision_checks += 1;
                if !problem.in_collision(&candidate) {
                    nodes.push(candidate);
                }
            }

            // Connect each vertex to its k nearest others. The k-d tree
            // fans the queries over the pool (fixed chunking, results in
            // query order); each list is ordered by (d², index), and a
            // vertex's own zero-distance hit is dropped.
            let k = self.config.neighbors;
            let pool = Pool::new(self.config.threads);
            let items: Vec<(Config, usize)> =
                nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
            let index = rtr_geom::KdTree::<{ crate::rrt::DOF }>::build_balanced(&items);
            let cands: Vec<Vec<(usize, f64)>> = index
                .batch_k_nearest(&nodes, k + 1, &pool)
                .into_iter()
                .enumerate()
                .map(|(i, found)| {
                    found
                        .into_iter()
                        .map(|(j, d2)| (j, d2.sqrt()))
                        .filter(|&(j, _)| j != i)
                        .take(k)
                        .collect()
                })
                .collect();

            // Collision-check each distinct undirected pair once, across
            // the pool: mutual k-NN candidates share one sweep.
            let mut pair_id: BTreeMap<(usize, usize), usize> = BTreeMap::new();
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            for (i, cand) in cands.iter().enumerate() {
                for &(j, _) in cand {
                    let key = (i.min(j), i.max(j));
                    pair_id.entry(key).or_insert_with(|| {
                        pairs.push(key);
                        pairs.len() - 1
                    });
                }
            }
            let free: Vec<bool> = pool.par_map(&pairs, |_, &(a, b)| {
                problem.motion_free(&nodes[a], &nodes[b])
            });

            // Commit sequentially in candidate order. A candidate whose
            // mirror edge is already in place is skipped uncounted; every
            // other one counts a collision check, so a blocked mutual
            // pair is counted twice but swept once.
            let mut adjacency: Vec<Vec<(usize, f64)>> = vec![Vec::new(); nodes.len()];
            let mut edge_count = 0usize;
            for (i, cand) in cands.iter().enumerate() {
                for &(j, dist) in cand {
                    if adjacency[i].iter().any(|&(n, _)| n == j) {
                        continue;
                    }
                    collision_checks += 1;
                    if free[pair_id[&(i.min(j), i.max(j))]] {
                        adjacency[i].push((j, dist));
                        adjacency[j].push((i, dist));
                        edge_count += 1;
                    }
                }
            }

            Roadmap {
                nodes,
                adjacency,
                offline_collision_checks: collision_checks,
                motion_free_evals: pairs.len() as u64,
                edge_count,
            }
        })
    }

    /// Online phase: connects start/goal to the roadmap and runs A*.
    /// Profiler regions: `online_connect` and `graph_search`.
    ///
    /// Returns `None` when start/goal cannot be connected or no roadmap
    /// path exists (e.g. the roadmap is too sparse for `Map-C`'s narrow
    /// passages).
    ///
    /// The online phase emits into `trace`: every k-NN candidate visit
    /// during connection reads that vertex's 40 B configuration record
    /// (five `f64` joints), and the A* over the roadmap replays its
    /// open-list operations plus a record read per touched vertex. Pass
    /// [`rtr_trace::NullTrace`] for an untraced query.
    pub fn query<T: MemTrace + ?Sized>(
        &self,
        problem: &ArmProblem,
        roadmap: &Roadmap,
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> Option<PrmResult> {
        if roadmap.is_empty()
            || problem.in_collision(&problem.start)
            || problem.in_collision(&problem.goal)
        {
            return None;
        }
        let l2_evals = Cell::new(0u64);

        let connect = |config: &Config, l2: &Cell<u64>, trace: &mut T| -> Vec<(usize, f64)> {
            let mut candidates: Vec<(usize, f64)> = roadmap
                .nodes
                .iter()
                .enumerate()
                .map(|(j, n)| {
                    l2.set(l2.get() + 1);
                    if trace.enabled() {
                        trace.read(j as u64 * 40);
                    }
                    (j, config_distance(config, n))
                })
                .collect();
            candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
            candidates
                .into_iter()
                .take(self.config.neighbors * 2)
                .filter(|&(j, _)| problem.motion_free(config, &roadmap.nodes[j]))
                .take(self.config.neighbors)
                .collect()
        };
        let (start_edges, goal_edges_rev) = {
            let tr = &mut *trace;
            profiler.time("online_connect", || {
                (
                    connect(&problem.start, &l2_evals, &mut *tr),
                    connect(&problem.goal, &l2_evals, &mut *tr),
                )
            })
        };
        if start_edges.is_empty() || goal_edges_rev.is_empty() {
            return None;
        }

        let space = QuerySpace {
            roadmap,
            start_edges: &start_edges,
            goal_edges_rev: &goal_edges_rev,
            start: problem.start,
            goal: problem.goal,
            l2_evals: &l2_evals,
        };
        let result = profiler.time("graph_search", || {
            astar_traced(&space, START_ID, trace, &mut |&id| match id {
                START_ID => 1 << 36,
                GOAL_ID => (1 << 36) + 40,
                _ => id as u64 * 40,
            })
        })?;

        let path: Vec<Config> = result.path.iter().map(|&id| space.config_of(id)).collect();
        Some(PrmResult {
            cost: problem.path_cost(&path),
            path,
            expanded: result.expanded,
            l2_evals: l2_evals.get(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_trace::{NullTrace, RecordingTrace};

    #[test]
    fn builds_connected_roadmap_in_free_space() {
        let problem = ArmProblem::map_f(1);
        let mut profiler = Profiler::new();
        let roadmap = Prm::new(PrmConfig {
            roadmap_size: 300,
            ..Default::default()
        })
        .build(&problem, &mut profiler);
        assert_eq!(roadmap.len(), 300);
        assert!(roadmap.edge_count > 300, "roadmap too sparse");
    }

    #[test]
    fn query_solves_free_space() {
        let problem = ArmProblem::map_f(1);
        let mut profiler = Profiler::new();
        let prm = Prm::new(PrmConfig {
            roadmap_size: 400,
            ..Default::default()
        });
        let roadmap = prm.build(&problem, &mut profiler);
        let r = prm
            .query(&problem, &roadmap, &mut profiler, &mut NullTrace)
            .expect("solvable");
        assert!(problem.path_valid(&r.path));
        assert!(r.l2_evals > 0);
    }

    #[test]
    fn query_solves_cluttered_space() {
        let problem = ArmProblem::map_c(2);
        let mut profiler = Profiler::new();
        let prm = Prm::new(PrmConfig {
            roadmap_size: 1200,
            neighbors: 12,
            seed: 3,
            threads: 1,
        });
        let roadmap = prm.build(&problem, &mut profiler);
        let r = prm.query(&problem, &roadmap, &mut profiler, &mut NullTrace);
        assert!(r.is_some(), "Map-C query failed with a 1200-node roadmap");
        assert!(problem.path_valid(&r.unwrap().path));
    }

    #[test]
    fn roadmap_is_reusable_across_queries() {
        let mut problem = ArmProblem::map_f(4);
        let mut profiler = Profiler::new();
        let prm = Prm::new(PrmConfig {
            roadmap_size: 400,
            ..Default::default()
        });
        let roadmap = prm.build(&problem, &mut profiler);
        let first = prm
            .query(&problem, &roadmap, &mut profiler, &mut NullTrace)
            .unwrap();
        // New query on the same roadmap with swapped endpoints.
        std::mem::swap(&mut problem.start, &mut problem.goal);
        let second = prm
            .query(&problem, &roadmap, &mut profiler, &mut NullTrace)
            .unwrap();
        assert!((first.cost - second.cost).abs() < 1e-9, "symmetric query");
    }

    #[test]
    fn offline_dominates_online() {
        // "The offline process could be significantly lengthy, but it is
        // paid only once": building must cost far more than a query.
        let problem = ArmProblem::map_f(5);
        let mut profiler = Profiler::new();
        let prm = Prm::new(PrmConfig {
            roadmap_size: 600,
            ..Default::default()
        });
        let roadmap = prm.build(&problem, &mut profiler);
        prm.query(&problem, &roadmap, &mut profiler, &mut NullTrace)
            .unwrap();
        let offline = profiler.region_total("offline_build");
        let online =
            profiler.region_total("online_connect") + profiler.region_total("graph_search");
        assert!(
            offline > online * 2,
            "offline {offline:?} vs online {online:?}"
        );
    }

    #[test]
    fn empty_roadmap_query_is_none() {
        let problem = ArmProblem::map_f(6);
        let roadmap = Roadmap {
            nodes: Vec::new(),
            adjacency: Vec::new(),
            offline_collision_checks: 0,
            motion_free_evals: 0,
            edge_count: 0,
        };
        let mut profiler = Profiler::new();
        assert!(Prm::new(PrmConfig::default())
            .query(&problem, &roadmap, &mut profiler, &mut NullTrace)
            .is_none());
    }

    #[test]
    fn traced_query_reads_roadmap_records() {
        let problem = ArmProblem::map_f(1);
        let mut profiler = Profiler::new();
        let prm = Prm::new(PrmConfig {
            roadmap_size: 300,
            ..Default::default()
        });
        let roadmap = prm.build(&problem, &mut profiler);
        let mut rec = RecordingTrace::default();
        let traced = prm
            .query(&problem, &roadmap, &mut profiler, &mut rec)
            .unwrap();
        let plain = prm
            .query(&problem, &roadmap, &mut profiler, &mut NullTrace)
            .unwrap();
        assert_eq!(traced.cost.to_bits(), plain.cost.to_bits());
        assert_eq!(traced.expanded, plain.expanded);
        assert_eq!(traced.l2_evals, plain.l2_evals);
        // Connection scans every vertex for start and goal: at least
        // 2 * |V| reads of 40 B records below the search regions.
        let record_reads = rec
            .ops
            .iter()
            .filter(|op| !op.is_write && op.addr < (1 << 36))
            .count() as u64;
        assert!(record_reads >= 2 * roadmap.len() as u64);
    }

    #[test]
    fn path_cost_at_least_direct_distance() {
        let problem = ArmProblem::map_f(7);
        let mut profiler = Profiler::new();
        let prm = Prm::new(PrmConfig {
            roadmap_size: 500,
            ..Default::default()
        });
        let roadmap = prm.build(&problem, &mut profiler);
        let r = prm
            .query(&problem, &roadmap, &mut profiler, &mut NullTrace)
            .unwrap();
        assert!(r.cost >= config_distance(&problem.start, &problem.goal) - 1e-9);
    }
}
