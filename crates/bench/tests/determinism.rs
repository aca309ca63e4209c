//! Bit-identity of the parallel kernel hot loops.
//!
//! The worker pool's contract (see `rtr_harness::Pool`) is that thread
//! count is a pure performance knob: for every seed and every thread
//! count the parallel kernels must produce outputs that are
//! **bit-identical** to the sequential (`threads = 1`) legacy path —
//! floating-point values compared via `to_bits`, not with tolerances.
//! These properties pin that contract for the four parallelized kernels
//! (PFL, PRM, ICP, CEM) across threads {1, 2, 4, 8}. PRM's build has no
//! sequential twin left in the library, so its roadmap is compared at
//! threads {1, 2, 4} against [`reference_prm_build`], the brute-force
//! build it replaced.

use proptest::prelude::*;
use rtr_control::{Cem, CemConfig};
use rtr_core::kernels::perception::PflKernel;
use rtr_geom::{maps, GridMap2D, Point3, RigidTransform};
use rtr_harness::Profiler;
use rtr_perception::{Icp, IcpConfig, ParticleFilter, PflConfig, PflInit};
use rtr_planning::rrt::{config_distance, Config};
use rtr_planning::{ArmProblem, Prm, PrmConfig};
use rtr_sim::{scene, SimRng, ThrowSim};
use rtr_trace::NullTrace;
use std::sync::OnceLock;

/// Strategy: one of the thread counts under test (1 is the legacy
/// baseline itself, so equality there is the sanity case).
fn threads_strategy() -> impl Strategy<Value = usize> {
    (0u32..4).prop_map(|e| 1usize << e)
}

fn indoor_map() -> &'static GridMap2D {
    static MAP: OnceLock<GridMap2D> = OnceLock::new();
    MAP.get_or_init(|| maps::indoor_floor_plan(256, 0.1, 7))
}

fn bits(x: f64) -> u64 {
    x.to_bits()
}

/// What [`reference_prm_build`] produces. `Roadmap` keeps its vertices
/// private, so the reference returns the observable parts in its own
/// record.
struct ReferenceRoadmap {
    adjacency: Vec<Vec<(usize, f64)>>,
    offline_collision_checks: u64,
    motion_free_evals: u64,
    edge_count: usize,
}

/// `Prm::build` as it shipped before the k-d candidate search and the
/// pooled pair memo became its only path, kept as the oracle for it: a
/// brute-force sort-all k-nearest scan, which orders ties by distance and
/// then index (the k-d tree orders them by squared distance), and a lazy
/// sequential commit loop that sweeps `motion_free` once per candidate
/// not already adjacent, so a blocked mutual pair is swept twice.
fn reference_prm_build(problem: &ArmProblem, config: &PrmConfig) -> ReferenceRoadmap {
    let mut rng = SimRng::seed_from(config.seed);
    let mut collision_checks = 0u64;

    // Rejection-sample collision-free vertices.
    let mut nodes: Vec<Config> = Vec::with_capacity(config.roadmap_size);
    while nodes.len() < config.roadmap_size {
        let candidate = problem.sample(&mut rng);
        collision_checks += 1;
        if !problem.in_collision(&candidate) {
            nodes.push(candidate);
        }
    }

    let k = config.neighbors;
    let near_of = |i: usize, node: &Config| -> Vec<(usize, f64)> {
        let mut all: Vec<(usize, f64)> = (0..nodes.len())
            .filter(|&j| j != i)
            .map(|j| (j, config_distance(node, &nodes[j])))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1));
        all.truncate(k);
        all
    };
    let mut adjacency: Vec<Vec<(usize, f64)>> = vec![Vec::new(); nodes.len()];
    let mut edge_count = 0usize;
    let mut motion_free_evals = 0u64;
    let mut commit =
        |i: usize, j: usize, dist: f64, free: bool, adjacency: &mut Vec<Vec<(usize, f64)>>| {
            if adjacency[i].iter().any(|&(n, _)| n == j) {
                return;
            }
            collision_checks += 1;
            if free {
                adjacency[i].push((j, dist));
                adjacency[j].push((i, dist));
                edge_count += 1;
            }
        };
    // Collision checks stay lazy, so pairs the dedup skips are never
    // evaluated.
    for i in 0..nodes.len() {
        for (j, dist) in near_of(i, &nodes[i]) {
            let skip = adjacency[i].iter().any(|&(n, _)| n == j);
            if !skip {
                motion_free_evals += 1;
                let free = problem.motion_free(&nodes[i], &nodes[j]);
                commit(i, j, dist, free, &mut adjacency);
            }
        }
    }

    ReferenceRoadmap {
        adjacency,
        offline_collision_checks: collision_checks,
        motion_free_evals,
        edge_count,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The roadmap equals the reference bit for bit at every thread count
    /// on both workspaces: adjacency lists in order with `to_bits` edge
    /// costs, edge count and the collision-check counter. The sweep
    /// counter and the online query (cost, expansions, L2 evaluations)
    /// are the same for every thread count.
    #[test]
    fn prm_roadmap_is_bit_identical_across_thread_counts(
        seed in 0u64..1 << 32,
        cluttered in prop::bool::ANY,
        roadmap_size in 80usize..600,
        neighbors in 4usize..13,
    ) {
        let problem = if cluttered {
            ArmProblem::map_c(seed)
        } else {
            ArmProblem::map_f(seed)
        };
        let config = |threads| PrmConfig {
            roadmap_size,
            neighbors,
            seed,
            threads,
        };
        let reference = reference_prm_build(&problem, &config(1));
        let mut first = None;
        for threads in [1, 2, 4] {
            let prm = Prm::new(config(threads));
            let mut profiler = Profiler::new();
            let roadmap = prm.build(&problem, &mut profiler);
            prop_assert_eq!(roadmap.len(), reference.adjacency.len());
            prop_assert_eq!(roadmap.edge_count, reference.edge_count, "threads {}", threads);
            prop_assert_eq!(
                roadmap.offline_collision_checks,
                reference.offline_collision_checks,
                "threads {}",
                threads
            );
            for (i, expected) in reference.adjacency.iter().enumerate() {
                let got = roadmap.neighbors(i);
                prop_assert_eq!(got.len(), expected.len(), "vertex {} degree", i);
                for (&(ja, ca), &(jb, cb)) in got.iter().zip(expected) {
                    prop_assert_eq!(ja, jb, "vertex {} neighbor, threads {}", i, threads);
                    prop_assert_eq!(bits(ca), bits(cb), "vertex {} cost, threads {}", i, threads);
                }
            }
            // One sweep per distinct pair never exceeds the lazy loop's
            // one per unskipped candidate.
            prop_assert!(roadmap.motion_free_evals <= reference.motion_free_evals);
            let query = prm
                .query(&problem, &roadmap, &mut profiler, &mut NullTrace)
                .map(|r| (bits(r.cost), r.expanded, r.l2_evals));
            let run = (roadmap.motion_free_evals, query);
            match &first {
                None => first = Some(run),
                Some(first) => prop_assert_eq!(first, &run, "threads {}", threads),
            }
        }
    }
}

/// What the pair memo saves: on a cluttered map some mutual k-NN pairs
/// are blocked, and the lazy reference sweeps each of those twice.
#[test]
fn prm_build_sweeps_blocked_mutual_pairs_once() {
    let problem = ArmProblem::map_c(9);
    let config = PrmConfig {
        roadmap_size: 300,
        neighbors: 8,
        seed: 5,
        threads: 1,
    };
    let reference = reference_prm_build(&problem, &config);
    let roadmap = Prm::new(config).build(&problem, &mut Profiler::new());
    assert_eq!(roadmap.edge_count, reference.edge_count);
    assert!(
        roadmap.motion_free_evals < reference.motion_free_evals,
        "the memo saved nothing: {} vs {}",
        roadmap.motion_free_evals,
        reference.motion_free_evals
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn pfl_is_bit_identical_across_thread_counts(
        seed in 0u64..1 << 32,
        region in 0usize..5,
        particles in 60usize..200,
        threads in threads_strategy(),
    ) {
        let map = indoor_map();
        let steps = PflKernel::drive_region(map, region, seed);
        let steps = &steps[..40.min(steps.len())];
        let run = |threads: usize| {
            let config = PflConfig {
                particles,
                seed,
                beam_stride: 6,
                threads,
                init: PflInit::AroundPose {
                    pose: steps[0].true_pose,
                    pos_std: 0.8,
                    theta_std: 0.4,
                },
                ..Default::default()
            };
            let mut profiler = Profiler::new();
            ParticleFilter::new(config, map).run(steps, &mut profiler, &mut NullTrace)
        };
        let seq = run(1);
        let par = run(threads);
        prop_assert_eq!(bits(seq.estimate.x), bits(par.estimate.x));
        prop_assert_eq!(bits(seq.estimate.y), bits(par.estimate.y));
        prop_assert_eq!(bits(seq.estimate.theta), bits(par.estimate.theta));
        prop_assert_eq!(bits(seq.final_spread), bits(par.final_spread));
        prop_assert_eq!(bits(seq.initial_spread), bits(par.initial_spread));
        prop_assert_eq!(seq.final_error.map(bits), par.final_error.map(bits));
        prop_assert_eq!(seq.rays_cast, par.rays_cast);
        prop_assert_eq!(seq.cells_probed, par.cells_probed);
        prop_assert_eq!(seq.resamples, par.resamples);
    }

    #[test]
    fn icp_is_bit_identical_across_thread_counts(
        seed in 0u64..1 << 32,
        points in 1500usize..3000,
        threads in threads_strategy(),
    ) {
        let mut rng = SimRng::seed_from(seed);
        let room = scene::living_room(points, &mut rng);
        let motion =
            RigidTransform::from_yaw_translation(0.04, Point3::new(0.06, -0.04, 0.01));
        let scan1 =
            scene::scan_from(&room, &RigidTransform::identity(), 0.5, 0.002, &mut rng);
        let scan2 = scene::scan_from(&room, &motion, 0.5, 0.002, &mut rng);
        prop_assume!(!scan1.is_empty() && !scan2.is_empty());
        let run = |threads: usize| {
            let mut profiler = Profiler::new();
            Icp::new(IcpConfig {
                max_iterations: 10,
                threads,
                ..Default::default()
            })
            .align(&scan2, &scan1, &mut profiler, &mut NullTrace)
        };
        let seq = run(1);
        let par = run(threads);
        prop_assert_eq!(bits(seq.error_before), bits(par.error_before));
        prop_assert_eq!(bits(seq.error_after), bits(par.error_after));
        prop_assert_eq!(seq.iterations, par.iterations);
        prop_assert_eq!(seq.nn_queries, par.nn_queries);
        for r in 0..3 {
            for c in 0..3 {
                prop_assert_eq!(
                    bits(seq.transform.rotation[r][c]),
                    bits(par.transform.rotation[r][c])
                );
            }
        }
        prop_assert_eq!(
            bits(seq.transform.translation.x),
            bits(par.transform.translation.x)
        );
        prop_assert_eq!(
            bits(seq.transform.translation.y),
            bits(par.transform.translation.y)
        );
        prop_assert_eq!(
            bits(seq.transform.translation.z),
            bits(par.transform.translation.z)
        );
    }

    #[test]
    fn cem_is_bit_identical_across_thread_counts(
        seed in 0u64..1 << 32,
        iterations in 2usize..6,
        samples in 8usize..24,
        threads in threads_strategy(),
    ) {
        let sim = ThrowSim::new(2.0);
        let run = |threads: usize| {
            let mut profiler = Profiler::new();
            Cem::new(CemConfig {
                iterations,
                samples_per_iteration: samples,
                elites: 4.min(samples),
                seed,
                threads,
                ..Default::default()
            })
            .learn(&sim, &mut profiler, &mut NullTrace)
        };
        let seq = run(1);
        let par = run(threads);
        prop_assert_eq!(bits(seq.best_reward), bits(par.best_reward));
        prop_assert_eq!(bits(seq.best_params.shoulder), bits(par.best_params.shoulder));
        prop_assert_eq!(bits(seq.best_params.elbow), bits(par.best_params.elbow));
        prop_assert_eq!(bits(seq.best_params.speed), bits(par.best_params.speed));
        prop_assert_eq!(seq.evaluations, par.evaluations);
        prop_assert_eq!(seq.reward_trace.len(), par.reward_trace.len());
        for (a, b) in seq.reward_trace.iter().zip(par.reward_trace.iter()) {
            prop_assert_eq!(bits(*a), bits(*b));
        }
        for (a, b) in seq.iteration_means.iter().zip(par.iteration_means.iter()) {
            prop_assert_eq!(bits(*a), bits(*b));
        }
    }
}

/// The symbolic planner interns states in ordered maps precisely so that
/// its tie-breaking never depends on a hash seed. Two runs in the same
/// process would already diverge if interning went through `HashMap`
/// (each instance draws a fresh `RandomState`), so repeat-and-compare is
/// a real regression test for the `nondet-iter` contract, not a tautology.
#[test]
fn symbolic_planner_is_run_to_run_deterministic() {
    use rtr_planning::symbolic::{blocks_world, firefight};
    use rtr_planning::SymbolicPlanner;

    for (name, domain) in [
        ("blocks_world", blocks_world(5)),
        ("firefight", firefight()),
    ] {
        let solve = || {
            let mut profiler = Profiler::new();
            SymbolicPlanner::new(1.0)
                .solve(&domain, &mut profiler, &mut NullTrace)
                .unwrap_or_else(|| panic!("{name} should be solvable"))
        };
        let a = solve();
        let b = solve();
        assert_eq!(a.actions, b.actions, "{name}: plans must match exactly");
        assert_eq!(
            a.expanded, b.expanded,
            "{name}: expansion counts must match"
        );
        assert_eq!(bits(a.mean_branching), bits(b.mean_branching));
        assert_eq!(a.ground_actions, b.ground_actions);
        assert!(
            domain.validate_plan(&a.actions),
            "{name}: plan must execute"
        );
    }
}
