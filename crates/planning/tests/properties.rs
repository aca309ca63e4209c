//! Property-based tests for the planning kernels' core invariants.

use proptest::prelude::*;
use rtr_geom::GridMap2D;
use rtr_harness::Profiler;
use rtr_planning::search::{weighted_astar, SearchResult, SearchSpace};
use rtr_planning::{blocks_world, SymbolicPlanner};
use rtr_trace::NullTrace;

/// A grid search space over an arbitrary obstacle bitmap (point robot,
/// 4-connected so costs are exact integers).
struct GridSpace {
    map: GridMap2D,
    goal: (i64, i64),
}

impl SearchSpace for GridSpace {
    type Node = (i64, i64);

    fn successors(&self, (x, y): (i64, i64), out: &mut Vec<((i64, i64), f64)>) {
        for (dx, dy) in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)] {
            let n = (x + dx, y + dy);
            if self.map.is_free(n.0, n.1) {
                out.push((n, 1.0));
            }
        }
    }

    fn heuristic(&self, (x, y): (i64, i64)) -> f64 {
        ((self.goal.0 - x).abs() + (self.goal.1 - y).abs()) as f64
    }

    fn is_goal(&self, n: (i64, i64)) -> bool {
        n == self.goal
    }
}

/// An untraced search at `weight` (0 is Dijkstra, 1 is A*).
fn search(space: &GridSpace, start: (i64, i64), weight: f64) -> Option<SearchResult<(i64, i64)>> {
    weighted_astar(space, start, weight, &mut NullTrace, &mut |_| 0)
}

fn random_grid(bits: &[bool], side: usize) -> GridMap2D {
    let mut map = GridMap2D::new(side, side, 1.0);
    for (i, &b) in bits.iter().enumerate() {
        if b {
            map.set_occupied(i % side, i / side, true);
        }
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn astar_is_optimal_on_random_grids(
        bits in prop::collection::vec(prop::bool::weighted(0.25), 144),
        sx in 0i64..12, sy in 0i64..12,
        gx in 0i64..12, gy in 0i64..12,
    ) {
        let mut map = random_grid(&bits, 12);
        // Clear start and goal.
        map.set_occupied(sx as usize, sy as usize, false);
        map.set_occupied(gx as usize, gy as usize, false);
        let space = GridSpace { map, goal: (gx, gy) };
        let a = search(&space, (sx, sy), 1.0);
        let d = search(&space, (sx, sy), 0.0);
        match (a, d) {
            (Some(a), Some(d)) => {
                prop_assert!((a.cost - d.cost).abs() < 1e-9,
                    "A* {} vs Dijkstra {}", a.cost, d.cost);
                prop_assert!(a.expanded <= d.expanded);
                // Path cost at least Manhattan distance.
                prop_assert!(a.cost >= ((gx - sx).abs() + (gy - sy).abs()) as f64 - 1e-9);
            }
            (None, None) => {} // consistently unreachable
            (a, d) => prop_assert!(false, "reachability disagrees: {:?} vs {:?}",
                a.is_some(), d.is_some()),
        }
    }

    #[test]
    fn weighted_astar_respects_suboptimality_bound(
        bits in prop::collection::vec(prop::bool::weighted(0.2), 144),
        weight in 1.0..4.0f64,
    ) {
        let mut map = random_grid(&bits, 12);
        map.set_occupied(0, 0, false);
        map.set_occupied(11, 11, false);
        let space = GridSpace { map, goal: (11, 11) };
        if let (Some(w), Some(opt)) = (
            search(&space, (0, 0), weight),
            search(&space, (0, 0), 0.0),
        ) {
            prop_assert!(w.cost <= weight * opt.cost + 1e-9,
                "cost {} exceeds {}x optimal {}", w.cost, weight, opt.cost);
        }
    }

    #[test]
    fn search_paths_are_connected_and_free(
        bits in prop::collection::vec(prop::bool::weighted(0.3), 100),
    ) {
        let mut map = random_grid(&bits, 10);
        map.set_occupied(0, 0, false);
        map.set_occupied(9, 9, false);
        let space = GridSpace { map, goal: (9, 9) };
        if let Some(result) = search(&space, (0, 0), 1.0) {
            prop_assert_eq!(result.path[0], (0, 0));
            prop_assert_eq!(*result.path.last().unwrap(), (9, 9));
            for w in result.path.windows(2) {
                let dx = (w[1].0 - w[0].0).abs();
                let dy = (w[1].1 - w[0].1).abs();
                prop_assert_eq!(dx + dy, 1, "non-adjacent step");
            }
            for &(x, y) in &result.path {
                prop_assert!(space.map.is_free(x, y));
            }
        }
    }

    #[test]
    fn blocks_world_plans_validate_for_any_size(n in 1usize..6) {
        let domain = blocks_world(n);
        let mut profiler = Profiler::new();
        let plan = SymbolicPlanner::new(1.5)
            .solve(&domain, &mut profiler, &mut rtr_trace::NullTrace)
            .expect("blocks world is always solvable");
        prop_assert!(domain.validate_plan(&plan.actions));
        // Building an n-tower from the table takes exactly n-1 moves when
        // stacked bottom-up (our planner may use more with the inflated
        // heuristic, but never fewer).
        prop_assert!(plan.actions.len() >= n.saturating_sub(1));
    }
}
