//! Educational-style baseline planners for the paper's §VII comparison.
//!
//! §VII benchmarks RTRBench's `pp2d` against the grid A* of
//! PythonRobotics (`a_star.py`) and CppRobotics (`a_star.cpp`) and finds
//! them 357×–3469× and 74×–13576× slower respectively, attributing the
//! gaps to the Python runtime and, for CppRobotics, to "passing large data
//! structures to functions needlessly by value instead of by reference."
//!
//! We cannot (and need not) reproduce the Python interpreter, but the
//! *algorithmic* inefficiencies transfer directly:
//!
//! - [`PRobAstar`] mirrors `a_star.py`'s structure: a dictionary keyed by
//!   stringified node ids, a **linear scan** over the open set to find the
//!   minimum-f node each iteration (`min(open_set, key=...)`), and fresh
//!   heap allocations per expansion.
//! - [`CRobAstar`] mirrors `a_star.cpp`'s defect: helper functions take
//!   the open/closed sets and the whole map **by value**, cloning them on
//!   every call.
//!
//! Both remain *correct* A* implementations — tests cross-check their
//! paths against the tuned planner — so the Fig. 21 experiment measures
//! implementation quality, not algorithmic differences.

use std::collections::HashMap;

use rtr_geom::GridMap2D;

/// A planned grid path with search statistics.
#[derive(Debug, Clone)]
pub struct BaselinePath {
    /// Cell path from start to goal.
    pub path: Vec<(usize, usize)>,
    /// Path cost in cell units (diagonals cost √2).
    pub cost: f64,
    /// Nodes expanded.
    pub expanded: u64,
}

const MOVES: [(i64, i64, f64); 8] = [
    (1, 0, 1.0),
    (-1, 0, 1.0),
    (0, 1, 1.0),
    (0, -1, 1.0),
    (1, 1, std::f64::consts::SQRT_2),
    (1, -1, std::f64::consts::SQRT_2),
    (-1, 1, std::f64::consts::SQRT_2),
    (-1, -1, std::f64::consts::SQRT_2),
];

fn heuristic(a: (i64, i64), b: (i64, i64)) -> f64 {
    let dx = (a.0 - b.0) as f64;
    let dy = (a.1 - b.1) as f64;
    (dx * dx + dy * dy).sqrt()
}

/// PythonRobotics-style A*: stringified node keys, linear-scan open set,
/// per-step allocations.
///
/// # Example
///
/// ```
/// use rtr_baselines::PRobAstar;
/// use rtr_geom::maps;
///
/// let map = maps::pythonrobotics_map();
/// let result = PRobAstar::plan(&map, maps::PYTHONROBOTICS_START, maps::PYTHONROBOTICS_GOAL)
///     .expect("demo map is solvable");
/// assert_eq!(*result.path.last().unwrap(), maps::PYTHONROBOTICS_GOAL);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PRobAstar;

/// Node record mirroring `a_star.py`'s `Node` class.
#[derive(Debug, Clone)]
struct PyNode {
    x: i64,
    y: i64,
    cost: f64,
    parent: String,
}

impl PRobAstar {
    /// Plans from `start` to `goal`; `None` when unreachable.
    pub fn plan(
        map: &GridMap2D,
        start: (usize, usize),
        goal: (usize, usize),
    ) -> Option<BaselinePath> {
        let goal_i = (goal.0 as i64, goal.1 as i64);
        let start_node = PyNode {
            x: start.0 as i64,
            y: start.1 as i64,
            cost: 0.0,
            parent: String::new(),
        };
        if map.is_occupied(start_node.x, start_node.y) || map.is_occupied(goal_i.0, goal_i.1) {
            return None;
        }

        // Dictionaries keyed by stringified ids, as the Python code keys
        // dicts by calc_grid_index(node).
        let key = |x: i64, y: i64| -> String { format!("{x},{y}") };
        let mut open_set: HashMap<String, PyNode> = HashMap::new();
        let mut closed_set: HashMap<String, PyNode> = HashMap::new();
        open_set.insert(key(start_node.x, start_node.y), start_node);
        let mut expanded = 0u64;

        loop {
            if open_set.is_empty() {
                return None;
            }
            // The hallmark inefficiency: min() over the whole open set.
            let current_key = open_set
                .iter()
                .min_by(|a, b| {
                    let fa = a.1.cost + heuristic((a.1.x, a.1.y), goal_i);
                    let fb = b.1.cost + heuristic((b.1.x, b.1.y), goal_i);
                    fa.total_cmp(&fb)
                })
                .map(|(k, _)| k.clone())
                .expect("non-empty");
            let current = open_set.remove(&current_key).expect("present");
            expanded += 1;

            if (current.x, current.y) == goal_i {
                // Reconstruct via parent strings.
                let mut path = vec![(current.x as usize, current.y as usize)];
                let cost = current.cost;
                let mut parent = current.parent.clone();
                closed_set.insert(current_key, current);
                while !parent.is_empty() {
                    let node = &closed_set[&parent];
                    path.push((node.x as usize, node.y as usize));
                    parent = node.parent.clone();
                }
                path.reverse();
                return Some(BaselinePath {
                    path,
                    cost,
                    expanded,
                });
            }

            for &(dx, dy, move_cost) in &MOVES {
                let nx = current.x + dx;
                let ny = current.y + dy;
                let nkey = key(nx, ny);
                if map.is_occupied(nx, ny) || closed_set.contains_key(&nkey) {
                    continue;
                }
                let node = PyNode {
                    x: nx,
                    y: ny,
                    cost: current.cost + move_cost,
                    parent: current_key.clone(),
                };
                match open_set.get(&nkey) {
                    Some(existing) if existing.cost <= node.cost => {}
                    _ => {
                        open_set.insert(nkey, node);
                    }
                }
            }
            closed_set.insert(current_key, current);
        }
    }
}

/// CppRobotics-style A*: algorithmically identical, but every helper takes
/// its data structures by value, cloning the map and node sets per call —
/// the inefficiency §VII diagnoses in `a_star.cpp`.
///
/// # Example
///
/// ```
/// use rtr_baselines::CRobAstar;
/// use rtr_geom::maps;
///
/// let map = maps::pythonrobotics_map();
/// let result = CRobAstar::plan(&map, maps::PYTHONROBOTICS_START, maps::PYTHONROBOTICS_GOAL)
///     .expect("demo map is solvable");
/// assert_eq!(*result.path.last().unwrap(), maps::PYTHONROBOTICS_GOAL);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CRobAstar;

type NodeMap = HashMap<(i64, i64), ((i64, i64), f64)>;

/// Deliberately pass-by-value "helper" mirroring the C-Rob defect: the
/// open set, closed set and map are copied on every call.
#[allow(
    clippy::needless_pass_by_value,
    reason = "the per-call copies are the C-Rob defect this baseline reproduces"
)]
fn select_min_node(open_set: NodeMap, map: GridMap2D, goal: (i64, i64)) -> (i64, i64) {
    let _ = map.width(); // the copied map is "used", as in the original
    open_set
        .iter()
        .min_by(|a, b| {
            let fa = a.1 .1 + heuristic(*a.0, goal);
            let fb = b.1 .1 + heuristic(*b.0, goal);
            fa.total_cmp(&fb)
        })
        .map(|(k, _)| *k)
        .expect("non-empty")
}

/// Pass-by-value successor expansion, cloning both sets and the map.
#[allow(
    clippy::needless_pass_by_value,
    reason = "the per-call copies are the C-Rob defect this baseline reproduces"
)]
fn expand_node(
    current: (i64, i64),
    current_cost: f64,
    open_set: NodeMap,
    closed_set: NodeMap,
    map: GridMap2D,
) -> Vec<((i64, i64), f64)> {
    let mut out = Vec::new();
    for &(dx, dy, move_cost) in &MOVES {
        let next = (current.0 + dx, current.1 + dy);
        if map.is_occupied(next.0, next.1) || closed_set.contains_key(&next) {
            continue;
        }
        let cost = current_cost + move_cost;
        match open_set.get(&next) {
            Some((_, existing)) if *existing <= cost => {}
            _ => out.push((next, cost)),
        }
    }
    out
}

impl CRobAstar {
    /// Plans from `start` to `goal`; `None` when unreachable.
    pub fn plan(
        map: &GridMap2D,
        start: (usize, usize),
        goal: (usize, usize),
    ) -> Option<BaselinePath> {
        let start_i = (start.0 as i64, start.1 as i64);
        let goal_i = (goal.0 as i64, goal.1 as i64);
        if map.is_occupied(start_i.0, start_i.1) || map.is_occupied(goal_i.0, goal_i.1) {
            return None;
        }
        let mut open_set: NodeMap = HashMap::new();
        let mut closed_set: NodeMap = HashMap::new();
        open_set.insert(start_i, (start_i, 0.0));
        let mut expanded = 0u64;

        loop {
            if open_set.is_empty() {
                return None;
            }
            // Every call clones the whole state — the C-Rob by-value bug.
            let current = select_min_node(open_set.clone(), map.clone(), goal_i);
            let (parent, cost) = open_set.remove(&current).expect("present");
            closed_set.insert(current, (parent, cost));
            expanded += 1;

            if current == goal_i {
                let mut path = vec![(current.0 as usize, current.1 as usize)];
                let mut node = current;
                while closed_set[&node].0 != node {
                    node = closed_set[&node].0;
                    path.push((node.0 as usize, node.1 as usize));
                }
                path.reverse();
                return Some(BaselinePath {
                    path,
                    cost,
                    expanded,
                });
            }

            for (next, next_cost) in expand_node(
                current,
                cost,
                open_set.clone(),
                closed_set.clone(),
                map.clone(),
            ) {
                open_set.insert(next, (current, next_cost));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_geom::maps;

    fn demo() -> (GridMap2D, (usize, usize), (usize, usize)) {
        (
            maps::pythonrobotics_map(),
            maps::PYTHONROBOTICS_START,
            maps::PYTHONROBOTICS_GOAL,
        )
    }

    #[test]
    fn both_baselines_solve_the_demo_map() {
        let (map, start, goal) = demo();
        let p = PRobAstar::plan(&map, start, goal).unwrap();
        let c = CRobAstar::plan(&map, start, goal).unwrap();
        assert_eq!(*p.path.first().unwrap(), start);
        assert_eq!(*p.path.last().unwrap(), goal);
        assert_eq!(*c.path.first().unwrap(), start);
        assert_eq!(*c.path.last().unwrap(), goal);
    }

    #[test]
    fn baselines_agree_on_optimal_cost() {
        let (map, start, goal) = demo();
        let p = PRobAstar::plan(&map, start, goal).unwrap();
        let c = CRobAstar::plan(&map, start, goal).unwrap();
        assert!((p.cost - c.cost).abs() < 1e-9, "{} vs {}", p.cost, c.cost);
    }

    #[test]
    fn paths_avoid_obstacles_and_are_continuous() {
        let (map, start, goal) = demo();
        for result in [
            PRobAstar::plan(&map, start, goal).unwrap(),
            CRobAstar::plan(&map, start, goal).unwrap(),
        ] {
            for &(x, y) in &result.path {
                assert!(map.is_free(x as i64, y as i64));
            }
            for w in result.path.windows(2) {
                let dx = (w[1].0 as i64 - w[0].0 as i64).abs();
                let dy = (w[1].1 as i64 - w[0].1 as i64).abs();
                assert!(dx <= 1 && dy <= 1 && dx + dy > 0);
            }
        }
    }

    #[test]
    fn unreachable_goal_is_none() {
        let mut map = GridMap2D::new(16, 16, 1.0);
        for y in 0..16 {
            map.set_occupied(8, y, true);
        }
        assert!(PRobAstar::plan(&map, (2, 8), (14, 8)).is_none());
        assert!(CRobAstar::plan(&map, (2, 8), (14, 8)).is_none());
    }

    #[test]
    fn occupied_endpoint_is_none() {
        let mut map = GridMap2D::new(8, 8, 1.0);
        map.set_occupied(1, 1, true);
        assert!(PRobAstar::plan(&map, (1, 1), (6, 6)).is_none());
        assert!(CRobAstar::plan(&map, (6, 6), (1, 1)).is_none());
    }

    #[test]
    fn cost_matches_straight_line_in_open_map() {
        let map = GridMap2D::new(32, 32, 1.0);
        let p = PRobAstar::plan(&map, (2, 2), (2, 22)).unwrap();
        assert!((p.cost - 20.0).abs() < 1e-9);
        let c = CRobAstar::plan(&map, (2, 2), (22, 22)).unwrap();
        assert!((c.cost - 20.0 * std::f64::consts::SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn scaled_maps_stay_solvable() {
        let (map, start, goal) = demo();
        let scaled = map.upscaled(2);
        let s2 = (start.0 * 2, start.1 * 2);
        let g2 = (goal.0 * 2, goal.1 * 2);
        let p = PRobAstar::plan(&scaled, s2, g2).unwrap();
        assert_eq!(*p.path.last().unwrap(), g2);
    }
}
