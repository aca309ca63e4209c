//! `06.movtar` — catching a moving target.
//!
//! The robot knows the target's full trajectory and must intercept it at
//! minimum cost in a 2D environment where "every location ... has a
//! particular cost for the robot". Planning happens in 3D — x, y and time.
//! Following the paper, the search is Weighted A* (WA*) with a heuristic
//! computed up front by *backward Dijkstra* from the target trajectory,
//! "executed to calculate the heuristic values in an environment-aware
//! manner (e.g., accounting for obstacles)". The paper finds the kernel
//! input-dependent: in small environments the heuristic calculation grows
//! to 62 % of the end-to-end latency, which the `heuristic_calc` region
//! exposes.

#[expect(
    clippy::disallowed_types,
    reason = "the heuristic table is read by key, never iterated"
)]
use std::collections::HashMap;

use rtr_harness::Profiler;
use rtr_sim::SimRng;
use rtr_trace::MemTrace;

use crate::search::{dijkstra_flood, weighted_astar, FxBuildHasher, SearchSpace};

/// A 2D cost field: obstacles are `f64::INFINITY`, free cells have a
/// positive traversal cost.
#[derive(Debug, Clone)]
pub struct CostField {
    width: usize,
    height: usize,
    cost: Vec<f64>,
}

impl CostField {
    /// Creates a field with uniform unit cost.
    pub fn uniform(width: usize, height: usize) -> Self {
        CostField {
            width,
            height,
            cost: vec![1.0; width * height],
        }
    }

    /// Width in cells.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in cells.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Cost of entering `(x, y)`; infinite outside the field.
    #[inline]
    pub fn cost(&self, x: i64, y: i64) -> f64 {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            return f64::INFINITY;
        }
        self.cost[y as usize * self.width + x as usize]
    }

    /// Sets the cost of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of bounds or the cost is negative.
    pub fn set_cost(&mut self, x: usize, y: usize, cost: f64) {
        assert!(x < self.width && y < self.height, "cell out of bounds");
        assert!(cost >= 0.0, "costs must be non-negative");
        self.cost[y * self.width + x] = cost;
    }

    /// Returns `true` when the cell is traversable.
    #[inline]
    pub fn is_free(&self, x: i64, y: i64) -> bool {
        self.cost(x, y).is_finite()
    }
}

/// Configuration for [`MovingTarget`].
#[derive(Debug, Clone)]
pub struct MovtarConfig {
    /// Robot start cell.
    pub start: (usize, usize),
    /// Target position at every time step (the robot "knows the trajectory
    /// of the target").
    pub target_trajectory: Vec<(usize, usize)>,
    /// WA* heuristic inflation ε (≥ 1).
    pub epsilon: f64,
}

/// Result of an interception run.
#[derive(Debug, Clone)]
pub struct MovtarResult {
    /// Robot path as `(x, y, t)` from start to the catch point.
    pub path: Vec<(usize, usize, usize)>,
    /// Accumulated location cost of the path.
    pub cost: f64,
    /// Time step at which the target is caught.
    pub catch_time: usize,
    /// Nodes expanded by the WA* search.
    pub expanded: u64,
    /// Cells labeled by the backward-Dijkstra heuristic.
    pub heuristic_cells: usize,
}

const MOVES: [(i64, i64); 9] = [
    (0, 0), // waiting is allowed — the robot may let the target come to it
    (1, 0),
    (-1, 0),
    (0, 1),
    (0, -1),
    (1, 1),
    (1, -1),
    (-1, 1),
    (-1, -1),
];

struct TimeSpace<'a> {
    field: &'a CostField,
    trajectory: &'a [(usize, usize)],
    #[expect(
        clippy::disallowed_types,
        reason = "get()-only lookups, order never observed"
    )]
    heuristic: &'a HashMap<(i64, i64), f64, FxBuildHasher>,
    epsilon_floor: f64,
}

impl SearchSpace for TimeSpace<'_> {
    /// `(x, y, t)`.
    type Node = (i64, i64, usize);

    fn successors(&self, (x, y, t): Self::Node, out: &mut Vec<(Self::Node, f64)>) {
        if t + 1 >= self.trajectory.len() {
            return; // Horizon exhausted: the target escaped.
        }
        for (dx, dy) in MOVES {
            let nx = x + dx;
            let ny = y + dy;
            let cell_cost = self.field.cost(nx, ny);
            if cell_cost.is_finite() {
                // Entering a cell costs its location cost; waiting costs
                // the current cell's (the robot keeps "paying rent").
                out.push(((nx, ny, t + 1), cell_cost.max(self.epsilon_floor)));
            }
        }
    }

    fn heuristic(&self, (x, y, _): Self::Node) -> f64 {
        // Backward-Dijkstra cost-to-trajectory, time-agnostic.
        self.heuristic
            .get(&(x, y))
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    fn is_goal(&self, (x, y, t): Self::Node) -> bool {
        self.trajectory
            .get(t)
            .is_some_and(|&(tx, ty)| tx as i64 == x && ty as i64 == y)
    }
}

/// The moving-target interception kernel.
///
/// # Example
///
/// ```
/// use rtr_planning::movtar::{CostField, MovingTarget, MovtarConfig};
/// use rtr_harness::Profiler;
///
/// let field = CostField::uniform(16, 16);
/// let trajectory: Vec<(usize, usize)> = (0..16).map(|t| (15 - t.min(15), 8)).collect();
/// let config = MovtarConfig { start: (0, 8), target_trajectory: trajectory, epsilon: 1.0 };
/// let mut profiler = Profiler::new();
/// let result = MovingTarget::new(config)
///     .plan(&field, &mut profiler, &mut rtr_trace::NullTrace)
///     .unwrap();
/// assert!(result.catch_time <= 8);
/// ```
#[derive(Debug, Clone)]
pub struct MovingTarget {
    config: MovtarConfig,
}

impl MovingTarget {
    /// Creates the kernel.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon < 1` or the trajectory is empty.
    pub fn new(config: MovtarConfig) -> Self {
        assert!(config.epsilon >= 1.0, "epsilon must be >= 1");
        assert!(
            !config.target_trajectory.is_empty(),
            "target trajectory must be non-empty"
        );
        MovingTarget { config }
    }

    /// Plans an interception path; `None` when the target cannot be caught
    /// within its trajectory horizon.
    ///
    /// Profiler regions: `heuristic_calc` (backward Dijkstra) and
    /// `graph_search` (the WA* phase). Both phases emit into `trace`: the
    /// flood reads/writes 8 B cost-field cells (row-major from address 0)
    /// and the WA* walks 16 B time-expanded node records above `1 << 32`;
    /// pass [`rtr_trace::NullTrace`] for an untraced run.
    pub fn plan<T: MemTrace + ?Sized>(
        &self,
        field: &CostField,
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> Option<MovtarResult> {
        // Backward Dijkstra from every cell the target visits: costs are
        // symmetric here (cost of entering), so the backward graph uses the
        // same successor costs.
        let sources: Vec<(i64, i64)> = self
            .config
            .target_trajectory
            .iter()
            .filter(|&&(x, y)| field.is_free(x as i64, y as i64))
            .map(|&(x, y)| (x as i64, y as i64))
            .collect();
        if sources.is_empty() {
            return None;
        }
        let w = field.width() as u64;
        let h = field.height() as u64;
        let heuristic = profiler.time("heuristic_calc", || {
            dijkstra_flood(
                &sources,
                |(x, y), out| {
                    for (dx, dy) in &MOVES[1..] {
                        let nx = x + dx;
                        let ny = y + dy;
                        let c = field.cost(nx, ny);
                        if c.is_finite() {
                            out.push(((nx, ny), c));
                        }
                    }
                },
                trace,
                &mut |&(x, y)| (y.max(0) as u64 * w + x.max(0) as u64) * 8,
            )
        });
        let heuristic_cells = heuristic.len();

        let space = TimeSpace {
            field,
            trajectory: &self.config.target_trajectory,
            heuristic: &heuristic,
            epsilon_floor: 1e-6,
        };
        let start = (
            self.config.start.0 as i64,
            self.config.start.1 as i64,
            0usize,
        );
        if !field.is_free(start.0, start.1) {
            return None;
        }
        let result = profiler.time("graph_search", || {
            weighted_astar(
                &space,
                start,
                self.config.epsilon,
                trace,
                &mut |&(x, y, t)| {
                    let cell = (t as u64 * h + y.max(0) as u64) * w + x.max(0) as u64;
                    (1 << 32) + cell * 16
                },
            )
        })?;

        let path: Vec<(usize, usize, usize)> = result
            .path
            .iter()
            .map(|&(x, y, t)| (x as usize, y as usize, t))
            .collect();
        Some(MovtarResult {
            catch_time: path.last().map(|&(_, _, t)| t).unwrap_or(0),
            path,
            cost: result.cost,
            expanded: result.expanded,
            heuristic_cells,
        })
    }
}

/// Generates a synthetic environment in the spirit of the paper ("we
/// create our own synthetic environments"): a smooth cost landscape with
/// scattered obstacles, plus a target walking a straight-ish escape route.
///
/// Returns `(field, robot_start, target_trajectory)`.
pub fn synthetic_scenario(
    size: usize,
    horizon: usize,
    seed: u64,
) -> (CostField, (usize, usize), Vec<(usize, usize)>) {
    assert!(size >= 8, "scenario needs at least an 8x8 field");
    let mut rng = SimRng::seed_from(seed);
    let mut field = CostField::uniform(size, size);

    // Smooth cost hills: a few Gaussian bumps.
    let bumps: Vec<(f64, f64, f64)> = (0..size / 8 + 2)
        .map(|_| {
            (
                rng.uniform(0.0, size as f64),
                rng.uniform(0.0, size as f64),
                rng.uniform(2.0, 8.0),
            )
        })
        .collect();
    for y in 0..size {
        for x in 0..size {
            let mut c = 1.0;
            for &(bx, by, amp) in &bumps {
                let d2 = (x as f64 - bx).powi(2) + (y as f64 - by).powi(2);
                c += amp * (-d2 / (size as f64)).exp();
            }
            field.set_cost(x, y, c);
        }
    }

    // Obststacle blocks away from the border.
    for _ in 0..size / 4 {
        let w = 1 + rng.below(size / 8);
        let h = 1 + rng.below(size / 8);
        let x0 = 1 + rng.below(size - w - 2);
        let y0 = 1 + rng.below(size - h - 2);
        for y in y0..y0 + h {
            for x in x0..x0 + w {
                field.set_cost(x, y, f64::INFINITY);
            }
        }
    }

    // Robot starts near one corner; the target walks from the opposite
    // corner along the border (always free: clear the border ring).
    for i in 0..size {
        field.set_cost(i, 0, 1.0);
        field.set_cost(i, size - 1, 1.0);
        field.set_cost(0, i, 1.0);
        field.set_cost(size - 1, i, 1.0);
    }
    let start = (1usize, 1usize);
    field.set_cost(start.0, start.1, 1.0);
    let mut trajectory = Vec::with_capacity(horizon);
    let mut pos = (size - 2, size - 2);
    field.set_cost(pos.0, pos.1, 1.0);
    for t in 0..horizon {
        trajectory.push(pos);
        // The target flees along the top border every other step (slower
        // than the robot, as in pursuit problems).
        if t % 2 == 0 && pos.0 > 1 {
            pos.0 -= 1;
            field.set_cost(pos.0, pos.1, 1.0);
        }
    }
    (field, start, trajectory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_trace::{CountingTrace, NullTrace};

    #[test]
    fn catches_approaching_target() {
        let field = CostField::uniform(24, 24);
        // Target walks straight toward the robot.
        let trajectory: Vec<(usize, usize)> = (0..24).map(|t| (23 - t.min(22), 12)).collect();
        let config = MovtarConfig {
            start: (0, 12),
            target_trajectory: trajectory.clone(),
            epsilon: 1.0,
        };
        let mut profiler = Profiler::new();
        let r = MovingTarget::new(config)
            .plan(&field, &mut profiler, &mut NullTrace)
            .unwrap();
        let (x, y, t) = *r.path.last().unwrap();
        assert_eq!(trajectory[t], (x, y), "catch point must match target");
        // Head-on closing: both cover ~half the 23-cell gap, target at half
        // speed → catch around t = 2/3 · 23 ≈ 15.
        assert!(r.catch_time <= 17, "catch took {} steps", r.catch_time);
    }

    #[test]
    fn stationary_target_reduces_to_path_planning() {
        let field = CostField::uniform(16, 16);
        let trajectory = vec![(12, 12); 30];
        let config = MovtarConfig {
            start: (2, 2),
            target_trajectory: trajectory,
            epsilon: 1.0,
        };
        let mut profiler = Profiler::new();
        let r = MovingTarget::new(config)
            .plan(&field, &mut profiler, &mut NullTrace)
            .unwrap();
        // Diagonal distance is 10 moves.
        assert_eq!(r.catch_time, 10);
    }

    #[test]
    fn uncatchable_target_returns_none() {
        let field = CostField::uniform(16, 16);
        // Target too far for the 3-step horizon.
        let config = MovtarConfig {
            start: (0, 0),
            target_trajectory: vec![(15, 15), (15, 14), (15, 13)],
            epsilon: 1.0,
        };
        let mut profiler = Profiler::new();
        assert!(MovingTarget::new(config)
            .plan(&field, &mut profiler, &mut NullTrace)
            .is_none());
    }

    #[test]
    fn prefers_cheap_terrain() {
        let mut field = CostField::uniform(16, 5);
        // Expensive band on the straight line; cheap detour above.
        for x in 2..14 {
            field.set_cost(x, 2, 50.0);
        }
        let trajectory = vec![(15, 2); 40];
        let config = MovtarConfig {
            start: (0, 2),
            target_trajectory: trajectory,
            epsilon: 1.0,
        };
        let mut profiler = Profiler::new();
        let r = MovingTarget::new(config)
            .plan(&field, &mut profiler, &mut NullTrace)
            .unwrap();
        // The path should dodge the expensive band (visit y != 2).
        assert!(r.path.iter().any(|&(_, y, _)| y != 2));
    }

    #[test]
    fn epsilon_trades_cost_for_expansions() {
        let (field, start, trajectory) = synthetic_scenario(48, 96, 3);
        let run = |eps: f64| {
            let mut profiler = Profiler::new();
            MovingTarget::new(MovtarConfig {
                start,
                target_trajectory: trajectory.clone(),
                epsilon: eps,
            })
            .plan(&field, &mut profiler, &mut NullTrace)
            .expect("catchable")
        };
        let optimal = run(1.0);
        let fast = run(3.0);
        assert!(fast.expanded <= optimal.expanded);
        assert!(fast.cost <= 3.0 * optimal.cost + 1e-6);
    }

    #[test]
    fn heuristic_fraction_grows_in_small_envs() {
        // The paper: "in small environments ... the contribution of the
        // heuristic calculation latency to the end-to-end latency grows".
        // Counted, not timed, so load cannot flip the order: the share of
        // the heuristic's labeled cells in all cells and nodes the two
        // phases process. Seed 7 reads 0.810 at side 24 and 0.661 at side
        // 96; the assertion asks for a gap of at least 0.1 of the 0.149.
        let frac = |size: usize| {
            let (field, start, trajectory) = synthetic_scenario(size, size * 2, 7);
            let r = MovingTarget::new(MovtarConfig {
                start,
                target_trajectory: trajectory,
                epsilon: 2.0,
            })
            .plan(&field, &mut Profiler::new(), &mut NullTrace)
            .expect("catchable");
            let h = r.heuristic_cells as f64;
            h / (h + r.expanded as f64)
        };
        let small = frac(24);
        let large = frac(96);
        assert!(
            small > large + 0.1,
            "heuristic share should shrink with size: small {small}, large {large}"
        );
    }

    #[test]
    fn synthetic_scenario_is_well_formed() {
        let (field, start, trajectory) = synthetic_scenario(32, 64, 1);
        assert!(field.is_free(start.0 as i64, start.1 as i64));
        assert_eq!(trajectory.len(), 64);
        for &(x, y) in &trajectory {
            assert!(field.is_free(x as i64, y as i64));
        }
    }

    #[test]
    fn traced_plan_is_bit_identical_and_emits_both_phases() {
        let (field, start, trajectory) = synthetic_scenario(32, 64, 1);
        let config = MovtarConfig {
            start,
            target_trajectory: trajectory,
            epsilon: 2.0,
        };
        let mut profiler = Profiler::new();
        let mut counts = CountingTrace::default();
        let traced = MovingTarget::new(config.clone())
            .plan(&field, &mut profiler, &mut counts)
            .unwrap();
        let plain = MovingTarget::new(config)
            .plan(&field, &mut profiler, &mut NullTrace)
            .unwrap();
        assert_eq!(traced.path, plain.path);
        assert_eq!(traced.cost.to_bits(), plain.cost.to_bits());
        // Flood writes every labeled cell at least once; WA* adds more.
        assert!(counts.writes >= traced.heuristic_cells as u64);
        assert!(counts.reads > 0);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn epsilon_below_one_panics() {
        let _ = MovingTarget::new(MovtarConfig {
            start: (0, 0),
            target_trajectory: vec![(1, 1)],
            epsilon: 0.5,
        });
    }
}
