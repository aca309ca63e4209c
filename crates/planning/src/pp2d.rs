//! `04.pp2d` — 2D path planning for a car-sized robot.
//!
//! Models "a self-driving car navigating in a city": A* over an
//! 8-connected occupancy grid with a Euclidean heuristic, where every
//! candidate move collision-checks the car's 4.8 m × 1.8 m footprint
//! oriented along the motion direction. The paper measures collision
//! detection at more than 65 % of execution time; the check is the
//! [`rtr_geom::Footprint`] lattice probe, instrumented so its time and its
//! grid accesses are attributable.

use std::cell::Cell;

use rtr_geom::{Footprint, FootprintLattice, GridMap2D};
use rtr_harness::{HotRegion, Profiler};
use rtr_trace::MemTrace;

use crate::search::{weighted_astar, SearchResult, SearchSpace};

/// Configuration for [`Pp2d`].
#[derive(Debug, Clone)]
pub struct Pp2dConfig {
    /// Start cell.
    pub start: (usize, usize),
    /// Goal cell.
    pub goal: (usize, usize),
    /// Robot footprint (the paper's car is 4.8 m × 1.8 m).
    pub footprint: Footprint,
    /// Heuristic inflation (1.0 = optimal A*).
    pub weight: f64,
}

impl Pp2dConfig {
    /// The paper's car scenario between two cells.
    pub fn car(start: (usize, usize), goal: (usize, usize)) -> Self {
        Pp2dConfig {
            start,
            goal,
            footprint: Footprint::new(4.8, 1.8),
            weight: 1.0,
        }
    }
}

/// Result of a 2D planning run.
#[derive(Debug, Clone)]
pub struct Pp2dResult {
    /// Cell path from start to goal.
    pub path: Vec<(usize, usize)>,
    /// Path cost in meters.
    pub cost: f64,
    /// Nodes expanded by the search.
    pub expanded: u64,
    /// Collision checks performed.
    pub collision_checks: u64,
    /// Grid-cell probes performed by collision checks.
    pub cells_probed: u64,
}

/// Search-space adapter: 8-connected grid moves gated by footprint checks.
struct CarSpace<'a> {
    map: &'a GridMap2D,
    goal: (i64, i64),
    /// The footprint's lattice at each move's heading, in [`MOVES`] order.
    /// Move 0 heads along +x, at heading 0.
    lattices: [FootprintLattice; 8],
    /// Each move's metric length, in [`MOVES`] order.
    step_lengths: [f64; 8],
    collision: HotRegion,
    collision_checks: Cell<u64>,
    cells_probed: Cell<u64>,
}

impl<'a> CarSpace<'a> {
    fn new(map: &'a GridMap2D, goal: (i64, i64), footprint: Footprint, hot_timing: bool) -> Self {
        let res = map.resolution();
        CarSpace {
            map,
            goal,
            lattices: MOVES.map(|(dx, dy)| footprint.lattice(res, (dy as f64).atan2(dx as f64))),
            step_lengths: MOVES.map(|(dx, dy)| ((dx * dx + dy * dy) as f64).sqrt() * res),
            collision: HotRegion::timed(hot_timing),
            collision_checks: Cell::new(0),
            cells_probed: Cell::new(0),
        }
    }

    /// Footprint check for occupying `cell` with `lattice`'s heading.
    fn pose_free(&self, cell: (i64, i64), lattice: &FootprintLattice) -> bool {
        let start = self.collision.start();
        let res = self.map.resolution();
        let x = (cell.0 as f64 + 0.5) * res;
        let y = (cell.1 as f64 + 0.5) * res;
        let mut probes = 0u64;
        let collides = lattice.collides_with(self.map, x, y, |_, _| probes += 1);
        self.collision.add(start);
        self.collision_checks.set(self.collision_checks.get() + 1);
        self.cells_probed.set(self.cells_probed.get() + probes);
        !collides
    }
}

/// The eight grid moves (unit resolution).
const MOVES: [(i64, i64); 8] = [
    (1, 0),
    (-1, 0),
    (0, 1),
    (0, -1),
    (1, 1),
    (1, -1),
    (-1, 1),
    (-1, -1),
];

impl SearchSpace for CarSpace<'_> {
    type Node = (i64, i64);

    fn successors(&self, node: (i64, i64), out: &mut Vec<((i64, i64), f64)>) {
        for ((&(dx, dy), lattice), &step) in
            MOVES.iter().zip(&self.lattices).zip(&self.step_lengths)
        {
            let next = (node.0 + dx, node.1 + dy);
            if !self.map.in_bounds(next.0, next.1) {
                continue;
            }
            if self.pose_free(next, lattice) {
                out.push((next, step));
            }
        }
    }

    fn heuristic(&self, node: (i64, i64)) -> f64 {
        let dx = (self.goal.0 - node.0) as f64;
        let dy = (self.goal.1 - node.1) as f64;
        (dx * dx + dy * dy).sqrt() * self.map.resolution()
    }

    fn is_goal(&self, node: (i64, i64)) -> bool {
        node == self.goal
    }
}

/// The 2D path-planning kernel.
///
/// # Example
///
/// ```
/// use rtr_planning::{Pp2d, Pp2dConfig};
/// use rtr_geom::{Footprint, GridMap2D};
/// use rtr_harness::Profiler;
///
/// let map = GridMap2D::new(64, 64, 1.0);
/// let config = Pp2dConfig {
///     start: (5, 5),
///     goal: (50, 50),
///     footprint: Footprint::new(2.0, 1.0),
///     weight: 1.0,
/// };
/// let mut profiler = Profiler::new();
/// let result = Pp2d::new(config)
///     .plan(&map, &mut profiler, &mut rtr_trace::NullTrace)
///     .unwrap();
/// assert_eq!(*result.path.last().unwrap(), (50, 50));
/// ```
#[derive(Debug, Clone)]
pub struct Pp2d {
    config: Pp2dConfig,
}

impl Pp2d {
    /// Creates the kernel.
    pub fn new(config: Pp2dConfig) -> Self {
        Pp2d { config }
    }

    /// Plans a path on `map`. Returns `None` when the goal is unreachable
    /// (or start/goal are themselves in collision).
    ///
    /// Profiler regions: `collision_detection` (footprint probes) and
    /// `graph_search` (everything else in the search loop). The per-check
    /// breakdown needs the hot-timing knob ([`Profiler::timed`]); with a
    /// plain [`Profiler::new`] the solve stays free of per-iteration
    /// clock reads and the whole wall time lands in `graph_search`. The
    /// search replays its open-list operations and row-major cell reads
    /// (8 B per cell) into `trace`; pass [`rtr_trace::NullTrace`] for an
    /// untraced run (the emission compiles away).
    pub fn plan<T: MemTrace + ?Sized>(
        &self,
        map: &GridMap2D,
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> Option<Pp2dResult> {
        let space = CarSpace::new(
            map,
            (self.config.goal.0 as i64, self.config.goal.1 as i64),
            self.config.footprint,
            profiler.hot_timing(),
        );
        let start = (self.config.start.0 as i64, self.config.start.1 as i64);
        // Reject trivially invalid endpoints (blocked at heading 0).
        let heading_zero = &space.lattices[0];
        if !space.pose_free(start, heading_zero) || !space.pose_free(space.goal, heading_zero) {
            return None;
        }

        let width = map.width() as u64;
        let (result, total): (Option<SearchResult<(i64, i64)>>, _) = profiler.span(|| {
            weighted_astar(&space, start, self.config.weight, trace, &mut |n| {
                ((n.1.max(0) as u64) * width + n.0.max(0) as u64) * 8
            })
        });
        let collision = space.collision.total();
        space.collision.drain_into(profiler, "collision_detection");
        profiler.add("graph_search", total.saturating_sub(collision));

        result.map(|r| Pp2dResult {
            path: r
                .path
                .iter()
                .map(|&(x, y)| (x as usize, y as usize))
                .collect(),
            cost: r.cost,
            expanded: r.expanded,
            collision_checks: space.collision_checks.get(),
            cells_probed: space.cells_probed.get(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_geom::maps;
    use rtr_trace::{NullTrace, RecordingTrace};

    fn small_footprint() -> Footprint {
        Footprint::new(1.0, 1.0)
    }

    #[test]
    fn straight_line_in_open_map() {
        let map = GridMap2D::new(32, 32, 1.0);
        let config = Pp2dConfig {
            start: (5, 16),
            goal: (25, 16),
            footprint: small_footprint(),
            weight: 1.0,
        };
        let mut profiler = Profiler::new();
        let r = Pp2d::new(config)
            .plan(&map, &mut profiler, &mut NullTrace)
            .unwrap();
        assert_eq!(r.path.first(), Some(&(5, 16)));
        assert_eq!(r.path.last(), Some(&(25, 16)));
        assert!((r.cost - 20.0).abs() < 1e-9);
    }

    #[test]
    fn detours_around_wall() {
        let mut map = GridMap2D::new(32, 32, 1.0);
        for y in 0..28 {
            map.set_occupied(16, y, true);
        }
        let config = Pp2dConfig {
            start: (5, 5),
            goal: (27, 5),
            footprint: small_footprint(),
            weight: 1.0,
        };
        let mut profiler = Profiler::new();
        let r = Pp2d::new(config)
            .plan(&map, &mut profiler, &mut NullTrace)
            .unwrap();
        // Must climb above y=27 to clear the wall (footprint needs margin).
        assert!(r.path.iter().any(|&(_, y)| y >= 27));
        assert!(r.cost > 22.0);
    }

    #[test]
    fn unreachable_goal_returns_none() {
        let mut map = GridMap2D::new(16, 16, 1.0);
        for y in 0..16 {
            map.set_occupied(8, y, true);
        }
        let config = Pp2dConfig {
            start: (2, 8),
            goal: (14, 8),
            footprint: small_footprint(),
            weight: 1.0,
        };
        let mut profiler = Profiler::new();
        assert!(Pp2d::new(config)
            .plan(&map, &mut profiler, &mut NullTrace)
            .is_none());
    }

    #[test]
    fn start_in_collision_returns_none() {
        let mut map = GridMap2D::new(16, 16, 1.0);
        map.set_occupied(2, 8, true);
        let config = Pp2dConfig {
            start: (2, 8),
            goal: (14, 8),
            footprint: small_footprint(),
            weight: 1.0,
        };
        let mut profiler = Profiler::new();
        assert!(Pp2d::new(config)
            .plan(&map, &mut profiler, &mut NullTrace)
            .is_none());
    }

    #[test]
    fn car_footprint_needs_wider_gaps() {
        // A 1-cell gap passes a 0.8 m robot but not the 1.8 m-wide car.
        let mut map = GridMap2D::new(40, 40, 1.0);
        for y in 0..40usize {
            if y != 19 {
                map.set_occupied(20, y, true);
            }
        }
        let small = Pp2dConfig {
            start: (5, 19),
            goal: (35, 19),
            footprint: Footprint::new(0.8, 0.8),
            weight: 1.0,
        };
        let mut profiler = Profiler::new();
        assert!(Pp2d::new(small)
            .plan(&map, &mut profiler, &mut NullTrace)
            .is_some());
        let car = Pp2dConfig::car((5, 19), (35, 19));
        assert!(Pp2d::new(car)
            .plan(&map, &mut profiler, &mut NullTrace)
            .is_none());
    }

    #[test]
    fn collision_detection_dominates_profile_on_city_map() {
        // Counted, not timed, so load cannot flip it: the grid probes of
        // an expansion's footprint checks, against its one pop and one
        // record lookup and push per successor. This map reads 2,141,264
        // probes over 15,950 expansions, 134 per expansion; the floor of
        // 100 leaves a 25 % margin. EXP-T1 and `exp_pp2d` measure the
        // timed collision share itself.
        let map = maps::city_blocks(256, 1.0, 3);
        let config = Pp2dConfig::car((4, 1), (241, 241));
        let r = Pp2d::new(config)
            .plan(&map, &mut Profiler::new(), &mut NullTrace)
            .expect("city map should be traversable on streets");
        let per_expansion = r.cells_probed as f64 / r.expanded as f64;
        assert!(
            per_expansion > 100.0,
            "only {per_expansion} probes per expansion"
        );
    }

    #[test]
    fn weighted_search_expands_fewer_nodes() {
        let map = maps::city_blocks(128, 1.0, 3);
        let mut profiler = Profiler::new();
        let optimal = Pp2d::new(Pp2dConfig {
            weight: 1.0,
            ..Pp2dConfig::car((4, 1), (121, 121))
        })
        .plan(&map, &mut profiler, &mut NullTrace)
        .unwrap();
        let greedy = Pp2d::new(Pp2dConfig {
            weight: 3.0,
            ..Pp2dConfig::car((4, 1), (121, 121))
        })
        .plan(&map, &mut profiler, &mut NullTrace)
        .unwrap();
        assert!(greedy.expanded <= optimal.expanded);
        assert!(greedy.cost <= 3.0 * optimal.cost + 1e-9);
    }

    #[test]
    fn traced_plan_emits_cell_reads_and_open_list_writes() {
        let map = GridMap2D::new(64, 64, 1.0);
        let config = Pp2dConfig {
            start: (5, 5),
            goal: (60, 60),
            footprint: small_footprint(),
            weight: 1.0,
        };
        let mut profiler = Profiler::new();
        let mut rec = RecordingTrace::default();
        let r = Pp2d::new(config.clone())
            .plan(&map, &mut profiler, &mut rec)
            .unwrap();
        // One row-major cell-record read (addresses < 1 << 40) per
        // expansion, plus open-list and bookkeeping traffic on top.
        let cell_reads = rec
            .ops
            .iter()
            .filter(|op| !op.is_write && op.addr < (1 << 40))
            .count() as u64;
        assert_eq!(cell_reads, r.expanded);
        assert!(rec.writes() > 0, "open-list pushes are stores");
        // Tracing never changes the plan.
        let plain = Pp2d::new(config)
            .plan(&map, &mut profiler, &mut NullTrace)
            .unwrap();
        assert_eq!(plain.path, r.path);
        assert_eq!(plain.cost.to_bits(), r.cost.to_bits());
    }

    #[test]
    fn path_is_continuous() {
        // (1, 1) and (121, 121) are always street cells (coordinates ≡ 1
        // modulo the 8-cell block pitch of a 128-cell city).
        let map = maps::city_blocks(128, 1.0, 9);
        let config = Pp2dConfig::car((4, 1), (121, 121));
        let mut profiler = Profiler::new();
        let r = Pp2d::new(config)
            .plan(&map, &mut profiler, &mut NullTrace)
            .unwrap();
        for w in r.path.windows(2) {
            let dx = (w[1].0 as i64 - w[0].0 as i64).abs();
            let dy = (w[1].1 as i64 - w[0].1 as i64).abs();
            assert!(dx <= 1 && dy <= 1 && (dx + dy) > 0);
        }
    }
}
