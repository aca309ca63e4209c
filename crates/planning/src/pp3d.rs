//! `05.pp3d` — 3D path planning for a UAV.
//!
//! Same structure as `04.pp2d` with a third dimension: A* over a
//! 26-connected 3D occupancy grid. "We assume the UAV is small and fits in
//! one resolution unit", so collision detection is a single-cell probe and
//! the irregular graph search itself becomes a co-equal bottleneck — the
//! paper highlights "tremendous serialization in both intra-node ... and
//! inter-node" computation and shows a VLDP prefetcher recovering about a
//! third of the data misses, which the traced variant reproduces.

use std::cell::Cell;

use rtr_geom::GridMap3D;
use rtr_harness::{HotRegion, Profiler};
use rtr_trace::MemTrace;

use crate::search::{weighted_astar, SearchSpace};

/// Configuration for [`Pp3d`].
#[derive(Debug, Clone)]
pub struct Pp3dConfig {
    /// Start cell.
    pub start: (usize, usize, usize),
    /// Goal cell.
    pub goal: (usize, usize, usize),
    /// Heuristic inflation (1.0 = optimal A*).
    pub weight: f64,
}

/// Result of a 3D planning run.
#[derive(Debug, Clone)]
pub struct Pp3dResult {
    /// Cell path from start to goal.
    pub path: Vec<(usize, usize, usize)>,
    /// Path cost in meters.
    pub cost: f64,
    /// Nodes expanded by the search.
    pub expanded: u64,
    /// Successor edges generated.
    pub generated: u64,
    /// Single-cell collision probes performed.
    pub collision_checks: u64,
}

struct UavSpace<'a> {
    map: &'a GridMap3D,
    goal: (i64, i64, i64),
    collision: HotRegion,
    collision_checks: Cell<u64>,
}

impl SearchSpace for UavSpace<'_> {
    type Node = (i64, i64, i64);

    fn successors(&self, node: (i64, i64, i64), out: &mut Vec<((i64, i64, i64), f64)>) {
        let res = self.map.resolution();
        let start = self.collision.start();
        let mut checks = 0u64;
        for dz in -1i64..=1 {
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let next = (node.0 + dx, node.1 + dy, node.2 + dz);
                    checks += 1;
                    if self.map.is_free(next.0, next.1, next.2) {
                        let step = ((dx * dx + dy * dy + dz * dz) as f64).sqrt() * res;
                        out.push((next, step));
                    }
                }
            }
        }
        self.collision.add(start);
        self.collision_checks
            .set(self.collision_checks.get() + checks);
    }

    fn heuristic(&self, node: (i64, i64, i64)) -> f64 {
        let dx = (self.goal.0 - node.0) as f64;
        let dy = (self.goal.1 - node.1) as f64;
        let dz = (self.goal.2 - node.2) as f64;
        (dx * dx + dy * dy + dz * dz).sqrt() * self.map.resolution()
    }

    fn is_goal(&self, node: (i64, i64, i64)) -> bool {
        node == self.goal
    }
}

/// The 3D path-planning kernel.
///
/// # Example
///
/// ```
/// use rtr_planning::{Pp3d, Pp3dConfig};
/// use rtr_geom::GridMap3D;
/// use rtr_harness::Profiler;
///
/// let map = GridMap3D::new(16, 16, 8, 1.0);
/// let config = Pp3dConfig { start: (1, 1, 1), goal: (14, 14, 6), weight: 1.0 };
/// let mut profiler = Profiler::new();
/// let result = Pp3d::new(config)
///     .plan(&map, &mut profiler, &mut rtr_trace::NullTrace)
///     .unwrap();
/// assert_eq!(*result.path.last().unwrap(), (14, 14, 6));
/// ```
#[derive(Debug, Clone)]
pub struct Pp3d {
    config: Pp3dConfig,
}

impl Pp3d {
    /// Creates the kernel.
    pub fn new(config: Pp3dConfig) -> Self {
        Pp3d { config }
    }

    /// Plans a path on `map`; `None` when unreachable or an endpoint is
    /// occupied.
    ///
    /// Profiler regions: `collision_detection` and `graph_search`. The
    /// search replays its open-list operations and each expansion's node
    /// record (16 B in a node arena keyed by cell index) into `trace` —
    /// the irregular pattern VLDP partially covers. Pass
    /// [`rtr_trace::NullTrace`] for an untraced run.
    pub fn plan<T: MemTrace + ?Sized>(
        &self,
        map: &GridMap3D,
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> Option<Pp3dResult> {
        let start = (
            self.config.start.0 as i64,
            self.config.start.1 as i64,
            self.config.start.2 as i64,
        );
        let goal = (
            self.config.goal.0 as i64,
            self.config.goal.1 as i64,
            self.config.goal.2 as i64,
        );
        if map.is_occupied(start.0, start.1, start.2) || map.is_occupied(goal.0, goal.1, goal.2) {
            return None;
        }
        let space = UavSpace {
            map,
            goal,
            collision: HotRegion::timed(profiler.hot_timing()),
            collision_checks: Cell::new(0),
        };

        let (w, h) = (map.width() as u64, map.height() as u64);
        let (result, total) = profiler.span(|| {
            weighted_astar(&space, start, self.config.weight, trace, &mut |n| {
                let cell_index =
                    (n.2.max(0) as u64 * h + n.1.max(0) as u64) * w + n.0.max(0) as u64;
                cell_index * 16
            })
        });
        let collision = space.collision.total();
        space.collision.drain_into(profiler, "collision_detection");
        profiler.add("graph_search", total.saturating_sub(collision));

        result.map(|r| Pp3dResult {
            path: r
                .path
                .iter()
                .map(|&(x, y, z)| (x as usize, y as usize, z as usize))
                .collect(),
            cost: r.cost,
            expanded: r.expanded,
            generated: r.generated,
            collision_checks: space.collision_checks.get(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_geom::maps;
    use rtr_trace::{CountingTrace, NullTrace};

    #[test]
    fn straight_flight_in_open_space() {
        let map = GridMap3D::new(32, 32, 8, 1.0);
        let config = Pp3dConfig {
            start: (2, 16, 4),
            goal: (29, 16, 4),
            weight: 1.0,
        };
        let mut profiler = Profiler::new();
        let r = Pp3d::new(config)
            .plan(&map, &mut profiler, &mut NullTrace)
            .unwrap();
        assert!((r.cost - 27.0).abs() < 1e-9);
    }

    #[test]
    fn flies_over_a_wall() {
        let mut map = GridMap3D::new(32, 32, 8, 1.0);
        // A wall spanning full y and z up to 5.
        for y in 0..32 {
            for z in 0..6 {
                map.set_occupied(16, y, z, true);
            }
        }
        let config = Pp3dConfig {
            start: (2, 16, 1),
            goal: (29, 16, 1),
            weight: 1.0,
        };
        let mut profiler = Profiler::new();
        let r = Pp3d::new(config)
            .plan(&map, &mut profiler, &mut NullTrace)
            .unwrap();
        // Must climb to z >= 6 somewhere.
        assert!(r.path.iter().any(|&(_, _, z)| z >= 6));
    }

    #[test]
    fn campus_map_is_flyable() {
        let map = maps::campus_3d(64, 64, 16, 1.0, 11);
        let config = Pp3dConfig {
            start: (1, 1, 10),
            goal: (62, 62, 10),
            weight: 1.0,
        };
        let mut profiler = Profiler::new();
        let r = Pp3d::new(config).plan(&map, &mut profiler, &mut NullTrace);
        assert!(r.is_some(), "campus airspace should be traversable");
        let r = r.unwrap();
        assert!(r.collision_checks > r.expanded, "26 checks per expansion");
    }

    #[test]
    fn diagonal_moves_cost_more() {
        let map = GridMap3D::new(8, 8, 8, 2.0);
        let config = Pp3dConfig {
            start: (1, 1, 1),
            goal: (2, 2, 2),
            weight: 1.0,
        };
        let mut profiler = Profiler::new();
        let r = Pp3d::new(config)
            .plan(&map, &mut profiler, &mut NullTrace)
            .unwrap();
        assert!((r.cost - 3.0f64.sqrt() * 2.0).abs() < 1e-9);
        assert_eq!(r.path.len(), 2);
    }

    #[test]
    fn occupied_endpoint_returns_none() {
        let mut map = GridMap3D::new(8, 8, 8, 1.0);
        map.set_occupied(1, 1, 1, true);
        let mut profiler = Profiler::new();
        assert!(Pp3d::new(Pp3dConfig {
            start: (1, 1, 1),
            goal: (6, 6, 6),
            weight: 1.0,
        })
        .plan(&map, &mut profiler, &mut NullTrace)
        .is_none());
    }

    #[test]
    fn traced_plan_is_bit_identical_and_emits() {
        // The VLDP miss-reduction finding itself now lives in the bench
        // crate's tracing tests, where the cache simulator may be named;
        // here we only check the emission contract.
        let map = maps::campus_3d(48, 48, 12, 1.0, 11);
        let config = Pp3dConfig {
            start: (1, 1, 8),
            goal: (46, 46, 8),
            weight: 1.0,
        };
        let mut profiler = Profiler::new();
        let mut counts = CountingTrace::default();
        let traced = Pp3d::new(config.clone())
            .plan(&map, &mut profiler, &mut counts)
            .unwrap();
        let plain = Pp3d::new(config)
            .plan(&map, &mut profiler, &mut NullTrace)
            .unwrap();
        assert_eq!(traced.path, plain.path);
        assert_eq!(traced.cost.to_bits(), plain.cost.to_bits());
        assert!(counts.reads > traced.expanded, "open list adds reads");
        assert!(counts.writes > 0);
    }

    #[test]
    fn path_continuity_in_3d() {
        let map = maps::campus_3d(48, 48, 12, 1.0, 5);
        let mut profiler = Profiler::new();
        let r = Pp3d::new(Pp3dConfig {
            start: (1, 1, 8),
            goal: (46, 46, 8),
            weight: 1.5,
        })
        .plan(&map, &mut profiler, &mut NullTrace)
        .unwrap();
        for w in r.path.windows(2) {
            let d = [
                (w[1].0 as i64 - w[0].0 as i64).abs(),
                (w[1].1 as i64 - w[0].1 as i64).abs(),
                (w[1].2 as i64 - w[0].2 as i64).abs(),
            ];
            assert!(d.iter().all(|&x| x <= 1));
            assert!(d.iter().any(|&x| x > 0));
        }
    }
}
