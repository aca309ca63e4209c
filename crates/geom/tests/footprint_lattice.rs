//! The precomputed footprint lattice against the per-pose probe loop it
//! replaced: same verdict, same cells, same order, for random
//! footprints, resolutions, headings and poses (some poking outside the
//! map) on random occupancy grids.

use proptest::prelude::*;
use rtr_geom::{Footprint, GridMap2D, Point2, Pose2};

/// The per-pose loop: every probe rebuilds its lattice point, rotates it
/// through `Pose2::transform_point` and floors with `f64::floor`.
fn reference_collides_with(
    footprint: &Footprint,
    map: &GridMap2D,
    pose: &Pose2,
    mut visit: impl FnMut(i64, i64),
) -> bool {
    let res = map.resolution();
    let (length, width) = (footprint.length(), footprint.width());
    let steps_l = (length / res).ceil().max(1.0) as usize + 1;
    let steps_w = (width / res).ceil().max(1.0) as usize + 1;
    let hl = length * 0.5;
    let hw = width * 0.5;
    for i in 0..steps_l {
        let lx = -hl + length * i as f64 / (steps_l - 1).max(1) as f64;
        for j in 0..steps_w {
            let ly = -hw + width * j as f64 / (steps_w - 1).max(1) as f64;
            let world = pose.transform_point(Point2::new(lx, ly));
            let ix = (world.x / res).floor() as i64;
            let iy = (world.y / res).floor() as i64;
            visit(ix, iy);
            if map.is_occupied(ix, iy) {
                return true;
            }
        }
    }
    false
}

/// A `side`-cell square grid with about `percent` % of its cells
/// occupied, drawn from `seed`.
fn random_map(side: usize, res: f64, percent: u64, seed: u64) -> GridMap2D {
    let mut map = GridMap2D::new(side, side, res);
    let mut state = seed;
    for y in 0..side {
        for x in 0..side {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if (state >> 33) % 100 < percent {
                map.set_occupied(x, y, true);
            }
        }
    }
    map
}

/// Verdict and probe sequence of one check.
fn probes(check: impl FnOnce(&mut dyn FnMut(i64, i64)) -> bool) -> (bool, Vec<(i64, i64)>) {
    let mut cells = Vec::new();
    let hit = check(&mut |ix, iy| cells.push((ix, iy)));
    (hit, cells)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lattice_probes_the_cells_of_the_per_pose_loop(
        side in 4usize..40,
        res in 0.05..2.0f64,
        percent in 0u64..25,
        seed in 0u64..u64::MAX,
        length in 0.01..8.0f64,
        width in 0.01..4.0f64,
        heading in -12.0..12.0f64,
        // Fractions of the map's extent; below 0 or above 1 pokes outside.
        fx in -0.2..1.2f64,
        fy in -0.2..1.2f64,
    ) {
        let map = random_map(side, res, percent, seed);
        let footprint = Footprint::new(length, width);
        let extent = side as f64 * res;
        let (x, y) = (fx * extent, fy * extent);
        let pose = Pose2::new(x, y, heading);

        let want = probes(|v| reference_collides_with(&footprint, &map, &pose, v));
        let per_pose = probes(|v| footprint.collides_with(&map, &pose, v));
        let lattice = footprint.lattice(res, heading);
        let precomputed = probes(|v| lattice.collides_with(&map, x, y, v));
        prop_assert_eq!(&per_pose, &want);
        prop_assert_eq!(&precomputed, &want);
    }

    #[test]
    fn move_headings_probe_the_cells_of_the_per_pose_loop(
        move_index in 0usize..8,
        cx in -3i64..40,
        cy in -3i64..40,
        percent in 0u64..25,
        seed in 0u64..u64::MAX,
    ) {
        // The grid planner's case: cell centres, the eight move headings
        // from `atan2`, the 4.8 m x 1.8 m car on 0.5 m and 1 m cells.
        let (dx, dy) = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]
            [move_index];
        let heading = f64::from(dy).atan2(f64::from(dx));
        let car = Footprint::new(4.8, 1.8);
        for res in [0.5, 1.0] {
            let map = random_map(36, res, percent, seed);
            let (x, y) = ((cx as f64 + 0.5) * res, (cy as f64 + 0.5) * res);
            let pose = Pose2::new(x, y, heading);
            let want = probes(|v| reference_collides_with(&car, &map, &pose, v));
            let lattice = car.lattice(res, heading);
            prop_assert_eq!(probes(|v| lattice.collides_with(&map, x, y, v)), want);
        }
    }
}
