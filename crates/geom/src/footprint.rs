//! Oriented-rectangle robot footprints and grid collision detection.
//!
//! The paper identifies collision detection as the dominant bottleneck of
//! `04.pp2d` (> 65 % of execution time): the planner repeatedly checks
//! whether an oriented car-shaped rectangle overlaps any occupied cell.
//! The check "is fundamentally spatially-located: the occupancy grid cells
//! that are checked during a collision detection are nearby each other",
//! which this implementation preserves by sampling the footprint interior
//! on a resolution-matched lattice.

use crate::{normalize_angle, GridMap2D, Point2, Pose2};

/// A rectangular robot footprint (e.g. the paper's 4.8 m × 1.8 m car).
///
/// The rectangle is centered on the robot pose, with `length` along the
/// robot's heading and `width` across it.
///
/// # Example
///
/// ```
/// use rtr_geom::{Footprint, GridMap2D, Pose2};
///
/// let map = GridMap2D::new(100, 100, 0.5);
/// let car = Footprint::new(4.8, 1.8);
/// assert!(!car.collides(&map, &Pose2::new(25.0, 25.0, 0.3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Footprint {
    length: f64,
    width: f64,
}

impl Footprint {
    /// Creates a footprint with the given metric dimensions.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are strictly positive and finite.
    pub fn new(length: f64, width: f64) -> Self {
        assert!(
            length > 0.0 && length.is_finite() && width > 0.0 && width.is_finite(),
            "footprint dimensions must be positive and finite"
        );
        Footprint { length, width }
    }

    /// A point footprint (fits within a single cell), used for the UAV of
    /// `05.pp3d` ("we assume the UAV is small and fits in one resolution
    /// unit").
    pub fn point() -> Self {
        Footprint {
            length: f64::MIN_POSITIVE,
            width: f64::MIN_POSITIVE,
        }
    }

    /// Footprint length (along heading).
    #[inline]
    pub fn length(&self) -> f64 {
        self.length
    }

    /// Footprint width (across heading).
    #[inline]
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Returns `true` when the footprint at `pose` overlaps any occupied
    /// cell of `map` (or pokes outside the map).
    ///
    /// Equivalent to [`Footprint::collides_with`] with an empty visitor.
    pub fn collides(&self, map: &GridMap2D, pose: &Pose2) -> bool {
        self.collides_with(map, pose, |_, _| {})
    }

    /// Collision check that reports every probed cell to `visit`, for the
    /// cache-characterization harness.
    ///
    /// The interior of the rectangle is sampled on a lattice with spacing
    /// one grid resolution, guaranteeing no occupied cell strictly inside
    /// the footprint is missed (cells are at least as large as the sample
    /// spacing). This is [`FootprintLattice::collides_with`] on the
    /// lattice at `pose.theta`, rotated on the fly instead of stored.
    pub fn collides_with(
        &self,
        map: &GridMap2D,
        pose: &Pose2,
        visit: impl FnMut(i64, i64),
    ) -> bool {
        probe(
            map,
            pose.x,
            pose.y,
            self.offsets(map.resolution(), pose.theta),
            visit,
        )
    }

    /// The sample lattice rotated to `heading`, for callers that check
    /// many positions at a few headings (a grid planner's moves). Checking
    /// it at `(x, y)` probes exactly the cells, in exactly the order, that
    /// [`Footprint::collides_with`] probes at `Pose2::new(x, y, heading)`
    /// on a map of resolution `res`.
    pub fn lattice(&self, res: f64, heading: f64) -> FootprintLattice {
        FootprintLattice {
            offsets: self.offsets(res, normalize_angle(heading)).collect(),
        }
    }

    /// The lattice sample points rotated by `theta`, in probe order: the
    /// length index outer, the width index inner.
    fn offsets(&self, res: f64, theta: f64) -> impl Iterator<Item = Point2> {
        let (steps_l, steps_w) = self.steps(res);
        let (length, width) = (self.length, self.width);
        let hl = length * 0.5;
        let hw = width * 0.5;
        // `Point2::rotated`'s expressions, with the sine and cosine taken once.
        let (s, c) = theta.sin_cos();
        (0..steps_l).flat_map(move |i| {
            let lx = -hl + length * i as f64 / (steps_l - 1).max(1) as f64;
            (0..steps_w).map(move |j| {
                let ly = -hw + width * j as f64 / (steps_w - 1).max(1) as f64;
                Point2::new(c * lx - s * ly, s * lx + c * ly)
            })
        })
    }

    /// Sample count along the length and the width, both edges included.
    fn steps(&self, res: f64) -> (usize, usize) {
        (
            (self.length / res).ceil().max(1.0) as usize + 1,
            (self.width / res).ceil().max(1.0) as usize + 1,
        )
    }
}

/// A [`Footprint`]'s sample lattice rotated to one heading (see
/// [`Footprint::lattice`]): the offset from the robot's position to each
/// probe point, in probe order.
#[derive(Debug, Clone, PartialEq)]
pub struct FootprintLattice {
    offsets: Vec<Point2>,
}

impl FootprintLattice {
    /// Collision check with the robot at `(x, y)`, reporting every probed
    /// cell to `visit`; see [`Footprint::collides_with`].
    pub fn collides_with(
        &self,
        map: &GridMap2D,
        x: f64,
        y: f64,
        visit: impl FnMut(i64, i64),
    ) -> bool {
        probe(map, x, y, self.offsets.iter().copied(), visit)
    }
}

/// Probes the cell under `(x, y) + offset` for each offset in turn,
/// stopping at the first occupied (or off-map) cell.
#[inline]
fn probe(
    map: &GridMap2D,
    x: f64,
    y: f64,
    offsets: impl IntoIterator<Item = Point2>,
    mut visit: impl FnMut(i64, i64),
) -> bool {
    let res = map.resolution();
    for offset in offsets {
        let ix = floor_i64((x + offset.x) / res);
        let iy = floor_i64((y + offset.y) / res);
        visit(ix, iy);
        if map.is_occupied(ix, iy) {
            return true;
        }
    }
    false
}

/// `x.floor() as i64` for every `f64` (NaN → 0, saturating at the `i64`
/// range), without calling `floor`: on the x86-64 baseline, which lacks
/// SSE4.1's `roundsd`, that is a branchy software routine. Inside the
/// `i64` range the truncation converts back to `f64` exactly, so it
/// exceeds `x` only for a negative non-integer, whose floor is one lower.
/// Below the range the cast saturates to `i64::MIN`, and so does the
/// subtraction.
#[inline]
fn floor_i64(x: f64) -> i64 {
    let t = x as i64;
    t.saturating_sub(i64::from(t as f64 > x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    fn open_map() -> GridMap2D {
        GridMap2D::new(100, 100, 0.5)
    }

    #[test]
    fn free_space_no_collision() {
        let map = open_map();
        let car = Footprint::new(4.8, 1.8);
        assert!(!car.collides(&map, &Pose2::new(25.0, 25.0, 0.0)));
        assert!(!car.collides(&map, &Pose2::new(25.0, 25.0, 1.1)));
    }

    #[test]
    fn collision_with_obstacle_under_center() {
        let mut map = open_map();
        map.set_occupied(50, 50, true); // world (25.0..25.5)²
        let car = Footprint::new(4.8, 1.8);
        assert!(car.collides(&map, &Pose2::new(25.25, 25.25, 0.0)));
    }

    #[test]
    fn collision_at_footprint_edge_only() {
        let mut map = open_map();
        // Obstacle ahead of the robot at ~2.2 m; car half-length is 2.4 m.
        map.set_occupied(54, 50, true); // x ∈ [27.0, 27.5)
        let car = Footprint::new(4.8, 1.8);
        assert!(car.collides(&map, &Pose2::new(25.0, 25.25, 0.0)));
        // Turned sideways, the half-width 0.9 m no longer reaches it.
        assert!(!car.collides(&map, &Pose2::new(25.0, 25.25, FRAC_PI_2)));
    }

    #[test]
    fn rotation_changes_collision_result() {
        let mut map = open_map();
        // Obstacles left and right of the robot at ±1.5 m.
        map.set_occupied(53, 50, true);
        map.set_occupied(46, 50, true);
        let long_thin = Footprint::new(4.0, 0.5);
        let across = Pose2::new(25.0, 25.25, 0.0); // length spans obstacles
        let along = Pose2::new(25.0, 25.25, FRAC_PI_2);
        assert!(long_thin.collides(&map, &across));
        assert!(!long_thin.collides(&map, &along));
    }

    #[test]
    fn outside_map_collides() {
        let map = open_map();
        let car = Footprint::new(4.8, 1.8);
        assert!(car.collides(&map, &Pose2::new(0.5, 25.0, 0.0)));
        assert!(car.collides(&map, &Pose2::new(-10.0, -10.0, 0.0)));
    }

    #[test]
    fn point_footprint_checks_single_cell() {
        let mut map = open_map();
        map.set_occupied(10, 10, true);
        let p = Footprint::point();
        assert!(p.collides(&map, &Pose2::new(5.25, 5.25, 0.0)));
        assert!(!p.collides(&map, &Pose2::new(5.75, 5.25, 0.0)));
        assert_eq!(p.steps(map.resolution()), (2, 2)); // 2x2 lattice of identical cells
    }

    #[test]
    fn visitor_cells_are_spatially_local() {
        // The paper's premise: probed cells are near each other.
        let map = open_map();
        let car = Footprint::new(4.8, 1.8);
        let mut min_x = i64::MAX;
        let mut max_x = i64::MIN;
        car.collides_with(&map, &Pose2::new(25.0, 25.0, 0.3), |ix, _| {
            min_x = min_x.min(ix);
            max_x = max_x.max(ix);
        });
        // All probes fall within the footprint's extent (≤ ~5 m / 0.5 m).
        assert!((max_x - min_x) as f64 <= 5.0 / map.resolution() + 2.0);
    }

    #[test]
    fn floor_i64_matches_floor_cast_on_edge_values() {
        let two52 = 2f64.powi(52);
        let two63 = 2f64.powi(63);
        let edges = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            -1.5,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            two52 + 0.5,
            two52 - 0.5,
            -two52 + 0.5,
            -two52 - 0.5,
            two63,
            -two63,
            two63 * 2.0,
            -two63 * 2.0,
            f64::MAX,
            f64::MIN,
        ];
        for x in edges {
            assert_eq!(floor_i64(x), x.floor() as i64, "x = {x:e}");
        }
    }

    #[test]
    fn floor_i64_matches_floor_cast_on_random_bit_patterns() {
        // splitmix64: every exponent and sign, NaN payloads included.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..1_000_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let x = f64::from_bits(z ^ (z >> 31));
            assert_eq!(floor_i64(x), x.floor() as i64, "bits {:016x}", x.to_bits());
            // The same magnitudes near the probes' range: |x| < 2^12.
            let near = x % 4096.0;
            assert_eq!(floor_i64(near), near.floor() as i64, "x = {near:e}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_dimensions_panic() {
        let _ = Footprint::new(0.0, 1.0);
    }
}
