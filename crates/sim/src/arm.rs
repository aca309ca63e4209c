//! Planar n-DoF manipulator model.
//!
//! The arm-planning kernels (`07.prm` through `10.rrtpp`) plan in the
//! joint-angle space of a 5-DoF manipulator operating in the 50 cm × 50 cm
//! workspaces `Map-F`/`Map-C`. This module provides the forward kinematics
//! and the workspace collision check those planners call in their inner
//! loops.

use rtr_geom::{Aabb2, Point2};

/// A planar revolute-joint manipulator with `N` links.
///
/// Joint angles are relative: joint `i` rotates link `i` relative to link
/// `i−1` (joint 0 relative to the +x axis). Configurations are `[f64; N]`
/// arrays of radians, matching the k-d tree keys used by the planners.
///
/// # Example
///
/// ```
/// use rtr_sim::PlanarArm;
/// use rtr_geom::Point2;
///
/// // Two unit links, both joints at zero: arm lies along +x.
/// let arm = PlanarArm::<2>::new(Point2::new(0.0, 0.0), [1.0, 1.0]);
/// let ee = arm.end_effector(&[0.0, 0.0]);
/// assert!((ee.x - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PlanarArm<const N: usize> {
    base: Point2,
    link_lengths: [f64; N],
}

impl<const N: usize> PlanarArm<N> {
    /// Creates an arm anchored at `base` with the given link lengths.
    ///
    /// # Panics
    ///
    /// Panics if any link length is non-positive or non-finite.
    pub fn new(base: Point2, link_lengths: [f64; N]) -> Self {
        assert!(
            link_lengths.iter().all(|&l| l > 0.0 && l.is_finite()),
            "link lengths must be positive and finite"
        );
        PlanarArm { base, link_lengths }
    }

    /// Total reach (sum of link lengths).
    pub fn reach(&self) -> f64 {
        self.link_lengths.iter().sum()
    }

    /// Forward kinematics: the joint positions, base first, end-effector
    /// last (`N + 1` points).
    pub fn joint_positions(&self, config: &[f64; N]) -> [Point2; N] {
        let mut out = [Point2::ORIGIN; N];
        let mut pos = self.base;
        let mut heading = 0.0;
        for i in 0..N {
            heading += config[i];
            pos += Point2::new(heading.cos(), heading.sin()) * self.link_lengths[i];
            out[i] = pos;
        }
        out
    }

    /// End-effector position for a configuration.
    pub fn end_effector(&self, config: &[f64; N]) -> Point2 {
        self.joint_positions(config)[N - 1]
    }

    /// Returns `true` when the arm at `config` collides with any obstacle
    /// or leaves the square workspace `[0, side] × [0, side]`.
    ///
    /// Each link is tested as a segment against every obstacle box — the
    /// collision-detection bottleneck the paper measures at up to 62 % of
    /// `08.rrt`'s execution time.
    pub fn in_collision(&self, config: &[f64; N], obstacles: &[Aabb2], side: f64) -> bool {
        let workspace = Aabb2::new(Point2::ORIGIN, Point2::new(side, side));
        let mut prev = self.base;
        let mut heading = 0.0;
        for (&joint, &length) in config.iter().zip(self.link_lengths.iter()) {
            heading += joint;
            let next = prev + Point2::new(heading.cos(), heading.sin()) * length;
            if !workspace.contains(next) {
                return true;
            }
            for obstacle in obstacles {
                if obstacle.intersects_segment(prev, next) {
                    return true;
                }
            }
            prev = next;
        }
        false
    }

    /// Returns `true` when the straight-line joint-space motion from
    /// `from` to `to` stays collision-free, checked at `steps`
    /// interpolated configurations (inclusive of both ends).
    ///
    /// This is the *edge* collision check of the sampling-based planners.
    pub fn motion_free(
        &self,
        from: &[f64; N],
        to: &[f64; N],
        obstacles: &[Aabb2],
        side: f64,
        steps: usize,
    ) -> bool {
        let steps = steps.max(2);
        for s in 0..steps {
            let t = s as f64 / (steps - 1) as f64;
            let mut config = [0.0; N];
            for (d, value) in config.iter_mut().enumerate() {
                *value = from[d] + (to[d] - from[d]) * t;
            }
            if self.in_collision(&config, obstacles, side) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    fn centered_arm() -> PlanarArm<2> {
        PlanarArm::new(Point2::new(0.25, 0.25), [0.1, 0.1])
    }

    #[test]
    fn straight_arm_end_effector() {
        let arm = PlanarArm::<3>::new(Point2::ORIGIN, [1.0, 2.0, 3.0]);
        let ee = arm.end_effector(&[0.0, 0.0, 0.0]);
        assert!((ee.x - 6.0).abs() < 1e-12);
        assert!(ee.y.abs() < 1e-12);
        assert_eq!(arm.reach(), 6.0);
    }

    #[test]
    fn right_angle_elbow() {
        let arm = PlanarArm::<2>::new(Point2::ORIGIN, [1.0, 1.0]);
        let joints = arm.joint_positions(&[0.0, FRAC_PI_2]);
        assert!((joints[0].x - 1.0).abs() < 1e-12);
        assert!(joints[0].y.abs() < 1e-12);
        assert!((joints[1].x - 1.0).abs() < 1e-12);
        assert!((joints[1].y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relative_angles_accumulate() {
        let arm = PlanarArm::<2>::new(Point2::ORIGIN, [1.0, 1.0]);
        // First joint at 90°, second at 90° relative → second link points -x.
        let ee = arm.end_effector(&[FRAC_PI_2, FRAC_PI_2]);
        assert!((ee.x + 1.0).abs() < 1e-12);
        assert!((ee.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn free_workspace_no_collision() {
        let arm = centered_arm();
        assert!(!arm.in_collision(&[0.3, -0.5], &[], 0.5));
    }

    #[test]
    fn leaving_workspace_is_collision() {
        // Arm reach 0.2 from center 0.25: cannot leave the 0.5 box...
        let arm = centered_arm();
        assert!(!arm.in_collision(&[0.0, 0.0], &[], 0.5));
        // ...but a longer arm pointing +x pokes out.
        let long = PlanarArm::<2>::new(Point2::new(0.25, 0.25), [0.2, 0.2]);
        assert!(long.in_collision(&[0.0, 0.0], &[], 0.5));
    }

    #[test]
    fn obstacle_blocks_link() {
        let arm = centered_arm();
        // Box directly to the right of the base, in the first link's path.
        let obstacles = vec![Aabb2::new(Point2::new(0.30, 0.24), Point2::new(0.34, 0.26))];
        assert!(arm.in_collision(&[0.0, 0.0], &obstacles, 0.5));
        // Pointing up avoids it.
        assert!(!arm.in_collision(&[FRAC_PI_2, 0.0], &obstacles, 0.5));
    }

    #[test]
    fn motion_free_detects_mid_swing_collision() {
        let arm = centered_arm();
        // Obstacle at 45° between the two endpoint directions (0° and 90°).
        let obstacles = vec![Aabb2::new(Point2::new(0.36, 0.36), Point2::new(0.40, 0.40))];
        let from = [0.0, 0.0];
        let to = [FRAC_PI_2, 0.0];
        assert!(!arm.in_collision(&from, &obstacles, 0.5));
        assert!(!arm.in_collision(&to, &obstacles, 0.5));
        assert!(!arm.motion_free(&from, &to, &obstacles, 0.5, 32));
    }

    #[test]
    fn motion_free_in_open_space() {
        let arm = centered_arm();
        assert!(arm.motion_free(&[0.0, 0.0], &[1.0, -1.0], &[], 0.5, 16));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_link_length_panics() {
        let _ = PlanarArm::<1>::new(Point2::ORIGIN, [0.0]);
    }
}
