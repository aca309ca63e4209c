//! A waypoint-following differential-drive robot.
//!
//! Drives a ground-truth trajectory through a map and emits, per step, the
//! noisy odometry and lidar data a real platform would log — the stand-in
//! for the Wean Hall dataset that `01.pfl` replays.

use rtr_geom::{normalize_angle, GridMap2D, Point2, Pose2};

use crate::{Lidar, LidarScan, OdometryModel, OdometryReading, SimRng};

/// One step of a simulated drive: where the robot really was, what the
/// encoders said, and what the laser saw.
#[derive(Debug, Clone)]
pub struct TrajectoryStep {
    /// Ground-truth pose (not available to the localization kernel; used
    /// only to score its estimate).
    pub true_pose: Pose2,
    /// Odometry reading for the motion *into* this pose (zero for the first
    /// step).
    pub odometry: OdometryReading,
    /// Lidar scan captured at this pose.
    pub scan: LidarScan,
}

/// A differential-drive robot that tracks a waypoint list.
///
/// Each [`DifferentialDrive::drive`] call advances with a fixed linear
/// speed and a proportional steering law, producing a realistic smooth
/// trajectory (rather than teleporting between waypoints).
///
/// # Example
///
/// ```
/// use rtr_sim::{DifferentialDrive, Lidar, OdometryModel, SimRng};
/// use rtr_geom::{maps, Point2, Pose2};
///
/// let map = maps::indoor_floor_plan(128, 0.1, 7);
/// let robot = DifferentialDrive::new(0.2, 1.5);
/// let lidar = Lidar::new(60, std::f64::consts::PI, 10.0, 0.01);
/// let odo = OdometryModel::new(0.02, 0.01);
/// let mut rng = SimRng::seed_from(3);
/// let steps = robot.drive(
///     &map,
///     Pose2::new(3.0, 3.0, 0.0),
///     &[Point2::new(5.0, 3.0)],
///     &lidar,
///     &odo,
///     200,
///     &mut rng,
/// );
/// assert!(!steps.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DifferentialDrive {
    /// Distance advanced per step (meters).
    step_size: f64,
    /// Proportional gain steering the heading toward the active waypoint.
    turn_gain: f64,
}

impl DifferentialDrive {
    /// Creates a robot with the given per-step travel and steering gain.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive and finite.
    pub fn new(step_size: f64, turn_gain: f64) -> Self {
        assert!(
            step_size > 0.0 && step_size.is_finite(),
            "step size must be positive"
        );
        assert!(
            turn_gain > 0.0 && turn_gain.is_finite(),
            "turn gain must be positive"
        );
        DifferentialDrive {
            step_size,
            turn_gain,
        }
    }

    /// Drives from `start` through `waypoints`, recording a step log.
    ///
    /// Stops after `max_steps` steps or once the last waypoint is within
    /// one step. Waypoints are considered reached within 2× the step size.
    /// The robot never checks collisions — callers supply waypoints in free
    /// space (the simulated building's corridors).
    #[allow(
        clippy::too_many_arguments,
        reason = "each input is an independent part of the drive: map, route, sensors, budget, noise stream"
    )]
    pub fn drive(
        &self,
        map: &GridMap2D,
        start: Pose2,
        waypoints: &[Point2],
        lidar: &Lidar,
        odometry: &OdometryModel,
        max_steps: usize,
        rng: &mut SimRng,
    ) -> Vec<TrajectoryStep> {
        let mut steps = Vec::new();
        let mut pose = start;
        steps.push(TrajectoryStep {
            true_pose: pose,
            odometry: OdometryReading::default(),
            scan: lidar.scan(map, &pose, rng),
        });

        let mut target_idx = 0usize;
        for _ in 0..max_steps {
            let Some(&target) = waypoints.get(target_idx) else {
                break;
            };
            let to_target = target - pose.position();
            if to_target.norm() < self.step_size * 2.0 {
                target_idx += 1;
                continue;
            }
            // Proportional steering toward the waypoint, capped per step.
            let desired = to_target.angle();
            let err = normalize_angle(desired - pose.theta);
            let dtheta = (self.turn_gain * err).clamp(-0.5, 0.5);
            // Slow down while turning hard, like a real diff drive.
            let advance = self.step_size * (1.0 - 0.8 * (dtheta.abs() / 0.5));
            let prev = pose;
            pose = pose.compose(advance, 0.0, dtheta);
            steps.push(TrajectoryStep {
                true_pose: pose,
                odometry: odometry.measure(&prev, &pose, rng),
                scan: lidar.scan(map, &pose, rng),
            });
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_map() -> GridMap2D {
        GridMap2D::new(200, 200, 0.1) // 20 m x 20 m free space
    }

    fn basic_setup() -> (Lidar, OdometryModel, SimRng) {
        (
            Lidar::new(10, 1.0, 10.0, 0.0),
            OdometryModel::ideal(),
            SimRng::seed_from(0),
        )
    }

    #[test]
    fn reaches_straight_ahead_waypoint() {
        let map = open_map();
        let (lidar, odo, mut rng) = basic_setup();
        let robot = DifferentialDrive::new(0.2, 1.5);
        let steps = robot.drive(
            &map,
            Pose2::new(5.0, 10.0, 0.0),
            &[Point2::new(10.0, 10.0)],
            &lidar,
            &odo,
            500,
            &mut rng,
        );
        let last = steps.last().unwrap().true_pose;
        assert!(last.position().distance(Point2::new(10.0, 10.0)) < 0.5);
    }

    #[test]
    fn turns_toward_offset_waypoint() {
        let map = open_map();
        let (lidar, odo, mut rng) = basic_setup();
        let robot = DifferentialDrive::new(0.2, 1.5);
        let steps = robot.drive(
            &map,
            Pose2::new(10.0, 10.0, 0.0),
            &[Point2::new(10.0, 15.0)],
            &lidar,
            &odo,
            500,
            &mut rng,
        );
        let last = steps.last().unwrap().true_pose;
        assert!(last.position().distance(Point2::new(10.0, 15.0)) < 0.5);
        // Robot ended up heading roughly +y.
        assert!((last.theta - std::f64::consts::FRAC_PI_2).abs() < 0.3);
    }

    #[test]
    fn visits_waypoints_in_order() {
        let map = open_map();
        let (lidar, odo, mut rng) = basic_setup();
        let robot = DifferentialDrive::new(0.25, 2.0);
        let wps = [
            Point2::new(12.0, 10.0),
            Point2::new(12.0, 14.0),
            Point2::new(8.0, 14.0),
        ];
        let steps = robot.drive(
            &map,
            Pose2::new(10.0, 10.0, 0.0),
            &wps,
            &lidar,
            &odo,
            2000,
            &mut rng,
        );
        let last = steps.last().unwrap().true_pose;
        assert!(last.position().distance(wps[2]) < 0.6, "ended at {last}");
    }

    #[test]
    fn first_step_has_zero_odometry() {
        let map = open_map();
        let (lidar, odo, mut rng) = basic_setup();
        let robot = DifferentialDrive::new(0.2, 1.0);
        let steps = robot.drive(
            &map,
            Pose2::new(5.0, 5.0, 0.0),
            &[Point2::new(6.0, 5.0)],
            &lidar,
            &odo,
            10,
            &mut rng,
        );
        assert_eq!(steps[0].odometry, OdometryReading::default());
        assert_eq!(steps[0].scan.len(), 10);
    }

    #[test]
    fn ideal_odometry_integrates_to_truth() {
        let map = open_map();
        let (lidar, odo, mut rng) = basic_setup();
        let robot = DifferentialDrive::new(0.2, 1.5);
        let steps = robot.drive(
            &map,
            Pose2::new(5.0, 10.0, 0.2),
            &[Point2::new(9.0, 12.0)],
            &lidar,
            &odo,
            500,
            &mut rng,
        );
        // Dead-reckon with the (noiseless) readings; must match truth.
        let mut pose = steps[0].true_pose;
        for step in &steps[1..] {
            pose = pose.compose(step.odometry.dx, step.odometry.dy, step.odometry.dtheta);
        }
        let truth = steps.last().unwrap().true_pose;
        assert!(pose.distance(&truth) < 1e-6);
    }

    #[test]
    fn max_steps_bounds_log_length() {
        let map = open_map();
        let (lidar, odo, mut rng) = basic_setup();
        let robot = DifferentialDrive::new(0.01, 1.0);
        let steps = robot.drive(
            &map,
            Pose2::new(5.0, 5.0, 0.0),
            &[Point2::new(15.0, 15.0)],
            &lidar,
            &odo,
            50,
            &mut rng,
        );
        assert!(steps.len() <= 51);
    }
}
