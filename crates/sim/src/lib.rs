//! Robot and sensor simulation substrate for RTRBench-rs.
//!
//! The paper's kernels consume data from physical robots and external
//! simulators: Wean Hall laser/odometry logs (`01.pfl`), range-bearing
//! landmark sensors (`02.ekfslam`), RGB-D camera scans (`03.srec`), a
//! wheeled-robot demonstration (`13.dmp`) and the V-REP simulator
//! (`15.cem`, `16.bo`). None of those artifacts ship with the paper, so
//! this crate implements the closest synthetic equivalents that exercise
//! the same code paths:
//!
//! - [`SimRng`] — deterministic random numbers + Gaussian sampling.
//! - [`Lidar`] — a ray-casting laser rangefinder with Gaussian noise.
//! - [`OdometryModel`] — noisy relative motion readings.
//! - [`DifferentialDrive`] — a waypoint-following robot producing
//!   ground-truth poses, odometry and scans.
//! - [`PlanarArm`] — an n-DoF planar manipulator with forward kinematics
//!   and workspace collision checks.
//! - [`ThrowSim`] — ball-throwing physics for the reinforcement-learning
//!   kernels (the V-REP stand-in).
//! - [`SlamWorld`] — a landmark world generating range-bearing
//!   measurement sequences.
//! - [`scene`] — synthetic room scan generation for ICP.
//!
//! # Example
//!
//! ```
//! use rtr_sim::{Lidar, SimRng};
//! use rtr_geom::{maps, Pose2};
//!
//! let map = maps::indoor_floor_plan(128, 0.1, 7);
//! let lidar = Lidar::new(90, std::f64::consts::PI, 10.0, 0.02);
//! let mut rng = SimRng::seed_from(1);
//! let scan = lidar.scan(&map, &Pose2::new(6.4, 6.4, 0.0), &mut rng);
//! assert_eq!(scan.len(), 90);
//! ```

mod arm;
mod lidar;
mod odometry;
mod rng;
mod robot;
pub mod scene;
mod slam_world;
mod throw;

pub use arm::PlanarArm;
pub use lidar::{Lidar, LidarScan};
pub use odometry::{OdometryModel, OdometryReading};
pub use rng::SimRng;
pub use robot::{DifferentialDrive, TrajectoryStep};
pub use slam_world::{RangeBearing, SlamStep, SlamWorld};
pub use throw::{ThrowParams, ThrowSim};
