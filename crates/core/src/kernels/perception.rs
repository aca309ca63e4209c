//! Perception-stage kernel adapters.

use rtr_geom::{maps, Point2, Point3, PointCloud, Pose2, RigidTransform};
use rtr_harness::{Args, OptionSpec, Profiler};
use rtr_perception::{
    EkfSlam, EkfSlamConfig, Icp, IcpConfig, IcpRun, ParticleFilter, PflConfig, PflInit,
};
use rtr_sim::{scene, DifferentialDrive, Lidar, OdometryModel, SimRng, SlamStep, SlamWorld};
use rtr_trace::MemTrace;

use super::{bad_value, report};
use crate::{Kernel, KernelError, KernelInstance, KernelReport, Stage, StepStatus, TraceSession};

/// Most particles `01.pfl` accepts: 2000x the default 500. The filter
/// keeps about 90 B per particle (pose, weight, score and resampling
/// slots): 95 MB peak RSS at the cap.
const MAX_PARTICLES: usize = 1_000_000;

/// `01.pfl`: particle-filter localization in the procedural indoor map.
#[derive(Debug, Clone, Copy, Default)]
pub struct PflKernel;

impl PflKernel {
    /// Drives the simulated robot through region `region` (0–4) of the
    /// indoor map, returning its sensor log. The five regions are the four
    /// room quadrants plus the center, mirroring the paper's "five
    /// different parts of the building".
    ///
    /// # Panics
    ///
    /// Panics if `region` is 5 or more.
    pub fn drive_region(
        map: &rtr_geom::GridMap2D,
        region: usize,
        seed: u64,
    ) -> Vec<rtr_sim::TrajectoryStep> {
        // Rooms sit on a 3.2 m pitch in the 256-cell (25.6 m) map; room
        // interiors are (k·3.2, k·3.2+3.2). Drive a loop inside a room of
        // the selected quadrant.
        let offsets = [
            (1.0, 1.0),
            (1.0 + 12.8, 1.0),
            (1.0, 1.0 + 12.8),
            (1.0 + 12.8, 1.0 + 12.8),
            (1.0 + 6.4, 1.0 + 6.4),
        ];
        let (ox, oy) = offsets[region];
        let lidar = Lidar::new(60, std::f64::consts::PI, 10.0, 0.02);
        let odo = OdometryModel::new(0.03, 0.02);
        let robot = DifferentialDrive::new(0.15, 1.5);
        let mut rng = SimRng::seed_from(seed);
        robot.drive(
            map,
            Pose2::new(ox, oy, 0.0),
            &[
                Point2::new(ox + 1.5, oy),
                Point2::new(ox + 1.5, oy + 1.5),
                Point2::new(ox, oy + 1.5),
            ],
            &lidar,
            &odo,
            120,
            &mut rng,
        )
    }
}

impl Kernel for PflKernel {
    fn name(&self) -> &'static str {
        "01.pfl"
    }

    fn stage(&self) -> Stage {
        Stage::Perception
    }

    fn table1_bottleneck(&self) -> &'static str {
        "Ray-casting"
    }

    fn cli_options(&self) -> Vec<OptionSpec> {
        let mut options = vec![
            OptionSpec {
                name: "particles",
                help: "Number of particles",
            },
            OptionSpec {
                name: "region",
                help: "Map region to localize in (0-4)",
            },
            OptionSpec {
                name: "beams",
                help: "Laser beams used per scan",
            },
            OptionSpec {
                name: "seed",
                help: "Random seed",
            },
            super::threads_option(),
        ];
        options.extend(super::trace_options());
        options
    }

    fn instantiate(&self, args: &Args) -> Result<Box<dyn KernelInstance>, KernelError> {
        let particles = args.get_count(
            "particles",
            500,
            MAX_PARTICLES,
            "a particle count of at most 1000000",
        )?;
        if particles == 0 {
            return Err(bad_value(
                "particles",
                particles,
                "a particle count of at least 1",
            ));
        }
        let region = args.get_count("region", 0, 4, "a map region from 0 to 4")?;
        let beam_stride = (60 / args.get_usize("beams", 60)?.clamp(1, 60)).max(1);
        let seed = args.get_u64("seed", 0)?;
        let threads = args.get_threads(0)?;

        let map = maps::indoor_floor_plan(256, 0.1, 7);
        let steps = Self::drive_region(&map, region, seed);
        let pf = ParticleFilter::with_owned_map(
            PflConfig {
                particles,
                seed,
                beam_stride,
                threads,
                init: PflInit::AroundPose {
                    pose: steps[0].true_pose,
                    pos_std: 0.8,
                    theta_std: 0.4,
                },
                ..Default::default()
            },
            map,
        );
        let initial_spread = pf.spread();
        Ok(Box::new(PflInstance {
            pf,
            steps,
            profiler: Profiler::timed(),
            initial_spread,
            index: 0,
        }))
    }
}

/// Stepped lifecycle state for `01.pfl`: each step consumes one lidar
/// scan (motion update, ray-casting measurement update, resampling).
struct PflInstance {
    pf: ParticleFilter<'static>,
    steps: Vec<rtr_sim::TrajectoryStep>,
    profiler: Profiler,
    initial_spread: f64,
    index: usize,
}

impl KernelInstance for PflInstance {
    fn step(&mut self, trace: &mut dyn MemTrace) -> Result<StepStatus, KernelError> {
        if self.index >= self.steps.len() {
            return Ok(StepStatus::Done);
        }
        self.pf.step_scan(
            self.index,
            &self.steps[self.index],
            &mut self.profiler,
            trace,
        );
        self.index += 1;
        Ok(if self.index < self.steps.len() {
            StepStatus::Running
        } else {
            StepStatus::Done
        })
    }

    fn finish(
        self: Box<Self>,
        roi_seconds: f64,
        session: TraceSession,
    ) -> Result<KernelReport, KernelError> {
        let result = self.pf.result(self.steps.last(), self.initial_spread);
        let metrics = vec![
            (
                "final error (m)".into(),
                format!("{:.3}", result.final_error.unwrap_or(f64::NAN)),
            ),
            (
                "spread (m)".into(),
                format!("{:.3} -> {:.3}", result.initial_spread, result.final_spread),
            ),
            ("rays cast".into(), result.rays_cast.to_string()),
            ("cells probed".into(), result.cells_probed.to_string()),
            ("resamples".into(), result.resamples.to_string()),
        ];
        Ok(report(
            "01.pfl",
            Stage::Perception,
            self.profiler,
            roi_seconds,
            metrics,
            session,
        ))
    }
}

/// Most drive steps `02.ekfslam` accepts: 333x the default 300. The
/// input log holds a 64 B step plus 24 B per observation, at most 21 MB
/// at the cap with the default six landmarks.
const MAX_SLAM_STEPS: usize = 100_000;

/// Most landmarks `02.ekfslam` accepts. The filter's covariance and its
/// update scratch are about five dense (3 + 2n)² matrices of `f64`:
/// 187 MB peak RSS at the cap.
const MAX_LANDMARKS: usize = 1_000;

/// `02.ekfslam`: EKF-SLAM on the six-landmark demo world.
#[derive(Debug, Clone, Copy, Default)]
pub struct EkfSlamKernel;

impl Kernel for EkfSlamKernel {
    fn name(&self) -> &'static str {
        "02.ekfslam"
    }

    fn stage(&self) -> Stage {
        Stage::Perception
    }

    fn table1_bottleneck(&self) -> &'static str {
        "Matrix operations"
    }

    fn cli_options(&self) -> Vec<OptionSpec> {
        let mut options = vec![
            OptionSpec {
                name: "steps",
                help: "Drive steps around the landmark loop",
            },
            OptionSpec {
                name: "landmarks",
                help: "Number of landmarks (6 = paper setting)",
            },
            OptionSpec {
                name: "seed",
                help: "Random seed",
            },
        ];
        options.extend(super::trace_options());
        options
    }

    fn instantiate(&self, args: &Args) -> Result<Box<dyn KernelInstance>, KernelError> {
        let steps = args.get_count(
            "steps",
            300,
            MAX_SLAM_STEPS,
            "a step count of at most 100000",
        )?;
        let n_landmarks = args.get_count(
            "landmarks",
            6,
            MAX_LANDMARKS,
            "a landmark count of at most 1000",
        )?;
        let seed = args.get_u64("seed", 0)?;

        let world = if n_landmarks == 6 {
            SlamWorld::six_landmark_demo()
        } else {
            // Spread extra landmarks around the same loop.
            let landmarks = (0..n_landmarks)
                .map(|i| {
                    let a = i as f64 / n_landmarks as f64 * std::f64::consts::TAU;
                    Point2::new(10.0 + 6.0 * a.cos(), 6.0 + 5.0 * a.sin())
                })
                .collect();
            SlamWorld::new(landmarks, 12.0, 0.1, 0.02)
        };
        let mut rng = SimRng::seed_from(seed);
        let log = world.simulate_circuit(steps, &mut rng);
        let ekf = EkfSlam::new(EkfSlamConfig {
            max_landmarks: n_landmarks,
            ..Default::default()
        });
        let true_landmarks = world.landmarks().to_vec();
        Ok(Box::new(EkfSlamInstance {
            ekf,
            log,
            true_landmarks,
            profiler: Profiler::timed(),
            pose_error_sum: 0.0,
            index: 0,
        }))
    }
}

/// Stepped lifecycle state for `02.ekfslam`: each step runs one EKF
/// predict/update cycle over one drive step's observations.
struct EkfSlamInstance {
    ekf: EkfSlam,
    log: Vec<SlamStep>,
    true_landmarks: Vec<Point2>,
    profiler: Profiler,
    pose_error_sum: f64,
    index: usize,
}

impl KernelInstance for EkfSlamInstance {
    fn step(&mut self, trace: &mut dyn MemTrace) -> Result<StepStatus, KernelError> {
        if self.index >= self.log.len() {
            return Ok(StepStatus::Done);
        }
        self.pose_error_sum +=
            self.ekf
                .process_step(&self.log[self.index], &mut self.profiler, trace);
        self.index += 1;
        Ok(if self.index < self.log.len() {
            StepStatus::Running
        } else {
            StepStatus::Done
        })
    }

    fn finish(
        self: Box<Self>,
        roi_seconds: f64,
        session: TraceSession,
    ) -> Result<KernelReport, KernelError> {
        let result = self
            .ekf
            .result(Some(&self.true_landmarks), self.pose_error_sum, self.index);
        Ok(report(
            "02.ekfslam",
            Stage::Perception,
            self.profiler,
            roi_seconds,
            vec![
                (
                    "landmark RMSE (m)".into(),
                    format!("{:.3}", result.landmark_rmse.unwrap_or(f64::NAN)),
                ),
                (
                    "mean pose error (m)".into(),
                    format!("{:.3}", result.mean_pose_error.unwrap_or(f64::NAN)),
                ),
                ("EKF updates".into(), result.updates.to_string()),
                (
                    "cov trace".into(),
                    format!("{:.4}", result.covariance_trace),
                ),
            ],
            session,
        ))
    }
}

/// Most scene points `03.srec` accepts: 250x the default 40 000. The
/// scene, both scans, the k-d tree and the ICP scratch take about 125 B
/// per point: 1.3 GB peak RSS at the cap.
const MAX_POINTS: usize = 10_000_000;

/// `03.srec`: ICP alignment of two synthetic living-room scans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SrecKernel;

impl Kernel for SrecKernel {
    fn name(&self) -> &'static str {
        "03.srec"
    }

    fn stage(&self) -> Stage {
        Stage::Perception
    }

    fn table1_bottleneck(&self) -> &'static str {
        "Point cloud operations, matrix operations"
    }

    fn cli_options(&self) -> Vec<OptionSpec> {
        let mut options = vec![
            OptionSpec {
                name: "points",
                help: "Scene point-cloud size",
            },
            OptionSpec {
                name: "iterations",
                help: "Maximum ICP iterations",
            },
            OptionSpec {
                name: "seed",
                help: "Random seed",
            },
            super::threads_option(),
        ];
        options.extend(super::trace_options());
        options
    }

    fn instantiate(&self, args: &Args) -> Result<Box<dyn KernelInstance>, KernelError> {
        let points = args.get_count(
            "points",
            40_000,
            MAX_POINTS,
            "a point count of at most 10000000",
        )?;
        let iterations = args.get_usize("iterations", 30)?;
        let seed = args.get_u64("seed", 6)?;
        let threads = args.get_threads(0)?;

        let mut rng = SimRng::seed_from(seed);
        let room = scene::living_room(points, &mut rng);
        let motion = RigidTransform::from_yaw_translation(0.04, Point3::new(0.06, -0.04, 0.01));
        let scan1 = scene::scan_from(&room, &RigidTransform::identity(), 0.5, 0.002, &mut rng);
        let scan2 = scene::scan_from(&room, &motion, 0.5, 0.002, &mut rng);
        if scan1.is_empty() || scan2.is_empty() {
            return Err(bad_value(
                "points",
                points,
                "a point count that leaves both scans non-empty",
            ));
        }

        let mut profiler = Profiler::timed();
        let mut icp = Icp::new(IcpConfig {
            max_iterations: iterations,
            threads,
        });
        let run = icp.begin(&scan2, &scan1, &mut profiler);
        Ok(Box::new(SrecInstance {
            icp,
            run,
            scan1,
            scan2,
            profiler,
        }))
    }
}

/// Stepped lifecycle state for `03.srec`: each step is one ICP iteration
/// (correspondence search + Horn transform update). The target k-d tree
/// is built at instantiation, before the region of interest.
struct SrecInstance {
    icp: Icp,
    run: IcpRun,
    /// Target scan (the tree's source).
    scan1: PointCloud,
    /// Source scan aligned onto the target.
    scan2: PointCloud,
    profiler: Profiler,
}

impl KernelInstance for SrecInstance {
    fn step(&mut self, trace: &mut dyn MemTrace) -> Result<StepStatus, KernelError> {
        let more = self.icp.iterate(
            &mut self.run,
            &self.scan2,
            &self.scan1,
            &mut self.profiler,
            trace,
        );
        Ok(if more {
            StepStatus::Running
        } else {
            StepStatus::Done
        })
    }

    fn finish(
        mut self: Box<Self>,
        roi_seconds: f64,
        session: TraceSession,
    ) -> Result<KernelReport, KernelError> {
        let result = self.icp.finish_run(&mut self.run, &self.scan2);
        let metrics = vec![
            (
                "error before (m)".into(),
                format!("{:.4}", result.error_before),
            ),
            (
                "error after (m)".into(),
                format!("{:.4}", result.error_after),
            ),
            ("iterations".into(), result.iterations.to_string()),
            ("NN queries".into(), result.nn_queries.to_string()),
        ];
        Ok(report(
            "03.srec",
            Stage::Perception,
            self.profiler,
            roi_seconds,
            metrics,
            session,
        ))
    }
}
