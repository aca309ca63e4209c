//! Closed-loop robotics scenario built from the suite's stepped kernels.
//!
//! The individual kernels benchmark one pipeline stage each; this crate
//! wires them into the full loop of the paper's Fig. 1 over the shared
//! `rtr-sim` world. Every control tick runs a fixed stage order:
//!
//! 1. **sense** — a lidar sweep ([`rtr_sim::Lidar`]) or landmark sightings
//!    ([`rtr_sim::SlamWorld`]) captured at the plant's true pose, plus a
//!    noisy odometry reading for the motion since the previous tick;
//! 2. **localize** — one per-scan increment of `01.pfl`
//!    ([`ParticleFilter::step_scan`]) or `02.ekfslam`
//!    ([`EkfSlam::process_step`]);
//! 3. **plan** — waypoint progress along the route that `04.pp2d` planned
//!    once at startup, and the goal-arrival check;
//! 4. **track** — one control tick of `14.mpc` ([`Mpc::tick`]), which is
//!    also the scenario's plant: the optimizer's first control moves the
//!    simulated car the sensors observe on the next tick.
//!
//! Steady-state ticks are allocation-free: every stage runs through the
//! persistent scratch the stepped kernel APIs maintain, and the growth
//! counters ([`ScenarioState::allocation_counters`]) plateau after
//! warmup. Per-stage latencies stream through the lock-free
//! [`rtr_trace::MetricPublisher`] channel to an off-thread collector for
//! p50/p99/p99.9 reporting.
//!
//! # Determinism
//!
//! A scenario replay is a pure function of its [`ScenarioConfig`] minus
//! the `threads` field: the only parallel stage is PFL ray casting,
//! which is bit-identical at every worker count, so
//! [`ScenarioReport::golden`] — poses and metrics rendered via
//! [`f64::to_bits`] plus an FNV-1a trajectory checksum, with every
//! wall-clock quantity excluded — compares byte-for-byte equal across
//! `--threads` settings. CI pins this with a golden-file smoke run.
//!
//! # Example
//!
//! ```
//! use rtr_scenario::{ScenarioConfig, ScenarioState};
//!
//! let config = ScenarioConfig {
//!     max_ticks: 40,
//!     particles: 60,
//!     ..Default::default()
//! };
//! let mut state = ScenarioState::begin(&config).unwrap();
//! while state.step() {}
//! let (report, _) = state.finish();
//! assert_eq!(report.ticks, 40);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

use rtr_control::{Mpc, MpcConfig, MpcResult, TrackRun};
use rtr_geom::{maps, Footprint, GridMap2D, Point2, Pose2};
use rtr_harness::{Profiler, RegionReport};
use rtr_perception::{EkfSlam, EkfSlamConfig, ParticleFilter, PflConfig, PflInit};
use rtr_planning::{Pp2d, Pp2dConfig};
use rtr_sim::{Lidar, OdometryModel, SimRng, SlamStep, SlamWorld, TrajectoryStep};
use rtr_trace::{MetricMap, MetricPublisher, NullTrace};

/// Occupancy-grid side length in cells (25.6 m at [`MAP_RESOLUTION`]).
const MAP_CELLS: usize = 256;
/// Grid resolution in meters per cell.
const MAP_RESOLUTION: f64 = 0.1;
/// Clearance (m) the route keeps from walls: the global plan runs on a
/// map inflated by this radius, so the MPC plant's small tracking error
/// never carries the robot into an obstacle.
const PLAN_CLEARANCE: f64 = 0.3;
/// Every `WAYPOINT_STRIDE`-th path cell becomes a reference waypoint
/// (0.5 m spacing at [`MAP_RESOLUTION`]).
const WAYPOINT_STRIDE: usize = 5;
/// A waypoint counts as passed inside this radius (m).
const WAYPOINT_REACH: f64 = 0.6;
/// The run ends when the true position is within this distance (m) of
/// the goal.
const GOAL_TOLERANCE: f64 = 1.0;
/// How far (in cells, Chebyshev rings) endpoint placement searches for a
/// footprint-free cell around the nominal corner.
const ENDPOINT_SEARCH_RADIUS: i64 = 40;

/// Which localization kernel closes the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalizerKind {
    /// `01.pfl` — particle filter against the occupancy grid.
    Pfl,
    /// `02.ekfslam` — EKF-SLAM against landmarks placed along the route.
    EkfSlam,
}

impl LocalizerKind {
    /// Short label used in reports and goldens.
    pub fn label(self) -> &'static str {
        match self {
            LocalizerKind::Pfl => "pfl",
            LocalizerKind::EkfSlam => "ekfslam",
        }
    }
}

impl std::str::FromStr for LocalizerKind {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "pfl" => Ok(LocalizerKind::Pfl),
            "ekfslam" | "ekf" => Ok(LocalizerKind::EkfSlam),
            _ => Err(()),
        }
    }
}

/// Scenario parameters. Everything except `threads` is part of the
/// deterministic replay identity (see the crate docs).
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Control-tick budget; the run also ends early at the goal.
    pub max_ticks: usize,
    /// Seed for the map generator and every noise source.
    pub seed: u64,
    /// Localization kernel in the loop.
    pub localizer: LocalizerKind,
    /// Particle count when `localizer` is [`LocalizerKind::Pfl`].
    pub particles: usize,
    /// Worker threads for PFL ray casting (0 = all hardware threads).
    /// Must not change any output — the determinism tests replay the
    /// scenario at several settings and require identical goldens.
    pub threads: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            max_ticks: 600,
            seed: 7,
            localizer: LocalizerKind::Pfl,
            particles: 300,
            threads: 1,
        }
    }
}

/// Why a scenario could not be assembled.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// No footprint-free cell near a nominal endpoint corner.
    BlockedEndpoint,
    /// `04.pp2d` found no route between the chosen endpoints.
    Unreachable,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::BlockedEndpoint => {
                write!(f, "no free cell near a scenario endpoint")
            }
            ScenarioError::Unreachable => {
                write!(f, "the planner found no route between the endpoints")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// One tick's ground truth and estimate, for offline scoring.
#[derive(Debug, Clone, Copy)]
pub struct TickRecord {
    /// Plant pose the sensors observed from.
    pub true_pose: Pose2,
    /// Localizer estimate after consuming that observation.
    pub estimate: Pose2,
    /// Position error of the estimate (m).
    pub position_error: f64,
}

/// Steady-state growth counters; all plateau after warmup, which the
/// allocation-regression tests pin by comparing short and long runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationCounters {
    /// Localizer scratch growths (PFL resample buffers or the EKF
    /// workspace pool).
    pub localization: u64,
    /// MPC solver scratch growths.
    pub control: usize,
    /// Sensor scratch growths in the sense stage.
    pub sense: u64,
}

/// The localization kernel in the loop plus its persistent sensor
/// scratch — mutated in place every tick, never reallocated in steady
/// state.
enum Localizer {
    Pfl {
        filter: ParticleFilter<'static>,
        scratch: TrajectoryStep,
    },
    Ekf {
        filter: EkfSlam,
        world: SlamWorld,
        scratch: SlamStep,
    },
}

/// Interned metric ids for the per-tick stage latencies.
struct StagePublisher {
    publisher: MetricPublisher,
    sense: u32,
    localize: u32,
    plan: u32,
    track: u32,
    tick: u32,
}

/// A running closed-loop scenario. Drive with [`ScenarioState::step`]
/// until it returns `false`, then call [`ScenarioState::finish`].
pub struct ScenarioState {
    map: GridMap2D,
    lidar: Lidar,
    odometry: OdometryModel,
    rng: SimRng,
    localizer: Localizer,
    mpc: Mpc,
    reference: Vec<Point2>,
    run: Option<TrackRun>,
    goal: Point2,
    prev_pose: Pose2,
    active_waypoint: usize,
    tick_index: usize,
    max_ticks: usize,
    goal_reached: bool,
    plan_cost: f64,
    plan_expanded: u64,
    profiler: Profiler,
    stages: Option<StagePublisher>,
    log: Vec<TickRecord>,
    error_sum: f64,
    error_max: f64,
    label: &'static str,
    particles: usize,
    seed: u64,
    sense_growths: u64,
}

impl fmt::Debug for ScenarioState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScenarioState")
            .field("localizer", &self.label)
            .field("tick", &self.tick_index)
            .field("goal_reached", &self.goal_reached)
            .finish_non_exhaustive()
    }
}

impl ScenarioState {
    /// Assembles the world and the pipeline: generates the floor plan,
    /// plans the global route with `04.pp2d` on a clearance-inflated
    /// copy, subsamples it into an MPC reference, and initializes the
    /// chosen localizer at the start pose. Everything here is the
    /// offline phase — the per-tick loop allocates nothing after
    /// warmup.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::BlockedEndpoint`] when no footprint-free cell
    /// exists near an endpoint corner, [`ScenarioError::Unreachable`]
    /// when the planner finds no route (neither occurs for the default
    /// configuration; both are possible for adversarial seeds).
    pub fn begin(config: &ScenarioConfig) -> Result<ScenarioState, ScenarioError> {
        let map = maps::indoor_floor_plan(MAP_CELLS, MAP_RESOLUTION, config.seed);
        let footprint = Footprint::new(0.6, 0.4);

        // Global plan on the inflated map, corner to corner.
        let planning_map = map.inflated(PLAN_CLEARANCE);
        let margin = 24;
        let start_cell = free_cell_near(&planning_map, &footprint, (margin, margin))
            .ok_or(ScenarioError::BlockedEndpoint)?;
        let far = (MAP_CELLS - 1 - margin as usize) as i64;
        let goal_cell = free_cell_near(&planning_map, &footprint, (far, far))
            .ok_or(ScenarioError::BlockedEndpoint)?;
        let plan_config = Pp2dConfig {
            start: start_cell,
            goal: goal_cell,
            footprint,
            weight: 1.0,
        };
        let mut plan_profiler = Profiler::new();
        let route = Pp2d::new(plan_config)
            .plan(&planning_map, &mut plan_profiler, &mut NullTrace)
            .ok_or(ScenarioError::Unreachable)?;

        // Subsample the cell path into ~0.5 m-spaced reference points.
        let mut reference: Vec<Point2> = route
            .path
            .iter()
            .step_by(WAYPOINT_STRIDE)
            .map(|&(x, y)| map.cell_center(x, y))
            .collect();
        let last = route.path.last().expect("non-empty path");
        let goal = map.cell_center(last.0, last.1);
        if reference.last() != Some(&goal) {
            reference.push(goal);
        }

        let mpc = Mpc::new(MpcConfig {
            horizon: 10,
            dt: 0.1,
            v_max: 2.0,
            a_max: 2.5,
            opt_iterations: 25,
            ..Default::default()
        });
        let run = mpc.begin_track(&reference);
        let start_pose = run.pose();

        let lidar = Lidar::new(72, std::f64::consts::TAU, 10.0, 0.02);
        let odometry = OdometryModel::new(0.02, 0.01);
        let mut rng = SimRng::seed_from(config.seed);

        let localizer = match config.localizer {
            LocalizerKind::Pfl => {
                let filter = ParticleFilter::with_owned_map(
                    PflConfig {
                        particles: config.particles.max(10),
                        init: PflInit::AroundPose {
                            pose: start_pose,
                            pos_std: 0.3,
                            theta_std: 0.1,
                        },
                        beam_stride: 4,
                        threads: config.threads,
                        seed: config.seed,
                        ..Default::default()
                    },
                    map.clone(),
                );
                let scratch = TrajectoryStep {
                    true_pose: start_pose,
                    odometry: OdometryModel::true_delta(&start_pose, &start_pose),
                    scan: lidar.scan(&map, &start_pose, &mut rng),
                };
                Localizer::Pfl { filter, scratch }
            }
            LocalizerKind::EkfSlam => {
                // Beacons along the planned route: every localizer
                // observation is of a landmark the robot actually passes.
                let stride = (reference.len() / 8).max(1);
                let landmarks: Vec<Point2> = reference.iter().step_by(stride).copied().collect();
                let world = SlamWorld::new(landmarks.clone(), 6.0, 0.05, 0.02);
                let filter = EkfSlam::new(EkfSlamConfig {
                    max_landmarks: landmarks.len(),
                    initial_pose: start_pose,
                    ..Default::default()
                });
                let scratch = SlamStep {
                    v: 0.0,
                    omega: 0.0,
                    true_pose: start_pose,
                    observations: Vec::new(),
                };
                Localizer::Ekf {
                    filter,
                    world,
                    scratch,
                }
            }
        };

        let mut log = Vec::new();
        log.reserve_exact(config.max_ticks);
        Ok(ScenarioState {
            map,
            lidar,
            odometry,
            rng,
            localizer,
            mpc,
            reference,
            run: Some(run),
            goal,
            prev_pose: start_pose,
            active_waypoint: 0,
            tick_index: 0,
            max_ticks: config.max_ticks,
            goal_reached: false,
            plan_cost: route.cost,
            plan_expanded: route.expanded,
            profiler: Profiler::new(),
            stages: None,
            log,
            error_sum: 0.0,
            error_max: 0.0,
            label: config.localizer.label(),
            particles: config.particles,
            seed: config.seed,
            sense_growths: 0,
        })
    }

    /// Attaches a telemetry publisher: every subsequent tick publishes
    /// its stage latencies (`scenario.sense_ns` … `scenario.tick_ns`) to
    /// the channel for off-thread percentile aggregation. The interned
    /// name table travels back out through [`ScenarioState::finish`].
    pub fn publish_to(&mut self, mut publisher: MetricPublisher) {
        let sense = publisher.metric_id("scenario.sense_ns");
        let localize = publisher.metric_id("scenario.localize_ns");
        let plan = publisher.metric_id("scenario.plan_ns");
        let track = publisher.metric_id("scenario.track_ns");
        let tick = publisher.metric_id("scenario.tick_ns");
        self.stages = Some(StagePublisher {
            publisher,
            sense,
            localize,
            plan,
            track,
            tick,
        });
    }

    /// Runs one control tick in the fixed stage order (sense → localize
    /// → plan → track). Returns `true` while the scenario continues —
    /// `false` once the goal is reached, the tick budget is spent, or
    /// the tracker ends its run. Steady-state calls are allocation-free.
    pub fn step(&mut self) -> bool {
        if self.goal_reached || self.tick_index >= self.max_ticks {
            return false;
        }
        let Some(run) = self.run.as_mut() else {
            return false;
        };
        let tick_start = Instant::now();
        let pose = run.pose();

        // Sense: capture what the platform would log at its true pose.
        let stage_start = Instant::now();
        match &mut self.localizer {
            Localizer::Pfl { scratch, .. } => {
                let capacity = scratch.scan.ranges.capacity();
                self.lidar
                    .scan_into(&self.map, &pose, &mut self.rng, &mut scratch.scan);
                scratch.odometry = self.odometry.measure(&self.prev_pose, &pose, &mut self.rng);
                scratch.true_pose = pose;
                if scratch.scan.ranges.capacity() != capacity {
                    self.sense_growths += 1;
                }
            }
            Localizer::Ekf { world, scratch, .. } => {
                let capacity = scratch.observations.capacity();
                let delta = OdometryModel::true_delta(&self.prev_pose, &pose);
                scratch.v = delta.dx;
                scratch.omega = delta.dtheta;
                scratch.true_pose = pose;
                world.observe_into(&pose, &mut self.rng, &mut scratch.observations);
                if scratch.observations.capacity() != capacity {
                    self.sense_growths += 1;
                }
            }
        }
        let sense = stage_start.elapsed();

        // Localize: one stepped increment of the perception kernel.
        let stage_start = Instant::now();
        let estimate = match &mut self.localizer {
            Localizer::Pfl { filter, scratch } => {
                filter.step_scan(self.tick_index, scratch, &mut self.profiler, &mut NullTrace);
                filter.estimate()
            }
            Localizer::Ekf {
                filter, scratch, ..
            } => {
                filter.process_step(scratch, &mut self.profiler, &mut NullTrace);
                filter.pose()
            }
        };
        let localize = stage_start.elapsed();

        // Plan: advance along the global route, check for arrival.
        let stage_start = Instant::now();
        while self.active_waypoint + 1 < self.reference.len()
            && pose
                .position()
                .distance(self.reference[self.active_waypoint])
                < WAYPOINT_REACH
        {
            self.active_waypoint += 1;
        }
        let at_goal = pose.position().distance(self.goal) < GOAL_TOLERANCE;
        let plan = stage_start.elapsed();

        // Track: one MPC control tick, which moves the plant.
        let stage_start = Instant::now();
        let more = self
            .mpc
            .tick(run, &self.reference, &mut self.profiler, &mut NullTrace);
        let track = stage_start.elapsed();

        let position_error = estimate.position().distance(pose.position());
        self.error_sum += position_error;
        self.error_max = self.error_max.max(position_error);
        self.log.push(TickRecord {
            true_pose: pose,
            estimate,
            position_error,
        });
        self.prev_pose = pose;
        self.tick_index += 1;
        self.goal_reached = at_goal;

        self.profiler.add("sense", sense);
        self.profiler.add("localize", localize);
        self.profiler.add("plan", plan);
        self.profiler.add("track", track);
        if let Some(stages) = &mut self.stages {
            let as_ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            stages.publisher.publish(stages.sense, as_ns(sense));
            stages.publisher.publish(stages.localize, as_ns(localize));
            stages.publisher.publish(stages.plan, as_ns(plan));
            stages.publisher.publish(stages.track, as_ns(track));
            stages
                .publisher
                .publish(stages.tick, as_ns(tick_start.elapsed()));
        }

        !at_goal && more && self.tick_index < self.max_ticks
    }

    /// Control ticks executed so far.
    pub fn ticks(&self) -> usize {
        self.tick_index
    }

    /// Whether the plant has arrived at the goal.
    pub fn goal_reached(&self) -> bool {
        self.goal_reached
    }

    /// Reference waypoints of the global route.
    pub fn reference(&self) -> &[Point2] {
        &self.reference
    }

    /// Per-tick ground truth and estimates recorded so far.
    pub fn log(&self) -> &[TickRecord] {
        &self.log
    }

    /// Current steady-state growth counters (see [`AllocationCounters`]).
    pub fn allocation_counters(&self) -> AllocationCounters {
        AllocationCounters {
            localization: match &self.localizer {
                Localizer::Pfl { filter, .. } => filter.resample_scratch_allocations(),
                Localizer::Ekf { filter, .. } => filter.workspace_allocations() as u64,
            },
            control: self.run.as_ref().map_or(0, TrackRun::workspace_allocations),
            sense: self.sense_growths,
        }
    }

    /// Completes the scenario and assembles its report. The attached
    /// publisher (if any) is returned so the caller can recover the
    /// interned metric names after the collector drains.
    pub fn finish(mut self) -> (ScenarioReport, Option<MetricPublisher>) {
        let counters = self.allocation_counters();
        let run = self.run.take().expect("finish called twice");
        let tracking = self.mpc.finish_track(run);
        self.profiler.freeze_total();

        let mut checksum = FNV_OFFSET;
        for record in &self.log {
            for word in [
                record.true_pose.x.to_bits(),
                record.true_pose.y.to_bits(),
                record.true_pose.theta.to_bits(),
                record.estimate.x.to_bits(),
                record.estimate.y.to_bits(),
                record.estimate.theta.to_bits(),
            ] {
                checksum = fnv1a64(checksum, word);
            }
        }

        let ticks = self.log.len();
        let last = self.log.last();
        let report = ScenarioReport {
            label: self.label,
            particles: self.particles,
            seed: self.seed,
            max_ticks: self.max_ticks,
            ticks,
            goal_reached: self.goal_reached,
            waypoints: self.reference.len(),
            plan_cost: self.plan_cost,
            plan_expanded: self.plan_expanded,
            final_true: last.map_or(self.prev_pose, |r| r.true_pose),
            final_estimate: last.map_or(self.prev_pose, |r| r.estimate),
            mean_position_error: if ticks == 0 {
                0.0
            } else {
                self.error_sum / ticks as f64
            },
            max_position_error: self.error_max,
            tracking,
            allocations: counters,
            trajectory_checksum: checksum,
            regions: self.profiler.report(),
        };
        let publisher = self.stages.map(|s| s.publisher);
        (report, publisher)
    }
}

/// The finished scenario: route statistics, localization and tracking
/// quality, allocation counters, and the stage time breakdown.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Localizer label (`pfl` or `ekfslam`).
    pub label: &'static str,
    /// Configured particle count (meaningful for `pfl`).
    pub particles: usize,
    /// Configured seed.
    pub seed: u64,
    /// Configured tick budget.
    pub max_ticks: usize,
    /// Control ticks executed.
    pub ticks: usize,
    /// Whether the plant arrived at the goal.
    pub goal_reached: bool,
    /// Reference waypoints in the global route.
    pub waypoints: usize,
    /// Route cost (m) reported by `04.pp2d`.
    pub plan_cost: f64,
    /// Nodes the route search expanded.
    pub plan_expanded: u64,
    /// Plant pose at the last tick.
    pub final_true: Pose2,
    /// Localizer estimate at the last tick.
    pub final_estimate: Pose2,
    /// Mean localization position error (m).
    pub mean_position_error: f64,
    /// Maximum localization position error (m).
    pub max_position_error: f64,
    /// MPC tracking result for the whole run.
    pub tracking: MpcResult,
    /// Final steady-state growth counters.
    pub allocations: AllocationCounters,
    /// FNV-1a over the per-tick true and estimated pose bits.
    pub trajectory_checksum: u64,
    /// Stage and kernel-region time breakdown (wall-clock; excluded
    /// from [`ScenarioReport::golden`]).
    pub regions: Vec<RegionReport>,
}

impl ScenarioReport {
    /// Byte-stable replay fingerprint: every float rendered via
    /// [`f64::to_bits`], no wall-clock quantity and no thread count
    /// included. Two runs of the same [`ScenarioConfig`] (any
    /// `threads`) must produce identical goldens —
    /// `crates/bench/tests/scenario.rs`'s
    /// `scenario_replay_is_byte_identical_across_thread_counts`
    /// byte-compares them across thread counts and against checked-in
    /// fixtures for both localizers.
    pub fn golden(&self) -> String {
        let pose_bits = |p: &Pose2| {
            format!(
                "{:016x},{:016x},{:016x}",
                p.x.to_bits(),
                p.y.to_bits(),
                p.theta.to_bits()
            )
        };
        let mut out = String::new();
        out.push_str("rtr-scenario golden v1\n");
        out.push_str(&format!(
            "config localizer={} particles={} seed={} max_ticks={}\n",
            self.label, self.particles, self.seed, self.max_ticks
        ));
        out.push_str(&format!(
            "route waypoints={} cost={:016x} expanded={}\n",
            self.waypoints,
            self.plan_cost.to_bits(),
            self.plan_expanded
        ));
        out.push_str(&format!(
            "run ticks={} goal_reached={}\n",
            self.ticks, self.goal_reached
        ));
        out.push_str(&format!("final_true {}\n", pose_bits(&self.final_true)));
        out.push_str(&format!("final_est {}\n", pose_bits(&self.final_estimate)));
        out.push_str(&format!(
            "loc_err mean={:016x} max={:016x}\n",
            self.mean_position_error.to_bits(),
            self.max_position_error.to_bits()
        ));
        out.push_str(&format!(
            "track_err mean={:016x} max={:016x} opt_iters={}\n",
            self.tracking.mean_tracking_error.to_bits(),
            self.tracking.max_tracking_error.to_bits(),
            self.tracking.opt_iterations
        ));
        out.push_str(&format!(
            "allocs localization={} control={} sense={}\n",
            self.allocations.localization, self.allocations.control, self.allocations.sense
        ));
        out.push_str(&format!("trajectory {:016x}\n", self.trajectory_checksum));
        out
    }

    /// Human-readable run summary (decimal floats; not byte-stable).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "scenario: {} localizer, seed {}, {} waypoints over a {:.1} m route\n",
            self.label, self.seed, self.waypoints, self.plan_cost
        ));
        out.push_str(&format!(
            "run: {} ticks, goal {}\n",
            self.ticks,
            if self.goal_reached {
                "reached"
            } else {
                "not reached"
            }
        ));
        out.push_str(&format!(
            "localization error: mean {:.3} m, max {:.3} m\n",
            self.mean_position_error, self.max_position_error
        ));
        out.push_str(&format!(
            "tracking error: mean {:.3} m, max {:.3} m ({} optimizer iterations)\n",
            self.tracking.mean_tracking_error,
            self.tracking.max_tracking_error,
            self.tracking.opt_iterations
        ));
        out.push_str(&format!(
            "steady-state growths: localization {}, control {}, sense {}\n",
            self.allocations.localization, self.allocations.control, self.allocations.sense
        ));
        out
    }
}

/// Formats per-stage latency percentiles collected from the scenario's
/// metric channel, one row per interned name (the vector
/// [`MetricPublisher::into_names`] returns; index = metric id).
pub fn latency_table(metrics: &MetricMap, names: &[String]) -> String {
    let mut out = String::from("stage                    count    p50(us)    p99(us)  p99.9(us)\n");
    for (id, name) in names.iter().enumerate() {
        let Some(metric) = metrics.get(id as u32) else {
            continue;
        };
        let us = |ns: u64| ns as f64 / 1_000.0;
        out.push_str(&format!(
            "{name:<22} {count:>7} {p50:>10.1} {p99:>10.1} {p999:>10.1}\n",
            count = metric.hist.count(),
            p50 = us(metric.hist.p50()),
            p99 = us(metric.hist.p99()),
            p999 = us(metric.hist.p999()),
        ));
    }
    out
}

/// Nearest footprint-free cell to `target` in deterministic Chebyshev
/// ring order (heading 0).
fn free_cell_near(
    map: &GridMap2D,
    footprint: &Footprint,
    target: (i64, i64),
) -> Option<(usize, usize)> {
    for radius in 0..=ENDPOINT_SEARCH_RADIUS {
        for dy in -radius..=radius {
            for dx in -radius..=radius {
                if dx.abs().max(dy.abs()) != radius {
                    continue;
                }
                let (ix, iy) = (target.0 + dx, target.1 + dy);
                if !map.in_bounds(ix, iy) {
                    continue;
                }
                let center = map.cell_center(ix as usize, iy as usize);
                let pose = Pose2::new(center.x, center.y, 0.0);
                if !footprint.collides(map, &pose) {
                    return Some((ix as usize, iy as usize));
                }
            }
        }
    }
    None
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over one little-endian word.
fn fnv1a64(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_trace::metric_channel;

    fn quick_config(localizer: LocalizerKind) -> ScenarioConfig {
        ScenarioConfig {
            max_ticks: 120,
            particles: 80,
            localizer,
            ..Default::default()
        }
    }

    fn run_to_golden(config: &ScenarioConfig) -> String {
        let mut state = ScenarioState::begin(config).unwrap();
        while state.step() {}
        let (report, _) = state.finish();
        report.golden()
    }

    #[test]
    fn pfl_scenario_runs_and_replays_identically_across_threads() {
        let base = quick_config(LocalizerKind::Pfl);
        let golden1 = run_to_golden(&base);
        let golden4 = run_to_golden(&ScenarioConfig {
            threads: 4,
            ..base.clone()
        });
        assert_eq!(golden1, golden4);
        assert!(golden1.contains("run ticks=120"));
    }

    #[test]
    fn ekf_scenario_replays_identically() {
        let config = quick_config(LocalizerKind::EkfSlam);
        assert_eq!(run_to_golden(&config), run_to_golden(&config));
    }

    #[test]
    fn goldens_differ_across_seeds() {
        let base = quick_config(LocalizerKind::Pfl);
        let other = ScenarioConfig {
            seed: 9,
            ..base.clone()
        };
        assert_ne!(run_to_golden(&base), run_to_golden(&other));
    }

    #[test]
    fn stage_latencies_stream_through_the_metric_channel() {
        let (publisher, reader) = metric_channel(1 << 12);
        let collector = rtr_harness::Collector::spawn(reader, MetricMap::new());
        let mut state = ScenarioState::begin(&quick_config(LocalizerKind::Pfl)).unwrap();
        state.publish_to(publisher);
        for _ in 0..10 {
            assert!(state.step());
        }
        let (report, publisher) = state.finish();
        let names = publisher.expect("publisher attached").into_names();
        let metrics = collector.finish();
        assert_eq!(names.len(), 5);
        let tick_id = names.iter().position(|n| n == "scenario.tick_ns").unwrap() as u32;
        assert_eq!(metrics.get(tick_id).unwrap().hist.count(), 10);
        assert_eq!(report.ticks, 10);
        assert!(!latency_table(&metrics, &names).is_empty());
    }

    #[test]
    fn allocation_counters_plateau_after_warmup() {
        let config = ScenarioConfig {
            max_ticks: 200,
            particles: 60,
            ..Default::default()
        };
        let mut state = ScenarioState::begin(&config).unwrap();
        for _ in 0..40 {
            assert!(state.step());
        }
        let warm = state.allocation_counters();
        while state.step() {}
        assert_eq!(state.allocation_counters(), warm);
    }
}
