//! `01.pfl` — particle-filter localization.
//!
//! Estimates a robot's pose in a known occupancy grid from noisy odometry
//! and laser scans, exactly as the paper's Fig. 2 setting: particles are
//! sampled uniformly over free space, updated with each odometry reading,
//! re-weighted by matching ray-cast predictions against the sensed laser
//! ranges, and resampled. Ray-casting is the measured bottleneck (67–78 %
//! of execution time), so the measurement update is instrumented as its
//! own profiler region and streams its grid probes into any attached
//! [`rtr_trace::MemTrace`] sink.

use rtr_geom::{cast_ray, cast_ray_with, GridMap2D, Pose2};
use rtr_harness::{Pool, Profiler};
use rtr_sim::{LidarScan, OdometryModel, OdometryReading, SimRng, TrajectoryStep};
use rtr_trace::MemTrace;

/// Synthetic trace address of `weights[0]`: the particle-weight scratch
/// is an 8-byte-per-slot flat array placed in its own region, far above
/// the occupancy grid's 1-byte row-major cells (which start at 0), so
/// the cache characterization sees the two streams as distinct data
/// structures.
const WEIGHT_TRACE_BASE: u64 = 1 << 32;

/// How the particle set is initialized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PflInit {
    /// Global localization: uniform over the map's free space — the
    /// paper's Fig. 2-(a) "the robot could be anywhere in the environment".
    GlobalUniform,
    /// Pose tracking: Gaussian cloud around a rough initial guess.
    AroundPose {
        /// Center of the initial particle cloud.
        pose: Pose2,
        /// Position std dev (meters).
        pos_std: f64,
        /// Heading std dev (radians).
        theta_std: f64,
    },
}

/// Configuration for [`ParticleFilter`].
#[derive(Debug, Clone)]
pub struct PflConfig {
    /// Number of particles.
    pub particles: usize,
    /// Initialization mode.
    pub init: PflInit,
    /// Std dev of the Gaussian sensor model comparing measured and
    /// predicted ranges (meters).
    pub sensor_sigma: f64,
    /// Laser maximum range (must match the scans supplied to `run`).
    pub max_range: f64,
    /// Motion model used to diffuse particles with each odometry reading.
    pub motion: OdometryModel,
    /// Use every `beam_stride`-th beam of each scan (1 = all beams).
    pub beam_stride: usize,
    /// Effective-sample-size fraction below which the filter resamples.
    pub resample_threshold: f64,
    /// RNG seed (the filter owns its randomness for reproducibility).
    pub seed: u64,
    /// Worker threads for the ray-casting region: `1` is the exact legacy
    /// sequential path, `0` means one thread per hardware thread. Results
    /// are bit-identical for every setting (the per-particle computation
    /// is pure; weight application and normalization stay sequential in
    /// particle order).
    pub threads: usize,
}

impl Default for PflConfig {
    fn default() -> Self {
        PflConfig {
            particles: 1000,
            init: PflInit::GlobalUniform,
            sensor_sigma: 0.2,
            max_range: 10.0,
            motion: OdometryModel::new(0.05, 0.03),
            beam_stride: 1,
            resample_threshold: 0.5,
            seed: 0,
            threads: 1,
        }
    }
}

/// Result of a localization run.
#[derive(Debug, Clone)]
pub struct PflResult {
    /// Weighted-mean pose estimate after the final step.
    pub estimate: Pose2,
    /// RMS particle spread (meters) around the estimate at the final step —
    /// the paper's Fig. 2 convergence signal.
    pub final_spread: f64,
    /// RMS particle spread after initialization (before any update).
    pub initial_spread: f64,
    /// Position error against ground truth at the final step, when truth
    /// was supplied.
    pub final_error: Option<f64>,
    /// Total rays cast over the run.
    pub rays_cast: u64,
    /// Total grid cells probed by ray casting.
    pub cells_probed: u64,
    /// Number of resampling rounds triggered.
    pub resamples: u64,
}

/// Persistent buffers backing [`ParticleFilter::maybe_resample`].
///
/// Low-variance resampling needs a cumulative-weight prefix array, the
/// chosen source index per output slot, and a pose buffer to write the
/// survivors into. All three are reused across calls (the pose buffer
/// swaps with the live set each round), so steady-state resampling is
/// allocation-free: `grows` counts the rounds where any buffer had to
/// expand, which plateaus at 1 after the warmup round.
#[derive(Debug, Clone, Default)]
struct ResampleScratch {
    cumulative: Vec<f64>,
    indices: Vec<usize>,
    next_poses: Vec<Pose2>,
    grows: u64,
}

/// The particle-filter localization kernel.
///
/// # Example
///
/// ```
/// use rtr_perception::{ParticleFilter, PflConfig};
/// use rtr_geom::maps;
/// use rtr_harness::Profiler;
///
/// let map = maps::indoor_floor_plan(64, 0.1, 7);
/// let mut pf = ParticleFilter::new(PflConfig { particles: 50, ..Default::default() }, &map);
/// assert_eq!(pf.particle_count(), 50);
/// ```
#[derive(Debug, Clone)]
pub struct ParticleFilter<'m> {
    config: PflConfig,
    /// The known map, borrowed in the common case; an owned copy lets a
    /// boxed stepped instance carry filter and map together.
    map: std::borrow::Cow<'m, GridMap2D>,
    /// Particle poses, parallel to `weights` (structure-of-arrays: the
    /// weight reductions run over a flat `f64` slice the lane kernels can
    /// stream).
    poses: Vec<Pose2>,
    /// Normalized particle weights, parallel to `poses`.
    weights: Vec<f64>,
    rng: SimRng,
    pool: Pool,
    rays_cast: u64,
    cells_probed: u64,
    resamples: u64,
    resample_scratch: ResampleScratch,
    /// Persistent `(log_w, rays, cells)` output buffer for the parallel
    /// scoring pass, so steady-state measurement updates allocate
    /// nothing.
    scores: Vec<(f64, u64, u64)>,
}

impl<'m> ParticleFilter<'m> {
    /// Creates a filter with particles sampled uniformly over the map's
    /// free space ("the robot could be anywhere in the environment").
    ///
    /// # Panics
    ///
    /// Panics if `particles == 0`, `beam_stride == 0`, or the map has no
    /// free cells.
    pub fn new(config: PflConfig, map: &'m GridMap2D) -> Self {
        Self::from_map(config, std::borrow::Cow::Borrowed(map))
    }

    /// [`ParticleFilter::new`] over an owned map: the returned filter has
    /// no borrowed state, so it can live inside a boxed stepped kernel
    /// instance.
    pub fn with_owned_map(config: PflConfig, map: GridMap2D) -> ParticleFilter<'static> {
        ParticleFilter::from_map(config, std::borrow::Cow::Owned(map))
    }

    fn from_map(config: PflConfig, map: std::borrow::Cow<'m, GridMap2D>) -> Self {
        assert!(config.particles > 0, "need at least one particle");
        assert!(config.beam_stride > 0, "beam stride must be positive");
        let mut rng = SimRng::seed_from(config.seed);
        let w = map.world_width();
        let h = map.world_height();
        let uniform = 1.0 / config.particles as f64;
        let mut poses = Vec::with_capacity(config.particles);
        let mut attempts = 0usize;
        while poses.len() < config.particles {
            attempts += 1;
            assert!(
                attempts < config.particles * 10_000,
                "map appears to have no free space"
            );
            let pose = match config.init {
                PflInit::GlobalUniform => Pose2::new(
                    rng.uniform(0.0, w),
                    rng.uniform(0.0, h),
                    rng.uniform(-std::f64::consts::PI, std::f64::consts::PI),
                ),
                PflInit::AroundPose {
                    pose,
                    pos_std,
                    theta_std,
                } => Pose2::new(
                    pose.x + rng.gaussian(0.0, pos_std),
                    pose.y + rng.gaussian(0.0, pos_std),
                    pose.theta + rng.gaussian(0.0, theta_std),
                ),
            };
            if !map.is_occupied_world(pose.position()) {
                poses.push(pose);
            }
        }
        let weights = vec![uniform; poses.len()];
        let pool = Pool::new(config.threads);
        ParticleFilter {
            config,
            map,
            poses,
            weights,
            rng,
            pool,
            rays_cast: 0,
            cells_probed: 0,
            resamples: 0,
            resample_scratch: ResampleScratch::default(),
            scores: Vec::new(),
        }
    }

    /// Number of resampling rounds that had to grow the persistent
    /// resampling scratch. Plateaus at 1 (the warmup round) no matter how
    /// many times the filter resamples afterward.
    pub fn resample_scratch_allocations(&self) -> u64 {
        self.resample_scratch.grows
    }

    /// Number of particles.
    pub fn particle_count(&self) -> usize {
        self.poses.len()
    }

    /// Current particle poses (for visualization / tests).
    pub fn poses(&self) -> Vec<Pose2> {
        self.poses.clone()
    }

    /// Current particle weights as a flat slice (for tests and the weight
    /// benchmarks).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Weighted-mean pose estimate.
    pub fn estimate(&self) -> Pose2 {
        let mut x = 0.0;
        let mut y = 0.0;
        let mut sin = 0.0;
        let mut cos = 0.0;
        let total = rtr_simd::sum(&self.weights);
        for (pose, &weight) in self.poses.iter().zip(self.weights.iter()) {
            let w = weight / total;
            x += w * pose.x;
            y += w * pose.y;
            sin += w * pose.theta.sin();
            cos += w * pose.theta.cos();
        }
        Pose2::new(x, y, sin.atan2(cos))
    }

    /// RMS distance of particles from the weighted mean.
    pub fn spread(&self) -> f64 {
        let est = self.estimate();
        let total = rtr_simd::sum(&self.weights);
        let var: f64 = self
            .poses
            .iter()
            .zip(self.weights.iter())
            .map(|(pose, &w)| w / total * pose.position().distance_squared(est.position()))
            .sum();
        var.sqrt()
    }

    /// Applies one odometry reading to all particles.
    pub fn motion_update(&mut self, reading: &OdometryReading) {
        let motion = self.config.motion;
        for pose in &mut self.poses {
            *pose = motion.sample_motion(pose, reading, &mut self.rng);
        }
    }

    /// Re-weights all particles against a laser scan. This is the
    /// ray-casting bottleneck region.
    ///
    /// Ray casting is parallelized over particles when the filter was
    /// configured with more than one thread. Each particle's beam loop is
    /// pure and produces `(log_w, rays, cells)`; the weight update,
    /// counter accumulation and normalization then run sequentially in
    /// particle order, so results are bit-identical to the single-thread
    /// path for any thread count.
    ///
    /// With a live `trace` sink, every grid-cell probe is emitted as a
    /// read (one 1-byte cell per probe, row-major layout) and every
    /// particle-weight store as a write into the 8-byte-per-slot weight
    /// region — one per particle for the likelihood application and one
    /// per particle for the normalization pass, so the `01.pfl` stream is
    /// no longer read-only. The sink is shared mutable state, so the
    /// traced path always runs sequentially.
    pub fn measurement_update<T: MemTrace + ?Sized>(&mut self, scan: &LidarScan, trace: &mut T) {
        let sigma = self.config.sensor_sigma;
        let inv_two_sigma_sq = 1.0 / (2.0 * sigma * sigma);
        let stride = self.config.beam_stride;
        let max_range = self.config.max_range;
        let width = self.map.width() as u64;
        let map = self.map.as_ref();

        if trace.enabled() {
            for (i, pose) in self.poses.iter().enumerate() {
                let mut log_w = 0.0;
                for (angle, range) in scan.angles.iter().zip(scan.ranges.iter()).step_by(stride) {
                    self.rays_cast += 1;
                    let hit = cast_ray_with(
                        map,
                        pose.position(),
                        pose.theta + angle,
                        max_range,
                        |ix, iy| {
                            // Grid cells are 1 byte each in a row-major Vec.
                            let addr = (iy.max(0) as u64) * width + ix.max(0) as u64;
                            trace.read(addr);
                        },
                    );
                    self.cells_probed += hit.cells_visited as u64;
                    let err = range - hit.distance;
                    log_w -= err * err * inv_two_sigma_sq;
                }
                // Particles inside obstacles predict 0 for every beam and
                // decay.
                self.weights[i] *= log_w.exp().max(1e-300);
                trace.write(WEIGHT_TRACE_BASE + 8 * i as u64);
            }
        } else {
            // The scoring pass writes into the persistent `scores` buffer
            // (values identical to a `par_map` collect), so the steady
            // state never touches the allocator.
            let mut scores = std::mem::take(&mut self.scores);
            self.pool.par_map_into(&self.poses, &mut scores, |_, pose| {
                let mut log_w = 0.0;
                let mut rays = 0u64;
                let mut cells = 0u64;
                for (angle, range) in scan.angles.iter().zip(scan.ranges.iter()).step_by(stride) {
                    rays += 1;
                    let hit = cast_ray(map, pose.position(), pose.theta + angle, max_range);
                    cells += hit.cells_visited as u64;
                    let err = range - hit.distance;
                    log_w -= err * err * inv_two_sigma_sq;
                }
                (log_w, rays, cells)
            });
            for (w, &(log_w, rays, cells)) in self.weights.iter_mut().zip(scores.iter()) {
                self.rays_cast += rays;
                self.cells_probed += cells;
                *w *= log_w.exp().max(1e-300);
            }
            self.scores = scores;
        }

        // Normalize. The total is the lane-kernel reduction (four partial
        // sums, ULP-bounded against a left-to-right fold); the per-weight
        // division is an element-wise map.
        let total = rtr_simd::sum(&self.weights);
        if total <= 0.0 || !total.is_finite() {
            let uniform = 1.0 / self.weights.len() as f64;
            self.weights.fill(uniform);
        } else {
            rtr_simd::div_assign(&mut self.weights, total);
        }
        if trace.enabled() {
            // Every weight is stored once more by the normalization pass.
            for i in 0..self.weights.len() {
                trace.write(WEIGHT_TRACE_BASE + 8 * i as u64);
            }
        }
    }

    /// Low-variance resampling when the effective sample size drops below
    /// the configured threshold. Returns `true` when resampling happened.
    pub fn maybe_resample(&mut self) -> bool {
        // Effective sample size via the lane-kernel sum of squares.
        let ess: f64 = 1.0 / rtr_simd::sum_sq(&self.weights);
        if ess >= self.config.resample_threshold * self.weights.len() as f64 {
            return false;
        }
        self.resamples += 1;
        let n = self.weights.len();
        let step = 1.0 / n as f64;
        let mut target = self.rng.uniform(0.0, step);

        let scratch = &mut self.resample_scratch;
        if scratch.cumulative.capacity() < n
            || scratch.indices.capacity() < n
            || scratch.next_poses.capacity() < n
        {
            scratch.grows += 1;
        }

        // Cumulative-weight prefix array. Built left to right with the same
        // addition order the legacy inline accumulator used, so every
        // prefix value — and therefore every `prefix < target` comparison
        // below — is bit-identical to the historical path.
        scratch.cumulative.clear();
        let mut cumulative = self.weights[0];
        scratch.cumulative.push(cumulative);
        for &w in &self.weights[1..] {
            cumulative += w;
            scratch.cumulative.push(cumulative);
        }

        // Source index per output slot.
        scratch.indices.clear();
        let mut idx = 0usize;
        for _ in 0..n {
            while scratch.cumulative[idx] < target && idx + 1 < n {
                idx += 1;
            }
            scratch.indices.push(idx);
            target += step;
        }

        // Gather surviving poses into the persistent buffer, then swap it
        // with the live set; the retired set becomes next round's buffer
        // and the weight slice is reset uniform in place, so steady-state
        // resampling allocates nothing.
        scratch.next_poses.clear();
        scratch
            .next_poses
            .extend(scratch.indices.iter().map(|&i| self.poses[i]));
        std::mem::swap(&mut self.poses, &mut scratch.next_poses);
        self.weights.fill(step);
        true
    }

    /// Advances the filter by one recorded trajectory step: motion update
    /// (skipped at `index == 0`, whose odometry is the placeholder
    /// reading), measurement update, and conditional resampling —
    /// attributing time to the paper's regions (`motion_update`,
    /// `ray_casting`, `resample`). Calling this for `index = 0..n` in
    /// order is exactly [`ParticleFilter::run`]'s loop body, so a stepped
    /// driver reproduces the one-shot run bit for bit. Steady-state calls
    /// are allocation-free (persistent scoring and resampling scratch).
    pub fn step_scan<T: MemTrace + ?Sized>(
        &mut self,
        index: usize,
        step: &TrajectoryStep,
        profiler: &mut Profiler,
        trace: &mut T,
    ) {
        if index > 0 {
            let reading = step.odometry;
            let mu_start = profiler.hot_start();
            self.motion_update(&reading);
            profiler.hot_add("motion_update", mu_start);
        }
        let start = profiler.hot_start();
        self.measurement_update(&step.scan, &mut *trace);
        profiler.hot_add("ray_casting", start);
        let rs_start = profiler.hot_start();
        self.maybe_resample();
        profiler.hot_add("resample", rs_start);
    }

    /// Assembles the run result from the filter's current state.
    /// `final_truth` is the last trajectory step's ground truth (for the
    /// error metric); `initial_spread` is the [`ParticleFilter::spread`]
    /// sampled before the first update.
    pub fn result(&self, final_truth: Option<&TrajectoryStep>, initial_spread: f64) -> PflResult {
        let estimate = self.estimate();
        PflResult {
            estimate,
            final_spread: self.spread(),
            initial_spread,
            final_error: final_truth.map(|s| s.true_pose.position().distance(estimate.position())),
            rays_cast: self.rays_cast,
            cells_probed: self.cells_probed,
            resamples: self.resamples,
        }
    }

    /// Runs the full filter over a recorded trajectory, attributing time to
    /// the paper's regions: `motion_update`, `ray_casting`, `resample`.
    pub fn run<T: MemTrace + ?Sized>(
        &mut self,
        steps: &[TrajectoryStep],
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> PflResult {
        let initial_spread = self.spread();
        for (i, step) in steps.iter().enumerate() {
            self.step_scan(i, step, profiler, &mut *trace);
        }
        self.result(steps.last(), initial_spread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_geom::{maps, Point2};
    use rtr_sim::{DifferentialDrive, Lidar};
    use rtr_trace::{CountingTrace, NullTrace};

    fn drive_log(map: &GridMap2D, seed: u64) -> Vec<TrajectoryStep> {
        let lidar = Lidar::new(36, std::f64::consts::PI, 10.0, 0.02);
        let odo = OdometryModel::new(0.03, 0.02);
        let robot = DifferentialDrive::new(0.15, 1.5);
        let mut rng = SimRng::seed_from(seed);
        // A square loop inside the first room (interior walls of the
        // generated plan sit at multiples of 3.2 m), so the straight-line
        // waypoint tracker never clips a wall.
        robot.drive(
            map,
            Pose2::new(1.0, 1.0, 0.0),
            &[
                Point2::new(2.5, 1.0),
                Point2::new(2.5, 2.5),
                Point2::new(1.0, 2.5),
            ],
            &lidar,
            &odo,
            120,
            &mut rng,
        )
    }

    #[test]
    fn particles_initialize_in_free_space() {
        let map = maps::indoor_floor_plan(128, 0.1, 7);
        let pf = ParticleFilter::new(
            PflConfig {
                particles: 200,
                ..Default::default()
            },
            &map,
        );
        for pose in pf.poses() {
            assert!(!map.is_occupied_world(pose.position()));
        }
    }

    #[test]
    fn tracking_filter_converges_toward_truth() {
        let map = maps::indoor_floor_plan(128, 0.1, 7);
        let steps = drive_log(&map, 3);
        let mut pf = ParticleFilter::new(
            PflConfig {
                particles: 400,
                seed: 5,
                init: PflInit::AroundPose {
                    pose: steps[0].true_pose,
                    pos_std: 0.5,
                    theta_std: 0.3,
                },
                ..Default::default()
            },
            &map,
        );
        let mut profiler = Profiler::new();
        let result = pf.run(&steps, &mut profiler, &mut NullTrace);
        assert!(result.resamples > 0, "expected at least one resample");
        let err = result.final_error.unwrap();
        assert!(err < 0.5, "estimate too far from truth: {err} m");
    }

    #[test]
    fn global_localization_collapses_spread() {
        // The Fig. 2 signal: uniformly initialized particles converge to a
        // tight cluster once sensing starts, even if multimodality means
        // the surviving mode is not always the true one.
        let map = maps::indoor_floor_plan(128, 0.1, 7);
        let steps = drive_log(&map, 3);
        let mut pf = ParticleFilter::new(
            PflConfig {
                particles: 500,
                seed: 8,
                ..Default::default()
            },
            &map,
        );
        let mut profiler = Profiler::new();
        let result = pf.run(&steps, &mut profiler, &mut NullTrace);
        assert!(
            result.final_spread < result.initial_spread * 0.2,
            "spread should collapse: {} -> {}",
            result.initial_spread,
            result.final_spread
        );
    }

    #[test]
    fn ray_casting_dominates_profile() {
        let map = maps::indoor_floor_plan(128, 0.1, 7);
        let steps = drive_log(&map, 4);
        let mut pf = ParticleFilter::new(
            PflConfig {
                particles: 300,
                seed: 1,
                ..Default::default()
            },
            &map,
        );
        let mut profiler = Profiler::timed();
        pf.run(&steps, &mut profiler, &mut NullTrace);
        profiler.freeze_total();
        let rc = profiler.fraction("ray_casting");
        assert!(rc > 0.5, "ray casting fraction only {rc}");
        assert_eq!(profiler.dominant_region().unwrap().name, "ray_casting");
    }

    #[test]
    fn traced_run_emits_one_read_per_probed_cell() {
        // (The "L1 absorbs most probes" locality finding is asserted
        // against the real cache simulator in the bench crate.)
        let map = maps::indoor_floor_plan(64, 0.1, 7);
        let steps = drive_log(&map, 5);
        let config = PflConfig {
            particles: 30,
            seed: 2,
            ..Default::default()
        };
        let mut pf = ParticleFilter::new(config.clone(), &map);
        let mut profiler = Profiler::new();
        let mut counts = CountingTrace::default();
        let steps_run = 5.min(steps.len()) as u64;
        let result = pf.run(&steps[..steps_run as usize], &mut profiler, &mut counts);
        assert!(counts.reads > 0);
        assert_eq!(counts.reads, result.cells_probed);
        // One weight store per particle for the likelihood application
        // plus one per particle for the normalization pass, every step.
        assert_eq!(counts.writes, 2 * 30 * steps_run);
        // Bit-identity against the untraced (pool) path.
        let mut plain = ParticleFilter::new(config, &map);
        let plain_result = plain.run(&steps[..steps_run as usize], &mut profiler, &mut NullTrace);
        assert_eq!(
            result.estimate.x.to_bits(),
            plain_result.estimate.x.to_bits()
        );
        assert_eq!(result.cells_probed, plain_result.cells_probed);
    }

    #[test]
    fn weights_stay_normalized() {
        let map = maps::indoor_floor_plan(64, 0.1, 7);
        let mut pf = ParticleFilter::new(
            PflConfig {
                particles: 100,
                ..Default::default()
            },
            &map,
        );
        let lidar = Lidar::new(18, std::f64::consts::PI, 10.0, 0.0);
        let mut rng = SimRng::seed_from(0);
        let scan = lidar.scan(&map, &Pose2::new(3.2, 3.2, 0.0), &mut rng);
        pf.measurement_update(&scan, &mut NullTrace);
        let total: f64 = pf.weights().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scratch_resampling_matches_legacy_inline_bitwise() {
        let map = maps::indoor_floor_plan(64, 0.1, 7);
        let mut pf = ParticleFilter::new(
            PflConfig {
                particles: 64,
                seed: 11,
                resample_threshold: 1.1, // force a resample regardless of ESS
                ..Default::default()
            },
            &map,
        );
        // Skew the weights so resampling actually reshuffles.
        let lidar = Lidar::new(18, std::f64::consts::PI, 10.0, 0.0);
        let mut rng = SimRng::seed_from(0);
        let scan = lidar.scan(&map, &Pose2::new(3.2, 3.2, 0.0), &mut rng);
        pf.measurement_update(&scan, &mut NullTrace);

        // Replay the pre-scratch algorithm on a clone (same RNG state).
        let mut legacy = pf.clone();
        let n = legacy.weights.len();
        let step = 1.0 / n as f64;
        let mut target = legacy.rng.uniform(0.0, step);
        let mut cumulative = legacy.weights[0];
        let mut idx = 0usize;
        let mut next_poses = Vec::with_capacity(n);
        for _ in 0..n {
            while cumulative < target && idx + 1 < n {
                idx += 1;
                cumulative += legacy.weights[idx];
            }
            next_poses.push(legacy.poses[idx]);
            target += step;
        }
        legacy.poses = next_poses;
        legacy.weights = vec![step; n];

        assert!(pf.maybe_resample(), "threshold > 1 must always resample");
        for (a, b) in pf.poses.iter().zip(legacy.poses.iter()) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.theta.to_bits(), b.theta.to_bits());
        }
        for (a, b) in pf.weights.iter().zip(legacy.weights.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn resampling_scratch_plateaus_after_warmup() {
        let map = maps::indoor_floor_plan(128, 0.1, 7);
        let steps = drive_log(&map, 3);
        let mut pf = ParticleFilter::new(
            PflConfig {
                particles: 400,
                seed: 5,
                init: PflInit::AroundPose {
                    pose: steps[0].true_pose,
                    pos_std: 0.5,
                    theta_std: 0.3,
                },
                ..Default::default()
            },
            &map,
        );
        let mut profiler = Profiler::new();
        let result = pf.run(&steps, &mut profiler, &mut NullTrace);
        assert!(
            result.resamples > 1,
            "need repeated resampling to observe the plateau"
        );
        assert_eq!(
            pf.resample_scratch_allocations(),
            1,
            "only the warmup round may grow the scratch"
        );
    }

    #[test]
    #[should_panic(expected = "at least one particle")]
    fn zero_particles_panics() {
        let map = maps::indoor_floor_plan(64, 0.1, 7);
        let _ = ParticleFilter::new(
            PflConfig {
                particles: 0,
                ..Default::default()
            },
            &map,
        );
    }
}
