//! `02.ekfslam` — simultaneous localization and mapping with an extended
//! Kalman filter.
//!
//! Reproduces the paper's Fig. 3 setting: a robot drives a loop through a
//! synthetic environment with six landmarks, reading its (Gaussian-noisy)
//! distance and bearing to each visible landmark, and the EKF jointly
//! estimates the robot pose and all landmark positions with uncertainty.
//! The paper measures "frequent matrix operations (multiplication,
//! inversion) ... more than 85 % of execution time", so every covariance
//! propagation and Kalman-gain solve here is wrapped in the `matrix_ops`
//! profiler region.

use rtr_geom::{normalize_angle, Point2, Pose2};
use rtr_harness::Profiler;
use rtr_linalg::{Matrix, Vector, Workspace};
use rtr_sim::SlamStep;
use rtr_trace::{Gated, MemTrace};

/// Process noise: translation variance per step (m²).
pub const Q_TRANS: f64 = 0.01;
/// Process noise: rotation variance per step (rad²).
pub const Q_ROT: f64 = 0.001;
/// Measurement noise: range variance (m²).
pub const R_RANGE: f64 = 0.05;
/// Measurement noise: bearing variance (rad²).
pub const R_BEARING: f64 = 0.002;

/// Configuration for [`EkfSlam`].
#[derive(Debug, Clone)]
pub struct EkfSlamConfig {
    /// Number of landmarks the map can hold.
    pub max_landmarks: usize,
    /// Initial pose of the filter (the paper's robot knows its start).
    pub initial_pose: Pose2,
}

impl Default for EkfSlamConfig {
    fn default() -> Self {
        EkfSlamConfig {
            max_landmarks: 6,
            initial_pose: Pose2::new(7.0, 5.5, 0.0),
        }
    }
}

/// Result of a SLAM run.
#[derive(Debug, Clone)]
pub struct EkfSlamResult {
    /// Final pose estimate.
    pub pose: Pose2,
    /// Estimated landmark positions (only initialized ones).
    pub landmarks: Vec<(usize, Point2)>,
    /// RMS landmark position error against ground truth, when supplied.
    pub landmark_rmse: Option<f64>,
    /// Mean robot position error over the trajectory, when truth supplied.
    pub mean_pose_error: Option<f64>,
    /// Trace of the final covariance (total remaining uncertainty).
    pub covariance_trace: f64,
    /// Number of EKF update steps executed.
    pub updates: u64,
}

/// Mean-vector region of the synthetic trace address space; the
/// covariance occupies row-major `dim × dim × 8` bytes from address 0.
const STATE_REGION: u64 = 1 << 38;

/// Emits one access per 64-byte line of the span `[base, base + bytes)`.
fn trace_span<T: MemTrace + ?Sized>(
    trace: &mut T,
    base: u64,
    bytes: u64,
    is_write: bool,
    g: Gated,
) {
    let mut off = 0;
    while off < bytes {
        if is_write {
            trace.write(base + off, g);
        } else {
            trace.read(base + off, g);
        }
        off += 64;
    }
}

/// The EKF-SLAM kernel.
///
/// State layout: `[x, y, θ, m₀x, m₀y, m₁x, m₁y, …]`.
///
/// # Example
///
/// ```
/// use rtr_perception::{EkfSlam, EkfSlamConfig};
/// use rtr_sim::{SimRng, SlamWorld};
/// use rtr_harness::Profiler;
///
/// let world = SlamWorld::six_landmark_demo();
/// let mut rng = SimRng::seed_from(1);
/// let steps = world.simulate_circuit(50, &mut rng);
/// let mut ekf = EkfSlam::new(EkfSlamConfig::default());
/// let mut profiler = Profiler::new();
/// let result = ekf.run(
///     &steps,
///     Some(world.landmarks()),
///     &mut profiler,
///     &mut rtr_trace::NullTrace,
/// );
/// assert!(result.updates > 0);
/// ```
#[derive(Debug, Clone)]
pub struct EkfSlam {
    config: EkfSlamConfig,
    /// State mean.
    state: Vector,
    /// State covariance.
    cov: Matrix,
    /// Which landmark slots have been initialized.
    seen: Vec<bool>,
    /// Recycled scratch buffers for the covariance updates.
    ws: Workspace,
    updates: u64,
}

impl EkfSlam {
    /// Creates a filter with the configured initial pose and no landmarks.
    pub fn new(config: EkfSlamConfig) -> Self {
        let dim = 3 + 2 * config.max_landmarks;
        let mut state = Vector::zeros(dim);
        state[0] = config.initial_pose.x;
        state[1] = config.initial_pose.y;
        state[2] = config.initial_pose.theta;
        let mut cov = Matrix::zeros(dim, dim);
        // Unknown landmarks start with huge variance; pose is known.
        for i in 3..dim {
            cov[(i, i)] = 1e6;
        }
        EkfSlam {
            seen: vec![false; config.max_landmarks],
            config,
            state,
            cov,
            ws: Workspace::new(),
            updates: 0,
        }
    }

    /// Fresh heap allocations the covariance updates have performed.
    ///
    /// Plateaus after the first predict/update pair — the invariant the
    /// allocation-regression test asserts.
    pub fn workspace_allocations(&self) -> usize {
        self.ws.allocations()
    }

    /// State dimension (3 + 2·max_landmarks).
    pub fn dim(&self) -> usize {
        self.state.len()
    }

    /// Current pose estimate.
    pub fn pose(&self) -> Pose2 {
        Pose2::new(self.state[0], self.state[1], self.state[2])
    }

    /// Current estimate of landmark `id`, if initialized.
    pub fn landmark(&self, id: usize) -> Option<Point2> {
        if *self.seen.get(id)? {
            Some(Point2::new(self.state[3 + 2 * id], self.state[4 + 2 * id]))
        } else {
            None
        }
    }

    /// Marginal 2×2 covariance of landmark `id` (the paper's red
    /// uncertainty ellipses), if initialized.
    pub fn landmark_covariance(&self, id: usize) -> Option<Matrix> {
        if *self.seen.get(id)? {
            Some(self.cov.block(3 + 2 * id, 3 + 2 * id, 2, 2))
        } else {
            None
        }
    }

    /// EKF prediction with unicycle controls `(v, ω)`.
    ///
    /// With a live `trace` sink, emits the covariance-row traffic of the
    /// propagation: full read+write sweeps of the three pose rows and a
    /// pose-prefix read+write per landmark row (the `F·P·Fᵀ` column
    /// update). The stream depends only on the state dimension, never on
    /// how the covariance arithmetic is organized.
    pub fn predict<T: MemTrace + ?Sized>(
        &mut self,
        v: f64,
        omega: f64,
        profiler: &mut Profiler,
        trace: &mut T,
    ) {
        if let Some(g) = trace.gate() {
            let dim = self.dim() as u64;
            let row_bytes = dim * 8;
            for i in 0..3u64 {
                trace_span(trace, i * row_bytes, row_bytes, false, g);
                trace_span(trace, i * row_bytes, row_bytes, true, g);
            }
            for i in 3..dim {
                trace.read(i * row_bytes, g);
                trace.write(i * row_bytes, g);
            }
            // Pose entries of the mean vector.
            trace.read(STATE_REGION, g);
            trace.write(STATE_REGION, g);
        }
        let theta = self.state[2];
        // Mean propagation (cheap, scalar).
        self.state[0] += v * theta.cos();
        self.state[1] += v * theta.sin();
        self.state[2] = normalize_angle(self.state[2] + omega);
        self.predict_cov(v, theta, profiler);
    }

    /// Covariance propagation `F·P·Fᵀ + Q`: the O(n³) matrix work the
    /// paper measures. `congruence_into` replicates the allocating
    /// `congruence` dispatch and summation order, and every buffer is
    /// recycled across steps.
    fn predict_cov(&mut self, v: f64, theta: f64, profiler: &mut Profiler) {
        let dim = self.dim();
        let ws = &mut self.ws;
        let cov = &self.cov;
        let mut f = ws.matrix(dim, dim);
        for i in 0..dim {
            f[(i, i)] = 1.0;
        }
        f[(0, 2)] = -v * theta.sin();
        f[(1, 2)] = v * theta.cos();
        let mut q = ws.matrix(dim, dim);
        q[(0, 0)] = Q_TRANS;
        q[(1, 1)] = Q_TRANS;
        q[(2, 2)] = Q_ROT;

        let mut p = ws.matrix(dim, dim);
        profiler.time("matrix_ops", || {
            f.congruence_into(cov, ws, &mut p).expect("shape");
            p += &q;
            p.symmetrize_mut();
        });
        let old = std::mem::replace(&mut self.cov, p);
        self.ws.recycle_matrix(old);
        self.ws.recycle_matrix(f);
        self.ws.recycle_matrix(q);
    }

    /// EKF update with one range-bearing observation of landmark `id`.
    ///
    /// Traced covariance-row traffic: full-row reads of the five
    /// `H`-active rows (pose + this landmark), a pose/landmark column pair
    /// read per row for `P·Hᵀ`, and a full read+write sweep of every row
    /// for the `(I − KH)·P` rebuild — the paper's ">85 % in matrix ops"
    /// working set.
    pub fn update<T: MemTrace + ?Sized>(
        &mut self,
        id: usize,
        range: f64,
        bearing: f64,
        profiler: &mut Profiler,
        trace: &mut T,
    ) {
        assert!(id < self.config.max_landmarks, "landmark id out of range");
        let lx_idx = 3 + 2 * id;
        let ly_idx = lx_idx + 1;
        if let Some(g) = trace.gate() {
            let dim = self.dim() as u64;
            let row_bytes = dim * 8;
            trace.read(STATE_REGION, g);
            trace.read(STATE_REGION + lx_idx as u64 * 8, g);
            // H·P: the five active rows in full.
            for &r in &[0usize, 1, 2, lx_idx, ly_idx] {
                trace_span(trace, r as u64 * row_bytes, row_bytes, false, g);
            }
            for i in 0..dim {
                // P·Hᵀ: pose and landmark columns of every row.
                trace.read(i * row_bytes, g);
                trace.read(i * row_bytes + lx_idx as u64 * 8, g);
                // (I − KH)·P rebuild writes every row.
                trace_span(trace, i * row_bytes, row_bytes, true, g);
            }
            trace_span(trace, STATE_REGION, dim * 8, true, g);
        }

        if !self.seen[id] {
            // Initialize the landmark at the measured position.
            let theta = self.state[2];
            self.state[lx_idx] = self.state[0] + range * (theta + bearing).cos();
            self.state[ly_idx] = self.state[1] + range * (theta + bearing).sin();
            self.seen[id] = true;
        }

        let dx = self.state[lx_idx] - self.state[0];
        let dy = self.state[ly_idx] - self.state[1];
        let q = dx * dx + dy * dy;
        if q < 1e-12 {
            return; // Landmark on top of the robot: unobservable bearing.
        }
        let sqrt_q = q.sqrt();

        // Measurement prediction and innovation.
        let predicted_range = sqrt_q;
        let predicted_bearing = normalize_angle(dy.atan2(dx) - self.state[2]);
        let innovation = [
            range - predicted_range,
            normalize_angle(bearing - predicted_bearing),
        ];

        self.update_sparse(lx_idx, ly_idx, dx, dy, q, sqrt_q, innovation, profiler);
        self.state[2] = normalize_angle(self.state[2]);
        self.updates += 1;
    }

    /// Block-sparse workspace update.
    ///
    /// `H` is nonzero only in five columns (robot pose + this landmark), so
    /// every product against it needs only those rows/columns of `P`. The
    /// dense `rtr_linalg` kernels skip zero multiplier entries, which makes
    /// the equivalence with a full `dim × dim` update exact rather than
    /// approximate: each surviving term below is the same product the
    /// dense update computes, in the same ascending-`k` position of the
    /// same accumulator. The dense update's extra terms all carry a
    /// structural `+0.0` from `H` (or from `KH` at structural columns,
    /// which is always `+0.0` because every accumulator starts at `+0.0`
    /// and `(+0.0) + (±0.0) == +0.0`), and adding `±0.0` to a
    /// non-negative-zero float never changes its bits. A proptest in
    /// `rtr-bench` holds this filter bit-identical to a dense reference.
    #[allow(
        clippy::too_many_arguments,
        reason = "the caller's per-observation scalars, passed as computed; one private call site"
    )]
    fn update_sparse(
        &mut self,
        lx_idx: usize,
        ly_idx: usize,
        dx: f64,
        dy: f64,
        q: f64,
        sqrt_q: f64,
        innovation: [f64; 2],
        profiler: &mut Profiler,
    ) {
        let dim = self.dim();
        // The five columns where H can be nonzero, ascending (lx_idx ≥ 3).
        let active = [0usize, 1, 2, lx_idx, ly_idx];
        let h0 = [-dx / sqrt_q, -dy / sqrt_q, 0.0, dx / sqrt_q, dy / sqrt_q];
        let h1 = [dy / q, -dx / q, -1.0, -dy / q, dx / q];

        let cov = &self.cov;
        let ws = &mut self.ws;
        let (gain, new_cov) = profiler.time("matrix_ops", || {
            // hp = H·P: only the five active rows of P contribute; same
            // ascending-k saxpy order and zero skip as the dense kernel.
            let mut hp = ws.matrix(2, dim);
            for i in 0..2 {
                let hvals = if i == 0 { h0 } else { h1 };
                for (t, &c) in active.iter().enumerate() {
                    let a = hvals[t];
                    if a == 0.0 {
                        continue;
                    }
                    let src = cov.row(c);
                    for (o, &b) in hp.row_mut(i).iter_mut().zip(src.iter()) {
                        *o += a * b;
                    }
                }
            }

            // Dense copy of H's two rows, for the full-k passes below that
            // replicate the dense path's term-for-term accumulation.
            let mut hd = ws.matrix(2, dim);
            for (t, &c) in active.iter().enumerate() {
                hd[(0, c)] = h0[t];
                hd[(1, c)] = h1[t];
            }

            // s = hp·Hᵀ + R, replicating mul_transposed's full-k dot (the
            // skip there is on hp's entries, not H's) plus the elementwise
            // R add.
            let mut s = [0.0f64; 4];
            for j in 0..2 {
                for i in 0..2 {
                    let mut acc = 0.0;
                    let hrow = hd.row(j);
                    for (k, &a) in hp.row(i).iter().enumerate() {
                        if a != 0.0 {
                            acc += a * hrow[k];
                        }
                    }
                    s[i * 2 + j] = acc;
                }
            }
            s[0] += R_RANGE;
            s[1] += 0.0;
            s[2] += 0.0;
            s[3] += R_BEARING;

            // 2×2 LU inverse with partial pivoting: the Lu::new / Lu::solve
            // arithmetic specialized to n = 2 on stack storage (same 1e-13
            // pivot tolerance).
            let mut lu = s;
            let mut perm = [0usize, 1];
            if lu[2].abs() > lu[0].abs() {
                lu.swap(0, 2);
                lu.swap(1, 3);
                perm.swap(0, 1);
            }
            assert!(lu[0].abs() > 1e-13, "innovation covariance is SPD");
            let factor = lu[2] / lu[0];
            lu[2] = factor;
            lu[3] -= factor * lu[1];
            assert!(lu[3].abs() > 1e-13, "innovation covariance is SPD");
            let mut s_inv = [0.0f64; 4];
            for c in 0..2 {
                let e = [(c == 0) as u8 as f64, (c == 1) as u8 as f64];
                let mut x = [e[perm[0]], e[perm[1]]];
                x[1] -= lu[2] * x[0];
                x[1] /= lu[3];
                x[0] = (x[0] - lu[1] * x[1]) / lu[0];
                s_inv[c] = x[0];
                s_inv[2 + c] = x[1];
            }

            // pht = P·Hᵀ: per row of P, only the five active columns carry
            // nonzero Hᵀ rows; skip on P's entry matches the dense kernel.
            let mut pht = ws.matrix(dim, 2);
            for i in 0..dim {
                let crow = cov.row(i);
                let prow = pht.row_mut(i);
                for (t, &c) in active.iter().enumerate() {
                    let a = crow[c];
                    if a == 0.0 {
                        continue;
                    }
                    prow[0] += a * h0[t];
                    prow[1] += a * h1[t];
                }
            }

            // K = pht·S⁻¹ (exact small product, same skip).
            let mut gain = ws.matrix(dim, 2);
            for i in 0..dim {
                let prow = pht.row(i);
                let grow = gain.row_mut(i);
                for l in 0..2 {
                    let a = prow[l];
                    if a == 0.0 {
                        continue;
                    }
                    grow[0] += a * s_inv[l * 2];
                    grow[1] += a * s_inv[l * 2 + 1];
                }
            }

            // P ← (I − KH)·P, row by row. Row i of (I − KH) is nonzero only
            // at the active columns and the diagonal, so each row of the new
            // P is a ≤6-term combination of rows of the old P — the O(dim²)
            // core of the sparse update.
            let mut p = ws.matrix(dim, dim);
            for i in 0..dim {
                let k0 = gain[(i, 0)];
                let k1 = gain[(i, 1)];
                // Merged ascending walk of active ∪ {i}.
                let mut cols = [0usize; 6];
                let mut ncols = 0;
                let mut inserted = false;
                for &c in &active {
                    if !inserted && i < c {
                        cols[ncols] = i;
                        ncols += 1;
                        inserted = true;
                    }
                    if c == i {
                        inserted = true;
                    }
                    cols[ncols] = c;
                    ncols += 1;
                }
                if !inserted {
                    cols[ncols] = i;
                    ncols += 1;
                }
                for &c in &cols[..ncols] {
                    // (KH)[i][c] with the dense kernel's j-ascending skip.
                    let mut kh = 0.0;
                    if k0 != 0.0 {
                        kh += k0 * hd[(0, c)];
                    }
                    if k1 != 0.0 {
                        kh += k1 * hd[(1, c)];
                    }
                    let coef = if c == i { 1.0 - kh } else { 0.0 - kh };
                    if coef == 0.0 {
                        continue;
                    }
                    let src = cov.row(c);
                    for (o, &b) in p.row_mut(i).iter_mut().zip(src.iter()) {
                        *o += coef * b;
                    }
                }
            }
            p.symmetrize_mut();

            ws.recycle_matrix(hp);
            ws.recycle_matrix(hd);
            ws.recycle_matrix(pht);
            (gain, p)
        });

        let old = std::mem::replace(&mut self.cov, new_cov);
        self.ws.recycle_matrix(old);

        let mut innov = self.ws.vector(2);
        innov[0] = innovation[0];
        innov[1] = innovation[1];
        let mut correction = self.ws.vector(dim);
        gain.mul_vector_into(&innov, &mut correction)
            .expect("shape");
        self.state += &correction;
        self.ws.recycle_vector(innov);
        self.ws.recycle_vector(correction);
        self.ws.recycle_matrix(gain);
    }

    /// Advances the filter by one recorded [`SlamStep`]: one prediction
    /// plus an update per observation the step carries. Returns the
    /// post-step position error against the step's ground truth — the
    /// quantity [`EkfSlam::run`] accumulates into `mean_pose_error`.
    /// Calling this for every step in order is exactly the one-shot run,
    /// bit for bit. Steady-state calls are allocation-free (workspace
    /// buffers recycle after warmup).
    pub fn process_step<T: MemTrace + ?Sized>(
        &mut self,
        step: &SlamStep,
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> f64 {
        self.predict(step.v, step.omega, profiler, &mut *trace);
        for obs in &step.observations {
            self.update(
                obs.landmark_id,
                obs.range,
                obs.bearing,
                profiler,
                &mut *trace,
            );
        }
        self.pose().position().distance(step.true_pose.position())
    }

    /// Assembles the run result from the filter's current state.
    /// `pose_error_sum` is the sum of [`EkfSlam::process_step`] returns
    /// over the `steps_processed` steps driven so far.
    pub fn result(
        &self,
        true_landmarks: Option<&[Point2]>,
        pose_error_sum: f64,
        steps_processed: usize,
    ) -> EkfSlamResult {
        let landmarks: Vec<(usize, Point2)> = (0..self.config.max_landmarks)
            .filter_map(|id| self.landmark(id).map(|p| (id, p)))
            .collect();
        let landmark_rmse = true_landmarks.map(|truth| {
            let mut sum = 0.0;
            let mut count = 0usize;
            for (id, est) in &landmarks {
                if let Some(t) = truth.get(*id) {
                    sum += est.distance_squared(*t);
                    count += 1;
                }
            }
            if count == 0 {
                f64::INFINITY
            } else {
                (sum / count as f64).sqrt()
            }
        });

        EkfSlamResult {
            pose: self.pose(),
            landmarks,
            landmark_rmse,
            mean_pose_error: if steps_processed == 0 {
                None
            } else {
                Some(pose_error_sum / steps_processed as f64)
            },
            covariance_trace: self.cov.trace(),
            updates: self.updates,
        }
    }

    /// Runs the filter over a recorded drive; `true_landmarks` (when given)
    /// is used only to score the final map.
    pub fn run<T: MemTrace + ?Sized>(
        &mut self,
        steps: &[SlamStep],
        true_landmarks: Option<&[Point2]>,
        profiler: &mut Profiler,
        trace: &mut T,
    ) -> EkfSlamResult {
        let mut pose_error_sum = 0.0;
        for step in steps {
            pose_error_sum += self.process_step(step, profiler, &mut *trace);
        }
        self.result(true_landmarks, pose_error_sum, steps.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_sim::{SimRng, SlamWorld};
    use rtr_trace::{CountingTrace, NullTrace};

    #[test]
    fn traced_run_is_bit_identical() {
        let world = SlamWorld::six_landmark_demo();
        let mut rng = SimRng::seed_from(9);
        let log = world.simulate_circuit(60, &mut rng);
        let mut profiler = Profiler::new();

        let mut plain_ekf = EkfSlam::new(EkfSlamConfig::default());
        let plain = plain_ekf.run(&log, None, &mut profiler, &mut NullTrace);

        let mut counts = CountingTrace::default();
        let mut traced_ekf = EkfSlam::new(EkfSlamConfig::default());
        let traced = traced_ekf.run(&log, None, &mut profiler, &mut counts);
        assert_eq!(
            traced.covariance_trace.to_bits(),
            plain.covariance_trace.to_bits()
        );
        assert_eq!(traced.updates, plain.updates);
        assert!(counts.reads > traced.updates);
        assert!(counts.writes > traced.updates);
    }

    fn run_demo(steps: usize, seed: u64) -> (EkfSlamResult, Profiler, SlamWorld) {
        let world = SlamWorld::six_landmark_demo();
        let mut rng = SimRng::seed_from(seed);
        let log = world.simulate_circuit(steps, &mut rng);
        let mut ekf = EkfSlam::new(EkfSlamConfig::default());
        let mut profiler = Profiler::new();
        let result = ekf.run(&log, Some(world.landmarks()), &mut profiler, &mut NullTrace);
        profiler.freeze_total();
        (result, profiler, world)
    }

    #[test]
    fn maps_all_landmarks() {
        let (result, _, world) = run_demo(150, 1);
        assert_eq!(result.landmarks.len(), world.landmarks().len());
    }

    #[test]
    fn landmark_estimates_are_accurate() {
        let (result, _, _) = run_demo(200, 2);
        let rmse = result.landmark_rmse.unwrap();
        assert!(rmse < 0.5, "landmark RMSE too high: {rmse} m");
    }

    #[test]
    fn pose_tracking_stays_bounded() {
        let (result, _, _) = run_demo(200, 3);
        let err = result.mean_pose_error.unwrap();
        assert!(err < 1.0, "mean pose error too high: {err} m");
    }

    #[test]
    fn uncertainty_shrinks_with_observations() {
        let world = SlamWorld::six_landmark_demo();
        let mut rng = SimRng::seed_from(4);
        let log = world.simulate_circuit(100, &mut rng);
        let mut ekf = EkfSlam::new(EkfSlamConfig::default());
        let mut profiler = Profiler::new();
        ekf.run(&log[..10], None, &mut profiler, &mut NullTrace);
        let early: f64 = (0..6)
            .filter_map(|id| ekf.landmark_covariance(id))
            .map(|c| c.trace())
            .sum();
        ekf.run(&log[10..], None, &mut profiler, &mut NullTrace);
        let late: f64 = (0..6)
            .filter_map(|id| ekf.landmark_covariance(id))
            .map(|c| c.trace())
            .sum();
        assert!(late < early, "uncertainty should shrink: {early} -> {late}");
    }

    #[test]
    fn covariance_stays_symmetric_positive() {
        let world = SlamWorld::six_landmark_demo();
        let mut rng = SimRng::seed_from(5);
        let log = world.simulate_circuit(80, &mut rng);
        let mut ekf = EkfSlam::new(EkfSlamConfig::default());
        let mut profiler = Profiler::new();
        ekf.run(&log, None, &mut profiler, &mut NullTrace);
        assert!(ekf.cov.is_symmetric(1e-9));
        // All marginal landmark variances are positive.
        for id in 0..6 {
            if let Some(c) = ekf.landmark_covariance(id) {
                assert!(c[(0, 0)] > 0.0);
                assert!(c[(1, 1)] > 0.0);
            }
        }
    }

    #[test]
    fn matrix_ops_dominate_profile() {
        let (_, profiler, _) = run_demo(150, 6);
        let frac = profiler.fraction("matrix_ops");
        assert!(frac > 0.6, "matrix ops fraction only {frac}");
    }

    #[test]
    fn unseen_landmark_is_none() {
        let ekf = EkfSlam::new(EkfSlamConfig::default());
        assert!(ekf.landmark(0).is_none());
        assert!(ekf.landmark_covariance(0).is_none());
        assert!(ekf.landmark(99).is_none());
    }

    #[test]
    fn prediction_moves_pose_forward() {
        let mut ekf = EkfSlam::new(EkfSlamConfig {
            initial_pose: Pose2::new(0.0, 0.0, 0.0),
            ..Default::default()
        });
        let mut profiler = Profiler::new();
        ekf.predict(1.0, 0.0, &mut profiler, &mut NullTrace);
        assert!((ekf.pose().x - 1.0).abs() < 1e-12);
        // Pose uncertainty grew.
        assert!(ekf.cov[(0, 0)] > 0.0);
    }

    #[test]
    fn workspace_allocations_plateau_after_first_step() {
        let world = SlamWorld::six_landmark_demo();
        let mut rng = SimRng::seed_from(12);
        let log = world.simulate_circuit(60, &mut rng);
        let mut profiler = Profiler::new();
        let mut ekf = EkfSlam::new(EkfSlamConfig::default());
        ekf.run(&log[..5], None, &mut profiler, &mut NullTrace);
        let warm = ekf.workspace_allocations();
        ekf.run(&log[5..], None, &mut profiler, &mut NullTrace);
        assert_eq!(
            ekf.workspace_allocations(),
            warm,
            "EKF hot loop allocated after warmup"
        );
    }
}
