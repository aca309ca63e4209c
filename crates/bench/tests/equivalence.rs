//! Bit-identity of the workspace/sparse fast paths against allocating
//! references.
//!
//! The allocation-free rewrites (EKF-SLAM's block-sparse update, the GP's
//! pooled posterior queries) carry the same contract as the thread-count
//! knob in `determinism.rs`: for every seed and problem size they must
//! reproduce the straightforward allocating formulation **bit for bit**
//! (`to_bits`, no tolerances), and their workspaces must stop allocating
//! after warmup. The dense EKF reference lives here, next to the only test
//! that uses it; the MPC solver's allocating reference sits in the
//! `rtr-control` unit tests for the same reason.

use proptest::prelude::*;
use rtr_control::GaussianProcess;
use rtr_geom::{normalize_angle, Point2};
use rtr_harness::Profiler;
use rtr_linalg::{Matrix, Vector, Workspace};
use rtr_perception::ekfslam::{Q_ROT, Q_TRANS, R_BEARING, R_RANGE};
use rtr_perception::{EkfSlam, EkfSlamConfig, EkfSlamResult};
use rtr_sim::{SimRng, SlamStep, SlamWorld};
use rtr_trace::NullTrace;

fn bits(x: f64) -> u64 {
    x.to_bits()
}

fn ring_world(n_landmarks: usize) -> SlamWorld {
    let landmarks = (0..n_landmarks)
        .map(|i| {
            let a = i as f64 / n_landmarks as f64 * std::f64::consts::TAU;
            Point2::new(10.0 + 6.0 * a.cos(), 6.0 + 5.0 * a.sin())
        })
        .collect();
    SlamWorld::new(landmarks, 12.0, 0.1, 0.02)
}

/// Full-matrix EKF-SLAM built only on `rtr_linalg`'s public allocating
/// ops: every per-landmark product runs over all `dim × dim` covariance
/// entries and allocates fresh temporaries. The reference `EkfSlam`'s
/// block-sparse workspace update must reproduce bit for bit.
struct DenseEkf {
    config: EkfSlamConfig,
    state: Vector,
    cov: Matrix,
    seen: Vec<bool>,
    updates: u64,
}

impl DenseEkf {
    fn new(config: EkfSlamConfig) -> Self {
        let dim = 3 + 2 * config.max_landmarks;
        let mut state = Vector::zeros(dim);
        state[0] = config.initial_pose.x;
        state[1] = config.initial_pose.y;
        state[2] = config.initial_pose.theta;
        let mut cov = Matrix::zeros(dim, dim);
        for i in 3..dim {
            cov[(i, i)] = 1e6;
        }
        DenseEkf {
            seen: vec![false; config.max_landmarks],
            config,
            state,
            cov,
            updates: 0,
        }
    }

    fn predict(&mut self, v: f64, omega: f64) {
        let theta = self.state[2];
        self.state[0] += v * theta.cos();
        self.state[1] += v * theta.sin();
        self.state[2] = normalize_angle(self.state[2] + omega);

        let dim = self.state.len();
        let mut f = Matrix::identity(dim);
        f[(0, 2)] = -v * theta.sin();
        f[(1, 2)] = v * theta.cos();
        let mut q = Matrix::zeros(dim, dim);
        q[(0, 0)] = Q_TRANS;
        q[(1, 1)] = Q_TRANS;
        q[(2, 2)] = Q_ROT;
        let mut p = f.congruence(&self.cov).expect("shape");
        p += &q;
        p.symmetrize_mut();
        self.cov = p;
    }

    fn update(&mut self, id: usize, range: f64, bearing: f64) {
        let lx_idx = 3 + 2 * id;
        let ly_idx = lx_idx + 1;
        if !self.seen[id] {
            let theta = self.state[2];
            self.state[lx_idx] = self.state[0] + range * (theta + bearing).cos();
            self.state[ly_idx] = self.state[1] + range * (theta + bearing).sin();
            self.seen[id] = true;
        }
        let dx = self.state[lx_idx] - self.state[0];
        let dy = self.state[ly_idx] - self.state[1];
        let q = dx * dx + dy * dy;
        if q < 1e-12 {
            return;
        }
        let sqrt_q = q.sqrt();
        let predicted_bearing = normalize_angle(dy.atan2(dx) - self.state[2]);
        let innovation =
            Vector::from_slice(&[range - sqrt_q, normalize_angle(bearing - predicted_bearing)]);

        let dim = self.state.len();
        let mut h = Matrix::zeros(2, dim);
        h[(0, 0)] = -dx / sqrt_q;
        h[(0, 1)] = -dy / sqrt_q;
        h[(0, lx_idx)] = dx / sqrt_q;
        h[(0, ly_idx)] = dy / sqrt_q;
        h[(1, 0)] = dy / q;
        h[(1, 1)] = -dx / q;
        h[(1, 2)] = -1.0;
        h[(1, lx_idx)] = -dy / q;
        h[(1, ly_idx)] = dx / q;
        let r = Matrix::from_diagonal(&[R_RANGE, R_BEARING]);

        let cov = &self.cov;
        let s = &h.congruence(cov).expect("shape") + &r;
        let s_inv = s.inverse().expect("innovation covariance is SPD");
        let pht = cov.mul_matrix(&h.transpose()).expect("shape");
        let gain = pht.mul_matrix(&s_inv).expect("shape");
        let kh = gain.mul_matrix(&h).expect("shape");
        let i_kh = &Matrix::identity(dim) - &kh;
        let mut p = i_kh.mul_matrix(cov).expect("shape");
        p.symmetrize_mut();
        self.cov = p;

        self.state += &gain.mul_vector(&innovation).expect("shape");
        self.state[2] = normalize_angle(self.state[2]);
        self.updates += 1;
    }

    /// Runs every step; returns the summed post-step position error.
    fn run(&mut self, steps: &[SlamStep]) -> f64 {
        let mut pose_error_sum = 0.0;
        for step in steps {
            self.predict(step.v, step.omega);
            for obs in &step.observations {
                self.update(obs.landmark_id, obs.range, obs.bearing);
            }
            let position = Point2::new(self.state[0], self.state[1]);
            pose_error_sum += position.distance(step.true_pose.position());
        }
        pose_error_sum
    }

    fn landmark(&self, id: usize) -> Option<Point2> {
        self.seen[id].then(|| Point2::new(self.state[3 + 2 * id], self.state[4 + 2 * id]))
    }

    /// RMS landmark error over the initialized landmarks, summed in id
    /// order like `EkfSlam::result`.
    fn landmark_rmse(&self, truth: &[Point2]) -> f64 {
        let (mut sum, mut count) = (0.0, 0usize);
        for id in 0..self.config.max_landmarks {
            if let (Some(est), Some(t)) = (self.landmark(id), truth.get(id)) {
                sum += est.distance_squared(*t);
                count += 1;
            }
        }
        if count == 0 {
            f64::INFINITY
        } else {
            (sum / count as f64).sqrt()
        }
    }
}

fn run_ekf(
    world: &SlamWorld,
    seed: u64,
    steps: usize,
    n_landmarks: usize,
) -> (EkfSlam, EkfSlamResult) {
    let mut rng = SimRng::seed_from(seed);
    let log = world.simulate_circuit(steps, &mut rng);
    let mut ekf = EkfSlam::new(EkfSlamConfig {
        max_landmarks: n_landmarks,
        ..Default::default()
    });
    let mut profiler = Profiler::new();
    let result = ekf.run(&log, Some(world.landmarks()), &mut profiler, &mut NullTrace);
    (ekf, result)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn ekf_sparse_update_is_bit_identical_to_dense(
        seed in 0u64..1 << 32,
        n_landmarks in 4usize..24,
        steps in 40usize..120,
    ) {
        let world = ring_world(n_landmarks);
        let (sparse, sparse_r) = run_ekf(&world, seed, steps, n_landmarks);
        let mut dense = DenseEkf::new(EkfSlamConfig {
            max_landmarks: n_landmarks,
            ..Default::default()
        });
        let log = world.simulate_circuit(steps, &mut SimRng::seed_from(seed));
        let pose_error_sum = dense.run(&log);

        prop_assert_eq!(dense.updates, sparse_r.updates);
        prop_assert_eq!(bits(dense.cov.trace()), bits(sparse_r.covariance_trace));
        prop_assert_eq!(
            Some(bits(dense.landmark_rmse(world.landmarks()))),
            sparse_r.landmark_rmse.map(bits)
        );
        prop_assert_eq!(
            Some(bits(pose_error_sum / steps as f64)),
            sparse_r.mean_pose_error.map(bits)
        );
        let sp = sparse.pose();
        prop_assert_eq!(bits(dense.state[0]), bits(sp.x));
        prop_assert_eq!(bits(dense.state[1]), bits(sp.y));
        prop_assert_eq!(bits(dense.state[2]), bits(sp.theta));
        for id in 0..n_landmarks {
            match (dense.landmark(id), sparse.landmark(id)) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(bits(a.x), bits(b.x), "landmark {} x", id);
                    prop_assert_eq!(bits(a.y), bits(b.y), "landmark {} y", id);
                    let ca = dense.cov.block(3 + 2 * id, 3 + 2 * id, 2, 2);
                    let cb = sparse.landmark_covariance(id).unwrap();
                    for (ea, eb) in ca.as_slice().iter().zip(cb.as_slice()) {
                        prop_assert_eq!(bits(*ea), bits(*eb), "landmark {} cov", id);
                    }
                }
                (None, None) => {}
                (a, b) => prop_assert!(false, "landmark {} seen mismatch: {:?} vs {:?}", id, a, b),
            }
        }
        prop_assert!(sparse.workspace_allocations() > 0);
    }

    #[test]
    fn gp_workspace_queries_match_allocating_predict(
        seed in 0u64..1 << 32,
        n_train in 3usize..24,
        n_query in 1usize..40,
    ) {
        let mut rng = SimRng::seed_from(seed);
        let xs: Vec<Vec<f64>> = (0..n_train)
            .map(|_| vec![rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (x[0] * 1.3).sin() + 0.25 * x[1] * x[1])
            .collect();
        let gp = GaussianProcess::fit(&xs, &ys, 0.9, 1.0, 1e-6).expect("jittered kernel is SPD");
        let mut ws = Workspace::new();
        for _ in 0..n_query {
            let x = [rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)];
            let (m0, v0) = gp.predict(&x);
            let (m1, v1) = gp.predict_with(&x, &mut ws);
            prop_assert_eq!(bits(m0), bits(m1));
            prop_assert_eq!(bits(v0), bits(v1));
        }
        // k_star + forward-solve buffer: two allocations for the whole
        // query sweep, however many queries ran.
        prop_assert_eq!(ws.allocations(), 2);
    }
}

/// Allocation regression at full kernel scale: a long EKF run must not
/// allocate any more than a short one once the pool is warm.
#[test]
fn ekf_workspace_allocations_plateau_at_scale() {
    let world = ring_world(12);
    let (short, _) = run_ekf(&world, 7, 30, 12);
    let (long, _) = run_ekf(&world, 7, 240, 12);
    assert!(short.workspace_allocations() > 0);
    assert_eq!(
        short.workspace_allocations(),
        long.workspace_allocations(),
        "EKF workspace must stop allocating after warmup"
    );
}
