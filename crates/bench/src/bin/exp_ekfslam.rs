//! EXP-F3 / EXP-EKF — regenerates **Fig. 3** (EKF-SLAM estimates with
//! uncertainty ellipses) and the §V.02 finding that matrix operations take
//! **more than 85 %** of execution time.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin exp_ekfslam
//! ```

use rtr_harness::{Profiler, Table};
use rtr_perception::{EkfSlam, EkfSlamConfig};
use rtr_sim::{SimRng, SlamWorld};
use rtr_trace::NullTrace;

fn main() {
    rtr_bench::parse_args("exp_ekfslam", &[]);
    println!("EXP-F3: EKF-SLAM on the six-landmark loop (Fig. 3)\n");
    let world = SlamWorld::six_landmark_demo();
    let mut rng = SimRng::seed_from(1);
    let log = world.simulate_circuit(300, &mut rng);

    let mut ekf = EkfSlam::new(EkfSlamConfig::default());
    let mut profiler = Profiler::timed();
    let result = ekf.run(&log, Some(world.landmarks()), &mut profiler, &mut NullTrace);
    profiler.freeze_total();

    // Fig. 3-b: landmark estimates (green points) with uncertainty
    // (red ellipses, reported as the 2x2 marginal's std devs).
    let mut table = Table::new(&[
        "landmark",
        "true (x, y)",
        "estimated (x, y)",
        "error (m)",
        "sigma (x, y)",
    ]);
    for (id, estimate) in &result.landmarks {
        let truth = world.landmarks()[*id];
        let cov = ekf.landmark_covariance(*id).expect("initialized");
        table.row_owned(vec![
            id.to_string(),
            format!("({:.2}, {:.2})", truth.x, truth.y),
            format!("({:.2}, {:.2})", estimate.x, estimate.y),
            format!("{:.3}", truth.distance(*estimate)),
            format!("({:.3}, {:.3})", cov[(0, 0)].sqrt(), cov[(1, 1)].sqrt()),
        ]);
    }
    print!("{table}");

    println!(
        "\nlandmark RMSE: {:.3} m | mean pose error: {:.3} m | {} EKF updates",
        result.landmark_rmse.unwrap_or(f64::NAN),
        result.mean_pose_error.unwrap_or(f64::NAN),
        result.updates
    );
    println!(
        "matrix-operation share of execution: {:.1}%  (paper: > 85%)",
        profiler.fraction("matrix_ops") * 100.0
    );
}
