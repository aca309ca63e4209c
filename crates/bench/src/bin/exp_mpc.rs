//! EXP-F16 — regenerates **Fig. 16** (§V.14): MPC following a long
//! reference trajectory under velocity/acceleration constraints, with the
//! optimization solve measured at **more than 80 %** of execution time.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin exp_mpc
//! ```

use rtr_bench::sparkline;
use rtr_control::mpc::winding_reference;
use rtr_control::{Mpc, MpcConfig};
use rtr_harness::{Profiler, Table};
use rtr_trace::NullTrace;

fn main() {
    rtr_bench::parse_args("exp_mpc", &[]);
    println!("EXP-F16: model predictive control along a winding road\n");
    let reference = winding_reference(400); // a 200 m reference
    let config = MpcConfig::default();
    let mut profiler = Profiler::timed();
    let result = Mpc::new(config).track(&reference, &mut profiler, &mut NullTrace);
    profiler.freeze_total();

    let mut table = Table::new(&["metric", "value"]);
    table.row_owned(vec![
        "reference length".into(),
        format!("{:.0} m", reference.len() as f64 * 0.5),
    ]);
    table.row_owned(vec![
        "mean tracking error".into(),
        format!("{:.3} m", result.mean_tracking_error),
    ]);
    table.row_owned(vec![
        "max tracking error".into(),
        format!("{:.3} m", result.max_tracking_error),
    ]);
    table.row_owned(vec![
        "max speed".into(),
        format!("{:.2} m/s (limit {:.1})", result.max_speed, config.v_max),
    ]);
    table.row_owned(vec![
        "max |accel|".into(),
        format!("{:.2} m/s2 (limit {:.1})", result.max_accel, config.a_max),
    ]);
    table.row_owned(vec![
        "optimizer iterations".into(),
        result.opt_iterations.to_string(),
    ]);
    print!("{table}");

    // Fig. 16 shape: the realized path follows the reference curves.
    let ref_y: Vec<f64> = reference.iter().map(|p| p.y).collect();
    let got_y: Vec<f64> = result.trace.iter().map(|p| p.y).collect();
    println!(
        "\nreference y |{}|",
        sparkline(&ref_y[..ref_y.len().min(120)])
    );
    println!(
        "realized  y |{}|",
        sparkline(&got_y[..got_y.len().min(120)])
    );

    println!("\ntime breakdown:");
    for region in profiler.report() {
        println!(
            "  {:<12} {:>9.1} ms  ({:>4.1}%)",
            region.name,
            region.total.as_secs_f64() * 1e3,
            region.fraction * 100.0
        );
    }
    println!(
        "\noptimization share: {:.1}%  (paper: > 80%)",
        profiler.fraction("optimize") * 100.0
    );
}
