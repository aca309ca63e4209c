//! EXP-F15 — regenerates **Fig. 15** (§V.13): the DMP-generated trajectory
//! and velocity profile against the demonstration reference, plus the
//! serialization evidence (the rollout is one long dependent chain).
//!
//! ```text
//! cargo run --release -p rtr-bench --bin exp_dmp
//! ```

use rtr_bench::sparkline;
use rtr_control::dmp::wheeled_robot_demo;
use rtr_control::{Dmp, DmpConfig};
use rtr_harness::{Profiler, Table};
use rtr_trace::NullTrace;

fn main() {
    rtr_bench::parse_args("exp_dmp", &[]);
    println!("EXP-F15: dynamic movement primitives (Fig. 15)\n");
    let (demo, duration) = wheeled_robot_demo(400);
    let dmp = Dmp::learn(&demo, duration, DmpConfig::default());
    let mut profiler = Profiler::timed();
    let rollout = dmp.rollout(duration, &mut profiler, &mut NullTrace);

    // Fig. 15 left: trajectory (reference vs DMP) — sampled table.
    let mut table = Table::new(&["t (s)", "reference x (m)", "DMP x (m)", "DMP v (m/s)"]);
    let samples = 11;
    for i in 0..samples {
        let s = i as f64 / (samples - 1) as f64;
        let demo_idx = (s * (demo.len() - 1) as f64).round() as usize;
        let roll_idx = (s * (rollout.position.len() - 1) as f64).round() as usize;
        table.row_owned(vec![
            format!("{:.2}", s * duration),
            format!("{:.2}", demo[demo_idx][0]),
            format!("{:.2}", rollout.position[roll_idx][0]),
            format!("{:.2}", rollout.velocity[roll_idx][0]),
        ]);
    }
    print!("{table}");

    // Fig. 15 as sparklines: position (left) and velocity (right).
    let pos: Vec<f64> = rollout.position.iter().map(|p| p[0]).collect();
    let vel: Vec<f64> = rollout.velocity.iter().map(|v| v[0]).collect();
    let sway: Vec<f64> = rollout.position.iter().map(|p| p[1]).collect();
    println!("\nposition |{}|", sparkline(&pos[..pos.len().min(120)]));
    println!("velocity |{}|", sparkline(&vel[..vel.len().min(120)]));
    println!("lateral  |{}|", sparkline(&sway[..sway.len().min(120)]));

    // Tracking quality + the serialization evidence.
    let mut max_err: f64 = 0.0;
    for (i, p) in rollout.position.iter().enumerate() {
        let s = i as f64 / (rollout.position.len() - 1) as f64;
        let demo_idx = (s * (demo.len() - 1) as f64).round() as usize;
        max_err = max_err.max((p[0] - demo[demo_idx][0]).abs());
    }
    profiler.freeze_total();
    println!(
        "\nmax tracking error: {:.3} m over a 15 m advance | integration steps: {}",
        max_err,
        rollout.t.len()
    );
    println!(
        "integration share of execution: {:.1}% — one serial dependent chain\n\
         (the paper's low-ILP finding: trajectory, velocity and acceleration\n\
         are all computed incrementally; IPC < 1 on the modeled core).",
        profiler.fraction("integration") * 100.0
    );
}
