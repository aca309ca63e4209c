//! EXP-T1 — regenerates **Table I**: every kernel with its pipeline stage,
//! the bottleneck the paper lists, and the bottleneck *we measure* (the
//! dominant profiler region of a default-configuration run).
//!
//! ```text
//! cargo run --release -p rtr-bench --bin exp_table1
//! ```

use rtr_core::registry;
use rtr_harness::{Args, Table};

/// Maps our profiler region names onto the paper's bottleneck vocabulary.
fn pretty(region: &str) -> &str {
    match region {
        "ray_casting" => "Ray-casting",
        "matrix_ops" => "Matrix operations",
        "nn_search" => "Nearest neighbor search / point cloud ops",
        "kdtree_build" => "Point cloud operations",
        "collision_detection" => "Collision detection",
        "graph_search" => "Graph search",
        "heuristic_calc" => "Heuristic calculation",
        "offline_build" => "Offline roadmap build",
        "online_connect" => "L2-norm calculations",
        "string_ops" => "String manipulation",
        "grounding" => "String manipulation (grounding)",
        "integration" => "Serial integration",
        "optimize" => "Optimization",
        "sort" => "Sort",
        "acquisition" => "Acquisition (GP evaluation)",
        "gp_fit" => "GP fit (matrix operations)",
        "sample" | "sampling" => "Sampling",
        "simulate" => "Simulation",
        other => other,
    }
}

fn main() {
    rtr_bench::parse_args("exp_table1", &[]);
    println!("EXP-T1: Table I — kernels, stages and measured bottlenecks\n");
    let mut table = Table::new(&[
        "kernel",
        "stage",
        "paper bottleneck",
        "measured dominant region",
        "share",
    ]);
    let args = Args::parse_tokens(&[]).expect("empty args");
    for kernel in registry() {
        match kernel.run(&args) {
            Ok(report) => {
                let dominant = report.dominant_region();
                table.row_owned(vec![
                    report.name.to_owned(),
                    report.stage.to_string(),
                    kernel.table1_bottleneck().to_owned(),
                    dominant
                        .map(|r| pretty(&r.name).to_owned())
                        .unwrap_or_default(),
                    dominant
                        .map(|r| format!("{:.0}%", r.fraction * 100.0))
                        .unwrap_or_default(),
                ]);
            }
            Err(err) => {
                table.row_owned(vec![
                    kernel.name().to_owned(),
                    kernel.stage().to_string(),
                    kernel.table1_bottleneck().to_owned(),
                    format!("error: {err}"),
                    String::new(),
                ]);
            }
        }
    }
    print!("{table}");
    println!(
        "\nNotes: measured regions are wall-clock shares on this host; the paper's\n\
         Table I lists the architectural bottleneck of each kernel, which may\n\
         combine several of our regions (e.g. 'point cloud operations' covers\n\
         nn_search + kdtree_build for 03.srec)."
    );
}
