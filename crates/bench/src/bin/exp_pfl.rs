//! EXP-PFL / EXP-F2 — regenerates **Fig. 2** (particle-filter
//! convergence) and the §V.01 finding that ray-casting takes **67–78 %**
//! of execution time, across five regions of the building.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin exp_pfl
//! ```

use rtr_bench::parse_args;
use rtr_core::kernels::perception::PflKernel;
use rtr_geom::maps;
use rtr_harness::{usage_error, OptionSpec, Profiler, Table};
use rtr_perception::{ParticleFilter, PflConfig, PflInit};
use rtr_trace::NullTrace;

const BIN: &str = "exp_pfl";

const OPTIONS: &[OptionSpec] = &[OptionSpec {
    name: "threads",
    help: "Worker threads (0 = one per core)",
}];

fn main() {
    let args = parse_args(BIN, OPTIONS);
    let threads = args.get_threads(0).unwrap_or_else(|e| usage_error(BIN, e));
    println!("EXP-PFL: particle-filter localization across five map regions\n");
    let map = maps::indoor_floor_plan(256, 0.1, 7);
    let mut table = Table::new(&[
        "region",
        "ray-casting share",
        "spread before (m)",
        "spread after (m)",
        "error (m)",
        "rays cast",
    ]);

    let mut shares = Vec::new();
    for region in 0..5 {
        let steps = PflKernel::drive_region(&map, region, region as u64 + 1);
        let mut profiler = Profiler::timed();
        let mut filter = ParticleFilter::new(
            PflConfig {
                particles: 800,
                seed: region as u64,
                threads,
                init: PflInit::AroundPose {
                    pose: steps[0].true_pose,
                    pos_std: 0.8,
                    theta_std: 0.4,
                },
                ..Default::default()
            },
            &map,
        );
        let result = filter.run(&steps, &mut profiler, &mut NullTrace);
        profiler.freeze_total();
        let share = profiler.fraction("ray_casting");
        shares.push(share);
        table.row_owned(vec![
            format!("{region}"),
            format!("{:.1}%", share * 100.0),
            format!("{:.3}", result.initial_spread),
            format!("{:.3}", result.final_spread),
            format!("{:.3}", result.final_error.unwrap_or(f64::NAN)),
            result.rays_cast.to_string(),
        ]);
    }
    print!("{table}");
    let lo = shares.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = shares.iter().copied().fold(0.0f64, f64::max);
    println!(
        "\nray-casting share across regions: {:.0}%–{:.0}%  (paper: 67%–78%)",
        lo * 100.0,
        hi * 100.0
    );
    println!("Fig. 2 signal: particle spread collapses after convergence in every region.");
}
