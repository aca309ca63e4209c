//! EXP-F21 — regenerates **Fig. 21** (§VII): execution time of the tuned
//! `pp2d` planner against PythonRobotics-style and CppRobotics-style
//! baselines on the `a_star.py` demo map, scaled by factors 1–64.
//!
//! The paper measures 357×–3469× over P-Rob and 74×–13576× over C-Rob;
//! the Python interpreter is out of scope here, so the expected *shape* is
//! the RTRBench column staying orders of magnitude below both baselines
//! with the gap growing with scale (the baselines are quadratic-ish in the
//! open-list size).
//!
//! ```text
//! cargo run --release -p rtr-bench --bin exp_librarycomp [--max-scale 64]
//! ```

use rtr_baselines::{CRobAstar, PRobAstar};
use rtr_bench::parse_args;
use rtr_bench::{eng, time_once};
use rtr_geom::{maps, Footprint};
use rtr_harness::{usage_error, OptionSpec, Profiler, Table};
use rtr_planning::{Pp2d, Pp2dConfig};
use rtr_trace::NullTrace;

const BIN: &str = "exp_librarycomp";

const OPTIONS: &[OptionSpec] = &[OptionSpec {
    name: "max-scale",
    help: "Largest map scale factor swept",
}];

fn main() {
    let args = parse_args(BIN, OPTIONS);
    let max_scale = args
        .get_usize("max-scale", 8)
        .unwrap_or_else(|e| usage_error(BIN, e));
    println!("EXP-F21: library comparison on the PythonRobotics demo map (Fig. 21)\n");
    println!("(--max-scale {max_scale}; the paper sweeps to 64 — the baselines' cost");
    println!(" grows superlinearly, so large scales take correspondingly long)\n");

    let base_map = maps::pythonrobotics_map();
    let mut table = Table::new(&[
        "scale",
        "P-Rob style (s)",
        "C-Rob style (s)",
        "RTRBench (s)",
        "speedup vs P",
        "speedup vs C",
    ]);

    let mut scale = 1usize;
    while scale <= max_scale {
        let map = base_map.upscaled(scale);
        let start = (
            maps::PYTHONROBOTICS_START.0 * scale,
            maps::PYTHONROBOTICS_START.1 * scale,
        );
        let goal = (
            maps::PYTHONROBOTICS_GOAL.0 * scale,
            maps::PYTHONROBOTICS_GOAL.1 * scale,
        );

        let (p_res, p_time) = time_once(|| PRobAstar::plan(&map, start, goal));
        let (c_res, c_time) = time_once(|| CRobAstar::plan(&map, start, goal));
        let (r_res, r_time) = time_once(|| {
            let mut profiler = Profiler::timed();
            // Point-like footprint: the baselines are point planners.
            Pp2d::new(Pp2dConfig {
                start,
                goal,
                footprint: Footprint::new(map.resolution() * 0.5, map.resolution() * 0.5),
                weight: 1.0,
            })
            .plan(&map, &mut profiler, &mut NullTrace)
        });
        assert!(
            p_res.is_some() && c_res.is_some() && r_res.is_some(),
            "all planners must solve the demo map at scale {scale}"
        );
        // Sanity: all three find optimal-cost paths (same algorithm).
        let p_cost = p_res.unwrap().cost;
        let r_cost = r_res.unwrap().cost / map.resolution();
        assert!(
            (p_cost - r_cost).abs() < 1e-6,
            "cost mismatch at scale {scale}: {p_cost} vs {r_cost}"
        );

        let p = p_time.as_secs_f64();
        let c = c_time.as_secs_f64();
        let r = r_time.as_secs_f64().max(1e-9);
        table.row_owned(vec![
            scale.to_string(),
            eng(p),
            eng(c),
            eng(r),
            format!("{:.0}x", p / r),
            format!("{:.0}x", c / r),
        ]);
        scale *= 2;
    }
    print!("{table}");
    println!(
        "\npaper's Fig. 21-b: RTRBench 357x-3469x over P-Rob (with the Python\n\
         interpreter) and 74x-13576x over C-Rob; reproduced shape: the tuned\n\
         implementation wins by orders of magnitude and the gap grows with scale."
    );
}
