//! EXP-F7 — regenerates **Fig. 7** (§V.06): catching a moving target with
//! Weighted A* over a time-expanded graph, and the input-dependence
//! finding — "in small environments ... the contribution of the heuristic
//! calculation latency to the end-to-end latency grows up to 62 %".
//!
//! ```text
//! cargo run --release -p rtr-bench --bin exp_movtar
//! ```

use rtr_harness::{Profiler, Table};
use rtr_planning::{movtar, MovingTarget, MovtarConfig};
use rtr_trace::NullTrace;

fn main() {
    rtr_bench::parse_args("exp_movtar", &[]);
    println!("EXP-F7: moving-target interception — environment-size sweep\n");
    let mut table = Table::new(&[
        "env size",
        "catch time",
        "WA* expanded",
        "heuristic share",
        "search share",
    ]);

    let mut shares = Vec::new();
    for &size in &[16usize, 24, 32, 48, 64, 96, 128] {
        let (field, start, trajectory) = movtar::synthetic_scenario(size, size * 2, 7);
        let mut profiler = Profiler::timed();
        let Some(result) = MovingTarget::new(MovtarConfig {
            start,
            target_trajectory: trajectory,
            epsilon: 1.0,
        })
        .plan(&field, &mut profiler, &mut NullTrace) else {
            table.row_owned(vec![size.to_string(), "escaped".into()]);
            continue;
        };
        let h = profiler.region_total("heuristic_calc").as_secs_f64();
        let s = profiler.region_total("graph_search").as_secs_f64();
        let h_share = h / (h + s);
        shares.push((size, h_share));
        table.row_owned(vec![
            size.to_string(),
            result.catch_time.to_string(),
            result.expanded.to_string(),
            format!("{:.1}%", h_share * 100.0),
            format!("{:.1}%", (1.0 - h_share) * 100.0),
        ]);
    }
    print!("{table}");

    if let (Some(first), Some(last)) = (shares.first(), shares.last()) {
        println!(
            "\nheuristic-calculation share: {:.0}% at size {} vs {:.0}% at size {}",
            first.1 * 100.0,
            first.0,
            last.1 * 100.0,
            last.0
        );
        println!(
            "paper's shape: the share grows as environments shrink (up to ~62%\n\
             in small environments), while large environments behave like pp3d."
        );
    }

    // WA* epsilon sweep on one environment: the speed/optimality trade.
    println!("\nWA* epsilon sweep (64-cell environment):");
    let (field, start, trajectory) = movtar::synthetic_scenario(64, 128, 7);
    let mut sweep = Table::new(&["epsilon", "path cost", "expanded"]);
    for &eps in &[1.0, 1.5, 2.0, 3.0, 5.0] {
        let mut profiler = Profiler::timed();
        if let Some(result) = MovingTarget::new(MovtarConfig {
            start,
            target_trajectory: trajectory.clone(),
            epsilon: eps,
        })
        .plan(&field, &mut profiler, &mut NullTrace)
        {
            sweep.row_owned(vec![
                format!("{eps:.1}"),
                format!("{:.1}", result.cost),
                result.expanded.to_string(),
            ]);
        }
    }
    print!("{sweep}");
}
