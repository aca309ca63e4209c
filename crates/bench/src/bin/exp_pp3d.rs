//! EXP-F6 — regenerates **Fig. 6** (§V.05): 3D UAV path planning over the
//! campus map, the collision/graph-search breakdown, and the VLDP
//! prefetcher experiment ("we evaluated an over-approximated
//! implementation of VLDP and found that it can eliminate around one-third
//! of the data misses").
//!
//! ```text
//! cargo run --release -p rtr-bench --bin exp_pp3d [--size 192]
//! ```

use rtr_archsim::MemorySim;
use rtr_bench::parse_args;
use rtr_geom::maps;
use rtr_harness::{usage_error, OptionSpec, Profiler, Table};
use rtr_planning::{Pp3d, Pp3dConfig};
use rtr_trace::NullTrace;

const BIN: &str = "exp_pp3d";

const OPTIONS: &[OptionSpec] = &[OptionSpec {
    name: "size",
    help: "Campus side length in cells",
}];

fn main() {
    let args = parse_args(BIN, OPTIONS);
    let size = args
        .get_usize("size", 192)
        .unwrap_or_else(|e| usage_error(BIN, e));
    println!("EXP-F6: UAV path planning over a {size}x{size}x16 campus\n");
    let map = maps::campus_3d(size, size, 16, 1.0, 11);
    let config = Pp3dConfig {
        start: (1, 1, 10),
        goal: (size - 2, size - 2, 10),
        weight: 1.0,
    };

    // Wall-clock characterization.
    let mut profiler = Profiler::timed();
    let result = Pp3d::new(config.clone())
        .plan(&map, &mut profiler, &mut NullTrace)
        .expect("airspace is connected");
    profiler.freeze_total();
    let mut table = Table::new(&["metric", "value"]);
    table.row_owned(vec!["path length".into(), format!("{:.1} m", result.cost)]);
    table.row_owned(vec!["nodes expanded".into(), result.expanded.to_string()]);
    table.row_owned(vec!["edges generated".into(), result.generated.to_string()]);
    table.row_owned(vec![
        "collision checks".into(),
        result.collision_checks.to_string(),
    ]);
    print!("{table}");
    println!("\ntime breakdown:");
    for region in profiler.report() {
        println!(
            "  {:<22} {:>9.1} ms  ({:>4.1}%)",
            region.name,
            region.total.as_secs_f64() * 1e3,
            region.fraction * 100.0
        );
    }

    // The VLDP experiment: traced search with and without the prefetcher.
    let run = |with_vldp: bool| {
        let mut mem = MemorySim::i3_8109u();
        if with_vldp {
            mem = mem.with_vldp(2);
        }
        let mut profiler = Profiler::timed();
        Pp3d::new(config.clone())
            .plan(&map, &mut profiler, &mut mem)
            .expect("airspace is connected");
        mem.report()
    };
    let base = run(false);
    let vldp = run(true);
    println!("\nVLDP prefetcher experiment (search-node trace, L2 fills):");
    let mut cache = Table::new(&[
        "configuration",
        "L1D misses",
        "L2 misses",
        "memory accesses",
    ]);
    cache.row_owned(vec![
        "no prefetcher".into(),
        base.levels[0].misses.to_string(),
        base.levels[1].misses.to_string(),
        base.memory_accesses.to_string(),
    ]);
    cache.row_owned(vec![
        "VLDP (degree 2)".into(),
        vldp.levels[0].misses.to_string(),
        vldp.levels[1].misses.to_string(),
        vldp.memory_accesses.to_string(),
    ]);
    print!("{cache}");
    let eliminated = 1.0 - vldp.levels[1].misses as f64 / base.levels[1].misses.max(1) as f64;
    println!(
        "\nL2 data misses eliminated by VLDP: {:.0}%  (paper: ~33%)",
        eliminated * 100.0
    );
}
