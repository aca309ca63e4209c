//! EXP-F17/F18/F19 — regenerates **Figs. 17–19** (§V.15–§V.16): the
//! ball-throwing reinforcement-learning task, CEM's reward-over-samples
//! curve (5 iterations × 15 samples), BO's reward over 45 iterations, and
//! the comparative findings: BO is far more compute-intensive and its sort
//! is ~6× CEM's.
//!
//! ```text
//! cargo run --release -p rtr-bench --bin exp_rl
//! ```

use rtr_bench::parse_args;
use rtr_bench::sparkline;
use rtr_control::{BayesOpt, BoConfig, Cem, CemConfig};
use rtr_harness::{usage_error, OptionSpec, Profiler, Table};
use rtr_sim::ThrowSim;
use rtr_trace::NullTrace;

const BIN: &str = "exp_rl";

const OPTIONS: &[OptionSpec] = &[OptionSpec {
    name: "threads",
    help: "Worker threads (0 = one per core)",
}];

fn main() {
    let args = parse_args(BIN, OPTIONS);
    let threads = args.get_threads(0).unwrap_or_else(|e| usage_error(BIN, e));
    println!("EXP-F17/18/19: ball-throwing reinforcement learning\n");
    let sim = ThrowSim::new(2.0);
    println!(
        "environment (Fig. 17 stand-in): 2-DoF arm at (0, 0.5 m), goal at {:.1} m",
        sim.goal_x()
    );

    // Fig. 18: CEM, 5 iterations x 15 samples.
    let mut p_cem = Profiler::timed();
    let cem = Cem::new(CemConfig {
        threads,
        ..Default::default()
    })
    .learn(&sim, &mut p_cem, &mut NullTrace);
    println!(
        "\nFig. 18 — CEM rewards over {} samples:",
        cem.reward_trace.len()
    );
    println!("  |{}|", sparkline(&cem.reward_trace));
    let mut iters = Table::new(&["iteration", "mean reward"]);
    for (i, mean) in cem.iteration_means.iter().enumerate() {
        iters.row_owned(vec![(i + 1).to_string(), format!("{mean:.3}")]);
    }
    print!("{iters}");
    println!("  best reward: {:.3}", cem.best_reward);

    // Fig. 19: BO, 45 iterations.
    let mut p_bo = Profiler::timed();
    let bo = BayesOpt::new(BoConfig::default()).learn(&sim, &mut p_bo, &mut NullTrace);
    println!(
        "\nFig. 19 — BO rewards over {} evaluations:",
        bo.reward_trace.len()
    );
    println!("  |{}|", sparkline(&bo.reward_trace));
    println!(
        "  best reward: {:.3} | {} acquisition candidates scored",
        bo.best_reward, bo.candidates_scored
    );

    // §V.15/§V.16 comparative characterization.
    let work = |p: &Profiler| -> f64 { p.report().iter().map(|r| r.total.as_secs_f64()).sum() };
    let cem_sort = p_cem.region_total("sort").as_secs_f64();
    let bo_sort = p_bo.region_total("sort").as_secs_f64();
    println!("\ncompute comparison:");
    let mut table = Table::new(&["metric", "CEM", "BO", "ratio"]);
    table.row_owned(vec![
        "total kernel work (ms)".into(),
        format!("{:.3}", work(&p_cem) * 1e3),
        format!("{:.3}", work(&p_bo) * 1e3),
        format!("{:.0}x", work(&p_bo) / work(&p_cem).max(1e-12)),
    ]);
    table.row_owned(vec![
        "sort time (us)".into(),
        format!("{:.1}", cem_sort * 1e6),
        format!("{:.1}", bo_sort * 1e6),
        format!("{:.1}x", bo_sort / cem_sort.max(1e-12)),
    ]);
    table.row_owned(vec![
        "sort share".into(),
        format!("{:.1}%", cem_sort / work(&p_cem).max(1e-12) * 100.0),
        format!("{:.1}%", bo_sort / work(&p_bo).max(1e-12) * 100.0),
        String::new(),
    ]);
    print!("{table}");
    println!(
        "\npaper's shape: BO is computationally far more intensive than CEM, and\n\
         because it keeps more per-candidate metadata its sort costs several\n\
         times CEM's (paper: ~6x)."
    );
}
