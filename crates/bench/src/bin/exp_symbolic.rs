//! EXP-F13/F14 — regenerates **Figs. 13–14** (§V.11–§V.12): the symbolic
//! planner on the blocks-world and firefighting domains, the graph-search
//! plus string-manipulation breakdown, and the `sym-fext` parallelism
//! finding ("a higher level of parallelism (~3.2x) since it has more
//! valid actions").
//!
//! ```text
//! cargo run --release -p rtr-bench --bin exp_symbolic
//! ```

use rtr_harness::{Profiler, Table};
use rtr_planning::symbolic::expand_states_parallel;
use rtr_planning::{blocks_world, firefight, Domain, SymbolicPlanner};
use rtr_trace::NullTrace;

fn characterize(name: &str, domain: &Domain) -> (f64, f64) {
    let mut profiler = Profiler::timed();
    let plan = SymbolicPlanner::new(1.0)
        .solve(domain, &mut profiler, &mut NullTrace)
        .expect("domain solvable");
    profiler.freeze_total();
    assert!(domain.validate_plan(&plan.actions), "invalid plan");

    println!("--- {name} ---");
    println!(
        "plan: {} actions | {} states expanded | {} ground actions | mean branching {:.2}",
        plan.actions.len(),
        plan.expanded,
        plan.ground_actions,
        plan.mean_branching
    );
    let mut table = Table::new(&["region", "share"]);
    for region in profiler.report() {
        table.row_owned(vec![
            region.name.clone(),
            format!("{:.1}%", region.fraction * 100.0),
        ]);
    }
    print!("{table}");
    println!(
        "first actions: {:?}\n",
        &plan.actions[..plan.actions.len().min(6)]
    );
    (plan.mean_branching, profiler.fraction("string_ops"))
}

fn main() {
    rtr_bench::parse_args("exp_symbolic", &[]);
    println!("EXP-F13/F14: symbolic planning — blocks world vs firefighting\n");
    // The paper's Fig. 13 blocks world has three blocks (A, B, C).
    let blkw = blocks_world(3);
    let fext = firefight();
    let (blkw_branching, _) = characterize("11.sym-blkw (3 blocks, Fig. 13)", &blkw);
    let (fext_branching, _) = characterize("12.sym-fext (Fig. 14)", &fext);
    // A larger instance for scale context.
    characterize("11.sym-blkw (6 blocks)", &blocks_world(6));
    println!(
        "branching-factor ratio fext/blkw: {:.2}x  (paper parallelism claim: ~3.2x)",
        fext_branching / blkw_branching
    );

    // Parallel neighbor expansion: "the neighbors of every node at every
    // step can be evaluated in parallel".
    println!("\nparallel neighbor-expansion scaling (firefighting domain):");
    let actions = fext.ground();
    // Collect a large batch of reachable states via random-ish walks, so
    // the expansion work is big enough for thread scaling to show.
    let mut states = vec![fext.initial_state()];
    for i in 0..60_000usize {
        let from = states[i % states.len()].clone();
        if let Some(action) = actions.iter().filter(|a| a.applicable(&from)).nth(i % 3) {
            states.push(action.apply(&from));
        }
    }
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut table = Table::new(&["threads", "time (ms)", "speedup"]);
    let baseline = {
        let t = std::time::Instant::now();
        let _ = expand_states_parallel(&actions, &states, 1);
        t.elapsed().as_secs_f64()
    };
    for threads in [1usize, 2, 4, 8] {
        let t = std::time::Instant::now();
        let _ = expand_states_parallel(&actions, &states, threads);
        let secs = t.elapsed().as_secs_f64();
        table.row_owned(vec![
            threads.to_string(),
            format!("{:.2}", secs * 1e3),
            format!("{:.2}x", baseline / secs),
        ]);
    }
    print!("{table}");
    println!(
        "\nhost exposes {cores} core(s); wall-clock speedup is bounded by that.\n\
         The *available* parallelism the paper refers to is the branching\n\
         factor above: every applicable action is an independent neighbor\n\
         evaluation."
    );
}
