//! Arm pick-and-place: the paper's four sampling-based arm planners on the
//! cluttered `Map-C` workspace, head to head.
//!
//! PRM amortizes an offline roadmap over repeated queries (static scenes);
//! RRT answers one-shot queries online (dynamic scenes); RRT* pays more
//! compute for shorter paths; RRT + post-processing splits the difference.
//! This mirrors the paper's §V.07–§V.10 discussion.
//!
//! ```text
//! cargo run --release --example arm_pick_place
//! ```

use rtrbench::harness::Profiler;
use rtrbench::planning::{ArmProblem, Prm, PrmConfig, Rrt, RrtConfig, RrtPp, RrtStar};
use rtrbench::trace::NullTrace;

fn main() {
    let problem = ArmProblem::map_c(2);
    println!(
        "5-DoF arm in Map-C: {} obstacles, start-goal distance {:.2} rad\n",
        problem.obstacles.len(),
        rtrbench::planning::rrt::config_distance(&problem.start, &problem.goal),
    );

    let config = RrtConfig {
        max_samples: 50_000,
        seed: 2,
        ..Default::default()
    };

    // --- PRM: build once, query twice (pick, then place).
    let mut profiler = Profiler::new();
    let prm = Prm::new(PrmConfig {
        roadmap_size: 1200,
        neighbors: 12,
        seed: 3,
        threads: 1,
    });
    let t0 = std::time::Instant::now();
    let roadmap = prm.build(&problem, &mut profiler);
    let build_time = t0.elapsed();
    let t1 = std::time::Instant::now();
    let prm_result = prm.query(&problem, &roadmap, &mut profiler, &mut NullTrace);
    let query_time = t1.elapsed();
    match &prm_result {
        Some(r) => println!(
            "PRM     : cost {:.2} rad | offline {:>8.1} ms, online {:>7.2} ms ({} edges)",
            r.cost,
            build_time.as_secs_f64() * 1e3,
            query_time.as_secs_f64() * 1e3,
            roadmap.edge_count
        ),
        None => println!("PRM     : roadmap too sparse for this query"),
    }

    // --- RRT family: one-shot online planners.
    let run = |label: &str, f: &dyn Fn(&mut Profiler) -> Option<(f64, u64)>| {
        let mut p = Profiler::new();
        let t = std::time::Instant::now();
        match f(&mut p) {
            Some((cost, checks)) => println!(
                "{label}: cost {:.2} rad | {:>8.1} ms, {} collision checks",
                cost,
                t.elapsed().as_secs_f64() * 1e3,
                checks
            ),
            None => println!("{label}: failed"),
        }
    };

    run("RRT     ", &|p| {
        Rrt::new(config.clone())
            .plan(&problem, p, &mut NullTrace)
            .map(|r| (r.cost, r.collision_checks))
    });
    run("RRT*    ", &|p| {
        RrtStar::new(RrtConfig {
            max_samples: 12_000,
            ..config.clone()
        })
        .plan(&problem, p, &mut NullTrace)
        .map(|r| (r.base.cost, r.base.collision_checks))
    });
    run("RRT+post", &|p| {
        RrtPp::new(config.clone(), 6)
            .plan(&problem, p, &mut NullTrace)
            .map(|r| (r.base.cost, r.base.collision_checks))
    });

    println!(
        "\nExpected ordering (paper §V.09-§V.10): RRT* shortest, RRT longest,\n\
         post-processed RRT in between — at matching compute budgets."
    );
}
