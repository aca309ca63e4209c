//! Integration test: the paper's headline characterization claims hold in
//! shape at test scale.
//!
//! These are the qualitative versions of the §V per-kernel findings; the
//! quantitative versions (with paper-matching configurations) live in the
//! `rtr-bench` experiment binaries and EXPERIMENTS.md.

use std::sync::OnceLock;

use rtrbench::control::{BayesOpt, BoConfig, Cem, CemConfig};
use rtrbench::harness::{Args, Profiler};
use rtrbench::planning::{
    blocks_world, firefight, ArmProblem, Rrt, RrtConfig, RrtStar, SymbolicPlanner,
};
use rtrbench::sim::ThrowSim;
use rtrbench::suite::{registry, CacheReport};
use rtrbench::trace::NullTrace;

#[test]
fn rrtstar_pays_compute_for_shorter_paths() {
    // §V.09: "RRT* is significantly slower ... but generates shorter
    // paths ... as compared to RRT."
    let mut star_cost = 0.0;
    let mut rrt_cost = 0.0;
    let mut star_checks = 0u64;
    let mut rrt_checks = 0u64;
    for seed in 0..3u64 {
        let problem = ArmProblem::map_f(50 + seed);
        let mut p = Profiler::new();
        let rrt = Rrt::new(RrtConfig {
            seed,
            ..Default::default()
        })
        .plan(&problem, &mut p, &mut NullTrace)
        .expect("solvable");
        let star = RrtStar::new(RrtConfig {
            seed,
            max_samples: 3000,
            ..Default::default()
        })
        .plan(&problem, &mut p, &mut NullTrace)
        .expect("solvable");
        star_cost += star.base.cost;
        rrt_cost += rrt.cost;
        star_checks += star.base.collision_checks;
        rrt_checks += rrt.collision_checks;
    }
    assert!(star_cost < rrt_cost, "star {star_cost} vs rrt {rrt_cost}");
    assert!(
        star_checks > rrt_checks * 4,
        "star should do much more work: {star_checks} vs {rrt_checks}"
    );
}

#[test]
fn firefighting_domain_branches_wider_than_blocks_world() {
    // §V.12: "sym-fext exhibits a higher level of parallelism (~3.2x)
    // since it has more valid actions."
    let mut profiler = Profiler::new();
    let blkw = SymbolicPlanner::new(1.0)
        .solve(&blocks_world(3), &mut profiler, &mut NullTrace)
        .expect("solvable");
    let fext = SymbolicPlanner::new(1.0)
        .solve(&firefight(), &mut profiler, &mut NullTrace)
        .expect("solvable");
    let ratio = fext.mean_branching / blkw.mean_branching;
    assert!(
        ratio > 1.3,
        "fext/blkw branching ratio {ratio:.2} (expected well above 1)"
    );
}

#[test]
fn bo_outworks_cem_and_its_sort_is_heavier() {
    // §V.16: BO is computationally more intensive than CEM and its sort
    // is more time-consuming.
    let sim = ThrowSim::new(2.0);
    let mut p_cem = Profiler::new();
    let mut p_bo = Profiler::new();
    Cem::new(CemConfig::default()).learn(&sim, &mut p_cem, &mut NullTrace);
    BayesOpt::new(BoConfig {
        iterations: 20,
        ..Default::default()
    })
    .learn(&sim, &mut p_bo, &mut NullTrace);

    let work = |p: &Profiler| -> f64 { p.report().iter().map(|r| r.total.as_secs_f64()).sum() };
    assert!(work(&p_bo) > work(&p_cem) * 3.0);
    assert!(p_bo.region_total("sort") > p_cem.region_total("sort"));
}

#[test]
fn learning_curves_improve() {
    // Figs. 18 & 19: reward improves over learning for both methods.
    let sim = ThrowSim::new(2.0);
    let mut p = Profiler::new();
    let cem = Cem::new(CemConfig::default()).learn(&sim, &mut p, &mut NullTrace);
    assert!(cem.iteration_means.last().unwrap() > cem.iteration_means.first().unwrap());

    let bo = BayesOpt::new(BoConfig {
        iterations: 30,
        ..Default::default()
    })
    .learn(&sim, &mut p, &mut NullTrace);
    let early = bo.reward_trace[..5].iter().sum::<f64>() / 5.0;
    let late_window = &bo.reward_trace[bo.reward_trace.len() - 5..];
    let late = late_window.iter().sum::<f64>() / 5.0;
    assert!(
        late > early,
        "BO rewards should trend upward: {early} -> {late}"
    );
}

#[test]
fn traced_rrt_nn_search_misses_in_cache() {
    // §V.08: the nearest-neighbor search's irregular accesses produce a
    // double-digit L1D miss ratio once the tree outgrows the cache.
    use rtrbench::archsim::MemorySim;
    let problem = ArmProblem::map_c(60);
    let mut profiler = Profiler::new();
    let mut mem = MemorySim::i3_8109u();
    Rrt::new(RrtConfig {
        max_samples: 30_000,
        goal_bias: 0.0,
        ..Default::default()
    })
    .plan(&problem, &mut profiler, &mut mem);
    let report = mem.report();
    assert!(report.accesses > 50_000, "too few traced accesses");
    assert!(report.levels[0].miss_ratio() > 0.01);
}

/// `exp_characterization`'s reduced arguments for the nine kernels whose
/// EXP-CHAR claims are asserted below (the same tokens as
/// `rtr_bench::characterization::small_args`).
const REDUCED_ARGS: [(&str, &[&str]); 9] = [
    ("02.ekfslam", &["--steps", "60", "--landmarks", "4"]),
    ("06.movtar", &["--size", "48"]),
    ("08.rrt", &["--samples", "4000"]),
    ("11.sym-blkw", &["--blocks", "4"]),
    ("12.sym-fext", &[]),
    ("13.dmp", &["--duration", "0.5", "--basis", "20"]),
    ("14.mpc", &["--length", "60", "--iterations", "20"]),
    ("15.cem", &[]),
    ("16.bo", &["--iterations", "15", "--candidates", "120"]),
];

/// One `CHAR_report.json` row: the kernel's cache report with VLDP off
/// and at the table's degree 4.
struct CharRow {
    off: CacheReport,
    on: CacheReport,
}

/// Runs each kernel of [`REDUCED_ARGS`] through the registry with
/// `--trace --vldp 0|4`, once for all the tests below.
fn char_row(kernel: &str) -> &'static CharRow {
    static TABLE: OnceLock<Vec<(&'static str, CharRow)>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let kernels = registry();
        REDUCED_ARGS
            .iter()
            .map(|&(name, args)| {
                let k = kernels.iter().find(|k| k.name() == name).unwrap();
                let run = |vldp: &str| {
                    let mut tokens = args.to_vec();
                    tokens.extend(["--trace", "--vldp", vldp]);
                    let report = k.run(&Args::parse_tokens(&tokens).unwrap()).unwrap();
                    report.cache.expect("--trace attaches a cache report")
                };
                (
                    name,
                    CharRow {
                        off: run("0"),
                        on: run("4"),
                    },
                )
            })
            .collect()
    });
    &table.iter().find(|(name, _)| *name == kernel).unwrap().1
}

/// L2 miss ratio of one report (level 1 of L1D, L2, LLC).
fn l2_miss(report: &CacheReport) -> f64 {
    report.levels[1].miss_ratio()
}

#[test]
fn vldp_collapses_l2_misses_on_streaming_sweeps() {
    // EXP-CHAR: the prefetcher covers the DMP basis scans, BO's GP rows
    // and RRT's configuration reads (L2 miss 1.0 -> 0.045 / 0.071 / 0.075).
    for kernel in ["13.dmp", "16.bo", "08.rrt"] {
        let row = char_row(kernel);
        let (off, on) = (l2_miss(&row.off), l2_miss(&row.on));
        assert!(off > 0.9, "{kernel}: L2 miss {off:.3} with VLDP off");
        assert!(
            on < 0.15,
            "{kernel}: L2 miss {off:.3} -> {on:.3} with VLDP on"
        );
    }
}

#[test]
fn vldp_barely_moves_pointer_chasing_searches() {
    // EXP-CHAR: the symbolic planners and the moving-target search keep
    // most of their L2 misses (1.0 -> 0.905, 0.624 -> 0.587,
    // 0.684 -> 0.634): the streaming/irregular split of §V.
    for kernel in ["11.sym-blkw", "12.sym-fext", "06.movtar"] {
        let row = char_row(kernel);
        let (off, on) = (l2_miss(&row.off), l2_miss(&row.on));
        assert!(off > 0.5, "{kernel}: L2 miss {off:.3} with VLDP off");
        assert!(
            on > 0.8 * off,
            "{kernel}: VLDP cut L2 misses {off:.3} -> {on:.3}"
        );
    }
}

#[test]
fn mpc_defeats_the_prefetcher() {
    // EXP-CHAR: MPC's demand stream alternates regions every slot, so no
    // per-page delta stabilizes (L2 miss 1.0 -> 1.0).
    let row = char_row("14.mpc");
    let (off, on) = (l2_miss(&row.off), l2_miss(&row.on));
    assert!(
        off > 0.95 && on > 0.95,
        "14.mpc L2 miss {off:.3} -> {on:.3}"
    );
}

#[test]
fn store_share_tracks_the_kernel_class() {
    // EXP-CHAR: the matrix-heavy estimator and optimizers are store-rich,
    // the search and sampling planners mostly probe maps and trees.
    for kernel in ["02.ekfslam", "14.mpc", "15.cem"] {
        let share = char_row(kernel).off.write_ratio();
        assert!(share >= 0.40, "{kernel}: store share {share:.3}");
    }
    for kernel in ["06.movtar", "08.rrt", "11.sym-blkw", "12.sym-fext"] {
        let share = char_row(kernel).off.write_ratio();
        assert!(share <= 0.125, "{kernel}: store share {share:.3}");
    }
}

#[test]
fn prefetching_never_changes_the_demand_stream() {
    for (kernel, _) in REDUCED_ARGS {
        let row = char_row(kernel);
        assert_eq!(
            (row.off.accesses, row.off.reads, row.off.writes),
            (row.on.accesses, row.on.reads, row.on.writes),
            "{kernel}: demand stream moved with VLDP on"
        );
    }
}
