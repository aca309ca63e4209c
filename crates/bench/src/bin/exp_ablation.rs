//! EXP-ABL — ablations for the design choices DESIGN.md calls out:
//!
//! 1. **k-d tree vs brute-force** nearest-neighbor search over growing
//!    sample sets (the `08.rrt` NN structure choice).
//! 2. **Footprint probe density** for `04.pp2d` collision checks
//!    (lattice spacing vs check cost; the implementation pins spacing to
//!    one grid resolution for soundness).
//! 3. **VLDP prefetch degree** on the `05.pp3d` search-node trace.
//! 4. **Particle count** for `01.pfl` (localization error vs compute).
//!
//! ```text
//! cargo run --release -p rtr-bench --bin exp_ablation
//! ```

use rtr_archsim::MemorySim;
use rtr_bench::time_once;
use rtr_core::kernels::perception::PflKernel;
use rtr_geom::{maps, Footprint, KdTree};
use rtr_harness::{Profiler, Table};
use rtr_perception::{ParticleFilter, PflConfig, PflInit};
use rtr_planning::{Pp3d, Pp3dConfig};
use rtr_sim::SimRng;
use rtr_trace::NullTrace;

fn ablate_nn() {
    println!("--- ablation 1: k-d tree vs brute-force NN (5-D configurations) ---");
    let mut table = Table::new(&[
        "points",
        "kd-tree (µs/query)",
        "brute force (µs/query)",
        "speedup",
    ]);
    let mut rng = SimRng::seed_from(1);
    for &n in &[1_000usize, 5_000, 20_000, 50_000] {
        let points: Vec<[f64; 5]> = (0..n)
            .map(|_| {
                [
                    rng.uniform(-3.0, 3.0),
                    rng.uniform(-3.0, 3.0),
                    rng.uniform(-3.0, 3.0),
                    rng.uniform(-3.0, 3.0),
                    rng.uniform(-3.0, 3.0),
                ]
            })
            .collect();
        let mut tree = KdTree::<5>::with_capacity(n);
        for (i, p) in points.iter().enumerate() {
            tree.insert(*p, i);
        }
        let queries: Vec<[f64; 5]> = (0..200)
            .map(|_| {
                [
                    rng.uniform(-3.0, 3.0),
                    rng.uniform(-3.0, 3.0),
                    rng.uniform(-3.0, 3.0),
                    rng.uniform(-3.0, 3.0),
                    rng.uniform(-3.0, 3.0),
                ]
            })
            .collect();

        let (tree_answers, tree_time) = time_once(|| {
            queries
                .iter()
                .map(|q| tree.nearest(q).unwrap().0)
                .collect::<Vec<_>>()
        });
        let (brute_answers, brute_time) = time_once(|| {
            queries
                .iter()
                .map(|q| {
                    points
                        .iter()
                        .enumerate()
                        .min_by(|a, b| {
                            let da: f64 = a.1.iter().zip(q).map(|(x, y)| (x - y) * (x - y)).sum();
                            let db: f64 = b.1.iter().zip(q).map(|(x, y)| (x - y) * (x - y)).sum();
                            da.total_cmp(&db)
                        })
                        .map(|(i, _)| i)
                        .unwrap()
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(tree_answers, brute_answers, "NN structures disagree");
        let per_tree = tree_time.as_secs_f64() * 1e6 / queries.len() as f64;
        let per_brute = brute_time.as_secs_f64() * 1e6 / queries.len() as f64;
        table.row_owned(vec![
            n.to_string(),
            format!("{per_tree:.1}"),
            format!("{per_brute:.1}"),
            format!("{:.1}x", per_brute / per_tree),
        ]);
    }
    println!("{table}");
}

fn ablate_footprint() {
    println!("--- ablation 2: footprint probe cost vs map resolution (04.pp2d) ---");
    let car = Footprint::new(4.8, 1.8);
    let mut table = Table::new(&["resolution (m)", "probes/check", "1k checks (µs)"]);
    for &res in &[2.0f64, 1.0, 0.5, 0.25] {
        let cells = (256.0 / res) as usize;
        let map = maps::city_blocks(cells, res, 3);
        let probes = car.probe_count(&map);
        let (_, elapsed) = time_once(|| {
            let mut hits = 0usize;
            for i in 0..1000 {
                let pose = rtr_geom::Pose2::new(
                    (i % 200) as f64 + 10.0,
                    ((i * 7) % 200) as f64 + 10.0,
                    i as f64 * 0.1,
                );
                hits += car.collides(&map, &pose) as usize;
            }
            hits
        });
        table.row_owned(vec![
            format!("{res}"),
            probes.to_string(),
            format!("{:.0}", elapsed.as_secs_f64() * 1e6),
        ]);
    }
    print!("{table}");
    println!("finer maps probe quadratically more cells per check — the paper's\nfine-grained parallelism grows with resolution.\n");
}

fn ablate_vldp_degree() {
    println!("--- ablation 3: VLDP prefetch degree (05.pp3d search trace) ---");
    let map = maps::campus_3d(128, 128, 16, 1.0, 11);
    let config = Pp3dConfig {
        start: (1, 1, 10),
        goal: (126, 126, 10),
        weight: 1.0,
    };
    let mut table = Table::new(&["degree", "L2 misses", "eliminated", "prefetches issued"]);
    let mut base_misses = 0u64;
    for degree in [0usize, 1, 2, 4] {
        let mut mem = MemorySim::i3_8109u();
        if degree > 0 {
            mem = mem.with_vldp(degree);
        }
        let mut profiler = Profiler::timed();
        Pp3d::new(config.clone())
            .plan(&map, &mut profiler, &mut mem)
            .expect("flyable");
        let report = mem.report();
        let misses = report.levels[1].misses;
        if degree == 0 {
            base_misses = misses;
        }
        table.row_owned(vec![
            degree.to_string(),
            misses.to_string(),
            format!(
                "{:.0}%",
                (1.0 - misses as f64 / base_misses.max(1) as f64) * 100.0
            ),
            report
                .prefetch
                .map(|p| p.issued.to_string())
                .unwrap_or_default(),
        ]);
    }
    println!("{table}");
}

fn ablate_particles() {
    println!("--- ablation 4: particle count vs accuracy/compute (01.pfl) ---");
    let map = maps::indoor_floor_plan(256, 0.1, 7);
    let steps = PflKernel::drive_region(&map, 0, 1);
    let mut table = Table::new(&["particles", "final error (m)", "time (ms)"]);
    for &particles in &[50usize, 200, 800, 3200] {
        let mut profiler = Profiler::timed();
        let mut filter = ParticleFilter::new(
            PflConfig {
                particles,
                seed: 9,
                init: PflInit::AroundPose {
                    pose: steps[0].true_pose,
                    pos_std: 0.8,
                    theta_std: 0.4,
                },
                ..Default::default()
            },
            &map,
        );
        let (result, elapsed) = time_once(|| filter.run(&steps, &mut profiler, &mut NullTrace));
        table.row_owned(vec![
            particles.to_string(),
            format!("{:.3}", result.final_error.unwrap_or(f64::NAN)),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
        ]);
    }
    print!("{table}");
    println!("compute scales linearly with particles; accuracy saturates early in\ntracking mode (global localization needs the larger counts).");
}

fn main() {
    rtr_bench::parse_args("exp_ablation", &[]);
    println!("EXP-ABL: design-choice ablations\n");
    ablate_nn();
    ablate_footprint();
    ablate_vldp_degree();
    ablate_particles();
}
