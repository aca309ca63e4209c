//! Criterion benchmarks: one group per suite kernel, on reduced
//! representative inputsets (the full-size runs live in the `exp_*`
//! binaries).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use rtr_control::dmp::wheeled_robot_demo;
use rtr_control::mpc::winding_reference;
use rtr_control::{
    BayesOpt, BoConfig, Cem, CemConfig, Dmp, DmpConfig, GaussianProcess, Mpc, MpcConfig,
};
use rtr_core::kernels::perception::PflKernel;
use rtr_geom::{maps, Point3, RigidTransform};
use rtr_harness::Profiler;
use rtr_perception::{EkfSlam, EkfSlamConfig, Icp, IcpConfig, ParticleFilter, PflConfig, PflInit};
use rtr_planning::{
    blocks_world, firefight, movtar, ArmProblem, MovingTarget, MovtarConfig, Pp2d, Pp2dConfig,
    Pp3d, Pp3dConfig, Prm, PrmConfig, Rrt, RrtConfig, RrtPp, RrtStar, SymbolicPlanner,
};
use rtr_sim::{scene, SimRng, SlamWorld, ThrowSim};
use rtr_trace::NullTrace;

fn bench_perception(c: &mut Criterion) {
    let mut group = c.benchmark_group("perception");
    group.sample_size(10);

    let map = maps::indoor_floor_plan(256, 0.1, 7);
    let steps = PflKernel::drive_region(&map, 0, 1);
    group.bench_function("01.pfl/300p", |b| {
        b.iter_batched(
            || {
                ParticleFilter::new(
                    PflConfig {
                        particles: 300,
                        init: PflInit::AroundPose {
                            pose: steps[0].true_pose,
                            pos_std: 0.8,
                            theta_std: 0.4,
                        },
                        ..Default::default()
                    },
                    &map,
                )
            },
            |mut pf| {
                let mut profiler = Profiler::new();
                black_box(pf.run(&steps, &mut profiler, &mut NullTrace))
            },
            BatchSize::LargeInput,
        )
    });

    let world = SlamWorld::six_landmark_demo();
    let mut rng = SimRng::seed_from(1);
    let log = world.simulate_circuit(300, &mut rng);
    group.bench_function("02.ekfslam/300steps", |b| {
        b.iter(|| {
            let mut ekf = EkfSlam::new(EkfSlamConfig::default());
            let mut profiler = Profiler::new();
            black_box(ekf.run(&log, None, &mut profiler, &mut NullTrace))
        })
    });

    let mut rng = SimRng::seed_from(6);
    let room = scene::living_room(20_000, &mut rng);
    let motion = RigidTransform::from_yaw_translation(0.03, Point3::new(0.05, -0.03, 0.01));
    let scan1 = scene::scan_from(&room, &RigidTransform::identity(), 0.5, 0.002, &mut rng);
    let scan2 = scene::scan_from(&room, &motion, 0.5, 0.002, &mut rng);
    group.bench_function("03.srec/20k-points", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            black_box(Icp::new(IcpConfig::default()).align(
                &scan2,
                &scan1,
                &mut profiler,
                &mut NullTrace,
            ))
        })
    });
    group.finish();
}

fn bench_grid_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid-planning");
    group.sample_size(10);

    let city = maps::city_blocks(256, 1.0, 3);
    group.bench_function("04.pp2d/256-city", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            black_box(Pp2d::new(Pp2dConfig::car((4, 1), (241, 241))).plan(
                &city,
                &mut profiler,
                &mut NullTrace,
            ))
        })
    });

    let campus = maps::campus_3d(96, 96, 16, 1.0, 11);
    group.bench_function("05.pp3d/96-campus", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            black_box(
                Pp3d::new(Pp3dConfig {
                    start: (1, 1, 10),
                    goal: (94, 94, 10),
                    weight: 1.0,
                })
                .plan(&campus, &mut profiler, &mut NullTrace),
            )
        })
    });

    let (field, start, trajectory) = movtar::synthetic_scenario(64, 128, 7);
    group.bench_function("06.movtar/64-env", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            black_box(
                MovingTarget::new(MovtarConfig {
                    start,
                    target_trajectory: trajectory.clone(),
                    epsilon: 2.0,
                })
                .plan(&field, &mut profiler, &mut NullTrace),
            )
        })
    });
    group.finish();
}

fn bench_arm_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("arm-planning");
    group.sample_size(10);
    let problem = ArmProblem::map_c(2);
    let config = RrtConfig {
        max_samples: 50_000,
        seed: 2,
        ..Default::default()
    };

    let prm = Prm::new(PrmConfig {
        roadmap_size: 800,
        neighbors: 10,
        seed: 3,
        threads: 1,
    });
    let mut profiler = Profiler::new();
    let roadmap = prm.build(&problem, &mut profiler);
    group.bench_function("07.prm/online-query", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            black_box(prm.query(&problem, &roadmap, &mut profiler, &mut NullTrace))
        })
    });
    group.bench_function("08.rrt/map-c", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            black_box(Rrt::new(config.clone()).plan(&problem, &mut profiler, &mut NullTrace))
        })
    });
    group.bench_function("09.rrtstar/map-c", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            black_box(
                RrtStar::new(RrtConfig {
                    star_refine_factor: Some(4.0),
                    ..config.clone()
                })
                .plan(&problem, &mut profiler, &mut NullTrace),
            )
        })
    });
    group.bench_function("10.rrtpp/map-c", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            black_box(RrtPp::new(config.clone(), 6).plan(&problem, &mut profiler, &mut NullTrace))
        })
    });
    group.finish();
}

fn bench_symbolic(c: &mut Criterion) {
    let mut group = c.benchmark_group("symbolic-planning");
    group.sample_size(10);
    let blkw = blocks_world(6);
    let fext = firefight();
    group.bench_function("11.sym-blkw/6-blocks", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            black_box(SymbolicPlanner::new(1.0).solve(&blkw, &mut profiler, &mut NullTrace))
        })
    });
    group.bench_function("12.sym-fext", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            black_box(SymbolicPlanner::new(1.0).solve(&fext, &mut profiler, &mut NullTrace))
        })
    });
    group.finish();
}

fn bench_control(c: &mut Criterion) {
    let mut group = c.benchmark_group("control");
    group.sample_size(10);

    let (demo, duration) = wheeled_robot_demo(400);
    let dmp = Dmp::learn(&demo, duration, DmpConfig::default());
    group.bench_function("13.dmp/rollout", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            black_box(dmp.rollout(duration, &mut profiler, &mut NullTrace))
        })
    });

    let reference = winding_reference(120);
    group.bench_function("14.mpc/120-ref", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            black_box(Mpc::new(MpcConfig::default()).track(
                &reference,
                &mut profiler,
                &mut NullTrace,
            ))
        })
    });

    let sim = ThrowSim::new(2.0);
    group.bench_function("15.cem/5x15", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            black_box(Cem::new(CemConfig::default()).learn(&sim, &mut profiler, &mut NullTrace))
        })
    });
    group.bench_function("16.bo/45-iters", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            black_box(BayesOpt::new(BoConfig::default()).learn(&sim, &mut profiler, &mut NullTrace))
        })
    });
    group.finish();
}

/// The cost of the tracing seam itself, on one integration-bound and one
/// optimization-bound kernel.
///
/// `null` is the default path every untraced caller takes: the sink's
/// `enabled()` returns a constant `false`, so the emission blocks must
/// fold away and `null` must match the historical untraced timings.
/// `counting` pays for the emission loops but does no cache modeling;
/// `simulated` replays the stream through the i3-8109U hierarchy and
/// bounds what `--trace` costs (it is *not* expected to be cheap).
fn bench_characterization(c: &mut Criterion) {
    let mut group = c.benchmark_group("characterization");
    group.sample_size(10);

    let (demo, duration) = wheeled_robot_demo(400);
    let dmp = Dmp::learn(&demo, duration, DmpConfig::default());
    group.bench_function("13.dmp/null", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            black_box(dmp.rollout(duration, &mut profiler, &mut NullTrace))
        })
    });
    group.bench_function("13.dmp/counting", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            let mut counts = rtr_trace::CountingTrace::default();
            let rollout = dmp.rollout(duration, &mut profiler, &mut counts);
            black_box((rollout, counts))
        })
    });
    group.bench_function("13.dmp/simulated", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            let mut sim = rtr_archsim::MemorySim::i3_8109u();
            let rollout = dmp.rollout(duration, &mut profiler, &mut sim);
            black_box((rollout, sim.report()))
        })
    });

    let reference = winding_reference(120);
    group.bench_function("14.mpc/null", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            black_box(Mpc::new(MpcConfig::default()).track(
                &reference,
                &mut profiler,
                &mut NullTrace,
            ))
        })
    });
    group.bench_function("14.mpc/simulated", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            let mut sim = rtr_archsim::MemorySim::i3_8109u();
            let result = Mpc::new(MpcConfig::default()).track(&reference, &mut profiler, &mut sim);
            black_box((result, sim.report()))
        })
    });
    group.finish();
}

/// Trace-transport throughput into the cache model: the op-at-a-time
/// `&mut dyn MemTrace` path (what `TraceSession` shipped before the
/// batched transport) against `process_batch` and the `BufferedTrace`
/// adapter, on the same streaming workload. Every variant simulates the
/// same access count per iteration, so `median_ns` ratios in
/// `BENCH_kernels.json` read directly as accesses/sec ratios; CI guards
/// the batched speedup.
fn bench_archsim_throughput(c: &mut Criterion) {
    use rtr_archsim::MemorySim;
    use rtr_trace::{BufferedTrace, MemTrace, TraceOp};

    let mut group = c.benchmark_group("archsim_throughput");
    group.sample_size(10);

    // A streaming scan: two byte-granular passes over a 256 KiB buffer
    // (the shape of a parse/copy loop over an L2-resident point cloud).
    // Each line is a 64-op same-line run — the batched path's memo
    // collapses it — and the buffer exceeds L1, so every line's first
    // touch still exercises the fill and writeback plumbing.
    let lines = 4096u64; // 256 KiB at 64 B lines
    let mut ops = Vec::new();
    for pass in 0..2u64 {
        for line in 0..lines {
            for off in 0..64u64 {
                ops.push(TraceOp {
                    addr: line * 64 + off,
                    is_write: off % 16 == 8 && pass == 0,
                });
            }
        }
    }

    group.bench_function("per-op-dyn", |b| {
        b.iter_batched_ref(
            MemorySim::i3_8109u,
            |sim| {
                let sink: &mut dyn MemTrace = sim;
                for op in &ops {
                    if op.is_write {
                        sink.write(op.addr);
                    } else {
                        sink.read(op.addr);
                    }
                }
                black_box(sim.report())
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("batched", |b| {
        b.iter_batched_ref(
            MemorySim::i3_8109u,
            |sim| {
                sim.process_batch(&ops);
                black_box(sim.report())
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("buffered-4096", |b| {
        b.iter_batched(
            || BufferedTrace::new(MemorySim::i3_8109u()),
            |mut buffered| {
                for op in &ops {
                    if op.is_write {
                        buffered.write(op.addr);
                    } else {
                        buffered.read(op.addr);
                    }
                }
                black_box(buffered.into_inner().report())
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// Per-access cost of the lock-free ring transport, on the same 256 KiB
/// byte-scan stream as `archsim_throughput` — extending the null-vs-
/// counting characterization methodology to the attached ring.
///
/// - `null-dyn` / `counting-dyn`: the PR 6 baselines — per-op dynamic
///   dispatch into a do-nothing / counter-only sink. `null-dyn` is the
///   floor's denominator.
/// - `ring-attached`: per-op dispatch into `RingTrace` with a collector
///   attached — the *producer-side* transport cost (encode, slot store,
///   batched tail publish), which is exactly what the "never block
///   the hot loop" claim is about. The ring is sized to the stream and
///   publication deferred to one flush so that on this single-CPU
///   container the parked consumer cannot have its drain time
///   scheduler-interleaved into the producer's window; the drain itself
///   runs in the un-timed teardown (`iter_batched` drops routine
///   outputs outside the measurement). CI guards ring-attached ≤ 2×
///   null-dyn.
/// - `ring-e2e-sim`: the full `--telemetry ring` path end to end —
///   producer emit, collector drain, `MemorySim` replay and the final
///   join all on the clock. Comparable against
///   `archsim_throughput/buffered-4096` (the inline `--trace` path); on
///   a multi-core host the drain and simulation overlap the emit and
///   this number falls toward `ring-attached`.
fn bench_ring_transport(c: &mut Criterion) {
    use rtr_archsim::MemorySim;
    use rtr_harness::Collector;
    use rtr_trace::{ring, MemTrace, RingConsumer, RingTrace, TraceOp};

    let mut group = c.benchmark_group("ring_transport");
    group.sample_size(10);

    // The traced kernel is the archsim byte-scan: two byte-granular
    // passes over a 256 KiB buffer, one store per 16 bytes on the first
    // pass (524288 accesses per iteration). Unlike replaying a
    // pre-materialized op vector into an empty dispatch loop, the scan
    // does the kernel's real per-access work (byte load + accumulate),
    // so the null baseline measures what tracing actually rides on.
    let buf: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();

    fn scan(sink: &mut dyn MemTrace, buf: &[u8], acc: &mut u64) {
        for pass in 0..2u64 {
            for (i, byte) in buf.iter().enumerate() {
                *acc = acc.wrapping_add(u64::from(*byte));
                let addr = i as u64;
                if addr % 16 == 8 && pass == 0 {
                    sink.write(addr);
                } else {
                    sink.read(addr);
                }
            }
        }
    }

    /// Launders the concrete sink type so LLVM cannot devirtualize the
    /// dispatch inside `scan` — without this, a `NullTrace` sink folds
    /// to nothing and the whole scan vectorizes (~0.4 ns/op), deflating
    /// the baseline below any functional sink's reach (see the
    /// `ring_probe` integration test).
    fn opaque(sink: &mut dyn MemTrace) -> &mut dyn MemTrace {
        black_box(sink)
    }

    // Matches the scan's access count: 2 passes x 256 Ki bytes.
    let stream_len = 2 * buf.len();

    /// Consumes and discards; isolates transport cost from consumer cost.
    struct Discard;
    impl RingConsumer<TraceOp> for Discard {
        fn consume_batch(&mut self, _batch: &[TraceOp]) {}
    }

    group.bench_function("null-dyn", |b| {
        b.iter(|| {
            let mut null = NullTrace;
            let mut acc = 0u64;
            scan(opaque(&mut null), &buf, &mut acc);
            black_box(acc)
        })
    });
    group.bench_function("counting-dyn", |b| {
        b.iter(|| {
            let mut counts = rtr_trace::CountingTrace::default();
            let mut acc = 0u64;
            scan(opaque(&mut counts), &buf, &mut acc);
            black_box((counts, acc))
        })
    });
    /// Un-timed teardown: completes the drain and joins the collector
    /// when `iter_batched` drops the routine's output after stopping
    /// the clock.
    struct Teardown {
        producer: Option<rtr_trace::RingProducer<TraceOp>>,
        collector: Option<Collector<Discard>>,
    }
    impl Drop for Teardown {
        fn drop(&mut self) {
            drop(self.producer.take());
            if let Some(collector) = self.collector.take() {
                collector.finish();
            }
        }
    }

    // Capacity covering the whole stream: the producer never waits on
    // the consumer, so the timed window holds producer work only.
    let stream_capacity = stream_len.next_power_of_two();
    group.bench_function("ring-attached", |b| {
        b.iter_batched(
            || {
                let (tx, rx) = ring::<TraceOp>(stream_capacity);
                (
                    RingTrace::with_batch(tx, stream_capacity),
                    Collector::spawn(rx, Discard),
                )
            },
            |(mut trace, collector)| {
                let mut acc = 0u64;
                scan(opaque(&mut trace), &buf, &mut acc);
                black_box(acc);
                let producer = trace.into_producer();
                black_box(Teardown {
                    producer: Some(producer),
                    collector: Some(collector),
                })
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("ring-e2e-sim", |b| {
        b.iter_batched(
            || {
                let (tx, rx) = ring::<TraceOp>(1 << 16);
                (
                    RingTrace::new(tx),
                    Collector::spawn(rx, MemorySim::i3_8109u()),
                )
            },
            |(mut trace, collector)| {
                let mut acc = 0u64;
                scan(opaque(&mut trace), &buf, &mut acc);
                black_box(acc);
                drop(trace.into_producer());
                black_box(collector.finish().report());
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// Sequential-vs-parallel variants of the four parallelized hot loops.
///
/// `seq` runs `threads = 1` (the exact legacy path, except for PRM, whose
/// one build runs its pool inline); `par4` runs the same workload on four
/// pool workers. Outputs are bit-identical (see the
/// `determinism` integration test); only the wall clock may differ.
fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);
    let variants = [("seq", 1usize), ("par4", 4)];

    let map = maps::indoor_floor_plan(256, 0.1, 7);
    let steps = PflKernel::drive_region(&map, 0, 1);
    for (label, threads) in variants {
        group.bench_function(format!("01.pfl/600p-{label}"), |b| {
            b.iter_batched(
                || {
                    ParticleFilter::new(
                        PflConfig {
                            particles: 600,
                            threads,
                            init: PflInit::AroundPose {
                                pose: steps[0].true_pose,
                                pos_std: 0.8,
                                theta_std: 0.4,
                            },
                            ..Default::default()
                        },
                        &map,
                    )
                },
                |mut pf| {
                    let mut profiler = Profiler::new();
                    black_box(pf.run(&steps, &mut profiler, &mut NullTrace))
                },
                BatchSize::LargeInput,
            )
        });
    }

    let problem = ArmProblem::map_c(2);
    for (label, threads) in variants {
        group.bench_function(format!("07.prm/build-800-{label}"), |b| {
            b.iter(|| {
                let mut profiler = Profiler::new();
                black_box(
                    Prm::new(PrmConfig {
                        roadmap_size: 800,
                        neighbors: 10,
                        seed: 3,
                        threads,
                    })
                    .build(&problem, &mut profiler),
                )
            })
        });
    }

    let mut rng = SimRng::seed_from(6);
    let room = scene::living_room(20_000, &mut rng);
    let motion = RigidTransform::from_yaw_translation(0.03, Point3::new(0.05, -0.03, 0.01));
    let scan1 = scene::scan_from(&room, &RigidTransform::identity(), 0.5, 0.002, &mut rng);
    let scan2 = scene::scan_from(&room, &motion, 0.5, 0.002, &mut rng);
    for (label, threads) in variants {
        group.bench_function(format!("03.srec/20k-points-{label}"), |b| {
            b.iter(|| {
                let mut profiler = Profiler::new();
                black_box(
                    Icp::new(IcpConfig {
                        threads,
                        ..Default::default()
                    })
                    .align(&scan2, &scan1, &mut profiler, &mut NullTrace),
                )
            })
        });
    }

    let sim = ThrowSim::new(2.0);
    for (label, threads) in variants {
        group.bench_function(format!("15.cem/10x200-{label}"), |b| {
            b.iter(|| {
                let mut profiler = Profiler::new();
                black_box(
                    Cem::new(CemConfig {
                        iterations: 10,
                        samples_per_iteration: 200,
                        threads,
                        ..Default::default()
                    })
                    .learn(&sim, &mut profiler, &mut NullTrace),
                )
            })
        });
    }
    group.finish();
}

/// Workspace-backed fast paths: GP posterior query sweeps (allocating
/// `predict` vs pooled `predict_with`, bit-identical per the `equivalence`
/// integration test) and MPC tracking runs on the scratch-buffer solver.
fn bench_workspace(c: &mut Criterion) {
    use rtr_linalg::Workspace;

    let mut group = c.benchmark_group("workspace");
    group.sample_size(10);

    // 200 GP posterior queries against a fixed 40-point training set —
    // the shape of `16.bo`'s acquisition loop between refits.
    let mut rng = SimRng::seed_from(9);
    let xs: Vec<Vec<f64>> = (0..40)
        .map(|_| vec![rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)])
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| (x[0] * 1.3).sin() + 0.25 * x[1] * x[1])
        .collect();
    let gp = GaussianProcess::fit(&xs, &ys, 0.9, 1.0, 1e-6).expect("jittered kernel is SPD");
    let queries: Vec<[f64; 2]> = (0..200)
        .map(|_| [rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)])
        .collect();
    group.bench_function("gp-predict/alloc", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for q in &queries {
                let (mean, var) = gp.predict(q);
                acc += mean + var;
            }
            black_box(acc)
        })
    });
    group.bench_function("gp-predict/workspace", |b| {
        let mut ws = Workspace::new();
        b.iter(|| {
            let mut acc = 0.0;
            for q in &queries {
                let (mean, var) = gp.predict_with(q, &mut ws);
                acc += mean + var;
            }
            black_box(acc)
        })
    });

    let reference = winding_reference(60);
    group.bench_function("mpc-track/workspace", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            black_box(Mpc::new(MpcConfig::default()).track(
                &reference,
                &mut profiler,
                &mut NullTrace,
            ))
        })
    });
    group.finish();
}

/// The bucketed-SoA k-d tree, single thread: raw nearest-neighbor sweeps
/// over an ICP-sized point set across leaf bucket sizes, plus the full
/// `03.srec` alignment whose `nn_search` region the tree dominates.
/// Answers are bit-identical for every bucket size (see the `kdtree`
/// integration test); only the memory behavior differs.
fn bench_kdtree_layout(c: &mut Criterion) {
    use rtr_geom::KdTree;

    let mut group = c.benchmark_group("kdtree_layout");
    group.sample_size(10);

    let mut rng = SimRng::seed_from(3);
    let items: Vec<([f64; 3], usize)> = (0..20_000)
        .map(|i| {
            (
                [
                    rng.uniform(-10.0, 10.0),
                    rng.uniform(-10.0, 10.0),
                    rng.uniform(-10.0, 10.0),
                ],
                i,
            )
        })
        .collect();
    let queries: Vec<[f64; 3]> = (0..2_000)
        .map(|_| {
            [
                rng.uniform(-10.0, 10.0),
                rng.uniform(-10.0, 10.0),
                rng.uniform(-10.0, 10.0),
            ]
        })
        .collect();
    let tree = KdTree::<3>::build_balanced(&items);
    group.bench_function("nearest-20k/bucket", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for q in &queries {
                acc += tree.nearest(q).expect("non-empty").1;
            }
            black_box(acc)
        })
    });

    // Bucket-size sweep at the same workload (incremental build so the
    // non-default bucket sizes exercise the scapegoat-rebuild path too).
    for bucket in [4usize, 8, 16, 32, 64] {
        let mut tree = KdTree::<3>::new().with_bucket_size(bucket);
        for &(p, id) in &items {
            tree.insert(p, id);
        }
        group.bench_function(format!("nearest-20k/bucket-{bucket}"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for q in &queries {
                    acc += tree.nearest(q).expect("non-empty").1;
                }
                black_box(acc)
            })
        });
    }

    let mut rng = SimRng::seed_from(6);
    let room = scene::living_room(20_000, &mut rng);
    let motion = RigidTransform::from_yaw_translation(0.03, Point3::new(0.05, -0.03, 0.01));
    let scan1 = scene::scan_from(&room, &RigidTransform::identity(), 0.5, 0.002, &mut rng);
    let scan2 = scene::scan_from(&room, &motion, 0.5, 0.002, &mut rng);
    group.bench_function("icp-align/bucket", |b| {
        b.iter(|| {
            let mut profiler = Profiler::new();
            black_box(Icp::new(IcpConfig::default()).align(
                &scan2,
                &scan1,
                &mut profiler,
                &mut NullTrace,
            ))
        })
    });
    group.finish();
}

/// The batched correspondence fan-out inside ICP: raw `batch_nearest_into`
/// sweeps and the full alignment, sequential vs four pool workers on the
/// default bucketed layout. Bit-identical results for every thread count
/// (see the `kdtree` and `determinism` integration tests).
fn bench_icp_batch_nn(c: &mut Criterion) {
    use rtr_geom::KdTree;
    use rtr_harness::Pool;

    let mut group = c.benchmark_group("icp_batch_nn");
    group.sample_size(10);
    let variants = [("seq", 1usize), ("par4", 4)];

    let mut rng = SimRng::seed_from(6);
    let room = scene::living_room(20_000, &mut rng);
    let motion = RigidTransform::from_yaw_translation(0.03, Point3::new(0.05, -0.03, 0.01));
    let scan1 = scene::scan_from(&room, &RigidTransform::identity(), 0.5, 0.002, &mut rng);
    let scan2 = scene::scan_from(&room, &motion, 0.5, 0.002, &mut rng);

    let items: Vec<([f64; 3], usize)> = scan1
        .iter()
        .enumerate()
        .map(|(i, p)| ([p.x, p.y, p.z], i))
        .collect();
    let tree = KdTree::<3>::build_balanced(&items);
    let queries: Vec<[f64; 3]> = scan2.iter().map(|p| [p.x, p.y, p.z]).collect();
    for (label, threads) in variants {
        let pool = Pool::new(threads);
        group.bench_function(format!("batch-nearest/{label}"), |b| {
            let mut out = Vec::new();
            b.iter(|| {
                tree.batch_nearest_into(&queries, &pool, &mut out);
                black_box(out.len())
            })
        });
    }
    for (label, threads) in variants {
        group.bench_function(format!("align/{label}"), |b| {
            b.iter(|| {
                let mut profiler = Profiler::new();
                black_box(
                    Icp::new(IcpConfig {
                        threads,
                        ..Default::default()
                    })
                    .align(&scan2, &scan1, &mut profiler, &mut NullTrace),
                )
            })
        });
    }
    group.finish();
}

/// RRT*'s per-sample neighborhood query: the allocating `within_radius`
/// against the buffer-reusing `within_radius_into` the planner now calls,
/// over an RRT*-sized 5-D configuration tree.
fn bench_rrtstar_neighborhood(c: &mut Criterion) {
    use rtr_geom::KdTree;

    let mut group = c.benchmark_group("rrtstar_neighborhood");
    group.sample_size(10);

    let mut rng = SimRng::seed_from(4);
    let pi = std::f64::consts::PI;
    let mut conf = || {
        let mut c = [0.0; 5];
        for v in &mut c {
            *v = rng.uniform(-pi, pi);
        }
        c
    };
    let items: Vec<([f64; 5], usize)> = (0..20_000).map(|i| (conf(), i)).collect();
    let queries: Vec<[f64; 5]> = (0..2_000).map(|_| conf()).collect();
    let tree = KdTree::<5>::build_balanced(&items);
    let radius = 0.9; // the paper's `--radius` default

    group.bench_function("within-radius/alloc", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for q in &queries {
                acc += tree.within_radius(q, radius).len();
            }
            black_box(acc)
        })
    });
    group.bench_function("within-radius/reuse", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            let mut acc = 0usize;
            for q in &queries {
                tree.within_radius_into(q, radius, &mut buf);
                acc += buf.len();
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// Blocked-vs-reference matrix products at the sizes where the cache
/// blocking engages (`Matrix::BLOCK_THRESHOLD` and up).
fn bench_linalg(c: &mut Criterion) {
    use rtr_linalg::Matrix;

    let mut group = c.benchmark_group("linalg");
    group.sample_size(10);

    let dense = |rows: usize, cols: usize, seed: u64| {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                m[(i, j)] = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            }
        }
        m
    };

    for n in [128usize, 256] {
        let a = dense(n, n, 1);
        let b = dense(n, n, 2);
        group.bench_function(format!("mul_matrix/blocked-{n}"), |bch| {
            bch.iter(|| black_box(a.mul_matrix(&b).unwrap()))
        });
        group.bench_function(format!("mul_matrix/reference-{n}"), |bch| {
            bch.iter(|| black_box(a.mul_matrix_reference(&b).unwrap()))
        });
    }

    // The EKF-sized congruence fast path: A·B·Aᵀ without materializing Bᵀ.
    let a = dense(23, 23, 3);
    let b = dense(23, 23, 4);
    group.bench_function("congruence/23", |bch| {
        bch.iter(|| black_box(a.congruence(&b).unwrap()))
    });
    group.finish();
}

/// The sequential leaf scan as the lane kernel's retired scalar arm ran
/// it: out of line, over a run-time point dimension. Specialized for
/// 3-D points the same loop runs several times faster, so it would be a
/// different baseline from the one CI's floor was set on.
#[inline(never)]
fn scalar_squared_distances(pts: &[f64], dim: usize, query: &[f64], out: &mut [f64]) {
    assert!(dim > 0, "point dimension must be positive");
    assert_eq!(pts.len() % dim, 0, "packed point slice must be len × dim");
    assert_eq!(query.len(), dim, "query dimension mismatch");
    let n = pts.len() / dim;
    assert!(out.len() >= n, "output buffer too short");
    for (i, p) in pts.chunks_exact(dim).enumerate() {
        let mut acc = 0.0;
        for d in 0..dim {
            let diff = p[d] - query[d];
            acc += diff * diff;
        }
        out[i] = acc;
    }
}

/// Lane kernels vs their scalar references on the three SoA hot loops:
/// the bucketed k-d leaf distance scan (`squared_distances`), the matvec
/// row dot (`dot`), and the PFL weight loop (`sum`). The `…/scalar`
/// entries time the sequential loops written out here; they are the
/// test-side references of `crates/bench/tests/simd.rs`, not a
/// production path. CI holds the measured speedup floor over these
/// medians: lanes must stay ≥1.3× scalar on at least two of the three.
fn bench_simd_fastpaths(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_fastpaths");

    // k-d leaf scan: the 64-slot leaf blocks, back to back.
    let pts: Vec<f64> = (0..16_384 * 3)
        .map(|i| (i as f64 * 0.13).sin() * 8.0)
        .collect();
    let query = [0.3, -0.8, 1.7];
    let mut d2s = vec![0.0f64; 16_384];
    group.bench_function("leaf_scan/scalar", |bch| {
        bch.iter(|| {
            scalar_squared_distances(&pts, black_box(3), &query, &mut d2s);
            black_box(d2s[0])
        })
    });
    group.bench_function("leaf_scan/lanes", |bch| {
        bch.iter(|| {
            rtr_simd::squared_distances::<3>(&pts, &query, &mut d2s);
            black_box(d2s[0])
        })
    });

    // Matvec microkernel: one dense row dot per output element.
    let xs: Vec<f64> = (0..16_384).map(|i| (i as f64 * 0.7).sin()).collect();
    let ys: Vec<f64> = (0..16_384).map(|i| (i as f64 * 0.3).cos()).collect();
    group.bench_function("matvec_dot/scalar", |bch| {
        bch.iter(|| {
            let mut total = 0.0;
            for (&x, &y) in xs.iter().zip(&ys) {
                total += x * y;
            }
            black_box(total)
        })
    });
    group.bench_function("matvec_dot/lanes", |bch| {
        bch.iter(|| black_box(rtr_simd::dot(&xs, &ys)))
    });

    // PFL weight loop: normalization totals over the particle weights.
    let weights: Vec<f64> = (0..65_536)
        .map(|i| 0.5 + (i as f64 * 0.11).sin().abs())
        .collect();
    group.bench_function("weight_sum/scalar", |bch| {
        bch.iter(|| {
            let mut total = 0.0;
            for &w in &weights {
                total += w;
            }
            black_box(total)
        })
    });
    group.bench_function("weight_sum/lanes", |bch| {
        bch.iter(|| black_box(rtr_simd::sum(&weights)))
    });
    group.finish();
}

fn bench_scenario_tick(c: &mut Criterion) {
    use rtr_scenario::{LocalizerKind, ScenarioConfig, ScenarioState};

    let mut group = c.benchmark_group("scenario_tick");
    group.sample_size(10);

    // One iteration = one closed-loop tick (sense → localize → plan →
    // control). When a run reaches its goal the state is rebuilt, so the
    // (re)begin cost is amortized over the ~150 ticks each episode lasts.
    for localizer in [LocalizerKind::Pfl, LocalizerKind::EkfSlam] {
        let config = ScenarioConfig {
            localizer,
            particles: 300,
            ..ScenarioConfig::default()
        };
        let mut state = ScenarioState::begin(&config).expect("default scenario is solvable");
        group.bench_function(format!("{}_loop", localizer.label()), |bch| {
            bch.iter(|| {
                if !state.step() {
                    state = ScenarioState::begin(&config).expect("default scenario is solvable");
                }
                black_box(state.ticks())
            })
        });
    }
    group.finish();
}

criterion_group!(
    kernels,
    bench_perception,
    bench_grid_planning,
    bench_arm_planning,
    bench_symbolic,
    bench_control,
    bench_characterization,
    bench_archsim_throughput,
    bench_ring_transport,
    bench_parallel,
    bench_workspace,
    bench_kdtree_layout,
    bench_icp_batch_nn,
    bench_rrtstar_neighborhood,
    bench_linalg,
    bench_simd_fastpaths,
    bench_scenario_tick
);
criterion_main!(kernels);
