//! Tracing must be observation-only, for every kernel in the registry.
//!
//! Each kernel crate pins bit-identity of its own outputs under a
//! recording sink (`to_bits` comparisons, in the style of
//! `determinism.rs`); this suite closes the loop at the registry level:
//! running any kernel with `--trace` (with or without `--vldp`) must
//! reproduce the untraced run's result metrics *exactly*, only appending
//! the cache rows, and prefetching must never change the demand stream.

use rtr_archsim::MemorySim;
use rtr_bench::characterization::collect_kernels_with;
use rtr_control::dmp::wheeled_robot_demo;
use rtr_control::mpc::winding_reference;
use rtr_control::{Dmp, DmpConfig, Mpc, MpcConfig};
use rtr_core::{registry, Telemetry, TraceSession};
use rtr_harness::{Args, Collector, Profiler};
use rtr_trace::{trace_channel, BufferedTrace, MemTrace};

/// Small per-kernel arguments so the traced replays stay fast; mirrors
/// the `exp_characterization` reduced inputset.
fn small_args(kernel: &str) -> &'static [&'static str] {
    match kernel {
        "01.pfl" => &["--particles", "60"],
        "02.ekfslam" => &["--steps", "40", "--landmarks", "4"],
        "03.srec" => &["--points", "1500", "--iterations", "4"],
        "04.pp2d" => &["--size", "96"],
        "05.pp3d" => &["--size", "32", "--height", "6"],
        "06.movtar" => &["--size", "32"],
        "07.prm" => &["--roadmap", "150", "--neighbors", "6"],
        "08.rrt" => &["--samples", "2000"],
        "09.rrtstar" => &["--samples", "800"],
        "10.rrtpp" => &["--samples", "800", "--passes", "2"],
        "11.sym-blkw" => &["--blocks", "4"],
        "13.dmp" => &["--duration", "0.25", "--basis", "12"],
        "14.mpc" => &["--length", "40", "--iterations", "10"],
        "15.cem" => &["--iterations", "3", "--samples", "8"],
        "16.bo" => &["--iterations", "8", "--candidates", "60"],
        _ => &[],
    }
}

fn parse(extra: &[&str], trace: &[&str]) -> Args {
    let mut tokens: Vec<&str> = extra.to_vec();
    tokens.extend_from_slice(trace);
    Args::parse_tokens(&tokens).expect("valid tokens")
}

#[test]
fn tracing_is_observation_only_for_every_kernel() {
    for kernel in registry() {
        let extra = small_args(kernel.name());
        let untraced = kernel
            .run(&parse(extra, &[]))
            .unwrap_or_else(|e| panic!("{} untraced: {e}", kernel.name()));
        let traced = kernel
            .run(&parse(extra, &["--trace"]))
            .unwrap_or_else(|e| panic!("{} traced: {e}", kernel.name()));
        let prefetched = kernel
            .run(&parse(extra, &["--trace", "--vldp", "4"]))
            .unwrap_or_else(|e| panic!("{} traced+vldp: {e}", kernel.name()));

        assert!(
            untraced.cache.is_none(),
            "{}: untraced run must not attach the simulator",
            kernel.name()
        );

        // The traced runs' metric tables must be the untraced table plus
        // the appended cache rows — byte-for-byte on every shared row.
        for report in [&traced, &prefetched] {
            assert!(
                report.metrics.len() > untraced.metrics.len(),
                "{}: traced run should append cache rows",
                kernel.name()
            );
            assert_eq!(
                &report.metrics[..untraced.metrics.len()],
                &untraced.metrics[..],
                "{}: tracing perturbed the kernel's result metrics",
                kernel.name()
            );
        }

        // Profiler region structure is also invariant (values are wall
        // clock and may differ, which also reorders the report; the set
        // of regions may not change).
        let regions = |r: &rtr_core::KernelReport| -> Vec<String> {
            let mut names: Vec<String> = r.regions.iter().map(|reg| reg.name.clone()).collect();
            names.sort();
            names
        };
        assert_eq!(regions(&untraced), regions(&traced), "{}", kernel.name());

        // The demand stream is deterministic and prefetch-independent.
        let t = traced.cache.as_ref().expect("traced run has cache report");
        let p = prefetched
            .cache
            .as_ref()
            .expect("vldp run has cache report");
        assert!(t.accesses > 0, "{}: no accesses traced", kernel.name());
        assert_eq!(t.accesses, p.accesses, "{}", kernel.name());
        assert_eq!(t.reads, p.reads, "{}", kernel.name());
        assert_eq!(t.writes, p.writes, "{}", kernel.name());
        assert!(p.prefetch.is_some(), "{}: vldp not attached", kernel.name());

        // Every kernel now distinguishes loads from stores, and all but
        // the read-only replays actually emit stores.
        assert_eq!(t.accesses, t.reads + t.writes, "{}", kernel.name());
    }
}

#[test]
fn repeated_traced_runs_reproduce_the_same_cache_report() {
    for kernel in registry() {
        let extra = small_args(kernel.name());
        let a = kernel.run(&parse(extra, &["--trace"])).unwrap();
        let b = kernel.run(&parse(extra, &["--trace"])).unwrap();
        let (a, b) = (a.cache.unwrap(), b.cache.unwrap());
        assert_eq!(a.accesses, b.accesses, "{}", kernel.name());
        assert_eq!(a.reads, b.reads, "{}", kernel.name());
        assert_eq!(a.writes, b.writes, "{}", kernel.name());
        assert_eq!(a.memory_accesses, b.memory_accesses, "{}", kernel.name());
        assert_eq!(
            a.memory_writebacks,
            b.memory_writebacks,
            "{}",
            kernel.name()
        );
        for (la, lb) in a.levels.iter().zip(b.levels.iter()) {
            assert_eq!(la.misses, lb.misses, "{}", kernel.name());
            assert_eq!(la.accesses, lb.accesses, "{}", kernel.name());
        }
    }
}

/// Drives real kernel access streams (not synthetic proptest streams)
/// through a per-op `&mut dyn MemTrace` simulator and through
/// `BufferedTrace<MemorySim>` at several flush capacities: every report
/// must be byte-identical. This is the end-to-end check behind routing
/// `TraceSession` through the buffered transport.
#[test]
fn buffered_transport_matches_per_op_simulation_on_kernel_streams() {
    let (demo, duration) = wheeled_robot_demo(200);
    let dmp = Dmp::learn(&demo, duration, DmpConfig::default());
    let reference = winding_reference(40);

    let sims = || [MemorySim::i3_8109u(), MemorySim::i3_8109u().with_vldp(2)];
    let drive = |label: &str, run: &dyn Fn(&mut dyn MemTrace)| {
        for (variant, sim) in sims().into_iter().enumerate() {
            // Reference: the op-at-a-time dynamic dispatch path.
            let mut per_op = sim.clone();
            run(&mut per_op);
            let expected = per_op.report();
            for capacity in [1usize, 7, 4096] {
                let mut buffered = BufferedTrace::with_capacity(sim.clone(), capacity);
                run(&mut buffered);
                assert_eq!(
                    buffered.into_inner().report(),
                    expected,
                    "{label}: variant {variant} diverged at capacity {capacity}"
                );
            }
        }
    };

    drive("13.dmp", &|sink| {
        let mut profiler = Profiler::new();
        dmp.rollout(duration, &mut profiler, sink);
    });
    drive("14.mpc", &|sink| {
        let mut profiler = Profiler::new();
        Mpc::new(MpcConfig::default()).track(&reference, &mut profiler, sink);
    });
}

/// The off-thread transport end-to-end on real kernel streams: the
/// kernel thread sends batches through a `TraceSender` while a
/// `Collector` thread runs the simulation concurrently, and the final
/// report must be byte-identical to the inline `BufferedTrace` path —
/// the lossless order-preserving channel plus batch-size-invariant
/// `process_batch` leave the simulator no way to tell the transports
/// apart.
#[test]
fn ring_transport_matches_inline_simulation_on_kernel_streams() {
    let (demo, duration) = wheeled_robot_demo(200);
    let dmp = Dmp::learn(&demo, duration, DmpConfig::default());
    let reference = winding_reference(40);

    let sims = || [MemorySim::i3_8109u(), MemorySim::i3_8109u().with_vldp(2)];
    let drive = |label: &str, run: &dyn Fn(&mut dyn MemTrace)| {
        for (variant, sim) in sims().into_iter().enumerate() {
            // Reference: the inline buffered path TraceSession uses.
            let mut inline = BufferedTrace::new(sim.clone());
            run(&mut inline);
            let expected = inline.into_inner().report();
            // Tiny batches in a pool of two (the producer waits on the
            // collector for nearly every batch) and a roomy pool.
            for (batch, buffers) in [(7usize, 2usize), (4096, 16)] {
                let (mut trace, reader) = trace_channel(batch, buffers);
                let collector = Collector::spawn(reader, sim.clone());
                run(&mut trace);
                drop(trace);
                assert_eq!(
                    collector.finish().report(),
                    expected,
                    "{label}: variant {variant} diverged at {buffers} batches of {batch}"
                );
            }
        }
    };

    drive("13.dmp", &|sink| {
        let mut profiler = Profiler::new();
        dmp.rollout(duration, &mut profiler, sink);
    });
    drive("14.mpc", &|sink| {
        let mut profiler = Profiler::new();
        Mpc::new(MpcConfig::default()).track(&reference, &mut profiler, sink);
    });
}

/// The registry-level transport choice: an off-thread session on real
/// kernels must reproduce the inline cache report exactly — the guarantee behind
/// the CI leg that byte-compares the two `CHAR_report.json` artifacts.
#[test]
fn telemetry_ring_kernel_runs_match_inline_reports() {
    for name in ["13.dmp", "14.mpc"] {
        let kernel_list = registry();
        let kernel = kernel_list.iter().find(|k| k.name() == name).unwrap();
        let extra = small_args(name);
        let inline = kernel
            .run(&parse(extra, &["--trace", "--vldp", "2"]))
            .unwrap();
        let ringed = kernel
            .run_with(
                &parse(extra, &[]),
                TraceSession::enabled_with(Telemetry::Ring, 2),
            )
            .unwrap();
        assert_eq!(
            inline.cache, ringed.cache,
            "{name}: the off-thread transport changed the cache report"
        );
        // Observation-only still holds: result metrics are untouched.
        let shared = inline
            .metrics
            .iter()
            .zip(ringed.metrics.iter())
            .take_while(|(a, b)| a == b)
            .count();
        assert!(
            shared >= inline.metrics.len() - 1,
            "{name}: metrics diverged"
        );
    }
}

/// The sharded table on the off-thread transport equals the inline table —
/// every digit of every row, across thread counts.
#[test]
fn ring_characterization_table_matches_inline() {
    let names: Vec<String> = ["13.dmp", "15.cem"].iter().map(|n| n.to_string()).collect();
    let inline = collect_kernels_with(&names, false, 2, 1, Telemetry::Inline);
    for threads in [1usize, 4] {
        assert_eq!(
            collect_kernels_with(&names, false, 2, threads, Telemetry::Ring),
            inline,
            "off-thread table diverged at --threads {threads}"
        );
    }
}

/// The sharded characterization table must not depend on the worker
/// count: `Pool::par_map` preserves cell order and every cell owns its
/// simulator, so `--threads 1/2/4` assemble identical reports.
#[test]
fn sharded_characterization_table_is_thread_count_invariant() {
    // A cheap slice of the registry keeps the three sweeps fast while
    // still crossing kernel crates (planning, control).
    let names: Vec<String> = ["11.sym-blkw", "13.dmp", "15.cem"]
        .iter()
        .map(|n| n.to_string())
        .collect();
    let base = collect_kernels_with(&names, false, 2, 1, Telemetry::Inline);
    for row in &base.rows {
        assert!(row.off.is_ok() && row.on.is_ok(), "{}: {row:?}", row.kernel);
    }
    for threads in [2usize, 4] {
        assert_eq!(
            collect_kernels_with(&names, false, 2, threads, Telemetry::Inline),
            base,
            "table diverged at --threads {threads}"
        );
    }
}
