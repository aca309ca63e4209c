//! The stepped-lifecycle and closed-loop scenario contracts, at the
//! registry level.
//!
//! Three contracts pinned here (the ones `rtr_core::KernelInstance`'s
//! docs promise on behalf of this suite):
//!
//! 1. **Stepped ≡ one-shot** — for every kernel in the registry,
//!    driving `instantiate` → `step`* → `finish` by hand yields a report
//!    whose result metrics are byte-identical to `Kernel::run` on the
//!    same arguments.
//! 2. **Thread-count-independent replay** — the closed-loop scenario's
//!    golden (every pose rendered via `to_bits`) is byte-identical
//!    across `threads` ∈ {1, 2, 4}, for both localizers, and equals the
//!    checked-in `scenario_<localizer>.golden` next to this file.
//! 3. **Allocation plateau** — once warm, further scenario ticks grow no
//!    scratch buffer: the growth counters at tick 40 equal the counters
//!    at the end of the run.

use rtr_core::{registry, Kernel, StepStatus, TraceSession};
use rtr_harness::Args;
use rtr_scenario::{LocalizerKind, ScenarioConfig, ScenarioState};

/// Small per-kernel arguments so the replays stay fast; mirrors the
/// reduced inputset in `trace_identity.rs`.
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

/// Drives the stepped lifecycle by hand, outside `Kernel::run`, counting
/// the steps taken.
fn drive_by_hand(kernel: &dyn Kernel, args: &Args) -> (rtr_core::KernelReport, usize) {
    let mut session = TraceSession::from_args(args).expect("session");
    let mut instance = kernel.instantiate(args).expect("instantiate");
    let mut steps = 0usize;
    while instance.step(session.sink()).expect("step") == StepStatus::Running {
        steps += 1;
    }
    steps += 1; // the Done-returning call is a step too
    let report = instance.finish(0.0, session).expect("finish");
    (report, steps)
}

#[test]
fn stepped_lifecycle_matches_run_for_every_kernel() {
    for kernel in registry() {
        let extra = small_args(kernel.name());
        let args = Args::parse_tokens(extra).expect("valid tokens");
        let oneshot = kernel
            .run(&args)
            .unwrap_or_else(|e| panic!("{} run: {e}", kernel.name()));
        let (stepped, steps) = drive_by_hand(kernel.as_ref(), &args);

        // Result metrics are formatted values (path cost, RMSE, ...):
        // byte equality here is bit equality of the results.
        assert_eq!(
            oneshot.metrics,
            stepped.metrics,
            "{}: stepped metrics diverge from one-shot run",
            kernel.name()
        );
        assert_eq!(oneshot.name, stepped.name);
        assert_eq!(oneshot.stage, stepped.stage);

        // Region *structure* is invariant (values are wall clock).
        let names = |r: &rtr_core::KernelReport| {
            let mut v: Vec<String> = r.regions.iter().map(|reg| reg.name.clone()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(names(&oneshot), names(&stepped), "{}", kernel.name());
        assert!(steps >= 1, "{}: no steps taken", kernel.name());
    }
}

#[test]
fn incremental_kernels_expose_multiple_steps() {
    // The stepped lifecycle is only useful for composition if kernels
    // with a natural increment really do yield between units of work.
    for (name, min_steps) in [
        ("01.pfl", 10),
        ("02.ekfslam", 10),
        ("03.srec", 2),
        ("09.rrtstar", 100),
        ("13.dmp", 10),
        ("14.mpc", 10),
    ] {
        let kernel = rtr_core::kernels::registry_lookup(name).expect("registered");
        let args = Args::parse_tokens(small_args(name)).expect("valid tokens");
        let (_, steps) = drive_by_hand(kernel.as_ref(), &args);
        assert!(
            steps >= min_steps,
            "{name}: expected at least {min_steps} steps, got {steps}"
        );
    }
}

fn scenario_golden(localizer: LocalizerKind, threads: usize) -> String {
    let config = ScenarioConfig {
        max_ticks: 120,
        particles: 150,
        localizer,
        threads,
        ..ScenarioConfig::default()
    };
    let mut state = ScenarioState::begin(&config).expect("default scenario is solvable");
    while state.step() {}
    let (report, _) = state.finish();
    report.golden()
}

/// The checked-in `threads = 1` golden: comparing thread counts alone
/// would miss a change that moves every thread count together.
fn checked_in_golden(localizer: LocalizerKind) -> &'static str {
    match localizer {
        LocalizerKind::Pfl => include_str!("scenario_pfl.golden"),
        LocalizerKind::EkfSlam => include_str!("scenario_ekfslam.golden"),
    }
}

#[test]
fn scenario_replay_is_byte_identical_across_thread_counts() {
    for localizer in [LocalizerKind::Pfl, LocalizerKind::EkfSlam] {
        let baseline = scenario_golden(localizer, 1);
        assert!(
            baseline.contains(localizer.label()),
            "golden names its loop"
        );
        assert_eq!(
            baseline,
            checked_in_golden(localizer),
            "{}: golden diverges from the checked-in fixture",
            localizer.label()
        );
        for threads in [2usize, 4] {
            let replay = scenario_golden(localizer, threads);
            assert_eq!(
                baseline,
                replay,
                "{}: golden diverges at threads={threads}",
                localizer.label()
            );
        }
    }
}

#[test]
fn scenario_allocations_plateau_after_warmup() {
    for localizer in [LocalizerKind::Pfl, LocalizerKind::EkfSlam] {
        let config = ScenarioConfig {
            max_ticks: 200,
            particles: 120,
            localizer,
            ..ScenarioConfig::default()
        };
        let mut state = ScenarioState::begin(&config).expect("solvable");
        while state.ticks() < 40 && state.step() {}
        let warm = state.allocation_counters();
        while state.step() {}
        assert!(state.ticks() > 40, "{}: run too short", localizer.label());
        assert_eq!(
            state.allocation_counters(),
            warm,
            "{}: scratch buffers grew after the warmup plateau",
            localizer.label()
        );
    }
}
