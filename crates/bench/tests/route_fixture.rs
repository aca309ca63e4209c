//! Every route the shared best-first engine plans, as exact bits.
//!
//! The closed loop plans its route once per episode inside
//! `ScenarioState::begin`, with `04.pp2d` on a clearance-inflated floor
//! plan; `04.pp2d`, `05.pp3d`, `06.movtar`, `07.prm` and both symbolic
//! kernels search with the same engine. This suite pins what they
//! produce, so a change to the footprint check or to the search's
//! bookkeeping that moves one route, one tie-break or one counter fails:
//!
//! - for each scenario seed in 1..=147, the outcome of `begin`, and for a
//!   routed seed an FNV-1a digest of the reference waypoints' bits, the
//!   route cost bits and the expansion count;
//! - `Pp2d::plan` on city maps of side {128, 256, 512} × seed {1, 2, 3} ×
//!   weight {1.0, 2.5}: path digest, cost bits, expansions, collision
//!   checks and cells probed, plus the kernel's metric rows at defaults;
//! - the metric rows of the other engine users at defaults and at two
//!   more seeds where the kernel takes `--seed`.
//!
//! `RTR_BLESS=1 cargo test --release -p rtr-bench --test route_fixture`
//! rewrites `route.fixture` from a fresh run. A re-bless belongs in a
//! commit of its own that says why the routes moved.

use std::fmt::Write as _;
use std::path::PathBuf;

use rtr_core::registry_lookup;
use rtr_geom::maps;
use rtr_harness::{Args, Profiler};
use rtr_planning::{Pp2d, Pp2dConfig};
use rtr_scenario::{LocalizerKind, ScenarioConfig, ScenarioState};
use rtr_trace::NullTrace;

/// Scenario seeds whose routes are pinned (every world rtr-perf's loops
/// can draw from, and more).
const SCENARIO_SEEDS: std::ops::RangeInclusive<u64> = 1..=147;

/// The `04.pp2d` kernel's street-guaranteed endpoints: start `(4, 1)`
/// and goal `(g, g)` with `g ≡ 1` modulo the block pitch `max(side / 16,
/// 8)`, at least 7 cells from the far edge (see `Pp2dKernel`).
const STREET_GOALS: [(usize, usize); 3] = [(128, 121), (256, 241), (512, 481)];

/// Registry runs of the other engine users: defaults, then two more
/// seeds where the kernel takes `--seed`.
const KERNEL_RUNS: &[(&str, &[&str])] = &[
    ("04.pp2d", &[]),
    ("05.pp3d", &[]),
    ("05.pp3d", &["--seed", "1"]),
    ("05.pp3d", &["--seed", "5"]),
    ("06.movtar", &[]),
    ("06.movtar", &["--seed", "1"]),
    ("06.movtar", &["--seed", "5"]),
    ("07.prm", &[]),
    ("07.prm", &["--seed", "1"]),
    ("07.prm", &["--seed", "5"]),
    ("11.sym-blkw", &[]),
    ("12.sym-fext", &[]),
];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/route.fixture")
}

/// FNV-1a over the little-endian bytes of `words`.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn scenario_lines(out: &mut String) {
    for seed in SCENARIO_SEEDS {
        let config = ScenarioConfig {
            seed,
            localizer: LocalizerKind::EkfSlam,
            ..ScenarioConfig::default()
        };
        let state = match ScenarioState::begin(&config) {
            Ok(state) => state,
            Err(e) => {
                writeln!(out, "scenario seed={seed} {e:?}").unwrap();
                continue;
            }
        };
        let reference = state.reference();
        let waypoints = reference.len();
        let reference = digest(
            reference
                .iter()
                .flat_map(|p| [p.x.to_bits(), p.y.to_bits()]),
        );
        let (report, _) = state.finish();
        writeln!(
            out,
            "scenario seed={seed} routed waypoints={waypoints} reference={reference:016x} \
             cost={:016x} expanded={}",
            report.plan_cost.to_bits(),
            report.plan_expanded
        )
        .unwrap();
    }
}

fn pp2d_lines(out: &mut String) {
    for (side, goal) in STREET_GOALS {
        for seed in 1..=3 {
            let map = maps::city_blocks(side, 1.0, seed);
            for weight in [1.0, 2.5] {
                let config = Pp2dConfig {
                    weight,
                    ..Pp2dConfig::car((4, 1), (goal, goal))
                };
                let result = Pp2d::new(config).plan(&map, &mut Profiler::new(), &mut NullTrace);
                write!(out, "pp2d side={side} seed={seed} weight={weight}").unwrap();
                match result {
                    None => writeln!(out, " unreachable").unwrap(),
                    Some(r) => writeln!(
                        out,
                        " path={:016x} steps={} cost={:016x} expanded={} checks={} probes={}",
                        digest(r.path.iter().flat_map(|&(x, y)| [x as u64, y as u64])),
                        r.path.len(),
                        r.cost.to_bits(),
                        r.expanded,
                        r.collision_checks,
                        r.cells_probed
                    )
                    .unwrap(),
                }
            }
        }
    }
}

fn kernel_lines(out: &mut String) {
    for &(name, tokens) in KERNEL_RUNS {
        let args = Args::parse_tokens(tokens).expect("fixture arguments parse");
        let kernel = registry_lookup(name).expect("registered kernel");
        write!(out, "kernel {name} [{}]", tokens.join(" ")).unwrap();
        match kernel.run(&args) {
            Err(e) => writeln!(out, " error: {e}").unwrap(),
            Ok(report) => {
                for (label, value) in &report.metrics {
                    write!(out, " | {label}={value}").unwrap();
                }
                writeln!(out).unwrap();
            }
        }
    }
}

/// The whole fixture: scenario routes, `04.pp2d` plans, registry rows.
fn render() -> String {
    let mut out = String::from(
        "# scenario seed=<s> <begin error> | routed waypoints reference=<fnv of waypoint bits> cost=<bits> expanded\n\
         # pp2d side seed weight path=<fnv of cells> steps cost=<bits> expanded checks probes\n\
         # kernel <name> [<args>] | <metric row>=<value> ...\n",
    );
    scenario_lines(&mut out);
    pp2d_lines(&mut out);
    kernel_lines(&mut out);
    out
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "147 scenario route plans take minutes in debug; run with --release"
)]
fn planned_routes_match_the_fixture() {
    let fresh = render();
    let path = fixture_path();
    if std::env::var_os("RTR_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &fresh).expect("write the fixture");
        return;
    }
    let committed = std::fs::read_to_string(&path).expect("read the fixture");
    let diverged: Vec<String> = committed
        .lines()
        .zip(fresh.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  want {want}\n  got  {got}"))
        .collect();
    assert!(
        diverged.is_empty() && committed.lines().count() == fresh.lines().count(),
        "planned routes diverge from {} ({} of {} lines differ):\n{}",
        path.display(),
        diverged.len(),
        committed.lines().count(),
        diverged.join("\n")
    );
}
