//! The reduced-inputset characterization table as exact counters.
//!
//! `CHAR_report.json` renders miss ratios to six decimals, so a change
//! that moves one miss in a million-access cell can pass a byte compare
//! of that artifact. This suite pins every integer of every cell
//! instead: for each registry kernel on `small_args`, with VLDP off and
//! at degree 4, the hierarchy counts, each level's `CacheStats` and the
//! `PrefetchStats`. One changed miss, fill or redundant prefetch fails it.
//!
//! `RTR_BLESS=1 cargo test --release -p rtr-bench --test char_fixture`
//! rewrites `char_small.fixture` from a fresh run. A re-bless belongs in
//! a commit of its own that says why the counters moved.

use std::fmt::Write as _;
use std::path::PathBuf;

use rtr_bench::characterization::collect_with;
use rtr_core::{CacheReport, Telemetry};

/// Degree of the VLDP-on column, as in `exp_characterization`'s default.
const VLDP_DEGREE: usize = 4;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/char_small.fixture")
}

/// One fixture line: every counter of one cell's report.
fn cell_line(out: &mut String, kernel: &str, vldp: usize, report: &CacheReport) {
    write!(
        out,
        "{kernel} vldp={vldp} accesses={} reads={} writes={} memory_accesses={} memory_writebacks={}",
        report.accesses, report.reads, report.writes, report.memory_accesses, report.memory_writebacks
    )
    .unwrap();
    for (label, level) in ["l1d", "l2", "llc"].iter().zip(&report.levels) {
        write!(
            out,
            " {label}=[{} {} {} {} {} {}]",
            level.accesses,
            level.misses,
            level.writes,
            level.write_misses,
            level.prefetch_hits,
            level.writebacks
        )
        .unwrap();
    }
    match report.prefetch {
        Some(p) => writeln!(out, " prefetch=[{} {}]", p.issued, p.redundant).unwrap(),
        None => writeln!(out, " prefetch=none").unwrap(),
    }
}

/// The whole table in fixture form, registry order, off before on.
fn render() -> String {
    let report = collect_with(false, VLDP_DEGREE, 0, Telemetry::Inline);
    let mut out = String::from(
        "# kernel vldp accesses reads writes memory_accesses memory_writebacks\n\
         # level=[accesses misses writes write_misses prefetch_hits writebacks]\n\
         # prefetch=[issued redundant]\n",
    );
    for row in &report.rows {
        for (vldp, cell) in [(0, &row.off), (VLDP_DEGREE, &row.on)] {
            let cache = cell
                .as_ref()
                .unwrap_or_else(|e| panic!("{} vldp={vldp}: {e}", row.kernel));
            cell_line(&mut out, &row.kernel, vldp, cache);
        }
    }
    out
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the 01.pfl VLDP-4 cell runs for tens of seconds in debug; run with --release"
)]
fn small_characterization_counters_match_the_fixture() {
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
        "characterization counters diverge from {} ({} of {} lines differ):\n{}",
        path.display(),
        diverged.len(),
        committed.lines().count(),
        diverged.join("\n")
    );
}
