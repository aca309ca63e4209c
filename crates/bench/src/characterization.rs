//! EXP-CHAR collection: the suite-wide cache-characterization table as
//! data, shardable over the deterministic harness pool.
//!
//! Each table cell — one kernel replayed through the i3-8109U model with
//! a fixed VLDP setting — is an isolated simulation: its own `MemorySim`,
//! its own deterministic access stream. That makes the table
//! embarrassingly parallel, and because [`rtr_harness::Pool::par_map`]
//! preserves input order, the assembled rows are byte-identical for any
//! `--threads` value (the trace-identity suite pins this).

use rtr_core::{registry, registry_lookup, CacheReport, Telemetry, TraceSession};
use rtr_harness::{Args, Pool};

/// Reduced per-kernel arguments used unless `--full` is passed: the same
/// access patterns at a scale where the traced replay stays in seconds.
pub fn small_args(kernel: &str) -> &'static [&'static str] {
    match kernel {
        "01.pfl" => &["--particles", "120"],
        "02.ekfslam" => &["--steps", "60", "--landmarks", "4"],
        "03.srec" => &["--points", "3000", "--iterations", "6"],
        "04.pp2d" => &["--size", "128"],
        "05.pp3d" => &["--size", "48", "--height", "8"],
        "06.movtar" => &["--size", "48"],
        "07.prm" => &["--roadmap", "300", "--neighbors", "8"],
        "08.rrt" => &["--samples", "4000"],
        "09.rrtstar" => &["--samples", "1500"],
        "10.rrtpp" => &["--samples", "1500", "--passes", "3"],
        "11.sym-blkw" => &["--blocks", "4"],
        "13.dmp" => &["--duration", "0.5", "--basis", "20"],
        "14.mpc" => &["--length", "60", "--iterations", "20"],
        "16.bo" => &["--iterations", "15", "--candidates", "120"],
        // 12.sym-fext and 15.cem are already small at their defaults.
        _ => &[],
    }
}

/// Runs one kernel traced and returns its cache report.
///
/// Looks the kernel up by name in a freshly built registry so the
/// function is self-contained and `Sync`-free — exactly what a pool
/// worker needs (`Box<dyn Kernel>` is neither `Send` nor `Sync`).
/// `Telemetry::Ring` sends the ops in batches over a channel to a
/// collector-thread simulator instead of simulating inline; reports are
/// byte-identical either way (the trace-identity suite pins this).
///
/// # Errors
///
/// Returns a rendered error string when the kernel is unknown, its CLI
/// rejects the tokens, the run fails, or it ignores the trace session.
pub fn traced_run(
    kernel: &str,
    full: bool,
    vldp: usize,
    telemetry: Telemetry,
) -> Result<CacheReport, String> {
    let k = registry_lookup(kernel).map_err(|e| e.to_string())?;
    let tokens: &[&str] = if full { &[] } else { small_args(kernel) };
    let args = Args::parse_tokens(tokens).map_err(|e| e.to_string())?;
    let session = TraceSession::enabled_with(telemetry, vldp);
    let report = k.run_with(&args, session).map_err(|e| e.to_string())?;
    report
        .cache
        .ok_or_else(|| "kernel ignored the trace session".to_string())
}

/// One characterization row: a kernel's VLDP-off and VLDP-on reports over
/// the same deterministic access stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CharRow {
    /// Kernel name (`01.pfl` … `16.bo`).
    pub kernel: String,
    /// The VLDP-off report.
    pub off: Result<CacheReport, String>,
    /// The VLDP-on report (degree = the sweep's `vldp`).
    pub on: Result<CacheReport, String>,
}

/// The collected table plus the parameters that produced it, serialized
/// to `CHAR_report.json` by [`CharReport::to_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CharReport {
    /// Report format version.
    pub version: u64,
    /// `"full"` or `"small"` inputset.
    pub inputset: String,
    /// Degree of the VLDP-on column.
    pub vldp_degree: usize,
    /// One row per registry kernel, registry order.
    pub rows: Vec<CharRow>,
}

/// Collects the characterization table over the whole registry on the
/// given trace transport, fanning the independent kernel × {off, on}
/// cells over `threads` pool workers (0 = one per core). Rows come back
/// in registry order regardless of thread count.
pub fn collect_with(full: bool, vldp: usize, threads: usize, telemetry: Telemetry) -> CharReport {
    let names: Vec<String> = registry().iter().map(|k| k.name().to_string()).collect();
    collect_kernels_with(&names, full, vldp, threads, telemetry)
}

/// [`collect_with`] over an explicit kernel subset, in the given order;
/// the identity suites use this to pin `--threads` invariance on a cheap
/// slice of the table. Each pool worker runs its cell's whole transport
/// (with `Telemetry::Ring`, its own channel and collector thread), so cells
/// stay independent and rows stay byte-identical across thread counts
/// and transports.
pub fn collect_kernels_with(
    names: &[String],
    full: bool,
    vldp: usize,
    threads: usize,
    telemetry: Telemetry,
) -> CharReport {
    let cells: Vec<(String, usize)> = names
        .iter()
        .flat_map(|n| [(n.clone(), 0), (n.clone(), vldp)])
        .collect();
    let pool = Pool::new(threads);
    let mut results = pool
        .par_map(&cells, |_, (name, degree)| {
            traced_run(name, full, *degree, telemetry)
        })
        .into_iter();
    let rows = names
        .iter()
        .cloned()
        .map(|kernel| CharRow {
            kernel,
            off: results.next().expect("one off cell per kernel"),
            on: results.next().expect("one on cell per kernel"),
        })
        .collect();
    CharReport {
        version: 1,
        inputset: if full { "full" } else { "small" }.to_string(),
        vldp_degree: vldp,
        rows,
    }
}

/// Serializes one report's table-facing numbers (ratios rendered with
/// fixed precision so the artifact is stable across runs).
fn row_json(row: &CharRow) -> String {
    let mut out = String::new();
    out.push_str(&format!("{{\"kernel\": \"{}\", ", row.kernel));
    match (&row.off, &row.on) {
        (Ok(off), Ok(on)) => {
            out.push_str(&format!("\"accesses\": {}, ", off.accesses));
            out.push_str(&format!("\"write_ratio\": {:.6}, ", off.write_ratio()));
            for (level, label) in ["l1d", "l2", "llc"].iter().enumerate() {
                out.push_str(&format!(
                    "\"{label}_miss_off\": {:.6}, \"{label}_miss_on\": {:.6}, ",
                    off.levels[level].miss_ratio(),
                    on.levels[level].miss_ratio()
                ));
            }
            out.push_str(&format!(
                "\"mem_per_ka_off\": {:.3}, \"mem_per_ka_on\": {:.3}, ",
                off.memory_access_ratio() * 1000.0,
                on.memory_access_ratio() * 1000.0
            ));
            out.push_str(&format!(
                "\"memory_writebacks\": {}}}",
                off.memory_writebacks
            ));
        }
        (off, on) => {
            let err = off
                .as_ref()
                .err()
                .or(on.as_ref().err())
                .cloned()
                .unwrap_or_default();
            out.push_str(&format!(
                "\"error\": \"{}\"}}",
                err.replace('\\', "\\\\").replace('"', "\\\"")
            ));
        }
    }
    out
}

impl CharReport {
    /// Serializes the report to its canonical JSON form (hand-rolled;
    /// the suite builds offline — no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {},\n", self.version));
        out.push_str(&format!("  \"inputset\": \"{}\",\n", self.inputset));
        out.push_str(&format!("  \"vldp_degree\": {},\n", self.vldp_degree));
        out.push_str("  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&row_json(row));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_run_rejects_unknown_kernel() {
        let err = traced_run("99.none", false, 0, Telemetry::Inline).unwrap_err();
        assert!(err.contains("unknown kernel"));
    }

    #[test]
    fn report_json_has_stable_shape() {
        let report = CharReport {
            version: 1,
            inputset: "small".into(),
            vldp_degree: 4,
            rows: vec![CharRow {
                kernel: "13.dmp".into(),
                off: Err("boom \"quoted\"".into()),
                on: Err("boom".into()),
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"inputset\": \"small\""));
        assert!(json.contains("\"vldp_degree\": 4"));
        assert!(json.contains("\"kernel\": \"13.dmp\""));
        assert!(json.contains("\\\"quoted\\\""));
    }

    #[test]
    fn collected_row_json_carries_the_table_fields() {
        // One cheap kernel rather than a full collect_with(): the suite-wide
        // sweeps live in the integration tests and the binary.
        let row = CharRow {
            kernel: "13.dmp".into(),
            off: traced_run("13.dmp", false, 0, Telemetry::Inline),
            on: traced_run("13.dmp", false, 2, Telemetry::Inline),
        };
        let off = row.off.as_ref().expect("13.dmp runs traced");
        let on = row.on.as_ref().expect("13.dmp runs traced with vldp");
        assert_eq!(off.accesses, on.accesses);
        let json = row_json(&row);
        for field in [
            "\"accesses\"",
            "\"write_ratio\"",
            "\"l1d_miss_off\"",
            "\"llc_miss_on\"",
            "\"mem_per_ka_off\"",
            "\"memory_writebacks\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }
}
