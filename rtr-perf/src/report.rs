//! The metric catalogue and the record one run produces.
//!
//! Every workload reports every name in the catalogue for its mode:
//! [`END_TO_END`] untraced, [`per_layer`] traced. A per-layer metric that
//! describes a layer the workload never enters reads 0; those metrics are
//! counts or ratios, never times, so a zero is a measurement and not a
//! missing value.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{geomean, quantile, ratio, Spread};

/// The sixteen registry kernels, paper order.
pub const KERNELS: [&str; 16] = [
    "01.pfl",
    "02.ekfslam",
    "03.srec",
    "04.pp2d",
    "05.pp3d",
    "06.movtar",
    "07.prm",
    "08.rrt",
    "09.rrtstar",
    "10.rrtpp",
    "11.sym-blkw",
    "12.sym-fext",
    "13.dmp",
    "14.mpc",
    "15.cem",
    "16.bo",
];

/// Kernels whose stepped lifecycle takes more than one step on the
/// default inputs, so a per-step latency distribution exists.
pub const INCREMENTAL: [&str; 6] = [
    "01.pfl",
    "02.ekfslam",
    "03.srec",
    "09.rrtstar",
    "13.dmp",
    "14.mpc",
];

/// Kernels with a deterministic parallel hot loop (`--threads`).
pub const THREADED: [&str; 4] = ["01.pfl", "03.srec", "07.prm", "15.cem"];

/// Kernels with a lane-kernel fast path (`--simd`).
pub const VECTORISED: [&str; 3] = ["01.pfl", "03.srec", "16.bo"];

/// End-to-end metrics, `(name, unit)`; all lower-is-better.
pub const END_TO_END: [(&str, &str); 3] =
    [("op_p50_us", "us"), ("op_mean_us", "us"), ("setup_s", "s")];

/// Per-layer metrics, `(name, unit)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("perception.busy_ms", "ms"),
        ("planning.busy_ms", "ms"),
        ("control.busy_ms", "ms"),
        ("traced.op_mean_us", "us"),
        ("sim.sense_share", "ratio"),
        ("scenario.tick_p99_over_p50", "x"),
        ("planning.route_expanded", "count"),
        ("control.opt_iters", "count"),
        ("harness.pool.localize_speedup_2t", "x"),
        ("core.step_timing_overhead", "x"),
        ("core.registry_overhead.13.dmp", "x"),
        ("core.registry_overhead.14.mpc", "x"),
        ("archsim.demand_accesses", "count"),
        ("archsim.accesses_per_s", "1/s"),
        ("trace.finish_share", "ratio"),
        ("trace.ring_over_inline", "x"),
        ("host.nproc", "count"),
        ("host.slow_share", "ratio"),
    ]
    .iter()
    .map(|&(name, unit)| (name.to_string(), unit))
    .collect();
    for id in THREADED {
        names.push((format!("harness.pool.speedup_2t.{id}"), "x"));
    }
    for id in VECTORISED {
        names.push((format!("simd.lanes_speedup.{id}"), "x"));
    }
    for id in KERNELS {
        names.push((format!("kernel.{id}.share"), "ratio"));
        names.push((format!("kernel.{id}.top_region_share"), "ratio"));
    }
    for id in INCREMENTAL {
        names.push((format!("kernel.{id}.step_p99_over_p50"), "x"));
    }
    names
}

/// One reported value, with the range of the per-pass samples it
/// summarises when there is one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The reported number.
    pub value: f64,
    /// `(min, max)` over the samples the value summarises.
    pub range: Option<(f64, f64)>,
}

/// What one run of one workload measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Operations run (episodes, kernel runs, table cells, checks).
    pub attempted: u64,
    /// Operations that errored or failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<String, Value>,
    /// Informational lines (`output_digest`, quality numbers, host notes).
    pub info: Vec<(String, String)>,
}

/// Failure messages kept per run; the count keeps growing past it.
const FAILURES_KEPT: usize = 8;

impl Outcome {
    /// An empty record.
    pub fn new(workload: &'static str, traced: bool) -> Outcome {
        Outcome {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
            info: Vec::new(),
        }
    }

    /// Counts one operation and, when it failed, its failure.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = result {
            self.failed += 1;
            if self.failures.len() < FAILURES_KEPT {
                self.failures.push(message);
            }
        }
    }

    /// Records a single value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics
            .insert(name.to_string(), Value { value, range: None });
    }

    /// Records a median with its range.
    pub fn set_spread(&mut self, name: &str, spread: Spread) {
        self.metrics.insert(
            name.to_string(),
            Value {
                value: spread.median,
                range: Some((spread.min, spread.max)),
            },
        );
    }

    /// Adds an informational line.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Whether every operation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The catalogue for this run's mode.
    pub fn catalogue(&self) -> Vec<(String, &'static str)> {
        if self.traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(name, unit)| (name.to_string(), unit))
                .collect()
        }
    }

    /// Completes the record against the catalogue: a per-layer metric the
    /// workload did not measure reads 0, and a missing end-to-end metric
    /// or a non-finite value fails the run.
    ///
    /// # Panics
    ///
    /// Panics when the workload recorded a name outside the catalogue,
    /// which is a bug in the benchmark.
    pub fn finalize(&mut self) {
        let catalogue = self.catalogue();
        for name in self.metrics.keys() {
            assert!(
                catalogue.iter().any(|(known, _)| known == name),
                "{} recorded unknown metric {name}",
                self.workload
            );
        }
        for (name, _) in &catalogue {
            let result = match self.metrics.get(name) {
                None if self.traced => {
                    self.set(name, 0.0);
                    continue;
                }
                None => Err(format!("{name} was not measured")),
                Some(v) if !v.value.is_finite() => Err(format!("{name} is not finite")),
                Some(_) => continue,
            };
            self.metrics.insert(
                name.clone(),
                Value {
                    value: 0.0,
                    range: None,
                },
            );
            self.op(result);
        }
    }

    /// `name value unit [min–max]` lines, then the informational lines.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let mode = if self.traced { "traced" } else { "end-to-end" };
        let _ = writeln!(out, "# {} ({mode})", self.workload);
        for (name, unit) in self.catalogue() {
            let v = self.metrics[&name];
            let _ = write!(out, "{name} {} {unit}", v.value);
            if let Some((min, max)) = v.range {
                let _ = write!(out, " [{min}–{max}]");
            }
            out.push('\n');
        }
        for (key, value) in &self.info {
            let _ = writeln!(out, "{key} {value}");
        }
        let _ = writeln!(out, "attempted {} failed {}", self.attempted, self.failed);
        for failure in &self.failures {
            let _ = writeln!(out, "failure: {failure}");
        }
        out
    }

    /// The `"metrics"` object: `{"name": {"value": v, "unit": u}, ...}`,
    /// with `"min"`/`"max"` when `ranges` is set. Keys get `prefix`.
    pub fn metrics_json(&self, prefix: &str, ranges: bool) -> Vec<String> {
        self.catalogue()
            .into_iter()
            .map(|(name, unit)| {
                let v = self.metrics[&name];
                let mut entry = format!(
                    "\"{prefix}{name}\": {{\"value\": {}, \"unit\": \"{unit}\"",
                    v.value
                );
                if let (true, Some((min, max))) = (ranges, v.range) {
                    let _ = write!(entry, ", \"min\": {min}, \"max\": {max}");
                }
                entry.push('}');
                entry
            })
            .collect()
    }
}

/// The quantile of an item's per-pass samples that stands for the item:
/// its lower quartile. A shared host runs identical work up to 1.8× slower
/// in bursts of a tenth of a second or more. A median over ticks or passes
/// jumps to the slow mode once the bursts cover half of a run; the lower
/// quartile of each item stays on the fast mode while a quarter of its
/// passes saw it. A change to the code moves every pass, so it moves the
/// quartile too.
pub const ITEM_QUANTILE: f64 = 0.25;

/// The end-to-end samples of one run: every item's (loop world, kernel or
/// table cell) typical and mean op time in each pass, and each pass's
/// set-up time.
#[derive(Debug, Default)]
pub struct PassSamples {
    typical_us: Vec<Vec<f64>>,
    mean_us: Vec<Vec<f64>>,
    setup_s: Vec<f64>,
}

impl PassSamples {
    /// Samples for `items` items.
    pub fn new(items: usize) -> PassSamples {
        PassSamples {
            typical_us: vec![Vec::new(); items],
            mean_us: vec![Vec::new(); items],
            setup_s: Vec::new(),
        }
    }

    /// Adds item `item`'s typical and mean op time in the current pass.
    pub fn item(&mut self, item: usize, typical_us: f64, mean_us: f64) {
        self.typical_us[item].push(typical_us);
        self.mean_us[item].push(mean_us);
    }

    /// Ends a pass with its set-up time.
    pub fn end_pass(&mut self, setup_s: f64) {
        self.setup_s.push(setup_s);
    }

    /// Records the end-to-end metrics, or `traced.op_mean_us` for a traced
    /// run. Each item stands in with its [`ITEM_QUANTILE`] over the passes;
    /// `op_p50_us` is the geometric mean of those typical times over the
    /// items and `op_mean_us` the arithmetic mean of their mean times. The
    /// printed ranges are those of the same summaries taken pass by pass.
    pub fn record(mut self, outcome: &mut Outcome) {
        let op_mean_us = summarise(&mut self.mean_us, |v| ratio(v.iter().sum(), v.len() as f64));
        if outcome.traced {
            outcome.set_spread("traced.op_mean_us", op_mean_us);
            return;
        }
        outcome.set_spread("op_p50_us", summarise(&mut self.typical_us, geomean));
        outcome.set_spread("op_mean_us", op_mean_us);
        outcome.set_spread("setup_s", Spread::of(&mut self.setup_s));
    }
}

/// `aggregate` over the items' [`ITEM_QUANTILE`]s, with the range of
/// `aggregate` over the items pass by pass (over the passes every item
/// completed).
fn summarise(items: &mut [Vec<f64>], aggregate: fn(&[f64]) -> f64) -> Spread {
    let passes = items.iter().map(Vec::len).min().unwrap_or(0);
    let mut per_pass: Vec<f64> = (0..passes)
        .map(|p| aggregate(&items.iter().map(|s| s[p]).collect::<Vec<_>>()))
        .collect();
    let range = Spread::of(&mut per_pass);
    let best: Vec<f64> = items
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| quantile(s, ITEM_QUANTILE))
        .collect();
    Spread {
        median: aggregate(&best),
        ..range
    }
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {…}}` over one or more outcomes. With several, metric keys
/// are prefixed `workload/`; end-to-end and per-layer names never collide.
pub fn result_line(outcomes: &[Outcome]) -> String {
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let metrics: Vec<String> = outcomes
        .iter()
        .flat_map(|o| {
            let prefix = if outcomes.len() > 1 {
                format!("{}/", o.workload)
            } else {
                String::new()
            };
            o.metrics_json(&prefix, false)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_runs_fill_unmeasured_layers_with_zero() {
        let mut outcome = Outcome::new("kernels", true);
        outcome.set("host.nproc", 2.0);
        outcome.finalize();
        assert!(outcome.correct());
        assert_eq!(outcome.metrics.len(), per_layer().len());
        assert_eq!(outcome.metrics["archsim.demand_accesses"].value, 0.0);
    }

    #[test]
    fn a_missing_end_to_end_metric_fails_the_run() {
        let mut outcome = Outcome::new("kernels", false);
        outcome.set("op_p50_us", 1.0);
        outcome.set("op_mean_us", f64::NAN);
        outcome.finalize();
        assert_eq!(outcome.failed, 2);
        assert!(result_line(&[outcome]).starts_with("{\"correct\": false"));
    }
}
