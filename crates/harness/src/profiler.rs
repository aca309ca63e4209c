//! Named-region wall-clock profiling.
//!
//! Every per-kernel bottleneck number in the paper ("67 % to 78 % of the
//! entire execution time is spent in ray-casting", "more than 65 % ... in
//! collision detection") is a *region time fraction*. The kernels in this
//! suite wrap their candidate-bottleneck code in profiler regions and the
//! experiment binaries print the fractions.

use std::cell::Cell;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Accumulated timing for one named region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReport {
    /// Region name.
    pub name: String,
    /// Total time spent inside the region.
    pub total: Duration,
    /// Number of times the region was entered.
    pub calls: u64,
    /// Share of the profiler's reference total, in `[0, 1]`.
    pub fraction: f64,
}

#[derive(Debug, Default, Clone)]
struct RegionAcc {
    total: Duration,
    calls: u64,
}

/// A flat named-region profiler.
///
/// Regions are identified by `&'static str` names. Time spent in a region
/// is attributed exclusively to that region (kernels keep their regions
/// non-overlapping, matching how the paper attributes execution time).
/// Fractions are computed against a *reference total*: the profiler's own
/// observed span from construction (or [`Profiler::reset`]) to the moment
/// of the query, so un-instrumented code shows up as a smaller fraction
/// for every region rather than being silently ignored.
///
/// # Example
///
/// ```
/// use rtr_harness::Profiler;
///
/// let mut p = Profiler::new();
/// p.time("hot", || std::thread::sleep(std::time::Duration::from_millis(5)));
/// p.time("cold", || ());
/// assert!(p.fraction("hot") > p.fraction("cold"));
/// ```
/// # Hot-loop timing
///
/// Per-iteration clock reads inside kernel hot loops are themselves a
/// perturbation (a syscall or vDSO read per iteration). They are
/// therefore **off by default**: [`Profiler::new`] builds a profiler
/// whose [`Profiler::hot_start`]/[`Profiler::hot_add`] hooks are no-ops,
/// and kernels route every in-loop measurement through those hooks.
/// Experiment binaries that want the per-region breakdown construct the
/// profiler with [`Profiler::timed`] instead. Coarse once-per-solve
/// measurements ([`Profiler::time`], [`Profiler::span`]) always measure.
#[derive(Debug, Clone)]
pub struct Profiler {
    regions: HashMap<&'static str, RegionAcc>,
    origin: Instant,
    /// When set, used instead of `origin.elapsed()` as the denominator —
    /// lets experiment code freeze the total at kernel completion.
    frozen_total: Option<Duration>,
    /// Whether per-iteration hot-loop hooks read the clock.
    hot: bool,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// Creates a profiler with hot-loop timing **off** (the default for
    /// kernel runs: no per-iteration clock reads perturb the loop).
    pub fn new() -> Self {
        Profiler {
            regions: HashMap::new(),
            origin: Instant::now(),
            frozen_total: None,
            hot: false,
        }
    }

    /// Creates a profiler with hot-loop timing **on** — used by the
    /// experiment binaries and bottleneck tests that report per-region
    /// fractions.
    pub fn timed() -> Self {
        Profiler {
            hot: true,
            ..Profiler::new()
        }
    }

    /// Whether per-iteration hot-loop hooks are live.
    pub fn hot_timing(&self) -> bool {
        self.hot
    }

    /// Starts a hot-loop measurement: `Some(start)` when hot timing is
    /// on, `None` (no clock read) otherwise. Pair with
    /// [`Profiler::hot_add`].
    pub fn hot_start(&self) -> Option<Instant> {
        if self.hot {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Completes a hot-loop measurement started by
    /// [`Profiler::hot_start`]; a `None` start is a no-op.
    pub fn hot_add(&mut self, name: &'static str, start: Option<Instant>) {
        if let Some(s) = start {
            self.add(name, s.elapsed());
        }
    }

    /// Runs `f` and returns its result together with the measured wall
    /// time, *without* attributing it to a region. For coarse
    /// once-per-solve measurement that stays on even when hot-loop
    /// timing is off.
    pub fn span<R>(&mut self, f: impl FnOnce() -> R) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed())
    }

    /// Clears all regions and restarts the reference total; the
    /// hot-timing knob is preserved.
    pub fn reset(&mut self) {
        self.regions.clear();
        self.origin = Instant::now();
        self.frozen_total = None;
    }

    /// Runs `f`, attributing its wall-clock time to `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed());
        out
    }

    /// Directly adds a measured duration to `name` (for code that cannot be
    /// wrapped in a closure).
    pub fn add(&mut self, name: &'static str, elapsed: Duration) {
        let acc = self.regions.entry(name).or_default();
        acc.total += elapsed;
        acc.calls += 1;
    }

    /// Merges a pre-aggregated measurement (e.g. a [`HotRegion`] drained
    /// after a solve) into `name`.
    pub fn add_many(&mut self, name: &'static str, total: Duration, calls: u64) {
        let acc = self.regions.entry(name).or_default();
        acc.total += total;
        acc.calls += calls;
    }

    /// Freezes the reference total at the current elapsed span. Call when
    /// the kernel's ROI ends so later queries don't dilute fractions.
    pub fn freeze_total(&mut self) {
        self.frozen_total = Some(self.origin.elapsed());
    }

    /// The reference total used for fractions.
    pub fn total(&self) -> Duration {
        self.frozen_total.unwrap_or_else(|| self.origin.elapsed())
    }

    /// Total time attributed to `name` (zero when never entered).
    pub fn region_total(&self, name: &str) -> Duration {
        self.regions
            .get(name)
            .map(|a| a.total)
            .unwrap_or(Duration::ZERO)
    }

    /// Number of entries into `name`.
    pub fn region_calls(&self, name: &str) -> u64 {
        self.regions.get(name).map(|a| a.calls).unwrap_or(0)
    }

    /// Share of the reference total spent in `name`, in `[0, 1]`.
    pub fn fraction(&self, name: &str) -> f64 {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            return 0.0;
        }
        (self.region_total(name).as_secs_f64() / total).min(1.0)
    }

    /// All regions, sorted by descending total time.
    pub fn report(&self) -> Vec<RegionReport> {
        let mut out: Vec<RegionReport> = self
            .regions
            .iter()
            .map(|(&name, acc)| RegionReport {
                name: name.to_owned(),
                total: acc.total,
                calls: acc.calls,
                fraction: self.fraction(name),
            })
            .collect();
        // Name is the tie-break so report order never depends on hash
        // iteration order.
        out.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.name.cmp(&b.name)));
        out
    }

    /// The region with the largest total time, if any — the kernel's
    /// measured bottleneck for Table I.
    pub fn dominant_region(&self) -> Option<RegionReport> {
        self.report().into_iter().next()
    }
}

/// A hot-loop accumulator for contexts that only hold `&self`.
///
/// Search-space structs (`pp2d` collision checks, `pfl` ray casts, the
/// symbolic successor generator) are called through shared references,
/// so they cannot reach a `&mut Profiler` per iteration. They own a
/// `HotRegion` instead: `Cell`-based interior mutability, the same
/// off-by-default knob as [`Profiler::hot_start`], and a
/// [`HotRegion::drain_into`] that merges the aggregate into a profiler
/// after the solve.
#[derive(Debug, Default)]
pub struct HotRegion {
    enabled: bool,
    total: Cell<Duration>,
    calls: Cell<u64>,
}

impl HotRegion {
    /// A disabled region: `start`/`add` never read the clock.
    pub fn new() -> Self {
        HotRegion::default()
    }

    /// An enabled region, for bottleneck-fraction runs. Pass
    /// `profiler.hot_timing()` to inherit the profiler's knob.
    pub fn timed(enabled: bool) -> Self {
        HotRegion {
            enabled,
            ..HotRegion::default()
        }
    }

    /// Starts one measurement (`None` when disabled — no clock read).
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Completes a measurement started by [`HotRegion::start`].
    pub fn add(&self, start: Option<Instant>) {
        if let Some(s) = start {
            self.total.set(self.total.get() + s.elapsed());
            self.calls.set(self.calls.get() + 1);
        }
    }

    /// Accumulated time.
    pub fn total(&self) -> Duration {
        self.total.get()
    }

    /// Number of completed measurements.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Merges the aggregate into `profiler` under `name` and clears the
    /// accumulator.
    pub fn drain_into(&self, profiler: &mut Profiler, name: &'static str) {
        if self.calls.get() > 0 {
            profiler.add_many(name, self.total.get(), self.calls.get());
        }
        self.total.set(Duration::ZERO);
        self.calls.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_accumulates_and_counts() {
        let mut p = Profiler::new();
        for _ in 0..3 {
            p.time("r", || std::thread::sleep(Duration::from_millis(1)));
        }
        assert_eq!(p.region_calls("r"), 3);
        assert!(p.region_total("r") >= Duration::from_millis(3));
    }

    #[test]
    fn unknown_region_is_zero() {
        let p = Profiler::new();
        assert_eq!(p.region_total("none"), Duration::ZERO);
        assert_eq!(p.region_calls("none"), 0);
        assert_eq!(p.fraction("none"), 0.0);
    }

    #[test]
    fn fractions_reflect_relative_cost() {
        let mut p = Profiler::new();
        p.time("big", || std::thread::sleep(Duration::from_millis(20)));
        p.time("small", || std::thread::sleep(Duration::from_millis(2)));
        p.freeze_total();
        assert!(p.fraction("big") > 0.5);
        assert!(p.fraction("small") < 0.5);
        assert!(p.fraction("big") <= 1.0);
    }

    #[test]
    fn dominant_region_is_largest() {
        let mut p = Profiler::new();
        p.add("a", Duration::from_millis(5));
        p.add("b", Duration::from_millis(50));
        p.add("c", Duration::from_millis(1));
        assert_eq!(p.dominant_region().unwrap().name, "b");
        let names: Vec<String> = p.report().into_iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["b", "a", "c"]);
    }

    #[test]
    fn freeze_total_stops_dilution() {
        let mut p = Profiler::new();
        p.add("x", Duration::from_millis(10));
        p.freeze_total();
        let before = p.fraction("x");
        std::thread::sleep(Duration::from_millis(10));
        let after = p.fraction("x");
        assert_eq!(before, after);
    }

    #[test]
    fn reset_clears_everything() {
        let mut p = Profiler::new();
        p.add("x", Duration::from_millis(10));
        p.reset();
        assert!(p.report().is_empty());
        assert_eq!(p.region_total("x"), Duration::ZERO);
    }

    #[test]
    fn time_returns_closure_value() {
        let mut p = Profiler::new();
        assert_eq!(p.time("calc", || 6 * 7), 42);
    }

    #[test]
    fn hot_hooks_are_noops_by_default() {
        let mut p = Profiler::new();
        assert!(!p.hot_timing());
        let start = p.hot_start();
        assert!(start.is_none());
        p.hot_add("hot", start);
        assert_eq!(p.region_calls("hot"), 0);
        assert_eq!(p.region_total("hot"), Duration::ZERO);
    }

    #[test]
    fn hot_hooks_measure_when_timed() {
        let mut p = Profiler::timed();
        assert!(p.hot_timing());
        let start = p.hot_start();
        assert!(start.is_some());
        std::thread::sleep(Duration::from_millis(1));
        p.hot_add("hot", start);
        assert_eq!(p.region_calls("hot"), 1);
        assert!(p.region_total("hot") >= Duration::from_millis(1));
    }

    #[test]
    fn span_measures_even_without_hot_timing() {
        let mut p = Profiler::new();
        let (out, elapsed) = p.span(|| {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(out, 7);
        assert!(elapsed >= Duration::from_millis(2));
    }

    #[test]
    fn reset_preserves_hot_knob() {
        let mut p = Profiler::timed();
        p.add("x", Duration::from_millis(1));
        p.reset();
        assert!(p.hot_timing());
        assert!(p.report().is_empty());
    }

    #[test]
    fn hot_region_respects_knob_and_drains() {
        let off = HotRegion::new();
        off.add(off.start());
        assert_eq!(off.calls(), 0);

        let on = HotRegion::timed(true);
        let s = on.start();
        std::thread::sleep(Duration::from_millis(1));
        on.add(s);
        assert_eq!(on.calls(), 1);
        assert!(on.total() >= Duration::from_millis(1));

        let mut p = Profiler::timed();
        on.drain_into(&mut p, "region");
        assert_eq!(p.region_calls("region"), 1);
        assert_eq!(on.calls(), 0, "drain clears the accumulator");
        assert_eq!(on.total(), Duration::ZERO);
    }

    #[test]
    fn add_many_merges_aggregates() {
        let mut p = Profiler::new();
        p.add_many("r", Duration::from_millis(30), 3);
        p.add_many("r", Duration::from_millis(10), 1);
        assert_eq!(p.region_calls("r"), 4);
        assert_eq!(p.region_total("r"), Duration::from_millis(40));
    }
}
