//! Benchmark harness for RTRBench-rs.
//!
//! The paper stresses that kernels must be "easy to simulate": each one
//! ships with a harness that supplies inputs, marks the region of interest
//! (ROI) for the micro-architectural simulator, and exposes every
//! configuration parameter on the command line (§IV, §VI, Fig. 20). This
//! crate is that harness:
//!
//! - [`Roi`] — region-of-interest markers, the zsim-hook analogue. With no
//!   simulator attached they are "safely executed: no effect on correctness
//!   and virtually zero effect on performance".
//! - [`Profiler`] — named-region wall-clock accounting, producing the
//!   time-fraction breakdowns behind Table I and the per-kernel bottleneck
//!   percentages.
//! - [`Args`] — a dependency-free `--key value` command-line parser with
//!   `--help` output in the style of the paper's Fig. 20.
//! - [`Table`] — plain-text report tables for the experiment binaries.
//! - [`Pool`] — deterministic scoped worker pool for the kernel hot
//!   loops: closures compute each element from its index and shared
//!   read-only inputs, and `par_map` keeps input order, so parallel runs
//!   stay bit-identical to sequential runs at any thread count.
//! - [`Collector`] — the consumer thread of the off-thread telemetry
//!   transport: feeds the batches an `rtr-trace` channel delivers into an
//!   owned [`BatchConsumer`](rtr_trace::BatchConsumer) (the cache
//!   simulator, a metric map) off the hot thread.
//!
//! # Example
//!
//! ```
//! use rtr_harness::Profiler;
//!
//! let mut profiler = Profiler::new();
//! let value = profiler.time("compute", || (0..1000).sum::<u64>());
//! assert_eq!(value, 499_500);
//! assert!(profiler.region_calls("compute") == 1);
//! ```

mod cli;
mod collector;
mod pool;
mod profiler;
mod roi;
mod table;

pub use cli::{usage_error, Args, CliError, OptionSpec};
pub use collector::Collector;
pub use pool::Pool;
pub use profiler::{HotRegion, Profiler, RegionReport};
pub use roi::Roi;
pub use table::Table;
