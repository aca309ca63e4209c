//! Trace-driven cache-hierarchy simulator for RTRBench-rs.
//!
//! The paper characterizes its kernels on the zsim micro-architectural
//! simulator, modeling an Intel Core i3-8109U (two cores, 3 GHz, 4 MB
//! last-level cache, LPDDR3-2133). zsim itself is a large external
//! artifact, so this crate implements the part of it the paper's
//! architectural claims rest on: a set-associative, LRU, inclusive cache
//! hierarchy driven by the kernels' data-access traces, plus a VLDP-style
//! multi-delta prefetcher (the paper evaluates "an over-approximated
//! implementation of VLDP" and finds it eliminates about one-third of
//! `05.pp3d`'s data misses).
//!
//! Kernels expose *traced* execution paths that replay every data-structure
//! access (grid-cell probes, k-d-tree node visits, open-list pops) into a
//! [`MemorySim`]; the resulting miss ratios and MPKI reproduce the paper's
//! cache-behaviour findings (e.g. the 12–22 % L1D miss ratio of `08.rrt`'s
//! nearest-neighbor search).
//!
//! # Example
//!
//! ```
//! use rtr_archsim::{CacheConfig, MemorySim};
//!
//! let mut sim = MemorySim::i3_8109u();
//! // A strided streaming pattern: mostly hits after each line is fetched.
//! for i in 0..10_000u64 {
//!     sim.read(i * 8);
//! }
//! let stats = sim.level_stats(0);
//! assert!(stats.miss_ratio() < 0.2);
//! ```

mod cache;
mod hierarchy;
mod prefetch;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use hierarchy::{HierarchyReport, MemorySim};
pub use prefetch::{PrefetchStats, VldpPrefetcher};
