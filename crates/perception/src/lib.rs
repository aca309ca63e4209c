//! RTRBench-rs perception kernels.
//!
//! The perception stage "is responsible for understanding the state of the
//! environment and the robot itself" (§III-A). This crate implements the
//! paper's three perception kernels:
//!
//! - [`pfl`] (`01.pfl`) — particle-filter localization against a known map.
//!   Bottleneck: ray-casting (67–78 % of execution time).
//! - [`ekfslam`] (`02.ekfslam`) — simultaneous localization and mapping
//!   with an extended Kalman filter. Bottleneck: matrix operations
//!   (> 85 %).
//! - [`srec`] (`03.srec`) — 3D scene reconstruction with iterative closest
//!   point. Bottlenecks: irregular point-cloud accesses (memory-bound) and
//!   matrix operations.
//!
//! Each kernel is a plain struct with a `Config`, a `run` entry point that
//! takes a [`rtr_harness::Profiler`] for region accounting, and an optional
//! traced variant feeding the cache simulator.

pub mod ekfslam;
pub mod pfl;
pub mod srec;

pub use ekfslam::{EkfSlam, EkfSlamConfig, EkfSlamResult};
pub use pfl::{ParticleFilter, PflConfig, PflInit, PflResult};
pub use srec::{Icp, IcpConfig, IcpResult, IcpRun};
