//! RTRBench-rs control kernels.
//!
//! The control stage "is responsible for generating commands to follow the
//! path generated by the planning stage" (§III-C). This crate implements
//! the paper's four control kernels:
//!
//! - [`dmp`] (`13.dmp`) — dynamic movement primitives: smooth trajectory
//!   generation from a single demonstration. Bottleneck: fine-grained
//!   serialization (every integration step depends on the previous one).
//! - [`mpc`] (`14.mpc`) — model predictive control of a car following a
//!   reference trajectory under velocity/acceleration constraints.
//!   Bottleneck: solving the optimization problem (> 80 %).
//! - [`cem`] (`15.cem`) — cross-entropy-method reinforcement learning of
//!   ball-throwing parameters. Bottleneck: sorting rewards (~⅓).
//! - [`bo`] (`16.bo`) — Bayesian optimization of the same task with a
//!   Gaussian process and a UCB acquisition function; far more compute,
//!   with a correspondingly heavier sort.

pub mod bo;
pub mod cem;
pub mod dmp;
pub mod gp;
pub mod mpc;

pub use bo::{BayesOpt, BoConfig, BoResult};
pub use cem::{Cem, CemConfig, CemResult};
pub use dmp::{Dmp, DmpConfig, DmpRollout, RolloutRun};
pub use gp::GaussianProcess;
pub use mpc::{Mpc, MpcConfig, MpcResult, TrackRun};
