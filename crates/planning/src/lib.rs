//! RTRBench-rs planning kernels.
//!
//! Planning "is responsible for generating a path from the current position
//! towards a target position" (§III-B). This crate implements the paper's
//! nine planning kernels plus the search substrates they share:
//!
//! - [`search`] — best-first graph search (Weighted A*, with A* and Dijkstra
//!   at weights 1 and 0, and a multi-source Dijkstra flood) over
//!   a generic [`search::SearchSpace`], with expansion hooks for the cache
//!   simulator.
//! - [`pp2d`] (`04.pp2d`) — 2D grid path planning for a car-sized
//!   footprint. Bottleneck: collision detection (> 65 %).
//! - [`pp3d`] (`05.pp3d`) — 3D grid path planning for a UAV. Bottlenecks:
//!   collision detection and irregular graph search.
//! - [`movtar`] (`06.movtar`) — catching a moving target with a backward-
//!   Dijkstra heuristic and Weighted A* over a time-expanded graph.
//! - [`prm`] (`07.prm`) — probabilistic roadmaps for a 5-DoF arm.
//! - [`rrt`] (`08.rrt`) — rapidly-exploring random trees.
//! - [`rrtstar`] (`09.rrtstar`) — asymptotically optimal RRT*.
//! - [`rrtpp`] (`10.rrtpp`) — RRT with shortcut post-processing.
//! - [`symbolic`] (`11.sym-blkw`, `12.sym-fext`) — a STRIPS-style symbolic
//!   planner with the blocks-world and firefighting domains.

pub mod movtar;
pub mod pp2d;
pub mod pp3d;
pub mod prm;
pub mod rrt;
pub mod rrtpp;
pub mod rrtstar;
pub mod search;
pub mod symbolic;

pub use movtar::{MovingTarget, MovtarConfig, MovtarResult};
pub use pp2d::{Pp2d, Pp2dConfig, Pp2dResult};
pub use pp3d::{Pp3d, Pp3dConfig, Pp3dResult};
pub use prm::{Prm, PrmConfig, PrmResult};
pub use rrt::{ArmProblem, Rrt, RrtConfig, RrtResult};
pub use rrtpp::{RrtPp, RrtPpResult};
pub use rrtstar::{RrtStar, RrtStarResult, RrtStarRun};
pub use search::{weighted_astar, SearchResult, SearchSpace};
pub use symbolic::{
    blocks_world, firefight, Domain, Plan, SolveError, SymbolicPlanner, SEARCH_BUDGET,
};
