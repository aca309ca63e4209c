//! Geometry and spatial data structures for RTRBench-rs.
//!
//! Every RTRBench kernel touches space: particle-filter localization casts
//! rays through occupancy grids, the path planners collision-check robot
//! footprints against city maps, the sampling-based arm planners run
//! nearest-neighbor queries over k-d trees, and ICP scene reconstruction
//! aligns point clouds. This crate provides those substrates:
//!
//! - [`Point2`], [`Point3`], [`Pose2`] — value types for 2D/3D geometry.
//! - [`GridMap2D`], [`GridMap3D`] — occupancy grids with world/cell
//!   coordinate conversion.
//! - [`cast_ray`] / [`cast_ray_with`] — DDA grid ray casting (the `01.pfl`
//!   bottleneck).
//! - [`Footprint`] — oriented-rectangle collision detection (the `04.pp2d`
//!   bottleneck).
//! - [`KdTree`] — k-d tree nearest-neighbor search (the `08.rrt` bottleneck).
//! - [`PointCloud`] — 3D point sets with rigid-body transforms (for
//!   `03.srec`).
//! - [`maps`] — procedural map generators and a MovingAI `.map` parser
//!   standing in for the paper's input datasets.
//!
//! # Example
//!
//! ```
//! use rtr_geom::{GridMap2D, cast_ray};
//!
//! let mut map = GridMap2D::new(100, 100, 0.1);
//! map.set_occupied(50, 40, true);
//! // Cast straight up (+y) from the center of cell (50, 10).
//! let hit = cast_ray(&map, map.cell_center(50, 10), std::f64::consts::FRAC_PI_2, 20.0);
//! assert!((hit.distance - 3.0).abs() < 0.1);
//! ```

mod aabb;
mod cloud;
mod footprint;
mod grid;
mod kdtree;
pub mod maps;
mod point;
mod ray;

pub use aabb::{Aabb2, Aabb3};
pub use cloud::{PointCloud, RigidTransform};
pub use footprint::{Footprint, FootprintLattice};
pub use grid::{GridMap2D, GridMap3D};
pub use kdtree::{KdTree, KD_BUCKET};
pub use point::{normalize_angle, Point2, Point3, Pose2};
pub use ray::{cast_ray, cast_ray_with, RayHit};
