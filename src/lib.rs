//! # RTRBench-rs
//!
//! A Rust reproduction of **RTRBench: A Benchmark Suite for Real-Time
//! Robotics** (Bakhshalipour, Likhachev, Gibbons — ISPASS 2022): sixteen
//! robotic kernels spanning the perception → planning → control pipeline,
//! the substrates they depend on, a characterization harness, and the
//! experiments that regenerate the paper's tables and figures.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`linalg`] | dense matrices, LU/Cholesky, symmetric eigen |
//! | [`geom`] | grids, ray casting, footprints, k-d trees, point clouds, maps |
//! | [`sim`] | lidar/odometry simulation, arms, projectile physics |
//! | [`archsim`] | trace-driven cache hierarchy + VLDP prefetcher (the zsim stand-in) |
//! | [`harness`] | ROI markers, region profiler, CLI parsing, report tables |
//! | [`perception`] | `01.pfl`, `02.ekfslam`, `03.srec` |
//! | [`planning`] | `04.pp2d` … `12.sym-fext` |
//! | [`control`] | `13.dmp` … `16.bo` |
//! | [`baselines`] | PythonRobotics/CppRobotics-style A* (§VII) |
//! | [`suite`] | kernel registry and uniform runners |
//!
//! # Quickstart
//!
//! ```
//! use rtrbench::suite::registry;
//! use rtrbench::harness::Args;
//!
//! // Run the blocks-world symbolic planner with default arguments.
//! let kernels = registry();
//! let blkw = kernels.iter().find(|k| k.name() == "11.sym-blkw").unwrap();
//! let report = blkw.run(&Args::parse_tokens(&["--blocks", "4"]).unwrap()).unwrap();
//! assert!(report.roi_seconds >= 0.0);
//! ```

pub use rtr_archsim as archsim;
pub use rtr_baselines as baselines;
pub use rtr_control as control;
pub use rtr_core as suite;
pub use rtr_geom as geom;
pub use rtr_harness as harness;
pub use rtr_linalg as linalg;
pub use rtr_perception as perception;
pub use rtr_planning as planning;
pub use rtr_sim as sim;
pub use rtr_trace as trace;
