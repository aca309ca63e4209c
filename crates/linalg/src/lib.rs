//! Dense linear algebra substrate for RTRBench-rs.
//!
//! The RTRBench kernels (EKF-SLAM, ICP scene reconstruction, MPC, Gaussian
//! processes for Bayesian optimization) lean heavily on small-to-medium dense
//! matrix operations — multiplication, inversion, factorization. The paper
//! identifies these operations as the dominant bottleneck of `02.ekfslam`
//! (> 85 % of execution time) and a major bottleneck of `03.srec`, so this
//! crate is deliberately self-contained and dependency-free: the matrix code
//! *is* part of the benchmark, exactly as it is in the C++ original.
//!
//! # Contents
//!
//! - [`Matrix`] — heap-allocated, row-major, dynamically sized `f64` matrix.
//! - [`Vector`] — heap-allocated `f64` column vector.
//! - [`Lu`] — LU factorization with partial pivoting: solve, inverse,
//!   determinant.
//! - [`Cholesky`] — factorization of symmetric positive-definite matrices.
//! - [`Workspace`] — recycled scratch-buffer pool backing the `*_into`
//!   in-place operations, so kernel hot loops run allocation-free.
//!
//! # Example
//!
//! ```
//! use rtr_linalg::{Matrix, Vector};
//!
//! # fn main() -> Result<(), rtr_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let b = Vector::from_slice(&[1.0, 2.0]);
//! let x = a.solve(&b)?;
//! let r = &a * &x - &b;
//! assert!(r.norm() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod cholesky;
mod eigen;
mod error;
mod lu;
mod matrix;
mod vector;
mod workspace;

pub use cholesky::Cholesky;
pub use eigen::{jacobi_eigen_in_place, symmetric_eigen, SymmetricEigen};
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use vector::Vector;
pub use workspace::Workspace;

/// Comparison tolerance used by approximate-equality helpers in this crate.
pub const DEFAULT_EPSILON: f64 = 1e-9;

/// Returns `true` when two floats are within `eps` of each other.
///
/// Two identical values (including infinities) always compare equal; NaN
/// never does.
///
/// # Example
///
/// ```
/// assert!(rtr_linalg::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!rtr_linalg::approx_eq(1.0, 1.1, 1e-9));
/// ```
#[inline]
pub fn approx_eq(a: f64, b: f64, eps: f64) -> bool {
    if a == b {
        return true;
    }
    (a - b).abs() <= eps
}
