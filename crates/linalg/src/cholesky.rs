//! Cholesky factorization of symmetric positive-definite matrices.

use crate::{LinalgError, Matrix, Vector};

/// A Cholesky factorization `A = L·Lᵀ` with `L` lower triangular.
///
/// Used wherever the suite works with covariance-like matrices:
/// Gaussian-process posterior computation in `16.bo`, covariance sampling in
/// `15.cem`, and positive-definiteness checks in the EKF tests. Cholesky is
/// roughly twice as fast as LU for SPD matrices and fails loudly (rather
/// than silently producing garbage) when the input is not positive definite.
///
/// # Example
///
/// ```
/// use rtr_linalg::Matrix;
///
/// # fn main() -> Result<(), rtr_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = a.cholesky()?;
/// let l = chol.into_l();
/// let recomposed = &l * &l.transpose();
/// assert!(recomposed.approx_eq(&a, 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor; entries above the diagonal are zero.
    l: Matrix,
}

impl Cholesky {
    /// Factorizes the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read, so callers holding a matrix
    /// that is symmetric up to floating-point noise need not symmetrize
    /// first.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::MalformedInput`] if `a` is not square.
    /// - [`LinalgError::NotPositiveDefinite`] if a non-positive diagonal
    ///   pivot is encountered.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::MalformedInput(
                "Cholesky factorization requires a square matrix",
            ));
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A·x = b` using the factorization (`L·y = b`, `Lᵀ·x = y`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len()` differs
    /// from the factorized dimension.
    pub fn solve(&self, b: &Vector) -> Result<Vector, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "Cholesky solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut y = Vector::zeros(n);
        for i in 0..n {
            let mut sum = b[i];
            for j in 0..i {
                sum -= self.l[(i, j)] * y[j];
            }
            y[i] = sum / self.l[(i, i)];
        }
        let mut x = Vector::zeros(n);
        for i in (0..n).rev() {
            let mut sum = y[i];
            for j in (i + 1)..n {
                sum -= self.l[(j, i)] * x[j];
            }
            x[i] = sum / self.l[(i, i)];
        }
        Ok(x)
    }

    /// In-place twin of [`Cholesky::solve`]: forward-substitutes into `out`
    /// and back-substitutes in place. The backward pass consumes each
    /// `y[i]` exactly once before overwriting it with `x[i]`, so the
    /// operand sequence — and hence every rounding — matches the
    /// two-buffer version bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len()` or
    /// `out.len()` differs from the factorized dimension.
    pub fn solve_into(&self, b: &Vector, out: &mut Vector) -> Result<(), LinalgError> {
        self.solve_lower_into(b, out)?;
        let n = self.dim();
        for i in (0..n).rev() {
            let mut sum = out[i];
            for j in (i + 1)..n {
                sum -= self.l[(j, i)] * out[j];
            }
            out[i] = sum / self.l[(i, i)];
        }
        Ok(())
    }

    /// Solves `L·y = b` (forward substitution only).
    ///
    /// Gaussian-process log-likelihoods need the half-solve to compute
    /// `‖L⁻¹ (y − μ)‖²` without forming the full inverse.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len()` differs
    /// from the factorized dimension.
    pub fn solve_lower(&self, b: &Vector) -> Result<Vector, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "Cholesky forward solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut y = Vector::zeros(n);
        for i in 0..n {
            let mut sum = b[i];
            for j in 0..i {
                sum -= self.l[(i, j)] * y[j];
            }
            y[i] = sum / self.l[(i, i)];
        }
        Ok(y)
    }

    /// In-place twin of [`Cholesky::solve_lower`]: forward-substitutes
    /// `L·y = b` into `out`, bit-identical to the allocating version.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len()` or
    /// `out.len()` differs from the factorized dimension.
    pub fn solve_lower_into(&self, b: &Vector, out: &mut Vector) -> Result<(), LinalgError> {
        let n = self.dim();
        if b.len() != n || out.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "Cholesky forward solve (into)",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        for i in 0..n {
            let mut sum = b[i];
            for j in 0..i {
                sum -= self.l[(i, j)] * out[j];
            }
            out[i] = sum / self.l[(i, i)];
        }
        Ok(())
    }

    /// Consumes the factorization and returns `L`.
    pub fn into_l(self) -> Matrix {
        self.l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd() -> Matrix {
        Matrix::from_rows(&[&[6.0, 2.0, 1.0], &[2.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]).unwrap()
    }

    #[test]
    fn reconstruction() {
        let a = spd();
        let l = a.cholesky().unwrap().into_l();
        let recomposed = &l * &l.transpose();
        assert!(recomposed.approx_eq(&a, 1e-12));
    }

    #[test]
    fn l_is_lower_triangular() {
        let chol = spd().cholesky().unwrap();
        for r in 0..3 {
            for c in (r + 1)..3 {
                assert_eq!(chol.l[(r, c)], 0.0);
            }
        }
    }

    #[test]
    fn solve_matches_lu() {
        let a = spd();
        let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let x_chol = a.cholesky().unwrap().solve(&b).unwrap();
        let x_lu = a.lu().unwrap().solve(&b).unwrap();
        assert!(x_chol.approx_eq(&x_lu, 1e-10));
    }

    #[test]
    fn solve_lower_then_upper_equals_full_solve() {
        let a = spd();
        let b = Vector::from_slice(&[0.5, -1.0, 2.0]);
        let chol = a.cholesky().unwrap();
        let y = chol.solve_lower(&b).unwrap();
        // ‖L⁻¹ b‖² should equal bᵀ A⁻¹ b.
        let x = chol.solve(&b).unwrap();
        assert!((y.norm_squared() - b.dot(&x)).abs() < 1e-10);
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert_eq!(a.cholesky().unwrap_err(), LinalgError::NotPositiveDefinite);
    }

    #[test]
    fn non_square_rejected() {
        assert!(matches!(
            Matrix::zeros(2, 3).cholesky(),
            Err(LinalgError::MalformedInput(_))
        ));
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let chol = Matrix::identity(2).cholesky().unwrap();
        assert!(chol.solve(&Vector::zeros(3)).is_err());
        assert!(chol.solve_lower(&Vector::zeros(1)).is_err());
    }
}
