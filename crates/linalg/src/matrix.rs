//! Dynamically sized, row-major `f64` matrix.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::{Cholesky, LinalgError, Lu, Vector, Workspace};

/// A heap-allocated, row-major matrix of `f64` elements.
///
/// This type backs the EKF covariance updates, ICP cross-covariance
/// estimation, MPC quadratic subproblems and Gaussian-process kernel
/// matrices throughout the suite. Storage is a single contiguous `Vec<f64>`
/// in row-major order so that row traversals are cache-friendly — the paper
/// notes that matrix data "has a regular layout that is amenable to high
/// ILP" and the layout here preserves that property.
///
/// # Example
///
/// ```
/// use rtr_linalg::Matrix;
///
/// # fn main() -> Result<(), rtr_linalg::LinalgError> {
/// let a = Matrix::identity(3);
/// let b = &a * &a;
/// assert!(b.approx_eq(&a, 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// # Example
    ///
    /// ```
    /// let i = rtr_linalg::Matrix::identity(2);
    /// assert_eq!(i[(0, 0)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::MalformedInput`] if the rows have unequal
    /// lengths.
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), rtr_linalg::LinalgError> {
    /// let m = rtr_linalg::Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
    /// assert_eq!(m[(1, 0)], 3.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        if rows.iter().any(|r| r.len() != ncols) {
            return Err(LinalgError::MalformedInput("rows have unequal lengths"));
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major element vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::MalformedInput`] if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::MalformedInput(
                "element count does not match shape",
            ));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a square matrix with `diag` on the diagonal, zeros elsewhere.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` for a square matrix (including 0×0).
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the row-major element storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows the row-major element storage mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrows row `r` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn column(&self, c: usize) -> Vector {
        assert!(c < self.cols, "column index out of bounds");
        Vector::from_fn(self.rows, |r| self[(r, c)])
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Writes the transpose into a caller-provided matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `out` is not
    /// `self.cols() × self.rows()`.
    pub fn transpose_into(&self, out: &mut Matrix) -> Result<(), LinalgError> {
        if out.rows != self.cols || out.cols != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "transpose (into)",
                lhs: self.shape(),
                rhs: out.shape(),
            });
        }
        for r in 0..out.rows {
            for c in 0..out.cols {
                out[(r, c)] = self[(c, r)];
            }
        }
        Ok(())
    }

    /// Matrix–matrix product.
    ///
    /// Dispatches on size: small products use the streaming i-k-j kernel;
    /// once every dimension reaches [`Matrix::BLOCK_THRESHOLD`] the
    /// cache-blocked kernel takes over.
    /// Both kernels accumulate each output element over ascending `k` with
    /// the same zero-skip, so results are bit-identical regardless of path.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != rhs.rows()`.
    pub fn mul_matrix(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matrix multiply",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        if self.rows.min(self.cols).min(rhs.cols) < Self::BLOCK_THRESHOLD {
            Ok(self.mul_unblocked(rhs))
        } else {
            Ok(self.mul_blocked(rhs))
        }
    }

    /// Dimensions at which [`Matrix::mul_matrix`] switches from the
    /// streaming kernel to the cache-blocked kernel.
    pub const BLOCK_THRESHOLD: usize = 64;

    // i-k-j loop order keeps both operands streaming row-major; the
    // independent per-column accumulators vectorize without reassociating
    // any floating-point sum.
    fn mul_unblocked(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.mul_unblocked_into(rhs, &mut out);
        out
    }

    // Accumulates `self * rhs` into `out`, which must be pre-zeroed with
    // shape (self.rows, rhs.cols).
    fn mul_unblocked_into(&self, rhs: &Matrix, out: &mut Matrix) {
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                // One multiply and one add per element in the same order
                // as the historical loop, so the lane kernel is bitwise.
                rtr_simd::axpy(out.row_mut(i), aik, rhs.row(k));
            }
        }
    }

    // Cache-blocked i-k-j: the output columns are processed in bands of
    // BLOCK_J (so the matching column band of `rhs` stays cache resident
    // and every output row makes a single pass through it), and the inner
    // dimension is register-blocked four `k` values at a time, quartering
    // the traffic on the output row.
    //
    // For each output element the additions still happen one at a time in
    // ascending `k` with the same zero-skip, so the accumulation order —
    // and hence every rounding — matches `mul_unblocked` exactly.
    fn mul_blocked(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.mul_blocked_into(rhs, &mut out);
        out
    }

    // Accumulates `self * rhs` into `out`, which must be pre-zeroed with
    // shape (self.rows, rhs.cols).
    fn mul_blocked_into(&self, rhs: &Matrix, out: &mut Matrix) {
        const BLOCK_J: usize = 256;
        for jj in (0..rhs.cols).step_by(BLOCK_J) {
            let j_end = (jj + BLOCK_J).min(rhs.cols);
            for i in 0..self.rows {
                let a_row = self.row(i);
                let out_seg = &mut out.row_mut(i)[jj..j_end];
                let mut k = 0;
                while k + 4 <= self.cols {
                    let a = [a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]];
                    if a.iter().all(|&x| x != 0.0) {
                        let r0 = &rhs.row(k)[jj..j_end];
                        let r1 = &rhs.row(k + 1)[jj..j_end];
                        let r2 = &rhs.row(k + 2)[jj..j_end];
                        let r3 = &rhs.row(k + 3)[jj..j_end];
                        // The lane microkernel performs the four stacked
                        // adds in this exact order per element, so the
                        // rounding matches the historical register-blocked
                        // loop bit for bit.
                        rtr_simd::axpy4(out_seg, a, r0, r1, r2, r3);
                    } else {
                        // A zero among the four: fall back to per-k passes
                        // so the skipped terms match the streaming kernel.
                        for (dk, &aik) in a.iter().enumerate() {
                            if aik == 0.0 {
                                continue;
                            }
                            let rhs_seg = &rhs.row(k + dk)[jj..j_end];
                            rtr_simd::axpy(out_seg, aik, rhs_seg);
                        }
                    }
                    k += 4;
                }
                for (k, &aik) in (k..self.cols).zip(a_row[k..].iter()) {
                    if aik == 0.0 {
                        continue;
                    }
                    let rhs_seg = &rhs.row(k)[jj..j_end];
                    rtr_simd::axpy(out_seg, aik, rhs_seg);
                }
            }
        }
    }

    /// Matrix–matrix product into a caller-provided output, the in-place
    /// twin of [`Matrix::mul_matrix`].
    ///
    /// `out` is zero-filled and then accumulated through exactly the same
    /// size dispatch and per-element summation order as the allocating
    /// version, so the result is bit-identical; only the heap traffic
    /// differs. Hot loops pair this with a [`crate::Workspace`] so the
    /// output buffer is recycled across iterations.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.cols() != rhs.rows()` or `out` is not `self.rows() × rhs.cols()`.
    pub fn mul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), LinalgError> {
        if self.cols != rhs.rows || out.rows != self.rows || out.cols != rhs.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matrix multiply (into)",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        out.data.fill(0.0);
        if self.rows.min(self.cols).min(rhs.cols) < Self::BLOCK_THRESHOLD {
            self.mul_unblocked_into(rhs, out);
        } else {
            self.mul_blocked_into(rhs, out);
        }
        Ok(())
    }

    /// Computes `self * rhs_tᵀ` without materializing the transpose: the
    /// rows of `rhs_t` are used directly as contiguous dot-product
    /// operands (the "transposed-RHS" fast path). Accumulation per output
    /// element is the same ascending-`k` zero-skip sum as
    /// [`Matrix::mul_matrix`], so `a.mul_transposed(&b)` is bit-identical
    /// to `a.mul_matrix(&b.transpose())`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.cols() != rhs_t.cols()`.
    pub fn mul_transposed(&self, rhs_t: &Matrix) -> Result<Matrix, LinalgError> {
        let mut out = Matrix::zeros(self.rows, rhs_t.rows);
        self.mul_transposed_into(rhs_t, &mut out)?;
        Ok(out)
    }

    /// In-place twin of [`Matrix::mul_transposed`]: writes `self * rhs_tᵀ`
    /// into `out` with the identical accumulation order, so the result is
    /// bit-identical to the allocating version.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.cols() != rhs_t.cols()` or `out` is not
    /// `self.rows() × rhs_t.rows()`.
    pub fn mul_transposed_into(&self, rhs_t: &Matrix, out: &mut Matrix) -> Result<(), LinalgError> {
        if self.cols != rhs_t.cols || out.rows != self.rows || out.cols != rhs_t.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matrix multiply (transposed rhs)",
                lhs: self.shape(),
                rhs: rhs_t.shape(),
            });
        }
        // Four output columns at a time: the four dot products are
        // independent accumulator chains, which hides the FP-add latency
        // a single strict-order dot is bound by, and the four `rhs_t` rows
        // stay hot while every output row streams past them.
        let mut jj = 0;
        while jj + 4 <= rhs_t.rows {
            for i in 0..self.rows {
                let a_row = self.row(i);
                let b0 = &rhs_t.row(jj)[..a_row.len()];
                let b1 = &rhs_t.row(jj + 1)[..a_row.len()];
                let b2 = &rhs_t.row(jj + 2)[..a_row.len()];
                let b3 = &rhs_t.row(jj + 3)[..a_row.len()];
                let mut acc = [0.0f64; 4];
                for (k, &a) in a_row.iter().enumerate() {
                    if a != 0.0 {
                        acc[0] += a * b0[k];
                        acc[1] += a * b1[k];
                        acc[2] += a * b2[k];
                        acc[3] += a * b3[k];
                    }
                }
                out.row_mut(i)[jj..jj + 4].copy_from_slice(&acc);
            }
            jj += 4;
        }
        for j in jj..rhs_t.rows {
            for i in 0..self.rows {
                let a_row = self.row(i);
                let b_row = &rhs_t.row(j)[..a_row.len()];
                let mut acc = 0.0;
                for (k, &a) in a_row.iter().enumerate() {
                    if a != 0.0 {
                        acc += a * b_row[k];
                    }
                }
                out.row_mut(i)[j] = acc;
            }
        }
        Ok(())
    }

    /// Matrix–vector product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != v.len()`.
    pub fn mul_vector(&self, v: &Vector) -> Result<Vector, LinalgError> {
        if self.cols != v.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "matrix-vector multiply",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok(Vector::from_fn(self.rows, |r| {
            self.row(r)
                .iter()
                .zip(v.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        }))
    }

    /// Matrix–vector product into a caller-provided output, bit-identical
    /// to [`Matrix::mul_vector`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != v.len()`
    /// or `out.len() != self.rows()`.
    pub fn mul_vector_into(&self, v: &Vector, out: &mut Vector) -> Result<(), LinalgError> {
        if self.cols != v.len() || out.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matrix-vector multiply (into)",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        for r in 0..self.rows {
            out[r] = self
                .row(r)
                .iter()
                .zip(v.as_slice())
                .map(|(a, b)| a * b)
                .sum();
        }
        Ok(())
    }

    /// Computes `self * rhs * selfᵀ`, the congruence transform used in every
    /// EKF covariance propagation (`F P Fᵀ`, `H P Hᵀ`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when shapes are
    /// incompatible.
    pub fn congruence(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        // `(self * rhs) * selfᵀ`: the second factor is already stored
        // row-major as `self`, so at EKF-scale sizes the transposed-RHS
        // path multiplies against it directly instead of materializing
        // the transpose. Past the interleaved-dot crossover the blocked
        // saxpy kernel wins even with the extra transpose. Both paths
        // produce bit-identical results.
        let m = self.mul_matrix(rhs)?;
        if self.rows < 48 {
            m.mul_transposed(self)
        } else {
            m.mul_matrix(&self.transpose())
        }
    }

    /// In-place twin of [`Matrix::congruence`]: computes `self * rhs * selfᵀ`
    /// into `out`, drawing every temporary from `ws` so repeated calls (one
    /// per EKF predict step, say) allocate nothing after the first.
    ///
    /// Follows the same size dispatch and summation order as the allocating
    /// version, so the result is bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when shapes are
    /// incompatible or `out` is not `self.rows() × self.rows()`.
    pub fn congruence_into(
        &self,
        rhs: &Matrix,
        ws: &mut Workspace,
        out: &mut Matrix,
    ) -> Result<(), LinalgError> {
        let mut m = ws.matrix(self.rows, rhs.cols);
        let result = self.mul_into(rhs, &mut m).and_then(|()| {
            if self.rows < 48 {
                m.mul_transposed_into(self, out)
            } else {
                let mut t = ws.matrix(self.cols, self.rows);
                let r = self
                    .transpose_into(&mut t)
                    .and_then(|()| m.mul_into(&t, out));
                ws.recycle_matrix(t);
                r
            }
        });
        ws.recycle_matrix(m);
        result
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] for singular matrices and
    /// [`LinalgError::MalformedInput`] for non-square ones.
    pub fn lu(&self) -> Result<Lu, LinalgError> {
        Lu::new(self)
    }

    /// Cholesky factorization (`A = L Lᵀ`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] when the matrix is not
    /// symmetric positive definite.
    pub fn cholesky(&self) -> Result<Cholesky, LinalgError> {
        Cholesky::new(self)
    }

    /// Solves `self * x = b` via LU factorization.
    ///
    /// # Errors
    ///
    /// Propagates factorization errors ([`LinalgError::Singular`],
    /// [`LinalgError::MalformedInput`]) and dimension mismatches.
    pub fn solve(&self, b: &Vector) -> Result<Vector, LinalgError> {
        self.lu()?.solve(b)
    }

    /// Computes the inverse via LU factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] for singular matrices.
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        self.lu()?.inverse()
    }

    /// Determinant via LU factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::MalformedInput`] for non-square matrices.
    pub fn determinant(&self) -> Result<f64, LinalgError> {
        match self.lu() {
            Ok(lu) => Ok(lu.determinant()),
            Err(LinalgError::Singular) => Ok(0.0),
            Err(e) => Err(e),
        }
    }

    /// Trace (sum of diagonal elements).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Copies the `rows × cols` block starting at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the block extends past the matrix bounds.
    pub fn block(&self, row: usize, col: usize, rows: usize, cols: usize) -> Matrix {
        assert!(
            row + rows <= self.rows && col + cols <= self.cols,
            "block out of bounds"
        );
        Matrix::from_fn(rows, cols, |r, c| self[(row + r, col + c)])
    }

    /// Overwrites the block starting at `(row, col)` with `src`.
    ///
    /// # Panics
    ///
    /// Panics if the block extends past the matrix bounds.
    pub fn set_block(&mut self, row: usize, col: usize, src: &Matrix) {
        assert!(
            row + src.rows <= self.rows && col + src.cols <= self.cols,
            "set_block out of bounds"
        );
        for r in 0..src.rows {
            for c in 0..src.cols {
                self[(row + r, col + c)] = src[(r, c)];
            }
        }
    }

    /// Returns `true` when `self` and `other` have identical shape and all
    /// elements are within `eps`.
    pub fn approx_eq(&self, other: &Matrix, eps: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| crate::approx_eq(*a, *b, eps))
    }

    /// Returns `true` when the matrix equals its transpose within `eps`.
    pub fn is_symmetric(&self, eps: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if !crate::approx_eq(self[(r, c)], self[(c, r)], eps) {
                    return false;
                }
            }
        }
        true
    }

    /// Symmetrizes the matrix in place: `A ← (A + Aᵀ)/2`.
    ///
    /// EKF covariance updates drift from exact symmetry through floating
    /// point error; kernels call this to restore the invariant.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize_mut(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                let avg = 0.5 * (self[(r, c)] + self[(c, r)]);
                self[(r, c)] = avg;
                self[(c, r)] = avg;
            }
        }
    }

    /// Scales every element by `factor` in place.
    pub fn scale_mut(&mut self, factor: f64) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// `self += alpha * rhs`, the matrix AXPY update.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled_assign(&mut self, alpha: f64, rhs: &Matrix) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix add-scaled-assign: shape mismatch"
        );
        // Element-wise map: the lane kernel is bit-identical to the
        // historical loop.
        rtr_simd::axpy(&mut self.data, alpha, &rhs.data);
    }

    /// Consumes the matrix, returning the row-major element storage (the
    /// inverse of [`Matrix::from_vec`]); [`crate::Workspace`] uses this to
    /// recycle buffers without copying.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}x{}]", self.rows, self.cols)?;
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:>12.6}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

macro_rules! impl_matrix_binop {
    ($trait:ident, $method:ident, $op:tt, $name:literal) => {
        impl $trait for &Matrix {
            type Output = Matrix;
            fn $method(self, rhs: &Matrix) -> Matrix {
                assert_eq!(
                    self.shape(),
                    rhs.shape(),
                    concat!($name, ": shape mismatch")
                );
                Matrix {
                    rows: self.rows,
                    cols: self.cols,
                    data: self
                        .data
                        .iter()
                        .zip(rhs.data.iter())
                        .map(|(a, b)| a $op b)
                        .collect(),
                }
            }
        }
        impl $trait for Matrix {
            type Output = Matrix;
            fn $method(self, rhs: Matrix) -> Matrix {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Matrix> for Matrix {
            type Output = Matrix;
            fn $method(self, rhs: &Matrix) -> Matrix {
                (&self).$method(rhs)
            }
        }
    };
}

impl_matrix_binop!(Add, add, +, "matrix add");
impl_matrix_binop!(Sub, sub, -, "matrix sub");

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix add-assign: shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix sub-assign: shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }
}

/// Matrix product; panics on dimension mismatch (use
/// [`Matrix::mul_matrix`] for a fallible version).
impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.mul_matrix(rhs)
            .expect("matrix multiply shape mismatch")
    }
}

/// Matrix–vector product; panics on dimension mismatch (use
/// [`Matrix::mul_vector`] for a fallible version).
impl Mul<&Vector> for &Matrix {
    type Output = Vector;
    fn mul(self, rhs: &Vector) -> Vector {
        self.mul_vector(rhs)
            .expect("matrix-vector multiply shape mismatch")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_mut(rhs);
        out
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self * -1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap()
    }

    #[test]
    fn constructors() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i = Matrix::identity(3);
        assert_eq!(i.trace(), 3.0);

        let d = Matrix::from_diagonal(&[1.0, 2.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::MalformedInput(_)));
    }

    #[test]
    fn from_vec_rejects_bad_count() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(0, 1)], 3.0);
    }

    #[test]
    fn multiply_matches_hand_computation() {
        let a = sample();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = &a * &b;
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn multiply_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.mul_matrix(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = sample();
        let i = Matrix::identity(2);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
    }

    #[test]
    fn mul_vector_matches() {
        let a = sample();
        let v = Vector::from_slice(&[1.0, 1.0]);
        assert_eq!(a.mul_vector(&v).unwrap().as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn congruence_preserves_symmetry() {
        let f = Matrix::from_rows(&[&[1.0, 0.5], &[0.0, 1.0]]).unwrap();
        let p = Matrix::from_rows(&[&[2.0, 0.3], &[0.3, 1.0]]).unwrap();
        let out = f.congruence(&p).unwrap();
        assert!(out.is_symmetric(1e-12));
    }

    #[test]
    fn block_roundtrip() {
        let mut m = Matrix::zeros(3, 3);
        let b = sample();
        m.set_block(1, 1, &b);
        assert_eq!(m.block(1, 1, 2, 2), b);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "block out of bounds")]
    fn block_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.block(1, 1, 2, 2);
    }

    #[test]
    fn symmetrize_restores_symmetry() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[2.5, 1.0]]).unwrap();
        m.symmetrize_mut();
        assert!(m.is_symmetric(0.0));
        assert_eq!(m[(0, 1)], 2.25);
    }

    #[test]
    fn row_and_column_access() {
        let m = sample();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.column(0).as_slice(), &[1.0, 3.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = sample();
        let b = Matrix::identity(2);
        assert_eq!((&a + &b)[(0, 0)], 2.0);
        assert_eq!((&a - &b)[(1, 1)], 3.0);
        assert_eq!((&a * 2.0)[(1, 0)], 6.0);
        assert_eq!((-&a)[(0, 1)], -2.0);
    }

    #[test]
    fn frobenius_norm_matches() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).unwrap();
        assert_eq!(m.frobenius_norm(), 5.0);
    }

    #[test]
    fn determinant_of_singular_is_zero() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(m.determinant().unwrap(), 0.0);
    }

    #[test]
    fn is_symmetric_rejects_non_square() {
        assert!(!Matrix::zeros(2, 3).is_symmetric(1e-12));
    }

    #[test]
    fn display_contains_shape() {
        assert!(format!("{}", sample()).contains("[2x2]"));
    }

    /// Deterministic pseudo-random matrix for the kernel-equivalence tests.
    fn dense(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
    }

    #[test]
    fn blocked_product_is_bit_identical_to_reference() {
        for &(m, k, n) in &[(64, 64, 64), (65, 64, 97), (96, 130, 71), (128, 128, 128)] {
            let a = dense(m, k, 1);
            let b = dense(k, n, 2);
            let blocked = a.mul_matrix(&b).unwrap();
            let reference = a.mul_unblocked(&b);
            assert_eq!(blocked.shape(), reference.shape());
            for (x, y) in blocked.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "shape ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn blocked_product_handles_zero_entries() {
        let mut a = dense(80, 80, 3);
        for k in 0..80 {
            a[(k % 80, k)] = 0.0;
        }
        let b = dense(80, 80, 4);
        let blocked = a.mul_matrix(&b).unwrap();
        let reference = a.mul_unblocked(&b);
        for (x, y) in blocked.as_slice().iter().zip(reference.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn mul_transposed_matches_explicit_transpose() {
        let a = dense(40, 33, 5);
        let b = dense(27, 33, 6);
        let fast = a.mul_transposed(&b).unwrap();
        let reference = a.mul_unblocked(&b.transpose());
        assert_eq!(fast.shape(), (40, 27));
        for (x, y) in fast.as_slice().iter().zip(reference.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn mul_transposed_rejects_mismatched_inner_dims() {
        assert!(Matrix::zeros(3, 4)
            .mul_transposed(&Matrix::zeros(5, 3))
            .is_err());
    }

    #[test]
    fn mul_into_dispatches_blocked_kernel_bit_identically() {
        // 96³ crosses BLOCK_THRESHOLD, so this exercises mul_blocked_into.
        let a = dense(96, 96, 7);
        let b = dense(96, 96, 8);
        let reference = a.mul_matrix(&b).unwrap();
        let mut out = Matrix::zeros(96, 96);
        a.mul_into(&b, &mut out).unwrap();
        for (x, y) in out.as_slice().iter().zip(reference.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn congruence_into_matches_both_dispatch_branches() {
        let mut ws = Workspace::new();
        // n = 24 takes the transposed-RHS path, n = 56 the transpose path.
        for &n in &[24usize, 56] {
            let f = dense(n, n, 9);
            let p = dense(n, n, 10);
            let reference = f.congruence(&p).unwrap();
            let mut out = Matrix::zeros(n, n);
            f.congruence_into(&p, &mut ws, &mut out).unwrap();
            for (x, y) in out.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "n = {n}");
            }
        }
    }

    #[test]
    fn into_apis_reject_wrong_output_shapes() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(4, 2);
        assert!(a.mul_into(&b, &mut Matrix::zeros(3, 3)).is_err());
        assert!(a.transpose_into(&mut Matrix::zeros(3, 4)).is_err());
        assert!(a
            .mul_transposed_into(&Matrix::zeros(2, 4), &mut Matrix::zeros(2, 2))
            .is_err());
        assert!(a
            .mul_vector_into(&Vector::zeros(4), &mut Vector::zeros(2))
            .is_err());
    }
}
