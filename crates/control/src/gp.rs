//! Gaussian-process regression — the substrate of `16.bo`.
//!
//! "Training and testing are done using a Gaussian process" (§V.16). This
//! is a standard exact GP with an RBF kernel, fitted by Cholesky
//! factorization; the O(n³) fit and O(n²) predictions are what make the
//! paper's Bayesian-optimization kernel "computationally ... more
//! intensive" than CEM.

use rtr_linalg::{Cholesky, LinalgError, Matrix, Vector, Workspace};

/// An exact Gaussian-process regressor with an RBF (squared-exponential)
/// kernel.
///
/// # Example
///
/// ```
/// use rtr_control::GaussianProcess;
///
/// # fn main() -> Result<(), rtr_linalg::LinalgError> {
/// let xs = vec![vec![0.0], vec![1.0], vec![2.0]];
/// let ys = vec![0.0, 1.0, 4.0];
/// let gp = GaussianProcess::fit(&xs, &ys, 1.0, 1.0, 1e-6)?;
/// let (mean, var) = gp.predict(&[1.0]);
/// assert!((mean - 1.0).abs() < 0.1);
/// assert!(var >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    /// Training inputs flattened point-major (`n × dim`), so the
    /// posterior kernel row is a packed squared-distance scan.
    train_flat: Vec<f64>,
    dim: usize,
    alpha: Vector,
    chol: Cholesky,
    length_scale: f64,
    signal_variance: f64,
    y_mean: f64,
}

impl GaussianProcess {
    /// Fits the GP to training inputs `xs` and targets `ys`.
    ///
    /// `noise` is added to the kernel diagonal (observation noise +
    /// jitter). Targets are internally centered on their mean.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError`] when the kernel matrix is not positive
    /// definite (e.g. `noise` is zero and inputs are duplicated), or
    /// [`LinalgError::MalformedInput`] on empty/ragged input.
    pub fn fit(
        xs: &[Vec<f64>],
        ys: &[f64],
        length_scale: f64,
        signal_variance: f64,
        noise: f64,
    ) -> Result<Self, LinalgError> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(LinalgError::MalformedInput(
                "training set empty or mismatched",
            ));
        }
        let dim = xs[0].len();
        if xs.iter().any(|x| x.len() != dim) {
            return Err(LinalgError::MalformedInput("ragged training inputs"));
        }
        let n = xs.len();
        let y_mean = ys.iter().sum::<f64>() / n as f64;

        let kernel = |a: &[f64], b: &[f64]| -> f64 {
            let d2: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum();
            signal_variance * (-0.5 * d2 / (length_scale * length_scale)).exp()
        };

        let mut k = Matrix::from_fn(n, n, |r, c| kernel(&xs[r], &xs[c]));
        for i in 0..n {
            k[(i, i)] += noise;
        }
        let chol = k.cholesky()?;
        let centered = Vector::from_fn(n, |i| ys[i] - y_mean);
        let alpha = chol.solve(&centered)?;

        Ok(GaussianProcess {
            train_flat: xs.iter().flat_map(|x| x.iter().copied()).collect(),
            dim,
            alpha,
            chol,
            length_scale,
            signal_variance,
            y_mean,
        })
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.train_flat.len() / self.dim
    }

    /// Returns `true` when the GP holds no training data (never true for a
    /// successfully fitted model).
    pub fn is_empty(&self) -> bool {
        self.train_flat.is_empty()
    }

    /// Training row `i` of the packed point-major input matrix.
    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        &self.train_flat[i * self.dim..(i + 1) * self.dim]
    }

    fn kernel(&self, a: &[f64], b: &[f64]) -> f64 {
        let d2: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum();
        self.signal_variance * (-0.5 * d2 / (self.length_scale * self.length_scale)).exp()
    }

    /// Posterior mean and variance at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s dimension differs from the training inputs'.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        assert_eq!(x.len(), self.dim, "query dimension mismatch");
        let k_star = Vector::from_fn(self.len(), |i| self.kernel(self.row(i), x));
        let mean = self.y_mean + k_star.dot(&self.alpha);
        let v = self
            .chol
            .solve_lower(&k_star)
            .expect("dimension fixed by training set");
        let var = (self.kernel(x, x) - v.norm_squared()).max(0.0);
        (mean, var)
    }

    /// Posterior mean and variance at `x`, drawing the kernel-vector and
    /// forward-solve buffers from `ws` instead of allocating them.
    ///
    /// Bit-identical to [`GaussianProcess::predict`] — same kernel
    /// evaluations, dot product and forward substitution — but a query
    /// loop over a fixed training set performs zero heap allocations after
    /// its first call (the acquisition loop in `16.bo` runs hundreds of
    /// queries per refit). The kernel row is a lane-kernel squared-distance
    /// scan over the packed training matrix followed by a scalar `exp` map;
    /// per-row accumulation preserves dimension order, so it reproduces
    /// `predict` bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s dimension differs from the training inputs'.
    pub fn predict_with(&self, x: &[f64], ws: &mut Workspace) -> (f64, f64) {
        assert_eq!(x.len(), self.dim, "query dimension mismatch");
        let n = self.len();
        let mut k_star = ws.vector(n);
        rtr_simd::squared_distances_dyn(&self.train_flat, self.dim, x, k_star.as_mut_slice());
        let l2 = self.length_scale * self.length_scale;
        for i in 0..n {
            // Same op order as `kernel` (mul, div, exp, mul) — bitwise.
            k_star[i] = self.signal_variance * (-0.5 * k_star[i] / l2).exp();
        }
        let mean = self.y_mean + k_star.dot(&self.alpha);
        let mut v = ws.vector(n);
        self.chol
            .solve_lower_into(&k_star, &mut v)
            .expect("dimension fixed by training set");
        let var = (self.kernel(x, x) - v.norm_squared()).max(0.0);
        ws.recycle_vector(k_star);
        ws.recycle_vector(v);
        (mean, var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 * 0.25]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0]).collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_training_points() {
        let (xs, ys) = quad_data();
        let gp = GaussianProcess::fit(&xs, &ys, 0.5, 1.0, 1e-8).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            let (mean, var) = gp.predict(x);
            assert!((mean - y).abs() < 1e-3, "at {x:?}: {mean} vs {y}");
            assert!(var < 1e-4, "variance at training point: {var}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let (xs, ys) = quad_data();
        let gp = GaussianProcess::fit(&xs, &ys, 0.5, 1.0, 1e-6).unwrap();
        let (_, var_near) = gp.predict(&[1.0]);
        let (_, var_far) = gp.predict(&[10.0]);
        assert!(var_far > var_near * 10.0, "{var_far} vs {var_near}");
        assert!(var_far <= 1.0 + 1e-9, "capped by signal variance");
    }

    #[test]
    fn smooth_interpolation_between_points() {
        let (xs, ys) = quad_data();
        let gp = GaussianProcess::fit(&xs, &ys, 0.5, 1.0, 1e-8).unwrap();
        let (mean, _) = gp.predict(&[1.125]);
        assert!((mean - 1.265625).abs() < 0.05, "got {mean}");
    }

    #[test]
    fn multidimensional_inputs() {
        let xs = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
        ];
        let ys = vec![0.0, 1.0, 1.0, 2.0];
        let gp = GaussianProcess::fit(&xs, &ys, 1.0, 1.0, 1e-6).unwrap();
        let (mean, _) = gp.predict(&[0.5, 0.5]);
        assert!((mean - 1.0).abs() < 0.2, "got {mean}");
    }

    #[test]
    fn empty_training_rejected() {
        assert!(GaussianProcess::fit(&[], &[], 1.0, 1.0, 1e-6).is_err());
    }

    #[test]
    fn mismatched_lengths_rejected() {
        assert!(GaussianProcess::fit(&[vec![0.0]], &[1.0, 2.0], 1.0, 1.0, 1e-6).is_err());
    }

    #[test]
    fn predict_with_is_bit_identical_and_allocation_free_after_warmup() {
        let (xs, ys) = quad_data();
        let gp = GaussianProcess::fit(&xs, &ys, 0.5, 1.0, 1e-8).unwrap();
        let mut ws = Workspace::new();
        for q in 0..64 {
            let x = [q as f64 * 0.037 - 0.3];
            let (m0, v0) = gp.predict(&x);
            let (m1, v1) = gp.predict_with(&x, &mut ws);
            assert_eq!(m0.to_bits(), m1.to_bits(), "mean differs at query {q}");
            assert_eq!(v0.to_bits(), v1.to_bits(), "variance differs at query {q}");
        }
        // k_star + v: two buffers for the whole query sweep.
        assert_eq!(ws.allocations(), 2);
        assert_eq!(ws.handouts(), 128);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_query_dimension_panics() {
        let gp =
            GaussianProcess::fit(&[vec![0.0], vec![1.0]], &[0.0, 1.0], 1.0, 1.0, 1e-6).unwrap();
        let _ = gp.predict(&[0.0, 0.0]);
    }
}
