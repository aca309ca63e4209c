//! Dynamically sized `f64` column vector.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::LinalgError;

/// A heap-allocated column vector of `f64` elements.
///
/// `Vector` is the workhorse value type of the perception and control
/// kernels: EKF states, landmark observations, joint configurations, MPC
/// control sequences and Gaussian-process sample points are all `Vector`s.
///
/// # Example
///
/// ```
/// use rtr_linalg::Vector;
///
/// let v = Vector::from_slice(&[3.0, 4.0]);
/// assert_eq!(v.norm(), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a zero vector of length `n`.
    ///
    /// # Example
    ///
    /// ```
    /// let v = rtr_linalg::Vector::zeros(3);
    /// assert_eq!(v.len(), 3);
    /// assert_eq!(v[2], 0.0);
    /// ```
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector by copying the elements of `slice`.
    pub fn from_slice(slice: &[f64]) -> Self {
        Vector {
            data: slice.to_vec(),
        }
    }

    /// Creates a vector by evaluating `f(i)` for `i` in `0..n`.
    ///
    /// # Example
    ///
    /// ```
    /// let v = rtr_linalg::Vector::from_fn(4, |i| i as f64 * 2.0);
    /// assert_eq!(v.as_slice(), &[0.0, 2.0, 4.0, 6.0]);
    /// ```
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> f64) -> Self {
        Vector {
            data: (0..n).map(f).collect(),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the vector has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows the elements as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector, returning the underlying storage.
    pub fn into_inner(self) -> Vec<f64> {
        self.data
    }

    /// Dot product with another vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ; kernel inner loops rely on this being
    /// branch-free in release builds after the initial assert.
    #[inline]
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Euclidean (L2) norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm_squared().sqrt()
    }

    /// Squared Euclidean norm (avoids the square root).
    #[inline]
    pub fn norm_squared(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// This is the hot operation the paper calls out for `07.prm`
    /// ("frequent L2-norm calculations ... to calculate the distance of
    /// samples in n-dimension space").
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn distance_squared(&self, other: &Vector) -> f64 {
        assert_eq!(self.len(), other.len(), "distance_squared: length mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Vector) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Returns a unit vector pointing in the same direction.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] when the norm is zero or not finite.
    pub fn normalized(&self) -> Result<Vector, LinalgError> {
        let n = self.norm();
        if n == 0.0 || !n.is_finite() {
            return Err(LinalgError::Singular);
        }
        Ok(Vector::from_fn(self.len(), |i| self.data[i] / n))
    }

    /// Element-wise scaling by `factor` in place.
    pub fn scale_mut(&mut self, factor: f64) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// `self += alpha * other`, the classic AXPY update.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) {
        assert_eq!(self.len(), other.len(), "axpy: length mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Iterator over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Mutable iterator over the elements.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Returns `true` when every element is within `eps` of `other`'s.
    pub fn approx_eq(&self, other: &Vector, eps: f64) -> bool {
        self.len() == other.len()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| crate::approx_eq(*a, *b, eps))
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl AsRef<[f64]> for Vector {
    fn as_ref(&self) -> &[f64] {
        &self.data
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, "]")
    }
}

macro_rules! impl_vector_binop {
    ($trait:ident, $method:ident, $op:tt, $name:literal) => {
        impl $trait for &Vector {
            type Output = Vector;
            fn $method(self, rhs: &Vector) -> Vector {
                assert_eq!(self.len(), rhs.len(), concat!($name, ": length mismatch"));
                Vector::from_fn(self.len(), |i| self.data[i] $op rhs.data[i])
            }
        }
        impl $trait for Vector {
            type Output = Vector;
            fn $method(self, rhs: Vector) -> Vector {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Vector> for Vector {
            type Output = Vector;
            fn $method(self, rhs: &Vector) -> Vector {
                (&self).$method(rhs)
            }
        }
        impl $trait<Vector> for &Vector {
            type Output = Vector;
            fn $method(self, rhs: Vector) -> Vector {
                self.$method(&rhs)
            }
        }
    };
}

impl_vector_binop!(Add, add, +, "vector add");
impl_vector_binop!(Sub, sub, -, "vector sub");

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector add-assign: length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector sub-assign: length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        Vector::from_fn(self.len(), |i| self.data[i] * rhs)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    fn mul(mut self, rhs: f64) -> Vector {
        self.scale_mut(rhs);
        self
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        Vector::from_fn(self.len(), |i| -self.data[i])
    }
}

impl Neg for Vector {
    type Output = Vector;
    fn neg(mut self) -> Vector {
        self.scale_mut(-1.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_empty() {
        assert_eq!(Vector::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn dot_and_norm() {
        let a = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let b = Vector::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b), 32.0);
        assert_eq!(Vector::from_slice(&[3.0, 4.0]).norm(), 5.0);
        assert_eq!(a.norm_squared(), 14.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        let _ = a.dot(&b);
    }

    #[test]
    fn distance() {
        let a = Vector::from_slice(&[0.0, 0.0]);
        let b = Vector::from_slice(&[3.0, 4.0]);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_squared(&b), 25.0);
    }

    #[test]
    fn normalized_unit_length() {
        let v = Vector::from_slice(&[1.0, 2.0, 2.0]).normalized().unwrap();
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_zero_is_error() {
        assert_eq!(
            Vector::zeros(3).normalized().unwrap_err(),
            LinalgError::Singular
        );
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = Vector::from_slice(&[1.0, 1.0]);
        let b = Vector::from_slice(&[2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.0, 2.5]);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn assign_operators() {
        let mut a = Vector::from_slice(&[1.0, 2.0]);
        a += &Vector::from_slice(&[1.0, 1.0]);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
        a -= &Vector::from_slice(&[2.0, 2.0]);
        assert_eq!(a.as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn sum_adds_every_element() {
        let v = Vector::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(v.sum(), 6.0);
        assert_eq!(Vector::zeros(0).sum(), 0.0);
    }

    #[test]
    fn collect_from_iterator() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn display_nonempty() {
        let v = Vector::from_slice(&[1.0]);
        assert!(!format!("{v}").is_empty());
        assert!(!format!("{:?}", Vector::zeros(0)).is_empty());
    }
}
