//! 3D point clouds and rigid-body transforms.
//!
//! Substrate for `03.srec` (ICP scene reconstruction). The paper notes
//! that "manipulating point clouds generates numerous irregular accesses,
//! overwhelming the memory system"; the cloud here is a plain `Vec<Point3>`
//! so that correspondence chasing through a k-d tree produces exactly that
//! irregular pattern.

use crate::Point3;

/// A set of 3D points, with the rigid-transform operations ICP needs.
///
/// # Example
///
/// ```
/// use rtr_geom::{Point3, PointCloud, RigidTransform};
///
/// let mut cloud = PointCloud::new();
/// cloud.push(Point3::new(1.0, 0.0, 0.0));
/// cloud.push(Point3::new(3.0, 0.0, 0.0));
/// let shift = RigidTransform::from_yaw_translation(0.0, Point3::new(0.0, 1.0, 0.0));
/// let moved = cloud.transformed(&shift);
/// assert_eq!(moved.points()[1], Point3::new(3.0, 1.0, 0.0));
/// assert_eq!(cloud.rmse(&moved), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointCloud {
    points: Vec<Point3>,
}

/// A rigid-body transform: rotation (row-major 3×3) plus translation.
///
/// Kept as a plain value type (rather than a `Matrix`) because ICP applies
/// it to hundreds of thousands of points per iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RigidTransform {
    /// Row-major 3×3 rotation matrix.
    pub rotation: [[f64; 3]; 3],
    /// Translation applied after rotation.
    pub translation: Point3,
}

impl RigidTransform {
    /// The identity transform.
    pub fn identity() -> Self {
        RigidTransform {
            rotation: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            translation: Point3::ORIGIN,
        }
    }

    /// A rotation of `yaw` radians about the z axis plus a translation.
    pub fn from_yaw_translation(yaw: f64, translation: Point3) -> Self {
        let (s, c) = yaw.sin_cos();
        RigidTransform {
            rotation: [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]],
            translation,
        }
    }

    /// Applies the transform to a point.
    #[inline]
    pub fn apply(&self, p: Point3) -> Point3 {
        let r = &self.rotation;
        Point3::new(
            r[0][0] * p.x + r[0][1] * p.y + r[0][2] * p.z + self.translation.x,
            r[1][0] * p.x + r[1][1] * p.y + r[1][2] * p.z + self.translation.y,
            r[2][0] * p.x + r[2][1] * p.y + r[2][2] * p.z + self.translation.z,
        )
    }

    /// Composes two transforms: `(self ∘ other)(p) = self(other(p))`.
    pub fn compose(&self, other: &RigidTransform) -> RigidTransform {
        let a = &self.rotation;
        let b = &other.rotation;
        let mut rotation = [[0.0; 3]; 3];
        for (i, row) in rotation.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j];
            }
        }
        RigidTransform {
            rotation,
            translation: self.apply(other.translation),
        }
    }

    /// The inverse transform (`Rᵀ`, `-Rᵀ t`); valid because `R` is a
    /// rotation.
    pub fn inverse(&self) -> RigidTransform {
        let r = &self.rotation;
        let rt = [
            [r[0][0], r[1][0], r[2][0]],
            [r[0][1], r[1][1], r[2][1]],
            [r[0][2], r[1][2], r[2][2]],
        ];
        let t = self.translation;
        let inv_t = Point3::new(
            -(rt[0][0] * t.x + rt[0][1] * t.y + rt[0][2] * t.z),
            -(rt[1][0] * t.x + rt[1][1] * t.y + rt[1][2] * t.z),
            -(rt[2][0] * t.x + rt[2][1] * t.y + rt[2][2] * t.z),
        );
        RigidTransform {
            rotation: rt,
            translation: inv_t,
        }
    }
}

impl Default for RigidTransform {
    fn default() -> Self {
        RigidTransform::identity()
    }
}

impl PointCloud {
    /// Creates an empty cloud.
    pub fn new() -> Self {
        PointCloud { points: Vec::new() }
    }

    /// Appends a point.
    pub fn push(&mut self, p: Point3) {
        self.points.push(p);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the cloud holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Borrows the points.
    pub fn points(&self) -> &[Point3] {
        &self.points
    }

    /// Returns a copy with `transform` applied to every point.
    pub fn transformed(&self, transform: &RigidTransform) -> PointCloud {
        PointCloud {
            points: self.points.iter().map(|p| transform.apply(*p)).collect(),
        }
    }

    /// Writes `transform` applied to every point of `self` into `out`,
    /// reusing `out`'s storage — the allocation-free twin of
    /// [`PointCloud::transformed`] for per-iteration hot loops (ICP
    /// re-poses the source cloud every iteration).
    pub fn transform_into(&self, transform: &RigidTransform, out: &mut PointCloud) {
        out.points.clear();
        out.points
            .extend(self.points.iter().map(|p| transform.apply(*p)));
    }

    /// Root-mean-square point-to-point distance to an equally sized cloud
    /// with index correspondence. The reconstruction-quality metric of
    /// `03.srec`.
    ///
    /// # Panics
    ///
    /// Panics if the clouds differ in size.
    pub fn rmse(&self, other: &PointCloud) -> f64 {
        assert_eq!(self.len(), other.len(), "rmse: cloud sizes differ");
        if self.points.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .points
            .iter()
            .zip(other.points.iter())
            .map(|(a, b)| a.distance_squared(*b))
            .sum();
        (sum / self.points.len() as f64).sqrt()
    }

    /// Iterates over the points.
    pub fn iter(&self) -> std::slice::Iter<'_, Point3> {
        self.points.iter()
    }
}

impl FromIterator<Point3> for PointCloud {
    fn from_iter<I: IntoIterator<Item = Point3>>(iter: I) -> Self {
        PointCloud {
            points: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn identity_transform_is_noop() {
        let p = Point3::new(1.0, 2.0, 3.0);
        assert_eq!(RigidTransform::identity().apply(p), p);
    }

    #[test]
    fn yaw_quarter_turn() {
        let t = RigidTransform::from_yaw_translation(FRAC_PI_2, Point3::ORIGIN);
        let p = t.apply(Point3::new(1.0, 0.0, 0.0));
        assert!(p.x.abs() < 1e-12);
        assert!((p.y - 1.0).abs() < 1e-12);
        assert_eq!(p.z, 0.0);
    }

    #[test]
    fn inverse_undoes_transform() {
        let t = RigidTransform::from_yaw_translation(0.7, Point3::new(1.0, -2.0, 3.0));
        let p = Point3::new(4.0, 5.0, 6.0);
        let back = t.inverse().apply(t.apply(p));
        assert!(back.distance(p) < 1e-12);
    }

    #[test]
    fn compose_associates_with_apply() {
        let a = RigidTransform::from_yaw_translation(0.3, Point3::new(1.0, 0.0, 0.0));
        let b = RigidTransform::from_yaw_translation(-0.8, Point3::new(0.0, 2.0, 1.0));
        let p = Point3::new(1.0, 1.0, 1.0);
        let via_compose = a.compose(&b).apply(p);
        let via_sequence = a.apply(b.apply(p));
        assert!(via_compose.distance(via_sequence) < 1e-12);
    }

    #[test]
    fn transformed_preserves_len_and_rmse_zero_on_identity() {
        let cloud: PointCloud = (0..10)
            .map(|i| Point3::new(i as f64, 2.0 * i as f64, 0.5 * i as f64))
            .collect();
        let moved = cloud.transformed(&RigidTransform::identity());
        assert_eq!(moved.len(), cloud.len());
        assert_eq!(cloud.rmse(&moved), 0.0);
    }

    #[test]
    fn rmse_matches_known_offset() {
        let a = PointCloud {
            points: vec![Point3::ORIGIN, Point3::ORIGIN],
        };
        let b = PointCloud {
            points: vec![Point3::new(3.0, 4.0, 0.0), Point3::new(3.0, 4.0, 0.0)],
        };
        assert!((a.rmse(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cloud sizes differ")]
    fn rmse_size_mismatch_panics() {
        let a = PointCloud {
            points: vec![Point3::ORIGIN],
        };
        let b = PointCloud::new();
        let _ = a.rmse(&b);
    }

    #[test]
    fn transform_into_matches_transformed_and_reuses_storage() {
        let t = RigidTransform::from_yaw_translation(0.4, Point3::new(1.0, 0.0, -0.5));
        let cloud: PointCloud = (0..16)
            .map(|i| Point3::new(i as f64, (i * i) as f64 * 0.1, 2.0))
            .collect();
        let mut out = PointCloud::new();
        cloud.transform_into(&t, &mut out);
        assert_eq!(out, cloud.transformed(&t));
        let cap = out.points.capacity();
        for _ in 0..4 {
            cloud.transform_into(&t, &mut out);
        }
        assert_eq!(out.points.capacity(), cap, "storage must be reused");
    }
}
