//! Axis-aligned bounding boxes in 2D and 3D.

use crate::{Point2, Point3};

/// An axis-aligned rectangle, used for obstacle extents in the synthetic
/// arm-planning workspaces (`Map-C`/`Map-F`) and for broad-phase collision
/// culling.
///
/// # Example
///
/// ```
/// use rtr_geom::{Aabb2, Point2};
/// let b = Aabb2::new(Point2::new(0.0, 0.0), Point2::new(2.0, 1.0));
/// assert!(b.contains(Point2::new(1.0, 0.5)));
/// assert!(!b.contains(Point2::new(3.0, 0.5)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb2 {
    /// Minimum corner.
    pub min: Point2,
    /// Maximum corner.
    pub max: Point2,
}

impl Aabb2 {
    /// Creates a box from two corners, reordering coordinates as needed.
    pub fn new(a: Point2, b: Point2) -> Self {
        Aabb2 {
            min: Point2::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point2::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates a box from a center point and full side lengths.
    pub fn from_center(center: Point2, width: f64, height: f64) -> Self {
        let half = Point2::new(width.abs() * 0.5, height.abs() * 0.5);
        Aabb2::new(center - half, center + half)
    }

    /// Returns `true` when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Width along x.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Returns `true` when the segment `a`–`b` intersects the box.
    ///
    /// Used by the arm planners' collision checks: each arm link is a
    /// segment tested against every workspace obstacle. Implemented with the
    /// slab method.
    pub fn intersects_segment(&self, a: Point2, b: Point2) -> bool {
        if self.contains(a) || self.contains(b) {
            return true;
        }
        let d = b - a;
        let mut t_min: f64 = 0.0;
        let mut t_max: f64 = 1.0;
        for (da, pa, lo, hi) in [
            (d.x, a.x, self.min.x, self.max.x),
            (d.y, a.y, self.min.y, self.max.y),
        ] {
            if da.abs() < 1e-15 {
                if pa < lo || pa > hi {
                    return false;
                }
            } else {
                let inv = 1.0 / da;
                let mut t0 = (lo - pa) * inv;
                let mut t1 = (hi - pa) * inv;
                if t0 > t1 {
                    std::mem::swap(&mut t0, &mut t1);
                }
                t_min = t_min.max(t0);
                t_max = t_max.min(t1);
                if t_min > t_max {
                    return false;
                }
            }
        }
        true
    }
}

/// An axis-aligned box in 3D, used for buildings/trees in the synthetic
/// campus map of `05.pp3d`.
///
/// # Example
///
/// ```
/// use rtr_geom::{Aabb3, Point3};
/// let b = Aabb3::new(Point3::ORIGIN, Point3::new(1.0, 1.0, 1.0));
/// assert!(b.contains(Point3::new(0.5, 0.5, 0.5)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb3 {
    /// Minimum corner.
    pub min: Point3,
    /// Maximum corner.
    pub max: Point3,
}

impl Aabb3 {
    /// Creates a box from two corners, reordering coordinates as needed.
    pub fn new(a: Point3, b: Point3) -> Self {
        Aabb3 {
            min: Point3::new(a.x.min(b.x), a.y.min(b.y), a.z.min(b.z)),
            max: Point3::new(a.x.max(b.x), a.y.max(b.y), a.z.max(b.z)),
        }
    }

    /// Returns `true` when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_reorders_corners() {
        let b = Aabb2::new(Point2::new(2.0, 1.0), Point2::new(0.0, 3.0));
        assert_eq!(b.min, Point2::new(0.0, 1.0));
        assert_eq!(b.max, Point2::new(2.0, 3.0));
    }

    #[test]
    fn from_center_dimensions() {
        let b = Aabb2::from_center(Point2::new(1.0, 1.0), 2.0, 4.0);
        assert_eq!(b.width(), 2.0);
        assert_eq!(b.height(), 4.0);
        assert_eq!(b.min, Point2::new(0.0, -1.0));
        assert_eq!(b.max, Point2::new(2.0, 3.0));
    }

    #[test]
    fn contains_boundary() {
        let b = Aabb2::new(Point2::ORIGIN, Point2::new(1.0, 1.0));
        assert!(b.contains(Point2::new(0.0, 0.0)));
        assert!(b.contains(Point2::new(1.0, 1.0)));
        assert!(!b.contains(Point2::new(1.0001, 0.5)));
    }

    #[test]
    fn segment_crossing_detected() {
        let b = Aabb2::new(Point2::new(1.0, 1.0), Point2::new(2.0, 2.0));
        // Diagonal crossing straight through.
        assert!(b.intersects_segment(Point2::new(0.0, 0.0), Point2::new(3.0, 3.0)));
        // Segment passing below the box.
        assert!(!b.intersects_segment(Point2::new(0.0, 0.0), Point2::new(3.0, 0.5)));
        // Vertical segment through the box.
        assert!(b.intersects_segment(Point2::new(1.5, 0.0), Point2::new(1.5, 3.0)));
        // Vertical segment missing the box.
        assert!(!b.intersects_segment(Point2::new(0.5, 0.0), Point2::new(0.5, 3.0)));
    }

    #[test]
    fn segment_with_endpoint_inside() {
        let b = Aabb2::new(Point2::ORIGIN, Point2::new(1.0, 1.0));
        assert!(b.intersects_segment(Point2::new(0.5, 0.5), Point2::new(5.0, 5.0)));
    }

    #[test]
    fn aabb3_contains_boundary() {
        let a = Aabb3::new(Point3::ORIGIN, Point3::new(2.0, 2.0, 2.0));
        assert!(a.contains(Point3::new(1.0, 1.0, 1.0)));
        assert!(a.contains(Point3::new(2.0, 2.0, 2.0)));
        assert!(!a.contains(Point3::new(1.0, 1.0, 2.5)));
    }
}
