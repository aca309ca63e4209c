//! Occupancy grid maps in 2D and 3D.

use crate::Point2;

/// A 2D occupancy grid with a metric resolution.
///
/// Cells are addressed as `(ix, iy)` with `(0, 0)` at the world origin's
/// corner; cell `(ix, iy)` covers the world square
/// `[ix·res, (ix+1)·res) × [iy·res, (iy+1)·res)`.
///
/// The grid is the substrate for particle-filter ray casting (`01.pfl`) and
/// 2D path planning (`04.pp2d`); both kernels' bottlenecks are loops over
/// the `is_occupied` cell probe, so it is `#[inline]` and backed by a flat
/// `Vec<u8>`.
///
/// # Example
///
/// ```
/// use rtr_geom::GridMap2D;
///
/// let mut map = GridMap2D::new(10, 10, 0.5);
/// map.set_occupied(3, 4, true);
/// assert!(map.is_occupied(3, 4));
/// assert_eq!(map.world_width(), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridMap2D {
    width: usize,
    height: usize,
    resolution: f64,
    cells: Vec<u8>,
}

impl GridMap2D {
    /// Creates an all-free grid of `width × height` cells, each
    /// `resolution` meters on a side.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is not strictly positive and finite.
    pub fn new(width: usize, height: usize, resolution: f64) -> Self {
        assert!(
            resolution > 0.0 && resolution.is_finite(),
            "resolution must be positive and finite"
        );
        GridMap2D {
            width,
            height,
            resolution,
            cells: vec![0; width * height],
        }
    }

    /// Number of cells along x.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of cells along y.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Metric size of one cell.
    #[inline]
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// World-frame width in meters.
    #[inline]
    pub fn world_width(&self) -> f64 {
        self.width as f64 * self.resolution
    }

    /// World-frame height in meters.
    #[inline]
    pub fn world_height(&self) -> f64 {
        self.height as f64 * self.resolution
    }

    /// Returns `true` when `(ix, iy)` lies inside the grid.
    #[inline]
    pub fn in_bounds(&self, ix: i64, iy: i64) -> bool {
        ix >= 0 && iy >= 0 && (ix as usize) < self.width && (iy as usize) < self.height
    }

    /// Flat index of a cell; private on purpose (layout is an implementation
    /// detail).
    #[inline]
    fn index(&self, ix: usize, iy: usize) -> usize {
        debug_assert!(ix < self.width && iy < self.height, "cell out of bounds");
        iy * self.width + ix
    }

    /// Occupancy of cell `(ix, iy)`. Out-of-bounds cells read as occupied,
    /// which makes the map boundary behave like a wall — the convention the
    /// planners and the ray caster rely on.
    #[inline]
    pub fn is_occupied(&self, ix: i64, iy: i64) -> bool {
        if !self.in_bounds(ix, iy) {
            return true;
        }
        self.cells[self.index(ix as usize, iy as usize)] != 0
    }

    /// Returns `true` when `(ix, iy)` is inside the grid and free.
    #[inline]
    pub fn is_free(&self, ix: i64, iy: i64) -> bool {
        !self.is_occupied(ix, iy)
    }

    /// Sets the occupancy of cell `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of bounds.
    #[inline]
    pub fn set_occupied(&mut self, ix: usize, iy: usize, occupied: bool) {
        assert!(ix < self.width && iy < self.height, "cell out of bounds");
        let idx = self.index(ix, iy);
        self.cells[idx] = occupied as u8;
    }

    /// Marks every cell in the inclusive cell-rectangle as occupied,
    /// clamping to the grid bounds.
    pub fn fill_rect(&mut self, x0: usize, y0: usize, x1: usize, y1: usize) {
        let x_end = x1.min(self.width.saturating_sub(1));
        let y_end = y1.min(self.height.saturating_sub(1));
        for iy in y0..=y_end {
            for ix in x0..=x_end {
                let idx = self.index(ix, iy);
                self.cells[idx] = 1;
            }
        }
    }

    /// World coordinates of the center of cell `(ix, iy)`.
    #[inline]
    pub fn cell_center(&self, ix: usize, iy: usize) -> Point2 {
        Point2::new(
            (ix as f64 + 0.5) * self.resolution,
            (iy as f64 + 0.5) * self.resolution,
        )
    }

    /// Cell containing the world point, or `None` if outside the map.
    #[inline]
    pub fn world_to_cell(&self, p: Point2) -> Option<(usize, usize)> {
        if p.x < 0.0 || p.y < 0.0 {
            return None;
        }
        let ix = (p.x / self.resolution) as usize;
        let iy = (p.y / self.resolution) as usize;
        if ix < self.width && iy < self.height {
            Some((ix, iy))
        } else {
            None
        }
    }

    /// Occupancy at a world point; points outside the map read occupied.
    #[inline]
    pub fn is_occupied_world(&self, p: Point2) -> bool {
        match self.world_to_cell(p) {
            Some((ix, iy)) => self.cells[self.index(ix, iy)] != 0,
            None => true,
        }
    }

    /// Number of occupied cells.
    pub fn occupied_count(&self) -> usize {
        self.cells.iter().filter(|&&c| c != 0).count()
    }

    /// Fraction of cells occupied, in `[0, 1]`; `0.0` for an empty grid.
    pub fn occupancy_ratio(&self) -> f64 {
        if self.cells.is_empty() {
            0.0
        } else {
            self.occupied_count() as f64 / self.cells.len() as f64
        }
    }

    /// Returns a copy with every obstacle inflated by `radius` meters
    /// (cells within `radius` of an occupied cell become occupied).
    ///
    /// Obstacle inflation turns footprint collision checking into a single
    /// center-cell probe for disc-shaped robots — the strategy
    /// PythonRobotics' planner uses — and is the common preprocessing for
    /// point-robot planning with a safety margin.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or non-finite.
    pub fn inflated(&self, radius: f64) -> GridMap2D {
        assert!(radius >= 0.0 && radius.is_finite(), "bad inflation radius");
        let r_cells = (radius / self.resolution).ceil() as i64;
        let r2 = (radius / self.resolution) * (radius / self.resolution);
        let mut out = GridMap2D::new(self.width, self.height, self.resolution);
        // Precompute the disc stencil once.
        let mut stencil = Vec::new();
        for dy in -r_cells..=r_cells {
            for dx in -r_cells..=r_cells {
                if (dx * dx + dy * dy) as f64 <= r2 + 1e-9 {
                    stencil.push((dx, dy));
                }
            }
        }
        for iy in 0..self.height {
            for ix in 0..self.width {
                if self.cells[self.index(ix, iy)] == 0 {
                    continue;
                }
                for &(dx, dy) in &stencil {
                    let nx = ix as i64 + dx;
                    let ny = iy as i64 + dy;
                    if out.in_bounds(nx, ny) {
                        out.set_occupied(nx as usize, ny as usize, true);
                    }
                }
            }
        }
        out
    }

    /// Returns an upscaled copy where every source cell becomes a
    /// `factor × factor` block (resolution shrinks by `factor`).
    ///
    /// This mirrors the map-scaling experiment of the paper's Fig. 21, where
    /// the P-Rob map is scaled by powers of two "to evaluate the
    /// implementations in larger (or finer-resolution) environments."
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    pub fn upscaled(&self, factor: usize) -> GridMap2D {
        assert!(factor > 0, "scale factor must be positive");
        let mut out = GridMap2D::new(
            self.width * factor,
            self.height * factor,
            self.resolution / factor as f64,
        );
        for iy in 0..self.height {
            for ix in 0..self.width {
                if self.cells[self.index(ix, iy)] != 0 {
                    out.fill_rect(
                        ix * factor,
                        iy * factor,
                        (ix + 1) * factor - 1,
                        (iy + 1) * factor - 1,
                    );
                }
            }
        }
        out
    }
}

/// A 3D occupancy grid for UAV path planning (`05.pp3d`, `06.movtar`).
///
/// Same conventions as [`GridMap2D`]: flat storage, out-of-bounds reads as
/// occupied.
///
/// # Example
///
/// ```
/// use rtr_geom::GridMap3D;
///
/// let mut map = GridMap3D::new(8, 8, 4, 1.0);
/// map.set_occupied(1, 2, 3, true);
/// assert!(map.is_occupied(1, 2, 3));
/// assert!(map.is_occupied(-1, 0, 0)); // boundary acts as a wall
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridMap3D {
    width: usize,
    height: usize,
    depth: usize,
    resolution: f64,
    cells: Vec<u8>,
}

impl GridMap3D {
    /// Creates an all-free grid of `width × height × depth` cells.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is not strictly positive and finite.
    pub fn new(width: usize, height: usize, depth: usize, resolution: f64) -> Self {
        assert!(
            resolution > 0.0 && resolution.is_finite(),
            "resolution must be positive and finite"
        );
        GridMap3D {
            width,
            height,
            depth,
            resolution,
            cells: vec![0; width * height * depth],
        }
    }

    /// Number of cells along x.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of cells along y.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Metric size of one cell.
    #[inline]
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// Returns `true` when the cell lies inside the grid.
    #[inline]
    pub fn in_bounds(&self, ix: i64, iy: i64, iz: i64) -> bool {
        ix >= 0
            && iy >= 0
            && iz >= 0
            && (ix as usize) < self.width
            && (iy as usize) < self.height
            && (iz as usize) < self.depth
    }

    #[inline]
    fn index(&self, ix: usize, iy: usize, iz: usize) -> usize {
        (iz * self.height + iy) * self.width + ix
    }

    /// Occupancy of a cell; out-of-bounds reads as occupied.
    #[inline]
    pub fn is_occupied(&self, ix: i64, iy: i64, iz: i64) -> bool {
        if !self.in_bounds(ix, iy, iz) {
            return true;
        }
        self.cells[self.index(ix as usize, iy as usize, iz as usize)] != 0
    }

    /// Returns `true` when the cell is inside the grid and free.
    #[inline]
    pub fn is_free(&self, ix: i64, iy: i64, iz: i64) -> bool {
        !self.is_occupied(ix, iy, iz)
    }

    /// Sets the occupancy of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of bounds.
    #[inline]
    pub fn set_occupied(&mut self, ix: usize, iy: usize, iz: usize, occupied: bool) {
        assert!(
            ix < self.width && iy < self.height && iz < self.depth,
            "cell out of bounds"
        );
        let idx = self.index(ix, iy, iz);
        self.cells[idx] = occupied as u8;
    }

    /// Marks every cell in the inclusive box as occupied, clamping to grid
    /// bounds.
    pub fn fill_box(&mut self, x0: usize, y0: usize, z0: usize, x1: usize, y1: usize, z1: usize) {
        let x_end = x1.min(self.width.saturating_sub(1));
        let y_end = y1.min(self.height.saturating_sub(1));
        let z_end = z1.min(self.depth.saturating_sub(1));
        for iz in z0..=z_end {
            for iy in y0..=y_end {
                for ix in x0..=x_end {
                    let idx = self.index(ix, iy, iz);
                    self.cells[idx] = 1;
                }
            }
        }
    }

    /// Number of occupied cells.
    pub fn occupied_count(&self) -> usize {
        self.cells.iter().filter(|&&c| c != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_grid_is_free() {
        let map = GridMap2D::new(4, 3, 1.0);
        assert_eq!(map.occupied_count(), 0);
        assert!(map.is_free(0, 0));
        assert_eq!(map.occupancy_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn zero_resolution_panics() {
        let _ = GridMap2D::new(2, 2, 0.0);
    }

    #[test]
    fn set_and_get() {
        let mut map = GridMap2D::new(4, 4, 1.0);
        map.set_occupied(2, 3, true);
        assert!(map.is_occupied(2, 3));
        map.set_occupied(2, 3, false);
        assert!(map.is_free(2, 3));
    }

    #[test]
    fn out_of_bounds_reads_occupied() {
        let map = GridMap2D::new(2, 2, 1.0);
        assert!(map.is_occupied(-1, 0));
        assert!(map.is_occupied(0, 5));
        assert!(map.is_occupied_world(Point2::new(-0.5, 0.5)));
        assert!(map.is_occupied_world(Point2::new(10.0, 0.5)));
    }

    #[test]
    fn world_cell_roundtrip() {
        let map = GridMap2D::new(10, 10, 0.5);
        let center = map.cell_center(3, 7);
        assert_eq!(map.world_to_cell(center), Some((3, 7)));
        assert_eq!(map.world_to_cell(Point2::new(4.99, 0.0)), Some((9, 0)));
        assert_eq!(map.world_to_cell(Point2::new(5.01, 0.0)), None);
    }

    #[test]
    fn fill_rect_clamps() {
        let mut map = GridMap2D::new(4, 4, 1.0);
        map.fill_rect(2, 2, 10, 10);
        assert_eq!(map.occupied_count(), 4);
        assert!(map.is_occupied(3, 3));
        assert!(map.is_free(1, 1));
    }

    #[test]
    fn upscaled_preserves_structure() {
        let mut map = GridMap2D::new(2, 2, 1.0);
        map.set_occupied(1, 0, true);
        let up = map.upscaled(3);
        assert_eq!(up.width(), 6);
        assert_eq!(up.resolution(), 1.0 / 3.0);
        // Source cell (1,0) becomes the 3x3 block at (3..6, 0..3).
        assert_eq!(up.occupied_count(), 9);
        assert!(up.is_occupied(4, 1));
        assert!(up.is_free(2, 1));
        // World extents unchanged.
        assert!((up.world_width() - map.world_width()).abs() < 1e-12);
    }

    #[test]
    fn inflation_grows_discs() {
        let mut map = GridMap2D::new(16, 16, 1.0);
        map.set_occupied(8, 8, true);
        let fat = map.inflated(2.0);
        assert!(fat.is_occupied(8, 8));
        assert!(fat.is_occupied(10, 8));
        assert!(fat.is_occupied(8, 6));
        assert!(fat.is_occupied(9, 9)); // sqrt(2) < 2
        assert!(fat.is_free(11, 8)); // 3 > 2
        assert!(fat.is_free(10, 10)); // 2*sqrt(2) > 2
                                      // Original untouched.
        assert_eq!(map.occupied_count(), 1);
    }

    #[test]
    fn zero_inflation_is_identity() {
        let mut map = GridMap2D::new(8, 8, 0.5);
        map.fill_rect(2, 2, 4, 4);
        assert_eq!(map.inflated(0.0), map);
    }

    #[test]
    fn inflation_is_monotone() {
        let mut map = GridMap2D::new(32, 32, 1.0);
        map.set_occupied(5, 20, true);
        map.set_occupied(25, 10, true);
        let small = map.inflated(1.5);
        let large = map.inflated(3.0);
        assert!(large.occupied_count() > small.occupied_count());
        for y in 0..32 {
            for x in 0..32 {
                if small.is_occupied(x as i64, y as i64) {
                    assert!(large.is_occupied(x as i64, y as i64));
                }
            }
        }
    }

    #[test]
    fn grid3d_basics() {
        let mut map = GridMap3D::new(3, 4, 5, 2.0);
        assert!(map.is_free(2, 3, 4));
        map.set_occupied(2, 3, 4, true);
        assert!(map.is_occupied(2, 3, 4));
        assert!(map.is_occupied(3, 0, 0)); // out of bounds
        assert_eq!(map.occupied_count(), 1);
    }

    #[test]
    fn grid3d_fill_box() {
        let mut map = GridMap3D::new(4, 4, 4, 1.0);
        map.fill_box(1, 1, 1, 2, 2, 2);
        assert_eq!(map.occupied_count(), 8);
        assert!(map.is_occupied(2, 2, 2));
        assert!(map.is_free(0, 0, 0));
    }

    #[test]
    fn distinct_cells_have_distinct_indices() {
        // Guards against index-arithmetic regressions in the flat layout.
        let mut map = GridMap3D::new(3, 3, 3, 1.0);
        for z in 0..3usize {
            for y in 0..3usize {
                for x in 0..3usize {
                    map.set_occupied(x, y, z, true);
                }
            }
        }
        assert_eq!(map.occupied_count(), 27);
    }
}
