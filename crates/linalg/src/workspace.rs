//! Reusable scratch-buffer pool for allocation-free kernel hot loops.

use crate::{Matrix, Vector};

/// A pool of recycled `f64` buffers that hands out zeroed [`Matrix`] and
/// [`Vector`] scratch values without touching the heap once warmed up.
///
/// The matrix-heavy kernels (EKF-SLAM covariance updates, GP posterior
/// queries, MPC line searches) run the same sequence of temporary shapes
/// every iteration. Allocating each temporary fresh makes the allocator —
/// not the arithmetic — a first-order cost at small dimensions. A
/// `Workspace` breaks that cycle: callers *take* a buffer with
/// [`Workspace::matrix`] / [`Workspace::vector`] and *return* it with
/// [`Workspace::recycle_matrix`] / [`Workspace::recycle_vector`] when done.
/// Once the pool holds a buffer of sufficient capacity for every shape a
/// loop requests, the loop performs zero heap allocations — a property the
/// suite regression-tests through the [`Workspace::allocations`] counter.
///
/// Buffers are matched best-fit by capacity: a request takes the smallest
/// free buffer that can hold it (resized and zero-filled in place, which
/// never reallocates when capacity suffices) and only falls back to a fresh
/// heap allocation when no free buffer is large enough.
///
/// # Example
///
/// ```
/// use rtr_linalg::Workspace;
///
/// let mut ws = Workspace::new();
/// for _ in 0..10 {
///     let m = ws.matrix(4, 4);
///     assert!(m.as_slice().iter().all(|&x| x == 0.0));
///     ws.recycle_matrix(m);
/// }
/// // One shape requested, one buffer ever allocated.
/// assert_eq!(ws.allocations(), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Workspace {
    /// Recycled storage, available for reuse.
    free: Vec<Vec<f64>>,
    /// Fresh heap allocations performed (cache misses).
    allocations: usize,
    /// Total buffers handed out (cache hits + misses).
    handouts: usize,
}

impl Workspace {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Hands out a zeroed `rows × cols` matrix, reusing pooled storage
    /// when a free buffer of sufficient capacity exists.
    pub fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        let data = self.take(rows * cols);
        Matrix::from_vec(rows, cols, data).expect("workspace buffer has exact element count")
    }

    /// Hands out a zeroed vector of length `len`, reusing pooled storage
    /// when a free buffer of sufficient capacity exists.
    pub fn vector(&mut self, len: usize) -> Vector {
        Vector::from(self.take(len))
    }

    /// Returns a matrix's storage to the pool for reuse.
    pub fn recycle_matrix(&mut self, m: Matrix) {
        self.free.push(m.into_vec());
    }

    /// Returns a vector's storage to the pool for reuse.
    pub fn recycle_vector(&mut self, v: Vector) {
        self.free.push(v.into_inner());
    }

    /// Number of fresh heap allocations the pool has performed.
    ///
    /// A hot loop that takes and recycles the same shapes every iteration
    /// sees this counter plateau after the first pass — the invariant the
    /// allocation-regression tests assert.
    pub fn allocations(&self) -> usize {
        self.allocations
    }

    /// Total number of buffers handed out (reused or freshly allocated).
    pub fn handouts(&self) -> usize {
        self.handouts
    }

    /// Takes a zero-filled buffer of exactly `n` elements, best-fit from
    /// the free list or freshly allocated.
    fn take(&mut self, n: usize) -> Vec<f64> {
        self.handouts += 1;
        let mut best: Option<usize> = None;
        for (idx, buf) in self.free.iter().enumerate() {
            if buf.capacity() >= n {
                match best {
                    Some(b) if self.free[b].capacity() <= buf.capacity() => {}
                    _ => best = Some(idx),
                }
            }
        }
        match best {
            Some(idx) => {
                let mut buf = self.free.swap_remove(idx);
                buf.clear();
                buf.resize(n, 0.0);
                buf
            }
            None => {
                self.allocations += 1;
                vec![0.0; n]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_zeroed_on_reuse() {
        let mut ws = Workspace::new();
        let mut m = ws.matrix(3, 3);
        m[(1, 1)] = 42.0;
        ws.recycle_matrix(m);
        let again = ws.matrix(3, 3);
        assert!(again.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(ws.allocations(), 1);
        assert_eq!(ws.handouts(), 2);
    }

    #[test]
    fn allocations_plateau_across_iterations() {
        let mut ws = Workspace::new();
        for _ in 0..50 {
            let a = ws.matrix(5, 7);
            let b = ws.vector(12);
            let c = ws.matrix(2, 2);
            ws.recycle_matrix(a);
            ws.recycle_vector(b);
            ws.recycle_matrix(c);
        }
        assert_eq!(ws.allocations(), 3);
        assert_eq!(ws.handouts(), 150);
    }

    #[test]
    fn best_fit_leaves_large_buffers_for_large_requests() {
        let mut ws = Workspace::new();
        let big = ws.matrix(10, 10);
        let small = ws.matrix(2, 2);
        ws.recycle_matrix(big);
        ws.recycle_matrix(small);
        // The 2×2 request must take the small buffer, not steal the 10×10.
        let s = ws.matrix(2, 2);
        let b = ws.matrix(10, 10);
        assert_eq!(ws.allocations(), 2);
        ws.recycle_matrix(s);
        ws.recycle_matrix(b);
        assert_eq!(ws.free.len(), 2);
    }

    #[test]
    fn vector_reuse_shrinks_and_grows_within_capacity() {
        let mut ws = Workspace::new();
        let v = ws.vector(16);
        ws.recycle_vector(v);
        let shorter = ws.vector(4);
        assert_eq!(shorter.len(), 4);
        ws.recycle_vector(shorter);
        let back = ws.vector(16);
        assert_eq!(back.len(), 16);
        assert_eq!(ws.allocations(), 1);
    }
}
