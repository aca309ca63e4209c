//! Fixed-width f64 lane kernels for the suite's SoA hot loops.
//!
//! The substrate PRs laid the hot data out for vectorization — BucketSoA
//! k-d leaves are packed `len × DIM` doubles, the blocked matmul works on
//! contiguous panels, PFL weights and GP kernel rows are flat slices —
//! and this crate supplies the inner loops that exploit it. Each kernel
//! is a safe `[f64; LANES]` accumulator-array loop that LLVM
//! autovectorizes; no target features are required.
//!
//! The crate is safe code throughout (its root forbids anything else):
//! there is no hand-written per-ISA backend, and the loops never use
//! fused multiply-add, so every target rounds them identically.
//!
//! # Equivalence contract
//!
//! The plain sequential loops survive only as test-side references
//! (`crates/bench/tests/simd.rs`, following the RobotPerf convention of a
//! vendor-agnostic scalar reference that accelerated kernels are checked
//! against). Element-wise maps ([`axpy`], [`axpy4`], [`div_assign`]) and
//! independent per-point computations ([`squared_distances`]) perform the
//! **same arithmetic in the same order for every element** as those
//! loops, so they are bit-identical to them. Horizontal reductions
//! ([`sum`], [`sum_sq`], [`dot`]) reassociate the addition chain across
//! `LANES` accumulators, so they may differ from a left-to-right fold in
//! final rounding; the suite bounds that distance in ULP and checks that
//! NaN and ∞ propagate identically.

#![forbid(unsafe_code)]

/// Lane width of the safe accumulator loops: four f64 values, one AVX2
/// (or two SSE2) vector registers.
pub const LANES: usize = 4;

// ---------------------------------------------------------------------
// Horizontal reductions (ULP-bounded against a left-to-right fold).
// ---------------------------------------------------------------------

/// Sum of a slice: `LANES` running partial sums, combined pairwise
/// (`(s0+s1) + (s2+s3)`), then the remainder folded left to right.
#[must_use]
pub fn sum(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for c in &mut chunks {
        for l in 0..LANES {
            acc[l] += c[l];
        }
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for &x in chunks.remainder() {
        total += x;
    }
    total
}

/// Sum of squares (the PFL effective-sample-size reduction), with the
/// same accumulation shape as [`sum`].
#[must_use]
pub fn sum_sq(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for c in &mut chunks {
        for l in 0..LANES {
            acc[l] += c[l] * c[l];
        }
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for &x in chunks.remainder() {
        total += x * x;
    }
    total
}

/// Dot product of two equally long slices, with the same accumulation
/// shape as [`sum`].
///
/// # Panics
///
/// Panics when the slices differ in length.
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot operands must match in length");
    let mut acc = [0.0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder().iter()) {
        total += x * y;
    }
    total
}

// ---------------------------------------------------------------------
// Element-wise maps (bit-identical to the sequential loop: the same
// arithmetic runs in the same order for each element).
// ---------------------------------------------------------------------

/// `y[i] += alpha * x[i]` — the matmul microkernel's row update.
///
/// Each element sees one multiply and one add, exactly as in the
/// sequential loop; the lanes only change how the loop is presented to
/// the optimizer.
///
/// # Panics
///
/// Panics when the slices differ in length.
pub fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "axpy operands must match in length");
    let mut cy = y.chunks_exact_mut(LANES);
    let mut cx = x.chunks_exact(LANES);
    for (ly, lx) in (&mut cy).zip(&mut cx) {
        for l in 0..LANES {
            ly[l] += alpha * lx[l];
        }
    }
    for (yy, &xx) in cy.into_remainder().iter_mut().zip(cx.remainder().iter()) {
        *yy += alpha * xx;
    }
}

/// Four stacked axpy updates sharing one destination row:
/// `y[i] += c[0]*x0[i]; y[i] += c[1]*x1[i]; y[i] += c[2]*x2[i];
/// y[i] += c[3]*x3[i]` — the blocked matmul's 4-k register microkernel.
///
/// The four adds run in that exact order for every element, matching the
/// register-blocked sequential loop bit for bit.
///
/// # Panics
///
/// Panics when any operand differs in length from `y`.
pub fn axpy4(y: &mut [f64], c: [f64; 4], x0: &[f64], x1: &[f64], x2: &[f64], x3: &[f64]) {
    let n = y.len();
    assert!(
        x0.len() == n && x1.len() == n && x2.len() == n && x3.len() == n,
        "axpy4 operands must match in length"
    );
    let mut j = 0;
    while j + LANES <= n {
        let mut acc = [0.0f64; LANES];
        acc.copy_from_slice(&y[j..j + LANES]);
        for l in 0..LANES {
            acc[l] += c[0] * x0[j + l];
        }
        for l in 0..LANES {
            acc[l] += c[1] * x1[j + l];
        }
        for l in 0..LANES {
            acc[l] += c[2] * x2[j + l];
        }
        for l in 0..LANES {
            acc[l] += c[3] * x3[j + l];
        }
        y[j..j + LANES].copy_from_slice(&acc);
        j += LANES;
    }
    while j < n {
        let mut acc = y[j];
        acc += c[0] * x0[j];
        acc += c[1] * x1[j];
        acc += c[2] * x2[j];
        acc += c[3] * x3[j];
        y[j] = acc;
        j += 1;
    }
}

/// `xs[i] /= d` — the PFL weight-normalization store loop (one IEEE
/// division per element, so the order is irrelevant to each result).
pub fn div_assign(xs: &mut [f64], d: f64) {
    let mut chunks = xs.chunks_exact_mut(LANES);
    for c in &mut chunks {
        for x in c.iter_mut() {
            *x /= d;
        }
    }
    for x in chunks.into_remainder().iter_mut() {
        *x /= d;
    }
}

// ---------------------------------------------------------------------
// Independent per-point distance scans (bit-identical to the sequential
// loop: each point's dimension chain accumulates in index order).
// ---------------------------------------------------------------------

/// Squared Euclidean distance from `query` to every point of a packed
/// point-major `len × DIM` slice (the BucketSoA leaf layout), written to
/// `out[..len]`.
///
/// Each point's distance accumulates over its dimensions in index order —
/// exactly the sequential `squared_distance` chain — so results are
/// bit-identical to it; the kernel merely computes `LANES` points per
/// iteration.
///
/// # Panics
///
/// Panics when `pts.len()` is not a multiple of `DIM`, `query` is not
/// `DIM` long, or `out` is shorter than the point count.
#[inline]
pub fn squared_distances<const DIM: usize>(pts: &[f64], query: &[f64], out: &mut [f64]) {
    squared_distances_dyn(pts, DIM, query, out);
}

/// Runtime-dimension twin of [`squared_distances`], for call sites whose
/// point dimension is a run-time value (the GP kernel rows). Identical
/// contract.
///
/// # Panics
///
/// Panics when `dim` is zero, `pts.len()` is not a multiple of `dim`,
/// `query` is not `dim` long, or `out` is shorter than the point count.
pub fn squared_distances_dyn(pts: &[f64], dim: usize, query: &[f64], out: &mut [f64]) {
    assert!(dim > 0, "point dimension must be positive");
    assert_eq!(pts.len() % dim, 0, "packed point slice must be len × dim");
    assert_eq!(query.len(), dim, "query dimension mismatch");
    let n = pts.len() / dim;
    assert!(out.len() >= n, "output buffer too short");
    let mut i = 0;
    while i + LANES <= n {
        let block = &pts[i * dim..(i + LANES) * dim];
        let mut acc = [0.0f64; LANES];
        for d in 0..dim {
            for l in 0..LANES {
                let diff = block[l * dim + d] - query[d];
                acc[l] += diff * diff;
            }
        }
        out[i..i + LANES].copy_from_slice(&acc);
        i += LANES;
    }
    while i < n {
        let p = &pts[i * dim..i * dim + dim];
        let mut acc = 0.0;
        for d in 0..dim {
            let diff = p[d] - query[d];
            acc += diff * diff;
        }
        out[i] = acc;
        i += 1;
    }
}
