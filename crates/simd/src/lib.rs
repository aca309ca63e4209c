//! Fixed-width f64 lane kernels for the suite's SoA hot loops.
//!
//! The substrate PRs laid the hot data out for vectorization — BucketSoA
//! k-d leaves are packed `len × DIM` doubles, the blocked matmul works on
//! contiguous panels, PFL weights and GP kernel rows are flat slices —
//! and this crate supplies the inner loops that exploit it. Every kernel
//! comes in two flavours selected by a [`SimdMode`] argument at the call
//! site:
//!
//! * **Scalar** — the exact sequential loop, kept as the portable
//!   equivalence oracle (the RobotPerf convention: the scalar path is the
//!   vendor-agnostic reference).
//! * **Lanes** — a safe `[f64; LANES]` accumulator-array loop that LLVM
//!   autovectorizes; no target features required. The default.
//!
//! The crate is safe code throughout (its root forbids anything else):
//! there is no hand-written per-ISA backend, and the lanes loops never
//! use fused multiply-add, so every target rounds them identically.
//!
//! # Equivalence contract
//!
//! Element-wise maps ([`axpy`], [`axpy4`], [`div_assign`]) and
//! independent per-point computations ([`squared_distances`]) perform the
//! **same arithmetic in the same order for every element** regardless of
//! mode, so they are bit-identical across all modes — tests assert this
//! byte for byte. Horizontal reductions ([`sum`], [`sum_sq`], [`dot`])
//! reassociate the addition chain across `LANES` accumulators, so Lanes
//! and Scalar may differ in final rounding; the divergence contract
//! (pinned by `crates/bench/tests/simd.rs`) is a bounded ULP distance
//! ([`ulp_diff`]) plus identical NaN/∞ propagation.

#![forbid(unsafe_code)]

use std::fmt;
use std::str::FromStr;

/// Lane width of the safe accumulator loops: four f64 values, one AVX2
/// (or two SSE2) vector registers.
pub const LANES: usize = 4;

/// Which inner-loop implementation a kernel call should use.
///
/// The default is the fast path; the scalar path stays reachable as the
/// vendor-agnostic reference (the benchmark times the two against each
/// other), and tests pin the relationship between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdMode {
    /// The exact sequential loop (the portable oracle).
    Scalar,
    /// Safe `[f64; LANES]` accumulator loops (LLVM autovectorized).
    #[default]
    Lanes,
}

impl SimdMode {
    /// All modes, for exhaustive equivalence sweeps in tests.
    pub const ALL: [SimdMode; 2] = [SimdMode::Scalar, SimdMode::Lanes];

    /// Returns `true` when this mode dispatches away from the scalar
    /// oracle (for reductions this is where rounding may diverge).
    #[must_use]
    pub fn is_vectorized(self) -> bool {
        self == SimdMode::Lanes
    }
}

/// Parses `scalar` or `lanes`. `auto` is accepted as a spelling of
/// `lanes`, the fastest (and only vector) backend.
impl FromStr for SimdMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(SimdMode::Scalar),
            "lanes" | "auto" => Ok(SimdMode::Lanes),
            other => Err(format!(
                "unknown simd mode {other:?} (expected scalar, lanes or auto)"
            )),
        }
    }
}

impl fmt::Display for SimdMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SimdMode::Scalar => "scalar",
            SimdMode::Lanes => "lanes",
        };
        f.write_str(name)
    }
}

/// Distance between two doubles in units in the last place, treating the
/// bit patterns as lexicographically ordered integers (the usual
/// monotone mapping). Equal NaNs compare at distance 0; a NaN against a
/// number is `u64::MAX`.
#[must_use]
pub fn ulp_diff(a: f64, b: f64) -> u64 {
    if a.is_nan() || b.is_nan() {
        return if a.is_nan() && b.is_nan() {
            0
        } else {
            u64::MAX
        };
    }
    // Map the sign-magnitude f64 bit pattern onto a monotone integer
    // line so subtraction counts representable values between a and b.
    fn key(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN.wrapping_add(1).wrapping_sub(bits).wrapping_sub(1)
        } else {
            bits
        }
    }
    key(a).abs_diff(key(b))
}

// ---------------------------------------------------------------------
// Horizontal reductions (divergence contract: ULP-bounded vs Scalar).
// ---------------------------------------------------------------------

/// Sum of a slice.
///
/// Scalar mode folds left to right (the legacy order); vector modes keep
/// `LANES` running partial sums, combine them pairwise
/// (`(s0+s1) + (s2+s3)`) and fold the remainder sequentially.
#[must_use]
pub fn sum(xs: &[f64], mode: SimdMode) -> f64 {
    match mode {
        SimdMode::Scalar => sum_scalar(xs),
        SimdMode::Lanes => sum_lanes(xs),
    }
}

fn sum_scalar(xs: &[f64]) -> f64 {
    let mut total = 0.0;
    for &x in xs {
        total += x;
    }
    total
}

fn sum_lanes(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for c in &mut chunks {
        for l in 0..LANES {
            acc[l] += c[l];
        }
    }
    combine_tail(acc, chunks.remainder())
}

/// Folds the lane accumulators pairwise, then the remainder left to
/// right.
fn combine_tail(acc: [f64; LANES], rest: &[f64]) -> f64 {
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for &x in rest {
        total += x;
    }
    total
}

/// Sum of squares (the PFL effective-sample-size reduction).
#[must_use]
pub fn sum_sq(xs: &[f64], mode: SimdMode) -> f64 {
    match mode {
        SimdMode::Scalar => sum_sq_scalar(xs),
        SimdMode::Lanes => sum_sq_lanes(xs),
    }
}

fn sum_sq_scalar(xs: &[f64]) -> f64 {
    let mut total = 0.0;
    for &x in xs {
        total += x * x;
    }
    total
}

fn sum_sq_lanes(xs: &[f64]) -> f64 {
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

/// Dot product of two equally long slices (the matvec microkernel).
///
/// # Panics
///
/// Panics when the slices differ in length.
#[must_use]
pub fn dot(a: &[f64], b: &[f64], mode: SimdMode) -> f64 {
    assert_eq!(a.len(), b.len(), "dot operands must match in length");
    match mode {
        SimdMode::Scalar => dot_scalar(a, b),
        SimdMode::Lanes => dot_lanes(a, b),
    }
}

fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    let mut total = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        total += x * y;
    }
    total
}

fn dot_lanes(a: &[f64], b: &[f64]) -> f64 {
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
// Element-wise maps (bit-identical across every mode: the same
// arithmetic runs in the same order for each element).
// ---------------------------------------------------------------------

/// `y[i] += alpha * x[i]` — the matmul microkernel's row update.
///
/// Bit-identical across all modes (each element sees one multiply and
/// one add in the same order); the mode only changes how the loop is
/// presented to the optimizer.
///
/// # Panics
///
/// Panics when the slices differ in length.
pub fn axpy(y: &mut [f64], alpha: f64, x: &[f64], mode: SimdMode) {
    assert_eq!(y.len(), x.len(), "axpy operands must match in length");
    match mode {
        SimdMode::Scalar => {
            for (yy, &xx) in y.iter_mut().zip(x.iter()) {
                *yy += alpha * xx;
            }
        }
        SimdMode::Lanes => {
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
    }
}

/// Four stacked axpy updates sharing one destination row:
/// `y[i] += c[0]*x0[i]; y[i] += c[1]*x1[i]; y[i] += c[2]*x2[i];
/// y[i] += c[3]*x3[i]` — the blocked matmul's 4-k register microkernel.
///
/// The four adds run in that exact order for every element, matching the
/// legacy register-blocked loop, so the result is bit-identical across
/// all modes.
///
/// # Panics
///
/// Panics when any operand differs in length from `y`.
pub fn axpy4(
    y: &mut [f64],
    c: [f64; 4],
    x0: &[f64],
    x1: &[f64],
    x2: &[f64],
    x3: &[f64],
    mode: SimdMode,
) {
    let n = y.len();
    assert!(
        x0.len() == n && x1.len() == n && x2.len() == n && x3.len() == n,
        "axpy4 operands must match in length"
    );
    match mode {
        SimdMode::Scalar => {
            for j in 0..n {
                let mut acc = y[j];
                acc += c[0] * x0[j];
                acc += c[1] * x1[j];
                acc += c[2] * x2[j];
                acc += c[3] * x3[j];
                y[j] = acc;
            }
        }
        SimdMode::Lanes => {
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
    }
}

/// `xs[i] /= d` — the PFL weight-normalization store loop.
///
/// Bit-identical across all modes (one IEEE division per element, order
/// irrelevant to the per-element result).
pub fn div_assign(xs: &mut [f64], d: f64, mode: SimdMode) {
    match mode {
        SimdMode::Scalar => {
            for x in xs.iter_mut() {
                *x /= d;
            }
        }
        SimdMode::Lanes => {
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
    }
}

// ---------------------------------------------------------------------
// Independent per-point distance scans (bit-identical across modes: each
// point's dimension chain accumulates in the legacy order).
// ---------------------------------------------------------------------

/// Squared Euclidean distance from `query` to every point of a packed
/// point-major `len × DIM` slice (the BucketSoA leaf layout), written to
/// `out[..len]`.
///
/// Each point's distance accumulates over its dimensions in index order —
/// exactly the legacy `squared_distance` chain — so results are
/// bit-identical across all modes; the vector modes merely compute
/// `LANES` points per iteration.
///
/// # Panics
///
/// Panics when `pts.len()` is not a multiple of `DIM`, `query` is not
/// `DIM` long, or `out` is shorter than the point count.
#[inline]
pub fn squared_distances<const DIM: usize>(
    pts: &[f64],
    query: &[f64],
    out: &mut [f64],
    mode: SimdMode,
) {
    squared_distances_dyn(pts, DIM, query, out, mode);
}

/// Runtime-dimension twin of [`squared_distances`], for call sites whose
/// point dimension is a run-time value (the GP kernel rows). Identical
/// contract: bit-identical across modes.
///
/// # Panics
///
/// Panics when `dim` is zero, `pts.len()` is not a multiple of `dim`,
/// `query` is not `dim` long, or `out` is shorter than the point count.
pub fn squared_distances_dyn(
    pts: &[f64],
    dim: usize,
    query: &[f64],
    out: &mut [f64],
    mode: SimdMode,
) {
    assert!(dim > 0, "point dimension must be positive");
    assert_eq!(pts.len() % dim, 0, "packed point slice must be len × dim");
    assert_eq!(query.len(), dim, "query dimension mismatch");
    let n = pts.len() / dim;
    assert!(out.len() >= n, "output buffer too short");
    #[allow(non_snake_case)]
    let DIM = dim;
    match mode {
        SimdMode::Scalar => {
            for (i, p) in pts.chunks_exact(DIM).enumerate() {
                let mut acc = 0.0;
                for d in 0..DIM {
                    let diff = p[d] - query[d];
                    acc += diff * diff;
                }
                out[i] = acc;
            }
        }
        SimdMode::Lanes => {
            let mut i = 0;
            while i + LANES <= n {
                let block = &pts[i * DIM..(i + LANES) * DIM];
                let mut acc = [0.0f64; LANES];
                for d in 0..DIM {
                    for l in 0..LANES {
                        let diff = block[l * DIM + d] - query[d];
                        acc[l] += diff * diff;
                    }
                }
                out[i..i + LANES].copy_from_slice(&acc);
                i += LANES;
            }
            while i < n {
                let p = &pts[i * DIM..i * DIM + DIM];
                let mut acc = 0.0;
                for d in 0..DIM {
                    let diff = p[d] - query[d];
                    acc += diff * diff;
                }
                out[i] = acc;
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_and_displays() {
        for mode in SimdMode::ALL {
            assert_eq!(mode.to_string().parse::<SimdMode>().unwrap(), mode);
        }
        assert!("avx512".parse::<SimdMode>().is_err());
        assert_eq!("auto".parse::<SimdMode>().unwrap(), SimdMode::Lanes);
        assert_eq!(SimdMode::default(), SimdMode::Lanes);
    }

    #[test]
    fn ulp_diff_basics() {
        assert_eq!(ulp_diff(1.0, 1.0), 0);
        assert_eq!(ulp_diff(1.0, f64::from_bits(1.0f64.to_bits() + 1)), 1);
        assert_eq!(ulp_diff(-0.0, 0.0), 0);
        assert_eq!(ulp_diff(f64::NAN, f64::NAN), 0);
        assert_eq!(ulp_diff(f64::NAN, 1.0), u64::MAX);
        assert!(ulp_diff(-1.0, 1.0) > 1 << 60);
    }

    #[test]
    fn reductions_match_scalar_closely() {
        // Nonnegative inputs (the PFL-weights shape): no cancellation, so
        // the reassociation divergence stays within a few ULP.
        let xs: Vec<f64> = (0..103)
            .map(|i| 0.5 + (i as f64 * 0.37).sin().abs())
            .collect();
        let ys: Vec<f64> = (0..103)
            .map(|i| 0.25 + (i as f64 * 0.11).cos().abs())
            .collect();
        for mode in SimdMode::ALL {
            assert!(ulp_diff(sum(&xs, mode), sum(&xs, SimdMode::Scalar)) <= 128);
            assert!(ulp_diff(sum_sq(&xs, mode), sum_sq(&xs, SimdMode::Scalar)) <= 128);
            assert!(ulp_diff(dot(&xs, &ys, mode), dot(&xs, &ys, SimdMode::Scalar)) <= 128);
        }
    }

    #[test]
    fn empty_and_singleton_reductions() {
        for mode in SimdMode::ALL {
            assert_eq!(sum(&[], mode).to_bits(), 0.0f64.to_bits());
            assert_eq!(sum(&[2.5], mode).to_bits(), 2.5f64.to_bits());
            assert_eq!(sum_sq(&[3.0], mode).to_bits(), 9.0f64.to_bits());
            assert_eq!(dot(&[2.0], &[4.0], mode).to_bits(), 8.0f64.to_bits());
        }
    }

    #[test]
    fn elementwise_maps_are_bit_identical_across_modes() {
        let x: Vec<f64> = (0..37).map(|i| (i as f64 * 0.7).tan()).collect();
        {
            let mode = SimdMode::Lanes;
            let mut y0: Vec<f64> = (0..37).map(|i| i as f64 * 0.01 - 0.2).collect();
            let mut y1 = y0.clone();
            axpy(&mut y0, 1.7, &x, SimdMode::Scalar);
            axpy(&mut y1, 1.7, &x, mode);
            assert!(y0.iter().zip(&y1).all(|(a, b)| a.to_bits() == b.to_bits()));

            let mut w0 = x.clone();
            let mut w1 = x.clone();
            div_assign(&mut w0, 0.3, SimdMode::Scalar);
            div_assign(&mut w1, 0.3, mode);
            assert!(w0.iter().zip(&w1).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn axpy4_matches_stacked_axpy_bitwise() {
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|r| {
                (0..29)
                    .map(|i| ((r * 31 + i) as f64 * 0.13).sin())
                    .collect()
            })
            .collect();
        let c = [0.5, -1.25, 2.0, 0.75];
        let mut want: Vec<f64> = (0..29).map(|i| i as f64 * 0.02).collect();
        for j in 0..want.len() {
            let mut acc = want[j];
            for r in 0..4 {
                acc += c[r] * rows[r][j];
            }
            want[j] = acc;
        }
        for mode in SimdMode::ALL {
            let mut y: Vec<f64> = (0..29).map(|i| i as f64 * 0.02).collect();
            axpy4(&mut y, c, &rows[0], &rows[1], &rows[2], &rows[3], mode);
            assert!(want.iter().zip(&y).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn squared_distances_bit_identical_across_modes() {
        const DIM: usize = 3;
        let pts: Vec<f64> = (0..23 * DIM).map(|i| (i as f64 * 0.19).cos()).collect();
        let query = [0.3, -0.7, 1.1];
        let mut base = vec![0.0; 23];
        squared_distances::<DIM>(&pts, &query, &mut base, SimdMode::Scalar);
        {
            let mut got = vec![0.0; 23];
            squared_distances::<DIM>(&pts, &query, &mut got, SimdMode::Lanes);
            assert!(base
                .iter()
                .zip(&got)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn nan_propagates_through_reductions() {
        let mut xs: Vec<f64> = (0..11).map(|i| i as f64).collect();
        xs[7] = f64::NAN;
        for mode in SimdMode::ALL {
            assert!(sum(&xs, mode).is_nan());
            assert!(sum_sq(&xs, mode).is_nan());
        }
    }
}
