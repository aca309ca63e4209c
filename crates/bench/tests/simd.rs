//! Equivalence suite for the `rtr-simd` lane kernels.
//!
//! The lane kernels are the suite's only production inner loops; the
//! plain sequential loops they replaced live on here as the scalar
//! references they are checked against (the RobotPerf convention: the
//! scalar path is the vendor-agnostic reference for accelerated kernels).
//! The suite pins the crate's divergence contract:
//!
//! - **Bit-identity** for element-wise maps (`axpy`, `axpy4`,
//!   `div_assign`) and independent per-point scans (`squared_distances`,
//!   `squared_distances_dyn`): the lane kernel reproduces the reference
//!   byte for byte, at every length (remainders, empty, singleton
//!   included).
//! - **ULP-bounded divergence** for horizontal reductions (`sum`,
//!   `sum_sq`, `dot`), which reassociate the addition chain across four
//!   lane accumulators. On non-cancelling (nonnegative) data the
//!   reassociation error stays within a tight ULP budget; lengths below
//!   the lane width fold sequentially and stay bitwise.
//! - **Special values propagate identically**: a NaN anywhere poisons
//!   every reduction and only its own distance; all-infinite input
//!   overflows to +∞.

use proptest::prelude::*;
use rtr_simd::LANES;

/// ULP budget for a 4-accumulator reassociation on nonnegative data.
const REDUCTION_ULP: u64 = 256;

/// Distance between two doubles in units in the last place, treating the
/// bit patterns as lexicographically ordered integers (the usual
/// monotone mapping). Equal NaNs compare at distance 0; a NaN against a
/// number is `u64::MAX`.
fn ulp_diff(a: f64, b: f64) -> u64 {
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

/// The scalar references: left-to-right folds and per-element loops.
mod scalar {
    pub fn sum(xs: &[f64]) -> f64 {
        let mut total = 0.0;
        for &x in xs {
            total += x;
        }
        total
    }

    pub fn sum_sq(xs: &[f64]) -> f64 {
        let mut total = 0.0;
        for &x in xs {
            total += x * x;
        }
        total
    }

    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        let mut total = 0.0;
        for (&x, &y) in a.iter().zip(b) {
            total += x * y;
        }
        total
    }

    pub fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
        for (yy, &xx) in y.iter_mut().zip(x) {
            *yy += alpha * xx;
        }
    }

    pub fn axpy4(y: &mut [f64], c: [f64; 4], rows: [&[f64]; 4]) {
        for (j, yy) in y.iter_mut().enumerate() {
            let mut acc = *yy;
            for (ck, row) in c.iter().zip(rows) {
                acc += ck * row[j];
            }
            *yy = acc;
        }
    }

    pub fn div_assign(xs: &mut [f64], d: f64) {
        for x in xs.iter_mut() {
            *x /= d;
        }
    }

    pub fn squared_distances(pts: &[f64], dim: usize, query: &[f64], out: &mut [f64]) {
        for (i, p) in pts.chunks_exact(dim).enumerate() {
            let mut acc = 0.0;
            for d in 0..dim {
                let diff = p[d] - query[d];
                acc += diff * diff;
            }
            out[i] = acc;
        }
    }
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn finite() -> impl Strategy<Value = f64> {
    -1.0e6f64..1.0e6f64
}

fn nonneg() -> impl Strategy<Value = f64> {
    0.0f64..1.0e6f64
}

proptest! {
    #[test]
    fn axpy_matches_scalar_reference_bitwise(
        ys in prop::collection::vec(finite(), 0..40),
        xs_seed in finite(),
        alpha in finite(),
    ) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| xs_seed + i as f64 * 0.37).collect();
        let mut want = ys.clone();
        scalar::axpy(&mut want, alpha, &xs);
        let mut got = ys.clone();
        rtr_simd::axpy(&mut got, alpha, &xs);
        prop_assert!(bitwise_eq(&want, &got), "axpy diverged");
    }

    #[test]
    fn axpy4_matches_scalar_reference_bitwise(
        ys in prop::collection::vec(finite(), 0..40),
        c in prop::array::uniform4(finite()),
    ) {
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|r| (0..ys.len()).map(|i| ((r * 31 + i) as f64 * 0.21).sin()).collect())
            .collect();
        let mut want = ys.clone();
        scalar::axpy4(&mut want, c, [&rows[0], &rows[1], &rows[2], &rows[3]]);
        let mut got = ys.clone();
        rtr_simd::axpy4(&mut got, c, &rows[0], &rows[1], &rows[2], &rows[3]);
        prop_assert!(bitwise_eq(&want, &got), "axpy4 diverged");
    }

    #[test]
    fn div_assign_matches_scalar_reference_bitwise(
        xs in prop::collection::vec(finite(), 0..40),
        d in 1.0e-3f64..1.0e6,
    ) {
        let mut want = xs.clone();
        scalar::div_assign(&mut want, d);
        let mut got = xs.clone();
        rtr_simd::div_assign(&mut got, d);
        prop_assert!(bitwise_eq(&want, &got), "div_assign diverged");
    }

    #[test]
    fn squared_distances_match_scalar_reference_bitwise(
        n in 0usize..23,
        q in prop::array::uniform3(finite()),
    ) {
        let pts: Vec<f64> = (0..n * 3).map(|i| (i as f64 * 0.13).cos() * 50.0).collect();
        let mut want = vec![0.0; n];
        scalar::squared_distances(&pts, 3, &q, &mut want);
        let mut got = vec![0.0; n];
        rtr_simd::squared_distances::<3>(&pts, &q, &mut got);
        prop_assert!(bitwise_eq(&want, &got), "squared_distances diverged");
        // The runtime-dimension twin is the same kernel.
        let mut dyn_got = vec![0.0; n];
        rtr_simd::squared_distances_dyn(&pts, 3, &q, &mut dyn_got);
        prop_assert!(bitwise_eq(&want, &dyn_got), "squared_distances_dyn diverged");
    }

    #[test]
    fn reductions_ulp_bounded_on_nonnegative_data(
        // Up to 511 elements: PFL reduces 300 (scenario) to 500 (`rtr`)
        // weights per update.
        xs in prop::collection::vec(nonneg(), 0..512),
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| x * 0.5 + 1.0).collect();
        prop_assert!(ulp_diff(scalar::sum(&xs), rtr_simd::sum(&xs)) <= REDUCTION_ULP);
        prop_assert!(ulp_diff(scalar::sum_sq(&xs), rtr_simd::sum_sq(&xs)) <= REDUCTION_ULP);
        prop_assert!(ulp_diff(scalar::dot(&xs, &ys), rtr_simd::dot(&xs, &ys)) <= REDUCTION_ULP);
    }
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
fn reductions_below_lane_width_are_bitwise() {
    // Fewer than LANES elements never enter the blocked loop: the tail
    // fold reproduces the scalar chain exactly, signs and all.
    for n in 0..LANES {
        let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 1.7).sin() * 1e3).collect();
        let ys: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).cos() * 1e-3).collect();
        assert_eq!(
            scalar::sum(&xs).to_bits(),
            rtr_simd::sum(&xs).to_bits(),
            "sum n={n}"
        );
        assert_eq!(
            scalar::sum_sq(&xs).to_bits(),
            rtr_simd::sum_sq(&xs).to_bits(),
            "sum_sq n={n}"
        );
        assert_eq!(
            scalar::dot(&xs, &ys).to_bits(),
            rtr_simd::dot(&xs, &ys).to_bits(),
            "dot n={n}"
        );
    }
    assert_eq!(rtr_simd::sum(&[]).to_bits(), 0.0f64.to_bits());
    assert_eq!(rtr_simd::sum_sq(&[]).to_bits(), 0.0f64.to_bits());
    assert_eq!(rtr_simd::sum(&[2.5]).to_bits(), 2.5f64.to_bits());
    assert_eq!(rtr_simd::sum_sq(&[3.0]).to_bits(), 9.0f64.to_bits());
    assert_eq!(rtr_simd::dot(&[2.0], &[4.0]).to_bits(), 8.0f64.to_bits());
}

#[test]
fn reductions_match_scalar_closely_at_pfl_weight_counts() {
    // Nonnegative inputs (the PFL-weights shape) at the particle counts
    // the suite runs: no cancellation, so the reassociation divergence
    // stays within a few ULP.
    for n in [103, 300, 500] {
        let xs: Vec<f64> = (0..n)
            .map(|i| 0.5 + (i as f64 * 0.37).sin().abs())
            .collect();
        let ys: Vec<f64> = (0..n)
            .map(|i| 0.25 + (i as f64 * 0.11).cos().abs())
            .collect();
        assert!(
            ulp_diff(scalar::sum(&xs), rtr_simd::sum(&xs)) <= 128,
            "sum n={n}"
        );
        assert!(
            ulp_diff(scalar::sum_sq(&xs), rtr_simd::sum_sq(&xs)) <= 128,
            "sum_sq n={n}"
        );
        assert!(
            ulp_diff(scalar::dot(&xs, &ys), rtr_simd::dot(&xs, &ys)) <= 128,
            "dot n={n}"
        );
    }
}

#[test]
fn special_values_propagate_identically() {
    for n in [1, 3, 4, 5, 8, 11] {
        for poison in 0..n {
            let mut xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            xs[poison] = f64::NAN;
            assert!(rtr_simd::sum(&xs).is_nan(), "sum NaN n={n} at {poison}");
            assert!(rtr_simd::sum_sq(&xs).is_nan(), "sum_sq NaN n={n}");
            let ys = vec![1.0; n];
            assert!(rtr_simd::dot(&xs, &ys).is_nan(), "dot NaN n={n}");
            let mut d2 = vec![0.0; n];
            rtr_simd::squared_distances_dyn(&xs, 1, &[0.0], &mut d2);
            assert!(d2[poison].is_nan(), "squared_distances NaN n={n}");
            assert!(d2
                .iter()
                .enumerate()
                .all(|(i, v)| i == poison || v.is_finite()));
        }
        let inf = vec![f64::INFINITY; n];
        assert_eq!(rtr_simd::sum(&inf), f64::INFINITY, "inf sum n={n}");
        assert_eq!(scalar::sum(&inf), f64::INFINITY, "inf reference n={n}");
    }
}
