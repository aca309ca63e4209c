//! Equivalence suite for the `rtr-simd` lane kernels.
//!
//! The SIMD modes are pure performance switches, and this suite pins the
//! crate's divergence contract across all of [`SimdMode::ALL`]:
//!
//! - **Bit-identity** for element-wise maps (`axpy`, `axpy4`,
//!   `div_assign`) and independent per-point scans (`squared_distances`,
//!   `squared_distances_dyn`): every mode reproduces Scalar byte for
//!   byte, at every length (remainders, empty, singleton included).
//! - **ULP-bounded divergence** for horizontal reductions (`sum`,
//!   `sum_sq`, `dot`), which reassociate the addition chain across four
//!   lane accumulators. On non-cancelling (nonnegative) data the
//!   reassociation error stays within a tight ULP budget; lengths below
//!   the lane width fold sequentially and stay bitwise.
//! - **Special values propagate identically**: a NaN anywhere poisons
//!   every mode; all-infinite input overflows every mode the same way.
//! - **Consumer contracts**: the k-d tree answers queries identically in
//!   every mode, `Matrix::mul_vector_simd_into` reproduces the legacy
//!   `mul_vector_into` bitwise in Scalar mode, and
//!   `GaussianProcess::predict_with` matches `predict` bitwise in every
//!   mode (its per-row distance scan preserves dimension order).

use proptest::prelude::*;
use rtr_control::GaussianProcess;
use rtr_geom::KdTree;
use rtr_linalg::{Matrix, Vector, Workspace};
use rtr_simd::{ulp_diff, SimdMode, LANES};

/// ULP budget for a 4-accumulator reassociation on nonnegative data.
const REDUCTION_ULP: u64 = 256;

fn finite() -> impl Strategy<Value = f64> {
    -1.0e6f64..1.0e6f64
}

fn nonneg() -> impl Strategy<Value = f64> {
    0.0f64..1.0e6f64
}

proptest! {
    #[test]
    fn axpy_bit_identical_across_modes(
        ys in prop::collection::vec(finite(), 0..40),
        xs_seed in finite(),
        alpha in finite(),
    ) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| xs_seed + i as f64 * 0.37).collect();
        let mut base = ys.clone();
        rtr_simd::axpy(&mut base, alpha, &xs, SimdMode::Scalar);
        let mode = SimdMode::Lanes;
        let mut got = ys.clone();
        rtr_simd::axpy(&mut got, alpha, &xs, mode);
        prop_assert!(base.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits()),
            "axpy diverged in {mode}");
    }

    #[test]
    fn axpy4_bit_identical_across_modes(
        ys in prop::collection::vec(finite(), 0..40),
        c in prop::array::uniform4(finite()),
    ) {
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|r| (0..ys.len()).map(|i| ((r * 31 + i) as f64 * 0.21).sin()).collect())
            .collect();
        let mut base = ys.clone();
        rtr_simd::axpy4(&mut base, c, &rows[0], &rows[1], &rows[2], &rows[3], SimdMode::Scalar);
        let mode = SimdMode::Lanes;
        let mut got = ys.clone();
        rtr_simd::axpy4(&mut got, c, &rows[0], &rows[1], &rows[2], &rows[3], mode);
        prop_assert!(base.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits()),
            "axpy4 diverged in {mode}");
    }

    #[test]
    fn div_assign_bit_identical_across_modes(
        xs in prop::collection::vec(finite(), 0..40),
        d in 1.0e-3f64..1.0e6,
    ) {
        let mut base = xs.clone();
        rtr_simd::div_assign(&mut base, d, SimdMode::Scalar);
        let mode = SimdMode::Lanes;
        let mut got = xs.clone();
        rtr_simd::div_assign(&mut got, d, mode);
        prop_assert!(base.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits()),
            "div_assign diverged in {mode}");
    }

    #[test]
    fn squared_distances_bit_identical_across_modes(
        n in 0usize..23,
        q in prop::array::uniform3(finite()),
    ) {
        let pts: Vec<f64> = (0..n * 3).map(|i| (i as f64 * 0.13).cos() * 50.0).collect();
        let mut base = vec![0.0; n];
        rtr_simd::squared_distances::<3>(&pts, &q, &mut base, SimdMode::Scalar);
        let mode = SimdMode::Lanes;
        let mut got = vec![0.0; n];
        rtr_simd::squared_distances::<3>(&pts, &q, &mut got, mode);
        prop_assert!(base.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits()),
            "squared_distances diverged in {mode}");
        // The runtime-dimension twin is the same kernel.
        let mut dyn_got = vec![0.0; n];
        rtr_simd::squared_distances_dyn(&pts, 3, &q, &mut dyn_got, mode);
        prop_assert!(base.iter().zip(&dyn_got).all(|(a, b)| a.to_bits() == b.to_bits()),
            "squared_distances_dyn diverged in {mode}");
    }

    #[test]
    fn reductions_ulp_bounded_on_nonnegative_data(
        xs in prop::collection::vec(nonneg(), 0..40),
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| x * 0.5 + 1.0).collect();
        for mode in SimdMode::ALL {
            prop_assert!(
                ulp_diff(rtr_simd::sum(&xs, SimdMode::Scalar), rtr_simd::sum(&xs, mode))
                    <= REDUCTION_ULP
            );
            prop_assert!(
                ulp_diff(rtr_simd::sum_sq(&xs, SimdMode::Scalar), rtr_simd::sum_sq(&xs, mode))
                    <= REDUCTION_ULP
            );
            prop_assert!(
                ulp_diff(rtr_simd::dot(&xs, &ys, SimdMode::Scalar), rtr_simd::dot(&xs, &ys, mode))
                    <= REDUCTION_ULP
            );
        }
    }
}

#[test]
fn reductions_below_lane_width_are_bitwise() {
    // Fewer than LANES elements never enter the blocked loop: the tail
    // fold reproduces the scalar chain exactly, signs and all.
    for n in 0..LANES {
        let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 1.7).sin() * 1e3).collect();
        let ys: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).cos() * 1e-3).collect();
        for mode in SimdMode::ALL {
            assert_eq!(
                rtr_simd::sum(&xs, SimdMode::Scalar).to_bits(),
                rtr_simd::sum(&xs, mode).to_bits(),
                "sum n={n} {mode}"
            );
            assert_eq!(
                rtr_simd::dot(&xs, &ys, SimdMode::Scalar).to_bits(),
                rtr_simd::dot(&xs, &ys, mode).to_bits(),
                "dot n={n} {mode}"
            );
        }
    }
    for mode in SimdMode::ALL {
        assert_eq!(rtr_simd::sum(&[], mode).to_bits(), 0.0f64.to_bits());
        assert_eq!(rtr_simd::sum_sq(&[], mode).to_bits(), 0.0f64.to_bits());
    }
}

#[test]
fn special_values_propagate_identically() {
    for n in [1, 3, 4, 5, 8, 11] {
        for poison in 0..n {
            let mut xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            xs[poison] = f64::NAN;
            for mode in SimdMode::ALL {
                assert!(
                    rtr_simd::sum(&xs, mode).is_nan(),
                    "sum NaN n={n} at {poison} {mode}"
                );
                assert!(rtr_simd::sum_sq(&xs, mode).is_nan(), "sum_sq NaN {mode}");
                let ys = vec![1.0; n];
                assert!(rtr_simd::dot(&xs, &ys, mode).is_nan(), "dot NaN {mode}");
                let mut d2 = vec![0.0; n];
                rtr_simd::squared_distances_dyn(&xs, 1, &[0.0], &mut d2, mode);
                assert!(d2[poison].is_nan(), "squared_distances NaN {mode}");
                assert!(d2
                    .iter()
                    .enumerate()
                    .all(|(i, v)| i == poison || v.is_finite()));
            }
        }
        let inf = vec![f64::INFINITY; n];
        for mode in SimdMode::ALL {
            assert_eq!(
                rtr_simd::sum(&inf, mode),
                f64::INFINITY,
                "inf sum n={n} {mode}"
            );
        }
    }
}

#[test]
fn kdtree_queries_are_identical_in_every_mode() {
    let pts: Vec<([f64; 3], usize)> = (0..257)
        .map(|i| {
            let t = i as f64;
            (
                [
                    (t * 0.7).sin() * 9.0,
                    (t * 1.3).cos() * 9.0,
                    (t * 0.29).sin() * 4.0,
                ],
                i,
            )
        })
        .collect();
    let build = |mode: SimdMode| KdTree::<3>::build_balanced(&pts).with_simd(mode);
    let base = build(SimdMode::Scalar);
    let mode = SimdMode::Lanes;
    let tree = build(mode);
    for qi in 0..64 {
        let t = qi as f64 * 0.41;
        let q = [(t).sin() * 10.0, (t * 2.0).cos() * 10.0, t % 5.0 - 2.5];
        let a = base.nearest(&q).expect("non-empty");
        let b = tree.nearest(&q).expect("non-empty");
        assert_eq!(a.0, b.0, "nearest payload {mode}");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "nearest distance {mode}");
        let (ka, kb) = (base.k_nearest(&q, 7), tree.k_nearest(&q, 7));
        assert_eq!(ka.len(), kb.len());
        for (x, y) in ka.iter().zip(kb.iter()) {
            assert_eq!(x.0, y.0, "k-nearest payload {mode}");
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "k-nearest distance {mode}");
        }
        let (ra, rb) = (base.within_radius(&q, 3.0), tree.within_radius(&q, 3.0));
        assert_eq!(ra.len(), rb.len(), "radius count {mode}");
        for (x, y) in ra.iter().zip(rb.iter()) {
            assert_eq!(x.0, y.0, "radius payload {mode}");
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "radius distance {mode}");
        }
    }
}

#[test]
fn mul_vector_simd_scalar_mode_reproduces_legacy_bitwise() {
    let a = Matrix::from_fn(17, 13, |r, c| ((r * 13 + c) as f64 * 0.11).sin());
    let v = Vector::from_fn(13, |i| (i as f64 * 0.7).cos());
    let mut legacy = Vector::zeros(17);
    a.mul_vector_into(&v, &mut legacy).unwrap();
    let mut scalar = Vector::zeros(17);
    a.mul_vector_simd_into(&v, &mut scalar, SimdMode::Scalar)
        .unwrap();
    for i in 0..17 {
        assert_eq!(legacy[i].to_bits(), scalar[i].to_bits(), "row {i}");
    }
    // Vector modes carry the reduction contract: forward-error bounded.
    let mode = SimdMode::Lanes;
    let mut fast = Vector::zeros(17);
    a.mul_vector_simd_into(&v, &mut fast, mode).unwrap();
    for i in 0..17 {
        let scale: f64 = (0..13).map(|j| (a[(i, j)] * v[j]).abs()).sum();
        assert!(
            (fast[i] - legacy[i]).abs() <= 1e-13 * scale + 1e-300,
            "row {i} {mode}: {} vs {}",
            fast[i],
            legacy[i]
        );
    }
}

#[test]
fn gp_predict_with_is_bit_identical_in_every_mode() {
    let xs: Vec<Vec<f64>> = (0..23)
        .map(|i| vec![(i as f64 * 0.17).sin(), (i as f64 * 0.23).cos()])
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0] + 0.5 * x[1]).collect();
    let gp = GaussianProcess::fit(&xs, &ys, 0.7, 1.0, 1e-6).unwrap();
    for mode in SimdMode::ALL {
        let gp = gp.clone().with_simd(mode);
        let mut ws = Workspace::new();
        for q in 0..32 {
            let x = [q as f64 * 0.09 - 1.0, (q as f64 * 0.05).sin()];
            let (m0, v0) = gp.predict(&x);
            let (m1, v1) = gp.predict_with(&x, &mut ws);
            assert_eq!(m0.to_bits(), m1.to_bits(), "mean query {q} {mode}");
            assert_eq!(v0.to_bits(), v1.to_bits(), "variance query {q} {mode}");
        }
    }
}
