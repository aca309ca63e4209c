//! Property-based tests for the linear-algebra substrate.
//!
//! These exercise the factorizations on randomly generated matrices to
//! ensure the algebraic identities hold far from the hand-picked unit-test
//! inputs.

use proptest::prelude::*;
use rtr_linalg::{Matrix, Vector, Workspace};

/// Bitwise matrix equality: the in-place API contract is exact, not
/// approximate.
fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bitwise vector equality.
fn vbits_equal(a: &Vector, b: &Vector) -> bool {
    a.len() == b.len()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Strategy: a well-scaled random vector of length `n`.
fn vector(n: usize) -> impl Strategy<Value = Vector> {
    prop::collection::vec(-10.0..10.0f64, n).prop_map(Vector::from)
}

/// Strategy: an `n × n` diagonally dominant matrix (always invertible).
fn dominant_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0..1.0f64, n * n).prop_map(move |data| {
        let mut m = Matrix::from_vec(n, n, data).expect("shape");
        for i in 0..n {
            m[(i, i)] += n as f64 + 1.0;
        }
        m
    })
}

/// Strategy: an `n × n` symmetric positive-definite matrix built as
/// `B·Bᵀ + n·I`.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0..1.0f64, n * n).prop_map(move |data| {
        let b = Matrix::from_vec(n, n, data).expect("shape");
        let mut m = &b * &b.transpose();
        for i in 0..n {
            m[(i, i)] += n as f64;
        }
        m
    })
}

proptest! {
    #[test]
    fn lu_solve_residual_is_small((a, x) in dominant_matrix(4).prop_flat_map(|a| (Just(a), vector(4)))) {
        let b = a.mul_vector(&x).unwrap();
        let x_solved = a.solve(&b).unwrap();
        prop_assert!(x_solved.approx_eq(&x, 1e-8));
    }

    #[test]
    fn inverse_roundtrip(a in dominant_matrix(5)) {
        let inv = a.inverse().unwrap();
        let prod = &a * &inv;
        prop_assert!(prod.approx_eq(&Matrix::identity(5), 1e-8));
    }

    #[test]
    fn determinant_of_product_is_product_of_determinants(
        a in dominant_matrix(3),
        b in dominant_matrix(3),
    ) {
        let det_ab = (&a * &b).determinant().unwrap();
        let det_a = a.determinant().unwrap();
        let det_b = b.determinant().unwrap();
        prop_assert!((det_ab - det_a * det_b).abs() <= 1e-6 * det_ab.abs().max(1.0));
    }

    #[test]
    fn cholesky_reconstructs(a in spd_matrix(4)) {
        let l = a.cholesky().unwrap().into_l();
        let recomposed = &l * &l.transpose();
        prop_assert!(recomposed.approx_eq(&a, 1e-8));
    }

    #[test]
    fn cholesky_solve_matches_lu(a in spd_matrix(4), x in vector(4)) {
        let b = a.mul_vector(&x).unwrap();
        let chol = a.cholesky().unwrap().solve(&b).unwrap();
        let lu = a.lu().unwrap().solve(&b).unwrap();
        prop_assert!(chol.approx_eq(&lu, 1e-7));
    }

    #[test]
    fn transpose_is_involution(data in prop::collection::vec(-5.0..5.0f64, 6)) {
        let a = Matrix::from_vec(2, 3, data).unwrap();
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matrix_multiply_is_associative(
        a in dominant_matrix(3),
        b in dominant_matrix(3),
        c in dominant_matrix(3),
    ) {
        let left = &(&a * &b) * &c;
        let right = &a * &(&b * &c);
        prop_assert!(left.approx_eq(&right, 1e-6));
    }

    #[test]
    fn dot_product_is_commutative(x in vector(6), y in vector(6)) {
        prop_assert_eq!(x.dot(&y), y.dot(&x));
    }

    #[test]
    fn triangle_inequality(x in vector(5), y in vector(5)) {
        prop_assert!((&x + &y).norm() <= x.norm() + y.norm() + 1e-12);
    }

    #[test]
    fn normalized_vector_has_unit_norm(x in vector(4)) {
        if x.norm() > 1e-6 {
            prop_assert!((x.normalized().unwrap().norm() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn congruence_of_spd_stays_spd(f in dominant_matrix(3), p in spd_matrix(3)) {
        let out = f.congruence(&p).unwrap();
        prop_assert!(out.is_symmetric(1e-8));
        // An SPD matrix congruence-transformed by an invertible F stays PD.
        prop_assert!(out.cholesky().is_ok());
    }

    #[test]
    fn mul_into_is_bit_identical(a in dominant_matrix(5), b in dominant_matrix(5)) {
        let reference = a.mul_matrix(&b).unwrap();
        let mut ws = Workspace::new();
        let mut out = ws.matrix(5, 5);
        // Dirty the buffer through one round trip: mul_into must zero it.
        out[(2, 3)] = 99.0;
        a.mul_into(&b, &mut out).unwrap();
        prop_assert!(bits_equal(&out, &reference));
    }

    #[test]
    fn mul_transposed_into_is_bit_identical(a in dominant_matrix(4), b in dominant_matrix(4)) {
        let reference = a.mul_transposed(&b).unwrap();
        let mut out = Matrix::zeros(4, 4);
        a.mul_transposed_into(&b, &mut out).unwrap();
        prop_assert!(bits_equal(&out, &reference));
    }

    #[test]
    fn transpose_into_is_bit_identical(a in dominant_matrix(4)) {
        let mut out = Matrix::zeros(4, 4);
        a.transpose_into(&mut out).unwrap();
        prop_assert!(bits_equal(&out, &a.transpose()));
    }

    #[test]
    fn congruence_into_is_bit_identical(f in dominant_matrix(4), p in spd_matrix(4)) {
        let reference = f.congruence(&p).unwrap();
        let mut ws = Workspace::new();
        let mut out = ws.matrix(4, 4);
        f.congruence_into(&p, &mut ws, &mut out).unwrap();
        prop_assert!(bits_equal(&out, &reference));
    }

    #[test]
    fn mul_vector_into_is_bit_identical(a in dominant_matrix(5), x in vector(5)) {
        let reference = a.mul_vector(&x).unwrap();
        let mut out = Vector::zeros(5);
        a.mul_vector_into(&x, &mut out).unwrap();
        prop_assert!(vbits_equal(&out, &reference));
    }

    #[test]
    fn add_scaled_assign_matches_axpy_semantics(
        a in dominant_matrix(3),
        b in dominant_matrix(3),
        alpha in -2.0..2.0f64,
    ) {
        let mut out = a.clone();
        out.add_scaled_assign(alpha, &b);
        for r in 0..3 {
            for c in 0..3 {
                let expect = a[(r, c)] + alpha * b[(r, c)];
                prop_assert_eq!(out[(r, c)].to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn cholesky_solve_into_is_bit_identical(a in spd_matrix(5), x in vector(5)) {
        let b = a.mul_vector(&x).unwrap();
        let chol = a.cholesky().unwrap();
        let reference = chol.solve(&b).unwrap();
        let mut out = Vector::zeros(5);
        chol.solve_into(&b, &mut out).unwrap();
        prop_assert!(vbits_equal(&out, &reference));

        let lower_ref = chol.solve_lower(&b).unwrap();
        chol.solve_lower_into(&b, &mut out).unwrap();
        prop_assert!(vbits_equal(&out, &lower_ref));
    }

    #[test]
    fn lu_solve_into_is_bit_identical(a in dominant_matrix(5), x in vector(5)) {
        let b = a.mul_vector(&x).unwrap();
        let lu = a.lu().unwrap();
        let reference = lu.solve(&b).unwrap();
        let mut out = Vector::zeros(5);
        lu.solve_into(&b, &mut out).unwrap();
        prop_assert!(vbits_equal(&out, &reference));
    }

    #[test]
    fn workspace_reuse_never_perturbs_results(
        a in dominant_matrix(4),
        b in dominant_matrix(4),
    ) {
        // Two rounds through the same workspace: the recycled (dirty)
        // buffers must give the same bits as the first round.
        let mut ws = Workspace::new();
        let mut first = ws.matrix(4, 4);
        a.mul_into(&b, &mut first).unwrap();
        let reference = first.clone();
        ws.recycle_matrix(first);
        let mut second = ws.matrix(4, 4);
        a.mul_into(&b, &mut second).unwrap();
        prop_assert!(bits_equal(&second, &reference));
        prop_assert_eq!(ws.allocations(), 1);
    }
}
