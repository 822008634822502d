//! Independent oracles for the solver kernels: `Matrix::mul_into` must
//! equal a test-local triple loop **bit for bit** on arbitrary shapes (the
//! const-width narrow kernels and the general loop alike), and an LU solve
//! of `A·x` must return `x` on well-conditioned systems with exact zeros.

use eirs_repro::numerics::lu::solve;
use eirs_repro::numerics::Matrix;
use proptest::prelude::*;

/// Deterministic pseudo-random matrix from an LCG stream: entries in
/// `[-1, 1)` with ~10% exact zeros, so the kernels' `a == 0.0` skip path
/// is exercised alongside the dense path.
fn lcg_matrix(rows: usize, cols: usize, seed: &mut u64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((*seed >> 11) as f64) / ((1u64 << 53) as f64);
            m[(i, j)] = if x < 0.1 { 0.0 } else { 2.0 * x - 1.0 };
        }
    }
    m
}

/// The oracle product: each output element accumulates its `k` terms in
/// increasing order from `0.0`, skipping zero `a` entries — the operation
/// sequence `mul_into` promises, written without any of its kernels.
fn triple_loop(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                let x = a[(i, k)];
                if x != 0.0 {
                    acc += x * b[(k, j)];
                }
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// `lcg_matrix` made strictly diagonally dominant, so every solve is well
/// conditioned while ~10% of the off-diagonal entries stay exact zeros,
/// then its rows rotated by `shift`: each column's dominant entry sits off
/// the diagonal, so partial pivoting must find it and swap rows.
fn dominant_matrix(n: usize, shift: usize, seed: &mut u64) -> Matrix {
    let mut a = lcg_matrix(n, n, seed);
    for i in 0..n {
        a[(i, i)] += n as f64 + 1.0;
    }
    let mut rotated = Matrix::zeros(n, n);
    for i in 0..n {
        rotated.row_mut(i).copy_from_slice(a.row((i + shift) % n));
    }
    rotated
}

/// Asserts that solving `A·x` returns `x` to a tolerance far below any
/// kernel defect (a wrong pivot, a skipped update, a stale row).
fn assert_round_trip(a: &Matrix, x: &[f64]) {
    let b = a.matvec(x);
    let solved = solve(a, &b).expect("dominant systems are nonsingular");
    for (got, want) in solved.iter().zip(x) {
        assert!(
            (got - want).abs() <= 1e-10 * (1.0 + want.abs()),
            "{got} vs {want}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Shapes 1..80 on every axis cover the 2..8-wide narrow kernels and
    // the general loop on both sides of them.
    #[test]
    fn mul_into_is_bit_identical_to_triple_loop(
        m in 1usize..80,
        k in 1usize..80,
        n in 1usize..80,
        seed in 1u64..1_000_000,
    ) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15);
        let a = lcg_matrix(m, k, &mut s);
        let b = lcg_matrix(k, n, &mut s);
        let mut out = Matrix::zeros(m, n);
        a.mul_into(&b, &mut out);
        prop_assert_eq!(out.as_slice(), triple_loop(&a, &b).as_slice());
    }

    #[test]
    fn lu_solve_recovers_x_from_a_times_x(
        n in 1usize..90,
        seed in 1u64..1_000_000,
    ) {
        let mut s = seed.wrapping_mul(0xD1B54A32D192ED03);
        let a = dominant_matrix(n, seed as usize % n, &mut s);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() * 2.0).collect();
        assert_round_trip(&a, &x);
    }
}

#[test]
#[should_panic]
fn tiled_mul_rejects_inner_dimension_mismatch() {
    let a = Matrix::zeros(3, 4);
    let b = Matrix::zeros(5, 2);
    let mut out = Matrix::zeros(3, 2);
    a.mul_into(&b, &mut out);
}

#[test]
#[should_panic]
fn tiled_mul_rejects_output_shape_mismatch() {
    let a = Matrix::zeros(3, 4);
    let b = Matrix::zeros(4, 2);
    let mut out = Matrix::zeros(2, 3);
    a.mul_into(&b, &mut out);
}

#[test]
fn kernels_agree_on_shapes_much_larger_than_one_tile() {
    // One deterministic case well past the proptest shapes, so the large
    // sizes are pinned even if the sampler never draws the extremes.
    let mut s = 42u64;
    let a = lcg_matrix(130, 97, &mut s);
    let b = lcg_matrix(97, 113, &mut s);
    let mut out = Matrix::zeros(130, 113);
    a.mul_into(&b, &mut out);
    assert_eq!(out.as_slice(), triple_loop(&a, &b).as_slice());

    let sq = dominant_matrix(150, 61, &mut s);
    let x: Vec<f64> = (0..150).map(|i| (i as f64).sin()).collect();
    assert_round_trip(&sq, &x);
}
