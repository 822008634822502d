//! LU factorization with partial pivoting.
//!
//! This is the workhorse behind every linear solve in the reproduction: QBD
//! boundary systems, `(I - R)^{-1}` for geometric tails, stationary
//! distributions of finite chains, and first-step analysis of absorbing
//! chains. Partial pivoting with a relative singularity check is plenty for
//! the well-conditioned generator blocks that arise here.

use crate::matrix::Matrix;

/// Errors from linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinAlgError {
    /// Factorization found no usable pivot: matrix is singular to working
    /// precision.
    Singular {
        /// Elimination column where factorization broke down.
        column: usize,
    },
    /// The operation requires a square matrix.
    NotSquare {
        /// Offending shape.
        rows: usize,
        /// Offending shape.
        cols: usize,
    },
    /// Vector length incompatible with the factorized matrix.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Received length.
        got: usize,
    },
}

impl std::fmt::Display for LinAlgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinAlgError::Singular { column } => {
                write!(
                    f,
                    "matrix is singular to working precision (column {column})"
                )
            }
            LinAlgError::NotSquare { rows, cols } => {
                write!(f, "operation requires a square matrix, got {rows}x{cols}")
            }
            LinAlgError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for LinAlgError {}

/// An LU factorization `P A = L U` with partial pivoting.
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Packed L (unit lower, implicit diagonal) and U factors.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation, for determinants.
    perm_sign: f64,
}

impl LuDecomposition {
    /// Factorizes `a`. Fails when `a` is not square or is singular to working
    /// precision (pivot smaller than `n * eps * max_abs(a)`).
    pub fn new(a: &Matrix) -> Result<Self, LinAlgError> {
        Self::from_matrix(a.clone())
    }

    /// Factorizes `a`, consuming it as the factor storage (no clone).
    pub fn from_matrix(a: Matrix) -> Result<Self, LinAlgError> {
        if !a.is_square() {
            return Err(LinAlgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut this = Self {
            lu: a,
            perm: (0..n).collect(),
            perm_sign: 1.0,
        };
        this.factorize_in_place()?;
        Ok(this)
    }

    /// The (trivial) factorization of the `n x n` identity: `L = U = I`,
    /// no pivoting. O(n²) storage initialization with no elimination work —
    /// use it to preallocate a decomposition whose storage will be filled
    /// by [`LuDecomposition::refactor`] before any solve.
    pub fn identity(n: usize) -> Self {
        Self {
            lu: Matrix::identity(n),
            perm: (0..n).collect(),
            perm_sign: 1.0,
        }
    }

    /// Re-factorizes `a` into this decomposition's existing storage —
    /// the allocation-free path for solver loops that factor a same-sized
    /// matrix every iteration. `a` must have the dimension of the original
    /// factorization.
    pub fn refactor(&mut self, a: &Matrix) -> Result<(), LinAlgError> {
        if !a.is_square() {
            return Err(LinAlgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if a.rows() != self.dim() {
            return Err(LinAlgError::DimensionMismatch {
                expected: self.dim(),
                got: a.rows(),
            });
        }
        self.lu.copy_from(a);
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        self.perm_sign = 1.0;
        self.factorize_in_place()
    }

    /// Gaussian elimination with partial pivoting (full-row swaps) over
    /// `self.lu`, which holds the input matrix on entry and the packed
    /// factors on success. Zero multipliers skip their row update, so the
    /// banded boundary systems of the QBD solves cost far less than a dense
    /// elimination.
    fn factorize_in_place(&mut self) -> Result<(), LinAlgError> {
        let n = self.lu.rows();
        // Relative singularity threshold, fixed before any elimination.
        let tol = (n as f64) * f64::EPSILON * self.lu.max_abs().max(f64::MIN_POSITIVE);
        let lu = &mut self.lu;
        for col in 0..n {
            // Pivot search over rows col..n.
            let mut pivot_row = col;
            let mut pivot_val = lu[(col, col)].abs();
            for r in (col + 1)..n {
                let v = lu[(r, col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val <= tol {
                return Err(LinAlgError::Singular { column: col });
            }
            if pivot_row != col {
                self.perm.swap(col, pivot_row);
                self.perm_sign = -self.perm_sign;
                let (a, b) = lu.two_rows_mut(col, pivot_row);
                a.swap_with_slice(b);
            }
            let pivot = lu[(col, col)];
            for r in (col + 1)..n {
                let (dst, src) = lu.two_rows_mut(r, col);
                let factor = dst[col] / pivot;
                dst[col] = factor;
                if factor != 0.0 {
                    for (d, &s) in dst[(col + 1)..].iter_mut().zip(&src[(col + 1)..]) {
                        *d -= factor * s;
                    }
                }
            }
        }
        Ok(())
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b` for a single right-hand side.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinAlgError> {
        let mut x = vec![0.0; self.dim()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` into a caller-provided buffer (no allocation).
    /// `x` must have length `dim()`; `b` is left untouched.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), LinAlgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinAlgError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        if x.len() != n {
            return Err(LinAlgError::DimensionMismatch {
                expected: n,
                got: x.len(),
            });
        }
        // Apply permutation, then forward- and back-substitution.
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        self.substitute_in_place(x);
        Ok(())
    }

    /// Forward- and back-substitution on a vector that already holds the
    /// permuted right-hand side.
    fn substitute_in_place(&self, x: &mut [f64]) {
        let n = self.dim();
        for i in 1..n {
            let row = self.lu.row(i);
            let mut acc = x[i];
            for (&lij, &xj) in row[..i].iter().zip(x[..i].iter()) {
                acc -= lij * xj;
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let mut acc = x[i];
            for (&lij, &xj) in row[(i + 1)..].iter().zip(x[(i + 1)..].iter()) {
                acc -= lij * xj;
            }
            x[i] = acc / row[i];
        }
    }

    /// Solves `A X = B` column by column.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinAlgError> {
        let mut out = Matrix::zeros(self.dim(), b.cols());
        let mut col = vec![0.0; self.dim()];
        self.solve_matrix_into(b, &mut out, &mut col)?;
        Ok(out)
    }

    /// Solves `A X = B` into a caller-provided matrix using one length-`n`
    /// scratch column (no allocation). `out` must be `dim() x b.cols()`.
    pub fn solve_matrix_into(
        &self,
        b: &Matrix,
        out: &mut Matrix,
        col: &mut [f64],
    ) -> Result<(), LinAlgError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinAlgError::DimensionMismatch {
                expected: n,
                got: b.rows(),
            });
        }
        if out.rows() != n || out.cols() != b.cols() {
            return Err(LinAlgError::DimensionMismatch {
                expected: n * b.cols(),
                got: out.rows() * out.cols(),
            });
        }
        if col.len() != n {
            return Err(LinAlgError::DimensionMismatch {
                expected: n,
                got: col.len(),
            });
        }
        for c in 0..b.cols() {
            // Build the permuted right-hand side directly in the scratch.
            for (r, &p) in self.perm.iter().enumerate() {
                col[r] = b[(p, c)];
            }
            self.substitute_in_place(col);
            for r in 0..n {
                out[(r, c)] = col[r];
            }
        }
        Ok(())
    }

    /// The inverse matrix `A^{-1}`.
    pub fn inverse(&self) -> Result<Matrix, LinAlgError> {
        let mut out = Matrix::zeros(self.dim(), self.dim());
        let mut col = vec![0.0; self.dim()];
        self.inverse_into(&mut out, &mut col)?;
        Ok(out)
    }

    /// Writes `A^{-1}` into `out` using one length-`n` scratch column (no
    /// allocation). `out` must be `dim() x dim()`.
    pub fn inverse_into(&self, out: &mut Matrix, col: &mut [f64]) -> Result<(), LinAlgError> {
        let n = self.dim();
        if out.rows() != n || out.cols() != n {
            return Err(LinAlgError::DimensionMismatch {
                expected: n * n,
                got: out.rows() * out.cols(),
            });
        }
        if col.len() != n {
            return Err(LinAlgError::DimensionMismatch {
                expected: n,
                got: col.len(),
            });
        }
        // All-columns-at-once substitution: the right-hand side is the
        // permuted identity held in `out` row-major, and each elimination
        // step updates a whole row, vectorizing across the n columns
        // instead of striding down one. Per column this performs exactly
        // the operations of `substitute_in_place` in the same order, so
        // the result is bit-identical to the column-by-column version.
        out.as_mut_slice().fill(0.0);
        for (r, &p) in self.perm.iter().enumerate() {
            out[(r, p)] = 1.0;
        }
        for i in 1..n {
            for k in 0..i {
                let lik = self.lu[(i, k)];
                let (dst, src) = out.two_rows_mut(i, k);
                for (d, &s) in dst.iter_mut().zip(src.iter()) {
                    *d -= lik * s;
                }
            }
        }
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                let lik = self.lu[(i, k)];
                let (dst, src) = out.two_rows_mut(i, k);
                for (d, &s) in dst.iter_mut().zip(src.iter()) {
                    *d -= lik * s;
                }
            }
            let piv = self.lu[(i, i)];
            for d in out.row_mut(i) {
                *d /= piv;
            }
        }
        Ok(())
    }

    /// Determinant of the factorized matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.perm_sign;
        for i in 0..self.dim() {
            det *= self.lu[(i, i)];
        }
        det
    }
}

/// Convenience wrapper: factorize and solve `A x = b` in one call.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinAlgError> {
    LuDecomposition::new(a)?.solve(b)
}

/// Convenience wrapper: `A^{-1}` in one call.
pub fn inverse(a: &Matrix) -> Result<Matrix, LinAlgError> {
    LuDecomposition::new(a)?.inverse()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::approx_eq;

    fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!(approx_eq(*x, *y, tol), "{x} vs {y}");
        }
    }

    #[test]
    fn solves_small_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = solve(&a, &[3.0, 5.0]).unwrap();
        assert_vec_close(&x, &[0.8, 1.4], 1e-12);
    }

    #[test]
    fn solves_system_requiring_pivoting() {
        // Zero in the (0,0) position forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[2.0, 5.0]).unwrap();
        assert_vec_close(&x, &[5.0, 2.0], 1e-14);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, -2.0, 1.0], &[-2.0, 4.0, -2.0], &[1.0, -2.0, 4.0]]);
        let inv = inverse(&a).unwrap();
        let prod = a.matmul(&inv);
        assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-12);
    }

    #[test]
    fn determinant_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!(approx_eq(lu.determinant(), -2.0, 1e-14));
    }

    #[test]
    fn determinant_sign_tracks_permutations() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!(approx_eq(lu.determinant(), -1.0, 1e-14));
    }

    #[test]
    fn rejects_singular_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinAlgError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinAlgError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn rejects_wrong_rhs_length() {
        let a = Matrix::identity(3);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!(matches!(
            lu.solve(&[1.0, 2.0]),
            Err(LinAlgError::DimensionMismatch {
                expected: 3,
                got: 2
            })
        ));
    }

    #[test]
    fn solve_matrix_handles_multiple_rhs() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[9.0, 4.0], &[8.0, 3.0]]);
        let x = LuDecomposition::new(&a).unwrap().solve_matrix(&b).unwrap();
        let back = a.matmul(&x);
        assert!(back.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn refactor_reuses_storage_and_matches_fresh_factorization() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let mut lu = LuDecomposition::new(&a).unwrap();
        lu.refactor(&b).unwrap();
        let fresh = LuDecomposition::new(&b).unwrap();
        assert_eq!(
            lu.solve(&[2.0, 5.0]).unwrap(),
            fresh.solve(&[2.0, 5.0]).unwrap()
        );
        assert!(approx_eq(lu.determinant(), fresh.determinant(), 1e-15));
        // And back again: permutation state fully resets.
        lu.refactor(&a).unwrap();
        let x = lu.solve(&[3.0, 5.0]).unwrap();
        assert_vec_close(&x, &[0.8, 1.4], 1e-12);
    }

    #[test]
    fn refactor_rejects_wrong_dimension() {
        let mut lu = LuDecomposition::new(&Matrix::identity(2)).unwrap();
        assert!(matches!(
            lu.refactor(&Matrix::identity(3)),
            Err(LinAlgError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        ));
    }

    #[test]
    fn in_place_solves_match_allocating_forms() {
        let a = Matrix::from_rows(&[&[4.0, -2.0, 1.0], &[-2.0, 4.0, -2.0], &[1.0, -2.0, 4.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        let b = [1.0, -2.0, 0.5];
        let mut x = [0.0; 3];
        lu.solve_into(&b, &mut x).unwrap();
        assert_eq!(x.to_vec(), lu.solve(&b).unwrap());

        let rhs = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 1.0], &[3.0, -1.0]]);
        let mut out = Matrix::zeros(3, 2);
        let mut col = [0.0; 3];
        lu.solve_matrix_into(&rhs, &mut out, &mut col).unwrap();
        assert_eq!(out, lu.solve_matrix(&rhs).unwrap());

        let mut inv = Matrix::zeros(3, 3);
        lu.inverse_into(&mut inv, &mut col).unwrap();
        assert_eq!(inv, lu.inverse().unwrap());
    }

    #[test]
    fn identity_decomposition_solves_trivially_and_refactors() {
        let lu = LuDecomposition::identity(3);
        assert_eq!(lu.solve(&[1.0, 2.0, 3.0]).unwrap(), vec![1.0, 2.0, 3.0]);
        assert!(approx_eq(lu.determinant(), 1.0, 1e-15));
        let mut lu = lu;
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]);
        lu.refactor(&a).unwrap();
        let x = [0.5, -1.0, 2.0];
        let b = a.matvec(&x);
        assert_vec_close(&lu.solve(&b).unwrap(), &x, 1e-12);
    }

    #[test]
    fn from_matrix_consumes_without_clone() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let lu = LuDecomposition::from_matrix(a.clone()).unwrap();
        assert_eq!(
            lu.solve(&[3.0, 5.0]).unwrap(),
            LuDecomposition::new(&a)
                .unwrap()
                .solve(&[3.0, 5.0])
                .unwrap()
        );
    }

    #[test]
    fn random_round_trip() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for n in [1usize, 2, 5, 12, 30] {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = rng.random::<f64>() - 0.5;
                }
                // Diagonal dominance keeps the instance well conditioned.
                a[(i, i)] += n as f64;
            }
            let xs: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 4.0 - 2.0).collect();
            let b = a.matvec(&xs);
            let solved = solve(&a, &b).unwrap();
            assert_vec_close(&solved, &xs, 1e-10);
        }
    }
}
