//! Dense row-major matrices.
//!
//! The QBD blocks manipulated by `eirs-markov` are small (phase dimension
//! `k + 2` at most, with `k` a server count in the tens), so a straightforward
//! row-major `Vec<f64>` representation with textbook `O(n^3)` multiplication
//! is the right tool: simple, cache-friendly at these sizes, and easy to
//! verify.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// A square diagonal matrix with the given diagonal entries.
    pub fn diag(entries: &[f64]) -> Self {
        let n = entries.len();
        let mut m = Self::zeros(n, n);
        for (i, &v) in entries.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Builds a matrix from nested row slices. Panics when rows are ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the flat row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the flat row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Simultaneous mutable borrows of two distinct rows (panics when
    /// `r1 == r2` or either is out of range). Lets elimination kernels
    /// update one row from another through slice iterators instead of
    /// per-element indexing.
    #[inline]
    pub fn two_rows_mut(&mut self, r1: usize, r2: usize) -> (&mut [f64], &mut [f64]) {
        assert!(r1 != r2, "two_rows_mut requires distinct rows");
        let cols = self.cols;
        if r1 < r2 {
            let (head, tail) = self.data.split_at_mut(r2 * cols);
            (&mut head[r1 * cols..(r1 + 1) * cols], &mut tail[..cols])
        } else {
            let (head, tail) = self.data.split_at_mut(r1 * cols);
            let row2 = &mut head[r2 * cols..(r2 + 1) * cols];
            (&mut tail[..cols], row2)
        }
    }

    /// The transpose.
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Scales every entry by `s`, in place.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns `self * s` without mutating.
    #[must_use]
    pub fn scaled(&self, s: f64) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }

    /// Overwrites every entry with `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Overwrites `self` with the identity (requires a square matrix).
    pub fn set_identity(&mut self) {
        assert!(self.is_square(), "set_identity requires a square matrix");
        self.data.fill(0.0);
        for i in 0..self.rows {
            self[(i, i)] = 1.0;
        }
    }

    /// Copies `src` into `self`. Panics on shape mismatch.
    pub fn copy_from(&mut self, src: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (src.rows, src.cols),
            "copy_from shape mismatch"
        );
        self.data.copy_from_slice(&src.data);
    }

    /// In-place entrywise sum `self += rhs`. Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// In-place entrywise difference `self -= rhs`. Panics on shape mismatch.
    pub fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }

    /// In-place scaled accumulation `self += s * rhs` — the AXPY kernel of
    /// the allocation-free QBD iterations. Panics on shape mismatch.
    pub fn add_assign_scaled(&mut self, rhs: &Matrix, s: f64) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += s * b;
        }
    }

    /// Writes `self - rhs` into `out` without allocating. Panics on shape
    /// mismatch.
    pub fn sub_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        assert_eq!((self.rows, self.cols), (out.rows, out.cols));
        for ((o, a), b) in out.data.iter_mut().zip(&self.data).zip(&rhs.data) {
            *o = a - b;
        }
    }

    /// Matrix product `self * rhs`. Panics on dimension mismatch.
    #[must_use]
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.mul_into(rhs, &mut out);
        out
    }

    /// Writes `self * rhs` into `out` without allocating. `out` must already
    /// have shape `self.rows x rhs.cols` and must not alias either operand.
    /// Panics on dimension mismatch.
    pub fn mul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, rhs.cols),
            "mul_into output shape mismatch"
        );
        out.data.fill(0.0);
        self.mul_accumulate(rhs, out);
    }

    /// Accumulates `self * rhs` into `out`. The i-k-j order keeps the `rhs`
    /// rows and the output row streaming contiguously; every output element
    /// sees its `k` contributions in increasing order, and zero `self`
    /// entries are skipped.
    #[inline]
    fn mul_accumulate(&self, rhs: &Matrix, out: &mut Matrix) {
        // Narrow outputs (the p ≤ 8 QBD phase blocks that dominate sweep
        // time) dispatch to a const-width kernel whose accumulator row
        // lives in registers across the whole k loop.
        match rhs.cols {
            2 => return self.mul_accumulate_narrow::<2>(rhs, out),
            3 => return self.mul_accumulate_narrow::<3>(rhs, out),
            4 => return self.mul_accumulate_narrow::<4>(rhs, out),
            5 => return self.mul_accumulate_narrow::<5>(rhs, out),
            6 => return self.mul_accumulate_narrow::<6>(rhs, out),
            7 => return self.mul_accumulate_narrow::<7>(rhs, out),
            8 => return self.mul_accumulate_narrow::<8>(rhs, out),
            _ => {}
        }
        for i in 0..self.rows {
            let out_row = out.row_mut(i);
            for (k, &a) in self.row(i).iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(rhs.row(k)) {
                    *o += a * b;
                }
            }
        }
    }

    /// [`Matrix::mul_accumulate`] for a compile-time output width `W`:
    /// the accumulator row is a `[f64; W]` the compiler keeps in registers,
    /// so the k loop performs only the `W` fused multiply-adds plus one
    /// `rhs` row load per step. Identical per-element operation order and
    /// zero-skip behavior as the general kernel — bit-identical results.
    #[inline]
    fn mul_accumulate_narrow<const W: usize>(&self, rhs: &Matrix, out: &mut Matrix) {
        for i in 0..self.rows {
            let out_row = &mut out.row_mut(i)[..W];
            let mut acc = [0.0f64; W];
            acc.copy_from_slice(out_row);
            for (k, &a) in self.row(i).iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.row(k)[..W];
                for (o, &b) in acc.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
            out_row.copy_from_slice(&acc);
        }
    }

    /// Row-vector times matrix: `x * self`, with `x.len() == rows`.
    pub fn vecmat(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.vecmat_into(x, &mut out);
        out
    }

    /// Writes `x * self` into `out` without allocating (`out.len() == cols`).
    pub fn vecmat_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "vecmat dimension mismatch");
        assert_eq!(out.len(), self.cols, "vecmat output length mismatch");
        out.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (o, &m) in out.iter_mut().zip(self.row(i)) {
                *o += xi * m;
            }
        }
    }

    /// Matrix times column vector: `self * x`, with `x.len() == cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(x).map(|(&m, &v)| m * v).sum())
            .collect()
    }

    /// Sum of the entries of each row (`self * 1`).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row(i).iter().sum()).collect()
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Largest absolute entry of `self - other`. Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0, |acc, (a, b)| acc.max((a - b).abs()))
    }

    /// `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>12.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::approx_eq;

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn vecmat_and_matvec_are_consistent_with_matmul() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 4.0]]);
        let x = [3.0, 7.0];
        let as_row = a.vecmat(&x);
        let at = a.transpose();
        let via_transpose = at.matvec(&x);
        for (u, v) in as_row.iter().zip(&via_transpose) {
            assert!(approx_eq(*u, *v, 1e-14));
        }
    }

    #[test]
    fn row_sums_and_norms() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        assert_eq!(a.row_sums(), vec![-1.0, 7.0]);
        assert_eq!(a.norm_inf(), 7.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn diag_builds_square_diagonal() {
        let d = Matrix::diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d.rows(), 3);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[4.0, 3.0], &[2.0, 1.0]]);
        let sum = &a + &b;
        let diff = &a - &b;
        assert_eq!(sum, Matrix::from_rows(&[&[5.0, 5.0], &[5.0, 5.0]]));
        assert_eq!(diff, Matrix::from_rows(&[&[-3.0, -1.0], &[1.0, 3.0]]));
        assert_eq!((&a).neg()[(0, 0)], -1.0);
    }

    #[test]
    fn mul_into_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let mut out = Matrix::from_rows(&[&[99.0, 99.0], &[99.0, 99.0]]); // stale
        a.mul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn in_place_kernels_match_operator_forms() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[4.0, 3.0], &[2.0, 1.0]]);

        let mut sum = a.clone();
        sum.add_assign(&b);
        assert_eq!(sum, &a + &b);

        let mut diff = a.clone();
        diff.sub_assign(&b);
        assert_eq!(diff, &a - &b);

        let mut axpy = a.clone();
        axpy.add_assign_scaled(&b, 2.0);
        assert_eq!(axpy, &a + &b.scaled(2.0));

        let mut out = Matrix::zeros(2, 2);
        a.sub_into(&b, &mut out);
        assert_eq!(out, &a - &b);
    }

    #[test]
    fn fill_set_identity_copy_from() {
        let mut m = Matrix::zeros(3, 3);
        m.fill(2.5);
        assert_eq!(m[(1, 2)], 2.5);
        m.set_identity();
        assert_eq!(m, Matrix::identity(3));
        let src = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        m.copy_from(&src);
        assert_eq!(m, src);
    }

    #[test]
    #[should_panic(expected = "mul_into output shape mismatch")]
    fn mul_into_rejects_bad_output_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut out = Matrix::zeros(2, 3);
        a.mul_into(&b, &mut out);
    }

    #[test]
    fn max_abs_diff_detects_perturbation() {
        let a = Matrix::identity(3);
        let mut b = a.clone();
        b[(2, 0)] = 0.25;
        assert!(approx_eq(a.max_abs_diff(&b), 0.25, 1e-15));
    }
}
